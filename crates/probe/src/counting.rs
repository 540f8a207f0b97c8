//! The event vocabulary, declared once.
//!
//! Each row of the table at the bottom of this file is one [`EventKind`]
//! variant: its doc comment, its stable label, its typed payload fields
//! (at most two, each a `Payload`) and the counters it feeds — `count`
//! (one per event), `sum` (a payload quantity) or `flag` (one per event
//! whose condition holds), with a Prometheus help string if exported.
//! From the rows `counters!` generates `EventKind` itself, its JSONL
//! label and field walk, its flight-recorder `[tag, a, b]` packing,
//! [`CountingProbe`] and [`SharedProbe`], and the one `record` body
//! those sinks share. No generated `match` has a `_ =>` arm, so adding
//! an event kind is adding a row.

use std::sync::atomic::{AtomicU64, Ordering};

use dsa_core::ids::Words;

use crate::{DegradationStep, Event, InjectedFault, Payload, Probe};

macro_rules! counters {
    // The one `record` body, instantiated per `$mode`: how a cell is
    // reached, and therefore how it is bumped.
    (@record $mode:ident $self:ident, $event:ident;
        $($variant:ident $({ $($field:ident),* })? => $($op:ident $cell:ident $(($arg:expr))?),*;)*
    ) => {
        match $event.kind {
            $(#[allow(unused_variables)]
            EventKind::$variant $({ $($field),* })? => {
                $(counters!(@$op $mode $self.$cell $(, $arg)?);)*
            })*
        }
    };
    (@count $mode:ident $cell:expr) => { counters!(@sum $mode $cell, 1) };
    // A flag that is down must not cost a shared sink a locked
    // instruction. An exclusive sink adds 0 or 1 instead of branching on
    // data: 30 % random writes mispredict.
    (@flag shared $cell:expr, $on:expr) => {
        if $on {
            counters!(@sum shared $cell, 1);
        }
    };
    (@flag $mode:ident $cell:expr, $on:expr) => { counters!(@sum $mode $cell, u64::from($on)) };
    // `plain`: a `u64`. `owned`: an atomic its sink holds by `&mut` —
    // `get_mut` is no locked instruction, and the borrow checker is the
    // proof of exclusivity; it wraps, as `fetch_add` does. `shared`: an
    // atomic behind `&` — a relaxed read-modify-write (counters commute;
    // no ordering is needed beyond the final join).
    (@sum plain $cell:expr, $n:expr) => { $cell += $n };
    (@sum owned $cell:expr, $n:expr) => {{
        let cell = $cell.get_mut();
        *cell = cell.wrapping_add($n);
    }};
    (@sum shared $cell:expr, $n:expr) => { $cell.fetch_add($n, Ordering::Relaxed) };

    // What a cell contributes to the number of events seen.
    (@events count $cell:expr) => { $cell };
    (@events $op:ident $cell:expr) => { 0 };

    ($(
        $(#[$doc:meta])*
        $variant:ident $label:literal $({ $($field:ident: $ty:ty),* })?
            => $($op:ident $cell:ident $(($arg:expr))? $($help:literal)?),*;
    )*) => {
        /// What happened. Payloads carry the quantities reports
        /// aggregate, so a counting sink can reconcile exactly with a
        /// `MachineReport`.
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        pub enum EventKind {
            $($(#[$doc])* $variant $({ $($field: $ty),* })?,)*
        }

        /// Each kind's row number: the tag its packed words start with.
        enum Tag {
            $($variant,)*
        }

        impl EventKind {
            /// How many kinds the table declares; tags run `0..KINDS`.
            pub const KINDS: u64 = [$(Tag::$variant),*].len() as u64;

            /// The kind's stable lowercase label, e.g. `"evict"`.
            #[must_use]
            pub(crate) const fn label(self) -> &'static str {
                match self {
                    $(EventKind::$variant { .. } => $label,)*
                }
            }

            /// Calls `f` with each payload field's name and value, in
            /// declaration order.
            pub(crate) fn for_each_field(self, mut f: impl FnMut(&'static str, &dyn Payload)) {
                match self {
                    $(EventKind::$variant $({ $($field),* })? => {
                        $($(f(stringify!($field), &$field);)*)?
                    })*
                }
            }
        }

        /// Packs a kind as `[tag, a, b]`: its row's tag, then each
        /// payload field as one word, unused words zero.
        impl From<EventKind> for [u64; 3] {
            fn from(kind: EventKind) -> [u64; 3] {
                match kind {
                    $(EventKind::$variant $({ $($field),* })? => {
                        slot(Tag::$variant, [$($(Payload::to_word(&$field)),*)?])
                    })*
                }
            }
        }

        /// Unpacks `[tag, a, b]` strictly: words no kind packs to (an
        /// unknown tag, a field word its type has no value for, a
        /// nonzero unused word) come back as the error, never misread.
        impl TryFrom<[u64; 3]> for EventKind {
            type Error = [u64; 3];

            fn try_from(words: [u64; 3]) -> Result<EventKind, [u64; 3]> {
                let [tag, a, b] = words;
                let unpack = || {
                    let mut payload = [a, b].into_iter();
                    $(if tag == Tag::$variant as u64 {
                        let kind = EventKind::$variant $({
                            $($field: <$ty as Payload>::from_word(payload.next()?)?),*
                        })?;
                        return payload.all(|word| word == 0).then_some(kind);
                    })*
                    None
                };
                unpack().ok_or(words)
            }
        }

        /// Counts every event kind (and the word quantities events carry).
        ///
        /// The integration tests assert that, for every appendix-machine
        /// preset, these totals equal the corresponding `MachineReport`
        /// fields: the probe stream and the report are two views of one
        /// execution and must never disagree.
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct CountingProbe {
            $($(pub $cell: u64,)*)*
        }

        impl CountingProbe {
            /// Every counter with its name, in declaration order.
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$($((stringify!($cell), self.$cell),)*)*].into_iter()
            }

            /// The exported counters as `(series name, help, value)`:
            /// each cell the table gives a help string, named
            /// `<cell>_total`, in declaration order.
            pub fn exported(&self) -> impl Iterator<Item = (&'static str, &'static str, u64)> {
                [$($($((concat!(stringify!($cell), "_total"), $help, self.$cell),)?)*)*]
                    .into_iter()
            }

            /// Total number of events seen: the `count` cells, plus one
            /// `CompactionStart` (which has no cell of its own) per
            /// completed compaction.
            #[must_use]
            pub fn total_events(&self) -> u64 {
                self.compactions $($(+ counters!(@events $op self.$cell))*)*
            }

            /// Field-wise difference `self - earlier`: what happened in
            /// the interval between two snapshots of one counting sink.
            ///
            /// End-of-run totals hide phases; periodic deltas are how a
            /// live service reports *rates* (allocs/interval,
            /// faults/interval) without resetting its counters.
            /// Subtraction saturates, so a mismatched pair degrades to
            /// zeros instead of wrapping.
            #[must_use]
            pub(crate) fn delta(&self, earlier: &CountingProbe) -> CountingProbe {
                CountingProbe {
                    $($($cell: self.$cell.saturating_sub(earlier.$cell),)*)*
                }
            }
        }

        impl Probe for CountingProbe {
            fn record(&mut self, event: &Event) {
                counters!(@record plain self, event;
                    $($variant $({ $($field),* })? => $($op $cell $(($arg))?),*;)*);
            }
        }

        /// An atomic [`CountingProbe`]: one counter per event kind and
        /// payload quantity, safe to share across any number of emitting
        /// threads.
        #[derive(Debug, Default)]
        pub struct SharedProbe {
            $($($cell: AtomicU64,)*)*
        }

        impl SharedProbe {
            /// Freezes the atomics into an ordinary [`CountingProbe`],
            /// so reconciliation code compares one struct against
            /// another rather than forty-odd atomic loads.
            ///
            /// Relaxed loads: call this after the emitting threads have
            /// joined (the join is the synchronization point).
            #[must_use]
            pub fn snapshot(&self) -> CountingProbe {
                CountingProbe {
                    $($($cell: self.$cell.load(Ordering::Relaxed),)*)*
                }
            }
        }

        /// The exclusive form: a sink held by `&mut` bumps its atomics
        /// with plain adds (`get_mut`) and its flags branch-free.
        impl Probe for SharedProbe {
            fn record(&mut self, event: &Event) {
                counters!(@record owned self, event;
                    $($variant $({ $($field),* })? => $($op $cell $(($arg))?),*;)*);
            }
        }

        /// The shared-reference form workers actually hold: each thread
        /// keeps its own `&SharedProbe` and emits through it, one relaxed
        /// `fetch_add` per cell an event feeds.
        impl Probe for &SharedProbe {
            fn record(&mut self, event: &Event) {
                counters!(@record shared self, event;
                    $($variant $({ $($field),* })? => $($op $cell $(($arg))?),*;)*);
            }
        }
    };
}

/// A row's packed words: its tag, then its field words, zero-padded.
fn slot<const N: usize>(tag: Tag, fields: [u64; N]) -> [u64; 3] {
    const { assert!(N <= 2, "a slot has two payload words") };
    let mut words = [tag as u64, 0, 0];
    words[1..=N].copy_from_slice(&fields);
    words
}

counters! {
    /// A program reference reached the storage system.
    Touch "touch" { write: bool } =>
        count touches "Program references observed", flag writes(write);
    /// The reference missed working storage and must be serviced.
    Fault "fault" => count faults "References that missed working storage";
    /// A transfer from backing storage began.
    FetchStart "fetch_start" { words: Words } => count fetch_starts;
    /// The transfer completed; the program may resume.
    FetchDone "fetch_done" { words: Words } =>
        count fetches "Completed backing-storage transfers",
        sum fetched_words(words) "Words fetched from backing storage";
    /// A block or page lost its working-storage residence.
    Evict "evict" { dirty: bool, words: Words } =>
        count evictions "Residence losses", flag dirty_evictions(dirty), sum evicted_words(words);
    /// Modified words were copied back to backing storage.
    Writeback "writeback" { words: Words } =>
        count writebacks "Dirty copies back to backing storage", sum writeback_words(words);
    /// A variable-unit allocation succeeded after probing `searched`
    /// free-list entries.
    Alloc "alloc" { words: Words, searched: u64 } =>
        count allocs "Variable-unit allocations", sum alloc_words(words) "Words allocated",
        sum alloc_searched(searched) "Free-list entries examined";
    /// A variable-unit block was released.
    Free "free" { words: Words } =>
        count frees "Variable-unit releases", sum freed_words(words) "Words released";
    /// A compaction pass began.
    CompactionStart "compaction_start" => ;
    /// The compaction pass finished, having slid `moved_words` words.
    CompactionDone "compaction_done" { moved_words: Words } =>
        count compactions "Compaction passes completed", sum compaction_moved_words(moved_words);
    /// The program gave the system an advice operation.
    Advice "advice" => count advice;
    /// The system brought storage in ahead of demand.
    Prefetch "prefetch" { words: Words } => count prefetches, sum prefetched_words(words);
    /// An invalid access was trapped by a bounds check.
    BoundsTrap "bounds_trap" => count bounds_traps;
    /// An address-map lookup was resolved.
    MapLookup "map_lookup" { hit: bool } =>
        count map_lookups, flag map_hits(hit), flag map_misses(!hit);
    /// The fault injector simulated a hardware failure.
    FaultInjected "fault_injected" { fault: InjectedFault } =>
        count faults_injected "Simulated hardware failures",
        flag transfer_errors_injected(fault == InjectedFault::TransferError),
        flag bad_frames_injected(fault == InjectedFault::BadFrame),
        flag channel_delays_injected(fault == InjectedFault::ChannelDelay),
        flag alloc_failures_injected(fault == InjectedFault::AllocFailure),
        flag shard_corruptions_injected(fault == InjectedFault::ShardCorruption);
    /// A failed transfer was retried (`attempt` is 1-based).
    RetryAttempt "retry_attempt" { attempt: u32 } =>
        count retry_attempts "Failed transfers retried";
    /// A bad page frame was removed from service permanently.
    FrameQuarantined "frame_quarantined" =>
        count frames_quarantined "Bad frames removed from service";
    /// A degradation rung was climbed under storage pressure.
    DegradationStep "degradation_step" { step: DegradationStep } =>
        count degradation_steps "Degradation rungs climbed",
        flag shed_loads(step == DegradationStep::ShedLoad);
    /// A tenant's allocation was refused because it would exceed the
    /// tenant's word quota.
    QuotaDenied "quota_denied" { tenant: u32 } => count quota_denials;
    /// The overload guard refused a tenant's allocation at admission,
    /// before touching any shard.
    AdmissionReject "admission_reject" { tenant: u32 } => count admission_rejects;
    /// A lower-priority tenant's live allocations (`words` in total)
    /// were shed to admit a higher-priority demand.
    TenantShed "tenant_shed" { tenant: u32, words: Words } =>
        count tenants_shed, sum tenant_shed_words(words);
    /// A shard failed its audit and was quarantined: routed out of the
    /// home/steal rotation until healed.
    ShardQuarantined "shard_quarantined" { shard: u32 } => count shards_quarantined;
    /// A quarantined shard's free list was rebuilt from the live
    /// allocations, re-verified, and readmitted to the rotation.
    ShardRestored "shard_restored" { shard: u32 } => count shards_restored;
    /// A tenant passed admission and was activated with `frames` page
    /// frames of allotment.
    TenantAdmitted "tenant_admitted" { tenant: u32, frames: u32 } => count tenants_admitted;
    /// An active tenant was swapped out by the load controller;
    /// `resident` resident pages were dropped.
    TenantDeactivated "tenant_deactivated" { tenant: u32, resident: u32 } =>
        count tenants_deactivated, sum deactivated_resident_pages(u64::from(resident));
    /// The load controller estimated a tenant's working-set size at
    /// `pages` pages (windowed, from a trace sample).
    WsEstimate "ws_estimate" { tenant: u32, pages: u32 } =>
        count ws_estimates, sum ws_estimate_pages(u64::from(pages));
}

impl CountingProbe {
    #[must_use]
    pub fn new() -> CountingProbe {
        CountingProbe::default()
    }
}

/// Every kind the table unpacks from payload words below 8: each row,
/// each flag both ways, each injected-fault mode and ladder rung.
#[cfg(test)]
pub(crate) fn every_kind() -> impl Iterator<Item = EventKind> {
    (0..EventKind::KINDS).flat_map(|tag| {
        (0..8).flat_map(move |a| (0..8).filter_map(move |b| EventKind::try_from([tag, a, b]).ok()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Stamp;

    #[test]
    fn every_kind_lands_in_its_counter() {
        let mut whole = CountingProbe::new();
        let mut sum = 0;
        for kind in every_kind() {
            let mut one = CountingProbe::new();
            one.emit(kind, Stamp::vtime(0));
            whole.emit(kind, Stamp::vtime(0));
            sum += one.total_events();
            // A compaction is counted once it is done, for both its events.
            let events = match kind {
                EventKind::CompactionStart => 0,
                EventKind::CompactionDone { .. } => 2,
                _ => 1,
            };
            assert_eq!(one.total_events(), events, "{kind:?}");
            let moved = one.fields().any(|(_, value)| value != 0);
            assert_eq!(moved, kind != EventKind::CompactionStart, "{kind:?}");
        }
        // No cell of the table is dead, and the per-kind cells add up.
        for (name, value) in whole.fields() {
            assert!(value > 0, "{name} is fed by no event kind");
        }
        assert_eq!(whole.total_events(), sum);
    }

    #[test]
    fn every_packed_kind_unpacks_to_itself_and_nothing_else_unpacks() {
        let words = [
            0,
            1,
            2,
            4,
            5,
            6,
            7,
            8,
            u64::from(u32::MAX),
            1 << 32,
            u64::MAX,
        ];
        let mut tags = 0u64;
        for tag in 0..=EventKind::KINDS {
            for a in words {
                for b in words {
                    if let Ok(kind) = EventKind::try_from([tag, a, b]) {
                        assert_eq!(<[u64; 3]>::from(kind), [tag, a, b], "{kind:?}");
                        tags |= 1 << tag;
                    }
                }
            }
        }
        assert_eq!(tags, (1 << EventKind::KINDS) - 1, "a tag unpacks nothing");
    }

    #[test]
    fn delta_subtracts_every_field_and_saturates() {
        let mut early = CountingProbe::new();
        let mut late = CountingProbe::new();
        for kind in every_kind() {
            early.emit(kind, Stamp::vtime(0));
            late.emit(kind, Stamp::vtime(0));
            late.emit(kind, Stamp::vtime(1));
        }
        assert_eq!(late.delta(&early), early);
        assert_eq!(early.delta(&late), CountingProbe::new());
    }
}
