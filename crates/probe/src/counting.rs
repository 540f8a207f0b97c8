//! The counter vocabulary, declared once, and the two counting sinks
//! generated from it.
//!
//! Each row of the table at the bottom of this file names an
//! [`EventKind`] variant and the counters it feeds: `count` (one per
//! event), `sum` (a payload quantity) or `flag` (one per event whose
//! condition holds). From the rows `counters!` generates
//! [`CountingProbe`] (plain `u64` cells, one owner), [`SharedProbe`]
//! (the same cells as atomics), the snapshot/delta/total arithmetic over
//! them, and the one `record` body all three ways of reaching a cell
//! share. The generated `match` has no `_ =>` arm, so an `EventKind`
//! variant without a row does not compile.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::{DegradationStep, Event, EventKind, InjectedFault, Probe};

macro_rules! counters {
    // The one `record` body, instantiated per `$mode`: how a cell is
    // reached, and therefore how it is bumped.
    (@record $mode:ident $self:ident, $event:ident;
        $($variant:ident $({ $($bind:tt)* })? => $($op:ident $field:ident $(($arg:expr))?),*;)*
    ) => {
        match $event.kind {
            $(EventKind::$variant $({ $($bind)* })? => {
                $(counters!(@$op $mode $self.$field $(, $arg)?);)*
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

    ($($variant:ident $({ $($bind:tt)* })? => $($op:ident $field:ident $(($arg:expr))?),*;)*) => {
        /// Counts every event kind (and the word quantities events carry).
        ///
        /// The integration tests assert that, for every appendix-machine
        /// preset, these totals equal the corresponding `MachineReport`
        /// fields: the probe stream and the report are two views of one
        /// execution and must never disagree.
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct CountingProbe {
            $($(pub $field: u64,)*)*
        }

        impl CountingProbe {
            /// Every counter with its name, in declaration order.
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$($((stringify!($field), self.$field),)*)*].into_iter()
            }

            /// Total number of events seen: the `count` cells, plus one
            /// `CompactionStart` (which has no cell of its own) per
            /// completed compaction.
            #[must_use]
            pub fn total_events(&self) -> u64 {
                self.compactions $($(+ counters!(@events $op self.$field))*)*
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
            pub fn delta(&self, earlier: &CountingProbe) -> CountingProbe {
                CountingProbe {
                    $($($field: self.$field.saturating_sub(earlier.$field),)*)*
                }
            }
        }

        impl Probe for CountingProbe {
            fn record(&mut self, event: &Event) {
                counters!(@record plain self, event;
                    $($variant $({ $($bind)* })? => $($op $field $(($arg))?),*;)*);
            }
        }

        /// An atomic [`CountingProbe`]: one counter per event kind and
        /// payload quantity, safe to share across any number of emitting
        /// threads.
        #[derive(Debug, Default)]
        pub struct SharedProbe {
            $($($field: AtomicU64,)*)*
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
                    $($($field: self.$field.load(Ordering::Relaxed),)*)*
                }
            }
        }

        /// The exclusive form: a sink held by `&mut` bumps its atomics
        /// with plain adds (`get_mut`) and its flags branch-free.
        impl Probe for SharedProbe {
            fn record(&mut self, event: &Event) {
                counters!(@record owned self, event;
                    $($variant $({ $($bind)* })? => $($op $field $(($arg))?),*;)*);
            }
        }

        /// The shared-reference form workers actually hold: each thread
        /// keeps its own `&SharedProbe` and emits through it, one relaxed
        /// `fetch_add` per cell an event feeds.
        impl Probe for &SharedProbe {
            fn record(&mut self, event: &Event) {
                counters!(@record shared self, event;
                    $($variant $({ $($bind)* })? => $($op $field $(($arg))?),*;)*);
            }
        }
    };
}

counters! {
    Touch { write } => count touches, flag writes(write);
    Fault => count faults;
    FetchStart { .. } => count fetch_starts;
    FetchDone { words } => count fetches, sum fetched_words(words);
    Evict { dirty, words } =>
        count evictions, flag dirty_evictions(dirty), sum evicted_words(words);
    Writeback { words } => count writebacks, sum writeback_words(words);
    Alloc { words, searched } =>
        count allocs, sum alloc_words(words), sum alloc_searched(searched);
    Free { words } => count frees, sum freed_words(words);
    CompactionStart => ;
    CompactionDone { moved_words } =>
        count compactions, sum compaction_moved_words(moved_words);
    Advice => count advice;
    Prefetch { words } => count prefetches, sum prefetched_words(words);
    BoundsTrap => count bounds_traps;
    MapLookup { hit } => count map_lookups, flag map_hits(hit), flag map_misses(!hit);
    FaultInjected { fault } =>
        count faults_injected,
        flag transfer_errors_injected(fault == InjectedFault::TransferError),
        flag bad_frames_injected(fault == InjectedFault::BadFrame),
        flag channel_delays_injected(fault == InjectedFault::ChannelDelay),
        flag alloc_failures_injected(fault == InjectedFault::AllocFailure),
        flag shard_corruptions_injected(fault == InjectedFault::ShardCorruption);
    RetryAttempt { .. } => count retry_attempts;
    FrameQuarantined => count frames_quarantined;
    DegradationStep { step } =>
        count degradation_steps, flag shed_loads(step == DegradationStep::ShedLoad);
    QuotaDenied { .. } => count quota_denials;
    AdmissionReject { .. } => count admission_rejects;
    TenantShed { words, .. } => count tenants_shed, sum tenant_shed_words(words);
    ShardQuarantined { .. } => count shards_quarantined;
    ShardRestored { .. } => count shards_restored;
    TenantAdmitted { .. } => count tenants_admitted;
    TenantDeactivated { resident, .. } =>
        count tenants_deactivated, sum deactivated_resident_pages(u64::from(resident));
    WsEstimate { pages, .. } => count ws_estimates, sum ws_estimate_pages(u64::from(pages));
}

impl CountingProbe {
    #[must_use]
    pub fn new() -> CountingProbe {
        CountingProbe::default()
    }
}

/// One event of every kind, every flag both ways and every injected
/// fault mode: what the table-driven tests of both sinks replay.
#[cfg(test)]
pub(crate) fn every_kind() -> Vec<EventKind> {
    let mut kinds = vec![
        EventKind::Touch { write: true },
        EventKind::Touch { write: false },
        EventKind::Fault,
        EventKind::FetchStart { words: 512 },
        EventKind::FetchDone { words: 512 },
        EventKind::Evict {
            dirty: true,
            words: 512,
        },
        EventKind::Evict {
            dirty: false,
            words: 64,
        },
        EventKind::Writeback { words: 512 },
        EventKind::Alloc {
            words: 40,
            searched: 3,
        },
        EventKind::Free { words: 40 },
        EventKind::CompactionStart,
        EventKind::CompactionDone { moved_words: 99 },
        EventKind::Advice,
        EventKind::Prefetch { words: 512 },
        EventKind::BoundsTrap,
        EventKind::MapLookup { hit: true },
        EventKind::MapLookup { hit: false },
        EventKind::RetryAttempt { attempt: 1 },
        EventKind::FrameQuarantined,
        EventKind::QuotaDenied { tenant: 3 },
        EventKind::AdmissionReject { tenant: 4 },
        EventKind::TenantShed {
            tenant: 5,
            words: 256,
        },
        EventKind::ShardQuarantined { shard: 1 },
        EventKind::ShardRestored { shard: 1 },
        EventKind::TenantAdmitted {
            tenant: 6,
            frames: 12,
        },
        EventKind::TenantDeactivated {
            tenant: 6,
            resident: 7,
        },
        EventKind::WsEstimate {
            tenant: 6,
            pages: 9,
        },
    ];
    kinds.extend(
        [
            InjectedFault::TransferError,
            InjectedFault::BadFrame,
            InjectedFault::ChannelDelay,
            InjectedFault::AllocFailure,
            InjectedFault::ShardCorruption,
        ]
        .map(|fault| EventKind::FaultInjected { fault }),
    );
    kinds.extend(
        [DegradationStep::Compact, DegradationStep::ShedLoad]
            .map(|step| EventKind::DegradationStep { step }),
    );
    kinds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Stamp;

    #[test]
    fn every_kind_lands_in_its_counter() {
        let kinds = every_kind();
        let mut whole = CountingProbe::new();
        for &kind in &kinds {
            let mut one = CountingProbe::new();
            one.emit(kind, Stamp::vtime(0));
            whole.emit(kind, Stamp::vtime(0));
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
        assert_eq!(whole.total_events(), kinds.len() as u64);
        // Spot values the table's three row kinds must produce.
        assert_eq!((whole.touches, whole.writes), (2, 1));
        assert_eq!((whole.evictions, whole.dirty_evictions), (2, 1));
        assert_eq!(whole.evicted_words, 512 + 64);
        assert_eq!(
            (whole.map_lookups, whole.map_hits, whole.map_misses),
            (2, 1, 1)
        );
        assert_eq!((whole.faults_injected, whole.bad_frames_injected), (5, 1));
        assert_eq!((whole.degradation_steps, whole.shed_loads), (2, 1));
        assert_eq!(whole.deactivated_resident_pages, 7);
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
