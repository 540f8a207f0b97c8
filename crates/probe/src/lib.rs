//! Structured event tracing for the allocation machines.
//!
//! The paper's "special hardware facilities" — use/modify sensors on
//! storage blocks and invalid-access trapping — are the monitoring
//! substrate every strategy in the taxonomy depends on. This crate is
//! their software analogue: a vocabulary of [`Event`]s emitted from the
//! hot paths of the paging engine, the free-list allocators, the
//! address maps and the composed machines, plus pluggable [`Probe`]
//! sinks that turn the stream into counters, latency histograms,
//! space-time curves, or a JSONL trace.
//!
//! Every event carries a dual timestamp: [`Cycles`] (simulated machine
//! time) and [`VirtualTime`] (reference time — the index of the current
//! access). Machine time orders events against device latencies;
//! reference time is what replacement theory (Belady distances,
//! working-set windows, inter-fault intervals) is written in.
//!
//! Probing is zero-cost when disabled: emission sites are generic over
//! `P: Probe`, and the default sink [`NullProbe`] reports
//! `is_enabled() == false`, so the event construction and the sink call
//! const-fold away entirely under monomorphization (the benchmark's
//! `probe.null_overhead_ratio` measures `run_probed(NullProbe)` against
//! plain `run`). An attached sink is held to the same standard by the
//! `machine_survey_observed` / `machine_survey` throughput ratio: a
//! sink held by `&mut` records without a locked instruction, a
//! data-dependent branch, or a second virtual call per event.

pub mod counting;
pub mod jsonl;
pub mod latency;
pub mod shared;
pub mod spacetime;

pub use counting::CountingProbe;
pub use jsonl::JsonlRecorder;
pub use latency::LatencyProbe;
pub use shared::SharedProbe;
pub use spacetime::SpaceTimeProbe;

use dsa_core::clock::{Cycles, VirtualTime};
use dsa_core::ids::Words;

/// The dual timestamp every event is stamped with.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Stamp {
    /// Simulated machine time.
    pub cycles: Cycles,
    /// Reference time: the index of the current access.
    pub vtime: VirtualTime,
}

impl Stamp {
    /// A stamp carrying both clocks.
    #[must_use]
    pub const fn at(cycles: Cycles, vtime: VirtualTime) -> Stamp {
        Stamp { cycles, vtime }
    }

    /// A stamp for contexts that only track reference time (the bare
    /// paging engine, the allocators driven by event streams).
    #[must_use]
    pub const fn vtime(vtime: VirtualTime) -> Stamp {
        Stamp {
            cycles: Cycles::ZERO,
            vtime,
        }
    }
}

/// What kind of hardware failure an injector simulated.
///
/// The paper's systems assume hardware that can fail and trap: parity
/// and transfer errors on drum/disc channels, frames whose storage has
/// gone bad, and exhaustion the allocator must survive. The fault
/// injector replays those failure modes deterministically; each
/// injection is traced with its mode so recovery accounting can
/// reconcile per mode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InjectedFault {
    /// A backing-storage transfer failed (parity/transfer error); the
    /// transfer must be retried.
    TransferError,
    /// A page frame's storage was found bad; the frame must be
    /// quarantined and its page refetched elsewhere.
    BadFrame,
    /// A channel stalled; the transfer completes late.
    ChannelDelay,
    /// An allocation request was failed outright.
    AllocFailure,
    /// A shard's free list was corrupted in place; the shard must be
    /// quarantined and rebuilt from the live-allocation snapshot.
    ShardCorruption,
}

/// One rung of the graceful-degradation ladder a system climbs under
/// storage pressure before giving up with a typed error.
///
/// The enum itself lives in `dsa-faults` (`dsa_faults::ladder`) so the
/// machine drivers and the concurrent arena's overload guard share one
/// vocabulary; this re-export keeps the probe-side spelling
/// (`dsa_probe::DegradationStep`) working.
pub use dsa_faults::ladder::DegradationStep;

/// What happened. Payloads carry the quantities reports aggregate, so a
/// counting sink can reconcile exactly with a `MachineReport`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// A program reference reached the storage system.
    Touch { write: bool },
    /// The reference missed working storage and must be serviced.
    Fault,
    /// A transfer from backing storage began.
    FetchStart { words: Words },
    /// The transfer completed; the program may resume.
    FetchDone { words: Words },
    /// A block or page lost its working-storage residence.
    Evict { dirty: bool, words: Words },
    /// Modified words were copied back to backing storage.
    Writeback { words: Words },
    /// A variable-unit allocation succeeded after probing `searched`
    /// free-list entries.
    Alloc { words: Words, searched: u64 },
    /// A variable-unit block was released.
    Free { words: Words },
    /// A compaction pass began.
    CompactionStart,
    /// The compaction pass finished, having slid `moved_words` words.
    CompactionDone { moved_words: Words },
    /// The program gave the system an advice operation.
    Advice,
    /// The system brought storage in ahead of demand.
    Prefetch { words: Words },
    /// An invalid access was trapped by a bounds check.
    BoundsTrap,
    /// An address-map lookup was resolved.
    MapLookup { hit: bool },
    /// The fault injector simulated a hardware failure.
    FaultInjected { fault: InjectedFault },
    /// A failed transfer was retried (`attempt` is 1-based).
    RetryAttempt { attempt: u32 },
    /// A bad page frame was removed from service permanently.
    FrameQuarantined,
    /// A degradation rung was climbed under storage pressure.
    DegradationStep { step: DegradationStep },
    /// A tenant's allocation was refused because it would exceed the
    /// tenant's word quota.
    QuotaDenied { tenant: u32 },
    /// The overload guard refused a tenant's allocation at admission,
    /// before touching any shard.
    AdmissionReject { tenant: u32 },
    /// A lower-priority tenant's live allocations (`words` in total)
    /// were shed to admit a higher-priority demand.
    TenantShed { tenant: u32, words: Words },
    /// A shard failed its audit and was quarantined: routed out of the
    /// home/steal rotation until healed.
    ShardQuarantined { shard: u32 },
    /// A quarantined shard's free list was rebuilt from the live
    /// allocations, re-verified, and readmitted to the rotation.
    ShardRestored { shard: u32 },
    /// A tenant passed admission and was activated with `frames` page
    /// frames of allotment.
    TenantAdmitted { tenant: u32, frames: u32 },
    /// An active tenant was swapped out by the load controller;
    /// `resident` resident pages were dropped.
    TenantDeactivated { tenant: u32, resident: u32 },
    /// The load controller estimated a tenant's working-set size at
    /// `pages` pages (windowed, from a trace sample).
    WsEstimate { tenant: u32, pages: u32 },
}

/// One traced occurrence: an [`EventKind`] plus the dual timestamp.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Event {
    pub kind: EventKind,
    /// Simulated machine time of the occurrence.
    pub cycles: Cycles,
    /// Reference time of the occurrence.
    pub vtime: VirtualTime,
}

/// A sink for traced events.
///
/// Emission sites call [`Probe::emit`], which consults
/// [`Probe::is_enabled`] first; a sink whose `is_enabled` is a constant
/// `false` (the [`NullProbe`]) therefore costs nothing after
/// monomorphization.
pub trait Probe {
    /// Receives one event. Only called while [`Probe::is_enabled`]
    /// returns `true`.
    fn record(&mut self, event: &Event);

    /// Whether this sink wants events at all. Constant per sink type.
    #[inline]
    fn is_enabled(&self) -> bool {
        true
    }

    /// Stamps and delivers an event, skipping all work when disabled.
    #[inline]
    fn emit(&mut self, kind: EventKind, at: Stamp) {
        if self.is_enabled() {
            self.record(&Event {
                kind,
                cycles: at.cycles,
                vtime: at.vtime,
            });
        }
    }
}

/// The default sink: discards everything, compiles to nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullProbe;

impl Probe for NullProbe {
    #[inline]
    fn record(&mut self, _event: &Event) {}

    #[inline]
    fn is_enabled(&self) -> bool {
        false
    }
}

impl<P: Probe + ?Sized> Probe for &mut P {
    #[inline]
    fn record(&mut self, event: &Event) {
        (**self).record(event);
    }

    #[inline]
    fn is_enabled(&self) -> bool {
        (**self).is_enabled()
    }
}

impl<P: Probe + ?Sized> Probe for Box<P> {
    #[inline]
    fn record(&mut self, event: &Event) {
        (**self).record(event);
    }

    #[inline]
    fn is_enabled(&self) -> bool {
        (**self).is_enabled()
    }
}

/// Fans one event stream into two sinks.
///
/// Emission sites take a single `P: Probe`; a run that wants both the
/// always-on telemetry sink *and* a per-thread flight-recorder handle
/// wraps them in a `Tee`. Enabled when either side is, and a disabled
/// side (e.g. a [`NullProbe`] leg) still const-folds away — the tee
/// checks each leg's own `is_enabled` before delivering.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tee<A, B>(pub A, pub B);

impl<A: Probe, B: Probe> Probe for Tee<A, B> {
    #[inline]
    fn record(&mut self, event: &Event) {
        if self.0.is_enabled() {
            self.0.record(event);
        }
        if self.1.is_enabled() {
            self.1.record(event);
        }
    }

    #[inline]
    fn is_enabled(&self) -> bool {
        self.0.is_enabled() || self.1.is_enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Collector(Vec<Event>);

    impl Probe for Collector {
        fn record(&mut self, event: &Event) {
            self.0.push(*event);
        }
    }

    #[test]
    fn emit_stamps_both_clocks() {
        let mut c = Collector(Vec::new());
        c.emit(EventKind::Fault, Stamp::at(Cycles::from_micros(3), 41));
        assert_eq!(c.0.len(), 1);
        assert_eq!(c.0[0].cycles, Cycles::from_micros(3));
        assert_eq!(c.0[0].vtime, 41);
        assert_eq!(c.0[0].kind, EventKind::Fault);
    }

    #[test]
    fn null_probe_is_disabled() {
        let mut p = NullProbe;
        assert!(!p.is_enabled());
        // emit must be a no-op (nothing to observe, but it must not panic).
        p.emit(EventKind::Touch { write: true }, Stamp::vtime(0));
    }

    #[test]
    fn mut_ref_and_box_delegate() {
        let mut c = Collector(Vec::new());
        {
            let r: &mut Collector = &mut c;
            assert!(r.is_enabled());
            r.emit(EventKind::Advice, Stamp::vtime(7));
        }
        let mut b: Box<dyn Probe> = Box::new(Collector(Vec::new()));
        assert!(b.is_enabled());
        b.emit(EventKind::BoundsTrap, Stamp::vtime(8));
        assert_eq!(c.0.len(), 1);
    }

    #[test]
    fn tee_delivers_to_both_legs() {
        let mut tee = Tee(Collector(Vec::new()), Collector(Vec::new()));
        tee.emit(EventKind::Fault, Stamp::vtime(1));
        assert_eq!(tee.0 .0.len(), 1);
        assert_eq!(tee.1 .0.len(), 1);
        // A tee with two null legs is itself disabled.
        assert!(!Tee(NullProbe, NullProbe).is_enabled());
        assert!(Tee(NullProbe, Collector(Vec::new())).is_enabled());
    }

    #[test]
    fn dyn_probe_works_through_mut_ref() {
        let mut c = Collector(Vec::new());
        let d: &mut dyn Probe = &mut c;
        // The blanket `&mut P` impl makes `&mut dyn Probe` itself a Probe.
        fn takes_generic<P: Probe + ?Sized>(p: &mut P) {
            p.emit(EventKind::MapLookup { hit: true }, Stamp::vtime(1));
        }
        takes_generic(d);
        assert_eq!(c.0.len(), 1);
    }
}
