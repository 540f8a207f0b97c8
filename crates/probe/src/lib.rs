//! Structured event tracing for the allocation machines.
//!
//! The paper's "special hardware facilities" — use/modify sensors on
//! storage blocks and invalid-access trapping — are the monitoring
//! substrate every strategy in the taxonomy depends on. This crate is
//! their software analogue: a vocabulary of [`Event`]s emitted from the
//! hot paths of the paging engine, the free-list allocators, the
//! address maps and the composed machines, plus pluggable [`Probe`]
//! sinks that turn the stream into counters, latency histograms or a
//! JSONL trace.
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

pub use counting::{CountingProbe, EventKind};
pub use jsonl::JsonlRecorder;
pub use latency::LatencyProbe;
pub use shared::SharedProbe;

use dsa_core::clock::{Cycles, VirtualTime};
use std::fmt::Write as _;

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

impl InjectedFault {
    /// Every mode, in declaration order.
    pub(crate) const ALL: [InjectedFault; 5] = [
        InjectedFault::TransferError,
        InjectedFault::BadFrame,
        InjectedFault::ChannelDelay,
        InjectedFault::AllocFailure,
        InjectedFault::ShardCorruption,
    ];

    /// Stable lowercase label, used by renderers and exporters.
    #[must_use]
    pub(crate) const fn label(self) -> &'static str {
        match self {
            InjectedFault::TransferError => "transfer_error",
            InjectedFault::BadFrame => "bad_frame",
            InjectedFault::ChannelDelay => "channel_delay",
            InjectedFault::AllocFailure => "alloc_failure",
            InjectedFault::ShardCorruption => "shard_corruption",
        }
    }
}

/// One rung of the graceful-degradation ladder a system climbs under
/// storage pressure before giving up with a typed error.
///
/// The enum itself lives in `dsa-faults` (`dsa_faults::ladder`) so the
/// machine drivers and the concurrent arena's overload guard share one
/// vocabulary; this re-export keeps the probe-side spelling
/// (`dsa_probe::DegradationStep`) working.
pub use dsa_faults::ladder::DegradationStep;

/// A type an [`EventKind`] payload field may have: how a value of it
/// is carried in one flight-recorder word and written as one JSON
/// value.
pub(crate) trait Payload {
    /// The value as one word.
    fn to_word(&self) -> u64;

    /// The value `to_word` made `word` from; `None` if no value makes
    /// it, so a corrupt word is refused rather than misread.
    fn from_word(word: u64) -> Option<Self>
    where
        Self: Sized;

    /// Appends the value as a JSON number, boolean or string.
    fn write_json(&self, out: &mut String);
}

/// A number is its own word, refused on the way back if it does not
/// fit, and its own JSON.
macro_rules! number_payload {
    ($($ty:ty),*) => {$(
        impl Payload for $ty {
            fn to_word(&self) -> u64 {
                u64::from(*self)
            }

            fn from_word(word: u64) -> Option<$ty> {
                <$ty>::try_from(word).ok()
            }

            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

number_payload!(u64, u32);

impl Payload for bool {
    fn to_word(&self) -> u64 {
        u64::from(*self)
    }

    fn from_word(word: u64) -> Option<bool> {
        (word <= 1).then_some(word == 1)
    }

    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
}

/// A mode enum is its index in `ALL` (declaration order, so the index
/// is the discriminant) and its label as a JSON string.
macro_rules! labelled_payload {
    ($($ty:ty),*) => {$(
        impl Payload for $ty {
            fn to_word(&self) -> u64 {
                *self as u64
            }

            fn from_word(word: u64) -> Option<$ty> {
                usize::try_from(word).ok().and_then(|i| <$ty>::ALL.get(i).copied())
            }

            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "\"{}\"", self.label());
            }
        }
    )*};
}

labelled_payload!(InjectedFault, DegradationStep);

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
