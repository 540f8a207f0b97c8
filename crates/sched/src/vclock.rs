//! The one virtual clock every probe emission reads.
//!
//! The simulators juggle three time-advancing mechanisms: executed
//! references (`clock += instr_time`), fetch-channel queueing (a fetch
//! *starts* when a channel frees, which may be later than the fault),
//! and degradation-ladder interventions (which happen "now", between
//! references). When each site hand-stamps its own `Cycles`, the
//! streams drift: a `FetchStart` stamped at fault time but queued a
//! millisecond behind the drum makes `TelemetryProbe`'s inter-fault
//! percentiles disagree with the event queue's own chronology.
//!
//! `VClock` closes the gap by being the *only* source of stamps: the
//! event loop advances it, the channel assignment reads and returns
//! times through it, and every probe emission converts through
//! `VClock::stamp`. Reconciliation then holds by construction — an
//! event's `cycles` is the queue's time at the instant the event was
//! scheduled, never a site-local guess.

use dsa_core::clock::{Cycles, VirtualTime};
use dsa_probe::Stamp;

/// A monotone virtual clock in simulated nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct VClock {
    nanos: u64,
}

impl VClock {
    /// A clock at time zero.
    #[must_use]
    pub(crate) const fn new() -> VClock {
        VClock { nanos: 0 }
    }

    /// The current simulated instant.
    #[must_use]
    pub(crate) const fn now(&self) -> Cycles {
        Cycles::from_nanos(self.nanos)
    }

    /// Current time in nanoseconds (the event queue's key domain).
    #[must_use]
    pub(crate) const fn nanos(&self) -> u64 {
        self.nanos
    }

    /// Advances by `d` (executed references, service times).
    pub(crate) fn advance(&mut self, d: Cycles) {
        self.nanos += d.as_nanos();
    }

    /// Jumps forward to `t` if `t` is in the future; never moves
    /// backwards (the event queue may deliver same-instant events).
    pub(crate) fn advance_to(&mut self, t: Cycles) {
        self.nanos = self.nanos.max(t.as_nanos());
    }

    /// A probe stamp at the clock's current instant.
    #[must_use]
    pub(crate) const fn stamp(&self, vtime: VirtualTime) -> Stamp {
        Stamp::at(Cycles::from_nanos(self.nanos), vtime)
    }

    /// A probe stamp at an explicit instant *derived from this clock*
    /// (a queued fetch's start or completion time). Taking it through
    /// the clock keeps every emission site on one time base.
    #[must_use]
    pub(crate) const fn stamp_at(&self, t: Cycles, vtime: VirtualTime) -> Stamp {
        Stamp::at(t, vtime)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_and_stamps() {
        let mut c = VClock::new();
        c.advance(Cycles::from_micros(5));
        assert_eq!(c.now(), Cycles::from_micros(5));
        let s = c.stamp(42);
        assert_eq!(s.cycles, Cycles::from_micros(5));
        assert_eq!(s.vtime, 42);
    }

    #[test]
    fn advance_to_never_rewinds() {
        let mut c = VClock::new();
        c.advance(Cycles::from_millis(2));
        c.advance_to(Cycles::from_millis(1));
        assert_eq!(c.now(), Cycles::from_millis(2));
        c.advance_to(Cycles::from_millis(3));
        assert_eq!(c.now(), Cycles::from_millis(3));
    }
}
