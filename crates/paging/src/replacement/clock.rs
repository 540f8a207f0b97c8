//! Clock (second-chance) replacement.
//!
//! The essentially cyclical strategy the B5000 developers "found to be
//! effective" (A.3), upgraded with the use-bit sensors of special
//! hardware facility (iv): the hand sweeps frames in a fixed circular
//! order, clearing use bits and evicting the first frame found unused
//! since the previous sweep.

use dsa_core::clock::VirtualTime;
use dsa_core::ids::{FrameNo, PageNo};

use crate::replacement::{Eligible, Replacer};
use crate::sensors::Sensors;

/// The clock hand. It sweeps every frame of the memory it serves: the
/// turn length is read from the view at each decision, not told at
/// construction.
#[derive(Clone, Debug, Default)]
pub struct ClockRepl {
    hand: usize,
}

impl ClockRepl {
    /// Second-chance clock.
    #[must_use]
    pub fn new() -> ClockRepl {
        ClockRepl::default()
    }
}

impl Replacer for ClockRepl {
    fn loaded(&mut self, _frame: FrameNo, _page: PageNo, _now: VirtualTime) {}

    fn victim(
        &mut self,
        eligible: Eligible<'_>,
        sensors: &mut Sensors,
        _now: VirtualTime,
    ) -> FrameNo {
        let frames = eligible.frame_count();
        // Sweep at most two full turns: one may be spent clearing use
        // bits, after which some eligible frame must show clear.
        for _ in 0..2 * frames {
            let f = FrameNo(self.hand as u64);
            self.hand = (self.hand + 1) % frames;
            if !eligible.contains(f) {
                continue;
            }
            if sensors.used(f) {
                sensors.reset_use(f); // second chance
            } else {
                return f;
            }
        }
        // All eligible frames were re-used during the sweep; take the
        // one now under the hand.
        let under_hand = eligible.iter().find(|f| f.index() >= self.hand);
        under_hand.unwrap_or_else(|| eligible.nth(0))
    }

    fn name(&self) -> &'static str {
        "Clock"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::testing::Frames;

    #[test]
    fn clock_gives_second_chance() {
        let mut r = ClockRepl::new();
        let mut s = Sensors::new(3);
        let all = Frames::all(3);
        s.touch(FrameNo(0), false);
        s.touch(FrameNo(1), false);
        // Frame 2 unused: hand clears 0 and 1, evicts 2.
        assert_eq!(r.victim(all.view(), &mut s, 0), FrameNo(2));
        assert!(!s.used(FrameNo(0)), "use bit cleared in passing");
        assert!(!s.used(FrameNo(1)));
    }

    #[test]
    fn clock_advances_hand_between_victims() {
        let mut r = ClockRepl::new();
        let mut s = Sensors::new(3);
        let all = Frames::all(3);
        assert_eq!(r.victim(all.view(), &mut s, 0), FrameNo(0));
        assert_eq!(r.victim(all.view(), &mut s, 1), FrameNo(1));
        assert_eq!(r.victim(all.view(), &mut s, 2), FrameNo(2));
        assert_eq!(r.victim(all.view(), &mut s, 3), FrameNo(0));
    }

    #[test]
    fn all_used_frames_still_yield_a_victim() {
        let mut r = ClockRepl::new();
        let mut s = Sensors::new(2);
        let all = Frames::all(2);
        s.touch(FrameNo(0), false);
        s.touch(FrameNo(1), false);
        let v = r.victim(all.view(), &mut s, 0);
        assert!(all.view().contains(v));
    }

    #[test]
    fn hand_sweeps_the_memory_it_serves_whatever_size_it_was_built_for() {
        use crate::paged::{PagedMemory, TouchOutcome};
        use crate::replacement::registry::{policy_by_index, CLOCK};
        // Built for two frames (as a scheduler does before it knows the
        // allotment), serving four: a hand that wrapped at two would
        // never reach frames 2 and 3.
        let mut m = PagedMemory::new(4, policy_by_index(CLOCK, 2, &[]));
        for p in 0..4 {
            m.touch(PageNo(p), false, p).unwrap();
        }
        let victims: Vec<FrameNo> = (4..8)
            .map(|p| match m.touch(PageNo(p), false, p).unwrap() {
                TouchOutcome::Fault {
                    evicted: Some(e), ..
                } => e.frame,
                other => panic!("expected an eviction, got {other:?}"),
            })
            .collect();
        assert_eq!(victims, [FrameNo(0), FrameNo(1), FrameNo(2), FrameNo(3)]);
    }

    #[test]
    fn skips_ineligible_frames() {
        let mut r = ClockRepl::new();
        let mut s = Sensors::new(3);
        // Only frame 2 eligible.
        assert_eq!(
            r.victim(Frames::only(3, &[2]).view(), &mut s, 0),
            FrameNo(2)
        );
    }
}
