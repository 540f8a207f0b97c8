//! The M44/44X class-based random strategy.
//!
//! Appendix A.2: "One of particular interest selects at random from a
//! set of equally acceptable candidates determined on the basis of
//! frequency of usage and whether or not a page has been modified (see
//! Belady)."
//!
//! Frames are classed by their (use, modify) sensor bits; the victim is
//! drawn uniformly from the most-replaceable non-empty class:
//!
//! | class | used | modified | rationale |
//! |---|---|---|---|
//! | 0 | no | no | idle and clean: free to drop |
//! | 1 | no | yes | idle but needs write-back |
//! | 2 | yes | no | active but clean |
//! | 3 | yes | yes | active and dirty: last resort |
//!
//! Use bits are reset after each victim selection, so "use" means "used
//! since the last replacement decision" — a crude frequency estimate,
//! as on the real machine.

use dsa_core::clock::VirtualTime;
use dsa_core::ids::{FrameNo, PageNo};

use crate::replacement::{Eligible, Replacer, TinyRng};
use crate::sensors::Sensors;

/// Random-within-lowest-class replacement (NRU with random
/// tie-breaking).
#[derive(Clone, Debug)]
pub struct ClassRandomRepl {
    rng: TinyRng,
    /// Decisions between use-bit sweeps.
    decisions_per_sweep: u32,
    decisions: u32,
}

impl ClassRandomRepl {
    /// Creates the policy; use bits are swept every
    /// `decisions_per_sweep` victim selections (1 = after every
    /// decision).
    #[must_use]
    pub fn new(seed: u64, decisions_per_sweep: u32) -> ClassRandomRepl {
        ClassRandomRepl {
            rng: TinyRng::new(seed),
            decisions_per_sweep: decisions_per_sweep.max(1),
            decisions: 0,
        }
    }
}

impl Replacer for ClassRandomRepl {
    fn loaded(&mut self, _frame: FrameNo, _page: PageNo, _now: VirtualTime) {}

    // Invariant: the trait contract guarantees `eligible` is never
    // empty, so the selection below always yields a frame.
    #[allow(clippy::expect_used)]
    fn victim(
        &mut self,
        eligible: Eligible<'_>,
        sensors: &mut Sensors,
        _now: VirtualTime,
    ) -> FrameNo {
        let class_of = |s: &Sensors, f: FrameNo| -> usize {
            (usize::from(s.used(f)) << 1) | usize::from(s.modified(f))
        };
        let mut members = [0usize; 4];
        for f in eligible.iter() {
            members[class_of(sensors, f)] += 1;
        }
        let best = members
            .iter()
            .position(|&n| n > 0)
            .expect("eligible is never empty");
        let k = self.rng.below(members[best]);
        let mut candidates = eligible.iter().filter(|&f| class_of(sensors, f) == best);
        let victim = candidates.nth(k).expect("k is below the class's count");
        self.decisions += 1;
        if self.decisions >= self.decisions_per_sweep {
            self.decisions = 0;
            sensors.reset_all_use();
        }
        victim
    }

    fn name(&self) -> &'static str {
        "class-random (M44)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::testing::Frames;

    #[test]
    fn prefers_unused_clean_frames() {
        let mut r = ClassRandomRepl::new(1, 1000);
        let mut s = Sensors::new(4);
        let all = Frames::all(4);
        s.touch(FrameNo(0), true); // used+dirty
        s.touch(FrameNo(1), false); // used
        s.touch(FrameNo(2), true);
        s.reset_use(FrameNo(2)); // dirty only
                                 // Frame 3: untouched -> class 0, must always win.
        for t in 0..20 {
            assert_eq!(r.victim(all.view(), &mut s, t), FrameNo(3));
        }
    }

    #[test]
    fn dirty_idle_beats_clean_active() {
        let mut r = ClassRandomRepl::new(2, 1000);
        let mut s = Sensors::new(2);
        s.touch(FrameNo(0), true);
        s.reset_use(FrameNo(0)); // idle, dirty: class 1
        s.touch(FrameNo(1), false); // active, clean: class 2
        assert_eq!(r.victim(Frames::all(2).view(), &mut s, 0), FrameNo(0));
    }

    #[test]
    fn random_among_equal_candidates() {
        let mut r = ClassRandomRepl::new(3, 1000);
        let mut s = Sensors::new(4);
        let all = Frames::all(4);
        let mut seen = [false; 4];
        for t in 0..200 {
            seen[r.victim(all.view(), &mut s, t).index()] = true;
        }
        assert!(
            seen.iter().all(|&x| x),
            "all equal-class frames should be chosen sometimes"
        );
    }

    #[test]
    fn sweep_resets_use_bits() {
        let mut r = ClassRandomRepl::new(4, 1);
        let mut s = Sensors::new(2);
        s.touch(FrameNo(0), false);
        s.touch(FrameNo(1), false);
        let _ = r.victim(Frames::all(2).view(), &mut s, 0);
        assert!(
            !s.used(FrameNo(0)) && !s.used(FrameNo(1)),
            "sweep after decision"
        );
    }
}
