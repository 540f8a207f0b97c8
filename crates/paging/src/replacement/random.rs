//! Random replacement (Belady's control policy).

use dsa_core::clock::VirtualTime;
use dsa_core::ids::{FrameNo, PageNo};

use crate::replacement::{Eligible, Replacer, TinyRng};
use crate::sensors::Sensors;

/// Evicts a uniformly random eligible frame.
#[derive(Clone, Debug)]
pub struct RandomRepl {
    rng: TinyRng,
}

impl RandomRepl {
    /// Creates the policy with a deterministic seed.
    #[must_use]
    pub fn new(seed: u64) -> RandomRepl {
        RandomRepl {
            rng: TinyRng::new(seed),
        }
    }
}

impl Replacer for RandomRepl {
    fn loaded(&mut self, _frame: FrameNo, _page: PageNo, _now: VirtualTime) {}

    fn victim(
        &mut self,
        eligible: Eligible<'_>,
        _sensors: &mut Sensors,
        _now: VirtualTime,
    ) -> FrameNo {
        eligible.nth(self.rng.below(eligible.len()))
    }

    fn name(&self) -> &'static str {
        "Random"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::testing::Frames;

    #[test]
    fn victims_are_eligible_and_deterministic() {
        let mut a = RandomRepl::new(7);
        let mut b = RandomRepl::new(7);
        let mut s = Sensors::new(4);
        let all = Frames::all(4);
        for t in 0..100 {
            let va = a.victim(all.view(), &mut s, t);
            let vb = b.victim(all.view(), &mut s, t);
            assert_eq!(va, vb);
            assert!(all.view().contains(va));
        }
    }

    #[test]
    fn covers_all_frames_eventually() {
        let mut r = RandomRepl::new(3);
        let mut s = Sensors::new(3);
        let all = Frames::all(3);
        let mut seen = [false; 3];
        for t in 0..200 {
            seen[r.victim(all.view(), &mut s, t).index()] = true;
        }
        assert!(seen.iter().all(|&x| x));
    }
}
