//! Least-frequently-used replacement.
//!
//! The M44/44X determined its "equally acceptable candidates ... on the
//! basis of frequency of usage" (A.2); LFU is that criterion taken
//! neat: evict the resident page with the fewest recorded uses. Its
//! classic pathology — a page heavily used long ago is never evicted —
//! is tamed by an optional periodic halving of all counts (aging).

use dsa_core::clock::VirtualTime;
use dsa_core::ids::{FrameNo, PageNo};

use crate::replacement::{slot, Eligible, Replacer};
use crate::sensors::Sensors;

/// Evicts the least-frequently-used page, with optional count aging.
#[derive(Clone, Debug)]
pub struct LfuRepl {
    /// Use counts indexed by frame number, grown on demand; `None` =
    /// no page tracked in the frame.
    counts: Vec<Option<u64>>,
    /// Halve all counts every this many victim selections (0 = never).
    age_every: u32,
    decisions: u32,
}

impl LfuRepl {
    /// Pure LFU (no aging).
    #[must_use]
    pub(crate) fn new() -> LfuRepl {
        LfuRepl::with_aging(0)
    }

    /// LFU with counts halved every `age_every` victim selections.
    #[must_use]
    pub fn with_aging(age_every: u32) -> LfuRepl {
        LfuRepl {
            counts: Vec::new(),
            age_every,
            decisions: 0,
        }
    }

    fn count(&self, frame: FrameNo) -> Option<u64> {
        self.counts.get(frame.index()).copied().flatten()
    }
}

impl Default for LfuRepl {
    fn default() -> Self {
        LfuRepl::new()
    }
}

impl Replacer for LfuRepl {
    fn loaded(&mut self, frame: FrameNo, _page: PageNo, _now: VirtualTime) {
        *slot(&mut self.counts, frame) = Some(1);
    }

    fn touched(&mut self, frame: FrameNo, _page: PageNo, _now: VirtualTime, _write: bool) {
        *slot(&mut self.counts, frame).get_or_insert(0) += 1;
    }

    // Invariant: the trait contract guarantees `eligible` is never
    // empty, so the selection below always yields a frame.
    #[allow(clippy::expect_used)]
    fn victim(
        &mut self,
        eligible: Eligible<'_>,
        _sensors: &mut Sensors,
        _now: VirtualTime,
    ) -> FrameNo {
        let victim = eligible
            .iter()
            .min_by_key(|&f| self.count(f).unwrap_or(0))
            .expect("eligible is never empty");
        self.decisions += 1;
        if self.age_every > 0 && self.decisions >= self.age_every {
            self.decisions = 0;
            for c in self.counts.iter_mut().flatten() {
                *c /= 2;
            }
        }
        victim
    }

    fn evicted(&mut self, frame: FrameNo) {
        *slot(&mut self.counts, frame) = None;
    }

    fn hint_idle(&mut self, frame: FrameNo) {
        // Advisory demotion: forget the accumulated frequency.
        *slot(&mut self.counts, frame) = Some(0);
    }

    fn name(&self) -> &'static str {
        "LFU"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::testing::Frames;

    #[test]
    fn evicts_least_used() {
        let mut r = LfuRepl::new();
        let mut s = Sensors::new(3);
        for f in 0..3 {
            r.loaded(FrameNo(f), PageNo(f), 0);
        }
        for _ in 0..5 {
            r.touched(FrameNo(0), PageNo(0), 1, false);
        }
        r.touched(FrameNo(2), PageNo(2), 1, false);
        assert_eq!(r.victim(Frames::all(3).view(), &mut s, 2), FrameNo(1));
    }

    #[test]
    fn classic_pathology_old_hot_page_sticks() {
        let mut r = LfuRepl::new();
        let mut s = Sensors::new(2);
        r.loaded(FrameNo(0), PageNo(0), 0);
        for _ in 0..100 {
            r.touched(FrameNo(0), PageNo(0), 1, false);
        }
        // A new page arrives and is used a little; pure LFU still
        // prefers to evict it over the long-dead hot page.
        r.loaded(FrameNo(1), PageNo(1), 50);
        r.touched(FrameNo(1), PageNo(1), 51, false);
        assert_eq!(r.victim(Frames::all(2).view(), &mut s, 99), FrameNo(1));
    }

    #[test]
    fn aging_forgives_history() {
        let mut r = LfuRepl::with_aging(1);
        let mut s = Sensors::new(2);
        r.loaded(FrameNo(0), PageNo(0), 0);
        for _ in 0..100 {
            r.touched(FrameNo(0), PageNo(0), 1, false);
        }
        r.loaded(FrameNo(1), PageNo(1), 50);
        // Several decisions halve frame 0's count toward frame 1's.
        for t in 0..7 {
            let _ = r.victim(Frames::only(2, &[0]).view(), &mut s, t);
        }
        assert!(
            r.count(FrameNo(0)).unwrap() <= 1,
            "aging must erode old counts"
        );
    }

    #[test]
    fn hint_idle_zeroes_count() {
        let mut r = LfuRepl::new();
        let mut s = Sensors::new(2);
        r.loaded(FrameNo(0), PageNo(0), 0);
        r.loaded(FrameNo(1), PageNo(1), 0);
        for _ in 0..10 {
            r.touched(FrameNo(0), PageNo(0), 1, false);
        }
        r.touched(FrameNo(1), PageNo(1), 1, false);
        r.hint_idle(FrameNo(0));
        assert_eq!(r.victim(Frames::all(2).view(), &mut s, 2), FrameNo(0));
    }

    #[test]
    fn eviction_clears_count() {
        let mut r = LfuRepl::new();
        r.loaded(FrameNo(0), PageNo(0), 0);
        r.evicted(FrameNo(0));
        assert_eq!(r.count(FrameNo(0)), None);
    }
}
