//! The ATLAS "learning program".
//!
//! Appendix A.1: "The learning program makes use of information which
//! records the length of time since the page in each page frame has
//! been accessed and the previous duration of inactivity for that page.
//! It attempts to find a page which appears to be no longer in use. If
//! all the pages are in current use it tries to choose the one which,
//! if the recent pattern of use is maintained, will be the last to be
//! required." (Kilburn et al., *One-level storage system*.)
//!
//! Per page (history survives eviction — the drum copy of the learning
//! data on the real machine) we keep `t` — time since last access — and
//! `T` — the previous inactivity period (last inter-access gap, whether
//! spent in core or on the drum):
//!
//! 1. any page with `t > T + slack` "appears to be no longer in use";
//!    among such pages the one with the largest `t - T` is chosen;
//! 2. otherwise every page is assumed periodic with period `T`, so its
//!    next use is expected in `T - t`; the page with the largest `T - t`
//!    is "the last to be required".
//!
//! On strict loop nests (experiment E12) this learns each page's period
//! and evicts the page whose return lies farthest away — including the
//! just-used long-period page LRU would keep — so it beats LRU there
//! and on cyclic sweeps; on irregular references the learned periods
//! mislead it, exactly the trade Belady's study reported.

use dsa_core::clock::VirtualTime;
use dsa_core::ids::{FrameNo, IdMap, PageNo};

use crate::replacement::{slot, Eligible, Replacer};
use crate::sensors::Sensors;

/// Per-page learning state.
#[derive(Clone, Copy, Debug, Default)]
struct PageHistory {
    last_use: VirtualTime,
    prev_gap: VirtualTime,
}

impl PageHistory {
    /// The history after a use at `now`, given what was known before.
    fn used(prior: Option<PageHistory>, now: VirtualTime) -> PageHistory {
        let mut h = prior.unwrap_or(PageHistory {
            last_use: now,
            prev_gap: 0,
        });
        let gap = now.saturating_sub(h.last_use);
        if gap > 0 {
            h.prev_gap = gap;
        }
        h.last_use = now;
        h
    }
}

/// The ATLAS learning replacement strategy.
///
/// The learning data is split as on the machine: the history of the
/// page in each frame is kept with the frame (a frame-indexed table,
/// updated on every reference), and is copied out to the page-keyed
/// `drum` map only when the page is evicted, to be copied back in when
/// it is next loaded.
#[derive(Clone, Debug)]
pub struct AtlasLearning {
    /// The drum copy: each page's history as of its last eviction. Stale
    /// while the page is resident.
    drum: IdMap<PageNo, PageHistory>,
    /// Indexed by frame number, grown on demand: the page each frame
    /// holds, with its live history.
    resident: Vec<Option<(PageNo, PageHistory)>>,
    /// Tolerance before a page is deemed out of use (Kilburn used one
    /// drum-revolution worth of time; in reference time a small slack).
    slack: VirtualTime,
}

impl AtlasLearning {
    /// Creates the policy with the default slack of 1 reference.
    #[must_use]
    pub fn new() -> AtlasLearning {
        AtlasLearning::with_slack(1)
    }

    /// Creates the policy with an explicit out-of-use slack.
    #[must_use]
    pub fn with_slack(slack: VirtualTime) -> AtlasLearning {
        AtlasLearning {
            drum: IdMap::default(),
            resident: Vec::new(),
            slack,
        }
    }
}

impl Default for AtlasLearning {
    fn default() -> Self {
        AtlasLearning::new()
    }
}

impl Replacer for AtlasLearning {
    fn loaded(&mut self, frame: FrameNo, page: PageNo, now: VirtualTime) {
        self.evicted(frame);
        // The load is caused by a use; the gap since the previous use is
        // precisely the "previous duration of inactivity".
        let h = PageHistory::used(self.drum.get(&page).copied(), now);
        *slot(&mut self.resident, frame) = Some((page, h));
    }

    fn touched(&mut self, frame: FrameNo, page: PageNo, now: VirtualTime, _write: bool) {
        match self.resident.get_mut(frame.index()) {
            Some(Some((p, h))) if *p == page => *h = PageHistory::used(Some(*h), now),
            // Not the page this frame was loaded with: learn on the drum.
            _ => {
                let h = PageHistory::used(self.drum.get(&page).copied(), now);
                self.drum.insert(page, h);
            }
        }
    }

    // Invariant: the trait contract guarantees `eligible` is never
    // empty, so the selection below always yields a frame.
    #[allow(clippy::expect_used)]
    fn victim(
        &mut self,
        eligible: Eligible<'_>,
        _sensors: &mut Sensors,
        now: VirtualTime,
    ) -> FrameNo {
        // One pass for both cases; `>=` keeps the *last* of equal
        // candidates, as `Iterator::max_by_key` does.
        let mut out_of_use: Option<(VirtualTime, FrameNo)> = None;
        let mut last_required: Option<(VirtualTime, FrameNo)> = None;
        for f in eligible.iter() {
            let held = self.resident.get(f.index()).copied().flatten();
            let (_, h) = held.unwrap_or_default();
            let (t, period) = (now.saturating_sub(h.last_use), h.prev_gap);
            if t > period + self.slack {
                // Case 1: pages that appear out of use (t exceeds the
                // learned period by more than the slack); the one
                // furthest past its period goes.
                if out_of_use.is_none_or(|(best, _)| t - period >= best) {
                    out_of_use = Some((t - period, f));
                }
            } else if out_of_use.is_none() {
                // Case 2: all in current use; the one last to be
                // required if the pattern holds has the largest T - t.
                let wait = period.saturating_sub(t);
                if last_required.is_none_or(|(best, _)| wait >= best) {
                    last_required = Some((wait, f));
                }
            }
        }
        let (_, frame) = out_of_use
            .or(last_required)
            .expect("eligible is never empty");
        frame
    }

    fn evicted(&mut self, frame: FrameNo) {
        // The frame empties; the page's learned history goes to the drum.
        if let Some((page, h)) = slot(&mut self.resident, frame).take() {
            self.drum.insert(page, h);
        }
    }

    fn name(&self) -> &'static str {
        "ATLAS learning"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::testing::Frames;

    /// Builds a policy with three frames touched periodically:
    /// frame 0 with period 4, frame 1 with period 8, frame 2 abandoned.
    fn trained() -> (AtlasLearning, VirtualTime) {
        let mut r = AtlasLearning::new();
        r.loaded(FrameNo(0), PageNo(0), 0);
        r.loaded(FrameNo(1), PageNo(1), 0);
        r.loaded(FrameNo(2), PageNo(2), 0);
        let mut now = 0;
        for t in 1..=40u64 {
            now = t;
            if t % 4 == 0 {
                r.touched(FrameNo(0), PageNo(0), t, false);
            }
            if t % 8 == 0 {
                r.touched(FrameNo(1), PageNo(1), t, false);
            }
            if t <= 8 {
                r.touched(FrameNo(2), PageNo(2), t, false);
            }
        }
        (r, now)
    }

    #[test]
    fn abandoned_page_is_detected_out_of_use() {
        let (mut r, now) = trained();
        let mut s = Sensors::new(3);
        let all = Frames::all(3);
        // Page 2: last used at 8, learned gap 1 -> t=32 >> T+1.
        assert_eq!(r.victim(all.view(), &mut s, now), FrameNo(2));
    }

    #[test]
    fn among_active_pages_longest_until_next_use_goes() {
        let (mut r, now) = trained();
        let mut s = Sensors::new(3);
        // Only the two periodic frames eligible; both just used at 40.
        // Page 0 returns in 4, page 1 in 8: evict frame 1.
        let v = r.victim(Frames::only(3, &[0, 1]).view(), &mut s, now);
        assert_eq!(v, FrameNo(1));
    }

    #[test]
    fn mid_period_prediction() {
        let mut r = AtlasLearning::new();
        r.loaded(FrameNo(0), PageNo(0), 0);
        r.loaded(FrameNo(1), PageNo(1), 0);
        // Page 0 period 10 last touched t=20; page 1 period 4 last t=22.
        for t in [10u64, 20] {
            r.touched(FrameNo(0), PageNo(0), t, false);
        }
        for t in [14u64, 18, 22] {
            r.touched(FrameNo(1), PageNo(1), t, false);
        }
        let mut s = Sensors::new(2);
        // At t=23: page 0 expected back at 30 (T-t = 7), page 1 at 26
        // (T-t = 3): evict frame 0.
        assert_eq!(r.victim(Frames::all(2).view(), &mut s, 23), FrameNo(0));
    }

    #[test]
    fn newly_loaded_pages_are_protected_from_out_of_use_test() {
        let mut r = AtlasLearning::new();
        r.loaded(FrameNo(0), PageNo(0), 100);
        let mut s = Sensors::new(1);
        // t=1, T=0: not out of use (1 <= 0+slack), falls to case 2.
        assert_eq!(r.victim(Frames::all(1).view(), &mut s, 101), FrameNo(0));
    }

    #[test]
    fn history_survives_eviction_and_learns_the_reload_gap() {
        let mut r = AtlasLearning::new();
        r.loaded(FrameNo(0), PageNo(7), 10);
        r.evicted(FrameNo(0));
        // Reloaded 90 refs later: the inactivity period 90 is learned.
        r.loaded(FrameNo(0), PageNo(7), 100);
        r.loaded(FrameNo(1), PageNo(8), 100);
        // Page 8 is new (T=0); page 7 has T=90, t=0 -> T-t=90: page 7 is
        // "last to be required" and must be the victim.
        let mut s = Sensors::new(2);
        assert_eq!(r.victim(Frames::all(2).view(), &mut s, 100), FrameNo(0));
    }

    #[test]
    fn long_period_page_is_evicted_right_after_its_use() {
        // The signature behaviour that beats LRU on loops: the page that
        // was *just used* but has a long learned period is the best
        // victim, while LRU would keep it longest.
        let mut r = AtlasLearning::new();
        r.loaded(FrameNo(0), PageNo(0), 0);
        r.loaded(FrameNo(1), PageNo(1), 0);
        // Page 0: short period 5; page 1: long period 50.
        for t in [5u64, 10, 15, 20, 25, 30, 35, 40, 45, 50] {
            r.touched(FrameNo(0), PageNo(0), t, false);
        }
        r.touched(FrameNo(1), PageNo(1), 50, false);
        let mut s = Sensors::new(2);
        // At t=51 both were just touched; LRU would evict page 0 (used
        // at 50, tie) or keep both equal. ATLAS evicts page 1: its next
        // use is ~49 away while page 0 returns in ~4.
        assert_eq!(r.victim(Frames::all(2).view(), &mut s, 51), FrameNo(1));
    }

    #[test]
    fn eviction_clears_residency_but_keeps_history() {
        let (mut r, _) = trained();
        r.evicted(FrameNo(2));
        assert!(r.resident[2].is_none());
        assert!(r.drum.contains_key(&PageNo(2)));
    }

    #[test]
    fn slack_delays_out_of_use_classification() {
        let mut strict = AtlasLearning::with_slack(0);
        let mut lax = AtlasLearning::with_slack(100);
        for r in [&mut strict, &mut lax] {
            r.loaded(FrameNo(0), PageNo(0), 0);
            r.loaded(FrameNo(1), PageNo(1), 0);
            // Page 0: period 5, last used 20. Page 1: period 2, last 24.
            for t in [5u64, 10, 15, 20] {
                r.touched(FrameNo(0), PageNo(0), t, false);
            }
            for t in [22u64, 24] {
                r.touched(FrameNo(1), PageNo(1), t, false);
            }
        }
        let mut s = Sensors::new(2);
        let all = Frames::all(2);
        // At t=27: page 0 t=7 > T=5 (out of use under slack 0).
        assert_eq!(strict.victim(all.view(), &mut s, 27), FrameNo(0));
        // Under huge slack nothing is out of use; the victim is still an
        // eligible frame.
        let v = lax.victim(all.view(), &mut s, 27);
        assert!(all.view().contains(v));
    }
}
