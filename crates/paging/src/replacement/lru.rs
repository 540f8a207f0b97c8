//! Least-recently-used replacement.

use dsa_core::clock::VirtualTime;
use dsa_core::ids::{FrameNo, PageNo};

use crate::replacement::{Eligible, Replacer};
use crate::sensors::Sensors;

/// One place in the recency order. Place 0 is the list's own head —
/// its `newer` is the oldest frame, its `older` the most recent — and
/// place `f + 1` belongs to frame `f`, so neither end of the list is
/// special. A place linked to itself is in no list: an untracked
/// frame, or the head of an empty order.
#[derive(Clone, Copy, Debug)]
struct Link {
    stamp: VirtualTime,
    older: usize,
    newer: usize,
}

/// Evicts the page whose last reference is oldest.
///
/// True LRU requires a timestamp (or stack) per frame — hardware no
/// 1967 machine could afford, which is why the paper's systems
/// approximate it with use bits (see [`crate::replacement::clock`]) or
/// learning periods (see [`crate::replacement::atlas`]). It is included
/// as the recency-ideal reference point.
///
/// Every reference restamps a frame and every eviction asks for the
/// oldest, so the recency order is a circular doubly linked list
/// threaded through a frame-indexed table and kept sorted by
/// `(stamp, frame)`. A restamped frame is unlinked and re-entered by
/// walking back from the recent end; reference time never runs
/// backwards, so the walk passes only frames with the *same* stamp and
/// a higher number (a lookahead load shares its fault's stamp) and is
/// O(1). The victim is the first eligible frame from the old end: the
/// oldest itself unless it is pinned, and the walk passes only pinned
/// frames.
#[derive(Clone, Debug, Default)]
pub struct LruRepl {
    /// Grown on demand; see [`Link`] for the indexing.
    links: Vec<Link>,
}

impl LruRepl {
    /// Creates the policy.
    #[must_use]
    pub fn new() -> LruRepl {
        LruRepl::default()
    }

    /// Takes place `at` out of the order (a no-op on a self-link).
    fn unlink(&mut self, at: usize) {
        let Link { older, newer, .. } = self.links[at];
        self.links[older].newer = newer;
        self.links[newer].older = older;
        (self.links[at].older, self.links[at].newer) = (at, at);
    }

    fn stamp(&mut self, frame: FrameNo, now: VirtualTime) {
        let at = frame.index() + 1;
        let self_linked = |i| Link {
            stamp: 0,
            older: i,
            newer: i,
        };
        self.links.extend((self.links.len()..=at).map(self_linked));
        self.unlink(at);
        // The newest place that still sorts before `(now, frame)`.
        let mut older = self.links[0].older;
        while older != 0 && (self.links[older].stamp, older) > (now, at) {
            older = self.links[older].older;
        }
        let newer = self.links[older].newer;
        self.links[at] = Link {
            stamp: now,
            older,
            newer,
        };
        self.links[older].newer = at;
        self.links[newer].older = at;
    }
}

impl Replacer for LruRepl {
    fn loaded(&mut self, frame: FrameNo, _page: PageNo, now: VirtualTime) {
        self.stamp(frame, now);
    }

    fn touched(&mut self, frame: FrameNo, _page: PageNo, now: VirtualTime, _write: bool) {
        self.stamp(frame, now);
    }

    // Invariant: `eligible` is never empty and every eligible frame is
    // in the order (residency implies a `loaded` call), so the walk
    // below always meets one.
    #[allow(clippy::expect_used)]
    fn victim(
        &mut self,
        eligible: Eligible<'_>,
        _sensors: &mut Sensors,
        _now: VirtualTime,
    ) -> FrameNo {
        // The order is sorted by `(stamp, frame)`, so its first eligible
        // place is the oldest stamp and, among equal stamps, the lowest
        // frame: an ascending scan's first minimum.
        std::iter::successors(Some(self.links[0].newer), |&at| Some(self.links[at].newer))
            .take_while(|&at| at != 0)
            .map(|at| FrameNo(at as u64 - 1))
            .find(|&f| eligible.contains(f))
            .expect("an eligible frame is in the recency order")
    }

    fn evicted(&mut self, frame: FrameNo) {
        if frame.index() + 1 < self.links.len() {
            self.unlink(frame.index() + 1);
        }
    }

    fn name(&self) -> &'static str {
        "LRU"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::testing::Frames;

    #[test]
    fn evicts_least_recently_used() {
        let mut r = LruRepl::new();
        let mut s = Sensors::new(3);
        r.loaded(FrameNo(0), PageNo(10), 0);
        r.loaded(FrameNo(1), PageNo(11), 1);
        r.loaded(FrameNo(2), PageNo(12), 2);
        r.touched(FrameNo(0), PageNo(10), 3, false); // 0 is now recent
        assert_eq!(r.victim(Frames::all(3).view(), &mut s, 4), FrameNo(1));
    }

    #[test]
    fn loading_counts_as_use() {
        let mut r = LruRepl::new();
        let mut s = Sensors::new(2);
        r.loaded(FrameNo(0), PageNo(1), 5);
        r.loaded(FrameNo(1), PageNo(2), 6);
        assert_eq!(r.victim(Frames::all(2).view(), &mut s, 7), FrameNo(0));
    }

    #[test]
    fn eviction_forgets_frame_state() {
        let mut r = LruRepl::new();
        let mut s = Sensors::new(2);
        r.loaded(FrameNo(0), PageNo(1), 10);
        r.evicted(FrameNo(0));
        r.loaded(FrameNo(1), PageNo(2), 11);
        assert_eq!(r.links[1].older, 1, "frame 0 left the order");
        let frames = Frames::all(2).vacate(0);
        assert_eq!(r.victim(frames.view(), &mut s, 12), FrameNo(1));
    }
}
