//! Least-recently-used replacement.

use dsa_core::clock::VirtualTime;
use dsa_core::ids::{FrameNo, PageNo};

use crate::replacement::Replacer;
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
/// O(1). The oldest is the victim whenever every tracked frame is
/// eligible — the common, nothing-pinned case; when pinning shrinks the
/// eligible set the policy falls back to the plain scan over
/// `eligible`.
#[derive(Clone, Debug, Default)]
pub struct LruRepl {
    /// Grown on demand; see [`Link`] for the indexing.
    links: Vec<Link>,
    /// Frames in the order.
    tracked: usize,
}

impl LruRepl {
    /// Creates the policy.
    #[must_use]
    pub fn new() -> LruRepl {
        LruRepl::default()
    }

    fn stamp_of(&self, frame: FrameNo) -> Option<VirtualTime> {
        let link = self.links.get(frame.index() + 1)?;
        (link.older != frame.index() + 1).then_some(link.stamp)
    }

    /// Takes place `at` out of the order (a no-op on a self-link).
    fn unlink(&mut self, at: usize) {
        let Link { older, newer, .. } = self.links[at];
        self.links[older].newer = newer;
        self.links[newer].older = older;
        (self.links[at].older, self.links[at].newer) = (at, at);
        self.tracked -= usize::from(older != at);
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
        self.tracked += 1;
    }
}

impl Replacer for LruRepl {
    fn loaded(&mut self, frame: FrameNo, _page: PageNo, now: VirtualTime) {
        self.stamp(frame, now);
    }

    fn touched(&mut self, frame: FrameNo, _page: PageNo, now: VirtualTime, _write: bool) {
        self.stamp(frame, now);
    }

    // Invariant: the trait contract guarantees `eligible` is never
    // empty, so the selection below always yields a frame.
    #[allow(clippy::expect_used)]
    fn victim(
        &mut self,
        eligible: &[FrameNo],
        _sensors: &mut Sensors,
        _now: VirtualTime,
    ) -> FrameNo {
        // Every eligible frame is tracked (residency implies a `loaded`
        // call), so equal lengths mean the sets coincide and the list
        // head — oldest stamp, lowest frame among equal stamps — is
        // exactly what the ascending scan's first-minimum rule picks.
        if eligible.len() == self.tracked {
            return FrameNo(self.links[0].newer as u64 - 1);
        }
        // Pinned frames shrink `eligible` below the tracked set: scan.
        *eligible
            .iter()
            .min_by_key(|&&f| self.stamp_of(f).unwrap_or(0))
            .expect("eligible is never empty")
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

    #[test]
    fn evicts_least_recently_used() {
        let mut r = LruRepl::new();
        let mut s = Sensors::new(3);
        r.loaded(FrameNo(0), PageNo(10), 0);
        r.loaded(FrameNo(1), PageNo(11), 1);
        r.loaded(FrameNo(2), PageNo(12), 2);
        r.touched(FrameNo(0), PageNo(10), 3, false); // 0 is now recent
        let all = [FrameNo(0), FrameNo(1), FrameNo(2)];
        assert_eq!(r.victim(&all, &mut s, 4), FrameNo(1));
    }

    #[test]
    fn loading_counts_as_use() {
        let mut r = LruRepl::new();
        let mut s = Sensors::new(2);
        r.loaded(FrameNo(0), PageNo(1), 5);
        r.loaded(FrameNo(1), PageNo(2), 6);
        assert_eq!(r.victim(&[FrameNo(0), FrameNo(1)], &mut s, 7), FrameNo(0));
    }

    #[test]
    fn eviction_forgets_frame_state() {
        let mut r = LruRepl::new();
        let mut s = Sensors::new(2);
        r.loaded(FrameNo(0), PageNo(1), 10);
        r.evicted(FrameNo(0));
        // Reused frame with no recorded use sorts as oldest.
        r.loaded(FrameNo(1), PageNo(2), 11);
        assert_eq!(r.stamp_of(FrameNo(0)), None);
        assert_eq!(r.victim(&[FrameNo(1)], &mut s, 12), FrameNo(1));
    }
}
