//! Belady's MIN — the offline optimal replacement policy.
//!
//! MIN evicts the resident page whose next use lies farthest in the
//! future (or never comes). It requires the full future reference
//! string, so it is not a realizable strategy; Belady's study \[1\] —
//! the evaluation the paper defers to — used it as the yardstick every
//! realizable policy is measured against, and so do experiments E4 and
//! E12. A property test in this crate checks the defining bound: no
//! policy faults less than MIN on any trace.

use std::collections::BTreeSet;

use dsa_core::clock::VirtualTime;
use dsa_core::ids::{FrameNo, IdMap, PageNo};

use crate::replacement::{slot, Eligible, Replacer};
use crate::sensors::Sensors;

/// The per-position next-use table MIN reasons from, as a standalone
/// pass: entry *i* is the position of the next reference to `trace[i]`
/// strictly after *i*, or [`VirtualTime::MAX`] if the page never recurs.
///
/// [`MinRepl`] keeps the same information as per-page sorted position
/// lists (it must answer "next use after `now`" for arbitrary `now`);
/// consumers that walk the trace front to back — the one-pass OPT
/// distance engine in `dsa-stackdist` — only ever need the next use *at
/// the reference itself*, which one backward sweep precomputes exactly.
#[must_use]
pub fn next_use_times(trace: &[PageNo]) -> Vec<VirtualTime> {
    let mut next = vec![VirtualTime::MAX; trace.len()];
    let mut seen: IdMap<PageNo, VirtualTime> = IdMap::default();
    for (i, &p) in trace.iter().enumerate().rev() {
        if let Some(&later) = seen.get(&p) {
            next[i] = later;
        }
        seen.insert(p, i as VirtualTime);
    }
    next
}

/// The offline optimum, constructed from the full reference string.
///
/// Victim selection keeps a `BTreeSet<(next use, frame)>` whose tail is
/// the farthest-out frame. The cached next-use per frame stays valid
/// between touches: under the replay contract (reference *i* at
/// `now == i`) a resident page's next use can only pass without a
/// `touched` callback if the page was not referenced — impossible, since
/// that position *is* a reference to it. Pinning falls back to ranking
/// the eligible frames one by one.
#[derive(Clone, Debug)]
pub struct MinRepl {
    /// For each page, the sorted positions at which it is referenced.
    uses: IdMap<PageNo, Vec<VirtualTime>>,
    /// Indexed by frame number, grown on demand: the page in each
    /// resident frame and its cached next use (`VirtualTime::MAX` =
    /// never referenced again). Mirrors `by_next` exactly.
    resident: Vec<Option<(PageNo, VirtualTime)>>,
    /// Farthest-next-use index: `(next use, frame)`, farthest last.
    by_next: BTreeSet<(VirtualTime, FrameNo)>,
}

impl MinRepl {
    /// Builds the oracle from the page-granular reference string that
    /// will be replayed. Reference *i* of the replay must be made at
    /// `now == i`.
    #[must_use]
    pub fn new(trace: &[PageNo]) -> MinRepl {
        let mut uses: IdMap<PageNo, Vec<VirtualTime>> = IdMap::default();
        for (i, &p) in trace.iter().enumerate() {
            uses.entry(p).or_default().push(i as VirtualTime);
        }
        MinRepl {
            uses,
            resident: Vec::new(),
            by_next: BTreeSet::new(),
        }
    }

    /// The next use of `page` strictly after `now`, or `None`.
    fn next_use(&self, page: PageNo, now: VirtualTime) -> Option<VirtualTime> {
        let positions = self.uses.get(&page)?;
        let idx = positions.partition_point(|&t| t <= now);
        positions.get(idx).copied()
    }

    /// Re-caches `frame`'s next use as of `now`.
    fn recache(&mut self, frame: FrameNo, page: PageNo, now: VirtualTime) {
        let nu = self.next_use(page, now).unwrap_or(VirtualTime::MAX);
        self.evicted(frame);
        *slot(&mut self.resident, frame) = Some((page, nu));
        self.by_next.insert((nu, frame));
    }
}

impl Replacer for MinRepl {
    fn loaded(&mut self, frame: FrameNo, page: PageNo, now: VirtualTime) {
        self.recache(frame, page, now);
    }

    fn touched(&mut self, frame: FrameNo, page: PageNo, now: VirtualTime, _write: bool) {
        self.recache(frame, page, now);
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
        // Every eligible frame is resident (hence cached), so equal
        // lengths mean the sets coincide. The index tail is the largest
        // next use; among ties — possible only at `VirtualTime::MAX`,
        // since any finite position references exactly one page — it is
        // the highest frame, matching the ascending scan's last-maximum
        // rule below.
        if eligible.len() == self.by_next.len() {
            if let Some(&(_, frame)) = self.by_next.last() {
                return frame;
            }
        }
        // Pinned frames shrink `eligible` below the resident set: scan.
        eligible
            .iter()
            .max_by_key(|f| {
                let held = self.resident.get(f.index()).copied().flatten();
                // Never-used-again sorts above everything.
                held.and_then(|(page, _)| self.next_use(page, now))
                    .unwrap_or(VirtualTime::MAX)
            })
            .expect("eligible is never empty")
    }

    fn evicted(&mut self, frame: FrameNo) {
        if let Some((_, old)) = slot(&mut self.resident, frame).take() {
            self.by_next.remove(&(old, frame));
        }
    }

    fn name(&self) -> &'static str {
        "MIN (Belady)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::testing::Frames;

    fn pages(xs: &[u64]) -> Vec<PageNo> {
        xs.iter().map(|&x| PageNo(x)).collect()
    }

    #[test]
    fn next_use_times_matches_lookup() {
        let trace = pages(&[1, 2, 1, 3, 2]);
        let next = next_use_times(&trace);
        assert_eq!(
            next,
            vec![2, 4, VirtualTime::MAX, VirtualTime::MAX, VirtualTime::MAX]
        );
        // Agrees with MinRepl's own per-page lists at every position.
        let r = MinRepl::new(&trace);
        for (i, &p) in trace.iter().enumerate() {
            assert_eq!(
                r.next_use(p, i as VirtualTime).unwrap_or(VirtualTime::MAX),
                next[i],
                "position {i}"
            );
        }
        assert!(next_use_times(&[]).is_empty());
    }

    #[test]
    fn next_use_lookup() {
        let r = MinRepl::new(&pages(&[1, 2, 1, 3, 2]));
        assert_eq!(r.next_use(PageNo(1), 0), Some(2));
        assert_eq!(r.next_use(PageNo(1), 2), None);
        assert_eq!(r.next_use(PageNo(2), 0), Some(1));
        assert_eq!(r.next_use(PageNo(2), 1), Some(4));
        assert_eq!(r.next_use(PageNo(9), 0), None);
    }

    #[test]
    fn evicts_farthest_next_use() {
        // Trace: 1 2 3 | at t=3 page 4 arrives. Next uses after 3:
        // p1 at 4, p2 at 6, p3 at 5 -> evict p2's frame.
        let trace = pages(&[1, 2, 3, 4, 1, 3, 2]);
        let mut r = MinRepl::new(&trace);
        let mut s = Sensors::new(3);
        r.loaded(FrameNo(0), PageNo(1), 0);
        r.loaded(FrameNo(1), PageNo(2), 1);
        r.loaded(FrameNo(2), PageNo(3), 2);
        assert_eq!(r.victim(Frames::all(3).view(), &mut s, 3), FrameNo(1));
    }

    #[test]
    fn never_used_again_is_first_choice() {
        let trace = pages(&[1, 2, 3, 4, 1, 2]);
        let mut r = MinRepl::new(&trace);
        let mut s = Sensors::new(3);
        r.loaded(FrameNo(0), PageNo(1), 0);
        r.loaded(FrameNo(1), PageNo(2), 1);
        r.loaded(FrameNo(2), PageNo(3), 2);
        // Page 3 never recurs after t=2: its frame must go.
        assert_eq!(r.victim(Frames::all(3).view(), &mut s, 3), FrameNo(2));
    }

    #[test]
    fn eviction_forgets_residency() {
        let trace = pages(&[1, 2]);
        let mut r = MinRepl::new(&trace);
        r.loaded(FrameNo(0), PageNo(1), 0);
        r.evicted(FrameNo(0));
        assert!(r.resident[0].is_none() && r.by_next.is_empty());
    }
}
