//! A compact fixed-capacity LRU resident set.
//!
//! [`crate::paged::PagedMemory`] is the full engine — page table, frame
//! pool, use/modify sensors, advice, quarantine — and each instance
//! costs a few hashes and a `Box<dyn Replacer>` per touch and several
//! hundred bytes at rest. A population-scale multiprogramming simulator
//! keeps one resident set per *tenant*, and at 100k+ tenants the full
//! engine's footprint (and pointer-chasing) dominates the run.
//! [`CompactLru`] is the purpose-built summary for that regime: one
//! small `Vec<PageNo>` in recency order, nothing else.
//!
//! It is not an approximation. For any reference string and capacity,
//! the hit/fault outcome of every touch equals `PagedMemory` driving
//! [`crate::replacement::lru::LruRepl`] over the same string (the
//! property test `compact_lru_matches_paged_memory` in
//! `tests/properties_sched.rs` pins the two together). What it gives up
//! is the engine's generality: no sensors, no advice, no dirty
//! tracking, LRU only — and an O(capacity) scan per touch, which for
//! the small per-tenant allotments the scheduler deals in (a handful to
//! a few dozen frames) beats the hash-map machinery it replaces.

use dsa_core::ids::PageNo;

/// A fixed-capacity LRU-ordered resident set: `pages[0]` is the most
/// recently used, `pages[len-1]` the eviction victim.
#[derive(Clone, Debug)]
pub struct CompactLru {
    pages: Vec<PageNo>,
    capacity: usize,
}

impl CompactLru {
    /// An empty resident set of `capacity` frames (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> CompactLru {
        let capacity = capacity.max(1);
        CompactLru {
            pages: Vec::with_capacity(capacity.min(64)),
            capacity,
        }
    }

    /// Pages currently resident.
    #[must_use]
    pub fn resident_count(&self) -> usize {
        self.pages.len()
    }

    /// References `page`; returns `true` on a fault (the page was not
    /// resident), evicting the least recently used page if the set is
    /// full.
    pub fn touch(&mut self, page: PageNo) -> bool {
        self.touch_depth(page).is_none()
    }

    /// [`CompactLru::touch`], reporting where a hit was found: the
    /// page's LRU stack depth (1 = most recently used), `None` on a
    /// fault. The set is the top `capacity` entries of Mattson's LRU
    /// stack, so depth `d` is a hit at every capacity from `d` up and a
    /// fault below — one pass answers for every size up to this one.
    pub fn touch_depth(&mut self, page: PageNo) -> Option<usize> {
        if let Some(i) = self.pages.iter().position(|&p| p == page) {
            // Hit: rotate to most-recent position.
            self.pages[..=i].rotate_right(1);
            return Some(i + 1);
        }
        if self.pages.len() == self.capacity {
            self.pages.pop();
        }
        self.pages.insert(0, page);
        None
    }

    /// Shrinks (or grows) the capacity to `capacity` frames, evicting
    /// least-recently-used pages first if the set no longer fits.
    /// Returns how many pages were evicted.
    pub fn resize(&mut self, capacity: usize) -> usize {
        self.capacity = capacity.max(1);
        let evicted = self.pages.len().saturating_sub(self.capacity);
        self.pages.truncate(self.capacity);
        evicted
    }

    /// Drops every resident page (swap-out); returns how many were
    /// resident.
    pub fn clear(&mut self) -> usize {
        let n = self.pages.len();
        self.pages.clear();
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: u64) -> PageNo {
        PageNo(x)
    }

    #[test]
    fn cold_faults_then_hits() {
        let mut m = CompactLru::new(2);
        assert!(m.touch(p(1)));
        assert!(m.touch(p(2)));
        assert!(!m.touch(p(1)));
        assert!(!m.touch(p(2)));
        assert_eq!(m.resident_count(), 2);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut m = CompactLru::new(2);
        m.touch(p(1));
        m.touch(p(2));
        m.touch(p(1)); // recency now [1, 2]
        assert!(m.touch(p(3))); // evicts 2
        assert!(!m.touch(p(1)), "1 survived");
        assert!(m.touch(p(2)), "2 was the victim");
    }

    #[test]
    fn resize_trims_lru_side() {
        let mut m = CompactLru::new(4);
        for x in 1..=4 {
            m.touch(p(x));
        }
        // Recency: [4, 3, 2, 1]. Shrinking to 2 evicts 1 and 2.
        assert_eq!(m.resize(2), 2);
        assert!(!m.touch(p(4)));
        assert!(!m.touch(p(3)));
        assert!(m.touch(p(1)));
    }

    #[test]
    fn clear_swaps_everything_out() {
        let mut m = CompactLru::new(3);
        m.touch(p(1));
        m.touch(p(2));
        assert_eq!(m.clear(), 2);
        assert_eq!(m.resident_count(), 0);
        assert!(m.touch(p(1)), "cold again after swap-out");
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut m = CompactLru::new(0);
        assert_eq!(m.capacity, 1);
        assert!(m.touch(p(1)));
        assert!(!m.touch(p(1)));
        assert!(m.touch(p(2)));
    }
}
