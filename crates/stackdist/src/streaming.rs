//! LRU stack distances in memory bounded by the page universe, not the
//! trace length: the one LRU pass of this crate.
//!
//! Each reference gets a stamp, and a [`Fenwick`] rank bitmap marks, for
//! every distinct page, the stamp of its most recent reference; the
//! depth of a re-reference is one plus the marks strictly between its
//! previous stamp and its current one (Bennett & Kruskal): the `seen`
//! marks less those up to the previous stamp, one prefix walk. Were
//! stamps permanent the bitmap would grow with the trace — 19 MB of
//! bits and counts for 10⁸ references. But only the *most recent* stamp
//! of each page is ever marked, so the live marks number at most the
//! page universe. [`StreamingLru`] exploits this with periodic stamp
//! **compaction**: when the stamp cursor reaches the bitmap's capacity,
//! the live stamps are renumbered `0..live` in stamp order (preserving
//! every rank) and the bitmap is rebuilt at `max(128, 2 × live)` rounded
//! up to whole 64-bit words — so compaction amortizes to O(1) per
//! reference and the whole engine is O(distinct pages) space. Each page
//! gets a dense slot on first touch; a stamp `s` is live iff
//! `stamp_of[slot_at[s]] == s`, so compaction is one ascending scan plus
//! [`Fenwick::fill`]: O(capacity), no sort, no hashing.
//!
//! Distances are accumulated directly into a histogram (finite
//! distances never exceed the page universe) and collapsed via
//! `SuccessFunction::from_histogram`, which is exactly
//! `SuccessFunction::from_distances` minus the materialized vector.
//! [`crate::lru::lru_distances`] runs the same engine over a
//! materialized trace and keeps each distance, so that fault positions
//! at a chosen size can be replayed. OPT has no streaming form: its
//! priority is next *use* time, which only a backward pass over a
//! materialized trace can know.

use dsa_core::ids::{IdMap, PageNo};

use crate::fenwick::Fenwick;
use crate::success::{SuccessFunction, INFINITE};

/// Minimum bitmap capacity, so tiny traces don't compact every few
/// references.
const MIN_CAPACITY: usize = 128;

/// A one-pass LRU stack-distance engine with O(distinct pages) memory.
///
/// # Examples
///
/// ```
/// use dsa_core::ids::PageNo;
/// use dsa_stackdist::streaming::StreamingLru;
///
/// let mut s = StreamingLru::new();
/// for i in 0..1000u64 {
///     s.record(PageNo(i % 7));
/// }
/// // A cyclic sweep of 7 pages faults on every reference below 7
/// // frames, and only on its first touches at 7.
/// assert_eq!(s.success().curve(&[1, 6, 7]), vec![1000, 1000, 7]);
/// ```
#[derive(Clone, Debug)]
pub struct StreamingLru {
    /// Marks over *stamps*: bit set at a page's most recent stamp.
    marks: Fenwick,
    /// Dense slot of each page seen so far, in first-touch order.
    slots: IdMap<PageNo, usize>,
    /// Most recent stamp of each slot.
    stamp_of: Vec<usize>,
    /// The slot each stamp went to, live or not; one per bitmap position.
    slot_at: Vec<usize>,
    /// Next stamp to assign (== stamps consumed since last compaction).
    cursor: usize,
    /// `hist[d]` = references at finite distance `d`.
    hist: Vec<u64>,
    /// First touches.
    compulsory: u64,
    /// Total references recorded.
    references: u64,
}

impl Default for StreamingLru {
    fn default() -> StreamingLru {
        StreamingLru::new()
    }
}

impl StreamingLru {
    /// A fresh engine (no references recorded).
    #[must_use]
    pub fn new() -> StreamingLru {
        StreamingLru {
            marks: Fenwick::new(MIN_CAPACITY),
            slots: IdMap::default(),
            stamp_of: Vec::new(),
            slot_at: vec![0; MIN_CAPACITY],
            cursor: 0,
            hist: Vec::new(),
            compulsory: 0,
            references: 0,
        }
    }

    /// Records one reference and returns its LRU stack distance
    /// ([`INFINITE`] for a first touch).
    pub fn record(&mut self, p: PageNo) -> u64 {
        if self.cursor == self.marks.len() {
            self.compact();
        }
        let i = self.cursor;
        self.cursor += 1;
        self.references += 1;
        let seen = self.stamp_of.len();
        let slot = *self.slots.entry(p).or_insert(seen);
        self.slot_at[i] = slot;
        let d = if slot < seen {
            // Each seen page has one mark, all below `i`, so the
            // `seen − prefix(prev)` marks above `prev` are the pages
            // above `p` in the LRU stack.
            let prev = std::mem::replace(&mut self.stamp_of[slot], i);
            let d = seen as u64 - self.marks.prefix(prev) + 1;
            self.marks.clear(prev);
            if self.hist.len() <= d as usize {
                self.hist.resize(d as usize + 1, 0);
            }
            self.hist[d as usize] += 1;
            d
        } else {
            self.stamp_of.push(i);
            self.compulsory += 1;
            INFINITE
        };
        self.marks.mark(i);
        d
    }

    /// Renumbers the live stamps `0..live` in stamp order and rebuilds
    /// the bitmap at `max(128, 2 × live)` rounded up to whole words.
    /// Order-preserving renumbering keeps every future rank exact;
    /// doubling headroom makes the rebuild amortized O(1) per reference.
    ///
    /// A live stamp `s` moves down to `live <= s`, an entry the scan has
    /// already read; steady-state compaction allocates nothing.
    fn compact(&mut self) {
        let mut live = 0;
        for s in 0..self.cursor {
            let slot = self.slot_at[s];
            if self.stamp_of[slot] == s {
                self.stamp_of[slot] = live;
                self.slot_at[live] = slot;
                live += 1;
            }
        }
        let capacity = MIN_CAPACITY.max(2 * live).next_multiple_of(64);
        self.slot_at.resize(capacity, 0);
        self.marks.fill(capacity, live);
        self.cursor = live;
    }

    /// Distinct pages seen so far — the memory bound.
    #[must_use]
    pub fn distinct_pages(&self) -> usize {
        self.stamp_of.len()
    }

    /// The success function over everything recorded so far. Callable
    /// mid-stream: the curve is exact for the prefix consumed.
    #[must_use]
    pub fn success(&self) -> SuccessFunction {
        SuccessFunction::from_histogram(&self.hist, self.compulsory)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_is_bounded_by_the_page_universe() {
        let mut s = StreamingLru::new();
        for i in 0..1_000_000u64 {
            s.record(PageNo(i % 50));
        }
        assert_eq!(s.distinct_pages(), 50);
        assert!(
            s.marks.len() <= MIN_CAPACITY.max(100),
            "bitmap grew to {} stamps",
            s.marks.len()
        );
        // Cyclic sweep of 50 pages: steady-state distance is 50.
        let f = s.success();
        assert_eq!(f.faults(49), 1_000_000);
        assert_eq!(f.faults(50), 50);
    }
}
