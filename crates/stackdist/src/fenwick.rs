//! A Fenwick (binary-indexed) tree used as an order-statistics
//! structure over reference stamps.
//!
//! The LRU distance pass marks, for every currently-seen page, the
//! position of its most recent reference; the stack depth of a
//! re-reference is then a *range count* of marks between the previous
//! and the current position. A Fenwick tree holds those marks and
//! answers prefix counts in O(log n), which is what turns the
//! per-reference distance into a one-pass O(n log n) sweep.

/// A binary-indexed tree over `n` positions holding small counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fenwick {
    /// 1-based implicit tree; `tree[i]` covers `lowbit(i)` positions.
    tree: Vec<u64>,
}

impl Fenwick {
    /// An all-zero tree over positions `0..n`.
    #[must_use]
    pub fn new(n: usize) -> Fenwick {
        Fenwick {
            tree: vec![0; n + 1],
        }
    }

    /// Resizes the tree to positions `0..n` with exactly `0..live` marked,
    /// as a fresh tree after `mark(0)` .. `mark(live - 1)`, in one linear
    /// pass that reuses the buffer: `tree[i]` covers `i − lowbit(i) ..
    /// i`, of which `min(i, live) − min(i − lowbit(i), live)` are marked.
    pub fn fill(&mut self, n: usize, live: usize) {
        self.tree.clear();
        self.tree.extend((0..=n).map(|i| {
            let low = i - (i & i.wrapping_neg());
            (i.min(live) - low.min(live)) as u64
        }));
    }

    // Callers count; none asks for emptiness, so there is no unused
    // `is_empty` beside it.
    /// Number of positions.
    #[must_use]
    #[allow(clippy::len_without_is_empty)]
    pub(crate) fn len(&self) -> usize {
        self.tree.len() - 1
    }

    /// Marks position `pos` (increments its count).
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn mark(&mut self, pos: usize) {
        let mut i = pos + 1;
        while i < self.tree.len() {
            self.tree[i] += 1;
            i += i & i.wrapping_neg();
        }
    }

    /// Unmarks position `pos` (decrements its count).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds, via underflow) if the position was not
    /// marked; callers only ever clear marks they set.
    pub fn clear(&mut self, pos: usize) {
        let mut i = pos + 1;
        while i < self.tree.len() {
            self.tree[i] -= 1;
            i += i & i.wrapping_neg();
        }
    }

    /// Count of marks at positions `0..=pos`.
    #[must_use]
    pub fn prefix(&self, pos: usize) -> u64 {
        let mut i = (pos + 1).min(self.tree.len() - 1);
        let mut sum = 0;
        while i > 0 {
            sum += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        sum
    }

    /// Count of marks at positions strictly between `lo` and `hi`
    /// (exclusive on both ends).
    #[must_use]
    pub(crate) fn between(&self, lo: usize, hi: usize) -> u64 {
        if hi <= lo + 1 {
            return 0;
        }
        self.prefix(hi - 1) - self.prefix(lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_counts_marks() {
        let mut f = Fenwick::new(10);
        assert_eq!(f.len(), 10);
        for pos in [0, 3, 7, 9] {
            f.mark(pos);
        }
        assert_eq!(f.prefix(0), 1);
        assert_eq!(f.prefix(2), 1);
        assert_eq!(f.prefix(3), 2);
        assert_eq!(f.prefix(9), 4);
        f.clear(3);
        assert_eq!(f.prefix(9), 3);
        assert_eq!(f.prefix(3), 1);
    }

    #[test]
    fn between_is_exclusive_on_both_ends() {
        let mut f = Fenwick::new(8);
        for pos in 0..8 {
            f.mark(pos);
        }
        assert_eq!(f.between(2, 6), 3); // positions 3, 4, 5
        assert_eq!(f.between(2, 3), 0);
        assert_eq!(f.between(2, 2), 0);
        assert_eq!(f.between(0, 7), 6);
    }

    #[test]
    fn fill_replaces_marks_and_resizes_in_place() {
        let mut f = Fenwick::new(8);
        for pos in 0..8 {
            f.mark(pos);
        }
        f.fill(16, 5);
        assert_eq!(f.len(), 16);
        assert_eq!(f.prefix(3), 4);
        assert_eq!(f.prefix(15), 5);
        f.mark(12);
        assert_eq!(f.prefix(15), 6);
        // Shrinking works too and behaves like a fresh tree.
        f.fill(4, 0);
        assert_eq!(f.len(), 4);
        assert_eq!(f.prefix(3), 0);
    }

    #[test]
    fn empty_tree_is_empty() {
        let f = Fenwick::new(0);
        assert_eq!(f.len(), 0);
        assert_eq!(f.prefix(0), 0);
    }
}
