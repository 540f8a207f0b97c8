//! A rank bitmap: one bit per reference stamp, under a Fenwick
//! (binary-indexed) tree of per-word mark counts.
//!
//! The LRU distance pass marks, for every currently-seen page, the
//! position of its most recent reference; the stack depth of a
//! re-reference is then a *rank*, a count of marks above a position.
//! A prefix count is a walk over the words' tree plus one masked
//! `count_ones`, six levels shorter than a tree of one count per
//! position: a one-pass O(n log n) sweep with a small log.

/// A set of positions `0..n` that answers prefix counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fenwick {
    /// Number of positions.
    n: usize,
    /// Bit `pos % 64` of word `pos / 64` is set iff `pos` is marked.
    bits: Vec<u64>,
    /// 1-based implicit tree over the words; `tree[i]` counts the marks
    /// in words `i − lowbit(i) .. i`.
    tree: Vec<u32>,
}

/// The low `k` bits of a word, `k <= 64`.
fn low_bits(k: usize) -> u64 {
    u64::MAX.checked_shr(64 - k as u32).unwrap_or(0)
}

impl Fenwick {
    /// An unmarked set over positions `0..n`.
    #[must_use]
    pub fn new(n: usize) -> Fenwick {
        Fenwick {
            n,
            bits: vec![0; n.div_ceil(64)],
            tree: vec![0; n.div_ceil(64) + 1],
        }
    }

    /// Resizes the set to positions `0..n` with exactly `0..live` marked,
    /// as a fresh set after `mark(0)` .. `mark(live - 1)`, in one linear
    /// pass that reuses the buffers: `tree[i]` counts the positions of
    /// words `i − lowbit(i) .. i` that lie below `live`.
    pub fn fill(&mut self, n: usize, live: usize) {
        let words = n.div_ceil(64);
        self.n = n;
        self.bits.clear();
        self.bits
            .extend((0..words).map(|w| low_bits(live.saturating_sub(64 * w).min(64))));
        self.tree.clear();
        self.tree.extend((0..=words).map(|i| {
            let low = i - (i & i.wrapping_neg());
            ((64 * i).min(live) - (64 * low).min(live)) as u32
        }));
    }

    // Callers count; none asks for emptiness, so there is no unused
    // `is_empty` beside it.
    /// Number of positions.
    #[must_use]
    #[allow(clippy::len_without_is_empty)]
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// Marks position `pos`, which must be unmarked.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range, and in debug builds if it is
    /// already marked: a position holds one mark or none.
    pub fn mark(&mut self, pos: usize) {
        let (w, bit) = (pos / 64, 1u64 << (pos % 64));
        debug_assert!(self.bits[w] & bit == 0, "{pos} marked twice");
        self.bits[w] |= bit;
        let mut i = w + 1;
        while i < self.tree.len() {
            self.tree[i] += 1;
            i += i & i.wrapping_neg();
        }
    }

    /// Unmarks position `pos`, which must be marked.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range, and in debug builds if it is not
    /// marked; callers only ever clear marks they set.
    pub fn clear(&mut self, pos: usize) {
        let (w, bit) = (pos / 64, 1u64 << (pos % 64));
        debug_assert!(self.bits[w] & bit != 0, "{pos} not marked");
        self.bits[w] &= !bit;
        let mut i = w + 1;
        while i < self.tree.len() {
            self.tree[i] -= 1;
            i += i & i.wrapping_neg();
        }
    }

    /// Count of marks at positions `0..=pos`.
    #[must_use]
    pub fn prefix(&self, pos: usize) -> u64 {
        let end = (pos + 1).min(self.n);
        let mut i = end / 64;
        let part = self.bits.get(i).map_or(0, |&w| w & low_bits(end % 64));
        let mut sum = u64::from(part.count_ones());
        while i > 0 {
            sum += u64::from(self.tree[i]);
            i -= i & i.wrapping_neg();
        }
        sum
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
        // Shrinking works too and behaves like a fresh set.
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
