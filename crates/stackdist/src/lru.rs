//! One-pass LRU stack distances.
//!
//! LRU's stack at any instant is the pages in recency order, so the
//! stack depth of a re-reference to page *p* is the number of distinct
//! pages touched since *p*'s previous reference, counting *p* itself.
//! [`StreamingLru`] counts them in O(log distinct pages) a reference;
//! the batch pass below is that engine run over a materialized trace,
//! keeping every distance.

use dsa_core::ids::PageNo;

use crate::streaming::StreamingLru;
use crate::success::{StackDistances, SuccessFunction};

/// Computes the LRU stack distance of every reference in one pass.
#[must_use]
pub fn lru_distances(trace: &[PageNo]) -> StackDistances {
    let mut lru = StreamingLru::new();
    StackDistances::new(trace.iter().map(|&p| lru.record(p)).collect())
}

/// [`lru_distances`] collapsed to the success function.
#[must_use]
pub fn lru_success(trace: &[PageNo]) -> SuccessFunction {
    lru_distances(trace).success()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::success::INFINITE;

    fn pages(xs: &[u64]) -> Vec<PageNo> {
        xs.iter().map(|&x| PageNo(x)).collect()
    }

    #[test]
    fn textbook_distances() {
        // a b c b a: the stack is [c b a] at the fourth reference, so
        // b re-enters at depth 2 and a at depth 3.
        let d = lru_distances(&pages(&[0, 1, 2, 1, 0]));
        assert_eq!(d.distances(), &[INFINITE, INFINITE, INFINITE, 2, 3][..]);
    }

    #[test]
    fn immediate_rereference_has_distance_one() {
        let d = lru_distances(&pages(&[5, 5, 5]));
        assert_eq!(d.distances(), &[INFINITE, 1, 1][..]);
    }

    #[test]
    fn classic_trace_curve_matches_hand_counts() {
        // 1 2 3 4 1 2 5 1 2 3 4 5 — LRU faults: 3 frames -> 10,
        // 4 frames -> 8, 5 frames -> 5 (all distinct = compulsory).
        let s = lru_success(&pages(&[1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5]));
        assert_eq!(s.faults(3), 10);
        assert_eq!(s.faults(4), 8);
        assert_eq!(s.faults(5), 5);
        assert_eq!(s.compulsory(), 5);
    }

    #[test]
    fn cyclic_sweep_thrashes_below_capacity() {
        // Sweep of 4 pages under LRU: every reference past the first
        // round has distance 4 — fault everywhere below 4 frames, hit
        // at 4 and above.
        let trace: Vec<PageNo> = (0..20u64).map(|i| PageNo(i % 4)).collect();
        let s = lru_success(&trace);
        assert_eq!(s.faults(3), 20);
        assert_eq!(s.faults(4), 4);
    }
}
