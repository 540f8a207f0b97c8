//! The Fenwick order-statistics pass against a naive O(n²) explicit
//! LRU stack, on random and adversarial (cyclic-sweep) reference
//! strings — the distance vector must agree element for element.

use dsa_core::ids::PageNo;
use dsa_stackdist::{lru_distances, Fenwick, INFINITE};
use dsa_trace::refstring::RefStringCfg;
use dsa_trace::rng::Rng64;
use proptest::prelude::*;

/// The textbook implementation the Fenwick pass replaces: keep the
/// stack explicitly, search it linearly, move-to-front on every
/// reference.
fn naive_distances(trace: &[PageNo]) -> Vec<u64> {
    let mut stack: Vec<PageNo> = Vec::new();
    let mut dist = Vec::with_capacity(trace.len());
    for &p in trace {
        match stack.iter().position(|&q| q == p) {
            Some(depth) => {
                dist.push(depth as u64 + 1);
                stack.remove(depth);
            }
            None => dist.push(INFINITE),
        }
        stack.insert(0, p);
    }
    dist
}

proptest! {
    #[test]
    fn fenwick_pass_matches_explicit_stack_on_random_strings(
        raw in prop::collection::vec(0u64..40, 0..1200),
    ) {
        let trace: Vec<PageNo> = raw.into_iter().map(PageNo).collect();
        let got = lru_distances(&trace);
        prop_assert_eq!(got.distances(), &naive_distances(&trace)[..]);
    }

    #[test]
    fn fenwick_pass_matches_explicit_stack_on_cyclic_sweeps(
        pages in 1u64..64,
        len in 1usize..2000,
    ) {
        // The adversarial case: every re-reference sits at maximum
        // depth, so the range count spans almost the whole window.
        let trace = RefStringCfg::SequentialSweep { pages }
            .generate_pages(len, &mut Rng64::new(pages ^ len as u64));
        let got = lru_distances(&trace);
        prop_assert_eq!(got.distances(), &naive_distances(&trace)[..]);
    }

    #[test]
    fn fenwick_prefix_matches_a_counting_array(
        ops in prop::collection::vec((0usize..64, any::<bool>()), 0..300),
    ) {
        // Order-statistics bookkeeping against a plain array: marks and
        // clears in arbitrary interleaving, prefix counts at every step.
        let mut tree = Fenwick::new(64);
        let mut marks = [0u64; 64];
        for (pos, set) in ops {
            if set {
                tree.mark(pos);
                marks[pos] += 1;
            } else if marks[pos] > 0 {
                tree.clear(pos);
                marks[pos] -= 1;
            }
        }
        let mut running = 0;
        for (pos, &m) in marks.iter().enumerate() {
            running += m;
            prop_assert_eq!(tree.prefix(pos), running, "prefix at {}", pos);
        }
    }

    #[test]
    fn linear_fill_equals_marking_one_position_at_a_time(
        old in prop::collection::vec(0usize..64, 0..100),
        n in 0usize..300,
        per_mille in 0usize..1001,
    ) {
        // Whatever the tree held before, and whether it grows or
        // shrinks, `fill` leaves exactly the tree a fresh one has after
        // marking `0..live` in turn.
        let live = n * per_mille / 1000;
        let mut filled = Fenwick::new(64);
        for pos in old {
            filled.mark(pos);
        }
        filled.fill(n, live);
        let mut marked = Fenwick::new(n);
        for pos in 0..live {
            marked.mark(pos);
        }
        prop_assert_eq!(filled, marked, "n={} live={}", n, live);
    }
}
