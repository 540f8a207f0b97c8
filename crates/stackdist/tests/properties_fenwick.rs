//! The one LRU pass — `StreamingLru`'s rank bitmap over compacted
//! stamps, which `lru_distances` runs over a materialized trace —
//! against a naive O(n²) explicit LRU stack, on random, regime-drawn,
//! adversarial (cyclic-sweep), growing-universe and thousand-page
//! reference strings: the distance vector must agree element for
//! element. Traces run past the minimum of 128 stamps, so compaction is
//! exercised; the rank bitmap itself is checked against a plain set.

use dsa_core::ids::PageNo;
use dsa_stackdist::{lru_distances, Fenwick, StreamingLru, INFINITE};
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

/// What `StreamingLru::record` returns for each reference of `trace`.
fn streamed(trace: &[PageNo]) -> Vec<u64> {
    let mut lru = StreamingLru::new();
    trace.iter().map(|&p| lru.record(p)).collect()
}

/// The reference-string regimes the replacement experiments sweep, at
/// most 24 distinct pages each.
fn regime(index: usize) -> RefStringCfg {
    match index {
        0 => RefStringCfg::Uniform { pages: 24 },
        1 => RefStringCfg::LruStack {
            pages: 24,
            theta: 0.9,
        },
        2 => RefStringCfg::WorkingSetPhases {
            pages: 24,
            set: 6,
            phase_len: 150,
        },
        3 => RefStringCfg::SequentialSweep { pages: 18 },
        4 => RefStringCfg::LoopNest {
            inner: 4,
            outer: 12,
            period: 4,
        },
        _ => RefStringCfg::HotCold {
            hot: 4,
            cold: 20,
            p_hot: 0.9,
        },
    }
}

/// A pseudo-random string of `len` references over `pages` pages.
fn xorshift_pages(len: usize, pages: u64) -> Vec<PageNo> {
    let mut x = 12345u64;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            PageNo(x % pages)
        })
        .collect()
}

#[test]
fn per_reference_distances_match_the_explicit_stack() {
    let trace: Vec<PageNo> = [1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5]
        .into_iter()
        .map(PageNo)
        .collect();
    assert_eq!(streamed(&trace), naive_distances(&trace));
}

/// Faults in a memory of `frames` frames: the references whose stack
/// distance exceeds it.
fn faults(distances: &[u64], frames: usize) -> u64 {
    distances.iter().filter(|&&d| d > frames as u64).count() as u64
}

#[test]
fn success_function_matches_the_explicit_stack_across_compactions() {
    // Long enough to force many compactions at the minimum capacity.
    let trace = xorshift_pages(10_000, 97);
    let want = naive_distances(&trace);
    let deepest = want.iter().filter(|&&d| d != INFINITE).max().copied();
    let mut s = StreamingLru::new();
    for &p in &trace {
        s.record(p);
    }
    let got = s.success();
    assert_eq!(got.references(), trace.len() as u64);
    let first_touches = want.iter().filter(|&&d| d == INFINITE).count();
    assert_eq!(got.compulsory(), first_touches as u64);
    assert_eq!(got.saturation_frames() as u64, deepest.unwrap_or(0));
    for c in 0..=got.saturation_frames() + 2 {
        assert_eq!(got.faults(c), faults(&want, c), "at {c} frames");
    }
}

#[test]
fn mid_stream_curve_is_exact_for_the_prefix() {
    let trace = xorshift_pages(300, 9);
    let mut s = StreamingLru::new();
    for (i, &p) in trace.iter().enumerate() {
        s.record(p);
        let want = naive_distances(&trace[..=i]);
        let sizes = [1, 2, 3, 4, 9];
        let curve: Vec<u64> = sizes.iter().map(|&c| faults(&want, c)).collect();
        assert_eq!(
            s.success().curve(&sizes),
            curve,
            "after {} references",
            i + 1
        );
    }
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
    fn fenwick_prefix_matches_a_set(
        words in 3usize..8,
        tail in 1usize..64,
        ops in prop::collection::vec((0usize..1 << 20, any::<bool>()), 0..600),
    ) {
        // Rank bookkeeping against a plain set: a position is marked or
        // not, so only unmarked positions are marked and only marked ones
        // cleared, in arbitrary interleaving, over at least three words
        // and a last word that is only partly in range. Every step reads
        // the count up to the position it touched; the end reads all.
        let n = words * 64 + tail;
        let mut tree = Fenwick::new(n);
        let mut marked = vec![false; n];
        for (raw, set) in ops {
            let pos = raw % n;
            if set && !marked[pos] {
                tree.mark(pos);
            } else if !set && marked[pos] {
                tree.clear(pos);
            } else {
                continue;
            }
            marked[pos] = set;
            let want = marked[..=pos].iter().filter(|&&m| m).count() as u64;
            prop_assert_eq!(tree.prefix(pos), want, "prefix at {} after an op", pos);
        }
        let mut running = 0;
        for (pos, &m) in marked.iter().enumerate() {
            running += u64::from(m);
            prop_assert_eq!(tree.prefix(pos), running, "prefix at {}", pos);
        }
        prop_assert_eq!(tree.prefix(n + 100), running);
    }

    #[test]
    fn linear_fill_equals_marking_one_position_at_a_time(
        old in prop::collection::vec(0usize..200, 0..100),
        n in 0usize..600,
        per_mille in 0usize..1001,
    ) {
        // Whatever the set held before, and whether it grows or
        // shrinks, `fill` leaves exactly the set a fresh one has after
        // marking `0..live` in turn.
        let live = n * per_mille / 1000;
        let mut filled = Fenwick::new(200);
        let mut held = [false; 200];
        for pos in old {
            if !std::mem::replace(&mut held[pos], true) {
                filled.mark(pos);
            }
        }
        filled.fill(n, live);
        let mut marked = Fenwick::new(n);
        for pos in 0..live {
            marked.mark(pos);
        }
        prop_assert_eq!(filled, marked, "n={} live={}", n, live);
    }

    #[test]
    fn streaming_distances_match_the_explicit_stack(
        regime_idx in 0usize..6,
        seed in 0u64..200,
    ) {
        // At most 24 distinct pages keep the stamp tree at its minimum
        // of 128 positions, so 3,000 references compact it 20+ times.
        let trace = regime(regime_idx).generate_pages(3_000, &mut Rng64::new(seed));
        prop_assert_eq!(
            streamed(&trace),
            naive_distances(&trace),
            "regime {} seed {}",
            regime_idx,
            seed
        );
    }

    #[test]
    fn streaming_distances_match_while_the_universe_grows(
        spread in 2u64..6,
        seed in 0u64..200,
    ) {
        // A cold start touches 64 pages once each. After it, reference
        // `i` may name any of the first `64 + i / spread` pages, so new
        // pages keep arriving and each compaction resizes the stamp
        // tree to twice the live pages, from 128 positions to
        // thousands. Seven references in eight go to the newest 32
        // pages and the eighth to any page, so the oldest stamps stay
        // live across many compactions, and their re-references count
        // across any stamp that compaction kept or renumbered wrongly.
        let mut rng = Rng64::new(seed);
        let trace: Vec<PageNo> = (0..64)
            .map(PageNo)
            .chain((0..6_000u64).map(|i| {
                let pages = 64 + i / spread;
                let reach = if rng.below(8) == 0 { pages } else { 32 };
                PageNo(pages - 1 - rng.below(reach))
            }))
            .collect();
        prop_assert_eq!(streamed(&trace), naive_distances(&trace));
    }

    #[test]
    fn streaming_distances_match_over_thousands_of_pages(
        pages in 2_048u64..5_001,
        seed in 0u64..1_000,
    ) {
        // Thousands of live stamps in a capacity of 64-157 words, so
        // distances count through the upper levels of the word tree,
        // which the small universes above never reach. A cold start touches every page
        // once in scrambled order; then half the references go to any
        // page, at depths up to the whole universe, and half to 16 hot
        // pages. The three universes' worth of references after the
        // cold start compact the stamps more than once at full size.
        let mut rng = Rng64::new(seed);
        let hot: Vec<u64> = (0..16).map(|_| rng.below(pages)).collect();
        let trace: Vec<PageNo> = (0..pages)
            .map(|i| PageNo(i * 2_654_435_761 % pages))
            .chain((0..3 * pages).map(|_| {
                PageNo(match rng.below(2) {
                    0 => rng.below(pages),
                    _ => hot[rng.below(16) as usize],
                })
            }))
            .collect();
        prop_assert_eq!(
            streamed(&trace),
            naive_distances(&trace),
            "{} pages, seed {}",
            pages,
            seed
        );
    }
}
