//! Host-cost hot paths: what the simulator pays in wall-clock, as
//! distinct from the modeled costs it reports.
//!
//! Two inner loops dominate every sweep's wall-clock:
//!
//! * variable-unit placement — best-fit/worst-fit must *choose* a hole
//!   on every allocation (the modeled search length the paper cares
//!   about is reported separately by `FreeListStats`);
//! * whole fault-rate *curves* — the experiments want faults at every
//!   core size, and replaying the machine once per size multiplies the
//!   victim-selection cost by the number of sizes. The `belady_curve`
//!   group races that replay loop against one `dsa-stackdist` pass
//!   (exact same fault counts, property-tested). Victim selection on
//!   its own is priced by the `benchmark/` package
//!   (`paging.replay_ns_per_ref.*`, `paging.streamed_ns_per_ref`).
//!
//! The workloads here are sized so the structures being searched are
//! large (thousands of holes, hundreds of frames): the regime the
//! finite-size-scaling sweeps need. Results are recorded across PRs in
//! `BENCH_03.json` and `BENCH_04.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dsa_core::access::AllocEvent;
use dsa_core::ids::PageNo;
use dsa_freelist::freelist::{FreeListAllocator, Placement};
use dsa_paging::paged::PagedMemory;
use dsa_paging::replacement::lru::LruRepl;
use dsa_paging::replacement::min::MinRepl;
use dsa_stackdist::{lru_distances, opt_distances};
use dsa_trace::allocstream::{AllocStreamCfg, SizeDist};
use dsa_trace::refstring::RefStringCfg;
use dsa_trace::rng::Rng64;

const CAPACITY: u64 = 1 << 18;
const ALLOC_EVENTS: usize = 120_000;

/// Replays an allocation/free stream, dropping frees of failed
/// requests, exactly as experiment E5 does.
fn replay(policy: Placement, events: &[AllocEvent]) -> u64 {
    let mut a = FreeListAllocator::new(CAPACITY, policy);
    let mut dropped: std::collections::HashSet<u64> = std::collections::HashSet::new();
    for e in events {
        match *e {
            AllocEvent::Alloc(r) => {
                if a.alloc(r.id, r.size).is_err() {
                    dropped.insert(r.id);
                }
            }
            AllocEvent::Free { id } => {
                if !dropped.remove(&id) {
                    a.free(id).expect("live id");
                }
            }
        }
    }
    a.stats().probes
}

/// Best-fit and worst-fit on a hole-rich heap: small exponential
/// requests at high load keep thousands of holes live, so the
/// per-allocation hole choice is the hot path.
fn alloc_churn(c: &mut Criterion) {
    let cfg = AllocStreamCfg {
        sizes: SizeDist::Exponential {
            mean: 32.0,
            cap: 2000,
        },
        mean_lifetime: 4000.0,
        target_live_words: (CAPACITY as f64 * 0.95) as u64,
    };
    let events = cfg.generate(ALLOC_EVENTS, &mut Rng64::new(7));
    let mut g = c.benchmark_group("alloc_churn");
    for policy in [Placement::BestFit, Placement::WorstFit, Placement::FirstFit] {
        g.bench_with_input(
            BenchmarkId::from_parameter(policy.label()),
            &events,
            |b, events| b.iter(|| replay(policy, events)),
        );
    }
    g.finish();
}

/// The first-fit *search* isolated: an alloc/free pair against a field
/// of ~1024 small splinter holes that the request does not fit, so the
/// linear scan walks all of them and first-fit skips every block of the
/// hole table whose largest hole is too small. `TwoEnds {threshold:
/// u64::MAX}` routes every request through its bottom-up scan —
/// operationally identical to first-fit's linear scan and still in the
/// tree — so the baseline and the block-skipping path can be raced in
/// one binary on the same workload (the pair's placement, and the heap
/// it leaves behind, are identical under both).
fn first_fit_search(c: &mut Criterion) {
    fn fragmented(policy: Placement) -> FreeListAllocator {
        let mut a = FreeListAllocator::new(CAPACITY, policy);
        for id in 0..2048u64 {
            a.alloc(id, 64).expect("setup fits");
        }
        for id in (0..2048u64).step_by(2) {
            a.free(id).expect("just allocated");
        }
        a
    }
    let mut g = c.benchmark_group("first_fit_search");
    g.bench_function("linear_scan", |b| {
        let mut a = fragmented(Placement::TwoEnds {
            threshold: u64::MAX,
        });
        let mut id = 1u64 << 32;
        b.iter(|| {
            id += 1;
            let addr = a.alloc(id, 128).expect("large hole fits");
            a.free(id).expect("just allocated");
            addr
        })
    });
    g.bench_function("block_maxes", |b| {
        let mut a = fragmented(Placement::FirstFit);
        let mut id = 1u64 << 32;
        b.iter(|| {
            id += 1;
            let addr = a.alloc(id, 128).expect("large hole fits");
            a.free(id).expect("just allocated");
            addr
        })
    });
    g.finish();
}

/// The whole faults-vs-size curve, the E4 way: one replay per frame
/// count versus one stack-distance traversal. The workload mirrors E4's
/// first trace (60 000 LRU-stack references over 64 pages) and the
/// frame counts are E4's columns.
fn belady_curve(c: &mut Criterion) {
    const REFS: usize = 60_000;
    const FRAME_COUNTS: [usize; 5] = [8, 16, 24, 32, 48];
    let trace: Vec<PageNo> = RefStringCfg::LruStack {
        pages: 64,
        theta: 0.9,
    }
    .generate_pages(REFS, &mut Rng64::new(4_000));
    let mut g = c.benchmark_group("belady_curve");
    g.bench_function("lru_per_size", |b| {
        b.iter(|| {
            FRAME_COUNTS
                .iter()
                .map(|&frames| {
                    let mut m = PagedMemory::new(frames, Box::new(LruRepl::new()));
                    m.run_pages(&trace).expect("no pinning").faults
                })
                .sum::<u64>()
        })
    });
    g.bench_function("lru_stackdist", |b| {
        b.iter(|| {
            lru_distances(&trace)
                .success()
                .curve(&FRAME_COUNTS)
                .iter()
                .sum::<u64>()
        })
    });
    g.bench_function("min_per_size", |b| {
        b.iter(|| {
            FRAME_COUNTS
                .iter()
                .map(|&frames| {
                    let mut m = PagedMemory::new(frames, Box::new(MinRepl::new(&trace)));
                    m.run_pages(&trace).expect("no pinning").faults
                })
                .sum::<u64>()
        })
    });
    g.bench_function("min_stackdist", |b| {
        b.iter(|| {
            opt_distances(&trace)
                .success()
                .curve(&FRAME_COUNTS)
                .iter()
                .sum::<u64>()
        })
    });
    g.finish();
}

criterion_group!(
    name = hotpath;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = alloc_churn, first_fit_search, belady_curve
);
criterion_main!(hotpath);
