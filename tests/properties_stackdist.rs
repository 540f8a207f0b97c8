//! Parity between the one-pass stack-distance engine and the
//! `PagedMemory` simulator: for the stack policies (LRU and MIN), the
//! success function's fault count at **every** frame count must equal a
//! per-size simulation, fault for fault, on every reference-string
//! regime the experiments use. This is the license for experiments
//! E4/E6/E12 to draw whole Belady curves from a single traversal.

use dsa::core::ids::PageNo;
use dsa::paging::paged::PagedMemory;
use dsa::paging::{LruRepl, MinRepl};
use dsa::stackdist::{lru_distances, opt_distances, StackDistances};
use dsa::trace::refstring::RefStringCfg;
use dsa::trace::rng::Rng64;
use proptest::prelude::*;

const LEN: usize = 3_000;

/// Every regime experiment E4 sweeps, parameterized the same way.
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

fn simulated_faults(trace: &[PageNo], frames: usize, min: bool) -> u64 {
    let policy: Box<dyn dsa::paging::Replacer> = if min {
        Box::new(MinRepl::new(trace))
    } else {
        Box::new(LruRepl::new())
    };
    let mut mem = PagedMemory::new(frames, policy);
    mem.run_pages(trace).expect("no pinning").faults
}

/// Frame counts probed for a trace: every size up to one past the
/// distinct-page count (beyond which only compulsory faults remain).
fn frame_counts(trace: &[PageNo]) -> Vec<usize> {
    let distinct = trace.iter().collect::<std::collections::HashSet<_>>().len();
    (1..=distinct + 1).collect()
}

proptest! {
    #[test]
    fn lru_success_function_matches_per_size_simulation(
        regime_idx in 0usize..6,
        seed in 0u64..200,
    ) {
        let trace = regime(regime_idx).generate_pages(LEN, &mut Rng64::new(seed));
        let success = lru_distances(&trace).success();
        for frames in frame_counts(&trace) {
            prop_assert_eq!(
                success.faults(frames),
                simulated_faults(&trace, frames, false),
                "LRU regime {} seed {} at {} frames",
                regime_idx,
                seed,
                frames
            );
        }
    }

    #[test]
    fn min_success_function_matches_per_size_simulation(
        regime_idx in 0usize..6,
        seed in 0u64..200,
    ) {
        let trace = regime(regime_idx).generate_pages(LEN, &mut Rng64::new(seed));
        let success = opt_distances(&trace).success();
        for frames in frame_counts(&trace) {
            prop_assert_eq!(
                success.faults(frames),
                simulated_faults(&trace, frames, true),
                "MIN regime {} seed {} at {} frames",
                regime_idx,
                seed,
                frames
            );
        }
    }

    #[test]
    fn fault_positions_match_the_simulator_fault_stream(
        regime_idx in 0usize..6,
        frames in 2usize..20,
        seed in 0u64..100,
    ) {
        // Positions, not just counts: the probed latency column of E4
        // replays these into the same probe the simulator feeds.
        let trace = regime(regime_idx).generate_pages(LEN, &mut Rng64::new(seed));
        for min in [false, true] {
            let distances: StackDistances = if min {
                opt_distances(&trace)
            } else {
                lru_distances(&trace)
            };
            let policy: Box<dyn dsa::paging::Replacer> = if min {
                Box::new(MinRepl::new(&trace))
            } else {
                Box::new(LruRepl::new())
            };
            let mut mem = PagedMemory::new(frames, policy);
            let mut sim_faults = Vec::new();
            for (i, &page) in trace.iter().enumerate() {
                let out = mem.touch(page, false, i as u64).expect("no pinning");
                if out.is_fault() {
                    sim_faults.push(i as u64);
                }
            }
            let one_pass: Vec<u64> = distances.fault_times(frames).collect();
            prop_assert_eq!(
                one_pass,
                sim_faults,
                "policy {} regime {} seed {} at {} frames",
                if min { "MIN" } else { "LRU" },
                regime_idx,
                seed,
                frames
            );
        }
    }

    #[test]
    fn random_traces_also_agree(
        raw in prop::collection::vec(0u64..30, 1..800),
        frames in 1usize..32,
    ) {
        let trace: Vec<PageNo> = raw.into_iter().map(PageNo).collect();
        prop_assert_eq!(
            lru_distances(&trace).success().faults(frames),
            simulated_faults(&trace, frames, false)
        );
        prop_assert_eq!(
            opt_distances(&trace).success().faults(frames),
            simulated_faults(&trace, frames, true)
        );
    }
}
