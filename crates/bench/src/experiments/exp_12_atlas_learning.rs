//! E12 — Appendix A.1: the ATLAS learning program in and out of its
//! element.
//!
//! Kilburn's learning program records, per page, the time since last
//! access and the previous duration of inactivity, predicting periodic
//! reuse. On strictly periodic programs (loop nests, cyclic sweeps) the
//! prediction is perfect and the policy matches MIN; as period jitter
//! grows, the learned periods mislead it and LRU closes the gap — the
//! trade Belady's study reported. A second table ablates the "keep one
//! frame vacant" discipline.

use dsa_core::ids::PageNo;
use dsa_exec::SimGrid;
use dsa_metrics::table::Table;
use dsa_paging::paged::PagedMemory;
use dsa_paging::replacement::atlas::AtlasLearning;
use dsa_paging::replacement::registry::{policy_by_index, ATLAS, FIFO};
use dsa_stackdist::{lru_success, opt_success};
use dsa_trace::refstring::RefStringCfg;
use dsa_trace::rng::Rng64;

use crate::{Args, Failure, Report};

const LEN: usize = 50_000;
const FRAMES: usize = 16;

/// A loop nest whose outer-page periods are jittered: each outer touch
/// is displaced with probability `jitter` to a random position in the
/// iteration.
fn jittered_loop(jitter: f64, rng: &mut Rng64) -> Vec<PageNo> {
    let base = RefStringCfg::LoopNest {
        inner: 8,
        outer: 32,
        period: 8,
    }
    .generate_pages(LEN, rng);
    let mut out = base;
    let n = out.len();
    let swaps = (n as f64 * jitter) as usize;
    for _ in 0..swaps {
        let i = rng.below(n as u64) as usize;
        let j = rng.below(n as u64) as usize;
        out.swap(i, j);
    }
    out
}

fn fault_rate(trace: &[PageNo], policy: Box<dyn dsa_paging::replacement::Replacer>) -> f64 {
    let mut mem = PagedMemory::new(FRAMES, policy);
    mem.run_pages(trace).expect("no pinning").fault_rate()
}

pub(super) fn run(args: &Args, rep: &mut Report) -> Result<(), Failure> {
    outln!(rep, "E12: the ATLAS learning program vs period regularity\n");
    let jobs = args.jobs();
    let mut t = Table::new(&[
        "jitter",
        "MIN",
        "ATLAS learning",
        "LRU",
        "FIFO",
        "ATLAS/LRU",
    ])
    .with_title(&format!(
        "loop nest 8 inner + 32 outer pages, {FRAMES} frames"
    ));
    // Each jitter level regenerates its trace from the fixed seed and
    // replays it under all four policies — an independent cell.
    let grid = SimGrid::new(vec![0.0f64, 0.01, 0.05, 0.1, 0.25, 0.5]);
    for row in grid.run(jobs, |_, &jitter| {
        let mut rng = Rng64::new(12);
        let trace = jittered_loop(jitter, &mut rng);
        // MIN and LRU are exact stack policies: one stackdist pass each
        // replaces their machine replays (same fault counts, proven by
        // the parity property tests).
        let min = opt_success(&trace).fault_rate(FRAMES);
        let atlas = fault_rate(&trace, policy_by_index(ATLAS, FRAMES, &trace));
        let lru = lru_success(&trace).fault_rate(FRAMES);
        let fifo = fault_rate(&trace, policy_by_index(FIFO, FRAMES, &trace));
        vec![
            format!("{:.0}%", jitter * 100.0),
            format!("{min:.3}"),
            format!("{atlas:.3}"),
            format!("{lru:.3}"),
            format!("{fifo:.3}"),
            format!("{:.2}", atlas / lru),
        ]
    }) {
        t.row_owned(row);
    }
    rep.table("jitter_sweep", t);

    // Ablation: the vacant-frame reserve. It trades one frame of
    // capacity for having a frame already free at every demand — on
    // ATLAS the fetch could begin a drum revolution earlier.
    let mut t = Table::new(&["trace", "fault rate (plain)", "fault rate (vacant reserve)"])
        .with_title("ablation: keep one frame vacant (ATLAS discipline)");
    let grid = SimGrid::new(vec![
        (
            "loop nest",
            RefStringCfg::LoopNest {
                inner: 8,
                outer: 32,
                period: 8,
            },
        ),
        (
            "lru-stack th=1.0",
            RefStringCfg::LruStack {
                pages: 48,
                theta: 1.0,
            },
        ),
    ]);
    for row in grid.run(jobs, |_, (name, cfg)| {
        let trace = cfg.generate_pages(LEN, &mut Rng64::new(13));
        let plain = {
            let mut m = PagedMemory::new(FRAMES, Box::new(AtlasLearning::new()));
            m.run_pages(&trace).expect("no pinning").fault_rate()
        };
        let reserved = {
            let mut m =
                PagedMemory::new(FRAMES, Box::new(AtlasLearning::new())).with_vacant_reserve();
            m.run_pages(&trace).expect("no pinning").fault_rate()
        };
        vec![
            (*name).to_owned(),
            format!("{plain:.3}"),
            format!("{reserved:.3}"),
        ]
    }) {
        t.row_owned(row);
    }
    rep.table("vacant_reserve", t);
    outln!(rep,
        "at zero jitter the learning program tracks MIN exactly — the\n\
         periods it learns are the truth — while LRU, fooled by cyclic\n\
         reuse, faults on every outer page. as jitter grows the learned\n\
         periods go stale and the advantage erodes toward parity. the\n\
         vacant reserve costs a small, roughly constant fault-rate premium\n\
         (one frame's worth) in exchange for zero allocation delay at\n\
         fault time — the latency win is what mattered on the drum."
    );
    Ok(())
}
