//! E4 — the replacement-strategy study (Belady \[1\], §Replacement
//! Strategies).
//!
//! Fault rate of every fixed-allocation policy against core size, on
//! reference strings spanning the regimes the paper and Belady discuss:
//! program-like locality (LRU-stack), phase behaviour (working sets),
//! cyclic sweeps (LRU's nemesis), strict loop nests (the ATLAS learning
//! program's home), and uniform random (the control where nothing
//! helps). MIN is the unbeatable offline bound.
//!
//! The stack policies (MIN, LRU — see
//! `dsa_paging::replacement::registry::is_exact_stack`) get their whole
//! faults-vs-size curve from **one** `dsa-stackdist` traversal per
//! trace instead of one replay per frame count; the per-reference
//! distances also reproduce the fault stream at the probed size, so the
//! percentile column comes from the same pass. Non-stack policies keep
//! their per-size runs. Output is byte-identical either way — parity is
//! property-tested in `tests/properties_stackdist.rs`.
//!
//! Pass `--trace-out <path>` to dump the probe event stream of one
//! representative run (LRU on the first trace, 24 frames) as JSONL.

use dsa_exec::SimGrid;
use dsa_metrics::table::Table;
use dsa_paging::paged::PagedMemory;
use dsa_paging::replacement::lru::LruRepl;
use dsa_paging::replacement::registry::{
    is_exact_stack, policy_by_index, policy_count, policy_label, MIN,
};
use dsa_probe::{EventKind, JsonlRecorder, Probe, Stamp};
use dsa_stackdist::{lru_distances, opt_distances};
use dsa_telemetry::TelemetryProbe;
use dsa_trace::refstring::RefStringCfg;
use dsa_trace::rng::Rng64;

use super::trace_out;
use crate::cli::TRACE_OUT;
use crate::{Args, Failure, Report};

const LEN: usize = 60_000;

/// Frame count at which the percentile-latency column is measured.
const PROBED_FRAMES: usize = 24;

/// One cell of the simulation grid.
#[derive(Clone, Copy)]
enum Cell {
    /// An exact stack policy: the whole curve from one stackdist pass.
    Curve { policy: usize },
    /// One `(frames, policy)` replay for the non-stack policies.
    PerSize { frames: usize, policy: usize },
}

/// What a cell yields.
enum Measured {
    Curve { rates: Vec<f64>, p95: u64 },
    PerSize { rate: f64, p95: Option<u64> },
}

pub(super) fn run(args: &Args, rep: &mut Report) -> Result<(), Failure> {
    let trace_path = args.path(TRACE_OUT);
    let jobs = args.jobs();
    let traces: Vec<(&str, RefStringCfg)> = vec![
        (
            "lru-stack th=0.9",
            RefStringCfg::LruStack {
                pages: 64,
                theta: 0.9,
            },
        ),
        (
            "working-set 12/600",
            RefStringCfg::WorkingSetPhases {
                pages: 64,
                set: 12,
                phase_len: 600,
            },
        ),
        ("sweep 40", RefStringCfg::SequentialSweep { pages: 40 }),
        (
            "loop-nest 8+32/8",
            RefStringCfg::LoopNest {
                inner: 8,
                outer: 32,
                period: 8,
            },
        ),
        ("uniform 64", RefStringCfg::Uniform { pages: 64 }),
        (
            "hot-cold 8/56 p=.9",
            RefStringCfg::HotCold {
                hot: 8,
                cold: 56,
                p_hot: 0.9,
            },
        ),
    ];
    for (ti, (tname, cfg)) in traces.into_iter().enumerate() {
        let trace = cfg.generate_pages(LEN, &mut Rng64::new(4_000));
        let mut t = Table::new(&[
            "policy",
            "8 frames",
            "16",
            "24",
            "32",
            "48",
            "p95 inter-fault @24",
        ])
        .with_title(&format!("trace: {tname} ({LEN} refs)"));
        let frame_counts = [8usize, 16, 24, 32, 48];
        let mut rates = vec![Vec::new(); policy_count()];
        let mut p95_inter_fault = vec![0u64; policy_count()];
        // Stack policies are one cell per trace (the size axis collapses
        // into a single stackdist pass); every non-stack (frame count,
        // policy) pair stays an independent replay of the shared trace.
        let mut cells: Vec<Cell> = (0..policy_count())
            .filter(|&i| is_exact_stack(i))
            .map(|policy| Cell::Curve { policy })
            .collect();
        for &frames in &frame_counts {
            for policy in (0..policy_count()).filter(|&i| !is_exact_stack(i)) {
                cells.push(Cell::PerSize { frames, policy });
            }
        }
        let grid = SimGrid::new(cells);
        let measured = grid.run(jobs, |_, &cell| match cell {
            Cell::Curve { policy } => {
                let distances = if policy == MIN {
                    opt_distances(&trace)
                } else {
                    lru_distances(&trace)
                };
                // Replaying the probed size's fault positions through
                // the same probe the simulator feeds reproduces the
                // percentile column exactly.
                let mut probe = TelemetryProbe::new();
                for vt in distances.fault_times(PROBED_FRAMES) {
                    probe.emit(EventKind::Fault, Stamp::vtime(vt));
                }
                Measured::Curve {
                    rates: distances.success().rate_curve(&frame_counts),
                    p95: probe.inter_fault_gap().quantile(0.95),
                }
            }
            Cell::PerSize { frames, policy } => {
                let mut mem = PagedMemory::new(frames, policy_by_index(policy, frames, &trace));
                if frames == PROBED_FRAMES {
                    let mut probe = TelemetryProbe::new();
                    let stats = mem
                        .run_pages_probed(&trace, &mut probe)
                        .expect("no pinning");
                    Measured::PerSize {
                        rate: stats.fault_rate(),
                        p95: Some(probe.inter_fault_gap().quantile(0.95)),
                    }
                } else {
                    let stats = mem.run_pages(&trace).expect("no pinning");
                    Measured::PerSize {
                        rate: stats.fault_rate(),
                        p95: None,
                    }
                }
            }
        });
        for (&cell, m) in grid.cells().iter().zip(measured) {
            match (cell, m) {
                (Cell::Curve { policy }, Measured::Curve { rates: curve, p95 }) => {
                    rates[policy] = curve;
                    p95_inter_fault[policy] = p95;
                }
                (Cell::PerSize { policy, .. }, Measured::PerSize { rate, p95 }) => {
                    rates[policy].push(rate);
                    if let Some(p) = p95 {
                        p95_inter_fault[policy] = p;
                    }
                }
                _ => unreachable!("cell and measurement kinds always pair"),
            }
        }
        // Dump one representative probed run (LRU on the first trace)
        // when asked; the recorder keeps the trace tail.
        if ti == 0 {
            if let Some(path) = &trace_path {
                let mut rec = JsonlRecorder::new(200_000);
                let mut mem = PagedMemory::new(PROBED_FRAMES, Box::new(LruRepl::new()));
                mem.run_pages_probed(&trace, &mut rec).expect("no pinning");
                trace_out(rep, &rec, path);
            }
        }
        for (i, row_rates) in rates.iter().enumerate() {
            let mut row = vec![policy_label(i).to_owned()];
            row.extend(row_rates.iter().map(|r| format!("{:.3}", r)));
            row.push(format!("{} refs", p95_inter_fault[i]));
            t.row_owned(row);
        }
        rep.table(&format!("trace_{ti}"), t);
    }
    Ok(())
}
