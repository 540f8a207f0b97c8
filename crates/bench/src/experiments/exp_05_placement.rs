//! E5 — §Placement Strategies: best-fit, two-ends, and friends.
//!
//! "Once it is decided that some information is to be fetched, then some
//! strategy is needed for deciding where to put the information ... On
//! such systems, careful placement can considerably reduce storage
//! fragmentation." We drive every placement policy (plus the Rice chain
//! and a buddy baseline) with the same allocation/free stream at several
//! load factors and report the costs the paper says the choice trades
//! off: fragmentation, failures, and search ("bookkeeping") length.
//!
//! Pass `--trace-out <path>` to dump the probe event stream of one
//! representative run (best-fit, first size distribution, highest
//! load) as JSONL. `--jobs N` fans the policy rows of each table
//! across N workers; any width prints the same bytes.

use dsa_core::access::AllocEvent;
use dsa_exec::SimGrid;
use dsa_freelist::frag::FragReport;
use dsa_freelist::freelist::{FreeListAllocator, Placement};
use dsa_freelist::rice::RiceAllocator;
use dsa_freelist::segregated::SegregatedAllocator;
use dsa_metrics::table::Table;
use dsa_probe::{JsonlRecorder, Probe, Stamp};
use dsa_telemetry::TelemetryProbe;
use dsa_trace::allocstream::{AllocStreamCfg, SizeDist};
use dsa_trace::rng::Rng64;

use super::trace_out;
use crate::cli::TRACE_OUT;
use crate::{Args, Failure, Report};

const CAPACITY: u64 = 32_768;
const EVENTS: usize = 60_000;

struct Outcome {
    failures: u64,
    utilization: f64,
    ext_frag: f64,
    holes: u64,
    mean_search: f64,
}

fn drive_freelist<P: Probe + ?Sized>(
    policy: Placement,
    events: &[AllocEvent],
    probe: &mut P,
) -> Outcome {
    let mut a = FreeListAllocator::new(CAPACITY, policy);
    let mut failures = 0;
    let mut util_sum = 0.0;
    let mut frag_sum = 0.0;
    let mut hole_sum = 0u64;
    let mut samples = 0u64;
    let mut dropped: std::collections::HashSet<u64> = std::collections::HashSet::new();
    for (i, e) in events.iter().enumerate() {
        let at = Stamp::vtime(i as u64);
        match *e {
            AllocEvent::Alloc(r) => {
                if a.alloc_probed(r.id, r.size, at, probe).is_err() {
                    failures += 1;
                    dropped.insert(r.id);
                }
            }
            AllocEvent::Free { id } => {
                if !dropped.remove(&id) {
                    a.free_probed(id, at, probe).expect("live id");
                }
            }
        }
        if i % 64 == 0 {
            let f = FragReport::capture(&a);
            util_sum += a.utilization();
            frag_sum += f.external_frag;
            hole_sum += f.holes;
            samples += 1;
        }
    }
    Outcome {
        failures,
        utilization: util_sum / samples as f64,
        ext_frag: frag_sum / samples as f64,
        holes: hole_sum / samples,
        mean_search: a.stats().mean_search(),
    }
}

fn drive_rice<P: Probe + ?Sized>(events: &[AllocEvent], probe: &mut P) -> Outcome {
    let mut a = RiceAllocator::new(CAPACITY);
    let mut failures = 0;
    let mut util_sum = 0.0;
    let mut chain_sum = 0u64;
    let mut samples = 0u64;
    let mut dropped: std::collections::HashSet<u64> = std::collections::HashSet::new();
    for (i, e) in events.iter().enumerate() {
        let at = Stamp::vtime(i as u64);
        match *e {
            AllocEvent::Alloc(r) => {
                if a.alloc_probed(r.id, r.size, r.id, at, probe).is_err() {
                    failures += 1;
                    dropped.insert(r.id);
                }
            }
            AllocEvent::Free { id } => {
                if !dropped.remove(&id) {
                    a.free_probed(id, at, probe).expect("live id");
                }
            }
        }
        if i % 64 == 0 {
            util_sum += 1.0 - a.free_words() as f64 / CAPACITY as f64;
            chain_sum += a.chain_len() as u64;
            samples += 1;
        }
    }
    let probes = a.stats().probes as f64;
    let attempts = (a.stats().allocs + a.stats().failures) as f64;
    Outcome {
        failures,
        utilization: util_sum / samples as f64,
        ext_frag: f64::NAN, // chain never coalesces eagerly; holes stand in
        holes: chain_sum / samples,
        mean_search: probes / attempts,
    }
}

fn drive_segregated(events: &[AllocEvent]) -> Outcome {
    let mut a = SegregatedAllocator::power_of_two(CAPACITY, 16, 2048);
    let mut failures = 0;
    let mut util_sum = 0.0;
    let mut samples = 0u64;
    let mut dropped: std::collections::HashSet<u64> = std::collections::HashSet::new();
    for (i, e) in events.iter().enumerate() {
        match *e {
            AllocEvent::Alloc(r) => {
                if a.alloc(r.id, r.size).is_err() {
                    failures += 1;
                    dropped.insert(r.id);
                }
            }
            AllocEvent::Free { id } => {
                if !dropped.remove(&id) {
                    a.free(id).expect("live id");
                }
            }
        }
        if i % 64 == 0 {
            util_sum += 1.0 - a.free_words() as f64 / CAPACITY as f64;
            samples += 1;
        }
    }
    Outcome {
        failures,
        utilization: util_sum / samples as f64,
        ext_frag: f64::NAN,
        holes: 0,
        mean_search: 1.0, // a pop from the class list
    }
}

/// One row of a table: a policy, the Rice chain, or the segregated
/// baseline — an independent simulation over the shared event stream.
#[derive(Clone)]
enum RowKind {
    Policy(Placement),
    Rice,
    Segregated,
}

fn row_for(kind: &RowKind, events: &[AllocEvent]) -> Vec<String> {
    match kind {
        RowKind::Policy(policy) => {
            let mut probe = TelemetryProbe::new();
            let o = drive_freelist(*policy, events, &mut probe);
            vec![
                policy.label().to_owned(),
                o.failures.to_string(),
                format!("{:.1}%", o.utilization * 100.0),
                format!("{:.3}", o.ext_frag),
                o.holes.to_string(),
                format!("{:.1}", o.mean_search),
                probe.search_len().quantile(0.95).to_string(),
            ]
        }
        RowKind::Rice => {
            let mut probe = TelemetryProbe::new();
            let o = drive_rice(events, &mut probe);
            vec![
                "Rice chain".to_owned(),
                o.failures.to_string(),
                format!("{:.1}%", o.utilization * 100.0),
                "n/a".to_owned(),
                o.holes.to_string(),
                format!("{:.1}", o.mean_search),
                probe.search_len().quantile(0.95).to_string(),
            ]
        }
        RowKind::Segregated => {
            let o = drive_segregated(events);
            vec![
                "segregated 2^k".to_owned(),
                o.failures.to_string(),
                format!("{:.1}%", o.utilization * 100.0),
                "n/a".to_owned(),
                "-".to_owned(),
                format!("{:.1}", o.mean_search),
                "1".to_owned(),
            ]
        }
    }
}

pub(super) fn run(args: &Args, rep: &mut Report) -> Result<(), Failure> {
    let trace_path = args.path(TRACE_OUT);
    let jobs = args.jobs();
    for (di, (dist_name, sizes)) in [
        (
            "exponential mean 80",
            SizeDist::Exponential {
                mean: 80.0,
                cap: 2000,
            },
        ),
        (
            "bimodal 16/900 (90% small)",
            SizeDist::Bimodal {
                small: 16,
                large: 900,
                p_small: 0.9,
            },
        ),
    ]
    .into_iter()
    .enumerate()
    {
        for target in [0.70f64, 0.85, 0.95] {
            let cfg = AllocStreamCfg {
                sizes,
                mean_lifetime: 300.0,
                target_live_words: (CAPACITY as f64 * target) as u64,
            };
            let events = cfg.generate(EVENTS, &mut Rng64::new(55));
            // Dump one representative probed run (best-fit, first
            // distribution, highest load) when asked.
            if di == 0 && target == 0.95 {
                if let Some(path) = &trace_path {
                    let mut rec = JsonlRecorder::new(200_000);
                    drive_freelist(Placement::BestFit, &events, &mut rec);
                    trace_out(rep, &rec, path);
                }
            }
            let mut t = Table::new(&[
                "policy",
                "failures",
                "mean util",
                "ext frag",
                "holes",
                "search len",
                "p95 search",
            ])
            .with_title(&format!(
                "{dist_name}, target load {target:.0}%",
                target = target * 100.0
            ));
            let grid = SimGrid::new(vec![
                RowKind::Policy(Placement::FirstFit),
                RowKind::Policy(Placement::NextFit),
                RowKind::Policy(Placement::BestFit),
                RowKind::Policy(Placement::WorstFit),
                RowKind::Policy(Placement::TwoEnds { threshold: 256 }),
                RowKind::Rice,
                RowKind::Segregated,
            ]);
            for row in grid.run(jobs, |_, kind| row_for(kind, &events)) {
                t.row_owned(row);
            }
            rep.table(&format!("dist_{di}_load_{}", (target * 100.0) as u32), t);
        }
    }
    Ok(())
}
