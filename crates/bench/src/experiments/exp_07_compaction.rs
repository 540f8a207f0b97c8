//! E7 — compaction economics: accept fragmentation, or move information?
//!
//! §Uniformity offers "two main alternative courses of action": accept
//! the decreased storage utilization (reasonable "when the average
//! allocation request ... is quite small compared with the extent of
//! physical storage" — Wald), or "move information around in storage so
//! as to remove any unused spaces". Special hardware facility (iii)
//! exists because the second course has a data-movement bill.
//!
//! We push a best-fit allocator to ever higher target loads; whenever a
//! request fails we either drop it (course i) or compact and retry
//! (course ii), pricing each compaction through a programmed copy loop
//! versus an autonomous storage-to-storage channel on a 2 µs core.

use dsa_core::access::AllocEvent;
use dsa_core::clock::Cycles;
use dsa_exec::SimGrid;
use dsa_freelist::compaction::compact;
use dsa_freelist::freelist::{FreeListAllocator, Placement};
use dsa_metrics::table::Table;
use dsa_storage::channel::PackingChannel;
use dsa_trace::allocstream::{AllocStreamCfg, SizeDist};
use dsa_trace::rng::Rng64;

use crate::{Args, Failure, Report};

const CAPACITY: u64 = 32_768;
const EVENTS: usize = 40_000;

fn stream(target: f64, mean_size: f64) -> Vec<AllocEvent> {
    AllocStreamCfg {
        sizes: SizeDist::Exponential {
            mean: mean_size,
            cap: 4000,
        },
        mean_lifetime: 300.0,
        target_live_words: (CAPACITY as f64 * target) as u64,
    }
    .generate(EVENTS, &mut Rng64::new(7))
}

struct RunOut {
    failures: u64,
    compactions: u64,
    words_moved: u64,
    cpu_prog: Cycles,
    cpu_chan: Cycles,
}

fn replay(events: &[AllocEvent], compact_on_failure: bool) -> RunOut {
    let mut a = FreeListAllocator::new(CAPACITY, Placement::BestFit);
    let mut prog = PackingChannel::programmed(Cycles::from_micros(2));
    let mut chan = PackingChannel::autonomous(Cycles::from_micros(2));
    let mut out = RunOut {
        failures: 0,
        compactions: 0,
        words_moved: 0,
        cpu_prog: Cycles::ZERO,
        cpu_chan: Cycles::ZERO,
    };
    let mut dropped: std::collections::HashSet<u64> = std::collections::HashSet::new();
    for e in events {
        match *e {
            AllocEvent::Alloc(r) => {
                if a.alloc(r.id, r.size).is_ok() {
                    continue;
                }
                if compact_on_failure && a.free_words() >= r.size {
                    let report = compact(&mut a, |_, _, _, len| {
                        out.cpu_prog += prog.charge_move(len).0;
                        out.cpu_chan += chan.charge_move(len).0;
                    });
                    out.compactions += 1;
                    out.words_moved += report.words_moved;
                    if a.alloc(r.id, r.size).is_ok() {
                        continue;
                    }
                }
                out.failures += 1;
                dropped.insert(r.id);
            }
            AllocEvent::Free { id } => {
                if !dropped.remove(&id) {
                    a.free(id).expect("live id");
                }
            }
        }
    }
    out
}

pub(super) fn run(args: &Args, rep: &mut Report) -> Result<(), Failure> {
    let jobs = args.jobs();
    for mean_size in [80.0f64, 800.0] {
        let mut t = Table::new(&[
            "target load",
            "failures (accept)",
            "failures (compact)",
            "compactions",
            "words moved",
            "CPU copy-loop",
            "CPU channel",
        ])
        .with_title(&format!(
            "best-fit, 32K words, exponential mean {mean_size:.0}-word requests"
        ));
        // Each target load regenerates its stream from a fixed seed and
        // replays it under both courses of action — an independent cell.
        let grid = SimGrid::new(vec![0.80f64, 0.90, 0.95, 0.98]);
        for row in grid.run(jobs, |_, &target| {
            let events = stream(target, mean_size);
            let accept = replay(&events, false);
            let pack = replay(&events, true);
            vec![
                format!("{:.0}%", target * 100.0),
                accept.failures.to_string(),
                pack.failures.to_string(),
                pack.compactions.to_string(),
                pack.words_moved.to_string(),
                pack.cpu_prog.to_string(),
                pack.cpu_chan.to_string(),
            ]
        }) {
            t.row_owned(row);
        }
        rep.table(&format!("mean_{}", mean_size as u64), t);
    }
    Ok(())
}
