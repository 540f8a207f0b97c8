//! E10 — §Name Space: symbolic versus linearly segmented bookkeeping.
//!
//! "One does not need to search a dictionary for a group of available
//! contiguous segment names, and more importantly, one does not have to
//! reallocate names when the dictionary has become fragmented ... A
//! symbolically segmented name space consequently involves far less
//! bookkeeping than a linearly segmented name space."
//!
//! Both dictionary kinds serve the same churn of programs attaching and
//! detaching blocks of segment names, at rising occupancy of the number
//! space. The symbolic dictionary pays one operation per name and can
//! never fail while names remain; the linear dictionary additionally
//! searches for contiguous ranges and, when its number space fragments,
//! renumbers live programs — on a real machine that means finding and
//! updating every stored reference to the moved segment numbers.

use dsa_exec::SimGrid;
use dsa_metrics::table::Table;
use dsa_seg::names::{LinearSegDict, SymbolicDict};
use dsa_trace::rng::Rng64;

use crate::{Args, Failure, Report};

const CAPACITY: u32 = 4096;
const OPS: usize = 30_000;

pub(super) fn run(args: &Args, rep: &mut Report) -> Result<(), Failure> {
    let mut t = Table::new(&[
        "target occupancy",
        "dict",
        "bookkeeping ops",
        "names reallocated",
        "failures",
        "ops per attach",
    ])
    .with_title(&format!(
        "{CAPACITY} segment numbers, programs of 2-64 segments"
    ));
    // Each occupancy level builds its own schedule from a fixed seed and
    // replays it against both dictionaries — an independent cell that
    // returns its two finished table rows.
    let grid = SimGrid::new(vec![0.5f64, 0.7, 0.85, 0.95]);
    let rows = grid.run(args.jobs(), |_, &occupancy| {
        let target = (CAPACITY as f64 * occupancy) as u32;
        // Build one attach/detach schedule, replayed against both
        // dictionaries.
        let mut rng = Rng64::new(10);
        let mut live: Vec<(u32, u32)> = Vec::new(); // (program, count)
        let mut live_names = 0u32;
        let mut next_prog = 0u32;
        let mut schedule: Vec<(bool, u32, u32)> = Vec::new(); // (attach, prog, count)
        for _ in 0..OPS {
            if live_names < target || live.is_empty() {
                let count = rng.range(2, 64) as u32;
                schedule.push((true, next_prog, count));
                live.push((next_prog, count));
                live_names += count;
                next_prog += 1;
            } else {
                let idx = rng.below(live.len() as u64) as usize;
                let (prog, count) = live.swap_remove(idx);
                schedule.push((false, prog, count));
                live_names -= count;
            }
        }

        let mut sym = SymbolicDict::new(CAPACITY);
        let mut lin = LinearSegDict::new(CAPACITY);
        let mut attaches = 0u64;
        for &(attach, prog, count) in &schedule {
            if attach {
                attaches += 1;
                sym.attach(prog, count);
                lin.attach(prog, count);
            } else {
                sym.detach(prog);
                lin.detach(prog);
            }
        }
        [("symbolic", sym.stats()), ("linear", lin.stats())].map(|(name, stats)| {
            vec![
                format!("{:.0}%", occupancy * 100.0),
                name.to_owned(),
                stats.bookkeeping_ops.to_string(),
                stats.names_reallocated.to_string(),
                stats.failures.to_string(),
                format!("{:.1}", stats.bookkeeping_ops as f64 / attaches as f64),
            ]
        })
    });
    for pair in rows {
        for row in pair {
            t.row_owned(row);
        }
    }
    rep.table("name_spaces", t);
    Ok(())
}
