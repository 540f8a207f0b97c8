//! E14 — §Fetch Strategies, the multi-level question.
//!
//! "An additional complexity in fetch strategies arises when there are
//! several levels of working storage, all directly accessible to the
//! processor. In such circumstances there is the problem of whether a
//! given item should be fetched to a higher storage level, since this
//! will be worthwhile only if the item is going to be used frequently."
//!
//! We build hierarchies of two directly addressable levels (a fast
//! scratchpad / thin-film store over main core, in several speed
//! ratios) and compute, for a range of block sizes, the break-even
//! number of uses beyond which promotion pays — then check the
//! prediction against a simulated access stream.

use dsa_core::clock::Cycles;
use dsa_exec::SimGrid;
use dsa_metrics::table::Table;
use dsa_storage::hierarchy::Hierarchy;
use dsa_storage::level::{LevelKind, LevelSpec};

use crate::{Args, Failure, Report};

fn level(name: &str, cycle_ns: u64, capacity: u64) -> LevelSpec {
    LevelSpec {
        name: name.into(),
        kind: LevelKind::Core,
        capacity,
        latency: Cycles::from_nanos(cycle_ns),
        word_time: Cycles::from_nanos(cycle_ns),
    }
}

pub(super) fn run(args: &Args, rep: &mut Report) -> Result<(), Failure> {
    outln!(rep, "E14: promotion between directly addressable storage levels\n");
    let mut t = Table::new(&[
        "fast/slow cycle",
        "block 8",
        "block 64",
        "block 512",
        "block 4096",
    ])
    .with_title("break-even uses for promotion (uses needed to repay the move)");
    // Each speed ratio builds its own hierarchy — an independent cell.
    let grid = SimGrid::new(vec![
        (200u64, 2_000u64),
        (500, 2_000),
        (1_000, 8_000),
        (200, 8_000),
    ]);
    for row in grid.run(args.jobs(), |_, &(fast_ns, slow_ns)| {
        let h = Hierarchy::new(vec![
            level("fast", fast_ns, 4_096),
            level("slow", slow_ns, 1 << 20),
        ])
        .expect("valid hierarchy");
        let mut row = vec![format!("{fast_ns} ns / {slow_ns} ns")];
        for block in [8u64, 64, 512, 4096] {
            let n = h
                .break_even_uses(1, 0, block)
                .expect("fast level is faster");
            row.push(n.to_string());
        }
        row
    }) {
        t.row_owned(row);
    }
    rep.table("break_even", t);

    // Check the arithmetic against a simulated stream: an item of 64
    // words used k times, with and without promotion, on the 200/2000
    // hierarchy.
    let h = Hierarchy::new(vec![
        level("fast", 200, 4_096),
        level("slow", 2_000, 1 << 20),
    ])
    .expect("valid hierarchy");
    let block = 64u64;
    let break_even = h.break_even_uses(1, 0, block).expect("faster level");
    let mut t = Table::new(&["uses", "stay in slow", "promote first", "winner"]).with_title(
        &format!("simulated total time, 64-word item (break-even = {break_even})"),
    );
    for uses in [
        break_even / 2,
        break_even - 1,
        break_even,
        break_even + 1,
        break_even * 2,
    ] {
        let stay = h.levels()[1].access_time() * uses;
        let promote = h.transfer(1, 0, block) + h.levels()[0].access_time() * uses;
        let winner = if promote < stay {
            "promote"
        } else if promote == stay {
            "tie"
        } else {
            "stay"
        };
        t.row_owned(vec![
            uses.to_string(),
            stay.to_string(),
            promote.to_string(),
            winner.to_owned(),
        ]);
    }
    rep.table("simulated", t);
    outln!(rep,
        "the break-even count scales linearly with block size and shrinks\n\
         as the speed gap widens: promoting a 4K block into a scratchpad\n\
         only pays for items used thousands of times, which is why such\n\
         levels hold index words and descriptors (the B8500's 44-word\n\
         store) rather than data pages."
    );
    Ok(())
}
