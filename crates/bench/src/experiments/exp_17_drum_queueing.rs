//! E17 — inside the fetch time: drum queue scheduling (extension).
//!
//! Experiments E2 and E16 price every page fetch at a flat latency —
//! the paper's own abstraction. This extension opens the box: an
//! ATLAS-scale sector drum serving queues of page requests under FIFO
//! versus shortest-latency-time-first order. With deep queues, SLTF
//! streams sectors and the *effective* per-page latency collapses —
//! the "extra page transmission" capacity whose absence E2's
//! one-channel table showed saturating multiprogramming's rescue.

use dsa_core::clock::Cycles;
use dsa_exec::SimGrid;
use dsa_metrics::sparkline::labelled_sparkline;
use dsa_metrics::table::Table;
use dsa_storage::drum::{DrumDiscipline, SectorDrum};
use dsa_trace::rng::Rng64;

use crate::{Args, Failure, Report};

/// One grid cell: a queue depth and its pre-drawn request batches,
/// each `(sector requests, queue-arrival instant)`.
type DepthCell = (usize, Vec<(Vec<u64>, Cycles)>);

pub(super) fn run(args: &Args, rep: &mut Report) -> Result<(), Failure> {
    outln!(rep, "E17: FIFO vs shortest-latency-first drum queueing\n");
    let drum = SectorDrum::atlas();
    outln!(rep,
        "drum: {} sectors of {} words, {} per revolution ({} per sector)\n",
        drum.sectors(),
        drum.words_per_sector(),
        Cycles::from_millis(12),
        drum.sector_time()
    );

    let mut rng = Rng64::new(17);
    let mut t = Table::new(&[
        "queue depth",
        "FIFO mean wait",
        "SLTF mean wait",
        "FIFO makespan",
        "SLTF makespan",
        "SLTF speedup",
    ])
    .with_title("random page sectors, all requests queued at once (100 batches averaged)");
    let mut curve = Vec::new();
    const BATCHES: u64 = 100;
    // The single RNG stream threads through the depths in order, so the
    // request batches are drawn sequentially (cheap); the drum
    // simulations over them are the independent cells.
    let cells: Vec<DepthCell> = [1usize, 2, 4, 8, 16, 32]
        .into_iter()
        .map(|depth| {
            let batches = (0..BATCHES)
                .map(|_| {
                    let reqs: Vec<u64> = (0..depth).map(|_| rng.below(drum.sectors())).collect();
                    let start = Cycles::from_nanos(rng.below(12_000_000));
                    (reqs, start)
                })
                .collect();
            (depth, batches)
        })
        .collect();
    let grid = SimGrid::new(cells);
    for (speedup, row) in grid.run(args.jobs(), |_, (depth, batches)| {
        let mut fifo_wait = 0u64;
        let mut sltf_wait = 0u64;
        let mut fifo_span = 0u64;
        let mut sltf_span = 0u64;
        for (reqs, start) in batches {
            fifo_wait += drum
                .mean_wait(reqs, *start, DrumDiscipline::Fifo)
                .as_nanos();
            sltf_wait += drum
                .mean_wait(reqs, *start, DrumDiscipline::Sltf)
                .as_nanos();
            fifo_span += drum
                .service(reqs, *start, DrumDiscipline::Fifo)
                .1
                .as_nanos();
            sltf_span += drum
                .service(reqs, *start, DrumDiscipline::Sltf)
                .1
                .as_nanos();
        }
        let speedup = fifo_span as f64 / sltf_span as f64;
        (
            speedup,
            vec![
                depth.to_string(),
                Cycles::from_nanos(fifo_wait / BATCHES).to_string(),
                Cycles::from_nanos(sltf_wait / BATCHES).to_string(),
                Cycles::from_nanos(fifo_span / BATCHES).to_string(),
                Cycles::from_nanos(sltf_span / BATCHES).to_string(),
                format!("{speedup:.2}x"),
            ],
        )
    }) {
        curve.push(speedup);
        t.row_owned(row);
    }
    rep.table("drum_queueing", t);
    outln!(rep,
        "{}\n",
        labelled_sparkline("SLTF speedup vs queue depth", &curve)
    );
    outln!(rep,
        "at depth 1 the disciplines are identical (half-revolution mean\n\
         latency, the paper's 6 ms); as the queue deepens, FIFO keeps\n\
         paying it per request while SLTF picks whatever sector comes\n\
         next and approaches one sector-time per page — queue depth, not\n\
         rotation speed, sets a loaded drum's effective latency."
    );
    Ok(())
}
