//! E18 — the concurrent allocation service: throughput scaling with
//! shard count (extension).
//!
//! The paper's machines allocate on one thread; the service front-end
//! (`dsa-arena`) is what happens when the taxonomy has to serve
//! traffic. This experiment drives it the way the other experiments
//! drive machines: a deterministic workload, every count reconciled.
//! Worker threads (`std::thread::scope`) push pre-generated churn
//! streams through `ArenaService`'s door and we sweep the shard count
//! of the variable-size arena — the concurrency analogue of E5's
//! placement sweep — then drive the lock-free `FixedSlab` itself as the
//! uniform-unit endpoint (Blelloch & Wei: constant-time concurrent
//! alloc/free, no locks at all).
//!
//! Unlike E1–E17, the rows are *not* independent grid cells: every
//! worker hammers one shared service, which is the entire point. The
//! throughput column is wall-clock (and compresses toward flat on a
//! 1-CPU host), and the interleaving shapes the contention columns —
//! steals, CAS retries — and the free-list hole pattern behind mean
//! search. What does NOT vary: the op and success counts, and the
//! books, which reconcile exactly at any thread count.

use std::time::Instant;

use dsa_arena::{ArenaError, ArenaService, FixedSlab, ShardedArena};
use dsa_freelist::Placement;
use dsa_metrics::table::Table;
use dsa_probe::{CountingProbe, Stamp};
use dsa_telemetry::{FlightRecorder, HeatFrame, HeatmapSampler};
use dsa_trace::rng::Rng64;

use crate::cli::{FlagSpec, FLIGHT_RECORDER, SHARDS};
use crate::{Args, Failure, Report};

/// Ops per worker stream (alloc/free mixed, plus the drain tail).
const OPS_PER_WORKER: usize = 40_000;
/// Total striped-arena capacity, split across however many shards.
const TOTAL_WORDS: u64 = 1 << 20;
/// Slab geometry: uniform 64-word units.
const SLAB_UNITS: u32 = 1 << 14;
const UNIT_WORDS: u64 = 64;

/// Bits of an id below its worker's namespace.
const LOCAL_BITS: u32 = 40;

/// The `--jobs N` flag here: the client threads driving the service.
pub(super) const WORKERS: FlagSpec = FlagSpec {
    name: "--jobs",
    value: Some("N"),
    help: "worker threads driving the service, largest slab sweep point (default: 4)",
};

/// The sweep axis of the scaling sections: powers of two `1, 2, 4, …`
/// below `max`, then `max` itself. Empty when `max` is zero.
fn doubling_sweep(max: usize) -> Vec<usize> {
    let powers = std::iter::successors(Some(1), |n| Some(n * 2)).take_while(|&n| n < max);
    powers.chain((max > 0).then_some(max)).collect()
}

/// One request of a worker stream.
#[derive(Clone, Copy)]
enum Op {
    Alloc { id: u64, words: u64 },
    Free { id: u64 },
}

/// One worker's deterministic churn stream: grow a bounded live set,
/// free random members, drain at the end. Ids are namespaced by worker
/// so streams never collide, and count up from 0 inside it.
fn worker_stream(worker: u64, max_words: u64) -> Vec<Op> {
    let mut rng = Rng64::new(0xE18_0000 + worker);
    let mut live: Vec<u64> = Vec::new();
    let mut next = 0u64;
    let mut out = Vec::with_capacity(OPS_PER_WORKER + 300);
    for _ in 0..OPS_PER_WORKER {
        let grow = live.len() < 16 || (live.len() < 256 && rng.next_u64() % 100 < 55);
        if grow {
            let id = (worker << LOCAL_BITS) | next;
            next += 1;
            let words = 8 + rng.next_u64() % max_words;
            out.push(Op::Alloc { id, words });
            live.push(id);
        } else {
            let i = (rng.next_u64() as usize) % live.len();
            out.push(Op::Free {
                id: live.swap_remove(i),
            });
        }
    }
    out.extend(live.into_iter().map(|id| Op::Free { id }));
    out
}

/// Per-worker answer tallies, for reconciliation against the shared
/// books.
#[derive(Default)]
struct Tally {
    allocs: u64,
    alloc_words: u64,
    frees: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, op: Op, ok: bool) {
        match (op, ok) {
            (Op::Alloc { words, .. }, true) => {
                self.allocs += 1;
                self.alloc_words += words;
            }
            (Op::Free { .. }, true) => self.frees += 1,
            (_, false) => self.failed += 1,
        }
    }

    fn add(mut self, other: Tally) -> Tally {
        self.allocs += other.allocs;
        self.alloc_words += other.alloc_words;
        self.frees += other.frees;
        self.failed += other.failed;
        self
    }
}

/// One request through the service, untenanted; whether it succeeded.
fn serve(svc: &ArenaService, op: Op) -> bool {
    match op {
        Op::Alloc { id, words } => svc.alloc(id, words, 0).is_ok(),
        Op::Free { id } => svc.free(id).is_ok(),
    }
}

/// Runs every stream on its own scoped worker and returns (elapsed
/// seconds, summed tallies).
fn drive(streams: &[Vec<Op>], worker: impl Fn(&[Op]) -> Tally + Sync) -> (f64, Tally) {
    let start = Instant::now();
    let tally = std::thread::scope(|scope| {
        let workers: Vec<_> = streams
            .iter()
            .map(|stream| scope.spawn(|| worker(stream)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("a worker panicked"))
            .fold(Tally::default(), Tally::add)
    });
    (start.elapsed().as_secs_f64(), tally)
}

/// Pushes every stream through the service's door.
fn drive_service(svc: &ArenaService, streams: &[Vec<Op>]) -> (f64, Tally) {
    drive(streams, |stream| {
        let mut t = Tally::default();
        for &op in stream {
            t.record(op, serve(svc, op));
        }
        t
    })
}

/// Exact books check: the shared atomic sink vs the workers' own
/// tallies. Any interleaving that loses or double-counts an operation
/// shows up here. The workers can't see freed sizes (a free carries no
/// word count), but the streams drain fully, so freed words must equal
/// requested words.
fn reconciled(svc: &ArenaService, t: &Tally) -> bool {
    let c = svc.counters();
    c.allocs == t.allocs
        && c.frees == t.frees
        && c.alloc_words == t.alloc_words
        && c.freed_words == t.alloc_words
}

pub(super) fn run(args: &Args, rep: &mut Report) -> Result<(), Failure> {
    // Workers are a workload parameter (clients of the service), not a
    // grid fan-out: default 4 even on narrow hosts, `--jobs` overrides.
    let workers = args.count(WORKERS).unwrap_or(4);
    let max_shards = args.count(SHARDS).unwrap_or(8);
    outln!(rep, "E18: concurrent allocation service — scaling with shard count\n");
    outln!(rep,
        "{workers} workers x {OPS_PER_WORKER} ops; striped arena capacity \
         {TOTAL_WORDS} words total (constant across shard counts)"
    );
    outln!(rep,
        "counts reconcile exactly at any thread count; Mops/s is wall-clock\n\
         (flat on a 1-CPU host) and the interleaving-shaped columns — mean\n\
         search, steals, cas retries — vary run to run\n"
    );

    // Part 1: variable units — the sharded free-list arena.
    let shard_counts: Vec<u32> = doubling_sweep(max_shards)
        .into_iter()
        .map(|s| s as u32)
        .collect();
    let streams: Vec<Vec<Op>> = (0..workers as u64).map(|w| worker_stream(w, 120)).collect();
    let total_ops: usize = streams.iter().map(Vec::len).sum();

    let mut t = Table::new(&[
        "shards",
        "ops",
        "ok allocs",
        "failed",
        "steals",
        "mean search",
        "books",
        "Mops/s",
    ])
    .with_title("striped variable-size arena (first-fit shards, overflow stealing)");
    for &shards in &shard_counts {
        let svc = ArenaService::striped(shards, TOTAL_WORDS / u64::from(shards));
        let (elapsed, tally) = drive_service(&svc, &streams);
        let arena = svc.arena();
        arena.check_invariants();
        let snap = arena.snapshot();
        assert_eq!(
            snap.allocated_words(),
            0,
            "drained streams leave nothing live"
        );
        t.row_owned(vec![
            shards.to_string(),
            total_ops.to_string(),
            tally.allocs.to_string(),
            tally.failed.to_string(),
            snap.steals.to_string(),
            format!("{:.2}", snap.stats().mean_search()),
            if reconciled(&svc, &tally) {
                "exact"
            } else {
                "MISMATCH"
            }
            .to_owned(),
            format!("{:.2}", total_ops as f64 / elapsed / 1e6),
        ]);
    }
    rep.table("striped_sweep", t);

    // Part 1b: the always-on telemetry, inspected. One more service at
    // the largest shard count, driven for two rounds; between rounds
    // the shared probe's delta is the per-interval rate a production
    // scraper would chart.
    let shards = *shard_counts.last().expect("the sweep has a shard count");
    let svc = ArenaService::striped(shards, TOTAL_WORDS / u64::from(shards));
    let mut prev = CountingProbe::new();
    for round in 0..2u32 {
        let (elapsed, _) = drive_service(&svc, &streams);
        let interval = svc.probe().delta(&prev);
        prev = svc.probe().snapshot();
        let label = round.to_string();
        let labels: &[(&str, &str)] = &[("round", &label)];
        rep.metrics.counter(
            "interval_allocs_total",
            "Successful allocations in the scrape interval",
            labels,
            interval.allocs,
        );
        rep.metrics.counter(
            "interval_frees_total",
            "Frees in the scrape interval",
            labels,
            interval.frees,
        );
        rep.metrics.gauge(
            "interval_alloc_rate_mops",
            "Allocation rate over the scrape interval (millions/s)",
            labels,
            interval.allocs as f64 / elapsed.max(1e-9) / 1e6,
        );
        outln!(rep,
            "interval {round} ({shards} shards): {} allocs, {} frees, \
             {} searched holes",
            interval.allocs, interval.frees, interval.alloc_searched
        );
    }
    outln!(rep);

    // Per-shard distributions from the service's sharded atomic
    // histograms: where the placement searches actually went.
    let tel = svc.telemetry();
    let mut t = Table::new(&[
        "shard",
        "allocs",
        "search p50",
        "search p90",
        "search p99",
        "search max",
        "alloc words p50",
        "alloc words p99",
    ])
    .with_title(&format!(
        "per-shard telemetry after 2 rounds ({shards} shards)"
    ));
    for s in 0..shards {
        let search = tel.shard_search(s);
        let words = tel.shard_alloc_words(s);
        t.row_owned(vec![
            s.to_string(),
            words.count().to_string(),
            search.quantile(0.5).to_string(),
            search.quantile(0.9).to_string(),
            search.quantile(0.99).to_string(),
            search.max().to_string(),
            words.quantile(0.5).to_string(),
            words.quantile(0.99).to_string(),
        ]);
    }
    rep.table("shard_telemetry", t);
    tel.export_into(&mut rep.metrics);

    // Fragmentation heatmap: a deterministic single-threaded replay of
    // one worker's stream against a small 4-shard arena, the global
    // hole map sampled every 4096 ops.
    let small = ArenaService::striped(4, 8192);
    let arena = small.arena();
    let mut sampler = HeatmapSampler::new(4096, 64);
    for (i, &op) in streams[0].iter().enumerate() {
        serve(&small, op);
        let vt = i as u64;
        if sampler.due(vt) {
            sampler.push(HeatFrame::capture(
                vt,
                arena.capacity(),
                arena.hole_map().into_iter(),
                sampler.buckets(),
            ));
        }
    }
    outln!(rep,
        "{}",
        sampler.render("striped arena fragmentation (1 worker, 4 shards x 8192 words)")
    );
    for frame in sampler.frames() {
        let vt = frame.vtime.to_string();
        rep.metrics.gauge(
            "heatmap_occupied_fraction",
            "Occupied fraction of the striped arena at the sampled instant",
            &[("vt", &vt)],
            frame.occupied_fraction(),
        );
    }

    // Exhaustion postmortem: a deliberately tiny arena filled until the
    // allocator returns Exhausted, with a flight recorder on the probe.
    // The recorder is always on here; `--flight-recorder N` resizes it.
    let recorder =
        FlightRecorder::new(args.count(FLIGHT_RECORDER).unwrap_or(64));
    let mut handle = recorder.handle();
    let tiny = ShardedArena::new(2, 256, Placement::FirstFit);
    let mut id = 0u64;
    let exhausted = loop {
        match tiny.alloc_probed(id, 48, Stamp::vtime(id), &mut handle) {
            Ok(_) => id += 1,
            Err(e @ ArenaError::Exhausted { .. }) => break e,
            Err(e) => unreachable!("only exhaustion can stop the fill: {e}"),
        }
    };
    outln!(rep, "exhaustion postmortem ({exhausted}):");
    outln!(rep, "{}", recorder.postmortem(12));

    // Part 2: uniform units — the lock-free slab itself, swept over
    // workers. A worker keeps each live id's unit in a vector indexed by
    // the id's place in its stream; the unit is the grain, so every
    // request fits one.
    let mut t = Table::new(&[
        "workers",
        "ops",
        "ok allocs",
        "failed",
        "cas retries",
        "books",
        "Mops/s",
    ])
    .with_title(&format!(
        "lock-free fixed-size slab ({SLAB_UNITS} units x {UNIT_WORDS} words)"
    ));
    for w in doubling_sweep(workers.max(1)) {
        let slab_streams: Vec<Vec<Op>> = (0..w as u64)
            .map(|i| worker_stream(i, UNIT_WORDS - 8))
            .collect();
        let ops: usize = slab_streams.iter().map(Vec::len).sum();
        let slab = FixedSlab::new(SLAB_UNITS, UNIT_WORDS);
        let (elapsed, tally) = drive(&slab_streams, |stream| {
            let mut t = Tally::default();
            let mut units: Vec<Option<u32>> = Vec::new();
            for &op in stream {
                let ok = match op {
                    Op::Alloc { .. } => {
                        units.push(slab.alloc().ok().map(|u| u.unit));
                        units.last().is_some_and(Option::is_some)
                    }
                    Op::Free { id } => {
                        let local = (id & ((1 << LOCAL_BITS) - 1)) as usize;
                        units[local].is_some_and(|unit| slab.free(unit).is_ok())
                    }
                };
                t.record(op, ok);
            }
            t
        });
        slab.check_invariants();
        assert_eq!(slab.live_units(), 0, "drained streams leave nothing live");
        let stats = slab.stats();
        t.row_owned(vec![
            w.to_string(),
            ops.to_string(),
            tally.allocs.to_string(),
            tally.failed.to_string(),
            (stats.cas_attempts - (stats.allocs + stats.frees)).to_string(),
            if stats.allocs == tally.allocs && stats.frees == tally.frees {
                "exact"
            } else {
                "MISMATCH"
            }
            .to_owned(),
            format!("{:.2}", ops as f64 / elapsed / 1e6),
        ]);
    }
    rep.table("slab_sweep", t);
    outln!(rep,
        "shards cut lock conflicts (home-shard hashing spreads ids), at the\n\
         price of steals once a shard fills; the slab needs no locks at all —\n\
         the uniform unit removes the placement search, so a version-tagged\n\
         CAS is the whole operation, and retries stand in for contention."
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubling_sweep_covers_powers_of_two_and_the_max() {
        assert_eq!(doubling_sweep(0), Vec::<usize>::new());
        assert_eq!(doubling_sweep(1), vec![1]);
        assert_eq!(doubling_sweep(8), vec![1, 2, 4, 8]);
        assert_eq!(doubling_sweep(6), vec![1, 2, 4, 6]);
        assert_eq!(doubling_sweep(13), vec![1, 2, 4, 8, 13]);
    }
}
