//! E18 — the concurrent allocation service: mean search against shard
//! count (extension).
//!
//! The paper's machines allocate on one thread; the service front-end
//! (`dsa-arena`) is what happens when the taxonomy has to serve
//! traffic. This experiment drives it the way the other experiments
//! drive machines: a deterministic workload, every count reconciled.
//! Four workers' pre-generated churn streams go through
//! `ArenaService`'s door while the shard count of the variable-size
//! arena is swept — the concurrency analogue of E5's placement sweep —
//! and then through the lock-free `FixedSlab` itself, the uniform-unit
//! endpoint (Blelloch & Wei: constant-time concurrent alloc/free, no
//! locks at all).
//!
//! The shard sweep, the two probe intervals and the per-shard
//! telemetry replay the four streams on one thread in one fixed
//! interleaving — one request of each in turn — as E19's grid cells
//! are replays, so the free-list hole pattern behind mean search is a
//! function of the seed. The concurrent runs, one worker thread per
//! stream, print only what any interleaving prints: the op and success
//! counts, books that reconcile exactly, and a drained arena.

use dsa_arena::{ArenaError, ArenaService, FixedSlab, ShardedArena};
use dsa_freelist::Placement;
use dsa_metrics::table::Table;
use dsa_probe::{CountingProbe, Stamp};
use dsa_telemetry::{FlightRecorder, HeatFrame, HeatmapSampler};

use crate::cli::FLIGHT_RECORDER;
use crate::report::yes;
use crate::workloads::{churn, drive, Churn, Op, Tally, LOCAL_BITS};
use crate::{Args, Failure, Report};

/// Client threads of the concurrent runs, and streams of the replay.
const WORKERS: u64 = 4;
/// The shard counts of the sweep; the intervals and the concurrent
/// striped run use the last.
const SHARD_SWEEP: [u32; 4] = [1, 2, 4, 8];
/// Total striped-arena capacity, split across however many shards.
const TOTAL_WORDS: u64 = 1 << 20;
/// Slab geometry: uniform 64-word units.
const SLAB_UNITS: u32 = 1 << 14;
const UNIT_WORDS: u64 = 64;

/// The workers' streams through the striped arena: 40,000 requests of
/// 8–127 words each, at most 256 live, plus the drain tail.
const STRIPED: Churn = Churn {
    seed: 0xE18_0000,
    ops: 40_000,
    live: 16..256,
    words: 120,
};
/// The same streams cut to fit one slab unit.
const SLAB: Churn = Churn {
    words: UNIT_WORDS - 8,
    ..STRIPED
};

/// The streams as one fixed interleaving: one request of each in turn,
/// a drained stream skipped.
fn interleaved(streams: &[Vec<Op>]) -> impl Iterator<Item = Op> + '_ {
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest).flat_map(move |i| streams.iter().filter_map(move |s| s.get(i).copied()))
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

fn exact(books: bool) -> String {
    if books { "exact" } else { "MISMATCH" }.to_owned()
}

/// Whether the service's arena drained to nothing, its invariants
/// checked.
fn drained(svc: &ArenaService) -> bool {
    let arena = svc.arena();
    arena.check_invariants();
    arena.snapshot().allocated_words() == 0
}

pub(super) fn run(args: &Args, rep: &mut Report) -> Result<(), Failure> {
    outln!(rep, "E18: concurrent allocation service — scaling with shard count\n");
    outln!(rep,
        "{WORKERS} workers x {} ops; striped arena capacity \
         {TOTAL_WORDS} words total (constant across shard counts)",
        STRIPED.ops
    );
    outln!(rep,
        "the shard sweep, the intervals and the per-shard telemetry replay the\n\
         {WORKERS} streams on one thread, one request of each in turn; the concurrent\n\
         runs print only what every interleaving prints\n"
    );

    // Part 1: variable units — the sharded free-list arena, replayed.
    let streams = STRIPED.streams(WORKERS);
    let total_ops: usize = streams.iter().map(Vec::len).sum();
    let mut t = Table::new(&[
        "shards",
        "ops",
        "ok allocs",
        "failed",
        "steals",
        "mean search",
        "books",
    ])
    .with_title("striped variable-size arena (first-fit shards, overflow stealing)");
    for shards in SHARD_SWEEP {
        let svc = ArenaService::striped(shards, TOTAL_WORDS / u64::from(shards));
        let tally = churn(&svc, 0, interleaved(&streams), None);
        assert!(drained(&svc), "drained streams leave nothing live");
        let snap = svc.arena().snapshot();
        t.row_owned(vec![
            shards.to_string(),
            total_ops.to_string(),
            tally.allocs.to_string(),
            tally.failed.to_string(),
            snap.steals.to_string(),
            format!("{:.2}", snap.stats().mean_search()),
            exact(reconciled(&svc, &tally)),
        ]);
    }
    rep.table("striped_sweep", t);

    // Part 1b: the always-on telemetry, inspected. One more service at
    // the largest shard count, replayed for two rounds; between rounds
    // the shared probe's delta is what a production scraper would chart
    // per interval.
    let shards = SHARD_SWEEP[SHARD_SWEEP.len() - 1];
    let svc = ArenaService::striped(shards, TOTAL_WORDS / u64::from(shards));
    let mut prev = CountingProbe::new();
    for round in 0..2u32 {
        churn(&svc, 0, interleaved(&streams), None);
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
        churn(&small, 0, [op], None);
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

    // Part 2: the same traffic on worker threads, one per stream. The
    // striped service runs at the largest shard count; the slab runs
    // the unit-sized streams, a worker keeping each live id's unit in a
    // vector indexed by the id's place in its stream. Neither can fail
    // a request (both hold several times the most the streams keep
    // live), so every cell below is the same at any interleaving.
    let mut t = Table::new(&["target", "ops", "ok allocs", "failed", "books", "drained"])
        .with_title(&format!("concurrent runs ({WORKERS} workers, verdicts only)"));
    let svc = ArenaService::striped(shards, TOTAL_WORDS / u64::from(shards));
    let tally = drive(&streams, |_, stream| {
        churn(&svc, 0, stream.iter().copied(), None)
    })
    .into_iter()
    .fold(Tally::default(), Tally::add);
    t.row_owned(vec![
        format!("striped, {shards} shards"),
        total_ops.to_string(),
        tally.allocs.to_string(),
        tally.failed.to_string(),
        exact(reconciled(&svc, &tally)),
        yes(drained(&svc)).to_owned(),
    ]);
    let slab_streams = SLAB.streams(WORKERS);
    let slab = FixedSlab::new(SLAB_UNITS, UNIT_WORDS);
    let tally = drive(&slab_streams, |_, stream| {
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
    })
    .into_iter()
    .fold(Tally::default(), Tally::add);
    slab.check_invariants();
    let stats = slab.stats();
    t.row_owned(vec![
        format!("lock-free slab, {SLAB_UNITS} x {UNIT_WORDS} words"),
        slab_streams.iter().map(Vec::len).sum::<usize>().to_string(),
        tally.allocs.to_string(),
        tally.failed.to_string(),
        exact(stats.allocs == tally.allocs && stats.frees == tally.frees),
        yes(slab.live_units() == 0).to_owned(),
    ]);
    rep.table("concurrent_verdicts", t);
    outln!(rep,
        "shards cut the placement search (home-shard hashing spreads ids), at\n\
         the price of steals once a shard fills; the slab needs no locks at\n\
         all — the uniform unit removes the placement search, so a\n\
         version-tagged CAS is the whole operation."
    );
    Ok(())
}
