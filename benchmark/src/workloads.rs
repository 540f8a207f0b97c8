//! The seven workloads. Each is a closed loop at fixed work: one
//! caller (two client threads for the heap workloads) repeats an
//! iteration whose inputs derive from the seed alone, so every
//! iteration of a run does the same work and the modeled side repeats
//! bit for bit. Input sizes were calibrated once to about 0.3 s per
//! iteration on a two-core sandbox and are frozen here.
//!
//! Why each exists, and which layers it leaves idle, is in the `why`
//! of `BENCHMARK.json` and in the README.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Barrier, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::layers::{self, subseed, Heap, Machines, Pages, Rng, Telemetry};
use crate::metrics::{Fields, LayerValues};
use crate::spans::{Clock, Total, Tracer};
use crate::stats;

pub const NAMES: [&str; 7] = [
    "replacement_sweep",
    "placement_churn",
    "machine_survey",
    "machine_survey_observed",
    "tenant_sweep",
    "heap_local",
    "heap_handoff",
];

/// What one iteration did.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted, in the workload's own unit.
    pub ops: u64,
    /// Operations whose outcome the workload forbids: an error from a
    /// simulator sized never to error, a null from the heap, or every
    /// operation of a pass whose cross-check failed.
    pub forbidden: u64,
    /// The paper's cost and the operations it is spread over.
    pub model_cost: u64,
    pub model_ops: u64,
    /// The integer fields the digest covers.
    pub fields: Fields,
}

impl Outcome {
    pub fn model_cost_per_op(&self) -> f64 {
        if self.model_ops == 0 {
            0.0
        } else {
            self.model_cost as f64 / self.model_ops as f64
        }
    }
}

/// Span totals of the traced iterations, by span name.
pub struct Traced<'a> {
    pub totals: &'a std::collections::BTreeMap<&'static str, Total>,
    pub iterations: u64,
}

impl Traced<'_> {
    fn total(&self, name: &str) -> Total {
        self.totals.get(name).copied().unwrap_or_default()
    }

    fn ns_per_unit(&self, name: &str) -> f64 {
        self.total(name).ns_per_unit()
    }

    /// Mean milliseconds per iteration spent in spans of this name.
    fn ms_per_iteration(&self, name: &str) -> f64 {
        self.total(name).total_ns as f64 / 1e6 / self.iterations.max(1) as f64
    }
}

pub trait Workload {
    /// One iteration; spans go to `t` while it records.
    fn iterate(&mut self, t: &mut Tracer) -> Outcome;

    /// The cross-checks the experiments already trust that do not fit
    /// inside an iteration, once per run and outside the timed window.
    /// Returns how many failed. Most workloads check everything as
    /// they iterate (`check_invariants`, every reference executed) or
    /// in `finish` (heap reconciliation) and have nothing to add.
    fn cross_check(&mut self, _t: &mut Tracer) -> u64 {
        0
    }

    /// Stops and joins whatever the workload started; no iteration
    /// follows. Returns operations found forbidden only now (a heap
    /// that fails to reconcile once its clients have flushed).
    fn finish(&mut self) -> u64 {
        0
    }

    /// Per-layer values, after `finish`: from the traced iterations'
    /// spans, the last iteration's counts, and the isolation passes
    /// run here.
    fn layers(&mut self, traced: &Traced, last: &Outcome, out: &mut LayerValues);
}

/// Sets workload `name` up from `seed`. `setup` counts the set-ups of
/// this process, for the workloads that need a fresh static per set-up.
pub fn setup(name: &str, seed: u64, setup: usize) -> Option<Box<dyn Workload>> {
    Some(match name {
        "replacement_sweep" => Box::new(ReplacementSweep::new(seed)),
        "placement_churn" => Box::new(PlacementChurn { seed }),
        "machine_survey" => Box::new(MachineSurvey::new(seed, false)),
        "machine_survey_observed" => Box::new(MachineSurvey::new(seed, true)),
        "tenant_sweep" => Box::new(TenantSweep { seed }),
        "heap_local" => Box::new(HeapCrew::start(seed, setup, false)),
        "heap_handoff" => Box::new(HeapCrew::start(seed, setup, true)),
        _ => return None,
    })
}

/// Wall time of `f` in nanoseconds, for the isolation passes.
fn time_ns<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = std::hint::black_box(f());
    (r, start.elapsed().as_nanos() as f64)
}

// ---- 1. replacement_sweep --------------------------------------------------

const SWEEP_REFS: usize = 18_000;
const SWEEP_FRAMES: [usize; 5] = [8, 16, 24, 32, 48];
const STREAM_REFS: usize = 120_000;

const REPLAY_SPANS: [&str; 8] = [
    "paging.replay.min",
    "paging.replay.lru",
    "paging.replay.clock",
    "paging.replay.fifo",
    "paging.replay.class-random",
    "paging.replay.random",
    "paging.replay.atlas",
    "paging.replay.lfu-aged",
];

const REPLAY_FAULT_FIELDS: [&str; 8] = [
    "min_replay_faults",
    "lru_replay_faults",
    "clock_faults",
    "fifo_faults",
    "class_random_faults",
    "random_faults",
    "atlas_faults",
    "lfu_aged_faults",
];

/// One replay of the grid: (reference model, registry policy, frames).
type Cell = (usize, usize, usize);

struct ReplacementSweep {
    seed: u64,
    jobs: usize,
    /// The last iteration's strings and grid results, for the
    /// cross-checks.
    strings: Vec<Pages>,
    grid: Vec<Option<layers::Replay>>,
    curves: Vec<[Vec<u64>; 2]>,
}

impl ReplacementSweep {
    fn new(seed: u64) -> ReplacementSweep {
        ReplacementSweep {
            seed,
            jobs: layers::jobs(),
            strings: Vec::new(),
            grid: Vec::new(),
            curves: Vec::new(),
        }
    }

    fn cells() -> Vec<Cell> {
        let mut cells = Vec::new();
        for model in 0..layers::REF_MODELS {
            for &frames in &SWEEP_FRAMES {
                for policy in 0..layers::POLICIES.len() {
                    if !layers::STACK_POLICIES.contains(&policy) {
                        cells.push((model, policy, frames));
                    }
                }
            }
        }
        cells
    }

    /// Fans the grid's replays over `jobs` workers; each cell reads its
    /// own start and end off the tracer's clock.
    fn run_grid(&self, jobs: usize, clock: Clock) -> Vec<(Option<layers::Replay>, u64, u64)> {
        layers::grid(jobs, Self::cells(), |&(model, policy, frames)| {
            let start = clock.now_ns();
            let replay = layers::replay(&self.strings[model], policy, frames);
            (replay, start, clock.now_ns())
        })
    }
}

impl Workload for ReplacementSweep {
    fn iterate(&mut self, t: &mut Tracer) -> Outcome {
        let mut out = Outcome::default();
        let refs = SWEEP_REFS as u64;
        self.strings.clear();
        self.curves.clear();
        for model in 0..layers::REF_MODELS {
            let seed = subseed(self.seed, model as u64);
            let pages = t.timed("trace.generate", || {
                (layers::generate_pages(model, SWEEP_REFS, seed), refs)
            });
            let lru = t.timed("stackdist.lru", || {
                (layers::stack_curve(&pages, false, &SWEEP_FRAMES), refs)
            });
            let opt = t.timed("stackdist.opt", || {
                (layers::stack_curve(&pages, true, &SWEEP_FRAMES), refs)
            });
            out.ops += 2 * refs;
            out.fields.push("lru_curve_faults", lru.iter().sum());
            out.fields.push("opt_curve_faults", opt.iter().sum());
            self.strings.push(pages);
            self.curves.push([lru, opt]);
        }

        let open = t.enter("exec.grid");
        let results = self.run_grid(self.jobs, t.clock());
        let mut faults = [0u64; 8];
        for (&(_, policy, _), &(replay, start, end)) in Self::cells().iter().zip(&results) {
            t.child(REPLAY_SPANS[policy], start, end, refs);
            out.ops += refs;
            match replay {
                Some(r) => {
                    faults[policy] += r.faults;
                    out.model_cost += r.faults;
                    out.model_ops += r.references;
                }
                None => out.forbidden += refs,
            }
        }
        t.exit(open, results.len() as u64);
        self.grid = results.into_iter().map(|(r, _, _)| r).collect();
        for (policy, &f) in faults.iter().enumerate() {
            if !layers::STACK_POLICIES.contains(&policy) {
                out.fields.push(REPLAY_FAULT_FIELDS[policy], f);
            }
        }

        // The streamed leg: one stream, two consumers that must agree.
        let seed = subseed(self.seed, 100);
        let streamed = STREAM_REFS as u64;
        let machine = t.timed("paging.streamed", || {
            (layers::streamed_replay(seed, STREAM_REFS), streamed)
        });
        let curve = t.timed("stackdist.streaming", || {
            (layers::streamed_curve(seed, STREAM_REFS), streamed)
        });
        out.ops += 2 * streamed;
        match machine {
            Some(m) if m == curve => {
                out.model_cost += m.faults;
                out.model_ops += m.references;
            }
            _ => out.forbidden += 2 * streamed,
        }
        out.fields.push("streamed_references", curve.references);
        out.fields.push("streamed_faults", curve.faults);
        out.fields.push("replayed_references", out.model_ops);
        out.fields.push("replayed_faults", out.model_cost);
        out
    }

    fn cross_check(&mut self, t: &mut Tracer) -> u64 {
        let mut failed = 0;
        // A replay of LRU (and of MIN) must fault exactly as often as
        // the success function says at the same frame count.
        for (pages, curves) in self.strings.iter().zip(&self.curves) {
            for (&policy, curve) in layers::STACK_POLICIES.iter().zip(curves.iter().rev()) {
                for (&frames, &expected) in SWEEP_FRAMES.iter().zip(curve) {
                    let replay = t.timed(REPLAY_SPANS[policy], || {
                        (layers::replay(pages, policy, frames), pages.len())
                    });
                    failed += u64::from(replay.map(|r| r.faults) != Some(expected));
                }
            }
        }
        // One worker must give what two gave.
        let sequential: Vec<_> = self
            .run_grid(1, t.clock())
            .into_iter()
            .map(|(r, _, _)| r)
            .collect();
        failed + u64::from(sequential != self.grid)
    }

    fn layers(&mut self, traced: &Traced, last: &Outcome, out: &mut LayerValues) {
        out.set("trace.gen_ns_per_ref", traced.ns_per_unit("trace.generate"));
        let seed = subseed(self.seed, 100);
        let (_, ns) = time_ns(|| layers::stream_isolated(seed, STREAM_REFS));
        out.set("trace.stream_ns_per_ref", ns / STREAM_REFS as f64);
        let generated = (layers::REF_MODELS * SWEEP_REFS + 2 * STREAM_REFS) as f64;
        out.set("trace.refs_generated", generated);
        out.set(
            "stackdist.lru_ns_per_ref",
            traced.ns_per_unit("stackdist.lru"),
        );
        out.set(
            "stackdist.opt_ns_per_ref",
            traced.ns_per_unit("stackdist.opt"),
        );
        out.set(
            "stackdist.streaming_ns_per_ref",
            traced.ns_per_unit("stackdist.streaming"),
        );
        out.set(
            "stackdist.refs",
            (2 * layers::REF_MODELS * SWEEP_REFS + STREAM_REFS) as f64,
        );
        for (policy, span) in REPLAY_SPANS.iter().enumerate() {
            let name = format!("paging.replay_ns_per_ref.{}", layers::POLICIES[policy]);
            out.set(&name, traced.ns_per_unit(span));
        }
        out.set(
            "paging.streamed_ns_per_ref",
            traced.ns_per_unit("paging.streamed"),
        );
        out.set("paging.refs", last.model_ops as f64);
        out.set("paging.faults", last.model_cost as f64);
        out.set("paging.hit_ratio", 1.0 - last.model_cost_per_op());

        let grid = traced.total("exec.grid");
        let cells: u64 = REPLAY_SPANS
            .iter()
            .enumerate()
            .filter(|(p, _)| !layers::STACK_POLICIES.contains(p))
            .map(|(_, s)| traced.total(s).total_ns)
            .sum();
        out.set("exec.grid_cells", Self::cells().len() as f64);
        out.set("exec.grid_wall_ms", traced.ms_per_iteration("exec.grid"));
        out.set(
            "exec.grid_cpu_ms",
            cells as f64 / 1e6 / traced.iterations.max(1) as f64,
        );
        out.set(
            "exec.parallel_efficiency",
            cells as f64 / (self.jobs as f64 * grid.total_ns.max(1) as f64),
        );
    }
}

// ---- 2. placement_churn ----------------------------------------------------

const CHURN_EVENTS: usize = 60_000;

/// (span, occupancy of capacity, compact on failure).
const PHASES: [(&str, f64, bool); 2] = [
    ("freelist.phase.steady", 0.65, false),
    ("freelist.phase.critical", 0.95, true),
];

const CHURN_SPANS: [&str; 8] = [
    "freelist.churn.first-fit",
    "freelist.churn.next-fit",
    "freelist.churn.best-fit",
    "freelist.churn.worst-fit",
    "freelist.churn.two-ends",
    "freelist.churn.rice",
    "freelist.churn.buddy",
    "freelist.churn.segregated",
];

/// The allocators that search, and so have a modeled cost in probes.
const SEARCHING: std::ops::Range<usize> = 0..6;

struct PlacementChurn {
    seed: u64,
}

impl Workload for PlacementChurn {
    fn iterate(&mut self, t: &mut Tracer) -> Outcome {
        let mut out = Outcome::default();
        let (mut requests, mut failures, mut coalesces, mut moved, mut compactions) =
            (0, 0, 0, 0, 0);
        for (phase, &(span, occupancy, compacting)) in PHASES.iter().enumerate() {
            let seed = subseed(self.seed, phase as u64);
            let events = t.timed("trace.allocgen", || {
                (
                    layers::generate_alloc_events(CHURN_EVENTS, occupancy, seed),
                    CHURN_EVENTS as u64,
                )
            });
            let open = t.enter(span);
            let mut phase_ops = 0;
            for (allocator, churn_span) in CHURN_SPANS.iter().enumerate() {
                let c = t.timed(churn_span, || {
                    let c = layers::churn(allocator, &events, compacting);
                    (c, c.ops)
                });
                phase_ops += c.ops;
                if !c.sound {
                    out.forbidden += c.ops;
                }
                if SEARCHING.contains(&allocator) {
                    out.model_cost += c.probes;
                    out.model_ops += c.requests;
                }
                requests += c.requests;
                failures += c.failures;
                coalesces += c.coalesces;
                moved += c.words_moved;
                compactions += c.compactions;
                note_compaction(t, c);
            }
            t.exit(open, phase_ops);
            out.ops += phase_ops;
        }
        out.fields.push("ops", out.ops);
        out.fields.push("requests", requests);
        out.fields.push("requests_searched", out.model_ops);
        out.fields.push("probes", out.model_cost);
        out.fields.push("failures", failures);
        out.fields.push("coalesces", coalesces);
        out.fields.push("compactions", compactions);
        out.fields.push("words_moved", moved);
        out
    }

    fn layers(&mut self, traced: &Traced, last: &Outcome, out: &mut LayerValues) {
        out.set(
            "trace.allocgen_ns_per_event",
            traced.ns_per_unit("trace.allocgen"),
        );
        out.set(
            "trace.alloc_events_generated",
            (PHASES.len() * CHURN_EVENTS) as f64,
        );
        for (allocator, span) in CHURN_SPANS.iter().enumerate() {
            let name = format!("freelist.ns_per_op.{}", layers::ALLOCATORS[allocator]);
            out.set(&name, traced.ns_per_unit(span));
        }
        out.set("freelist.steady_ns_per_op", traced.ns_per_unit(PHASES[0].0));
        out.set(
            "freelist.critical_ns_per_op",
            traced.ns_per_unit(PHASES[1].0),
        );
        out.set("freelist.probes_per_alloc", last.model_cost_per_op());
        let failures = last.fields.get("failures");
        let requests = last.fields.get("requests");
        out.set("freelist.alloc_failures", failures as f64);
        out.set(
            "freelist.success_ratio",
            1.0 - failures as f64 / requests.max(1) as f64,
        );
        out.set("freelist.coalesces", last.fields.get("coalesces") as f64);
        out.set(
            "freelist.words_moved",
            last.fields.get("words_moved") as f64,
        );
        out.set(
            "freelist.compact_ns_per_word",
            traced.ns_per_unit("freelist.compact"),
        );
    }
}

/// Records the time `layers::churn` spent inside `compact` (read around
/// each call, summed) as one span ending now, counting the words moved.
fn note_compaction(t: &mut Tracer, c: layers::Churn) {
    if c.compactions > 0 {
        let end = t.clock().now_ns();
        t.child(
            "freelist.compact",
            end.saturating_sub(c.compact_ns),
            end,
            c.words_moved,
        );
    }
}

// ---- 3 and 4. machine_survey, machine_survey_observed ----------------------

/// The survey is several programs rather than one: a program's fault
/// rate on the small-core machines swings with the few dozen segment
/// sizes its seed draws, and the sum over programs swings much less,
/// so that seeds give inputs of the same cost.
const SURVEY_PROGRAMS: usize = 12;
const PROGRAM_TOUCHES: usize = 25_000;

const MACHINE_SPANS: [&str; 7] = [
    "machines.run.atlas",
    "machines.run.m44",
    "machines.run.b5000",
    "machines.run.rice",
    "machines.run.b8500",
    "machines.run.multics",
    "machines.run.model67",
];

/// The machines built on the segment store: B5000, Rice, B8500.
const SEGMENTED: [usize; 3] = [2, 3, 4];

/// How a pass over the survey watches the machines.
#[derive(Clone, Copy, PartialEq)]
enum Watch {
    Unwatched,
    NullProbe,
    Counting,
}

struct MachineSurvey {
    observed: bool,
    programs: Vec<layers::Program>,
    program_gen_ns: f64,
    seed: u64,
    /// The last iteration's reports, program by program and machine by
    /// machine, for the cross-checks.
    runs: Vec<Option<layers::MachineRun>>,
}

impl MachineSurvey {
    fn new(seed: u64, observed: bool) -> MachineSurvey {
        let (programs, program_gen_ns) = time_ns(|| {
            (0..SURVEY_PROGRAMS)
                .map(|p| layers::generate_program(PROGRAM_TOUCHES, subseed(seed, p as u64)))
                .collect()
        });
        MachineSurvey {
            observed,
            programs,
            program_gen_ns,
            seed,
            runs: Vec::new(),
        }
    }

    /// Seeded (segment, offset) pairs for the isolation passes.
    fn pairs(&self, n: usize) -> Vec<(u32, u64)> {
        let mut rng = Rng::new(subseed(self.seed, 200));
        (0..n)
            .map(|_| (rng.below(16) as u32, rng.below(512)))
            .collect()
    }

    /// One pass over every program and machine outside the timed
    /// window.
    fn pass(&self, watch: Watch) -> Pass {
        let mut pass = Pass {
            ns: 0.0,
            runs: Vec::new(),
            seen: layers::Counted {
                reconciled: true,
                ..layers::Counted::default()
            },
        };
        for program in &self.programs {
            let mut machines = Machines::build();
            for m in 0..MACHINE_SPANS.len() {
                let (run, took) = time_ns(|| match watch {
                    Watch::Unwatched => machines.run(m, program),
                    Watch::NullProbe => machines.run_unwatched(m, program),
                    Watch::Counting => machines.run_counted(m, program).map(|(run, c)| {
                        pass.seen.events += c.events;
                        pass.seen.map_lookups += c.map_lookups;
                        pass.seen.map_hits += c.map_hits;
                        pass.seen.reconciled &= c.reconciled;
                        run
                    }),
                });
                pass.ns += took;
                pass.runs.push(run);
            }
        }
        pass
    }
}

/// What [`MachineSurvey::pass`] found: nanoseconds inside the runs, the
/// reports, and (when counting) the probes' totals summed.
struct Pass {
    ns: f64,
    runs: Vec<Option<layers::MachineRun>>,
    seen: layers::Counted,
}

const SURVEY_TOUCHES: u64 = (SURVEY_PROGRAMS * PROGRAM_TOUCHES * MACHINE_SPANS.len()) as u64;

impl Workload for MachineSurvey {
    fn iterate(&mut self, t: &mut Tracer) -> Outcome {
        let mut out = Outcome::default();
        let mut telemetry = self.observed.then(Telemetry::start);
        self.runs.clear();
        let mut sum = layers::MachineRun::default();
        let touches = PROGRAM_TOUCHES as u64;
        for program in &self.programs {
            let mut machines = t.timed("machines.build", || (Machines::build(), 1));
            for (machine, span) in MACHINE_SPANS.iter().enumerate() {
                let run = t.timed(span, || {
                    let run = match &mut telemetry {
                        Some(tel) => machines.run_observed(machine, program, tel),
                        None => machines.run(machine, program),
                    };
                    (run, touches)
                });
                out.ops += touches;
                match run {
                    Some(r) => {
                        out.model_cost += r.fetch_cycles + r.map_cycles;
                        out.model_ops += r.touches;
                        sum.touches += r.touches;
                        sum.faults += r.faults;
                        sum.fetched_words += r.fetched_words;
                        sum.writeback_words += r.writeback_words;
                        sum.fetch_cycles += r.fetch_cycles;
                        sum.map_cycles += r.map_cycles;
                        sum.bounds_caught += r.bounds_caught;
                        sum.wild_undetected += r.wild_undetected;
                        sum.alloc_failures += r.alloc_failures;
                    }
                    None => out.forbidden += touches,
                }
                self.runs.push(run);
            }
        }
        for (name, value) in [
            ("touches", sum.touches),
            ("faults", sum.faults),
            ("fetched_words", sum.fetched_words),
            ("writeback_words", sum.writeback_words),
            ("fetch_cycles", sum.fetch_cycles),
            ("map_cycles", sum.map_cycles),
            ("bounds_caught", sum.bounds_caught),
            ("wild_undetected", sum.wild_undetected),
            ("alloc_failures", sum.alloc_failures),
        ] {
            out.fields.push(name, value);
        }
        if let Some(tel) = &telemetry {
            let bytes = t.timed("telemetry.export", || (tel.export() as u64, 1));
            let (events, touches) = tel.events_and_touches();
            // The sink must have seen every touch the reports count.
            if touches != sum.touches {
                out.forbidden += out.ops;
            }
            out.fields.push("events", events);
            out.fields.push("export_bytes", bytes);
        }
        out
    }

    fn cross_check(&mut self, _t: &mut Tracer) -> u64 {
        // CountingProbe totals == MachineReport, and watching changes
        // nothing the report says.
        let pass = self.pass(Watch::Counting);
        u64::from(!pass.seen.reconciled) + u64::from(pass.runs != self.runs)
    }

    fn layers(&mut self, traced: &Traced, last: &Outcome, out: &mut LayerValues) {
        let touches = SURVEY_TOUCHES as f64;
        out.set(
            "trace.program_gen_ns_per_touch",
            self.program_gen_ns / (SURVEY_PROGRAMS * PROGRAM_TOUCHES) as f64,
        );
        let run_ns: Vec<f64> = MACHINE_SPANS
            .iter()
            .map(|s| traced.ns_per_unit(s))
            .collect();
        for (machine, ns) in run_ns.iter().enumerate() {
            let name = format!("machines.run_ns_per_touch.{}", layers::MACHINES[machine]);
            out.set(&name, *ns);
        }
        let watched_ns = run_ns.iter().sum::<f64>() / run_ns.len() as f64;
        let f = |name: &str| last.fields.get(name) as f64;
        out.set("machines.touches", f("touches"));
        out.set("machines.faults", f("faults"));
        out.set("machines.alloc_failures", f("alloc_failures"));
        out.set(
            "mapping.map_cycles_per_touch",
            f("map_cycles") / f("touches"),
        );
        out.set("seg.bounds_caught", f("bounds_caught"));
        out.set(
            "storage.fetch_cycles_per_fault",
            f("fetch_cycles") / f("faults").max(1.0),
        );
        out.set("storage.fetched_words", f("fetched_words"));
        out.set("storage.writeback_words", f("writeback_words"));

        // Isolation passes on seeded inputs of the survey's shape.
        let pairs = self.pairs(400_000);
        let (_, ns) = time_ns(|| layers::translate_isolated(&pairs));
        let translate_ns = ns / pairs.len() as f64;
        out.set("mapping.translate_ns", translate_ns);
        let (_, ns) = time_ns(|| layers::segment_store_isolated(&pairs));
        let store_ns = ns / pairs.len() as f64;
        out.set("seg.store_op_ns", store_ns);
        // What a touch costs beyond the sub-layer it goes through: the
        // segment store under the three segmented machines, a map
        // translation under the four paged ones. An estimate.
        let own: f64 = run_ns
            .iter()
            .enumerate()
            .map(|(machine, ns)| {
                let below = if SEGMENTED.contains(&machine) {
                    store_ns
                } else {
                    translate_ns
                };
                (ns - below).max(0.0)
            })
            .sum();
        out.set("machines.self_ns_per_touch", own / run_ns.len() as f64);

        // The same programs and machines unwatched, through the
        // NullProbe, and through a CountingProbe, in this run.
        let (mut plain, mut null, mut counting) = (0.0, 0.0, 0.0);
        let mut seen = layers::Counted::default();
        for _ in 0..2 {
            plain += self.pass(Watch::Unwatched).ns;
            null += self.pass(Watch::NullProbe).ns;
            let counted = self.pass(Watch::Counting);
            counting += counted.ns;
            seen = counted.seen;
        }
        let (events, lookups, hits) = (
            seen.events as f64,
            seen.map_lookups as f64,
            seen.map_hits as f64,
        );
        out.set("probe.null_overhead_ratio", null / plain);
        out.set("mapping.assoc_hit_ratio", hits / lookups.max(1.0));
        if self.observed {
            let plain_ns = plain / 2.0 / touches;
            out.set("probe.events_emitted", f("events"));
            out.set(
                "probe.counting_ns_per_event",
                ((counting - plain) / 2.0 / events.max(1.0)).max(0.0),
            );
            out.set(
                "telemetry.ns_per_event",
                ((watched_ns - plain_ns) * touches / f("events")).max(0.0),
            );
            out.set("telemetry.overhead_ratio", watched_ns / plain_ns);
            out.set(
                "telemetry.export_ms",
                traced.ns_per_unit("telemetry.export") / 1e6,
            );
            out.set("telemetry.export_bytes", f("export_bytes"));
            let n = 2_000_000;
            let (_, ns) = time_ns(|| layers::flight_record_isolated(n));
            out.set("telemetry.flight_record_ns", ns / n as f64);
        }
    }
}

// ---- 5. tenant_sweep -------------------------------------------------------

const TENANTS: u32 = 6_000;
const TENANT_REFS: u64 = 120;

/// (span, metric suffix, working-set admission).
const ADMISSIONS: [(&str, &str, bool); 2] = [
    ("sched.run.open", "open", false),
    ("sched.run.working-set", "working-set", true),
];

struct TenantSweep {
    seed: u64,
}

impl Workload for TenantSweep {
    fn iterate(&mut self, t: &mut Tracer) -> Outcome {
        let mut out = Outcome::default();
        for &(span, _, working_set) in &ADMISSIONS {
            let population = t.timed("sched.build", || {
                (
                    layers::build_population(TENANTS, TENANT_REFS, working_set, self.seed),
                    u64::from(TENANTS),
                )
            });
            let run = t.timed(span, || {
                let run = layers::run_population(population);
                (run, run.map_or(0, |r| r.references))
            });
            let expected = u64::from(TENANTS) * TENANT_REFS;
            out.ops += expected;
            let Some(r) = run else {
                out.forbidden += expected;
                continue;
            };
            if r.references != expected {
                out.forbidden += expected;
            }
            out.model_cost += r.makespan_cycles;
            out.model_ops += r.references;
            for (name, value) in [
                ("references", r.references),
                ("faults", r.faults),
                ("makespan_cycles", r.makespan_cycles),
                ("cpu_busy_cycles", r.cpu_busy_cycles),
                ("peak_active", r.peak_active),
                ("admissions", r.admissions),
                ("admission_rejects", r.admission_rejects),
                ("deactivations", r.deactivations),
                ("ladder_steps", r.ladder_steps),
            ] {
                out.fields.push(name, value);
            }
        }
        out
    }

    fn layers(&mut self, traced: &Traced, last: &Outcome, out: &mut LayerValues) {
        out.set("sched.build_ms", traced.ms_per_iteration("sched.build"));
        // The fields repeat per admission policy: open first.
        let field = |name: &str, policy: usize| {
            let mut matches = last.fields.0.iter().filter(|(n, _)| *n == name);
            matches.nth(policy).map_or(0.0, |&(_, v)| v as f64)
        };
        let both = |name: &str| field(name, 0) + field(name, 1);
        let mut run_ns = 0.0;
        for (policy, &(span, suffix, _)) in ADMISSIONS.iter().enumerate() {
            out.set(
                &format!("sched.run_ns_per_ref.{suffix}"),
                traced.ns_per_unit(span),
            );
            run_ns += traced.ns_per_unit(span) / ADMISSIONS.len() as f64;
            out.set(
                &format!("sched.cpu_utilization.{suffix}"),
                field("cpu_busy_cycles", policy) / field("makespan_cycles", policy).max(1.0),
            );
        }
        out.set("sched.refs", both("references"));
        out.set("sched.faults", both("faults"));
        out.set("sched.admissions", both("admissions"));
        out.set("sched.admission_rejects", both("admission_rejects"));
        out.set("sched.deactivations", both("deactivations"));
        out.set("sched.ladder_steps", both("ladder_steps"));
        out.set(
            "sched.peak_active",
            field("peak_active", 0).max(field("peak_active", 1)),
        );

        let refs = f64::from(TENANTS) * TENANT_REFS as f64;
        let (_, ns) = time_ns(|| layers::tenant_streams_isolated(TENANTS, TENANT_REFS, self.seed));
        let stream_ns = ns / refs;
        out.set("trace.stream_ns_per_ref", stream_ns);
        out.set("trace.refs_generated", 2.0 * refs);
        let (_, touch_ns) = layers::compact_touch_isolated(TENANTS, TENANT_REFS, 8, self.seed);
        let touch_ns = touch_ns as f64 / refs;
        out.set("paging.compact_touch_ns", touch_ns);
        out.set(
            "sched.self_ns_per_ref",
            (run_ns - stream_ns - touch_ns).max(0.0),
        );
        let (_, ns) = time_ns(|| layers::ws_estimate_isolated(TENANTS, TENANT_REFS, self.seed));
        out.set("sched.ws_estimate_ns_per_tenant", ns / f64::from(TENANTS));
        // Resident bytes a built population adds, per tenant: read
        // around one build, so an estimate at page granularity.
        let before = crate::sys::rss_bytes();
        let population = layers::build_population(TENANTS, TENANT_REFS, true, self.seed);
        let grown = crate::sys::rss_bytes().saturating_sub(before);
        drop(std::hint::black_box(population));
        out.set("sched.bytes_per_tenant", grown as f64 / f64::from(TENANTS));
    }
}

// ---- 6 and 7. heap_local, heap_handoff -------------------------------------

/// The small-size menu of exp_21: one size per region of the ladder.
const SMALL_SIZES: [usize; 12] = [16, 24, 32, 48, 64, 96, 128, 192, 256, 512, 1024, 2048];
/// Live-object window of each `heap_local` thread.
const WINDOW: usize = 512;
/// Operations per latency sample, and blocks per hand-off.
const BATCH: usize = 256;
/// `heap_local`: scripted steps per thread, and passes over the script
/// per iteration.
const LOCAL_STEPS: usize = 1 << 20;
const LOCAL_PASSES: usize = 8;
/// `heap_handoff`: batches per iteration, and batch buffers in flight.
const HANDOFF_BATCHES: usize = 5_120;
const HANDOFF_DEPTH: usize = 8;
/// One hand-off block in this many is large (4–32 KiB).
const LARGE_EVERY: u64 = 8;

/// A block in flight from the producer to the consumer.
struct Block(*mut u8, u32);

// SAFETY: a `Block` is the only handle to a live heap block; sending it
// hands the block over, and the heap behind it is `Sync`.
unsafe impl Send for Block {}

/// What the two client threads and the caller share.
struct Shared {
    heap: Heap,
    start: Barrier,
    done: Barrier,
    stop: AtomicBool,
    tracing: AtomicBool,
    /// The tracer's clock, known from the first iteration on.
    clock: OnceLock<Clock>,
    ops: AtomicU64,
    nulls: AtomicU64,
    bytes: AtomicU64,
    large: AtomicU64,
    /// (start, end, operations) of each thread's part of an iteration.
    parts: Mutex<Vec<(u64, u64, u64)>>,
}

/// What a client thread hands back when it stops.
struct ClientTotals {
    ops: u64,
    batch_ns: Vec<f64>,
}

struct HeapCrew {
    handoff: bool,
    seed: u64,
    shared: Arc<Shared>,
    clients: Vec<JoinHandle<ClientTotals>>,
    /// What the clients handed back and the heap counted, once stopped.
    stopped: Option<(ClientTotals, layers::HeapCounts)>,
}

impl HeapCrew {
    fn start(seed: u64, setup: usize, handoff: bool) -> HeapCrew {
        let shared = Arc::new(Shared {
            heap: Heap::of_setup(setup),
            start: Barrier::new(3),
            done: Barrier::new(3),
            stop: AtomicBool::new(false),
            tracing: AtomicBool::new(false),
            clock: OnceLock::new(),
            ops: AtomicU64::new(0),
            nulls: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            large: AtomicU64::new(0),
            parts: Mutex::new(Vec::new()),
        });
        let clients = if handoff {
            let (full_tx, full_rx) = sync_channel::<Vec<Block>>(HANDOFF_DEPTH);
            let (empty_tx, empty_rx) = sync_channel::<Vec<Block>>(HANDOFF_DEPTH);
            for _ in 0..HANDOFF_DEPTH {
                empty_tx
                    .send(Vec::with_capacity(BATCH))
                    .expect("the ring has room for its own buffers");
            }
            let sizes = handoff_sizes(subseed(seed, 1));
            let (a, b) = (Arc::clone(&shared), Arc::clone(&shared));
            vec![
                std::thread::spawn(move || produce(&a, &sizes, &empty_rx, &full_tx)),
                std::thread::spawn(move || consume(&b, &full_rx, &empty_tx)),
            ]
        } else {
            (0..2)
                .map(|thread| {
                    let shared = Arc::clone(&shared);
                    let script = local_script(subseed(seed, thread));
                    std::thread::spawn(move || churn_locally(&shared, &script))
                })
                .collect()
        };
        HeapCrew {
            handoff,
            seed,
            shared,
            clients,
            stopped: None,
        }
    }
}

/// `heap_local`'s script: each step names a window slot and, if the
/// slot is empty when the step runs, the size to allocate.
fn local_script(seed: u64) -> Vec<u32> {
    let mut rng = Rng::new(seed);
    (0..LOCAL_STEPS)
        .map(|_| {
            let slot = rng.below(WINDOW as u64) as u32;
            let size = rng.below(SMALL_SIZES.len() as u64) as u32;
            slot << 8 | size
        })
        .collect()
}

/// `heap_handoff`'s sizes, one per block of an iteration.
fn handoff_sizes(seed: u64) -> Vec<u32> {
    let mut rng = Rng::new(seed);
    (0..HANDOFF_BATCHES * BATCH)
        .map(|_| {
            if rng.below(LARGE_EVERY) == 0 {
                rng.range(4_096, 32_768) as u32
            } else {
                SMALL_SIZES[rng.below(SMALL_SIZES.len() as u64) as usize] as u32
            }
        })
        .collect()
}

/// The frame every client thread runs: wait for the caller, do one
/// iteration's part, report, wait again; on stop, flush and leave.
fn client(shared: &Shared, mut part: impl FnMut(&mut Vec<f64>, bool) -> u64) -> ClientTotals {
    let mut totals = ClientTotals {
        ops: 0,
        batch_ns: Vec::new(),
    };
    loop {
        shared.start.wait();
        if shared.stop.load(Relaxed) {
            // Without the flush the heap's magazine counters read 0 and
            // the parked blocks stay out of the slabs.
            shared.heap.flush_current_thread();
            return totals;
        }
        let tracing = shared.tracing.load(Relaxed);
        let clock = shared.clock.get().copied();
        let start = clock.map_or(0, Clock::now_ns);
        let ops = part(&mut totals.batch_ns, tracing);
        totals.ops += ops;
        shared.ops.fetch_add(ops, Relaxed);
        if let (true, Some(clock)) = (tracing, clock) {
            let mut parts = shared.parts.lock().expect("no holder panics");
            parts.push((start, clock.now_ns(), ops));
        }
        shared.done.wait();
    }
}

/// Times `f` as one latency sample when `tracing`.
fn sample<R>(batch_ns: &mut Vec<f64>, tracing: bool, f: impl FnOnce() -> R) -> R {
    if !tracing {
        return f();
    }
    let start = Instant::now();
    let r = f();
    batch_ns.push(start.elapsed().as_nanos() as f64);
    r
}

fn churn_locally(shared: &Shared, script: &[u32]) -> ClientTotals {
    let heap = shared.heap;
    let mut window: Vec<Option<(*mut u8, usize)>> = vec![None; WINDOW];
    client(shared, |batch_ns, tracing| {
        let (mut nulls, mut bytes) = (0, 0);
        for _ in 0..LOCAL_PASSES {
            for steps in script.chunks(BATCH) {
                sample(batch_ns, tracing, || {
                    for &step in steps {
                        let slot = (step >> 8) as usize;
                        match window[slot].take() {
                            // SAFETY: the window held the only handle to
                            // this live block of `size` bytes.
                            Some((p, size)) => unsafe { heap.dealloc(p, size) },
                            None => {
                                let size = SMALL_SIZES[(step & 0xff) as usize];
                                let p = heap.alloc(size);
                                if p.is_null() {
                                    nulls += 1;
                                    continue;
                                }
                                // SAFETY: `p` is a live block of at
                                // least one byte; a real mutator
                                // touches what it allocates.
                                unsafe { p.write(slot as u8) };
                                bytes += size as u64;
                                window[slot] = Some((p, size));
                            }
                        }
                    }
                });
            }
        }
        // Empty the window, so every iteration starts from the same
        // state and does the same work.
        let mut drained = 0;
        for (p, size) in window.iter_mut().filter_map(Option::take) {
            // SAFETY: as above.
            unsafe { heap.dealloc(p, size) };
            drained += 1;
        }
        shared.nulls.fetch_add(nulls, Relaxed);
        shared.bytes.fetch_add(bytes, Relaxed);
        (LOCAL_PASSES * script.len()) as u64 + drained
    })
}

fn produce(
    shared: &Shared,
    sizes: &[u32],
    empty: &Receiver<Vec<Block>>,
    full: &SyncSender<Vec<Block>>,
) -> ClientTotals {
    let heap = shared.heap;
    client(shared, |batch_ns, tracing| {
        let (mut ops, mut nulls, mut bytes, mut large) = (0, 0, 0, 0);
        for sizes in sizes.chunks(BATCH) {
            let mut batch = empty.recv().expect("the consumer outlives the iteration");
            sample(batch_ns, tracing, || {
                for &size in sizes {
                    let p = heap.alloc(size as usize);
                    ops += 1;
                    if p.is_null() {
                        nulls += 1;
                        continue;
                    }
                    // SAFETY: `p` is a live block of at least one byte.
                    unsafe { p.write(size as u8) };
                    bytes += u64::from(size);
                    large += u64::from(size as usize > SMALL_SIZES[SMALL_SIZES.len() - 1]);
                    batch.push(Block(p, size));
                }
            });
            full.send(batch)
                .expect("the consumer outlives the iteration");
        }
        shared.nulls.fetch_add(nulls, Relaxed);
        shared.bytes.fetch_add(bytes, Relaxed);
        shared.large.fetch_add(large, Relaxed);
        ops
    })
}

fn consume(
    shared: &Shared,
    full: &Receiver<Vec<Block>>,
    empty: &SyncSender<Vec<Block>>,
) -> ClientTotals {
    let heap = shared.heap;
    client(shared, |batch_ns, tracing| {
        let mut ops = 0;
        for _ in 0..HANDOFF_BATCHES {
            let mut batch = full.recv().expect("the producer outlives the iteration");
            sample(batch_ns, tracing, || {
                for Block(p, size) in batch.drain(..) {
                    // SAFETY: the producer handed this live block of
                    // `size` bytes over and keeps no handle to it.
                    unsafe { heap.dealloc(p, size as usize) };
                    ops += 1;
                }
            });
            empty
                .send(batch)
                .expect("the producer outlives the iteration");
        }
        ops
    })
}

impl HeapCrew {
    /// The workload's request sizes in script order, for the
    /// single-threaded isolation passes.
    fn isolation_sizes(&self) -> Vec<usize> {
        if self.handoff {
            handoff_sizes(subseed(self.seed, 1))
                .into_iter()
                .take(1 << 16)
                .map(|s| s as usize)
                .collect()
        } else {
            local_script(subseed(self.seed, 0))
                .into_iter()
                .take(1 << 16)
                .map(|s| SMALL_SIZES[(s & 0xff) as usize])
                .collect()
        }
    }
}

/// Nanoseconds per alloc/free pair over `sizes`, a batch of [`BATCH`]
/// allocated and then freed at a time.
fn pair_ns(
    sizes: &[usize],
    alloc: impl Fn(usize) -> *mut u8,
    dealloc: impl Fn(*mut u8, usize),
) -> f64 {
    let mut held = Vec::with_capacity(BATCH);
    let (_, ns) = time_ns(|| {
        for sizes in sizes.chunks(BATCH) {
            for &size in sizes {
                let p = alloc(size);
                assert!(!p.is_null(), "the isolation pass was refused {size} bytes");
                held.push((p, size));
            }
            for (p, size) in held.drain(..) {
                dealloc(p, size);
            }
        }
    });
    ns / sizes.len() as f64
}

impl Workload for HeapCrew {
    fn iterate(&mut self, t: &mut Tracer) -> Outcome {
        let s = &self.shared;
        for counter in [&s.ops, &s.nulls, &s.bytes, &s.large] {
            counter.store(0, Relaxed);
        }
        s.tracing.store(t.is_on(), Relaxed);
        s.clock.get_or_init(|| t.clock());
        let open = t.enter("alloc.clients");
        s.start.wait();
        s.done.wait();
        for (start, end, ops) in s.parts.lock().expect("no holder panics").drain(..) {
            t.child("alloc.client", start, end, ops);
        }
        let ops = s.ops.load(Relaxed);
        t.exit(open, ops);
        let mut out = Outcome {
            ops,
            forbidden: s.nulls.load(Relaxed),
            ..Outcome::default()
        };
        out.fields.push("ops", ops);
        out.fields.push("bytes_requested", s.bytes.load(Relaxed));
        out.fields.push("large_blocks", s.large.load(Relaxed));
        out
    }

    fn finish(&mut self) -> u64 {
        self.shared.stop.store(true, Relaxed);
        self.shared.start.wait();
        let mut totals = ClientTotals {
            ops: 0,
            batch_ns: Vec::new(),
        };
        for client in self.clients.drain(..) {
            let t = client.join().expect("a client thread panicked");
            totals.ops += t.ops;
            totals.batch_ns.extend(t.batch_ns);
        }
        let heap = self.shared.heap;
        let (ops, counts) = (totals.ops, heap.counts());
        self.stopped = Some((totals, counts));
        if heap.reconciles() {
            0
        } else {
            ops
        }
    }

    fn layers(&mut self, _traced: &Traced, last: &Outcome, out: &mut LayerValues) {
        let (totals, counts) = self.stopped.as_ref().expect("layers follows finish");
        if !totals.batch_ns.is_empty() {
            let sorted = stats::sorted(&totals.batch_ns);
            out.set(
                "alloc.pair_ns_p50",
                2.0 * stats::quantile(&sorted, 0.5) / BATCH as f64,
            );
            out.set("alloc.batch_ns_p99", stats::quantile(&sorted, 0.99));
            out.set("alloc.batch_ns_p999", stats::quantile(&sorted, 0.999));
            out.set("alloc.batch_samples", sorted.len() as f64);
        }
        // Since the heap was built: warm-up iterations included on
        // both sides of each ratio.
        let ops = totals.ops.max(1) as f64;
        out.set("alloc.magazine_hit_ratio", counts.magazine_ops as f64 / ops);
        out.set(
            "alloc.depot_exchanges_per_kop",
            counts.depot_exchanges as f64 * 1e3 / ops,
        );
        out.set("alloc.slab_exhausted", counts.slab_exhausted as f64);
        out.set("alloc.system_fallbacks", counts.system_fallbacks as f64);
        out.set("alloc.bad_frees", counts.bad_frees as f64);
        out.set(
            "alloc.large_ops",
            2.0 * last.fields.get("large_blocks") as f64,
        );

        // Isolation passes, on the caller's thread, over the workload's
        // own sizes.
        let heap = self.shared.heap;
        let sizes = self.isolation_sizes();
        // SAFETY (all three): `pair_ns` frees each block once, with the
        // size it was allocated with, through the allocator it came from.
        let through_heap = pair_ns(
            &sizes,
            |s| heap.alloc(s),
            |p, s| unsafe { heap.dealloc(p, s) },
        );
        let through_system = pair_ns(&sizes, layers::system_alloc, |p, s| unsafe {
            layers::system_dealloc(p, s)
        });
        let direct = pair_ns(
            &sizes,
            |s| heap.alloc_direct(s),
            |p, s| unsafe { heap.dealloc_direct(p, s) },
        );
        out.set("alloc.direct_pair_ns", direct);
        out.set("alloc.vs_system_ratio", through_heap / through_system);

        // Backend-live bytes per byte the caller holds, with one
        // window's worth of the workload's sizes live.
        let held: Vec<_> = sizes[..WINDOW]
            .iter()
            .map(|&s| (heap.alloc(s), s))
            .collect();
        let live: usize = held.iter().map(|&(_, s)| s).sum();
        out.set(
            "alloc.reserved_per_live",
            heap.backend_live_bytes() as f64 / live as f64,
        );
        for (p, s) in held {
            // SAFETY: allocated just above with this size; freed once.
            unsafe { heap.dealloc(p, s) };
        }
        heap.flush_current_thread();

        if self.handoff {
            let words: Vec<u64> = sizes
                .iter()
                .filter(|&&s| s > SMALL_SIZES[SMALL_SIZES.len() - 1])
                .map(|&s| s.div_ceil(8) as u64)
                .collect();
            let pass = layers::arena_isolated(&words, 200_000);
            assert!(pass.sound, "the arena isolation pass broke an invariant");
            out.set("arena.pair_ns", pass.pair_ns);
            out.set("arena.pair_ns_noquick", pass.pair_ns_noquick);
            out.set("arena.steals", pass.steals as f64);
            out.set("arena.slab_pair_ns", pass.slab_pair_ns);
            out.set("arena.slab_cas_per_op", pass.slab_cas_per_op);
        }
    }
}
