//! Every call into the repository goes through this file, and only
//! through what ROADMAP.md keeps: the `dsa::` facade paths,
//! `EventSim`/`AdmissionPolicy`, `PagedMemory` with
//! `registry::policy_by_index`, the `dsa-stackdist` free functions,
//! `FreeListAllocator`/`Rice`/`Buddy`/`Segregated`,
//! `Machine::{run, run_probed}`, `TelemetryProbe`,
//! `ShardedArena`/`FixedSlab`, and `GlobalDsa` through std's
//! `GlobalAlloc`. Nothing here calls `MultiprogramSim`,
//! `GlobalMultiprogramSim`, `Tee`, `ArenaService::submit*` or
//! `dsa-bench`: a later change may delete those and may not edit this
//! directory.
//!
//! The functions take inputs generated from the benchmark's seed and
//! return plain counts, so the rest of the harness names no type of the
//! repository. A layer's sub-layer is reached directly only by the
//! isolation passes (`*_isolated`), on the same kind of input the
//! workload gives it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use dsa::alloc::{GlobalDsa, HeapConfig};
use dsa::arena::{FixedSlab, ShardedArena};
use dsa::core::access::{AllocEvent, ProgramOp};
use dsa::core::clock::Cycles;
use dsa::core::ids::{FrameNo, PageNo, SegId};
use dsa::exec::SimGrid;
use dsa::freelist::{
    compact, BuddyAllocator, FreeListAllocator, Placement, RiceAllocator, SegregatedAllocator,
};
use dsa::machines::{all_machines, Machine, MachineReport};
use dsa::mapping::associative::AssocPolicy;
use dsa::mapping::cost::MapCosts;
use dsa::mapping::two_level::TwoLevelMap;
use dsa::paging::compact::CompactLru;
use dsa::paging::replacement::registry::{policy_by_index, LRU};
use dsa::paging::PagedMemory;
use dsa::probe::{CountingProbe, EventKind, NullProbe, Probe, Stamp};
use dsa::sched::{
    estimate_ws, AdmissionPolicy, EventSim, LoadControlCfg, SimConfig, TenantSpec, TraceSpec,
};
use dsa::seg::store::{SegReplacement, SegmentStore, StoreBackend};
use dsa::stackdist::{lru_distances, opt_distances, StreamingLru};
use dsa::telemetry::{FlightRecorder, TelemetryProbe, TelemetrySnapshot};
use dsa::trace::allocstream::SizeDist;
use dsa::trace::{AllocStreamCfg, ProgramCfg, RefStringCfg, Rng64};

/// Whether `check` ran without panicking. The repository's invariant
/// checks assert; the benchmark counts a broken invariant as failed
/// operations and goes on to print its result.
fn holds(check: impl FnOnce()) -> bool {
    catch_unwind(AssertUnwindSafe(check)).is_ok()
}

/// Worker threads and `SimGrid` jobs: two, or one on a single core.
pub fn jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// A second seed for sub-stream `stream` of `seed` (splitmix64).
pub fn subseed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The repository's generator, for harness-side inputs (size menus,
/// touch lists) so they too derive from the seed alone.
pub struct Rng(Rng64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(Rng64::new(seed))
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.0.below(n)
    }

    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        self.0.range(lo, hi)
    }
}

// ---- trace, stackdist, paging, exec ---------------------------------------

/// The reference-string models of the replacement study (exp_04): the
/// three with locality worth replaying at scale.
pub const REF_MODELS: usize = 3;

fn ref_model(index: usize) -> RefStringCfg {
    match index {
        0 => RefStringCfg::LruStack {
            pages: 64,
            theta: 0.9,
        },
        1 => RefStringCfg::WorkingSetPhases {
            pages: 64,
            set: 12,
            phase_len: 600,
        },
        2 => RefStringCfg::HotCold {
            hot: 8,
            cold: 56,
            p_hot: 0.9,
        },
        _ => panic!("reference model {index} out of range"),
    }
}

/// A materialized page-granular reference string.
pub struct Pages(Vec<PageNo>);

impl Pages {
    pub fn len(&self) -> u64 {
        self.0.len() as u64
    }
}

pub fn generate_pages(model: usize, len: usize, seed: u64) -> Pages {
    Pages(ref_model(model).generate_pages(len, &mut Rng64::new(seed)))
}

/// References and faults of one pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Replay {
    pub references: u64,
    pub faults: u64,
}

/// Faults at each of `frames` from one Mattson pass: exact LRU
/// (`optimal = false`) or Belady's MIN.
pub fn stack_curve(pages: &Pages, optimal: bool, frames: &[usize]) -> Vec<u64> {
    let distances = if optimal {
        opt_distances(&pages.0)
    } else {
        lru_distances(&pages.0)
    };
    distances.success().curve(frames)
}

/// Metric-name suffixes of the registry's policies, in registry order.
pub const POLICIES: [&str; 8] = [
    "min",
    "lru",
    "clock",
    "fifo",
    "class-random",
    "random",
    "atlas",
    "lfu-aged",
];

/// Registry indexes of the exact stack policies, whose whole curve
/// comes from one `stack_curve` pass; the other six need a replay per
/// frame count.
pub const STACK_POLICIES: [usize; 2] = [0, 1];

/// Replays `pages` through a demand-paged memory of `frames` frames
/// under registry policy `policy`. `None` if the simulator errors or
/// leaves its invariants broken (neither can happen without pinning).
pub fn replay(pages: &Pages, policy: usize, frames: usize) -> Option<Replay> {
    let mut memory = PagedMemory::new(frames, policy_by_index(policy, frames, &pages.0));
    let stats = memory.run_pages(&pages.0).ok()?;
    holds(|| memory.check_invariants()).then_some(Replay {
        references: stats.references,
        faults: stats.faults,
    })
}

/// The streamed leg (exp_20): hot/cold over 4096 pages, never
/// materialized.
const STREAM_HOT: u64 = 256;
const STREAM_COLD: u64 = 3840;
pub const STREAM_FRAMES: usize = 512;

fn page_stream(seed: u64, refs: usize) -> impl Iterator<Item = PageNo> {
    RefStringCfg::HotCold {
        hot: STREAM_HOT,
        cold: STREAM_COLD,
        p_hot: 0.85,
    }
    .stream(0.0, seed)
    .pages()
    .take(refs)
}

/// Streams `refs` references through an LRU memory of
/// [`STREAM_FRAMES`] frames.
pub fn streamed_replay(seed: u64, refs: usize) -> Option<Replay> {
    let mut memory = PagedMemory::new(STREAM_FRAMES, policy_by_index(LRU, STREAM_FRAMES, &[]));
    let stats = memory.run_pages_iter(page_stream(seed, refs)).ok()?;
    holds(|| memory.check_invariants()).then_some(Replay {
        references: stats.references,
        faults: stats.faults,
    })
}

/// Streams the same references through the streaming Mattson engine;
/// the faults are the success function at [`STREAM_FRAMES`].
pub fn streamed_curve(seed: u64, refs: usize) -> Replay {
    let mut curve = StreamingLru::new();
    for page in page_stream(seed, refs) {
        curve.record(page);
    }
    let success = curve.success();
    Replay {
        references: success.references(),
        faults: success.faults(STREAM_FRAMES),
    }
}

/// Isolation pass: the stream alone, drained into a checksum.
pub fn stream_isolated(seed: u64, refs: usize) -> u64 {
    page_stream(seed, refs).fold(0, |sum, p| sum.wrapping_add(p.0))
}

/// Runs `f` on every cell across `jobs` workers, results in cell order.
pub fn grid<T: Sync, R: Send>(jobs: usize, cells: Vec<T>, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    SimGrid::new(cells).run(jobs, |_, cell| f(cell))
}

// ---- freelist -------------------------------------------------------------

/// Metric-name suffixes of the variable-unit allocators, in run order:
/// the five placements of `FreeListAllocator`, then Rice, buddy,
/// segregated.
pub const ALLOCATORS: [&str; 8] = [
    "first-fit",
    "next-fit",
    "best-fit",
    "worst-fit",
    "two-ends",
    "rice",
    "buddy",
    "segregated",
];

/// Words of storage every allocator manages (2^15, so the buddy system
/// gets the same).
const CAPACITY_LOG2: u32 = 15;
const CAPACITY: u64 = 1 << CAPACITY_LOG2;

/// An allocation/free event stream.
pub struct AllocEvents(Vec<AllocEvent>);

/// `n` events of exponential request sizes (mean 80 words) holding
/// live storage near `occupancy` of capacity, as in exp_05 and exp_07.
pub fn generate_alloc_events(n: usize, occupancy: f64, seed: u64) -> AllocEvents {
    let cfg = AllocStreamCfg {
        sizes: SizeDist::Exponential {
            mean: 80.0,
            cap: 2000,
        },
        mean_lifetime: 300.0,
        target_live_words: (CAPACITY as f64 * occupancy) as u64,
    };
    AllocEvents(cfg.generate(n, &mut Rng64::new(seed)))
}

/// What one allocator did with one event stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Churn {
    /// Allocation requests made and frees applied.
    pub ops: u64,
    pub requests: u64,
    pub failures: u64,
    /// Free blocks examined; 0 for the allocators that do not search.
    pub probes: u64,
    pub coalesces: u64,
    pub compactions: u64,
    pub words_moved: u64,
    /// Host time inside `compact`, read around each call.
    pub compact_ns: u64,
    /// False if `check_invariants` failed or a live free was refused.
    pub sound: bool,
}

/// A variable-unit allocator as the event stream sees it.
trait Units {
    fn request(&mut self, id: u64, size: u64) -> bool;
    fn release(&mut self, id: u64) -> bool;
}

impl Units for RiceAllocator {
    fn request(&mut self, id: u64, size: u64) -> bool {
        self.alloc(id, size, id).is_ok()
    }
    fn release(&mut self, id: u64) -> bool {
        self.free(id).is_ok()
    }
}

impl Units for BuddyAllocator {
    fn request(&mut self, id: u64, size: u64) -> bool {
        self.alloc(id, size).is_ok()
    }
    fn release(&mut self, id: u64) -> bool {
        self.free(id).is_ok()
    }
}

impl Units for SegregatedAllocator {
    fn request(&mut self, id: u64, size: u64) -> bool {
        self.alloc(id, size).is_ok()
    }
    fn release(&mut self, id: u64) -> bool {
        self.free(id).is_ok()
    }
}

/// A `FreeListAllocator` that, when `compacting`, answers a failed
/// request its free words could hold by compacting and retrying
/// (exp_07's course of action).
struct Packing {
    a: FreeListAllocator,
    compacting: bool,
    compactions: u64,
    words_moved: u64,
    compact_ns: u64,
}

impl Units for Packing {
    fn request(&mut self, id: u64, size: u64) -> bool {
        if self.a.alloc(id, size).is_ok() {
            return true;
        }
        if !self.compacting || self.a.free_words() < size {
            return false;
        }
        let start = Instant::now();
        let report = compact(&mut self.a, |_, _, _, _| {});
        self.compact_ns += start.elapsed().as_nanos() as u64;
        self.compactions += 1;
        self.words_moved += report.words_moved;
        self.a.alloc(id, size).is_ok()
    }
    fn release(&mut self, id: u64) -> bool {
        self.a.free(id).is_ok()
    }
}

/// Applies `events` to `units`, skipping the frees of requests that
/// failed.
fn apply(events: &AllocEvents, units: &mut impl Units) -> Churn {
    let mut out = Churn {
        sound: true,
        ..Churn::default()
    };
    // Request ids count up from 0, so a flag per id stands in for the
    // experiments' hash set of dropped requests.
    let mut dropped = vec![false; events.0.len()];
    for event in &events.0 {
        match *event {
            AllocEvent::Alloc(r) => {
                out.ops += 1;
                out.requests += 1;
                if !units.request(r.id, r.size) {
                    out.failures += 1;
                    dropped[r.id as usize] = true;
                }
            }
            AllocEvent::Free { id } => {
                if !dropped[id as usize] {
                    out.ops += 1;
                    out.sound &= units.release(id);
                }
            }
        }
    }
    out
}

/// Runs `events` through allocator `allocator` of [`ALLOCATORS`].
/// `compacting` applies to the five `FreeListAllocator` placements;
/// the other three have no compaction.
pub fn churn(allocator: usize, events: &AllocEvents, compacting: bool) -> Churn {
    let placement = match allocator {
        0 => Placement::FirstFit,
        1 => Placement::NextFit,
        2 => Placement::BestFit,
        3 => Placement::WorstFit,
        4 => Placement::TwoEnds { threshold: 256 },
        5 => {
            let mut a = RiceAllocator::new(CAPACITY);
            let mut out = apply(events, &mut a);
            out.probes = a.stats().probes;
            out.coalesces = a.stats().blocks_combined;
            out.sound &= holds(|| a.check_invariants());
            return out;
        }
        6 => {
            let mut a = BuddyAllocator::new(CAPACITY_LOG2);
            let mut out = apply(events, &mut a);
            out.coalesces = a.stats().merges;
            out.sound &= holds(|| a.check_invariants());
            return out;
        }
        7 => {
            let mut a = SegregatedAllocator::power_of_two(CAPACITY, 16, 2048);
            let mut out = apply(events, &mut a);
            out.sound &= holds(|| a.check_invariants());
            return out;
        }
        _ => panic!("allocator {allocator} out of range"),
    };
    let mut packing = Packing {
        a: FreeListAllocator::new(CAPACITY, placement),
        compacting,
        compactions: 0,
        words_moved: 0,
        compact_ns: 0,
    };
    let mut out = apply(events, &mut packing);
    out.probes = packing.a.stats().probes;
    out.coalesces = packing.a.stats().coalesces;
    out.compactions = packing.compactions;
    out.words_moved = packing.words_moved;
    out.compact_ns = packing.compact_ns;
    out.sound &= holds(|| packing.a.check_invariants());
    out
}

// ---- machines, probe, telemetry -------------------------------------------

/// Metric-name suffixes of the appendix machines, in appendix order.
pub const MACHINES: [&str; 7] = [
    "atlas", "m44", "b5000", "rice", "b8500", "multics", "model67",
];

/// A segment-structured program every appendix machine can run.
pub struct Program(Vec<ProgramOp>);

/// The survey program of exp_09 (48 segments of mean 700 words, phases
/// of 6 segments, 0.2 % wild subscripts) at `touches` touches.
pub fn generate_program(touches: usize, seed: u64) -> Program {
    let cfg = ProgramCfg {
        segments: 48,
        seg_sizes: SizeDist::Exponential {
            mean: 700.0,
            cap: 4000,
        },
        touches,
        phase_set: 6,
        phase_len: 500,
        write_fraction: 0.3,
        resize_prob: 0.05,
        advice_accuracy: None,
        wild_touch_prob: 0.002,
        compute_between: 3,
    };
    Program(cfg.generate(&mut Rng64::new(seed)).ops)
}

/// The integer fields of a `MachineReport` the benchmark reads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MachineRun {
    pub touches: u64,
    pub faults: u64,
    pub fetched_words: u64,
    pub writeback_words: u64,
    pub fetch_cycles: u64,
    pub map_cycles: u64,
    pub bounds_caught: u64,
    pub wild_undetected: u64,
    pub alloc_failures: u64,
}

impl MachineRun {
    fn of(r: &MachineReport) -> MachineRun {
        MachineRun {
            touches: r.touches,
            faults: r.faults,
            fetched_words: r.fetched_words,
            writeback_words: r.writeback_words,
            fetch_cycles: r.fetch_time.as_nanos(),
            map_cycles: r.map_time.as_nanos(),
            bounds_caught: r.bounds_caught,
            wild_undetected: r.wild_undetected,
            alloc_failures: r.alloc_failures,
        }
    }
}

/// Seven freshly built machines; each runs one program once.
pub struct Machines(Vec<Box<dyn Machine>>);

impl Machines {
    pub fn build() -> Machines {
        Machines(all_machines())
    }

    /// `Machine::run`: no probe attached.
    pub fn run(&mut self, machine: usize, program: &Program) -> Option<MachineRun> {
        let report = self.0[machine].run(&program.0).ok()?;
        Some(MachineRun::of(&report))
    }

    /// `Machine::run_probed` with the `NullProbe`.
    pub fn run_unwatched(&mut self, machine: usize, program: &Program) -> Option<MachineRun> {
        let report = self.0[machine]
            .run_probed(&program.0, &mut NullProbe)
            .ok()?;
        Some(MachineRun::of(&report))
    }

    /// `Machine::run_probed` with a `CountingProbe`.
    pub fn run_counted(
        &mut self,
        machine: usize,
        program: &Program,
    ) -> Option<(MachineRun, Counted)> {
        let mut probe = CountingProbe::new();
        let r = self.0[machine].run_probed(&program.0, &mut probe).ok()?;
        let reconciled = probe.touches == r.touches
            && probe.faults == r.faults
            && probe.fetched_words == r.fetched_words
            && probe.writeback_words == r.writeback_words
            && probe.bounds_traps == r.bounds_caught
            && probe.fetch_starts == probe.fetches;
        let counted = Counted {
            events: probe.total_events(),
            map_lookups: probe.map_lookups,
            map_hits: probe.map_hits,
            reconciled,
        };
        Some((MachineRun::of(&r), counted))
    }

    /// `Machine::run_probed` into the always-on telemetry sink.
    pub fn run_observed(
        &mut self,
        machine: usize,
        program: &Program,
        telemetry: &mut Telemetry,
    ) -> Option<MachineRun> {
        let report = self.0[machine]
            .run_probed(&program.0, &mut telemetry.0)
            .ok()?;
        Some(MachineRun::of(&report))
    }
}

/// What a `CountingProbe` saw of one machine run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counted {
    pub events: u64,
    pub map_lookups: u64,
    pub map_hits: u64,
    /// Whether the probe's totals equal the report's fields, the
    /// reconciliation `tests/probe_reconciliation.rs` pins.
    pub reconciled: bool,
}

/// One `TelemetryProbe`, shared by the seven runs of an iteration.
pub struct Telemetry(TelemetryProbe);

impl Telemetry {
    pub fn start() -> Telemetry {
        Telemetry(TelemetryProbe::new())
    }

    /// Events recorded so far and touches among them.
    pub fn events_and_touches(&self) -> (u64, u64) {
        let counters = self.0.counters();
        (counters.total_events(), counters.touches)
    }

    /// One Prometheus export of the counters and the four
    /// distributions; returns its size in bytes.
    pub fn export(&self) -> usize {
        let mut snapshot = TelemetrySnapshot::new("dsa");
        snapshot.counting_probe(&self.0.counters(), &[]);
        let histograms = [
            ("alloc_words", self.0.alloc_words()),
            ("search_len", self.0.search_len()),
            ("inter_fault_refs", self.0.inter_fault_gap()),
            ("fetch_latency_ns", self.0.fetch_latency()),
        ];
        for (name, h) in &histograms {
            snapshot.histogram(name, "benchmark export", &[], h);
        }
        snapshot.render_prometheus().len()
    }
}

/// Isolation pass: `n` two-level translations (8 segments of 8 pages,
/// 8-entry associative memory) at seeded `(segment, offset)` pairs.
/// Returns how many resolved.
pub fn translate_isolated(pairs: &[(u32, u64)]) -> u64 {
    let costs = MapCosts::for_core_cycle(Cycles::from_micros(1));
    let mut map = TwoLevelMap::new(8, 512, 6, 8, AssocPolicy::Lru, costs);
    for s in 0..8u32 {
        map.create_segment(SegId(s), 512).expect("8 segments fit");
        for p in 0..8 {
            map.map_page(SegId(s), p, FrameNo(u64::from(s) * 8 + p))
                .expect("page is inside the segment");
        }
    }
    pairs
        .iter()
        .filter(|&&(seg, offset)| {
            map.translate_pair(SegId(seg % 8), offset % 512)
                .outcome
                .is_ok()
        })
        .count() as u64
}

/// Isolation pass: seeded touches on a segment store of 16 hundred-word
/// segments that all fit its 4096-word best-fit free list, so after the
/// first fetches every touch takes the resident path, as nearly all of
/// the survey's do. Returns the fetches.
pub fn segment_store_isolated(touches: &[(u32, u64)]) -> u64 {
    let mut store = SegmentStore::new(
        StoreBackend::FreeList(FreeListAllocator::new(4096, Placement::BestFit)),
        SegReplacement::Cyclic,
        1024,
    );
    for s in 0..16u32 {
        store
            .define(SegId(s), 100)
            .expect("segment is declared once");
    }
    touches
        .iter()
        .filter(|&&(seg, offset)| {
            store
                .touch(SegId(seg % 16), offset % 100, offset % 3 == 0)
                .expect("every segment is evictable")
                .fetched
        })
        .count() as u64
}

/// Isolation pass: `n` events into one flight-recorder ring.
pub fn flight_record_isolated(n: u64) -> u64 {
    let recorder = FlightRecorder::new(4096);
    let mut handle = recorder.handle();
    for i in 0..n {
        handle.emit(EventKind::Fault, Stamp::vtime(i));
    }
    recorder.events_seen()
}

// ---- sched ----------------------------------------------------------------

/// The integer fields of an `EventReport` the benchmark reads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedRun {
    pub references: u64,
    pub faults: u64,
    pub makespan_cycles: u64,
    pub cpu_busy_cycles: u64,
    pub peak_active: u64,
    pub admissions: u64,
    pub admission_rejects: u64,
    pub deactivations: u64,
    pub ladder_steps: u64,
}

/// Per-tenant page universe, working set and quota of exp_22.
fn tenant_model() -> RefStringCfg {
    RefStringCfg::WorkingSetPhases {
        pages: 16,
        set: 8,
        phase_len: 80,
    }
}

const TENANT_QUOTA: usize = 16;

fn tenant_trace(seed: u64, tenant: u32, refs: u64) -> TraceSpec {
    TraceSpec::Stream {
        cfg: tenant_model(),
        write_fraction: 0.0,
        seed: subseed(seed, u64::from(tenant)),
        len: refs,
    }
}

/// A built, not yet run, population.
pub struct Population(EventSim);

/// `tenants` stream-backed tenants of `refs` references each over a
/// tight pool (one frame per tenant) and eight fetch channels, under
/// open or working-set admission.
pub fn build_population(tenants: u32, refs: u64, working_set: bool, seed: u64) -> Population {
    let cfg = SimConfig {
        instr_time: Cycles::from_micros(10),
        fetch_time: Cycles::from_millis(2),
        page_size: 512,
        quantum_refs: 20,
        fetch_channels: Some(8),
    };
    let policy = if working_set {
        AdmissionPolicy::WorkingSet
    } else {
        AdmissionPolicy::Open
    };
    let specs = (0..tenants)
        .map(|i| TenantSpec::new(i, tenant_trace(seed, i, refs), TENANT_QUOTA))
        .collect();
    Population(EventSim::new(
        cfg,
        tenants as usize,
        policy,
        LoadControlCfg::default(),
        specs,
    ))
}

pub fn run_population(population: Population) -> Option<SchedRun> {
    let r = population.0.run(&mut NullProbe).ok()?;
    Some(SchedRun {
        references: r.references,
        faults: r.faults,
        makespan_cycles: r.makespan.as_nanos(),
        cpu_busy_cycles: r.cpu_busy.as_nanos(),
        peak_active: r.peak_active as u64,
        admissions: r.admissions,
        admission_rejects: r.admission_rejects,
        deactivations: r.deactivations,
        ladder_steps: r.ladder_steps,
    })
}

/// Isolation pass: every tenant's stream alone, drained into a
/// checksum.
pub fn tenant_streams_isolated(tenants: u32, refs: u64, seed: u64) -> u64 {
    (0..tenants)
        .flat_map(|i| tenant_trace(seed, i, refs).sample(refs))
        .fold(0, |sum, p| sum.wrapping_add(p.0))
}

/// Isolation pass: the same references through one compact resident
/// set of `frames` frames per tenant. `sample` materializes a stream's
/// head, which here is the whole stream; the touches are timed apart
/// from it. Returns (faults, nanoseconds inside `CompactLru::touch`).
pub fn compact_touch_isolated(tenants: u32, refs: u64, frames: usize, seed: u64) -> (u64, u64) {
    let (mut faults, mut ns) = (0, 0);
    for i in 0..tenants {
        let pages = tenant_trace(seed, i, refs).sample(refs);
        let mut resident = CompactLru::new(frames);
        let start = Instant::now();
        faults += pages.iter().filter(|&&p| resident.touch(p)).count() as u64;
        ns += start.elapsed().as_nanos() as u64;
    }
    (faults, ns)
}

/// Isolation pass: the admission controller's working-set estimate for
/// each tenant's sampled head. Returns the sum of the estimates.
pub fn ws_estimate_isolated(tenants: u32, refs: u64, seed: u64) -> u64 {
    let lc = LoadControlCfg::default();
    (0..tenants)
        .map(|i| {
            let sample = tenant_trace(seed, i, refs).sample(lc.ws_sample);
            estimate_ws(&sample, lc.ws_window) as u64
        })
        .sum()
}

// ---- alloc, arena ---------------------------------------------------------

/// How many times a run sets a heap workload up; each set-up gets a
/// heap of its own, built on first use like any `static GlobalDsa`.
pub const HEAPS: usize = 3;

static HEAP: [GlobalDsa; HEAPS] = [const { GlobalDsa::new(HeapConfig::DEFAULT) }; HEAPS];

/// Counters of a heap since it was built.
#[derive(Clone, Copy, Debug, Default)]
pub struct HeapCounts {
    pub magazine_ops: u64,
    pub depot_exchanges: u64,
    pub slab_exhausted: u64,
    pub system_fallbacks: u64,
    pub bad_frees: u64,
}

/// One of the static heaps, used through `GlobalAlloc` but not
/// installed as the process allocator: the harness's own memory stays
/// on the system allocator and out of the books.
#[derive(Clone, Copy)]
pub struct Heap(&'static GlobalDsa);

impl Heap {
    pub fn of_setup(setup: usize) -> Heap {
        Heap(&HEAP[setup])
    }

    fn layout(size: usize) -> Layout {
        Layout::from_size_align(size, 8).expect("a non-zero size of at most 32 KiB, aligned to 8")
    }

    /// `GlobalAlloc::alloc`; null means the heap and its system
    /// fallback both refused.
    pub fn alloc(self, size: usize) -> *mut u8 {
        // SAFETY: every size the benchmark asks for is non-zero.
        unsafe { self.0.alloc(Heap::layout(size)) }
    }

    /// # Safety
    ///
    /// `ptr` is live, came from `alloc(size)` or `alloc_direct(size)`
    /// on this heap, and is not used afterwards.
    pub unsafe fn dealloc(self, ptr: *mut u8, size: usize) {
        // SAFETY: the caller's contract is `GlobalAlloc::dealloc`'s.
        unsafe { self.0.dealloc(ptr, Heap::layout(size)) }
    }

    /// The heap's no-magazine path.
    pub fn alloc_direct(self, size: usize) -> *mut u8 {
        self.0.heap().alloc_direct(Heap::layout(size))
    }

    /// # Safety
    ///
    /// As [`Heap::dealloc`].
    pub unsafe fn dealloc_direct(self, ptr: *mut u8, size: usize) {
        // SAFETY: the caller's contract is `dealloc_direct`'s.
        unsafe { self.0.heap().dealloc_direct(ptr, Heap::layout(size)) }
    }

    /// Returns the calling thread's magazines to the heap and folds its
    /// hit counters in; without it `magazine_ops` reads 0.
    pub fn flush_current_thread(self) {
        self.0.flush_current_thread();
    }

    /// `DsaHeap::check_reconciliation`, as a verdict.
    pub fn reconciles(self) -> bool {
        holds(|| self.0.heap().check_reconciliation())
    }

    pub fn counts(self) -> HeapCounts {
        let s = self.0.heap().stats();
        HeapCounts {
            magazine_ops: s.magazine_allocs + s.magazine_frees,
            depot_exchanges: s.depot_exchanges,
            slab_exhausted: s.slab_exhausted,
            system_fallbacks: s.system_allocs,
            bad_frees: s.bad_frees,
        }
    }

    /// Bytes the backend holds live (slab spans, live units, large
    /// blocks), magazines and depots included.
    pub fn backend_live_bytes(self) -> u64 {
        self.0.heap().live_words() * 8
    }
}

/// The same request through `std::alloc::System`, the yardstick.
pub fn system_alloc(size: usize) -> *mut u8 {
    // SAFETY: every size the benchmark asks for is non-zero.
    unsafe { System.alloc(Heap::layout(size)) }
}

/// # Safety
///
/// `ptr` is live, came from `system_alloc(size)`, and is not used
/// afterwards.
pub unsafe fn system_dealloc(ptr: *mut u8, size: usize) {
    // SAFETY: the caller's contract is `GlobalAlloc::dealloc`'s.
    unsafe { System.dealloc(ptr, Heap::layout(size)) }
}

/// What the arena isolation pass measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct ArenaPass {
    pub pair_ns: f64,
    pub pair_ns_noquick: f64,
    pub steals: u64,
    pub slab_pair_ns: f64,
    pub slab_cas_per_op: f64,
    pub sound: bool,
}

/// Isolation pass for the layers under the heap's slow paths: `pairs`
/// alloc/free pairs of `sizes` (words) on a `ShardedArena` whose
/// shards were fragmented first, with and without quick lists, and as
/// many pairs on a `FixedSlab`.
pub fn arena_isolated(sizes: &[u64], pairs: usize) -> ArenaPass {
    let mut sound = true;
    let mut timed_arena = |quick: bool| {
        // Geometry of the heap's own backing arena (HeapConfig::DEFAULT).
        let arena = ShardedArena::new(8, (4 << 20) / 8, Placement::FirstFit);
        if quick {
            arena.enable_quick_lists(256, 16);
        }
        // Fragment: 4096 small blocks, every other one freed.
        for id in 0..4096u64 {
            sound &= arena.alloc(id, 24 + id % 40).is_ok();
        }
        for id in (0..4096u64).step_by(2) {
            sound &= arena.free(id).is_ok();
        }
        let start = Instant::now();
        for (i, &size) in sizes.iter().cycle().take(pairs).enumerate() {
            let id = 1_000_000 + i as u64;
            sound &= arena.alloc(id, size).is_ok();
            sound &= arena.free(id).is_ok();
        }
        let ns = start.elapsed().as_nanos() as f64 / pairs as f64;
        sound &= holds(|| arena.check_invariants());
        (ns, arena.steals())
    };
    let (pair_ns, steals) = timed_arena(true);
    let (pair_ns_noquick, _) = timed_arena(false);

    let slab = FixedSlab::new(1024, 8);
    let start = Instant::now();
    for _ in 0..pairs {
        match slab.alloc() {
            Ok(unit) => sound &= slab.free(unit.unit).is_ok(),
            Err(_) => sound = false,
        }
    }
    let slab_pair_ns = start.elapsed().as_nanos() as f64 / pairs as f64;
    let stats = slab.stats();
    sound &= holds(|| slab.check_invariants());
    ArenaPass {
        pair_ns,
        pair_ns_noquick,
        steals,
        slab_pair_ns,
        slab_cas_per_op: stats.cas_attempts as f64 / (stats.allocs + stats.frees).max(1) as f64,
        sound,
    }
}
