//! Property-based tests pinning the event-driven multiprogramming
//! simulator to its reference implementations.
//!
//! Four contracts:
//!
//! * [`dsa::sched::EventSim`] in `AdmissionPolicy::Fixed` mode with
//!   full per-tenant paging engines is *report-identical* to the
//!   per-reference stepper in `common/stepper.rs` — same references,
//!   faults, completion times, CPU busy time, makespan, and space-time
//!   split — across every registry replacement policy and every
//!   fetch-channel configuration. The event queue is an optimization
//!   of the stepper, not a different machine.
//! * The shared pool ([`dsa::sched::EventSim::with_shared_pool`]) needs
//!   no second oracle: with room for every page it faults exactly the
//!   distinct pages, with one tenant it is that tenant's private
//!   quota, and its probe events reconcile with its report.
//! * [`dsa::paging::CompactLru`] (the compact resident-set summary the
//!   population mode runs on) faults exactly like
//!   [`dsa::paging::paged::PagedMemory`] under [`dsa::paging::LruRepl`],
//!   and the depth it reports for a hit is the reference's LRU stack
//!   distance.
//! * A tenant sweep — [`EventSim`] over a grid on
//!   [`dsa::exec::SimGrid`], admission decisions included — is a pure
//!   function of its grid: byte-identical reports at any worker count.
//! * Working-set admission samples the head of each tenant's own trace
//!   cursor, which then serves it: every tenant still executes exactly
//!   its trace, in order, even when swapped out before its head is
//!   served.

#[path = "common/stepper.rs"]
mod stepper;

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use dsa::core::clock::{Cycles, VirtualTime};
use dsa::core::ids::{FrameNo, PageNo};
use dsa::exec::SimGrid;
use dsa::metrics::SpaceTimeReport;
use dsa::paging::paged::PagedMemory;
use dsa::paging::replacement::registry::{policy_by_index, policy_count, policy_label};
use dsa::paging::{CompactLru, Eligible, LruRepl, Replacer, Sensors};
use dsa::probe::{CountingProbe, Event, EventKind, NullProbe, Probe};
use dsa::sched::{
    AdmissionPolicy, EventReport, EventSim, LoadControlCfg, SimConfig, TenantSpec, TraceSpec,
};
use dsa::stackdist::lru_distances;
use dsa::trace::refstring::RefStringCfg;
use proptest::prelude::*;

fn arb_traces() -> impl Strategy<Value = Vec<Vec<PageNo>>> {
    prop::collection::vec(
        prop::collection::vec(0u64..16, 0..120).prop_map(|v| v.into_iter().map(PageNo).collect()),
        1..5,
    )
}

fn sim_cfg(quantum: u32, channels: Option<usize>) -> SimConfig {
    SimConfig {
        instr_time: Cycles::from_micros(10),
        fetch_time: Cycles::from_millis(3),
        page_size: 512,
        quantum_refs: quantum,
        fetch_channels: channels,
    }
}

/// Runs the same mix through the reference stepper and the event-driven
/// simulator in parity mode and asserts report identity.
fn assert_parity(
    traces: &[Vec<PageNo>],
    frames: usize,
    policy: usize,
    quantum: u32,
    channels: Option<usize>,
) -> Result<(), String> {
    let cfg = sim_cfg(quantum, channels);
    let jobs = traces
        .iter()
        .map(|t| stepper::Job {
            trace: t.clone(),
            frames,
            replacer: policy_by_index(policy, frames, t),
        })
        .collect();
    let reference = stepper::run(cfg, jobs);

    let event = EventSim::with_full_memory(
        cfg,
        frames * traces.len().max(1),
        AdmissionPolicy::Fixed,
        LoadControlCfg::default(),
        page_tenants(traces, frames),
        |spec| match &spec.trace {
            TraceSpec::Pages(t) => policy_by_index(policy, frames, t),
            TraceSpec::Stream { .. } => unreachable!("parity mixes are materialized"),
        },
    )
    .run(&mut NullProbe)
    .expect("no pinning");

    let label = policy_label(policy);
    prop_assert_eq!(
        event.tenants.len(),
        reference.jobs.len(),
        "{} population size",
        label
    );
    for (t, j) in event.tenants.iter().zip(reference.jobs.iter()) {
        prop_assert_eq!(t.references, j.references, "{} references", label);
        prop_assert_eq!(t.faults, j.faults, "{} faults", label);
        prop_assert_eq!(t.finished_at, j.finished_at, "{} finished_at", label);
    }
    prop_assert_eq!(event.cpu_busy, reference.cpu_busy, "{} cpu_busy", label);
    prop_assert_eq!(event.makespan, reference.makespan, "{} makespan", label);
    prop_assert_eq!(
        event.faults,
        reference.jobs.iter().map(|j| j.faults).sum::<u64>(),
        "{} total faults",
        label
    );
    let mut space_time = SpaceTimeReport::default();
    for j in &reference.jobs {
        space_time.active_word_nanos += j.space_time.active_word_nanos;
        space_time.waiting_word_nanos += j.space_time.waiting_word_nanos;
        space_time.ready_idle_word_nanos += j.space_time.ready_idle_word_nanos;
    }
    prop_assert_eq!(event.space_time, space_time, "{} space-time", label);
    Ok(())
}

fn page_tenants(traces: &[Vec<PageNo>], quota: usize) -> Vec<TenantSpec> {
    traces
        .iter()
        .enumerate()
        .map(|(i, t)| TenantSpec::new(i as u32, TraceSpec::Pages(t.clone()), quota))
        .collect()
}

fn run_shared(
    traces: &[Vec<PageNo>],
    frames: usize,
    policy: AdmissionPolicy,
    cfg: SimConfig,
) -> (EventReport, CountingProbe) {
    let mut probe = CountingProbe::new();
    let lc = LoadControlCfg::default();
    let report = EventSim::with_shared_pool(cfg, frames, policy, lc, page_tenants(traces, frames))
        .run(&mut probe)
        .expect("no pinning");
    (report, probe)
}

proptest! {
    /// The event-driven simulator is report-identical to the reference
    /// per-cycle stepper for every replacement policy in the registry,
    /// with ample fetch capacity.
    #[test]
    fn event_sim_matches_reference_all_policies(
        traces in arb_traces(),
        frames in 1usize..6,
        qi in 0usize..3,
    ) {
        let quantum = [1u32, 7, 50][qi];
        for policy in 0..policy_count() {
            assert_parity(&traces, frames, policy, quantum, None)?;
        }
    }

    /// The same identity holds when fetches contend for finite transfer
    /// channels — the queueing delays land on the same instants.
    #[test]
    fn event_sim_matches_reference_under_channel_contention(
        traces in arb_traces(),
        frames in 1usize..6,
        qi in 0usize..3,
        channels in 1usize..4,
    ) {
        let quantum = [1u32, 13, 50][qi];
        for policy in [0usize, 1, 3] {
            assert_parity(&traces, frames, policy, quantum, Some(channels))?;
        }
    }

    /// A shared pool with a frame for every page of the population has
    /// nothing to steal: under either policy each tenant faults once per
    /// distinct page, and the probe saw what the report says.
    #[test]
    fn roomy_shared_pool_faults_once_per_distinct_page(
        traces in arb_traces(),
        spare in 0usize..4,
        channels in 0usize..3,
    ) {
        let distinct: Vec<u64> = traces
            .iter()
            .map(|t| t.iter().collect::<HashSet<_>>().len() as u64)
            .collect();
        let frames = distinct.iter().sum::<u64>() as usize + spare;
        let cfg = sim_cfg(7, Some(channels).filter(|&c| c > 0));
        for policy in [AdmissionPolicy::Open, AdmissionPolicy::WorkingSet] {
            let (r, probe) = run_shared(&traces, frames, policy, cfg);
            for ((t, trace), &pages) in r.tenants.iter().zip(&traces).zip(&distinct) {
                prop_assert_eq!(t.references, trace.len() as u64, "{:?}", policy);
                prop_assert_eq!(t.faults, pages, "{:?} tenant {}", policy, t.id);
            }
            prop_assert_eq!(probe.faults, r.faults);
            prop_assert_eq!(probe.fetch_starts, r.faults);
            prop_assert_eq!(probe.fetches, r.faults);
            prop_assert_eq!(probe.tenants_admitted, r.admissions);
            prop_assert_eq!(probe.tenants_deactivated, r.deactivations);
            prop_assert_eq!(probe.degradation_steps, r.ladder_steps);
        }
    }

    /// A lone tenant has no one to steal from: the shared pool reports
    /// what a private quota of the same frames reports, space-time
    /// included.
    #[test]
    fn one_tenant_shared_pool_is_a_private_quota(
        trace in prop::collection::vec(0u64..16, 0..200),
        frames in 1usize..8,
        channels in 0usize..3,
    ) {
        let traces = [trace.into_iter().map(PageNo).collect::<Vec<_>>()];
        let cfg = sim_cfg(13, Some(channels).filter(|&c| c > 0));
        let private = EventSim::new(
            cfg,
            frames,
            AdmissionPolicy::Fixed,
            LoadControlCfg::default(),
            page_tenants(&traces, frames),
        )
        .run(&mut NullProbe)
        .expect("compact sets cannot fail");
        for policy in [AdmissionPolicy::Open, AdmissionPolicy::WorkingSet] {
            let (shared, probe) = run_shared(&traces, frames, policy, cfg);
            prop_assert_eq!(shared.faults, private.faults, "{:?}", policy);
            prop_assert_eq!(shared.references, private.references);
            prop_assert_eq!(shared.cpu_busy, private.cpu_busy);
            prop_assert_eq!(shared.makespan, private.makespan);
            prop_assert_eq!(shared.space_time, private.space_time);
            prop_assert_eq!(probe.faults, shared.faults);
            prop_assert_eq!(probe.tenants_admitted, shared.admissions);
        }
    }

    /// The compact LRU resident-set summary faults exactly like the
    /// full paging engine under LRU replacement, and a hit's reported
    /// depth is its stack distance (a fault's distance is past the
    /// capacity).
    #[test]
    fn compact_lru_matches_paged_memory(
        trace in prop::collection::vec(0u64..24, 0..400),
        capacity in 1usize..12,
    ) {
        let trace: Vec<PageNo> = trace.into_iter().map(PageNo).collect();
        let distances = lru_distances(&trace);
        let mut compact = CompactLru::new(capacity);
        let mut full = PagedMemory::new(capacity, Box::new(LruRepl::new()));
        for (vt, &p) in trace.iter().enumerate() {
            let depth = compact.touch_depth(p);
            let ff = full
                .touch(p, false, vt as u64)
                .expect("no pinning")
                .is_fault();
            prop_assert_eq!(depth.is_none(), ff, "fault disagreement at reference {}", vt);
            let distance = distances.distances()[vt];
            prop_assert_eq!(
                depth.map(|d| d as u64),
                Some(distance).filter(|&d| d <= capacity as u64),
                "depth disagreement at reference {}", vt
            );
            prop_assert_eq!(compact.resident_count(), full.resident_count());
        }
    }
}

/// A sweep point: tenants, frames, admission policy.
type SweepPoint = (usize, usize, AdmissionPolicy);

fn sweep_points() -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for &tenants in &[4usize, 12] {
        for &frames in &[8usize, 48] {
            for &policy in &[AdmissionPolicy::Open, AdmissionPolicy::WorkingSet] {
                points.push((tenants, frames, policy));
            }
        }
    }
    points
}

fn run_sweep(jobs: usize) -> Vec<(SweepPoint, EventReport)> {
    let cfg = sim_cfg(20, Some(2));
    SimGrid::new(sweep_points()).run(jobs, |_, &point| {
        let (tenants, frames, policy) = point;
        let specs = (0..tenants as u32)
            .map(|i| {
                TenantSpec::new(
                    i,
                    TraceSpec::Stream {
                        cfg: RefStringCfg::WorkingSetPhases {
                            pages: 16,
                            set: 6,
                            phase_len: 120,
                        },
                        write_fraction: 0.0,
                        seed: u64::from(i) + 1,
                        len: 400,
                    },
                    16,
                )
            })
            .collect();
        let sim = EventSim::new(cfg, frames, policy, LoadControlCfg::default(), specs);
        let report = sim.run(&mut NullProbe).expect("compact sets cannot fail");
        (point, report)
    })
}

/// The tenant sweep — admission decisions, deactivations, and all — is
/// identical no matter how many workers execute it.
#[test]
fn tenant_sweep_is_deterministic_across_worker_counts() {
    let serial = run_sweep(1);
    let parallel = run_sweep(4);
    assert_eq!(serial.len(), parallel.len());
    for ((pa, a), (pb, b)) in serial.iter().zip(parallel.iter()) {
        assert_eq!(pa, pb);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.cpu_busy, b.cpu_busy);
        assert_eq!(a.references, b.references);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.peak_active, b.peak_active);
        assert_eq!(a.admissions, b.admissions);
        assert_eq!(a.admission_rejects, b.admission_rejects);
        assert_eq!(a.deactivations, b.deactivations);
        assert_eq!(a.ladder_steps, b.ladder_steps);
        assert_eq!(a.mean_ws_estimate.to_bits(), b.mean_ws_estimate.to_bits());
        for (ta, tb) in a.tenants.iter().zip(b.tenants.iter()) {
            assert_eq!(ta.id, tb.id);
            assert_eq!(ta.references, tb.references);
            assert_eq!(ta.faults, tb.faults);
            assert_eq!(ta.finished_at, tb.finished_at);
        }
    }
}

/// One record of a run: `(tenant, Some(page))` for each reference a
/// tenant executes, `(tenant, None)` where the ladder swaps it out.
type Log = Arc<Mutex<Vec<(u32, Option<PageNo>)>>>;

/// LRU that logs every hit in its tenant's frames. In a private memory
/// each executed reference is one hit: a faulting reference re-executes
/// once its page has arrived, and nothing else can evict the page.
struct Executed {
    tenant: u32,
    log: Log,
    lru: LruRepl,
}

impl Replacer for Executed {
    fn loaded(&mut self, frame: FrameNo, page: PageNo, now: VirtualTime) {
        self.lru.loaded(frame, page, now);
    }

    fn touched(&mut self, frame: FrameNo, page: PageNo, now: VirtualTime, write: bool) {
        self.log.lock().unwrap().push((self.tenant, Some(page)));
        self.lru.touched(frame, page, now, write);
    }

    fn victim(
        &mut self,
        eligible: Eligible<'_>,
        sensors: &mut Sensors,
        now: VirtualTime,
    ) -> FrameNo {
        self.lru.victim(eligible, sensors, now)
    }

    fn evicted(&mut self, frame: FrameNo) {
        self.lru.evicted(frame);
    }

    fn name(&self) -> &'static str {
        "executed"
    }
}

/// Logs swap-outs into the same record as the hits.
struct SwapOuts(Log);

impl Probe for SwapOuts {
    fn record(&mut self, event: &Event) {
        if let EventKind::TenantDeactivated { tenant, .. } = event.kind {
            self.0.lock().unwrap().push((tenant, None));
        }
    }
}

/// Per tenant: the pages it executed, in order, and how many it had
/// executed when it was first swapped out.
type Executions = Vec<(Vec<PageNo>, Option<usize>)>;

/// Runs `specs` (ids `0..n`) under working-set admission over a pool of
/// `frames`, each tenant in a full LRU memory that logs execution.
fn run_logged(
    specs: Vec<TenantSpec>,
    frames: usize,
    lc: LoadControlCfg,
) -> (EventReport, Executions) {
    let log = Log::default();
    let mut executed = vec![(Vec::new(), None); specs.len()];
    let report = EventSim::with_full_memory(
        sim_cfg(20, Some(2)),
        frames,
        AdmissionPolicy::WorkingSet,
        lc,
        specs,
        |spec| {
            Box::new(Executed {
                tenant: spec.id,
                log: Arc::clone(&log),
                lru: LruRepl::new(),
            })
        },
    )
    .run(&mut SwapOuts(Arc::clone(&log)))
    .expect("no pinning");
    for &(tenant, page) in log.lock().unwrap().iter() {
        let (pages, swapped_at) = &mut executed[tenant as usize];
        match page {
            Some(p) => pages.push(p),
            None => {
                swapped_at.get_or_insert(pages.len());
            }
        }
    }
    (report, executed)
}

/// A phased stream of `len` references: tenant `i` works in sets of
/// `2 + i` of 16 pages.
fn phased(i: u32, len: u64, phase_len: u64) -> TraceSpec {
    TraceSpec::Stream {
        cfg: RefStringCfg::WorkingSetPhases {
            pages: 16,
            set: 2 + u64::from(i),
            phase_len,
        },
        write_fraction: 0.0,
        seed: u64::from(i) + 1,
        len,
    }
}

proptest! {
    /// Whatever part of the trace the admission sample covers (less
    /// than all of it, all of it, none), whether the trace is a stream
    /// or materialized, and however early the ladder swaps a tenant
    /// out, every tenant executes exactly its trace, in order.
    #[test]
    fn admission_sampling_keeps_every_trace_in_order(
        tenants in prop::collection::vec((0u64..160, any::<bool>(), 1usize..4), 1..6),
        ws_sample in 1u64..128,
        thrash_refs in 4u32..64,
        frames in 1usize..12,
    ) {
        let specs: Vec<TenantSpec> = tenants
            .iter()
            .zip(0u32..)
            .map(|(&(len, materialized, quota), i)| {
                let trace = phased(i, len, 40);
                let trace = if materialized {
                    TraceSpec::Pages(trace.sample(len))
                } else {
                    trace
                };
                TenantSpec::new(i, trace, quota)
            })
            .collect();
        let lc = LoadControlCfg { ws_sample, thrash_refs, ..LoadControlCfg::default() };
        let (report, executed) = run_logged(specs.clone(), frames, lc);
        for ((spec, (pages, _)), t) in specs.iter().zip(&executed).zip(&report.tenants) {
            prop_assert_eq!(pages, &spec.trace.sample(spec.trace.len()), "tenant {}", spec.id);
            prop_assert_eq!(t.references, spec.trace.len());
        }
    }
}

/// The population of the ladder's unit test (600-reference tenants,
/// quota 1, the default 256-reference sample) with a thrash check every
/// 16 references, so the ladder's four rungs swap tenants out long
/// before their heads are served. Each still runs its trace in order.
#[test]
fn tenants_swapped_out_before_their_head_is_served_run_in_order() {
    let specs: Vec<TenantSpec> = (0..10)
        .map(|i| TenantSpec::new(i, phased(i, 600, 200), 1))
        .collect();
    let lc = LoadControlCfg {
        thrash_refs: 16,
        ..LoadControlCfg::default()
    };
    let (_, executed) = run_logged(specs.clone(), 4, lc);
    for (spec, (pages, swapped_at)) in specs.iter().zip(&executed) {
        let swapped_at = swapped_at.expect("every tenant thrashes at quota 1");
        assert!(swapped_at < lc.ws_sample as usize, "tenant {}", spec.id);
        assert_eq!(pages, &spec.trace.sample(600), "tenant {}", spec.id);
    }
}
