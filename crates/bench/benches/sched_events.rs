//! Event-driven scheduler throughput at population scale, against the
//! per-cycle reference stepper.
//!
//! The reference [`MultiprogramSim`] carries a materialized trace and a
//! full paging engine per job, so its cost (and footprint) grows with
//! the population even while everyone is blocked. [`EventSim`] parks
//! blocked tenants in a wake-ordered FIFO (wakes arrive already sorted)
//! and keeps tenants compact, so the same mix costs what its *executed
//! references* cost. This group measures whole runs — build plus
//! simulate — at 1k/10k/100k tenants with working-set admission on, and
//! the stepper at 1k as the "before" point. `BENCH_08.json` records the
//! medians; the CI bench guard reruns the group in smoke mode and fails
//! on a >3x regression of the guarded medians.

use criterion::{criterion_group, criterion_main, Criterion};
use dsa_core::clock::Cycles;
use dsa_core::ids::JobId;
use dsa_paging::replacement::lru::LruRepl;
use dsa_probe::NullProbe;
use dsa_sched::{
    AdmissionPolicy, EventSim, JobSpec, LoadControlCfg, MultiprogramSim, SimConfig, TenantSpec,
    TraceSpec,
};
use dsa_trace::refstring::RefStringCfg;
use dsa_trace::rng::Rng64;

/// Short sessions: the population is the scale axis, not the traces.
const REFS: u64 = 50;

fn sim_cfg() -> SimConfig {
    SimConfig {
        instr_time: Cycles::from_micros(10),
        fetch_time: Cycles::from_millis(2),
        page_size: 512,
        quantum_refs: 20,
        fetch_channels: Some(8),
    }
}

fn refstring() -> RefStringCfg {
    RefStringCfg::WorkingSetPhases {
        pages: 16,
        set: 6,
        phase_len: 40,
    }
}

fn tenants(n: u32) -> Vec<TenantSpec> {
    (0..n)
        .map(|i| {
            TenantSpec::new(
                i,
                TraceSpec::Stream {
                    cfg: refstring(),
                    write_fraction: 0.0,
                    seed: u64::from(i) + 1,
                    len: REFS,
                },
                8,
            )
        })
        .collect()
}

fn run_event(n: u32) -> u64 {
    let sim = EventSim::new(
        sim_cfg(),
        n as usize * 8,
        AdmissionPolicy::WorkingSet,
        LoadControlCfg::default(),
        tenants(n),
    );
    sim.run(&mut NullProbe)
        .expect("compact sets cannot fail")
        .references
}

fn run_stepper(n: u32) -> u64 {
    let specs: Vec<JobSpec> = (0..n)
        .map(|i| JobSpec {
            id: JobId(i),
            trace: refstring().generate_pages(REFS as usize, &mut Rng64::new(u64::from(i) + 1)),
            frames: 8,
            replacer: Box::new(LruRepl::new()),
        })
        .collect();
    let report = MultiprogramSim::new(sim_cfg(), specs)
        .run()
        .expect("no pinning");
    report.jobs.iter().map(|j| j.references).sum()
}

fn sched_events(c: &mut Criterion) {
    let mut g = c.benchmark_group("sched_events");
    g.bench_function("stepper_1k", |b| b.iter(|| run_stepper(1_000)));
    g.bench_function("event_1k", |b| b.iter(|| run_event(1_000)));
    g.bench_function("event_10k", |b| b.iter(|| run_event(10_000)));
    g.bench_function("event_100k", |b| b.iter(|| run_event(100_000)));
    g.finish();
}

criterion_group!(benches, sched_events);
criterion_main!(benches);
