//! Event-driven scheduler throughput at population scale.
//!
//! [`EventSim`] parks blocked tenants in a wake-ordered FIFO (wakes
//! arrive already sorted) and keeps tenants compact, so a mix costs
//! what its *executed references* cost, however many tenants are
//! blocked. This group measures whole runs — build plus simulate — at
//! 1k/10k/100k tenants with working-set admission on. `BENCH_08.json`
//! records the medians PR 10 took, beside the per-reference stepper
//! that `EventSim` has since replaced.

use criterion::{criterion_group, criterion_main, Criterion};
use dsa_core::clock::Cycles;
use dsa_probe::NullProbe;
use dsa_sched::{AdmissionPolicy, EventSim, LoadControlCfg, SimConfig, TenantSpec, TraceSpec};
use dsa_trace::refstring::RefStringCfg;

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

fn sched_events(c: &mut Criterion) {
    let mut g = c.benchmark_group("sched_events");
    g.bench_function("event_1k", |b| b.iter(|| run_event(1_000)));
    g.bench_function("event_10k", |b| b.iter(|| run_event(10_000)));
    g.bench_function("event_100k", |b| b.iter(|| run_event(100_000)));
    g.finish();
}

criterion_group!(benches, sched_events);
criterion_main!(benches);
