//! E16 — conclusion (i): storage allocation integrated with scheduling.
//!
//! "A system in which entirely independent decisions are taken as to
//! processor scheduling and storage allocation is unlikely to perform
//! acceptably in any but the most undemanding of environments."
//!
//! A shared pool of frames, one drum channel, and a growing batch of
//! identical phase-structured jobs. The independent scheduler admits
//! every job at once; the integrated one admits jobs only while their
//! working-set estimates (measured beforehand with the working-set
//! simulator — the storage side talking to the scheduling side) fit in
//! core. Past saturation the independent system thrashes; the
//! integrated one runs in shifts.

use dsa_core::clock::Cycles;
use dsa_exec::{product2, SimGrid};
use dsa_metrics::table::Table;
use dsa_paging::replacement::ws::working_set_sim;
use dsa_probe::NullProbe;
use dsa_sched::{AdmissionPolicy, EventSim, LoadControlCfg, SimConfig, TenantSpec, TraceSpec};
use dsa_trace::refstring::RefStringCfg;
use dsa_trace::rng::Rng64;

use crate::{Args, Failure, Report};

const FRAMES: usize = 32;
const REFS: usize = 6_000;

fn job_specs(n: usize) -> Vec<TenantSpec> {
    (0..n)
        .map(|i| {
            let trace = RefStringCfg::WorkingSetPhases {
                pages: 24,
                set: 8,
                phase_len: 500,
            }
            .generate_pages(REFS, &mut Rng64::new(160 + i as u64));
            // The integration: measure the job's appetite with the
            // working-set simulator and hand it to the scheduler.
            let ws = working_set_sim(&trace, 400).mean_resident.ceil() as usize + 2;
            let mut spec = TenantSpec::new(i as u32, TraceSpec::Pages(trace), FRAMES);
            spec.ws_estimate = Some(ws);
            spec
        })
        .collect()
}

fn cfg() -> SimConfig {
    SimConfig {
        instr_time: Cycles::from_micros(10),
        fetch_time: Cycles::from_millis(4),
        page_size: 512,
        quantum_refs: 50,
        fetch_channels: Some(1), // one drum channel
    }
}

pub(super) fn run(args: &Args, rep: &mut Report) -> Result<(), Failure> {
    let mut t = Table::new(&[
        "jobs",
        "policy",
        "peak admitted",
        "faults",
        "cpu util",
        "makespan",
        "jobs/s",
    ])
    .with_title(&format!(
        "{FRAMES} shared frames, one drum channel, ~10-page working sets"
    ));
    // Every (batch size, admission policy) pair simulates its own job
    // mix from fixed seeds — an independent point of the grid. The
    // estimates come with the jobs, so the load controller never
    // samples, and its thrash detector is off: admission alone is the
    // integration under test.
    let policies = [
        ("independent", AdmissionPolicy::Open),
        ("integrated", AdmissionPolicy::WorkingSet),
    ];
    let lc = LoadControlCfg {
        thrash_refs: u32::MAX,
        ..LoadControlCfg::default()
    };
    let grid = SimGrid::new(product2(&[2usize, 4, 8, 16], &policies));
    for row in grid.run(args.jobs(), |_, &(n, (label, policy))| {
        let r = EventSim::with_shared_pool(cfg(), FRAMES, policy, lc, job_specs(n))
            .run(&mut NullProbe)
            .expect("no pinning");
        let jobs_per_second = n as f64 / (r.makespan.as_nanos() as f64 / 1e9);
        vec![
            n.to_string(),
            label.to_owned(),
            r.peak_active.to_string(),
            r.faults.to_string(),
            format!("{:.1}%", r.cpu_utilization() * 100.0),
            r.makespan.to_string(),
            format!("{jobs_per_second:.2}"),
        ]
    }) {
        t.row_owned(row);
    }
    rep.table("load_control", t);
    Ok(())
}
