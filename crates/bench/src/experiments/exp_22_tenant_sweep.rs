//! E22 — population-scale multi-tenant scheduling: the thrashing cliff
//! and its working-set rescue.
//!
//! The paper's conclusion (i) at the scale modern shared infrastructure
//! actually runs: not four jobs over one drum but a *population* of
//! tenants over a shared frame pool. The event-driven simulator
//! (`dsa_sched::EventSim`) makes the experiment affordable — blocked
//! time is jumped through a wake-ordered event queue and per-tenant
//! state is a stream recipe plus a compact LRU summary, so the default
//! run puts 100 000 tenants through the machine.
//!
//! The sweep crosses population size × frames-per-tenant × admission
//! policy. With open admission and a tight pool (one frame per
//! tenant), every tenant holds a sliver of its working set, nearly
//! every reference faults, the finite transfer channels queue, and
//! virtual throughput falls off a cliff. Working-set admission holds
//! the surplus tenants in a backlog and runs the population in
//! shifts: the same tight pool saturates gracefully instead.
//!
//! Each grid cell is an independent simulation on the `dsa-exec`
//! engine: stdout is byte-identical at any `--jobs` width (the golden
//! gauntlet pins `--tenants 1000`). Per-cell admission decisions and
//! a sampled cohort's faults and working-set estimates are tables too,
//! so `--metrics-out` lifts them like every other cell.

use dsa_core::clock::Cycles;
use dsa_exec::SimGrid;
use dsa_metrics::table::Table;
use dsa_probe::NullProbe;
use dsa_sched::admission::{estimate_ws, AdmissionPolicy, LoadControlCfg};
use dsa_sched::sim::SimConfig;
use dsa_sched::tenant::{TenantSpec, TraceSpec};
use dsa_sched::EventSim;
use dsa_trace::refstring::RefStringCfg;

use crate::cli::FlagSpec;
use crate::{Args, Failure, Report};

/// References per tenant: short sessions, population-scale count.
const REFS_PER_TENANT: u64 = 200;
/// Per-tenant page universe and working-set size.
const PAGES: u64 = 16;
const SET: u64 = 8;
/// Upper bound on any tenant's allotment.
const QUOTA: usize = 16;

/// The `--tenants N` flag: population at the largest sweep point.
pub(super) const TENANTS: FlagSpec = FlagSpec {
    name: "--tenants",
    value: Some("N"),
    help: "population at the largest sweep point (default 100000, min 100)",
};

fn sim_cfg() -> SimConfig {
    SimConfig {
        instr_time: Cycles::from_micros(10),
        fetch_time: Cycles::from_millis(2),
        page_size: 512,
        quantum_refs: 20,
        fetch_channels: Some(8), // eight transfer channels, shared
    }
}

fn load_cfg() -> LoadControlCfg {
    LoadControlCfg::default()
}

/// One point of the sweep: a population, its frame pool, and the
/// admission policy that arbitrates between them.
#[derive(Clone, Copy)]
struct Point {
    tenants: usize,
    frames: usize,
    policy: AdmissionPolicy,
}

fn tenant_spec(i: u32) -> TenantSpec {
    TenantSpec::new(
        i,
        TraceSpec::Stream {
            cfg: RefStringCfg::WorkingSetPhases {
                pages: PAGES,
                set: SET,
                phase_len: 80,
            },
            write_fraction: 0.0,
            seed: u64::from(i) + 1,
            len: REFS_PER_TENANT,
        },
        QUOTA,
    )
}

fn policy_label(policy: AdmissionPolicy) -> &'static str {
    match policy {
        AdmissionPolicy::Open => "open",
        AdmissionPolicy::WorkingSet => "working-set",
        AdmissionPolicy::Fixed => "fixed",
    }
}

pub(super) fn run(args: &Args, rep: &mut Report) -> Result<(), Failure> {
    let max = args.count(TENANTS)
        .unwrap_or(100_000)
        .max(100);
    let mut t = Table::new(&["largest population", "pages", "working set", "refs each", "channels"])
        .with_title("tenants ('tight' pools hold one frame per tenant, 'ample' eight)");
    t.row_owned(vec![
        max.to_string(),
        PAGES.to_string(),
        SET.to_string(),
        REFS_PER_TENANT.to_string(),
        "8".to_owned(),
    ]);
    rep.table("tenants", t);

    let populations = [max / 100, max / 10, max];
    let regimes = [("tight", 1usize), ("ample", 8usize)];
    let policies = [AdmissionPolicy::Open, AdmissionPolicy::WorkingSet];
    let mut points = Vec::new();
    for &tenants in &populations {
        for &(_, per) in &regimes {
            for &policy in &policies {
                points.push(Point {
                    tenants,
                    frames: tenants * per,
                    policy,
                });
            }
        }
    }

    // Each point is an independent simulation whose population is a
    // pure function of the point, and cells merge in grid order, so
    // the sweep is byte-identical at any worker count.
    let cells = SimGrid::new(points).run(args.jobs(), |_, &point| {
        let specs = (0..point.tenants as u32).map(tenant_spec).collect();
        let sim = EventSim::new(sim_cfg(), point.frames, point.policy, load_cfg(), specs);
        let report = sim.run(&mut NullProbe).expect("compact resident sets cannot fail");
        (point, report)
    });

    let mut t = Table::new(&[
        "tenants",
        "pool",
        "policy",
        "peak active",
        "swaps",
        "faults/ref",
        "cpu util",
        "refs/s",
    ])
    .with_title("tenant-count x memory-size sweep");
    let mut admission = Table::new(&["cell", "admissions", "deferred", "faults", "mean ws"])
        .with_title("admission decisions per cell");
    for (p, r) in &cells {
        let pool = regimes
            .iter()
            .find(|&&(_, per)| p.frames == p.tenants * per)
            .map_or("?", |&(label, _)| label);
        let policy = policy_label(p.policy);
        t.row_owned(vec![
            p.tenants.to_string(),
            pool.to_owned(),
            policy.to_owned(),
            r.peak_active.to_string(),
            r.deactivations.to_string(),
            format!("{:.3}", r.fault_rate()),
            format!("{:.1}%", r.cpu_utilization() * 100.0),
            format!("{:.0}", r.refs_per_second()),
        ]);
        admission.row_owned(vec![
            format!("{} {pool} {policy}", p.tenants),
            r.admissions.to_string(),
            r.admission_rejects.to_string(),
            r.faults.to_string(),
            format!("{:.2}", r.mean_ws_estimate),
        ]);
    }
    rep.table("tenant_sweep", t);
    rep.table("admission", admission);

    // A sampled cohort of the largest tight working-set cell: what each
    // tenant faulted, and the working set admission estimated for it.
    let (_, cohort) = cells
        .iter()
        .rfind(|(p, _)| p.policy == AdmissionPolicy::WorkingSet && p.frames == p.tenants)
        .expect("every population has a tight working-set cell");
    let lc = load_cfg();
    let mut t = Table::new(&["tenant", "faults", "ws estimate"])
        .with_title("a cohort of the largest tight working-set cell");
    for report in cohort.tenants.iter().take(8) {
        let spec = tenant_spec(report.id);
        let est = estimate_ws(&spec.trace.sample(lc.ws_sample), lc.ws_window);
        t.row_owned(vec![
            report.id.to_string(),
            report.faults.to_string(),
            est.to_string(),
        ]);
    }
    rep.table("cohort", t);
    Ok(())
}
