//! The parallel sweep entry point for the multiprogramming simulator.
//!
//! Experiment drivers sweep [`EventSim`] over grids — population size ×
//! frame pool × admission policy — and every point of such a grid is an
//! independent simulation. [`tenant_sweep`] puts that independence on
//! the [`dsa_exec`] engine: each point is built and run on a worker,
//! and the reports come back in grid order, so a sweep's results are a
//! pure function of its grid no matter how many workers executed it.

use crate::admission::{AdmissionPolicy, LoadControlCfg};
use crate::event::{EventReport, EventSim};
use crate::sim::SimConfig;
use crate::tenant::TenantSpec;
use dsa_core::error::CoreError;
use dsa_exec::SimGrid;
use dsa_probe::NullProbe;

/// One point of a tenant-population sweep: a population size, a frame
/// pool, and the admission policy that arbitrates between them.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SweepPoint {
    /// Number of tenants in the population.
    pub tenants: usize,
    /// Page frames in the pool tenants are admitted against.
    pub frames: usize,
    /// How tenants are admitted against the pool.
    pub policy: AdmissionPolicy,
}

/// One finished point of a tenant sweep: the point plus its report.
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// The grid point.
    pub point: SweepPoint,
    /// The population's report.
    pub report: EventReport,
}

/// Runs one [`EventSim`] per sweep point across `jobs` workers.
/// `specs` builds a point's tenant population on the worker that runs
/// it. Results return in grid order, and every build is a pure
/// function of its point, so the sweep's output is byte-identical at
/// any `jobs` — the property `exp_22_tenant_sweep`'s golden gauntlet
/// entry pins.
pub fn tenant_sweep(
    jobs: usize,
    points: Vec<SweepPoint>,
    cfg: SimConfig,
    lc: LoadControlCfg,
    specs: impl Fn(SweepPoint) -> Vec<TenantSpec> + Sync,
) -> Vec<Result<SweepCell, CoreError>> {
    SimGrid::new(points).run(jobs, |_, &point| {
        let sim = EventSim::new(cfg, point.frames, point.policy, lc, specs(point));
        sim.run(&mut NullProbe)
            .map(|report| SweepCell { point, report })
    })
}
