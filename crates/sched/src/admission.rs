//! The load-control layer: working-set admission and online allotments.
//!
//! Denning's working-set argument, applied to the paper's conclusion
//! (i): a tenant should be activated only if its *working set* fits in
//! the frames the pool still has free, because a tenant running with
//! less than its working set faults continuously and converts processor
//! time into drum queueing for everyone. Unless the caller measured a
//! tenant's working set beforehand
//! ([`crate::tenant::TenantSpec::ws_estimate`]), the controller
//! estimates its appetite from a short trace sample before activation:
//!
//! * [`estimate_ws`] — the windowed working-set size (mean resident set
//!   under a window of `tau` references, via
//!   [`dsa_paging::replacement::ws::working_set_sim`]);
//! * [`pick_allotment`] — the frame allotment actually granted: the
//!   smallest frame count whose LRU fault rate over the sample meets
//!   the target, capped by the working-set estimate and the tenant's
//!   quota, read off one [`CompactLru`] cut at that cap.
//!
//! Both are pure functions of the sample, so admission decisions are a
//! deterministic function of the tenant population — the property the
//! parallel sweep's byte-identity rests on.

use dsa_core::ids::PageNo;
use dsa_paging::compact::CompactLru;
use dsa_paging::replacement::ws::working_set_sim;

/// How tenants are activated against the shared frame pool.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AdmissionPolicy {
    /// Admit every tenant at time zero; private allotments
    /// equipartition the pool (each tenant gets `frames / population`,
    /// floor one), a shared pool is fought over. The "entirely
    /// independent decisions" case: past saturation the population
    /// thrashes.
    Open,
    /// Admit a tenant only while the granted allotments fit the pool;
    /// the rest wait in a priority-ordered backlog and enter as earlier
    /// tenants finish or are swapped out. Allotments come from
    /// [`pick_allotment`].
    WorkingSet,
    /// Private quotas: admit every tenant at time zero with its full
    /// quota as the allotment and no pool accounting — a fixed mix of
    /// programs, each with local replacement in its own frames
    /// (experiment E2).
    Fixed,
}

/// Load-controller tuning.
#[derive(Clone, Copy, Debug)]
pub struct LoadControlCfg {
    /// Working-set window `tau`, in references.
    pub ws_window: u64,
    /// References sampled from the head of each trace for estimation.
    pub ws_sample: u64,
    /// Target fault rate the allotment picker aims for on the sample.
    pub target_fault_rate: f64,
    /// References between thrash checks on an active tenant.
    pub thrash_refs: u32,
    /// Fault rate (over the last `thrash_refs` references) above which
    /// the degradation ladder is climbed for the tenant.
    pub thrash_fault_rate: f64,
    /// Total swap-outs (`ShedLoad` rungs) the run may take before the
    /// ladder stops deactivating — the same bounded-shed discipline as
    /// [`dsa_faults::ladder::ShedBudget`].
    pub shed_budget: u64,
}

impl Default for LoadControlCfg {
    fn default() -> Self {
        LoadControlCfg {
            ws_window: 128,
            ws_sample: 256,
            target_fault_rate: 0.05,
            thrash_refs: 64,
            thrash_fault_rate: 0.5,
            shed_budget: 1024,
        }
    }
}

/// Windowed working-set size estimate: the mean resident set under a
/// window of `tau` references over `sample`, rounded up, plus one frame
/// of slack for phase transitions. At least 1.
#[must_use]
pub fn estimate_ws(sample: &[PageNo], tau: u64) -> usize {
    if sample.is_empty() {
        return 1;
    }
    let report = working_set_sim(sample, tau.max(1));
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let mean = report.mean_resident.ceil() as usize;
    mean.saturating_add(1).max(1)
}

/// The frame allotment granted to a tenant: the smallest frame count
/// whose LRU fault rate over `sample` is at or below
/// `target_fault_rate`, capped by the working-set estimate `est_ws` and
/// by `quota`, floor 1.
///
/// LRU is a stack algorithm: a reference found at depth `d` of the
/// recency stack hits in every memory of at least `d` frames and faults
/// in every smaller one. No answer exceeds `cap` frames, and at every
/// size up to `cap` a re-reference from deeper than `cap` faults just
/// as a first touch does — so a stack `cap` deep, counting hits per
/// depth, holds the whole answer in one short scan per reference.
#[must_use]
pub fn pick_allotment(
    sample: &[PageNo],
    est_ws: usize,
    quota: usize,
    target_fault_rate: f64,
) -> usize {
    let cap = est_ws.max(1).min(quota.max(1));
    // No stack grows deeper than the sample's distinct pages.
    let depth = cap.min(sample.len());
    let mut stack = CompactLru::new(depth);
    // hits_at[d - 1]: references found at stack depth `d`.
    let mut hits_at = vec![0u64; depth];
    for &page in sample {
        if let Some(d) = stack.touch_depth(page) {
            hits_at[d - 1] += 1;
        }
    }
    let references = sample.len() as u64;
    let mut faults = references;
    for (below, hits) in hits_at.iter().enumerate() {
        faults -= hits;
        if faults as f64 / references as f64 <= target_fault_rate {
            return below + 1;
        }
    }
    cap
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_stackdist::lru::lru_success;
    use dsa_trace::rng::Rng64;

    fn p(xs: &[u64]) -> Vec<PageNo> {
        xs.iter().map(|&x| PageNo(x)).collect()
    }

    #[test]
    fn estimate_tracks_the_loop_size() {
        // A tight 3-page loop: mean resident ~3, estimate 4.
        let sample = p(&[1, 2, 3].repeat(50));
        let est = estimate_ws(&sample, 64);
        assert!((3..=4).contains(&est), "estimate {est}");
        assert_eq!(estimate_ws(&[], 64), 1);
    }

    #[test]
    fn allotment_meets_the_target_on_the_curve() {
        // 3-page loop: at 3 frames LRU stops faulting entirely.
        let sample = p(&[1, 2, 3].repeat(50));
        let a = pick_allotment(&sample, 10, 10, 0.05);
        assert_eq!(a, 3);
    }

    #[test]
    fn allotment_is_capped_by_estimate_and_quota() {
        // A sweep over 20 pages never meets the target below 20 frames;
        // the cap wins.
        let sweep: Vec<u64> = (0..200).map(|i| i % 20).collect();
        let sample = p(&sweep);
        assert_eq!(pick_allotment(&sample, 6, 100, 0.01), 6);
        assert_eq!(pick_allotment(&sample, 100, 4, 0.01), 4);
        assert_eq!(pick_allotment(&[], 5, 3, 0.01), 3);
    }

    #[test]
    fn single_page_tenant_needs_one_frame() {
        let sample = p(&[9; 100]);
        assert_eq!(estimate_ws(&sample, 32), 2);
        assert_eq!(pick_allotment(&sample, 2, 8, 0.05), 1);
    }

    /// What `pick_allotment` was before it stopped building the curve.
    fn walk_the_whole_curve(sample: &[PageNo], est_ws: usize, quota: usize, target: f64) -> usize {
        let cap = est_ws.max(1).min(quota.max(1));
        if sample.is_empty() {
            return cap;
        }
        let success = lru_success(sample);
        let limit = cap.min(success.saturation_frames().max(1));
        (1..=limit)
            .find(|&frames| success.fault_rate(frames) <= target)
            .unwrap_or(cap)
    }

    #[test]
    fn allotment_matches_the_walk_up_the_whole_curve() {
        let mut rng = Rng64::new(1967);
        for _ in 0..2_000 {
            // Universe 1 is the single-page tenant, length 0 the empty
            // sample; estimates and quotas fall on both sides of the
            // distinct-page count.
            let universe = 1 + rng.below(24);
            let sample: Vec<PageNo> = (0..rng.below(300))
                .map(|_| PageNo(rng.below(universe)))
                .collect();
            let (est_ws, quota) = (1 + rng.below(32) as usize, 1 + rng.below(32) as usize);
            for target in [0.0, 0.05, 1.0] {
                assert_eq!(
                    pick_allotment(&sample, est_ws, quota, target),
                    walk_the_whole_curve(&sample, est_ws, quota, target),
                    "{} refs over {universe} pages, est {est_ws}, quota {quota}, target {target}",
                    sample.len()
                );
            }
        }
    }
}
