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
//! * `pick_allotment` — the frame allotment actually granted: the
//!   smallest frame count whose LRU fault rate over the sample meets
//!   the target, capped by the working-set estimate and the tenant's
//!   quota, read off one [`CompactLru`] cut at that cap, and answered
//!   `cap` as soon as the misses at the cap exceed the target's share.
//!
//! [`LoadControlCfg`] holds what callers choose: the window, the sample
//! and the thrash-check period. The target fault rate (5 %), the thrash
//! rate that climbs the ladder (50 %) and the run's shed budget (1,024
//! swap-outs) are constants, since every caller uses the same ones.
//!
//! The simulator's sample is the head of the tenant's own trace cursor,
//! drawn once and served afterwards, not a second draw of the stream.
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
    /// `pick_allotment`.
    WorkingSet,
    /// Private quotas: admit every tenant at time zero with its full
    /// quota as the allotment and no pool accounting — a fixed mix of
    /// programs, each with local replacement in its own frames
    /// (experiment E2).
    Fixed,
}

/// Target fault rate the allotment picker aims for on the sample.
pub(crate) const TARGET_FAULT_RATE: f64 = 0.05;

/// Fault rate (over the last [`LoadControlCfg::thrash_refs`]
/// references) above which the degradation ladder is climbed for the
/// tenant.
pub(crate) const THRASH_FAULT_RATE: f64 = 0.5;

/// Total swap-outs (`ShedLoad` rungs) a run may take before the ladder
/// stops deactivating — the same bounded-shed discipline as
/// [`dsa_faults::ladder::ShedBudget`].
pub(crate) const SHED_BUDGET: u32 = 1024;

/// Load-controller tuning: the settings callers choose. The rates and
/// the shed budget every caller shares are the constants above.
#[derive(Clone, Copy, Debug)]
pub struct LoadControlCfg {
    /// Working-set window `tau`, in references.
    pub ws_window: u64,
    /// References sampled from the head of each trace for estimation.
    pub ws_sample: u64,
    /// References between thrash checks on an active tenant.
    pub thrash_refs: u32,
}

impl Default for LoadControlCfg {
    fn default() -> Self {
        LoadControlCfg {
            ws_window: 128,
            ws_sample: 256,
            thrash_refs: 64,
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
/// `target`, capped by the working-set estimate `est_ws` and
/// by `quota`, floor 1.
///
/// LRU is a stack algorithm: a reference found at depth `d` of the
/// recency stack hits in every memory of at least `d` frames and faults
/// in every smaller one. No answer exceeds `cap` frames, and at every
/// size up to `cap` a re-reference from deeper than `cap` faults just
/// as a first touch does — so a stack `cap` deep, counting hits per
/// depth, holds the whole answer in one short scan per reference.
///
/// The scan stops early once the answer can only be `cap`. Its misses
/// are the faults of `cap` frames so far, and a stack algorithm faults
/// at every size up to `cap` at least as often as at `cap`. Converting
/// a count to `f64` and dividing it by the same positive `n` is
/// monotone, so once `misses / n > target` no size's `faults / n <=
/// target` test can pass, and the walk up the curve would fall through
/// to `cap`. The test is that expression itself, not an integer budget
/// derived from `target · n`, whose rounding could disagree with it.
#[must_use]
pub(crate) fn pick_allotment(sample: &[PageNo], est_ws: usize, quota: usize, target: f64) -> usize {
    let cap = est_ws.max(1).min(quota.max(1));
    // No stack grows deeper than the sample's distinct pages.
    let depth = cap.min(sample.len());
    let mut stack = CompactLru::new(depth);
    // hits_at[d - 1]: references found at stack depth `d`.
    let mut hits_at = vec![0u64; depth];
    let references = sample.len() as u64;
    // Misses at `cap` frames: below `cap`, `depth` frames hold every
    // page of the sample, so the shorter stack misses where `cap` does.
    let mut misses = 0u64;
    for &page in sample {
        match stack.touch_depth(page) {
            Some(d) => hits_at[d - 1] += 1,
            None => {
                misses += 1;
                if misses as f64 / references as f64 > target {
                    return cap;
                }
            }
        }
    }
    let mut faults = references;
    for (below, hits) in hits_at.iter().enumerate() {
        faults -= hits;
        if faults as f64 / references as f64 <= target {
            return below + 1;
        }
    }
    cap
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_stackdist::lru::lru_success;
    use dsa_trace::refstring::RefStringCfg;
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

    /// Whether the misses of `cap` frames pass `target` before the last
    /// reference of `sample`, so that the scan stops early.
    fn crosses_mid_scan(sample: &[PageNo], cap: usize, target: f64) -> bool {
        let n = sample.len() as f64;
        let mut resident = CompactLru::new(cap);
        let mut misses = 0u64;
        sample[..sample.len().saturating_sub(1)]
            .iter()
            .any(|&page| {
                misses += u64::from(resident.touch(page));
                misses as f64 / n > target
            })
    }

    #[test]
    fn allotment_matches_the_walk_up_the_whole_curve() {
        // The early exit's boundary, pinned: one fault in 49 references
        // meets a target of exactly 1/49, although `(1.0 / 49.0) * 49.0`
        // rounds below 1, and three first touches in 150 meet 3/150.
        assert_eq!(pick_allotment(&p(&[7; 49]), 5, 5, 1.0 / 49.0), 1);
        let three = p(&[1, 2, 3].repeat(50));
        assert_eq!(pick_allotment(&three, 10, 10, 3.0 / 150.0), 3);

        let mut rng = Rng64::new(1967);
        let phases = RefStringCfg::WorkingSetPhases {
            pages: 16,
            set: 8,
            phase_len: 80,
        };
        let mut crossed = 0;
        for round in 0..2_000 {
            // Universe 1 is the single-page tenant, length 0 the empty
            // sample; estimates and quotas fall on both sides of the
            // distinct-page count. Every fourth sample is the head of a
            // phased stream like the benchmark's tenants, whose misses
            // pass 5 % at every size well before the end.
            let len = rng.below(300);
            let sample: Vec<PageNo> = if round % 4 == 0 {
                phases
                    .stream(0.0, round)
                    .pages()
                    .take(len as usize)
                    .collect()
            } else {
                let universe = 1 + rng.below(24);
                (0..len).map(|_| PageNo(rng.below(universe))).collect()
            };
            let (est_ws, quota) = (1 + rng.below(32) as usize, 1 + rng.below(32) as usize);
            // Targets of exactly `k / n` beside the misses at the cap
            // put the exit on its `>` boundary.
            let cap = est_ws.min(quota);
            let at_cap = lru_success(&sample).faults(cap);
            let n = len.max(1) as f64;
            let boundary = (at_cap.saturating_sub(1)..=at_cap + 1).map(|k| k as f64 / n);
            for target in [0.0, 0.05, 1.0].into_iter().chain(boundary) {
                crossed += u32::from(crosses_mid_scan(&sample, cap, target));
                assert_eq!(
                    pick_allotment(&sample, est_ws, quota, target),
                    walk_the_whole_curve(&sample, est_ws, quota, target),
                    "{len} refs, round {round}, est {est_ws}, quota {quota}, target {target}",
                );
            }
        }
        assert!(crossed > 4_000, "only {crossed} scans stop early");
    }
}
