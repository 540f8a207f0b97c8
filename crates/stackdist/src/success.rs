//! Results of a stack-distance pass: per-reference distances and the
//! success function they induce.

use dsa_core::clock::VirtualTime;

/// The stack distance of a first touch: no memory size hits it.
pub const INFINITE: u64 = u64::MAX;

/// Per-reference stack distances, in trace order.
///
/// Distance `d` means the reference hits in any memory of at least `d`
/// frames and faults in any smaller one; [`INFINITE`] marks first
/// touches (compulsory faults at every size). Keeping the full vector
/// — not just its histogram — lets callers recover the exact fault
/// *positions* at any size ([`StackDistances::fault_times`]), e.g. to
/// replay the fault stream of a chosen size into a latency probe.
#[derive(Clone, Debug)]
pub struct StackDistances {
    dist: Vec<u64>,
}

impl StackDistances {
    /// Wraps a distance vector (one entry per reference).
    #[must_use]
    pub(crate) fn new(dist: Vec<u64>) -> StackDistances {
        StackDistances { dist }
    }

    /// The distances, in trace order.
    #[must_use]
    pub fn distances(&self) -> &[u64] {
        &self.dist
    }

    /// Reference times (= trace positions) that fault in a memory of
    /// `frames` frames: exactly those with distance `> frames`.
    pub fn fault_times(&self, frames: usize) -> impl Iterator<Item = VirtualTime> + '_ {
        self.dist
            .iter()
            .enumerate()
            .filter(move |&(_, &d)| d > frames as u64)
            .map(|(i, _)| i as VirtualTime)
    }

    /// Collapses the distances into the success function.
    #[must_use]
    pub fn success(&self) -> SuccessFunction {
        SuccessFunction::from_distances(&self.dist)
    }
}

/// Exact fault counts for **all** frame counts at once — Mattson's
/// success function, stored as a cumulative fault curve.
#[derive(Clone, Debug)]
pub struct SuccessFunction {
    references: u64,
    /// `faults_at[c]` = faults in a memory of `c` frames, for
    /// `c <= max_finite_distance`; beyond the table only compulsory
    /// faults remain.
    faults_at: Vec<u64>,
    /// First touches: faults at every size.
    compulsory: u64,
}

impl SuccessFunction {
    /// Builds the curve from per-reference distances ([`INFINITE`] for
    /// first touches).
    #[must_use]
    pub(crate) fn from_distances(dist: &[u64]) -> SuccessFunction {
        let mut compulsory = 0u64;
        let max_finite = dist
            .iter()
            .filter(|&&d| d != INFINITE)
            .max()
            .copied()
            .unwrap_or(0) as usize;
        // hist[d] = references at finite distance d (1-based).
        let mut hist = vec![0u64; max_finite + 1];
        for &d in dist {
            if d == INFINITE {
                compulsory += 1;
            } else {
                hist[d as usize] += 1;
            }
        }
        // faults(c) = compulsory + #{finite d > c}: a suffix sum.
        let mut faults_at = vec![0u64; max_finite + 1];
        let mut beyond = 0u64;
        for c in (0..=max_finite).rev() {
            faults_at[c] = compulsory + beyond;
            beyond += hist[c];
        }
        SuccessFunction {
            references: dist.len() as u64,
            faults_at,
            compulsory,
        }
    }

    /// Builds the curve from a distance *histogram* (`hist[d]` =
    /// references at finite distance `d`) plus the compulsory count —
    /// the shape a streaming pass accumulates without ever holding the
    /// per-reference vector. Trailing zero buckets are ignored, so the
    /// result is identical to [`SuccessFunction::from_distances`] over
    /// the distances the histogram summarizes.
    #[must_use]
    pub(crate) fn from_histogram(hist: &[u64], compulsory: u64) -> SuccessFunction {
        let max_finite = hist.iter().rposition(|&n| n > 0).unwrap_or(0);
        let mut faults_at = vec![0u64; max_finite + 1];
        let mut beyond = 0u64;
        for c in (0..=max_finite).rev() {
            faults_at[c] = compulsory + beyond;
            beyond += hist.get(c).copied().unwrap_or(0);
        }
        SuccessFunction {
            references: compulsory + hist.iter().sum::<u64>(),
            faults_at,
            compulsory,
        }
    }

    /// References in the trace.
    #[must_use]
    pub fn references(&self) -> u64 {
        self.references
    }

    /// Compulsory (first-touch) faults — the floor of the curve.
    #[must_use]
    pub fn compulsory(&self) -> u64 {
        self.compulsory
    }

    /// Smallest frame count at which only compulsory faults remain.
    #[must_use]
    pub fn saturation_frames(&self) -> usize {
        self.faults_at.len().saturating_sub(1)
    }

    /// Exact fault count in a memory of `frames` frames.
    #[must_use]
    pub fn faults(&self, frames: usize) -> u64 {
        match self.faults_at.get(frames) {
            Some(&f) => f,
            // Beyond the largest finite distance every reference after
            // its first touch hits.
            None => self.compulsory,
        }
    }

    /// Faults per reference at `frames` frames, matching
    /// `PagingStats::fault_rate` (0 on an empty trace).
    #[must_use]
    pub fn fault_rate(&self, frames: usize) -> f64 {
        if self.references == 0 {
            0.0
        } else {
            self.faults(frames) as f64 / self.references as f64
        }
    }

    /// The fault curve sampled at `frame_counts`.
    #[must_use]
    pub fn curve(&self, frame_counts: &[usize]) -> Vec<u64> {
        frame_counts.iter().map(|&c| self.faults(c)).collect()
    }

    /// The fault-rate curve sampled at `frame_counts`.
    #[must_use]
    pub fn rate_curve(&self, frame_counts: &[usize]) -> Vec<f64> {
        frame_counts.iter().map(|&c| self.fault_rate(c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_is_a_suffix_sum_over_the_histogram() {
        // Distances: 1, 2, 2, 3, ∞, ∞.
        let d = vec![1, 2, 2, 3, INFINITE, INFINITE];
        let s = SuccessFunction::from_distances(&d);
        assert_eq!(s.references(), 6);
        assert_eq!(s.compulsory(), 2);
        assert_eq!(s.faults(0), 6);
        assert_eq!(s.faults(1), 5);
        assert_eq!(s.faults(2), 3);
        assert_eq!(s.faults(3), 2);
        assert_eq!(s.faults(100), 2);
        assert_eq!(s.curve(&[1, 2, 3]), vec![5, 3, 2]);
        assert_eq!(s.saturation_frames(), 3);
    }

    #[test]
    fn fault_rate_divides_by_references() {
        let s = SuccessFunction::from_distances(&[1, INFINITE]);
        assert!((s.fault_rate(1) - 0.5).abs() < 1e-12);
        let empty = SuccessFunction::from_distances(&[]);
        assert_eq!(empty.fault_rate(4), 0.0);
        assert_eq!(empty.faults(4), 0);
    }

    #[test]
    fn fault_times_are_positions_with_larger_distance() {
        let sd = StackDistances::new(vec![INFINITE, 1, 3, 2, INFINITE]);
        assert_eq!(sd.fault_times(2).collect::<Vec<_>>(), vec![0, 2, 4]);
        assert_eq!(sd.fault_times(3).collect::<Vec<_>>(), vec![0, 4]);
        assert_eq!(sd.success().faults(2), 3);
    }
}
