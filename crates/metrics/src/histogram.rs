//! Bucketed histograms with percentile queries.

use core::fmt;

/// How sample values are mapped to buckets — the public, copyable
/// description of a histogram's geometry.
///
/// Two sinks built from the same `BucketSpec` are guaranteed to bucket
/// identically, which is what lets a relaxed-atomic accumulator
/// (`dsa-telemetry`'s `AtomicHistogram`) reassemble an ordinary
/// [`Histogram`] via [`Histogram::from_parts`] and answer percentile
/// queries through this crate's single [`Histogram::quantile`]
/// implementation instead of growing its own.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BucketSpec {
    /// `buckets` equal-width buckets of `width` covering
    /// `[0, width * buckets)`.
    Linear {
        /// Width of each bucket.
        width: u64,
        /// Number of buckets.
        buckets: usize,
    },
    /// `buckets` power-of-two buckets: bucket *i* covers
    /// `[2^i, 2^(i+1))`, with bucket 0 covering `[0, 2)`.
    Log2 {
        /// Number of buckets (at most 64).
        buckets: usize,
    },
}

impl BucketSpec {
    /// Number of buckets this spec describes.
    #[must_use]
    pub fn bucket_count(&self) -> usize {
        match *self {
            BucketSpec::Linear { buckets, .. } | BucketSpec::Log2 { buckets } => buckets,
        }
    }

    /// The bucket index of sample `v`, or `None` when it falls in the
    /// overflow region.
    #[must_use]
    pub fn index_of(&self, v: u64) -> Option<usize> {
        let idx = match *self {
            BucketSpec::Linear { width, .. } => (v / width) as usize,
            BucketSpec::Log2 { .. } => {
                if v < 2 {
                    0
                } else {
                    (63 - v.leading_zeros()) as usize
                }
            }
        };
        (idx < self.bucket_count()).then_some(idx)
    }

    /// Lower bound of bucket `i`.
    #[must_use]
    pub(crate) fn low(&self, i: usize) -> u64 {
        match *self {
            BucketSpec::Linear { width, .. } => i as u64 * width,
            BucketSpec::Log2 { .. } => {
                if i == 0 {
                    0
                } else {
                    1u64 << i
                }
            }
        }
    }

    fn validate(&self) {
        match *self {
            BucketSpec::Linear { width, buckets } => {
                assert!(width > 0, "bucket width must be positive");
                assert!(buckets > 0, "bucket count must be positive");
            }
            BucketSpec::Log2 { buckets } => {
                assert!(
                    buckets > 0 && buckets <= 64,
                    "log2 bucket count must be in 1..=64"
                );
            }
        }
    }
}

/// Shared histogram geometries: the one place the standard telemetry
/// distributions are shaped, so the sequential probes (`LatencyProbe`)
/// and the always-on atomic telemetry report percentiles over the exact
/// same buckets and can never diverge.
pub mod geometry {
    use super::BucketSpec;

    /// Fault-service latency in nanoseconds (log2, up to ~18 minutes).
    pub const FAULT_SERVICE_NS: BucketSpec = BucketSpec::Log2 { buckets: 40 };
    /// Inter-fault distance in references (log2, up to ~4e9 refs).
    pub const INTER_FAULT_REFS: BucketSpec = BucketSpec::Log2 { buckets: 32 };
    /// Free-list entries examined per allocation (exact up to 255).
    pub const SEARCH_LEN: BucketSpec = BucketSpec::Linear {
        width: 1,
        buckets: 256,
    };
    /// Allocation-request size in words (log2).
    pub const ALLOC_WORDS: BucketSpec = BucketSpec::Log2 { buckets: 32 };
}

/// A histogram over `u64` samples.
///
/// Samples beyond the last bucket are counted in an overflow bucket so
/// totals and means remain exact; percentiles saturate at the overflow
/// bucket's lower bound.
///
/// # Examples
///
/// ```
/// use dsa_metrics::histogram::Histogram;
///
/// let mut h = Histogram::linear(10, 10); // buckets [0,10), [10,20), ... [90,100)
/// for v in [1, 5, 15, 95, 250] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.bucket_count(0), 2);
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Histogram {
    spec: BucketSpec,
    buckets: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: u128,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram with the given bucketing.
    ///
    /// # Panics
    ///
    /// Panics if the spec is degenerate (zero width, zero buckets, or
    /// more than 64 log2 buckets).
    #[must_use]
    pub fn with_spec(spec: BucketSpec) -> Histogram {
        spec.validate();
        Histogram {
            spec,
            buckets: vec![0; spec.bucket_count()],
            overflow: 0,
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Creates a histogram with `n` equal-width buckets of `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `n` is zero.
    #[must_use]
    pub fn linear(width: u64, n: usize) -> Histogram {
        Histogram::with_spec(BucketSpec::Linear { width, buckets: n })
    }

    /// Creates a histogram with `n` power-of-two buckets; bucket *i*
    /// covers `[2^i, 2^(i+1))` (bucket 0 covers `[0, 2)`).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds 64.
    #[must_use]
    pub fn log2(n: usize) -> Histogram {
        Histogram::with_spec(BucketSpec::Log2 { buckets: n })
    }

    /// Reassembles a histogram from externally accumulated parts — the
    /// bridge that lets an atomic accumulator freeze its relaxed
    /// counters into an ordinary histogram and answer quantile queries
    /// through the one implementation here.
    ///
    /// `buckets[i]` is the sample count of bucket `i` under `spec`;
    /// `overflow`, `sum` and `max` describe the same sample set.
    ///
    /// # Panics
    ///
    /// Panics if `buckets.len()` disagrees with the spec or the bucket
    /// counts plus overflow don't sum to `count`.
    #[must_use]
    pub fn from_parts(
        spec: BucketSpec,
        buckets: Vec<u64>,
        overflow: u64,
        sum: u128,
        max: u64,
    ) -> Histogram {
        spec.validate();
        assert_eq!(
            buckets.len(),
            spec.bucket_count(),
            "bucket vector disagrees with the spec"
        );
        let count = buckets.iter().sum::<u64>() + overflow;
        Histogram {
            spec,
            buckets,
            overflow,
            count,
            sum,
            max,
        }
    }

    /// This histogram's bucketing, for building a matching accumulator.
    #[must_use]
    pub fn spec(&self) -> BucketSpec {
        self.spec
    }

    fn bucket_of(&self, v: u64) -> Option<usize> {
        self.spec.index_of(v)
    }

    /// Lower bound of bucket `i`.
    #[must_use]
    pub fn bucket_low(&self, i: usize) -> u64 {
        self.spec.low(i)
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        match self.bucket_of(v) {
            Some(i) => self.buckets[i] += 1,
            None => self.overflow += 1,
        }
        self.count += 1;
        self.sum += u128::from(v);
        self.max = self.max.max(v);
    }

    /// Total number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact mean of all samples, or 0 if empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest sample seen, or 0 if empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Number of samples in bucket `i`.
    #[must_use]
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Number of samples beyond the last bucket.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// The lower bound of the bucket containing the `q`-quantile
    /// (`0.0 ..= 1.0`), or 0 if the histogram is empty. Saturates at the
    /// overflow region's lower bound.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return self.bucket_low(i);
            }
        }
        // Target lies in the overflow region.
        self.bucket_low(self.buckets.len() - 1)
            + match self.spec {
                BucketSpec::Linear { width, .. } => width,
                BucketSpec::Log2 { .. } => self.bucket_low(self.buckets.len() - 1),
            }
    }

    /// Iterates `(bucket_low, count)` over non-empty buckets.
    pub fn nonempty_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (self.bucket_low(i), c))
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "n={} mean={:.1} max={}",
            self.count,
            self.mean(),
            self.max
        )?;
        let peak = self.buckets.iter().copied().max().unwrap_or(0).max(1);
        for (low, c) in self.nonempty_buckets() {
            let bar = "#".repeat((c * 40 / peak) as usize);
            writeln!(f, "{low:>10} | {bar} {c}")?;
        }
        if self.overflow > 0 {
            writeln!(f, "  overflow | {}", self.overflow)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_bucketing() {
        let mut h = Histogram::linear(10, 5);
        h.record(0);
        h.record(9);
        h.record(10);
        h.record(49);
        h.record(50); // overflow
        assert_eq!(h.bucket_count(0), 2);
        assert_eq!(h.bucket_count(1), 1);
        assert_eq!(h.bucket_count(4), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 118);
        assert_eq!(h.max(), 50);
    }

    #[test]
    fn log2_bucketing() {
        let mut h = Histogram::log2(8);
        for v in [0, 1, 2, 3, 4, 7, 8, 127, 128] {
            h.record(v);
        }
        assert_eq!(h.bucket_count(0), 2); // 0, 1
        assert_eq!(h.bucket_count(1), 2); // 2, 3
        assert_eq!(h.bucket_count(2), 2); // 4, 7
        assert_eq!(h.bucket_count(3), 1); // 8
        assert_eq!(h.bucket_count(6), 1); // 127
        assert_eq!(h.bucket_count(7), 1); // 128
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn log2_overflow() {
        let mut h = Histogram::log2(4); // covers up to [8,16)
        h.record(16);
        assert_eq!(h.overflow(), 1);
    }

    #[test]
    fn quantiles() {
        let mut h = Histogram::linear(1, 101);
        for v in 0..=100u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 50);
        assert_eq!(h.quantile(1.0), 100);
    }

    #[test]
    fn quantile_empty_is_zero() {
        let h = Histogram::linear(1, 4);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::log2(10);
        h.record(3);
        h.record(5);
        assert!((h.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "bucket width")]
    fn zero_width_panics() {
        let _ = Histogram::linear(0, 4);
    }

    #[test]
    fn display_draws_bars() {
        let mut h = Histogram::linear(10, 4);
        h.record(5);
        h.record(5);
        h.record(35);
        let s = h.to_string();
        assert!(s.contains('#'), "{s}");
        assert!(s.contains("n=3"), "{s}");
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;

    #[test]
    fn from_parts_reassembles_exactly() {
        let mut direct = Histogram::log2(8);
        for v in [0u64, 1, 3, 9, 200, 3000] {
            direct.record(v);
        }
        let rebuilt = Histogram::from_parts(
            direct.spec(),
            (0..8).map(|i| direct.bucket_count(i)).collect(),
            direct.overflow(),
            direct.sum(),
            direct.max(),
        );
        assert_eq!(rebuilt.count(), direct.count());
        assert_eq!(rebuilt.sum(), direct.sum());
        assert_eq!(rebuilt.max(), direct.max());
        for q in [0.0, 0.5, 0.9, 1.0] {
            assert_eq!(rebuilt.quantile(q), direct.quantile(q));
        }
    }

    #[test]
    fn spec_index_matches_recording() {
        for spec in [
            BucketSpec::Log2 { buckets: 10 },
            BucketSpec::Linear {
                width: 7,
                buckets: 12,
            },
        ] {
            let mut h = Histogram::with_spec(spec);
            for v in [0u64, 1, 6, 7, 13, 63, 64, 90, 1000] {
                h.record(v);
                if let Some(i) = spec.index_of(v) {
                    assert!(h.bucket_count(i) > 0, "{spec:?} value {v} bucket {i}");
                    assert!(spec.low(i) <= v);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "disagrees with the spec")]
    fn from_parts_checks_bucket_arity() {
        let _ = Histogram::from_parts(BucketSpec::Log2 { buckets: 4 }, vec![0; 3], 0, 0, 0);
    }

    #[test]
    fn quantile_saturates_in_overflow_region() {
        let mut h = Histogram::linear(10, 2); // covers [0, 20)
        h.record(5);
        h.record(500);
        h.record(600);
        // The 1.0-quantile lies among the overflowed samples; the
        // reported bound saturates at the overflow region's floor.
        assert_eq!(h.quantile(1.0), 20);
        assert_eq!(h.overflow(), 2);
    }

    #[test]
    fn log2_quantile_overflow_floor() {
        let mut h = Histogram::log2(3); // covers [0, 8)
        h.record(100);
        assert_eq!(h.quantile(0.5), 8);
    }
}
