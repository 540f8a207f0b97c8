//! Bucketed histograms with percentile queries.

use std::sync::atomic::{AtomicU64, Ordering};

/// How sample values are mapped to buckets — the public, copyable
/// description of a histogram's geometry.
///
/// Two histograms built from the same `BucketSpec` bucket identically,
/// which is what lets every distribution of one kind (see [`geometry`])
/// be compared bucket for bucket.
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
    pub(crate) fn index_of(&self, v: u64) -> Option<usize> {
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
/// distributions are shaped, so every sink that records one of them
/// (`dsa-telemetry`'s `TelemetryProbe`, the arena service's per-shard
/// and per-class distributions) reports percentiles over the exact same
/// buckets.
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

/// A histogram over `u64` samples, recordable by one owner or by any
/// number of threads at once.
///
/// Samples beyond the last bucket are counted in an overflow bucket so
/// totals and means remain exact; percentiles saturate at the overflow
/// bucket's lower bound.
///
/// Every cell is an `AtomicU64`. [`Histogram::record`] takes `&mut self`
/// and reaches the cells through `get_mut`: plain adds, no locked
/// instruction. [`Histogram::record_shared`] takes `&self` and costs
/// three relaxed read-modify-writes (bucket, sum, max). The counters
/// are commutative and publish no other data, so relaxed ordering loses
/// nothing; a join, or any other happens-before edge to the reader, is
/// the only synchronization a reader needs. The count is not a cell of
/// its own: it is the buckets plus the overflow, summed when read.
///
/// The sum is a `u64` and wraps at 2⁶⁴: with nanosecond samples that is
/// ~584 years of accumulated latency, far beyond any run this workspace
/// performs.
///
/// # Examples
///
/// ```
/// use dsa_metrics::histogram::{BucketSpec, Histogram};
///
/// // Buckets [0,10), [10,20), ... [90,100).
/// let mut h = Histogram::with_spec(BucketSpec::Linear { width: 10, buckets: 10 });
/// for v in [1, 5, 15, 95, 250] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.bucket_count(0), 2);
/// assert_eq!(h.overflow(), 1);
///
/// let shared = Histogram::log2(16);
/// std::thread::scope(|s| {
///     for _ in 0..4 {
///         s.spawn(|| {
///             for v in 0..100u64 {
///                 shared.record_shared(v);
///             }
///         });
///     }
/// });
/// assert_eq!(shared.count(), 400);
/// ```
#[derive(Debug)]
pub struct Histogram {
    spec: BucketSpec,
    buckets: Vec<AtomicU64>,
    overflow: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
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
            buckets: (0..spec.bucket_count())
                .map(|_| AtomicU64::new(0))
                .collect(),
            overflow: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
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

    /// This histogram's bucketing.
    #[must_use]
    pub fn spec(&self) -> BucketSpec {
        self.spec
    }

    /// Lower bound of bucket `i`.
    #[must_use]
    pub fn bucket_low(&self, i: usize) -> u64 {
        self.spec.low(i)
    }

    /// Records one sample for an exclusive holder: the borrow checker
    /// is the proof that no other thread sees the cells, so nothing
    /// here is a locked instruction.
    // `#[inline]` so that a sink in another crate (`TelemetryProbe`)
    // keeps the sample on its own hot path in builds without LTO.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let cell = match self.spec.index_of(v) {
            Some(i) => &mut self.buckets[i],
            None => &mut self.overflow,
        };
        *cell.get_mut() += 1;
        let sum = self.sum.get_mut();
        *sum = sum.wrapping_add(v);
        let max = self.max.get_mut();
        *max = (*max).max(v);
    }

    /// Records one sample through a shared reference: two relaxed
    /// `fetch_add`s and a `fetch_max`, leaving the state
    /// [`Histogram::record`] would.
    #[inline]
    pub fn record_shared(&self, v: u64) {
        let cell = match self.spec.index_of(v) {
            Some(i) => &self.buckets[i],
            None => &self.overflow,
        };
        cell.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Total number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(load).sum::<u64>() + self.overflow()
    }

    /// Sum of all samples, modulo 2⁶⁴.
    #[must_use]
    pub fn sum(&self) -> u64 {
        load(&self.sum)
    }

    /// Mean of all samples, or 0 if empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        match self.count() {
            0 => 0.0,
            n => self.sum() as f64 / n as f64,
        }
    }

    /// Largest sample seen, or 0 if empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        load(&self.max)
    }

    /// Number of samples in bucket `i`.
    #[must_use]
    pub fn bucket_count(&self, i: usize) -> u64 {
        load(&self.buckets[i])
    }

    /// Number of samples beyond the last bucket.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        load(&self.overflow)
    }

    /// The lower bound of the bucket containing the `q`-quantile
    /// (`0.0 ..= 1.0`), or 0 if the histogram is empty. Saturates at the
    /// overflow region's lower bound.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, c) in self.buckets.iter().enumerate() {
            seen += load(c);
            if seen >= target {
                return self.bucket_low(i);
            }
        }
        // Target lies in the overflow region.
        let last = self.buckets.len() - 1;
        self.bucket_low(last)
            + match self.spec {
                BucketSpec::Linear { width, .. } => width,
                BucketSpec::Log2 { .. } => self.bucket_low(last),
            }
    }

    /// Iterates `(bucket_low, count)` over non-empty buckets.
    pub fn nonempty_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, c)| (self.bucket_low(i), load(c)))
            .filter(|&(_, c)| c > 0)
    }
}

/// A copy of every cell as it reads now.
impl Clone for Histogram {
    fn clone(&self) -> Histogram {
        let copy = |cell: &AtomicU64| AtomicU64::new(load(cell));
        Histogram {
            spec: self.spec,
            buckets: self.buckets.iter().map(copy).collect(),
            overflow: copy(&self.overflow),
            sum: copy(&self.sum),
            max: copy(&self.max),
        }
    }
}

fn load(cell: &AtomicU64) -> u64 {
    cell.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_bucketing() {
        let mut h = Histogram::with_spec(BucketSpec::Linear {
            width: 10,
            buckets: 5,
        });
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
        let mut h = Histogram::with_spec(BucketSpec::Linear {
            width: 1,
            buckets: 101,
        });
        for v in 0..=100u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 50);
        assert_eq!(h.quantile(1.0), 100);
    }

    #[test]
    fn quantile_empty_is_zero() {
        let h = Histogram::with_spec(BucketSpec::Linear {
            width: 1,
            buckets: 4,
        });
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
        let _ = Histogram::with_spec(BucketSpec::Linear {
            width: 0,
            buckets: 4,
        });
    }

    #[test]
    fn shared_recording_leaves_the_exclusive_state() {
        let shared = Histogram::with_spec(geometry::SEARCH_LEN);
        let mut exclusive = Histogram::with_spec(geometry::SEARCH_LEN);
        for v in [0u64, 1, 7, 64, 900, 1 << 20, u64::MAX, 3] {
            shared.record_shared(v);
            exclusive.record(v);
        }
        assert_eq!(exclusive.count(), shared.count());
        assert_eq!(exclusive.sum(), shared.sum());
        assert_eq!(exclusive.max(), shared.max());
        assert_eq!(exclusive.overflow(), shared.overflow());
        for i in 0..geometry::SEARCH_LEN.bucket_count() {
            assert_eq!(
                exclusive.bucket_count(i),
                shared.bucket_count(i),
                "bucket {i}"
            );
        }
    }

    #[test]
    fn sum_wraps_at_two_to_the_sixty_four() {
        let mut h = Histogram::log2(8);
        h.record(u64::MAX);
        h.record(2);
        assert_eq!(h.sum(), 1);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn clone_copies_every_cell() {
        let mut h = Histogram::with_spec(BucketSpec::Linear {
            width: 10,
            buckets: 2,
        });
        for v in [3u64, 12, 500] {
            h.record(v);
        }
        let copy = h.clone();
        h.record(4);
        assert_eq!(copy.count(), 3);
        assert_eq!(copy.sum(), 515);
        assert_eq!(copy.max(), 500);
        assert_eq!(copy.overflow(), 1);
        assert_eq!(copy.bucket_count(0), 1);
        assert_eq!(h.bucket_count(0), 2);
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;

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
    fn quantile_saturates_in_overflow_region() {
        let mut h = Histogram::with_spec(BucketSpec::Linear {
            width: 10,
            buckets: 2,
        }); // covers [0, 20)
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
