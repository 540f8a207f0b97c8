//! Relaxed-atomic histograms with exact merge.
//!
//! The sequential [`dsa_metrics::Histogram`] is `&mut self`; an
//! always-on distribution shared by every worker thread of a concurrent
//! allocation service cannot be. [`AtomicHistogram`] is the concurrent
//! twin: the same bucket geometry (a [`BucketSpec`]), each bucket an
//! `AtomicU64` bumped with one relaxed `fetch_add`. Histogram counters
//! are commutative — no thread ever reads another's increment on the
//! hot path — so relaxed ordering loses nothing; the join (or any
//! happens-before edge to the reader) is the only synchronization
//! needed, exactly as for `SharedProbe`'s counters. And exactly as
//! there, a histogram nobody shares is recorded into through `&mut`
//! with plain adds: the same cells, no locked instruction.
//!
//! Reading back goes through [`AtomicHistogram::snapshot`], which
//! freezes the buckets into an ordinary [`dsa_metrics::Histogram`] via
//! [`Histogram::from_parts`] — quantiles, means and rendering all come
//! from the one sequential implementation, so the always-on telemetry
//! and the probe-spine `LatencyProbe` can never disagree about what
//! "p99" means.

use std::sync::atomic::{AtomicU64, Ordering};

use dsa_metrics::{BucketSpec, Histogram};

/// A fixed-geometry histogram whose `record` takes `&self`, shareable
/// across any number of threads: a sample costs three relaxed
/// read-modify-writes (a `fetch_add` on its bucket, a `fetch_add` on
/// the running sum, a `fetch_max` on the maximum). The exclusive path
/// the owning sink takes when it is held by `&mut` does the same three
/// updates through `AtomicU64::get_mut`, as plain loads and stores, and
/// leaves the histogram in the identical state.
///
/// `sum` is kept in a `u64` (the sequential histogram uses `u128`):
/// with nanosecond samples that is ~584 years of accumulated latency
/// before wrap, far beyond any run this workspace performs.
///
/// # Examples
///
/// ```
/// use dsa_metrics::BucketSpec;
/// use dsa_telemetry::AtomicHistogram;
///
/// let h = AtomicHistogram::new(BucketSpec::Log2 { buckets: 16 });
/// std::thread::scope(|s| {
///     for _ in 0..4 {
///         s.spawn(|| {
///             for v in 0..100u64 {
///                 h.record(v);
///             }
///         });
///     }
/// });
/// let frozen = h.snapshot();
/// assert_eq!(frozen.count(), 400);
/// ```
#[derive(Debug)]
pub struct AtomicHistogram {
    spec: BucketSpec,
    buckets: Vec<AtomicU64>,
    overflow: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl AtomicHistogram {
    /// An empty atomic histogram over `spec`'s buckets.
    ///
    /// # Panics
    ///
    /// Panics if the spec is degenerate (zero width, zero buckets, or
    /// more than 64 log2 buckets) — same contract as
    /// [`Histogram::with_spec`].
    #[must_use]
    pub fn new(spec: BucketSpec) -> AtomicHistogram {
        // Delegate validation so the two constructors can't drift.
        let _ = Histogram::with_spec(spec);
        AtomicHistogram {
            spec,
            buckets: (0..spec.bucket_count())
                .map(|_| AtomicU64::new(0))
                .collect(),
            overflow: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample: two relaxed `fetch_add`s and a `fetch_max`.
    pub fn record(&self, v: u64) {
        match self.spec.index_of(v) {
            Some(i) => self.buckets[i].fetch_add(1, Ordering::Relaxed),
            None => self.overflow.fetch_add(1, Ordering::Relaxed),
        };
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// [`AtomicHistogram::record`] for an exclusive holder: the same
    /// three updates with no locked instruction (the borrow checker is
    /// the proof that no other thread can see the cells). The sum
    /// wraps, as `fetch_add` does.
    pub(crate) fn record_mut(&mut self, v: u64) {
        let bucket = match self.spec.index_of(v) {
            Some(i) => &mut self.buckets[i],
            None => &mut self.overflow,
        };
        *bucket.get_mut() += 1;
        let sum = self.sum.get_mut();
        *sum = sum.wrapping_add(v);
        let max = self.max.get_mut();
        *max = (*max).max(v);
    }

    /// Folds another accumulator's counts into this one, exactly:
    /// bucket-wise addition, never re-bucketing.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms have different bucket geometries —
    /// merging across specs would silently mis-bucket.
    pub fn merge(&self, other: &AtomicHistogram) {
        assert_eq!(
            self.spec, other.spec,
            "cannot merge histograms with different bucket geometries"
        );
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            self.buckets_add(mine, theirs.load(Ordering::Relaxed));
        }
        self.buckets_add(&self.overflow, other.overflow.load(Ordering::Relaxed));
        self.buckets_add(&self.sum, other.sum.load(Ordering::Relaxed));
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    fn buckets_add(&self, target: &AtomicU64, n: u64) {
        if n > 0 {
            target.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Freezes the relaxed counters into an ordinary sequential
    /// [`Histogram`] — quantiles and rendering then come from
    /// `dsa-metrics`' single implementation.
    #[must_use]
    pub fn snapshot(&self) -> Histogram {
        Histogram::from_parts(
            self.spec,
            self.buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            self.overflow.load(Ordering::Relaxed),
            u128::from(self.sum.load(Ordering::Relaxed)),
            self.max.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_metrics::histogram::geometry;

    #[test]
    fn snapshot_equals_the_sequential_histogram() {
        let atomic = AtomicHistogram::new(geometry::ALLOC_WORDS);
        let mut plain = Histogram::with_spec(geometry::ALLOC_WORDS);
        for v in [0u64, 1, 7, 64, 900, 1 << 20, u64::MAX >> 30] {
            atomic.record(v);
            plain.record(v);
        }
        let snap = atomic.snapshot();
        assert_eq!(snap.count(), plain.count());
        assert_eq!(snap.sum(), plain.sum());
        assert_eq!(snap.max(), plain.max());
        assert_eq!(snap.overflow(), plain.overflow());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(snap.quantile(q), plain.quantile(q), "q={q}");
        }
    }

    #[test]
    fn exclusive_recording_leaves_the_same_state() {
        let shared = AtomicHistogram::new(geometry::SEARCH_LEN);
        let mut exclusive = AtomicHistogram::new(geometry::SEARCH_LEN);
        for v in [0u64, 1, 7, 64, 900, 1 << 20, u64::MAX, 3] {
            shared.record(v);
            exclusive.record_mut(v);
        }
        let (a, b) = (exclusive.snapshot(), shared.snapshot());
        assert_eq!(a.count(), b.count());
        assert_eq!(a.sum(), b.sum());
        assert_eq!(a.max(), b.max());
        assert_eq!(a.overflow(), b.overflow());
        for i in 0..geometry::SEARCH_LEN.bucket_count() {
            assert_eq!(a.bucket_count(i), b.bucket_count(i), "bucket {i}");
        }
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = AtomicHistogram::new(BucketSpec::Linear {
            width: 1,
            buckets: 64,
        });
        let threads = 8u64;
        let per_thread = 6_400u64;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    for i in 0..per_thread {
                        h.record(i % 64);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count(), threads * per_thread);
        for i in 0..64 {
            assert_eq!(snap.bucket_count(i), threads * per_thread / 64);
        }
    }

    #[test]
    fn merge_is_exact() {
        let a = AtomicHistogram::new(geometry::SEARCH_LEN);
        let b = AtomicHistogram::new(geometry::SEARCH_LEN);
        let mut reference = Histogram::with_spec(geometry::SEARCH_LEN);
        for v in [1u64, 2, 3, 300] {
            a.record(v);
            reference.record(v);
        }
        for v in [4u64, 5, 500] {
            b.record(v);
            reference.record(v);
        }
        a.merge(&b);
        let merged = a.snapshot();
        assert_eq!(merged.count(), reference.count());
        assert_eq!(merged.sum(), reference.sum());
        assert_eq!(merged.max(), reference.max());
        assert_eq!(merged.overflow(), reference.overflow());
        for q in [0.5, 0.9, 1.0] {
            assert_eq!(merged.quantile(q), reference.quantile(q));
        }
    }

    #[test]
    #[should_panic(expected = "different bucket geometries")]
    fn merge_rejects_mismatched_specs() {
        let a = AtomicHistogram::new(BucketSpec::Log2 { buckets: 8 });
        let b = AtomicHistogram::new(BucketSpec::Log2 { buckets: 9 });
        a.merge(&b);
    }
}
