//! Property-based tests on the `dsa-telemetry` flight recorder, the
//! histogram its sinks record into, and its counting sinks.
//!
//! Five claims, each load-bearing for the always-on telemetry's
//! contract:
//!
//! * **Lossless chronology under capacity** — a single handle that
//!   emits at most `capacity` events drains back the exact emitted
//!   sequence, in order, payloads intact.
//! * **Last-N retention over capacity** — once a ring wraps, the drain
//!   is exactly the most recent `capacity` events, still in order.
//! * **Merged chronology** — with one ring per thread, the merged
//!   drain preserves every thread's program order (the global sequence
//!   the merge sorts by is consistent with each thread's emission
//!   order), and after the threads join it is lossless up to each
//!   ring's capacity.
//! * **The histogram is its samples, bucketed** — samples recorded into
//!   one `Histogram` by `&mut`, or by `&` from 1, 2 or 8 threads at
//!   once, read back the count, sum, max, overflow and quantiles a
//!   sorted `Vec` of the same samples gives.
//! * **One vocabulary, however a cell is reached** — the counting sinks
//!   generated from `dsa-probe`'s table (`CountingProbe`, `SharedProbe`
//!   held exclusively, `TelemetryProbe` held exclusively and by shared
//!   reference) all tally any event stream exactly as the naive
//!   hand-written `match` in `common/counting_model.rs` does, and the
//!   exclusive and shared `TelemetryProbe` paths leave identical
//!   distributions.

use dsa::core::clock::Cycles;
use dsa::metrics::{BucketSpec, Histogram};
use dsa::probe::{CountingProbe, Event, EventKind, Probe, SharedProbe, Stamp};
use dsa::telemetry::{FlightRecorder, TelemetryProbe};
use proptest::prelude::*;

#[path = "common/counting_model.rs"]
mod counting_model;
use counting_model::NaiveCounter;

/// The emitted payload for index `i`: distinguishable and exact, so a
/// drained event identifies which emission it was.
fn kind_at(i: u64) -> EventKind {
    EventKind::Alloc {
        words: i,
        searched: i.wrapping_mul(3),
    }
}

/// Extracts the emission index a drained event carries, checking the
/// full payload round-tripped.
fn index_of(e: &dsa::probe::Event) -> u64 {
    match e.kind {
        EventKind::Alloc { words, searched } => {
            assert_eq!(searched, words.wrapping_mul(3), "payload torn");
            assert_eq!(e.vtime, words, "vtime torn");
            words
        }
        other => panic!("unexpected event kind {other:?}"),
    }
}

/// Any event the table unpacks: any tag, each payload word as drawn if
/// its field takes it and cut down until it does if not (so flags,
/// modes and rungs are drawn too), at stamps that go backwards as often
/// as forwards (so the pairing cells saturate as well as subtract).
/// Word payloads reach past every histogram's last bucket.
fn event() -> impl Strategy<Value = Event> {
    (
        0..EventKind::KINDS,
        0u64..1 << 40,
        0u64..1 << 20,
        (0u64..20_000, 0u64..5_000_000),
    )
        .prop_map(|(tag, a, b, (vtime, ns))| {
            let cuts = |word: u64| [word, word % 8, word % 2, 0];
            let kind = cuts(a)
                .into_iter()
                .flat_map(|a| cuts(b).map(|b| [tag, a, b]))
                .find_map(|words| EventKind::try_from(words).ok())
                .expect("every field takes 0");
            Event {
                kind,
                cycles: Cycles::from_nanos(ns),
                vtime,
            }
        })
}

/// Count, sum, max, overflow and every bucket.
fn same_histogram(what: &str, got: &Histogram, want: &Histogram) -> Result<(), String> {
    prop_assert_eq!(got.count(), want.count(), "{}: count", what);
    prop_assert_eq!(got.sum(), want.sum(), "{}: sum", what);
    prop_assert_eq!(got.max(), want.max(), "{}: max", what);
    prop_assert_eq!(got.overflow(), want.overflow(), "{}: overflow", what);
    for i in 0..want.spec().bucket_count() {
        prop_assert_eq!(
            got.bucket_count(i),
            want.bucket_count(i),
            "{}: bucket {}",
            what,
            i
        );
    }
    Ok(())
}

proptest! {
    /// Every generated sink, by every way of reaching its cells, tallies
    /// what the naive `match` tallies; the exclusive and the shared
    /// `TelemetryProbe` leave the same four distributions.
    #[test]
    fn generated_sinks_match_the_naive_counter(
        events in prop::collection::vec(event(), 1..400),
    ) {
        let mut model = NaiveCounter::default();
        let mut counting = CountingProbe::new();
        let mut exclusive = SharedProbe::new();
        let mut owned = TelemetryProbe::new();
        let shared = TelemetryProbe::new();
        let mut by_ref = &shared;
        for e in &events {
            model.record(e);
            counting.record(e);
            exclusive.record(e);
            owned.record(e);
            by_ref.record(e);
        }
        let want = model.0;
        // `total_events` counts both of a compaction's events at its Done.
        let starts = events.iter().filter(|e| e.kind == EventKind::CompactionStart).count();
        prop_assert_eq!(
            want.total_events() + starts as u64,
            events.len() as u64 + want.compactions
        );
        for (sink, got) in [
            ("CountingProbe", counting),
            ("&mut SharedProbe", exclusive.snapshot()),
            ("&mut TelemetryProbe", owned.counters()),
            ("&TelemetryProbe", shared.counters()),
        ] {
            for ((field, got), (_, want)) in got.fields().zip(want.fields()) {
                prop_assert_eq!(got, want, "{}: {}", sink, field);
            }
        }
        same_histogram("alloc_words", owned.alloc_words(), shared.alloc_words())?;
        same_histogram("search_len", owned.search_len(), shared.search_len())?;
        same_histogram("inter_fault_gap", owned.inter_fault_gap(), shared.inter_fault_gap())?;
        same_histogram("fetch_latency", owned.fetch_latency(), shared.fetch_latency())?;
        prop_assert_eq!(shared.alloc_words().count(), want.allocs);
        prop_assert_eq!(shared.inter_fault_gap().count(), want.faults.saturating_sub(1));
    }

    /// Emitting `n <= capacity` events through one handle drains back
    /// exactly those events, oldest first, payloads intact.
    #[test]
    fn drain_is_lossless_and_ordered_under_capacity(
        n in 0usize..128,
        extra in 0usize..64,
    ) {
        let rec = FlightRecorder::new(n + extra + 1);
        let mut h = rec.handle();
        for i in 0..n as u64 {
            h.emit(kind_at(i), Stamp::vtime(i));
        }
        let drained = rec.drain();
        prop_assert_eq!(drained.len(), n);
        for (want, got) in drained.iter().enumerate() {
            prop_assert_eq!(index_of(got), want as u64);
        }
        prop_assert_eq!(rec.events_seen(), n as u64);
    }

    /// Emitting more events than the ring holds retains exactly the
    /// most recent `capacity`, still in emission order.
    #[test]
    fn drain_keeps_the_newest_capacity_events(
        capacity in 1usize..64,
        overflow in 1usize..128,
    ) {
        let rec = FlightRecorder::new(capacity);
        let mut h = rec.handle();
        let total = (capacity + overflow) as u64;
        for i in 0..total {
            h.emit(kind_at(i), Stamp::vtime(i));
        }
        let drained = rec.drain();
        prop_assert_eq!(drained.len(), capacity);
        let first = total - capacity as u64;
        for (k, got) in drained.iter().enumerate() {
            prop_assert_eq!(index_of(got), first + k as u64);
        }
        prop_assert_eq!(rec.events_seen(), total);
    }

    /// With one handle (one ring) per thread, the post-join merged
    /// drain is lossless up to capacity and keeps every thread's
    /// events in that thread's emission order.
    #[test]
    fn merged_drain_preserves_per_thread_order(
        threads in (0usize..2).prop_map(|i| if i == 0 { 2usize } else { 8 }),
        per_thread in 1usize..200,
    ) {
        let rec = FlightRecorder::new(256);
        std::thread::scope(|scope| {
            for t in 0..threads as u64 {
                let mut h = rec.handle();
                scope.spawn(move || {
                    for i in 0..per_thread as u64 {
                        // words identifies the thread, searched the step.
                        h.emit(
                            EventKind::Alloc { words: t, searched: i },
                            Stamp::vtime(i),
                        );
                    }
                });
            }
        });
        let drained = rec.drain();
        prop_assert_eq!(drained.len(), threads * per_thread.min(256));
        for t in 0..threads as u64 {
            let steps: Vec<u64> = drained
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::Alloc { words, searched } if words == t => Some(searched),
                    _ => None,
                })
                .collect();
            let first = per_thread as u64 - per_thread.min(256) as u64;
            let want: Vec<u64> = (first..per_thread as u64).collect();
            prop_assert_eq!(steps, want, "thread {} out of order or lossy", t);
        }
    }

    /// A histogram recorded by `&mut`, and one recorded by `&` from
    /// 1, 2 and 8 threads, both read what a sorted `Vec` of the same
    /// samples reads.
    #[test]
    fn histogram_matches_a_sorted_vec(
        samples in prop::collection::vec(0u64..40_000, 1..300),
        linear in any::<bool>(),
    ) {
        let spec = if linear {
            BucketSpec::Linear { width: 500, buckets: 60 }
        } else {
            BucketSpec::Log2 { buckets: 14 }
        };
        let model = SortedModel::new(spec, &samples);
        let mut owned = Histogram::with_spec(spec);
        for &v in &samples {
            owned.record(v);
        }
        model.check("&mut", &owned)?;
        for threads in [1usize, 2, 8] {
            let shared = Histogram::with_spec(spec);
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let (shared, samples) = (&shared, &samples);
                    scope.spawn(move || {
                        for &v in samples.iter().skip(t).step_by(threads) {
                            shared.record_shared(v);
                        }
                    });
                }
            });
            model.check(&format!("& from {threads} threads"), &shared)?;
        }
    }
}

/// The trivially correct histogram: every sample kept, sorted, and
/// bucket bounds worked out from the spec's definition.
struct SortedModel {
    spec: BucketSpec,
    sorted: Vec<u64>,
}

impl SortedModel {
    fn new(spec: BucketSpec, samples: &[u64]) -> SortedModel {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        SortedModel { spec, sorted }
    }

    /// The first value past the last bucket.
    fn end(&self) -> u64 {
        match self.spec {
            BucketSpec::Linear { width, buckets } => width * buckets as u64,
            BucketSpec::Log2 { buckets } => 1 << buckets,
        }
    }

    /// The lower bound of `v`'s bucket, or `end` when `v` overflows.
    fn floor(&self, v: u64) -> u64 {
        match self.spec {
            _ if v >= self.end() => self.end(),
            BucketSpec::Linear { width, .. } => v / width * width,
            BucketSpec::Log2 { .. } if v < 2 => 0,
            BucketSpec::Log2 { .. } => 1 << v.ilog2(),
        }
    }

    fn check(&self, how: &str, h: &Histogram) -> Result<(), String> {
        let n = self.sorted.len();
        let sum = self.sorted.iter().fold(0u64, |s, &v| s.wrapping_add(v));
        let overflow = self.sorted.iter().filter(|&&v| v >= self.end()).count();
        prop_assert_eq!(h.count(), n as u64, "count, {}", how);
        prop_assert_eq!(h.sum(), sum, "sum, {}", how);
        prop_assert_eq!(h.max(), self.sorted[n - 1], "max, {}", how);
        prop_assert_eq!(h.overflow(), overflow as u64, "overflow, {}", how);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * n as f64).ceil() as usize).max(1);
            let want = self.floor(self.sorted[rank - 1]);
            prop_assert_eq!(h.quantile(q), want, "q={}, {}", q, how);
        }
        Ok(())
    }
}
