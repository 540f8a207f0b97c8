//! A thread-safe counting sink: atomics instead of plain integers.
//!
//! [`CountingProbe`] is the reconciliation workhorse of the workspace,
//! but it is `&mut self` all the way down — one owner, one thread. A
//! concurrent allocation service (the workspace's `dsa-arena` crate)
//! has many worker threads emitting into *one* sink, and the reports
//! must still reconcile exactly: the total observed by the shared sink
//! has to equal the sum of the per-worker outcomes no matter how the
//! threads interleaved. [`SharedProbe`] is that sink — every counter of
//! [`CountingProbe`], each an `AtomicU64`, generated from the same
//! table (`counting.rs`) so the two cannot drift.
//!
//! Emission sites take `P: Probe` by `&mut` reference, so the shared
//! sink is used *by shared reference through a mutable one*: `&SharedProbe`
//! itself implements [`Probe`](crate::Probe) with relaxed fetch-adds,
//! and each worker holds its own `&SharedProbe` copy. A sink nobody
//! shares — held by `&mut SharedProbe` — records with plain adds
//! instead: the same cells, no locked instruction. After the workers
//! join, [`SharedProbe::snapshot`] freezes the atomics into an ordinary
//! [`CountingProbe`] for comparison against per-worker tallies.

use crate::CountingProbe;

pub use crate::counting::SharedProbe;

impl SharedProbe {
    #[must_use]
    pub fn new() -> SharedProbe {
        SharedProbe::default()
    }

    /// What happened since `earlier`: a fresh snapshot minus the one
    /// the caller kept from the previous interval.
    ///
    /// [`SharedProbe::snapshot`] reports totals since construction,
    /// which loses ordering context on a long-running service; periodic
    /// callers keep the previous snapshot and ask for the delta, giving
    /// per-interval rates that sum exactly to the running totals
    /// (counters are monotone, so the subtraction never saturates in
    /// practice).
    #[must_use]
    pub fn delta(&self, earlier: &CountingProbe) -> CountingProbe {
        self.snapshot().delta(earlier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::every_kind;
    use crate::{EventKind, Probe, Stamp};

    #[test]
    fn snapshot_matches_a_sequential_counting_probe() {
        let shared = SharedProbe::new();
        let mut exclusive = SharedProbe::new();
        let mut plain = CountingProbe::new();
        for (t, kind) in every_kind().enumerate() {
            let at = Stamp::vtime(t as u64);
            (&shared).emit(kind, at);
            exclusive.emit(kind, at);
            plain.emit(kind, at);
        }
        for snap in [shared.snapshot(), exclusive.snapshot()] {
            for ((name, got), (_, want)) in snap.fields().zip(plain.fields()) {
                assert_eq!(got, want, "{name}");
            }
            assert_eq!(snap.total_events(), plain.total_events());
        }
    }

    #[test]
    fn interval_deltas_sum_to_the_running_total() {
        let shared = SharedProbe::new();
        let mut prev = shared.snapshot();
        let mut summed = 0u64;
        for round in 1..=4u64 {
            for i in 0..round * 3 {
                (&shared).emit(
                    EventKind::Alloc {
                        words: 16,
                        searched: 2,
                    },
                    Stamp::vtime(i),
                );
            }
            let d = shared.delta(&prev);
            assert_eq!(d.allocs, round * 3, "interval {round}");
            assert_eq!(d.alloc_words, round * 3 * 16);
            summed += d.allocs;
            prev = shared.snapshot();
        }
        assert_eq!(summed, shared.snapshot().allocs);
    }

    #[test]
    fn concurrent_emission_loses_nothing() {
        let shared = SharedProbe::new();
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let probe = &shared;
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let mut p = probe;
                        p.emit(
                            EventKind::Alloc {
                                words: 8,
                                searched: 1,
                            },
                            Stamp::vtime(t * per_thread + i),
                        );
                        p.emit(EventKind::Free { words: 8 }, Stamp::vtime(t));
                    }
                });
            }
        });
        let snap = shared.snapshot();
        assert_eq!(snap.allocs, threads * per_thread);
        assert_eq!(snap.frees, threads * per_thread);
        assert_eq!(snap.alloc_words, 8 * threads * per_thread);
        assert_eq!(snap.alloc_searched, threads * per_thread);
    }
}
