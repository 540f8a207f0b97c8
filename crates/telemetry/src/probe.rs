//! The always-on sink: counters plus distributions, shared by every
//! thread or owned by one run.
//!
//! [`SharedProbe`] answers "how many"; production debugging needs "how
//! big" and "how long" as well. [`TelemetryProbe`] is both at once:
//! every [`SharedProbe`] counter, plus four [`Histogram`]s over the
//! standard geometries ([`dsa_metrics::histogram::geometry`]):
//!
//! * allocation-request size in words,
//! * free-list entries searched per allocation,
//! * inter-fault gap in references,
//! * fetch (fault-service) latency in nanoseconds.
//!
//! Like `SharedProbe`, the sink is used by shared reference:
//! `&TelemetryProbe` implements [`Probe`], so each worker holds its own
//! copy of the reference and the emission sites stay `P: Probe`. And
//! like `SharedProbe`, a sink nobody shares — a `TelemetryProbe` held
//! by `&mut`, as a machine's `run_probed` or an experiment's single
//! replay holds it — records through `AtomicU64::get_mut`: the same
//! cells left in the same state, with no locked instruction and no
//! data-dependent branch. Watching a single-threaded run should cost
//! what the paper's sensors cost the program: next to nothing.
//!
//! The two stateful distributions (inter-fault gap, fetch latency) pair
//! consecutive events through a single atomic cell with a `u64::MAX`
//! "no pending event" sentinel. Under concurrent emission the pairing
//! is best-effort — two threads' faults may pair with each other —
//! which is the honest semantics for a global gap distribution; the
//! counters and the size/search histograms are exact regardless of
//! interleaving.

use std::sync::atomic::{AtomicU64, Ordering};

use dsa_metrics::{histogram::geometry, Histogram};
use dsa_probe::{CountingProbe, Event, EventKind, Probe, SharedProbe};

/// `u64::MAX` marks "no earlier event to pair with" in the stateful
/// cells (a nanosecond timestamp of `u64::MAX` is ~584 years).
const NONE: u64 = u64::MAX;

/// What the distributions take from one event: the body both `record`s
/// share, instantiated per `$mode`. `owned`: the sink is held by `&mut`,
/// so every cell is reached through `get_mut` — plain loads and stores.
/// `shared`: relaxed atomics.
macro_rules! observe {
    (@sample owned $hist:expr, $v:expr) => { $hist.record($v) };
    (@sample shared $hist:expr, $v:expr) => { $hist.record_shared($v) };
    (@swap owned $cell:expr, $v:expr) => { std::mem::replace($cell.get_mut(), $v) };
    (@swap shared $cell:expr, $v:expr) => { $cell.swap($v, Ordering::Relaxed) };
    (@set owned $cell:expr, $v:expr) => { *$cell.get_mut() = $v };
    (@set shared $cell:expr, $v:expr) => { $cell.store($v, Ordering::Relaxed) };
    ($mode:ident $self:ident, $event:ident) => {
        match $event.kind {
            EventKind::Alloc { words, searched } => {
                observe!(@sample $mode $self.alloc_words, words);
                observe!(@sample $mode $self.search_len, searched);
            }
            EventKind::Fault => {
                let prev = observe!(@swap $mode $self.last_fault_vtime, $event.vtime);
                if prev != NONE {
                    observe!(@sample $mode $self.inter_fault, $event.vtime.saturating_sub(prev));
                }
            }
            EventKind::FetchStart { .. } => {
                observe!(@set $mode $self.pending_fetch_ns, $event.cycles.as_nanos());
            }
            EventKind::FetchDone { .. } => {
                // Claim the pending start (swap in the sentinel) so a
                // racing FetchDone can't count the same start twice.
                let started = observe!(@swap $mode $self.pending_fetch_ns, NONE);
                if started != NONE {
                    let took = $event.cycles.as_nanos().saturating_sub(started);
                    observe!(@sample $mode $self.fetch_ns, took);
                }
            }
            _ => {}
        }
    };
}

/// Counters and distributions in one always-on, thread-safe sink.
///
/// # Examples
///
/// ```
/// use dsa_probe::{EventKind, Probe, Stamp};
/// use dsa_telemetry::TelemetryProbe;
///
/// let telemetry = TelemetryProbe::new();
/// (&telemetry).emit(
///     EventKind::Alloc { words: 48, searched: 3 },
///     Stamp::vtime(7),
/// );
/// assert_eq!(telemetry.counters().allocs, 1);
/// assert_eq!(telemetry.alloc_words().count(), 1);
/// ```
#[derive(Debug)]
pub struct TelemetryProbe {
    counters: SharedProbe,
    alloc_words: Histogram,
    search_len: Histogram,
    inter_fault: Histogram,
    fetch_ns: Histogram,
    last_fault_vtime: AtomicU64,
    pending_fetch_ns: AtomicU64,
}

impl TelemetryProbe {
    #[must_use]
    pub fn new() -> TelemetryProbe {
        TelemetryProbe {
            counters: SharedProbe::new(),
            alloc_words: Histogram::with_spec(geometry::ALLOC_WORDS),
            search_len: Histogram::with_spec(geometry::SEARCH_LEN),
            inter_fault: Histogram::with_spec(geometry::INTER_FAULT_REFS),
            fetch_ns: Histogram::with_spec(geometry::FAULT_SERVICE_NS),
            last_fault_vtime: AtomicU64::new(NONE),
            pending_fetch_ns: AtomicU64::new(NONE),
        }
    }

    /// The underlying atomic counter sink, for callers that only need
    /// the `SharedProbe` view.
    #[must_use]
    pub fn shared(&self) -> &SharedProbe {
        &self.counters
    }

    /// Frozen counter totals since construction.
    #[must_use]
    pub fn counters(&self) -> CountingProbe {
        self.counters.snapshot()
    }

    /// Distribution of allocation-request sizes, in words.
    #[must_use]
    pub fn alloc_words(&self) -> &Histogram {
        &self.alloc_words
    }

    /// Distribution of free-list entries searched per allocation.
    #[must_use]
    pub fn search_len(&self) -> &Histogram {
        &self.search_len
    }

    /// Distribution of gaps between consecutive faults, in references.
    #[must_use]
    pub fn inter_fault_gap(&self) -> &Histogram {
        &self.inter_fault
    }

    /// Distribution of fetch (fault-service) latencies, in nanoseconds.
    #[must_use]
    pub fn fetch_latency(&self) -> &Histogram {
        &self.fetch_ns
    }
}

impl Default for TelemetryProbe {
    fn default() -> TelemetryProbe {
        TelemetryProbe::new()
    }
}

/// The exclusive form: no other thread can see a sink held by `&mut`,
/// so nothing here is a locked instruction.
impl Probe for TelemetryProbe {
    fn record(&mut self, event: &Event) {
        observe!(owned self, event);
        self.counters.record(event);
    }
}

/// The shared-reference form workers hold, mirroring
/// `impl Probe for &SharedProbe`: relaxed read-modify-writes.
impl Probe for &TelemetryProbe {
    fn record(&mut self, event: &Event) {
        observe!(shared self, event);
        (&self.counters).record(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_core::clock::Cycles;
    use dsa_probe::Stamp;

    #[test]
    fn distributions_track_their_events() {
        let t = TelemetryProbe::new();
        let mut p = &t;
        p.emit(
            EventKind::Alloc {
                words: 32,
                searched: 4,
            },
            Stamp::vtime(1),
        );
        p.emit(
            EventKind::Alloc {
                words: 100,
                searched: 9,
            },
            Stamp::vtime(2),
        );
        p.emit(EventKind::Fault, Stamp::vtime(10));
        p.emit(EventKind::Fault, Stamp::vtime(25));
        p.emit(
            EventKind::FetchStart { words: 512 },
            Stamp::at(Cycles::from_nanos(1_000), 25),
        );
        p.emit(
            EventKind::FetchDone { words: 512 },
            Stamp::at(Cycles::from_nanos(5_000), 25),
        );

        assert_eq!(t.alloc_words().count(), 2);
        assert_eq!(t.alloc_words().sum(), 132);
        assert_eq!(t.search_len().count(), 2);
        assert_eq!(t.inter_fault_gap().count(), 1);
        assert_eq!(t.inter_fault_gap().sum(), 15);
        assert_eq!(t.fetch_latency().count(), 1);
        assert_eq!(t.fetch_latency().sum(), 4_000);
        assert_eq!(t.counters().allocs, 2);
        assert_eq!(t.counters().faults, 2);
    }

    #[test]
    fn first_fault_and_unpaired_fetch_record_nothing() {
        let t = TelemetryProbe::new();
        let mut p = &t;
        p.emit(EventKind::Fault, Stamp::vtime(5));
        p.emit(
            EventKind::FetchDone { words: 8 },
            Stamp::at(Cycles::from_nanos(99), 5),
        );
        assert_eq!(t.inter_fault_gap().count(), 0);
        assert_eq!(t.fetch_latency().count(), 0);
        assert_eq!(t.counters().faults, 1);
        assert_eq!(t.counters().fetches, 1);
    }

    /// Feeds `events` to one sink by `&mut` and to another by `&`, and
    /// checks that both leave the same counters and distributions.
    fn both_paths(events: &[(EventKind, Stamp)]) -> TelemetryProbe {
        let mut owned = TelemetryProbe::new();
        let shared = TelemetryProbe::new();
        for &(kind, stamp) in events {
            owned.emit(kind, stamp);
            (&shared).emit(kind, stamp);
        }
        assert_eq!(owned.counters(), shared.counters());
        for (a, b) in [
            (owned.alloc_words(), shared.alloc_words()),
            (owned.search_len(), shared.search_len()),
            (owned.inter_fault_gap(), shared.inter_fault_gap()),
            (owned.fetch_latency(), shared.fetch_latency()),
        ] {
            assert_eq!((a.count(), a.sum(), a.max()), (b.count(), b.sum(), b.max()));
            assert!(a.nonempty_buckets().eq(b.nonempty_buckets()));
        }
        assert_eq!(
            owned.last_fault_vtime.load(Ordering::Relaxed),
            shared.last_fault_vtime.load(Ordering::Relaxed)
        );
        assert_eq!(
            owned.pending_fetch_ns.load(Ordering::Relaxed),
            shared.pending_fetch_ns.load(Ordering::Relaxed)
        );
        owned
    }

    #[test]
    fn owned_and_shared_paths_leave_identical_state() {
        // A fetch pair is the fault-service latency.
        let t = both_paths(&[
            (EventKind::Fault, Stamp::at(Cycles::from_nanos(100), 5)),
            (
                EventKind::FetchStart { words: 512 },
                Stamp::at(Cycles::from_nanos(100), 5),
            ),
            (
                EventKind::FetchDone { words: 512 },
                Stamp::at(Cycles::from_nanos(4_100), 5),
            ),
        ]);
        assert_eq!(t.fetch_latency().count(), 1);
        assert_eq!(t.fetch_latency().sum(), 4_000);
        // Inter-fault gaps are measured in reference time.
        let t = both_paths(&[10u64, 18, 50].map(|vt| (EventKind::Fault, Stamp::vtime(vt))));
        assert_eq!(t.inter_fault_gap().count(), 2);
        assert_eq!(t.inter_fault_gap().sum(), (18 - 10) + (50 - 18));
        // A first fault and an unpaired FetchDone record nothing.
        let t = both_paths(&[
            (EventKind::Fault, Stamp::vtime(1)),
            (EventKind::FetchDone { words: 1 }, Stamp::vtime(2)),
        ]);
        assert_eq!(t.inter_fault_gap().count(), 0);
        assert_eq!(t.fetch_latency().count(), 0);
        // Every allocation's search length is recorded.
        let t = both_paths(&[7u64, 1].map(|searched| {
            (
                EventKind::Alloc {
                    words: 10,
                    searched,
                },
                Stamp::vtime(1),
            )
        }));
        assert_eq!(t.search_len().count(), 2);
        assert_eq!(t.search_len().sum(), 8);
    }

    #[test]
    fn distributions_use_the_standard_geometries() {
        let t = TelemetryProbe::new();
        assert_eq!(t.fetch_latency().spec(), geometry::FAULT_SERVICE_NS);
        assert_eq!(t.inter_fault_gap().spec(), geometry::INTER_FAULT_REFS);
        assert_eq!(t.search_len().spec(), geometry::SEARCH_LEN);
        assert_eq!(t.alloc_words().spec(), geometry::ALLOC_WORDS);
    }

    #[test]
    fn concurrent_emission_keeps_size_histograms_exact() {
        let t = TelemetryProbe::new();
        let threads = 8u64;
        let per_thread = 2_000u64;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let mut p = &t;
                scope.spawn(move || {
                    for i in 0..per_thread {
                        p.emit(
                            EventKind::Alloc {
                                words: i % 32 + 1,
                                searched: i % 8,
                            },
                            Stamp::vtime(i),
                        );
                    }
                });
            }
        });
        assert_eq!(t.alloc_words().count(), threads * per_thread);
        assert_eq!(t.search_len().count(), threads * per_thread);
        assert_eq!(t.counters().allocs, threads * per_thread);
    }
}
