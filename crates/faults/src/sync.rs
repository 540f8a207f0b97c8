//! Thread-safe fault injection for the concurrent allocation path.
//!
//! The plain [`FaultInjector`] owns one `Rng64` stream and is `&mut` —
//! fine for the single-threaded machine drivers, useless inside
//! `std::thread::scope` workers. [`SyncFaultInjector`] is the shared
//! factory: it holds the master seed, the [`FaultConfig`], and one set
//! of relaxed atomic tallies; each worker asks for a
//! [`WorkerInjector`] keyed by its **stream id** (not its OS thread).
//!
//! Determinism at any `--jobs`: the per-stream seed is a SplitMix64
//! finalizer over `(master seed, stream id)`, so stream *k* rolls the
//! identical fault schedule whether one thread runs all streams or
//! eight threads run them in parallel. The shared tallies are
//! commutative sums, so the merged [`RecoveryReport`] is byte-identical
//! at 1, 2, or 8 worker threads — the `properties_faults` suite pins
//! this down.

use std::sync::atomic::{AtomicU64, Ordering};

use dsa_core::clock::Cycles;

use crate::config::FaultConfig;
use crate::injector::FaultInjector;
use crate::report::RecoveryReport;

/// SplitMix64 finalizer: the avalanche stage used to derive independent
/// per-stream seeds from `(master, stream)`.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Shared injection tallies, bumped relaxed from every worker.
#[derive(Debug, Default)]
struct Tally {
    faults_injected: AtomicU64,
    channel_delays: AtomicU64,
    forced_alloc_failures: AtomicU64,
    shard_corruptions: AtomicU64,
}

/// A `Sync` fault-injector factory for `std::thread::scope` workers.
///
/// One per run; workers call [`SyncFaultInjector::worker`] with their
/// deterministic stream id and roll hazards on the returned
/// [`WorkerInjector`]. Injection counts merge into one
/// [`RecoveryReport`] via [`SyncFaultInjector::report`].
#[derive(Debug)]
pub struct SyncFaultInjector {
    seed: u64,
    config: FaultConfig,
    tally: Tally,
}

impl SyncFaultInjector {
    /// A factory for `config`, seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64, config: FaultConfig) -> SyncFaultInjector {
        SyncFaultInjector {
            seed,
            config,
            tally: Tally::default(),
        }
    }

    /// The injector for one deterministic stream.
    ///
    /// `stream` must identify the logical work stream (worker index of
    /// a deterministic partition, grid-cell index, …), never the OS
    /// thread: the schedule of stream `k` is a pure function of
    /// `(seed, config, k)`.
    #[must_use]
    pub fn worker(&self, stream: u64) -> WorkerInjector<'_> {
        WorkerInjector {
            inner: FaultInjector::new(mix(self.seed ^ mix(stream)), self.config),
            tally: &self.tally,
        }
    }

    /// The merged injection accounting: commutative sums over every
    /// worker stream, so the report is identical at any thread count.
    /// Recovery-side fields (retries, quarantines, degradations) belong
    /// to the component doing the recovering and stay zero here.
    #[must_use]
    pub fn report(&self) -> RecoveryReport {
        let delays = self.tally.channel_delays.load(Ordering::Relaxed);
        RecoveryReport {
            faults_injected: self.tally.faults_injected.load(Ordering::Relaxed),
            channel_delays: delays,
            forced_alloc_failures: self.tally.forced_alloc_failures.load(Ordering::Relaxed),
            shard_corruptions: self.tally.shard_corruptions.load(Ordering::Relaxed),
            // The per-delay stall is a config constant, so the total is
            // exact arithmetic, not a racy accumulation.
            delay_time: self.config.channel_delay * delays,
            ..RecoveryReport::default()
        }
    }
}

/// One worker's deterministic hazard stream, tallying into the shared
/// [`SyncFaultInjector`].
///
/// Makes the [`FaultInjector`] rolls the concurrent path meets (channel
/// delays, refused allocations) and adds its own hazard:
/// [`WorkerInjector::shard_corruption`].
#[derive(Debug)]
pub struct WorkerInjector<'a> {
    inner: FaultInjector,
    tally: &'a Tally,
}

impl WorkerInjector<'_> {
    /// Rolls one transfer for channel congestion; the returned stall is
    /// charged by the caller.
    pub fn channel_delay(&mut self) -> Option<Cycles> {
        let delay = self.inner.channel_delay();
        if delay.is_some() {
            self.count(&self.tally.channel_delays);
        }
        delay
    }

    /// Rolls one allocation request; `true` means it is refused
    /// outright.
    pub fn alloc_failure(&mut self) -> bool {
        let fired = self.inner.alloc_failure();
        if fired {
            self.count(&self.tally.forced_alloc_failures);
        }
        fired
    }

    /// Rolls one shard-corruption hazard; `true` means a shard's free
    /// list is about to be corrupted and must be healed.
    pub fn shard_corruption(&mut self) -> bool {
        let fired = self.inner.shard_corruption();
        if fired {
            self.count(&self.tally.shard_corruptions);
        }
        fired
    }

    /// The deterministic target shard for a corruption that just fired
    /// (uniform over `shards`, drawn from this stream).
    pub fn corruption_target(&mut self, shards: u32) -> u32 {
        self.inner.roll_below(u64::from(shards.max(1))) as u32
    }

    fn count(&self, field: &AtomicU64) {
        self.tally.faults_injected.fetch_add(1, Ordering::Relaxed);
        field.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_independent_and_deterministic() {
        let cfg = FaultConfig {
            alloc_fail_rate: 0.1,
            ..FaultConfig::off().with_channel_delays(0.2, Cycles::from_micros(1))
        };
        let a = SyncFaultInjector::new(11, cfg);
        let b = SyncFaultInjector::new(11, cfg);
        for stream in 0..4 {
            let mut wa = a.worker(stream);
            let mut wb = b.worker(stream);
            for _ in 0..1000 {
                assert_eq!(wa.channel_delay(), wb.channel_delay());
                assert_eq!(wa.alloc_failure(), wb.alloc_failure());
            }
        }
        assert_eq!(a.report(), b.report());
    }

    #[test]
    fn distinct_streams_differ() {
        let cfg = FaultConfig {
            alloc_fail_rate: 0.5,
            ..FaultConfig::off()
        };
        let f = SyncFaultInjector::new(7, cfg);
        let roll = |mut w: WorkerInjector<'_>| -> Vec<bool> {
            (0..64).map(|_| w.alloc_failure()).collect()
        };
        assert_ne!(roll(f.worker(0)), roll(f.worker(1)));
    }

    #[test]
    fn report_merges_commutatively_across_threads() {
        let cfg = FaultConfig {
            shard_corruption_rate: 0.01,
            alloc_fail_rate: 0.05,
            ..FaultConfig::off().with_channel_delays(0.02, Cycles::from_micros(3))
        };
        let totals = |threads: usize| -> RecoveryReport {
            let f = SyncFaultInjector::new(99, cfg);
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        let f = &f;
                        s.spawn(move || {
                            // Each OS thread runs a fixed partition of the
                            // 8 logical streams.
                            for stream in (t as u64..8).step_by(threads) {
                                let mut w = f.worker(stream);
                                for _ in 0..500 {
                                    w.alloc_failure();
                                    w.channel_delay();
                                    if w.shard_corruption() {
                                        w.corruption_target(4);
                                    }
                                }
                            }
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().unwrap();
                }
            });
            f.report()
        };
        let one = totals(1);
        assert_eq!(one, totals(2));
        assert_eq!(one, totals(8));
        assert!(one.faults_injected > 0);
        assert_eq!(one.delay_time, Cycles::from_micros(3) * one.channel_delays);
    }
}
