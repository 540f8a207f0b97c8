//! The seed-driven fault source.

use dsa_core::clock::Cycles;
use dsa_trace::rng::Rng64;

use crate::config::FaultConfig;

/// Deterministically decides, at each hazard site, whether a simulated
/// hardware failure occurs.
///
/// Each decision consumes randomness from one [`Rng64`] stream in the
/// order the hazard sites are reached, so a run is bit-identical for the
/// same `(seed, config, workload)` triple — the property the
/// `properties_faults` suite pins down.
///
/// The injector only *decides*; it never touches storage state. The
/// caller (machine driver, segment store, paging engine) performs the
/// recovery and emits the probe events.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    rng: Rng64,
    config: FaultConfig,
    injected: u64,
}

impl FaultInjector {
    /// Creates an injector for `config`, seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64, config: FaultConfig) -> FaultInjector {
        FaultInjector {
            rng: Rng64::new(seed),
            config,
            injected: 0,
        }
    }

    /// Rolls one transfer attempt: `true` means the transfer failed and
    /// must be retried.
    pub fn transfer_error(&mut self) -> bool {
        if self.config.transfer_error_rate > 0.0 && self.rng.chance(self.config.transfer_error_rate)
        {
            self.injected += 1;
            return true;
        }
        false
    }

    /// Rolls one demand load: `true` means the destination frame is bad
    /// and must be quarantined.
    pub fn frame_bad(&mut self) -> bool {
        if self.config.bad_frame_rate > 0.0 && self.rng.chance(self.config.bad_frame_rate) {
            self.injected += 1;
            return true;
        }
        false
    }

    /// Rolls one transfer for channel congestion, returning the stall to
    /// charge if the channel is delayed.
    pub fn channel_delay(&mut self) -> Option<Cycles> {
        if self.config.channel_delay_rate > 0.0 && self.rng.chance(self.config.channel_delay_rate) {
            self.injected += 1;
            return Some(self.config.channel_delay);
        }
        None
    }

    /// Rolls one allocation request: `true` means the request is refused
    /// outright (the storage-exhaustion path is exercised even when the
    /// store has room).
    pub fn alloc_failure(&mut self) -> bool {
        if self.config.alloc_fail_rate > 0.0 && self.rng.chance(self.config.alloc_fail_rate) {
            self.injected += 1;
            return true;
        }
        false
    }

    /// Rolls one shard-corruption hazard: `true` means a shard's free
    /// list is corrupted in place and must be quarantined and rebuilt.
    pub(crate) fn shard_corruption(&mut self) -> bool {
        if self.config.shard_corruption_rate > 0.0
            && self.rng.chance(self.config.shard_corruption_rate)
        {
            self.injected += 1;
            return true;
        }
        false
    }

    /// Draws a uniform value in `[0, n)` from this injector's stream —
    /// used to pick deterministic fault *targets* (which shard to
    /// corrupt) from the same schedule that decided the fault fires.
    pub(crate) fn roll_below(&mut self, n: u64) -> u64 {
        self.rng.below(n.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_config_never_fires_and_consumes_no_randomness() {
        let mut a = FaultInjector::new(7, FaultConfig::off());
        for _ in 0..1000 {
            assert!(!a.transfer_error());
            assert!(!a.frame_bad());
            assert!(a.channel_delay().is_none());
            assert!(!a.alloc_failure());
        }
        assert_eq!(a.injected, 0);
        // The stream was untouched: a fresh generator agrees.
        assert_eq!(a.rng.next_u64(), Rng64::new(7).next_u64());
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = FaultConfig::transfer_errors(0.1).with_bad_frames(0.05);
        let mut a = FaultInjector::new(42, cfg);
        let mut b = FaultInjector::new(42, cfg);
        for _ in 0..10_000 {
            assert_eq!(a.transfer_error(), b.transfer_error());
            assert_eq!(a.frame_bad(), b.frame_bad());
        }
        assert_eq!(a.injected, b.injected);
        assert!(a.injected > 0, "rates this high must fire");
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let mut inj = FaultInjector::new(3, FaultConfig::transfer_errors(0.01));
        let fired = (0..100_000).filter(|_| inj.transfer_error()).count();
        assert!((500..2000).contains(&fired), "{fired} of 100000 at 1%");
    }

    #[test]
    fn channel_delay_returns_the_configured_stall() {
        let mut inj = FaultInjector::new(
            1,
            FaultConfig::off().with_channel_delays(1.0, Cycles::from_micros(9)),
        );
        assert_eq!(inj.channel_delay(), Some(Cycles::from_micros(9)));
        assert_eq!(inj.injected, 1);
    }
}
