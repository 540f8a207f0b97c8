//! End-of-run recovery accounting.

use core::fmt;

use dsa_core::clock::Cycles;

/// What the recovery machinery did during one run.
///
/// Every field mirrors a probe event one-for-one, so the totals here
/// reconcile exactly with a `CountingProbe` attached to the same run:
/// `faults_injected` with `FaultInjected` events (and the per-mode
/// fields with the event's mode payload), `retry_attempts` with
/// `RetryAttempt`, `frames_quarantined` with `FrameQuarantined`,
/// `degradation_steps` (and `shed_loads` within it) with
/// `DegradationStep`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Failures injected, across all modes.
    pub faults_injected: u64,
    /// Transfer attempts that failed with a simulated transfer error.
    pub transfer_errors: u64,
    /// Bad frames injected at demand loads.
    pub bad_frames: u64,
    /// Channel-congestion delays injected.
    pub channel_delays: u64,
    /// Allocation requests refused by the injector.
    pub forced_alloc_failures: u64,
    /// Shard free lists corrupted in place by the injector (the
    /// quarantine-and-rebuild path's trigger).
    pub shard_corruptions: u64,
    /// Transfer retries performed.
    pub retry_attempts: u64,
    /// Transfers whose retry budget ran out (completed from the duplexed
    /// backing copy; counted, never panicked on).
    pub retries_exhausted: u64,
    /// Frames retired permanently after a bad-frame injection.
    pub frames_quarantined: u64,
    /// Degradation rungs climbed under storage pressure (including
    /// shed-load rungs).
    pub degradation_steps: u64,
    /// Shed-load rungs: the load controller gave up speculative or
    /// pinned claims to let a demand through.
    pub shed_loads: u64,
    /// Simulated time spent in retry backoff and re-driven transfers.
    pub retry_time: Cycles,
    /// Simulated time lost to injected channel delays.
    pub delay_time: Cycles,
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} injected ({} xfer / {} frame / {} delay / {} alloc / {} corrupt), \
             {} retries ({} exhausted), {} quarantined, {} degradations ({} shed)",
            self.faults_injected,
            self.transfer_errors,
            self.bad_frames,
            self.channel_delays,
            self.forced_alloc_failures,
            self.shard_corruptions,
            self.retry_attempts,
            self.retries_exhausted,
            self.frames_quarantined,
            self.degradation_steps,
            self.shed_loads,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let r = RecoveryReport {
            faults_injected: 4,
            transfer_errors: 4,
            retry_attempts: 5,
            ..RecoveryReport::default()
        };
        let s = r.to_string();
        assert!(s.contains("4 injected") && s.contains("5 retries"), "{s}");
    }
}
