//! Per-level fault rates.

use dsa_core::clock::Cycles;

/// Rates and shapes for one injector.
///
/// Each rate is a probability in `[0, 1]` rolled at the corresponding
/// hazard site: `transfer_error_rate` per transfer attempt (including
/// retries — a retried transfer can fail again), `bad_frame_rate` per
/// demand load into a frame, `channel_delay_rate` per transfer, and
/// `alloc_fail_rate` per allocation request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Probability a backing-storage transfer fails (parity/transfer
    /// error) and must be retried.
    pub transfer_error_rate: f64,
    /// Probability the frame a page was just loaded into is found bad,
    /// forcing quarantine and a refetch elsewhere.
    pub bad_frame_rate: f64,
    /// Probability a transfer is delayed by channel congestion.
    pub channel_delay_rate: f64,
    /// The stall charged when a channel delay fires.
    pub channel_delay: Cycles,
    /// Probability an allocation request is refused outright.
    pub alloc_fail_rate: f64,
    /// Probability (rolled per chaos batch) that one shard's free list
    /// is corrupted in place, forcing quarantine and a rebuild from the
    /// live-allocation snapshot.
    pub shard_corruption_rate: f64,
}

impl FaultConfig {
    /// No faults at all — the happy-path simulator of PRs 0–1.
    #[must_use]
    pub const fn off() -> FaultConfig {
        FaultConfig {
            transfer_error_rate: 0.0,
            bad_frame_rate: 0.0,
            channel_delay_rate: 0.0,
            channel_delay: Cycles::ZERO,
            alloc_fail_rate: 0.0,
            shard_corruption_rate: 0.0,
        }
    }

    /// Only transfer errors, at `rate` per transfer attempt — the knob
    /// the `exp_06_faults` degradation curves sweep.
    #[must_use]
    pub fn transfer_errors(rate: f64) -> FaultConfig {
        FaultConfig {
            transfer_error_rate: rate,
            ..FaultConfig::off()
        }
    }

    /// Sets the bad-frame rate.
    #[must_use]
    pub fn with_bad_frames(mut self, rate: f64) -> FaultConfig {
        self.bad_frame_rate = rate;
        self
    }

    /// Sets the channel-delay rate and stall length.
    #[must_use]
    pub fn with_channel_delays(mut self, rate: f64, delay: Cycles) -> FaultConfig {
        self.channel_delay_rate = rate;
        self.channel_delay = delay;
        self
    }
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig::off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let c = FaultConfig::transfer_errors(0.1)
            .with_bad_frames(0.2)
            .with_channel_delays(0.3, Cycles::from_micros(5));
        assert_eq!(c.transfer_error_rate, 0.1);
        assert_eq!(c.bad_frame_rate, 0.2);
        assert_eq!(c.channel_delay_rate, 0.3);
        assert_eq!(c.channel_delay, Cycles::from_micros(5));
        assert_eq!(c.alloc_fail_rate, 0.0);
    }
}
