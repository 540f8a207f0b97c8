//! Shared workload builders for the experiment binaries.

use dsa_trace::allocstream::SizeDist;
use dsa_trace::program::ProgramCfg;

/// The standard survey program used by experiment E9: large enough to
/// pressure every machine's working storage.
#[must_use]
pub fn survey_program_cfg() -> ProgramCfg {
    ProgramCfg {
        segments: 48,
        seg_sizes: SizeDist::Exponential {
            mean: 700.0,
            cap: 4000,
        },
        touches: 30_000,
        phase_set: 6,
        phase_len: 500,
        write_fraction: 0.3,
        resize_prob: 0.05,
        advice_accuracy: None,
        wild_touch_prob: 0.0,
        ..ProgramCfg::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_trace::rng::Rng64;

    #[test]
    fn survey_program_is_reproducible_and_sized() {
        let cfg = survey_program_cfg();
        let a = cfg.generate(&mut Rng64::new(9));
        let b = cfg.generate(&mut Rng64::new(9));
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.touch_count(), cfg.touches);
        // Large enough to pressure the smallest appendix core (16K).
        assert!(a.total_declared_words() > 16_384);
    }
}
