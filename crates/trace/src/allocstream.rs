//! Allocation/free event streams.
//!
//! Placement, fragmentation and compaction experiments (E5–E7) consume
//! streams of variable-size allocation requests and frees. The stream
//! generator holds a population of live blocks near a target load factor
//! and draws request sizes and lifetimes from configurable
//! distributions, in the style of the simulation studies the paper
//! alludes to ("analysis or experimentation can often be used to show
//! that the storage utilization will remain at an acceptable level",
//! citing Wald).

use dsa_core::access::AllocEvent;
use dsa_core::ids::Words;

use crate::rng::Rng64;

/// A request-size distribution.
#[derive(Clone, Copy, Debug)]
pub enum SizeDist {
    /// Uniform in `[lo, hi]`.
    Uniform {
        /// Smallest request.
        lo: Words,
        /// Largest request.
        hi: Words,
    },
    /// Exponential with the given mean, truncated to `[1, cap]`.
    Exponential {
        /// Mean request size.
        mean: f64,
        /// Upper truncation.
        cap: Words,
    },
    /// Two sizes: `small` with probability `p_small`, else `large`.
    /// Matches the paper's observation that placement policy choice
    /// depends on "the number of different allocation units".
    Bimodal {
        /// The common small size.
        small: Words,
        /// The rare large size.
        large: Words,
        /// Probability of a small request.
        p_small: f64,
    },
    /// One fixed size (degenerate case; useful as a control).
    Fixed {
        /// The size of every request.
        size: Words,
    },
}

impl SizeDist {
    /// Draws one request size.
    pub fn sample(&self, rng: &mut Rng64) -> Words {
        match *self {
            SizeDist::Uniform { lo, hi } => rng.range(lo.max(1), hi.max(1)),
            SizeDist::Exponential { mean, cap } => {
                (rng.exponential(mean) as Words).clamp(1, cap.max(1))
            }
            SizeDist::Bimodal {
                small,
                large,
                p_small,
            } => {
                if rng.chance(p_small) {
                    small.max(1)
                } else {
                    large.max(1)
                }
            }
            SizeDist::Fixed { size } => size.max(1),
        }
    }
}

/// Configuration for an allocation/free stream.
#[derive(Clone, Debug)]
pub struct AllocStreamCfg {
    /// Request-size distribution.
    pub sizes: SizeDist,
    /// Mean lifetime of a block, measured in events.
    pub mean_lifetime: f64,
    /// Target number of live *words*; while below it the stream is
    /// allocation-heavy, at or above it frees catch up. Models a program
    /// running at a steady storage demand.
    pub target_live_words: Words,
}

impl AllocStreamCfg {
    /// Generates `n` events. Every `Free` refers to a previously issued
    /// `Alloc` of the same stream; ids are unique across the stream.
    ///
    /// While live words are below [`AllocStreamCfg::target_live_words`]
    /// the stream allocates; at or above the target it frees the block
    /// whose drawn lifetime expires soonest. Lifetimes therefore govern
    /// the *order* in which blocks die (and hence the hole pattern the
    /// allocator must cope with), while the target governs steady-state
    /// occupancy.
    ///
    /// The model lives in [`crate::stream`]: this drains `n` events from
    /// a stream over the caller's generator and hands the generator back
    /// advanced past exactly those draws.
    #[must_use]
    pub fn generate(&self, n: usize, rng: &mut Rng64) -> Vec<AllocEvent> {
        let mut stream = self.stream_with_rng(rng.clone());
        // `extend` into a sized `Vec`, with the stream's `next` inlined:
        // through `collect` a draw measured about a fifth slower.
        let mut out = Vec::with_capacity(n);
        out.extend(stream.by_ref().take(n));
        *rng = stream.rng;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn cfg() -> AllocStreamCfg {
        AllocStreamCfg {
            sizes: SizeDist::Uniform { lo: 10, hi: 100 },
            mean_lifetime: 40.0,
            target_live_words: 5_000,
        }
    }

    #[test]
    fn stream_has_requested_length() {
        let mut rng = Rng64::new(1);
        assert_eq!(cfg().generate(1000, &mut rng).len(), 1000);
    }

    #[test]
    fn frees_only_refer_to_prior_allocs_and_never_twice() {
        let mut rng = Rng64::new(2);
        let events = cfg().generate(5000, &mut rng);
        let mut live: HashSet<u64> = HashSet::new();
        for e in &events {
            match *e {
                AllocEvent::Alloc(r) => {
                    assert!(live.insert(r.id), "duplicate alloc id {}", r.id);
                    assert!(r.size > 0);
                }
                AllocEvent::Free { id } => {
                    assert!(live.remove(&id), "free of dead/unknown id {id}");
                }
            }
        }
    }

    #[test]
    fn live_words_hover_near_target() {
        let mut rng = Rng64::new(3);
        let c = cfg();
        let events = c.generate(10_000, &mut rng);
        let mut live_words: i64 = 0;
        let mut sizes = std::collections::HashMap::new();
        let mut peak: i64 = 0;
        for e in &events[..] {
            match *e {
                AllocEvent::Alloc(r) => {
                    sizes.insert(r.id, r.size as i64);
                    live_words += r.size as i64;
                }
                AllocEvent::Free { id } => live_words -= sizes[&id],
            }
            peak = peak.max(live_words);
        }
        assert!(peak >= c.target_live_words as i64, "never reached target");
        // One request beyond target is the worst possible overshoot.
        assert!(peak <= c.target_live_words as i64 + 100);
    }

    #[test]
    fn size_dist_samples_match_spec() {
        let mut rng = Rng64::new(4);
        for _ in 0..1000 {
            let s = SizeDist::Uniform { lo: 5, hi: 9 }.sample(&mut rng);
            assert!((5..=9).contains(&s));
        }
        for _ in 0..1000 {
            let s = SizeDist::Exponential {
                mean: 50.0,
                cap: 200,
            }
            .sample(&mut rng);
            assert!((1..=200).contains(&s));
        }
        for _ in 0..1000 {
            let s = SizeDist::Bimodal {
                small: 8,
                large: 512,
                p_small: 0.9,
            }
            .sample(&mut rng);
            assert!(s == 8 || s == 512);
        }
        assert_eq!(SizeDist::Fixed { size: 64 }.sample(&mut rng), 64);
    }

    #[test]
    fn bimodal_probability_respected() {
        let mut rng = Rng64::new(5);
        let d = SizeDist::Bimodal {
            small: 1,
            large: 2,
            p_small: 0.8,
        };
        let smalls = (0..20_000).filter(|_| d.sample(&mut rng) == 1).count();
        let frac = smalls as f64 / 20_000.0;
        assert!((frac - 0.8).abs() < 0.02, "{frac}");
    }

    #[test]
    fn determinism() {
        let a = cfg().generate(500, &mut Rng64::new(42));
        let b = cfg().generate(500, &mut Rng64::new(42));
        assert_eq!(a, b);
    }
}
