//! Reference-string models.
//!
//! A reference string is the sequence of names (here: page-granular
//! names) a program touches. Replacement-strategy behaviour is entirely
//! determined by it, so the models below are chosen to span the regimes
//! the paper and Belady discuss:
//!
//! * [`RefStringCfg::Uniform`] — independent references; no locality, the
//!   regime where every demand strategy degenerates;
//! * [`RefStringCfg::LruStack`] — the stack-distance model: each
//!   reference re-touches the page at a Zipf-distributed LRU depth, so
//!   locality strength is one knob (`theta`);
//! * [`RefStringCfg::WorkingSetPhases`] — program phases: a random
//!   working set is touched for a while, then the set shifts ("segments
//!   merely by their existence implicitly contain … information about
//!   future use");
//! * [`RefStringCfg::SequentialSweep`] — cyclic sweeps over more pages
//!   than fit in core: LRU's classic worst case and FIFO-anomaly
//!   territory;
//! * [`RefStringCfg::LoopNest`] — a strict nested-loop pattern with
//!   per-page fixed periods, the regime the ATLAS "learning program" was
//!   built for (Appendix A.1, experiment E12).

use dsa_core::access::ReferenceString;
use dsa_core::ids::PageNo;

use crate::rng::Rng64;

/// A reference-string model plus its parameters.
#[derive(Clone, Debug)]
pub enum RefStringCfg {
    /// Independent uniform references over `pages` pages.
    Uniform {
        /// Number of distinct pages.
        pages: u64,
    },
    /// LRU-stack-distance model: with probability given by a Zipf law of
    /// exponent `theta` over depths `1..=pages`, re-reference the page at
    /// that LRU depth. Larger `theta` means stronger locality.
    LruStack {
        /// Number of distinct pages.
        pages: u64,
        /// Zipf exponent over stack depths; 0.8–1.2 is program-like.
        theta: f64,
    },
    /// Working-set phases: touch a random subset of `set` pages
    /// uniformly for `phase_len` references, then pick a fresh subset.
    WorkingSetPhases {
        /// Number of distinct pages.
        pages: u64,
        /// Working-set size per phase.
        set: u64,
        /// References per phase.
        phase_len: u64,
    },
    /// Deterministic cyclic sweep over `pages` pages, one reference per
    /// page per sweep.
    SequentialSweep {
        /// Number of distinct pages.
        pages: u64,
    },
    /// A strict two-level loop nest: an inner set of `inner` pages is
    /// touched every iteration; each of the `outer` remaining pages is
    /// touched once every `period` iterations (staggered). Gives each
    /// page a *stable inactivity period* — exactly the signal the ATLAS
    /// learning program predicts from.
    LoopNest {
        /// Pages touched on every iteration.
        inner: u64,
        /// Pages touched periodically.
        outer: u64,
        /// Iterations between touches of an outer page.
        period: u64,
    },
    /// A stationary hot/cold mixture: with probability `p_hot` the next
    /// reference goes (uniformly) to one of the `hot` pages, otherwise
    /// to one of the remaining cold pages. No recency structure at all —
    /// the regime where *frequency* of use (LFU, the M44's criterion) is
    /// the right signal and recency adds nothing.
    HotCold {
        /// Number of hot pages.
        hot: u64,
        /// Number of cold pages.
        cold: u64,
        /// Probability that a reference is to the hot set.
        p_hot: f64,
    },
}

impl RefStringCfg {
    /// The number of distinct pages the model may reference.
    #[must_use]
    pub(crate) fn page_universe(&self) -> u64 {
        match *self {
            RefStringCfg::Uniform { pages }
            | RefStringCfg::LruStack { pages, .. }
            | RefStringCfg::WorkingSetPhases { pages, .. }
            | RefStringCfg::SequentialSweep { pages } => pages,
            RefStringCfg::LoopNest { inner, outer, .. } => inner + outer,
            RefStringCfg::HotCold { hot, cold, .. } => hot + cold,
        }
    }

    /// Generates a page-granular reference string of `len` references,
    /// with each reference independently a write with probability
    /// `write_fraction`.
    ///
    /// The returned accesses use the *page number as the name*; callers
    /// that want word-granular names can scale by a page size. The
    /// models themselves live in [`crate::stream`]: this drains `len`
    /// references from a stream over the caller's generator and hands
    /// the generator back advanced past exactly those draws.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has an empty page universe.
    #[must_use]
    pub fn generate(&self, len: usize, write_fraction: f64, rng: &mut Rng64) -> ReferenceString {
        let mut stream = self.stream_with_rng(write_fraction, rng.clone());
        let out = stream.by_ref().take(len).collect();
        *rng = stream.rng;
        out
    }

    /// Convenience: generate and project to bare page numbers.
    #[must_use]
    pub fn generate_pages(&self, len: usize, rng: &mut Rng64) -> Vec<PageNo> {
        self.generate(len, 0.0, rng)
            .into_iter()
            .map(|a| PageNo(a.name.value()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng64 {
        Rng64::new(0xD5A_5EED)
    }

    fn distinct_pages(s: &[PageNo]) -> usize {
        s.iter().collect::<std::collections::HashSet<_>>().len()
    }

    #[test]
    fn lengths_are_exact() {
        let mut r = rng();
        for cfg in [
            RefStringCfg::Uniform { pages: 10 },
            RefStringCfg::LruStack {
                pages: 10,
                theta: 1.0,
            },
            RefStringCfg::WorkingSetPhases {
                pages: 20,
                set: 5,
                phase_len: 7,
            },
            RefStringCfg::SequentialSweep { pages: 4 },
            RefStringCfg::LoopNest {
                inner: 3,
                outer: 6,
                period: 3,
            },
        ] {
            assert_eq!(cfg.generate(123, 0.3, &mut r).len(), 123, "{cfg:?}");
        }
    }

    #[test]
    fn pages_stay_in_universe() {
        let mut r = rng();
        for cfg in [
            RefStringCfg::Uniform { pages: 7 },
            RefStringCfg::LruStack {
                pages: 7,
                theta: 0.9,
            },
            RefStringCfg::WorkingSetPhases {
                pages: 7,
                set: 3,
                phase_len: 5,
            },
            RefStringCfg::SequentialSweep { pages: 7 },
            RefStringCfg::LoopNest {
                inner: 3,
                outer: 4,
                period: 2,
            },
            // Degenerate mixtures: every reference goes to the one
            // non-empty set, whatever `p_hot` says.
            RefStringCfg::HotCold {
                hot: 0,
                cold: 5,
                p_hot: 0.7,
            },
            RefStringCfg::HotCold {
                hot: 5,
                cold: 0,
                p_hot: 0.3,
            },
        ] {
            let universe = cfg.page_universe();
            for a in cfg.generate(500, 0.5, &mut r) {
                assert!(a.name.value() < universe, "{cfg:?}");
            }
        }
    }

    #[test]
    fn write_fraction_is_respected() {
        let mut r = rng();
        let cfg = RefStringCfg::Uniform { pages: 16 };
        let s = cfg.generate(20_000, 0.25, &mut r);
        let writes = s.iter().filter(|a| a.kind.is_write()).count();
        let frac = writes as f64 / s.len() as f64;
        assert!((frac - 0.25).abs() < 0.02, "write fraction {frac}");
        let all_reads = cfg.generate(100, 0.0, &mut r);
        assert!(all_reads.iter().all(|a| !a.kind.is_write()));
    }

    #[test]
    fn sequential_sweep_is_cyclic() {
        let mut r = rng();
        let s = RefStringCfg::SequentialSweep { pages: 3 }.generate_pages(9, &mut r);
        assert_eq!(
            s.iter().map(|p| p.0).collect::<Vec<_>>(),
            vec![0, 1, 2, 0, 1, 2, 0, 1, 2]
        );
    }

    #[test]
    fn lru_stack_locality_increases_with_theta() {
        // Stronger theta ⇒ fewer distinct pages in a fixed window.
        let mut r1 = Rng64::new(11);
        let mut r2 = Rng64::new(11);
        let weak = RefStringCfg::LruStack {
            pages: 200,
            theta: 0.5,
        }
        .generate_pages(2000, &mut r1);
        let strong = RefStringCfg::LruStack {
            pages: 200,
            theta: 2.0,
        }
        .generate_pages(2000, &mut r2);
        assert!(
            distinct_pages(&strong) < distinct_pages(&weak),
            "strong {} !< weak {}",
            distinct_pages(&strong),
            distinct_pages(&weak)
        );
    }

    #[test]
    fn working_set_phases_bound_distinct_pages_per_phase() {
        let mut r = rng();
        let cfg = RefStringCfg::WorkingSetPhases {
            pages: 50,
            set: 4,
            phase_len: 100,
        };
        let s = cfg.generate_pages(100, &mut r);
        assert!(distinct_pages(&s) <= 4);
    }

    #[test]
    fn loop_nest_inner_pages_recur_every_iteration() {
        let mut r = rng();
        let cfg = RefStringCfg::LoopNest {
            inner: 2,
            outer: 4,
            period: 4,
        };
        let s = cfg.generate_pages(60, &mut r);
        // Page 0 must appear with gap <= inner + outer/period + 1.
        let idx: Vec<usize> = s
            .iter()
            .enumerate()
            .filter(|(_, p)| p.0 == 0)
            .map(|(i, _)| i)
            .collect();
        assert!(idx.len() > 10);
        for w in idx.windows(2) {
            assert!(w[1] - w[0] <= 4, "gap {} too large", w[1] - w[0]);
        }
        // Outer pages appear with period-proportional gaps.
        let idx2: Vec<usize> = s
            .iter()
            .enumerate()
            .filter(|(_, p)| p.0 == 2)
            .map(|(i, _)| i)
            .collect();
        for w in idx2.windows(2) {
            assert!(
                w[1] - w[0] >= 8,
                "outer page recurred too fast: gap {}",
                w[1] - w[0]
            );
        }
    }

    #[test]
    fn determinism_given_seed() {
        let cfg = RefStringCfg::LruStack {
            pages: 30,
            theta: 1.0,
        };
        let a = cfg.generate(500, 0.3, &mut Rng64::new(99));
        let b = cfg.generate(500, 0.3, &mut Rng64::new(99));
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod hot_cold_tests {
    use super::*;
    use crate::rng::Rng64;

    #[test]
    fn hot_pages_dominate() {
        let cfg = RefStringCfg::HotCold {
            hot: 4,
            cold: 60,
            p_hot: 0.9,
        };
        let s = cfg.generate_pages(20_000, &mut Rng64::new(1));
        let hot_refs = s.iter().filter(|p| p.0 < 4).count();
        let frac = hot_refs as f64 / s.len() as f64;
        assert!((frac - 0.9).abs() < 0.02, "hot fraction {frac}");
        assert!(s.iter().all(|p| p.0 < 64));
    }

    #[test]
    fn universe_and_length() {
        let cfg = RefStringCfg::HotCold {
            hot: 3,
            cold: 5,
            p_hot: 0.5,
        };
        assert_eq!(cfg.page_universe(), 8);
        assert_eq!(cfg.generate_pages(777, &mut Rng64::new(2)).len(), 777);
    }
}
