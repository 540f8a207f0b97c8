//! Streaming workload generation: seedable, resumable, constant-memory
//! iterators over references and allocation events.
//!
//! The materializing generators ([`RefStringCfg::generate`],
//! [`AllocStreamCfg::generate`]) cap experiment scale at whatever `Vec`
//! fits in memory. Every model's internal state, however, is bounded by
//! the *page universe* (or the live-block population), not by the trace
//! length — so the same sequences can be produced one reference at a
//! time in constant memory. This module does exactly that, under an
//! **exact-replay contract**:
//!
//! 1. **Prefix equality.** For every configuration, seed and length,
//!    `cfg.stream(wf, seed).take(len)` yields byte-for-byte the sequence
//!    `cfg.generate(len, wf, &mut Rng64::new(seed))` materializes. That
//!    holds by construction — the models exist once, here, and both
//!    [`RefStringCfg::generate`] and [`AllocStreamCfg::generate`] drain a
//!    stream — so `tests/properties_trace_stream.rs` pins every regime's
//!    first references as literal vectors instead (golden outputs cannot
//!    drift).
//! 2. **Checkpoint/resume.** Streams are `Clone`: a clone is an O(state)
//!    checkpoint, and continuing the original and the clone produces
//!    identical suffixes.
//! 3. **Constant memory.** Per-item work never allocates proportionally
//!    to the position; state is O(page universe) for reference strings
//!    and O(live blocks) for allocation streams.
//!
//! Streams are *infinite* (`next()` never returns `None` for reference
//! models; allocation streams likewise run forever): length is the
//! caller's cut, exactly as `len` was an argument to `generate`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dsa_core::access::{Access, AccessKind, AllocEvent, AllocRequest};
use dsa_core::ids::{PageNo, Words};

use crate::allocstream::AllocStreamCfg;
use crate::refstring::RefStringCfg;
use crate::rng::{Rng64, Zipf};

/// A resumable reference-string iterator.
///
/// See the module docs for the exact-replay contract. `position()` is
/// the number of references already yielded; together with the
/// construction seed it identifies the stream's exact point.
pub trait RefStream: Iterator<Item = Access> + Clone {
    /// References yielded so far.
    fn position(&self) -> u64;
}

/// Per-regime generator state: what each reference model carries from
/// one reference to the next.
#[derive(Clone, Debug)]
enum Regime {
    Uniform {
        pages: u64,
    },
    LruStack {
        /// Draws the stack depth of each reference.
        zipf: Zipf,
        /// The LRU stack, most recent first. It starts as a random
        /// permutation (shuffled once at construction) so early
        /// references are not biased toward low page numbers.
        stack: Vec<u64>,
    },
    WorkingSetPhases {
        set: u64,
        phase_len: u64,
        /// Every page; a phase's set is `all[..set]`, reshuffled at
        /// each phase start and untouched until the next.
        all: Vec<u64>,
        remaining: u64,
    },
    SequentialSweep {
        pages: u64,
    },
    LoopNest {
        inner: u64,
        outer: u64,
        period: u64,
        /// Iteration counter.
        iter: u64,
        /// Cursor within the iteration: `p < inner` walks the inner
        /// pages, `inner + q` (q < outer) walks the outer candidates.
        cursor: u64,
    },
    HotCold {
        hot: u64,
        cold: u64,
        p_hot: f64,
    },
}

/// A seedable, resumable, constant-memory reference-string stream.
///
/// # Examples
///
/// ```
/// use dsa_trace::refstring::RefStringCfg;
/// use dsa_trace::rng::Rng64;
///
/// let cfg = RefStringCfg::LruStack { pages: 16, theta: 1.0 };
/// let streamed: Vec<_> = cfg.stream(0.3, 42).take(100).collect();
/// let materialized = cfg.generate(100, 0.3, &mut Rng64::new(42));
/// assert_eq!(streamed, materialized);
/// ```
#[derive(Clone, Debug)]
pub struct RefStringStream {
    regime: Regime,
    write_fraction: f64,
    /// Crate-visible so that `generate` can hand the caller's generator
    /// back, advanced past every draw made.
    pub(crate) rng: Rng64,
    pos: u64,
}

impl RefStringCfg {
    /// The reference model as an endless stream drawing from
    /// `Rng64::new(seed)`; [`RefStringCfg::generate`] is its prefix.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has an empty page universe.
    #[must_use]
    pub fn stream(&self, write_fraction: f64, seed: u64) -> RefStringStream {
        self.stream_with_rng(write_fraction, Rng64::new(seed))
    }

    /// [`RefStringCfg::stream`] over a caller-positioned generator, for
    /// composing with other draws from the same seed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has an empty page universe.
    #[must_use]
    pub(crate) fn stream_with_rng(&self, write_fraction: f64, mut rng: Rng64) -> RefStringStream {
        assert!(self.page_universe() > 0, "empty page universe");
        let regime = match *self {
            RefStringCfg::Uniform { pages } => Regime::Uniform { pages },
            RefStringCfg::LruStack { pages, theta } => {
                let mut stack: Vec<u64> = (0..pages).collect();
                rng.shuffle(&mut stack);
                Regime::LruStack {
                    zipf: Zipf::new(pages, theta),
                    stack,
                }
            }
            RefStringCfg::WorkingSetPhases {
                pages,
                set,
                phase_len,
            } => Regime::WorkingSetPhases {
                set: set.min(pages).max(1),
                phase_len,
                all: (0..pages).collect(),
                remaining: 0,
            },
            RefStringCfg::SequentialSweep { pages } => Regime::SequentialSweep { pages },
            RefStringCfg::LoopNest {
                inner,
                outer,
                period,
            } => Regime::LoopNest {
                inner,
                outer,
                period: period.max(1),
                iter: 0,
                cursor: 0,
            },
            RefStringCfg::HotCold { hot, cold, p_hot } => Regime::HotCold { hot, cold, p_hot },
        };
        RefStringStream {
            regime,
            write_fraction,
            rng,
            pos: 0,
        }
    }
}

impl RefStringStream {
    /// Projects the stream to bare page numbers (the shape the paging
    /// machines and the stack-distance engines consume).
    pub fn pages(self) -> impl Iterator<Item = PageNo> + Clone {
        self.map(|a| PageNo(a.name.value()))
    }

    fn emit(&mut self, page: u64) -> Access {
        let kind = if self.rng.chance(self.write_fraction) {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        self.pos += 1;
        Access {
            name: dsa_core::ids::Name(page),
            kind,
        }
    }
}

impl Iterator for RefStringStream {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        // Select the page, *then* roll the write fraction (the draw
        // order is part of the replay contract).
        let page = match self.regime {
            Regime::Uniform { pages } => self.rng.below(pages),
            Regime::LruStack {
                ref zipf,
                ref mut stack,
            } => {
                let depth = zipf.sample(&mut self.rng) as usize;
                stack[..=depth].rotate_right(1);
                stack[0]
            }
            Regime::WorkingSetPhases {
                set,
                phase_len,
                ref mut all,
                ref mut remaining,
            } => {
                if *remaining == 0 {
                    self.rng.shuffle(all);
                    *remaining = phase_len.max(1);
                }
                *remaining -= 1;
                *self.rng.pick(&all[..set as usize])
            }
            Regime::SequentialSweep { pages } => self.pos % pages,
            Regime::LoopNest {
                inner,
                outer,
                period,
                ref mut iter,
                ref mut cursor,
            } => loop {
                // `cursor < inner`: the inner pages, touched every
                // iteration. `inner <= cursor < inner + outer`: the
                // outer candidates, staggered so that only those with
                // q % period == iter % period fire (outer/period of
                // them, rounded, per iteration).
                if *cursor < inner {
                    let p = *cursor;
                    *cursor += 1;
                    break p;
                }
                if *cursor < inner + outer {
                    let q = *cursor - inner;
                    *cursor += 1;
                    if q % period == *iter % period {
                        break inner + q;
                    }
                } else {
                    *iter += 1;
                    *cursor = 0;
                }
            },
            Regime::HotCold { hot, cold, p_hot } => {
                // An empty set takes no references, whatever the roll
                // says (the roll is still drawn: draw order is fixed).
                let roll_hot = self.rng.chance(p_hot);
                if cold == 0 || (roll_hot && hot > 0) {
                    self.rng.below(hot)
                } else {
                    hot + self.rng.below(cold)
                }
            }
        };
        Some(self.emit(page))
    }

    /// The stream never ends, so `take(len)` knows its exact length.
    fn size_hint(&self) -> (usize, Option<usize>) {
        (usize::MAX, None)
    }
}

impl RefStream for RefStringStream {
    fn position(&self) -> u64 {
        self.pos
    }
}

/// The allocation/free event stream [`AllocStreamCfg::generate`]
/// drains; memory is bounded by the live-block population the target
/// load factor allows, independent of how many events have been drawn.
#[derive(Clone, Debug)]
pub(crate) struct AllocEventStream {
    cfg: AllocStreamCfg,
    /// Min-heap of `(expiry, id, size)` over live blocks.
    live: BinaryHeap<Reverse<(u64, u64, Words)>>,
    live_words: Words,
    next_id: u64,
    t: u64,
    pos: u64,
    pub(crate) rng: Rng64,
}

impl AllocStreamCfg {
    /// The stream [`AllocStreamCfg::generate`] drains, over a
    /// caller-positioned generator.
    #[must_use]
    pub(crate) fn stream_with_rng(&self, rng: Rng64) -> AllocEventStream {
        AllocEventStream {
            cfg: self.clone(),
            live: BinaryHeap::new(),
            live_words: 0,
            next_id: 0,
            t: 0,
            pos: 0,
            rng,
        }
    }
}

impl Iterator for AllocEventStream {
    type Item = AllocEvent;

    #[inline]
    fn next(&mut self) -> Option<AllocEvent> {
        let e = if self.live_words < self.cfg.target_live_words {
            let size = self.cfg.sizes.sample(&mut self.rng);
            let lifetime = self.rng.exponential(self.cfg.mean_lifetime) as u64;
            let id = self.next_id;
            self.next_id += 1;
            self.live
                .push(Reverse((self.t + lifetime.max(1), id, size)));
            self.live_words += size;
            AllocEvent::Alloc(AllocRequest { id, size })
        } else {
            // Invariant: live_words >= target > 0 here, so at least one
            // live block exists to retire.
            #[allow(clippy::expect_used)]
            let Reverse((_, id, size)) = self.live.pop().expect("target > 0 implies live blocks");
            self.live_words -= size;
            AllocEvent::Free { id }
        };
        self.t += 1;
        self.pos += 1;
        Some(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocstream::SizeDist;

    fn cfgs() -> Vec<RefStringCfg> {
        vec![
            RefStringCfg::Uniform { pages: 10 },
            RefStringCfg::LruStack {
                pages: 12,
                theta: 1.1,
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
            RefStringCfg::HotCold {
                hot: 3,
                cold: 17,
                p_hot: 0.8,
            },
        ]
    }

    #[test]
    fn stream_prefix_equals_generate() {
        for cfg in cfgs() {
            let materialized = cfg.generate(400, 0.3, &mut Rng64::new(99));
            let streamed: Vec<Access> = cfg.stream(0.3, 99).take(400).collect();
            assert_eq!(streamed, materialized, "{cfg:?}");
        }
    }

    #[test]
    fn clone_checkpoint_resumes_identically() {
        for cfg in cfgs() {
            let mut s = cfg.stream(0.2, 5);
            let head: Vec<Access> = s.by_ref().take(123).collect();
            assert_eq!(s.position(), 123);
            let checkpoint = s.clone();
            let a: Vec<Access> = s.take(77).collect();
            let b: Vec<Access> = checkpoint.take(77).collect();
            assert_eq!(a, b, "{cfg:?}");
            assert_eq!(head.len(), 123);
        }
    }

    #[test]
    fn pages_projection_matches_generate_pages() {
        for cfg in cfgs() {
            let materialized = cfg.generate_pages(200, &mut Rng64::new(3));
            let streamed: Vec<PageNo> = cfg.stream(0.0, 3).pages().take(200).collect();
            assert_eq!(streamed, materialized, "{cfg:?}");
        }
    }

    #[test]
    fn alloc_stream_state_is_bounded_by_live_population() {
        let cfg = AllocStreamCfg {
            sizes: SizeDist::Fixed { size: 10 },
            mean_lifetime: 25.0,
            target_live_words: 1_000,
        };
        let mut s = cfg.stream_with_rng(Rng64::new(1));
        for _ in 0..50_000 {
            let _ = s.next();
        }
        // At most target/size + 1 blocks can ever be live.
        assert!(s.live.len() <= 101, "heap grew to {}", s.live.len());
    }
}
