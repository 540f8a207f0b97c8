//! Segment-structured synthetic programs.
//!
//! The machine-survey experiment (E9) and the advice experiment (E8)
//! need workloads expressed machine-independently, as streams of
//! [`ProgramOp`]s: declare segments, touch items in them, resize and
//! delete them, and optionally emit advisory directives. The generator
//! models a program as a sequence of *phases*, each working over a small
//! set of segments — the structure the paper says segmentation exists to
//! convey ("if the program has started using information from a
//! particular segment, it is likely, in a short time, to need to use
//! other information in that segment").

use dsa_core::access::{AccessKind, ProgramOp};
use dsa_core::advice::{Advice, AdviceUnit};
use dsa_core::ids::{SegId, Words};

use crate::allocstream::SizeDist;
use crate::rng::Rng64;

/// Configuration for a synthetic segmented program.
#[derive(Clone, Debug)]
pub struct ProgramCfg {
    /// Number of segments the program declares.
    pub segments: u32,
    /// Distribution of segment sizes, in words.
    pub seg_sizes: SizeDist,
    /// Number of `Touch` operations to generate.
    pub touches: usize,
    /// Segments per phase working set.
    pub phase_set: u32,
    /// Touches per phase; 0 is read as 1.
    pub phase_len: usize,
    /// Fraction of touches that are writes.
    pub write_fraction: f64,
    /// Probability per phase boundary that some live segment is resized.
    pub resize_prob: f64,
    /// If `Some(accuracy)`, advice is emitted at phase boundaries:
    /// will-need for the incoming set and wont-need for the outgoing
    /// set. Each directive independently names the *correct* segment
    /// with probability `accuracy`, otherwise a uniformly random wrong
    /// one — the knob experiment E8 sweeps.
    pub advice_accuracy: Option<f64>,
    /// Probability per touch of an out-of-bounds offset (an illegal
    /// subscript for experiment E13). The generated offset is `size +
    /// small`, guaranteed to violate the segment bound.
    pub wild_touch_prob: f64,
    /// Unread: no machine models register-only compute, so the
    /// generator emits nothing for it. It stays only while the
    /// `benchmark/` harness still sets it.
    pub compute_between: u64,
}

impl Default for ProgramCfg {
    fn default() -> Self {
        ProgramCfg {
            segments: 24,
            seg_sizes: SizeDist::Exponential {
                mean: 300.0,
                cap: 2048,
            },
            touches: 20_000,
            phase_set: 4,
            phase_len: 400,
            write_fraction: 0.3,
            resize_prob: 0.1,
            advice_accuracy: None,
            wild_touch_prob: 0.0,
            compute_between: 0,
        }
    }
}

/// A generated program: its op stream and the declared segment sizes.
#[derive(Clone, Debug)]
pub struct SyntheticProgram {
    /// The operation stream.
    pub ops: Vec<ProgramOp>,
    /// Size of each declared segment, indexed by `SegId.0`.
    pub seg_sizes: Vec<Words>,
}

impl SyntheticProgram {
    /// Total words across all declared segments (ignoring resizes).
    #[must_use]
    pub fn total_declared_words(&self) -> Words {
        self.seg_sizes.iter().sum()
    }

    /// Number of `Touch` operations in the stream.
    #[must_use]
    pub fn touch_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, ProgramOp::Touch { .. }))
            .count()
    }
}

impl ProgramCfg {
    /// Generates the program.
    ///
    /// The stream starts with `Define`s for every segment, then runs
    /// phases of touches; segments are deleted at the end. Offsets of
    /// ordinary touches are uniform within the segment's current size;
    /// wild touches exceed it.
    ///
    /// # Panics
    ///
    /// Panics if `segments` or `phase_set` is zero.
    #[must_use]
    pub fn generate(&self, rng: &mut Rng64) -> SyntheticProgram {
        assert!(self.segments > 0, "need at least one segment");
        assert!(self.phase_set > 0, "phase set must be non-empty");
        let nseg = self.segments;
        let mut sizes: Vec<Words> = (0..nseg).map(|_| self.seg_sizes.sample(rng)).collect();
        // One op per touch, a define and a delete per segment, and per
        // phase at most a resize and the turnover of the advised set.
        let set_size = self.phase_set.min(nseg) as usize;
        let per_phase = 1 + 2 * set_size * usize::from(self.advice_accuracy.is_some());
        // A phase of no touches would never end the stream; it is read
        // as a phase of one.
        let phase_len = self.phase_len.max(1);
        let phases = self.touches.div_ceil(phase_len);
        let mut ops = Vec::with_capacity(self.touches + 2 * nseg as usize + phases * per_phase);
        for (i, &size) in sizes.iter().enumerate() {
            ops.push(ProgramOp::Define {
                seg: SegId(i as u32),
                size,
            });
        }

        let mut all: Vec<u32> = (0..nseg).collect();
        let mut current: Vec<u32> = Vec::new();
        let mut emitted = 0usize;
        while emitted < self.touches {
            // Phase boundary: pick the next working set.
            rng.shuffle(&mut all);
            let next: Vec<u32> = all[..set_size].to_vec();
            if let Some(acc) = self.advice_accuracy {
                let advise =
                    |seg: u32, incoming: bool, rng: &mut Rng64, ops: &mut Vec<ProgramOp>| {
                        let named = if rng.chance(acc) {
                            seg
                        } else {
                            rng.below(u64::from(nseg)) as u32
                        };
                        let unit = AdviceUnit::Segment(SegId(named));
                        ops.push(ProgramOp::advise(if incoming {
                            Advice::WillNeed(unit)
                        } else {
                            Advice::WontNeed(unit)
                        }));
                    };
                for &s in &current {
                    if !next.contains(&s) {
                        advise(s, false, rng, &mut ops);
                    }
                }
                for &s in &next {
                    if !current.contains(&s) {
                        advise(s, true, rng, &mut ops);
                    }
                }
            }
            current = next;
            if rng.chance(self.resize_prob) {
                let victim = *rng.pick(&current) as usize;
                let new_size = self.seg_sizes.sample(rng);
                sizes[victim] = new_size;
                ops.push(ProgramOp::Resize {
                    seg: SegId(victim as u32),
                    size: new_size,
                });
            }
            let phase_touches = phase_len.min(self.touches - emitted);
            for _ in 0..phase_touches {
                let seg = *rng.pick(&current);
                let size = sizes[seg as usize];
                let wild = rng.chance(self.wild_touch_prob);
                let offset = if wild {
                    size + rng.range(0, 7)
                } else {
                    rng.below(size.max(1))
                };
                let kind = if rng.chance(self.write_fraction) {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                ops.push(ProgramOp::Touch {
                    seg: SegId(seg),
                    offset,
                    kind,
                });
                emitted += 1;
            }
        }
        for i in 0..nseg {
            ops.push(ProgramOp::Delete { seg: SegId(i) });
        }
        SyntheticProgram {
            ops,
            seg_sizes: sizes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_core::access::AdviceKind;

    fn small_cfg() -> ProgramCfg {
        ProgramCfg {
            segments: 8,
            seg_sizes: SizeDist::Uniform { lo: 50, hi: 200 },
            touches: 1000,
            phase_set: 3,
            phase_len: 100,
            write_fraction: 0.5,
            resize_prob: 0.2,
            advice_accuracy: None,
            wild_touch_prob: 0.0,
            ..ProgramCfg::default()
        }
    }

    #[test]
    fn touch_count_matches_cfg() {
        let p = small_cfg().generate(&mut Rng64::new(1));
        assert_eq!(p.touch_count(), 1000);
    }

    #[test]
    fn defines_precede_touches_and_deletes_close() {
        let p = small_cfg().generate(&mut Rng64::new(2));
        let first_touch = p
            .ops
            .iter()
            .position(|op| matches!(op, ProgramOp::Touch { .. }))
            .unwrap();
        let defines = p
            .ops
            .iter()
            .take(first_touch)
            .filter(|op| matches!(op, ProgramOp::Define { .. }))
            .count();
        assert_eq!(defines, 8);
        let deletes = p
            .ops
            .iter()
            .filter(|op| matches!(op, ProgramOp::Delete { .. }))
            .count();
        assert_eq!(deletes, 8);
        assert!(matches!(p.ops.last().unwrap(), ProgramOp::Delete { .. }));
    }

    #[test]
    fn touches_stay_in_bounds_without_wild_prob() {
        let p = small_cfg().generate(&mut Rng64::new(3));
        // Track sizes through resizes.
        let mut sizes: Vec<Words> = vec![0; 8];
        for op in &p.ops {
            match *op {
                ProgramOp::Define { seg, size } | ProgramOp::Resize { seg, size } => {
                    sizes[seg.0 as usize] = size;
                }
                ProgramOp::Touch { seg, offset, .. } => {
                    assert!(offset < sizes[seg.0 as usize], "oob touch generated");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn wild_touches_violate_bounds() {
        let mut cfg = small_cfg();
        cfg.wild_touch_prob = 1.0;
        cfg.resize_prob = 0.0;
        let p = cfg.generate(&mut Rng64::new(4));
        for op in &p.ops {
            if let ProgramOp::Touch { seg, offset, .. } = *op {
                assert!(offset >= p.seg_sizes[seg.0 as usize]);
            }
        }
    }

    #[test]
    fn advice_is_emitted_when_enabled() {
        let mut cfg = small_cfg();
        cfg.advice_accuracy = Some(1.0);
        let p = cfg.generate(&mut Rng64::new(5));
        let advice = p
            .ops
            .iter()
            .filter(|op| matches!(op, ProgramOp::Advise { .. }))
            .count();
        assert!(advice > 0, "no advice emitted");
        let none = small_cfg().generate(&mut Rng64::new(5));
        assert_eq!(
            none.ops
                .iter()
                .filter(|op| matches!(op, ProgramOp::Advise { .. }))
                .count(),
            0
        );
    }

    #[test]
    fn accurate_advice_names_segments_about_to_be_used() {
        let mut cfg = small_cfg();
        cfg.advice_accuracy = Some(1.0);
        let p = cfg.generate(&mut Rng64::new(6));
        // Every will-need advice must be followed by a touch of that
        // segment before the next phase boundary block of advice ends
        // and the following phase completes.
        for (i, op) in p.ops.iter().enumerate() {
            if let ProgramOp::Advise {
                kind: AdviceKind::WillNeed,
                segment: true,
                number,
            } = *op
            {
                let seg = SegId(number as u32);
                let horizon = &p.ops[i..(i + 2 * cfg.phase_len + 16).min(p.ops.len())];
                let touched = horizon
                    .iter()
                    .any(|o| matches!(*o, ProgramOp::Touch { seg: s, .. } if s == seg));
                // The phase may end early at stream end; allow the tail.
                if i + cfg.phase_len < p.ops.len() {
                    assert!(
                        touched,
                        "will-need advice for {seg} never honoured near op {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_stream_holds_one_op_per_touch() {
        let mut cfg = small_cfg();
        cfg.advice_accuracy = Some(0.5);
        cfg.compute_between = 0;
        let p = cfg.generate(&mut Rng64::new(9));
        cfg.compute_between = 3;
        assert_eq!(cfg.generate(&mut Rng64::new(9)).ops, p.ops);
        let count = |is: fn(&ProgramOp) -> bool| p.ops.iter().filter(|op| is(op)).count();
        let resizes = count(|op| matches!(op, ProgramOp::Resize { .. }));
        let advice = count(|op| matches!(op, ProgramOp::Advise { .. }));
        assert!(resizes > 0 && advice > 0);
        assert_eq!(
            p.ops.len(),
            cfg.touches + 2 * cfg.segments as usize + resizes + advice
        );
    }

    #[test]
    fn a_phase_of_no_touches_is_a_phase_of_one() {
        let cfg = ProgramCfg {
            phase_len: 0,
            touches: 10,
            resize_prob: 0.0,
            ..ProgramCfg::default()
        };
        let p = cfg.generate(&mut Rng64::new(10));
        assert_eq!(p.touch_count(), 10);
        let one = ProgramCfg {
            phase_len: 1,
            ..cfg
        };
        assert_eq!(one.generate(&mut Rng64::new(10)).ops, p.ops);
    }

    #[test]
    fn determinism() {
        let a = small_cfg().generate(&mut Rng64::new(7));
        let b = small_cfg().generate(&mut Rng64::new(7));
        assert_eq!(a.ops, b.ops);
    }

    #[test]
    fn total_declared_words_is_sum() {
        let p = small_cfg().generate(&mut Rng64::new(8));
        // Sizes vector may reflect resizes; the sum is over current sizes.
        assert_eq!(p.total_declared_words(), p.seg_sizes.iter().sum::<u64>());
    }
}
