//! Compiler-derived predictive information.
//!
//! The paper distinguishes user-supplied advice (unreliable, advisory)
//! from compiler-supplied advice: "The situation is different when the
//! information is provided by a compiler, but only if it is known that
//! all programs written for the computer system will use such
//! compilers." Project ACSI-MATIC went furthest, attaching whole
//! "program descriptions" — which medium each segment should be in when
//! used, and overlay permissions — that storage allocation strategies
//! then analysed.
//!
//! [`AdvicePlanner`] plays that compiler: it analyses a finished
//! [`ProgramOp`] stream (the compiler sees the whole program), finds
//! each segment's *episodes of use*, and weaves in will-need directives
//! a little ahead of each episode and wont-need directives at each
//! episode's end. Because the analysis is exact, the output is the
//! upper bound on what predictive information can ever be worth — the
//! "compiler" row of experiment E8.

use std::collections::HashMap;

use dsa_core::access::ProgramOp;
use dsa_core::advice::{Advice, AdviceUnit};
use dsa_core::ids::SegId;

/// Planner parameters.
#[derive(Clone, Copy, Debug)]
pub struct PlannerCfg {
    /// How many operations ahead of an episode the will-need directive
    /// is placed (fetch lead time).
    pub lead: usize,
    /// Touches of a segment separated by at most this many operations
    /// belong to one episode.
    pub episode_gap: usize,
}

impl Default for PlannerCfg {
    fn default() -> Self {
        PlannerCfg {
            lead: 40,
            episode_gap: 200,
        }
    }
}

/// The "authoritarian compiler": exact whole-program advice planning.
#[derive(Clone, Debug, Default)]
pub struct AdvicePlanner {
    cfg: PlannerCfg,
}

/// One maximal run of uses of a segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Episode {
    seg: SegId,
    start: usize,
    end: usize,
}

impl AdvicePlanner {
    /// Creates a planner.
    #[must_use]
    pub fn new(cfg: PlannerCfg) -> AdvicePlanner {
        AdvicePlanner { cfg }
    }

    /// Finds every segment's episodes of use in `ops`.
    fn episodes(&self, ops: &[ProgramOp]) -> Vec<Episode> {
        let mut open: HashMap<SegId, Episode> = HashMap::new();
        let mut done: Vec<Episode> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            let ProgramOp::Touch { seg, .. } = *op else {
                continue;
            };
            match open.get_mut(&seg) {
                Some(ep) if i - ep.end <= self.cfg.episode_gap => ep.end = i,
                Some(ep) => {
                    done.push(*ep);
                    *ep = Episode {
                        seg,
                        start: i,
                        end: i,
                    };
                }
                None => {
                    open.insert(
                        seg,
                        Episode {
                            seg,
                            start: i,
                            end: i,
                        },
                    );
                }
            }
        }
        done.extend(open.into_values());
        done.sort_unstable_by_key(|e| e.start);
        done
    }

    /// Returns `ops` with compiler advice woven in.
    ///
    /// Will-need directives are placed `lead` operations before each
    /// episode (but never before the segment's `Define`); wont-need
    /// directives immediately after each episode's last touch.
    #[must_use]
    pub fn plan(&self, ops: &[ProgramOp]) -> Vec<ProgramOp> {
        let episodes = self.episodes(ops);
        // Defines' positions bound how early a will-need may go.
        let mut defined_at: HashMap<SegId, usize> = HashMap::new();
        for (i, op) in ops.iter().enumerate() {
            if let ProgramOp::Define { seg, .. } = *op {
                defined_at.entry(seg).or_insert(i);
            }
        }
        // Directives to insert *before* the op at each index.
        let mut insert_before: HashMap<usize, Vec<ProgramOp>> = HashMap::new();
        for ep in &episodes {
            let earliest = defined_at.get(&ep.seg).map_or(0, |&d| d + 1);
            let at = ep.start.saturating_sub(self.cfg.lead).max(earliest);
            insert_before
                .entry(at)
                .or_default()
                .push(ProgramOp::advise(Advice::WillNeed(AdviceUnit::Segment(
                    ep.seg,
                ))));
            insert_before
                .entry(ep.end + 1)
                .or_default()
                .push(ProgramOp::advise(Advice::WontNeed(AdviceUnit::Segment(
                    ep.seg,
                ))));
        }
        let mut out = Vec::with_capacity(ops.len() + 2 * episodes.len());
        for (i, op) in ops.iter().enumerate() {
            if let Some(directives) = insert_before.remove(&i) {
                out.extend(directives);
            }
            out.push(*op);
        }
        if let Some(directives) = insert_before.remove(&ops.len()) {
            out.extend(directives);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_core::access::{AccessKind, AdviceKind};

    fn touch(seg: u32, offset: u64) -> ProgramOp {
        ProgramOp::Touch {
            seg: SegId(seg),
            offset,
            kind: AccessKind::Read,
        }
    }

    fn ops_with_two_episodes() -> Vec<ProgramOp> {
        let mut ops = vec![
            ProgramOp::Define {
                seg: SegId(0),
                size: 100,
            },
            ProgramOp::Define {
                seg: SegId(1),
                size: 100,
            },
        ];
        // Episode 1 of seg 0.
        ops.extend([touch(0, 1), touch(0, 2)]);
        // A long stretch of seg 1.
        for i in 0..300 {
            ops.push(touch(1, i % 100));
        }
        // Episode 2 of seg 0.
        ops.push(touch(0, 3));
        ops
    }

    #[test]
    fn episodes_split_on_gaps() {
        let planner = AdvicePlanner::new(PlannerCfg {
            lead: 10,
            episode_gap: 100,
        });
        let ops = ops_with_two_episodes();
        let eps = planner.episodes(&ops);
        let seg0: Vec<_> = eps.iter().filter(|e| e.seg == SegId(0)).collect();
        let seg1: Vec<_> = eps.iter().filter(|e| e.seg == SegId(1)).collect();
        assert_eq!(seg0.len(), 2, "the 300-op gap splits seg 0's uses");
        assert_eq!(seg1.len(), 1);
    }

    #[test]
    fn plan_preserves_original_ops_in_order() {
        let planner = AdvicePlanner::new(PlannerCfg::default());
        let ops = ops_with_two_episodes();
        let planned = planner.plan(&ops);
        let stripped: Vec<ProgramOp> = planned
            .iter()
            .copied()
            .filter(|op| !matches!(op, ProgramOp::Advise { .. }))
            .collect();
        assert_eq!(stripped, ops, "planning must only insert advice");
    }

    #[test]
    fn will_need_precedes_each_episode() {
        let planner = AdvicePlanner::new(PlannerCfg {
            lead: 20,
            episode_gap: 100,
        });
        let ops = ops_with_two_episodes();
        let planned = planner.plan(&ops);
        // For every touch, some earlier will-need for its segment exists
        // with no intervening wont-need for that segment.
        let mut advised_in: std::collections::HashSet<SegId> = std::collections::HashSet::new();
        for op in &planned {
            match *op {
                ProgramOp::Advise {
                    kind: AdviceKind::WillNeed,
                    segment: true,
                    number,
                } => {
                    let s = SegId(number as u32);
                    advised_in.insert(s);
                }
                ProgramOp::Advise {
                    kind: AdviceKind::WontNeed,
                    segment: true,
                    number,
                } => {
                    let s = SegId(number as u32);
                    advised_in.remove(&s);
                }
                ProgramOp::Touch { seg, .. } => {
                    assert!(
                        advised_in.contains(&seg),
                        "touch of {seg} without live will-need"
                    );
                }
                _ => {}
            }
        }
    }

    #[test]
    fn will_need_never_precedes_define() {
        let planner = AdvicePlanner::new(PlannerCfg {
            lead: 1000,
            episode_gap: 100,
        });
        let ops = ops_with_two_episodes();
        let planned = planner.plan(&ops);
        let mut defined: std::collections::HashSet<SegId> = std::collections::HashSet::new();
        for op in &planned {
            match *op {
                ProgramOp::Define { seg, .. } => {
                    defined.insert(seg);
                }
                ProgramOp::Advise {
                    kind: AdviceKind::WillNeed,
                    segment: true,
                    number,
                } => {
                    let s = SegId(number as u32);
                    assert!(defined.contains(&s), "advice for undeclared {s}");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn wont_need_follows_episode_end() {
        let planner = AdvicePlanner::new(PlannerCfg {
            lead: 5,
            episode_gap: 50,
        });
        let ops = ops_with_two_episodes();
        let planned = planner.plan(&ops);
        // After the final op of the stream every segment's episode has
        // been closed: count will-needs == wont-needs per segment.
        let mut balance: HashMap<SegId, i64> = HashMap::new();
        for op in &planned {
            match *op {
                ProgramOp::Advise {
                    kind: AdviceKind::WillNeed,
                    segment: true,
                    number,
                } => {
                    let s = SegId(number as u32);
                    *balance.entry(s).or_insert(0) += 1;
                }
                ProgramOp::Advise {
                    kind: AdviceKind::WontNeed,
                    segment: true,
                    number,
                } => {
                    let s = SegId(number as u32);
                    *balance.entry(s).or_insert(0) -= 1;
                }
                _ => {}
            }
        }
        for (seg, b) in balance {
            assert_eq!(b, 0, "{seg}: unbalanced episodes");
        }
    }

    #[test]
    fn empty_stream_plans_to_empty() {
        let planner = AdvicePlanner::new(PlannerCfg::default());
        assert!(planner.plan(&[]).is_empty());
    }
}
