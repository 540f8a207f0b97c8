//! The fixed-allocation policy cast as an indexable registry.
//!
//! Experiments E4 and E12 both sweep the same cast of replacement
//! policies; keeping the count, the constructors, and the table labels
//! in one place (mirroring `dsa_machines::presets::machine_by_index`)
//! means adding a policy cannot desync them. Indexes follow E4's table
//! order, which is Belady's presentation order: the offline bound
//! first, then the realizable policies.

use dsa_core::ids::PageNo;

use crate::replacement::atlas::AtlasLearning;
use crate::replacement::clock::ClockRepl;
use crate::replacement::fifo::FifoRepl;
use crate::replacement::lfu::LfuRepl;
use crate::replacement::lru::LruRepl;
use crate::replacement::min::MinRepl;
use crate::replacement::nru::ClassRandomRepl;
use crate::replacement::random::RandomRepl;
use crate::replacement::Replacer;

/// Index of Belady's MIN (the offline optimum).
pub const MIN: usize = 0;
/// Index of true LRU.
pub const LRU: usize = 1;
/// Index of Clock / second chance.
pub(crate) const CLOCK: usize = 2;
/// Index of FIFO.
pub const FIFO: usize = 3;
/// Index of the M44's class-based random selection.
pub(crate) const CLASS_RANDOM: usize = 4;
/// Index of pure random selection.
pub(crate) const RANDOM: usize = 5;
/// Index of the ATLAS learning program.
pub const ATLAS: usize = 6;
/// Index of aged LFU.
pub(crate) const LFU_AGED: usize = 7;

/// Number of registered policies ([`policy_by_index`]'s domain).
#[must_use]
pub const fn policy_count() -> usize {
    8
}

/// Constructs policy `index` for a memory replaying `trace` (MIN needs
/// the future; the rest ignore it). No policy is told a size — Clock
/// reads the frame count from the memory it serves — so `_frames` is
/// ignored. Lets a parallel sweep build each worker's policy on the
/// worker itself.
///
/// # Panics
///
/// Panics if `index >= policy_count()`.
#[must_use]
pub fn policy_by_index(index: usize, _frames: usize, trace: &[PageNo]) -> Box<dyn Replacer> {
    match index {
        MIN => Box::new(MinRepl::new(trace)),
        LRU => Box::new(LruRepl::new()),
        CLOCK => Box::new(ClockRepl::new()),
        FIFO => Box::new(FifoRepl::new()),
        CLASS_RANDOM => Box::new(ClassRandomRepl::new(4, 8)),
        RANDOM => Box::new(RandomRepl::new(4)),
        ATLAS => Box::new(AtlasLearning::new()),
        LFU_AGED => Box::new(LfuRepl::with_aging(32)),
        _ => panic!("policy index {index} out of range"),
    }
}

/// The experiment-table label of policy `index` (E4's row captions,
/// which annotate provenance and so differ from `Replacer::name`).
///
/// # Panics
///
/// Panics if `index >= policy_count()`.
#[must_use]
pub fn policy_label(index: usize) -> &'static str {
    match index {
        MIN => "MIN (Belady)",
        LRU => "LRU",
        CLOCK => "Clock",
        FIFO => "FIFO",
        CLASS_RANDOM => "class-random (M44)",
        RANDOM => "Random",
        ATLAS => "ATLAS learning",
        LFU_AGED => "LFU (aged)",
        _ => panic!("policy index {index} out of range"),
    }
}

/// Whether policy `index` is an exact stack algorithm — inclusion
/// property holds and `dsa-stackdist` computes its whole fault curve
/// in one pass. True for MIN and LRU only: FIFO and Clock lack
/// inclusion outright (Belady's anomaly), the randomized policies are
/// stochastic, ATLAS's learned periods depend on its own eviction
/// history, and aged LFU's periodic halving ties its ranks to fault
/// timing.
#[must_use]
pub fn is_exact_stack(index: usize) -> bool {
    matches!(index, MIN | LRU)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_index_constructs_and_labels() {
        let trace: Vec<PageNo> = (0..50u64).map(|i| PageNo(i % 7)).collect();
        let mut labels = Vec::new();
        for i in 0..policy_count() {
            let p = policy_by_index(i, 8, &trace);
            assert!(!p.name().is_empty());
            labels.push(policy_label(i));
        }
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), policy_count(), "labels must be distinct");
    }

    #[test]
    fn named_indexes_agree_with_constructors() {
        let trace: Vec<PageNo> = (0..10u64).map(PageNo).collect();
        assert_eq!(policy_by_index(MIN, 4, &trace).name(), "MIN (Belady)");
        assert_eq!(policy_by_index(LRU, 4, &trace).name(), "LRU");
        assert_eq!(policy_by_index(FIFO, 4, &trace).name(), "FIFO");
        assert_eq!(policy_by_index(ATLAS, 4, &trace).name(), "ATLAS learning");
    }

    #[test]
    fn only_min_and_lru_are_exact_stack() {
        let stack: Vec<usize> = (0..policy_count()).filter(|&i| is_exact_stack(i)).collect();
        assert_eq!(stack, vec![MIN, LRU]);
    }
}
