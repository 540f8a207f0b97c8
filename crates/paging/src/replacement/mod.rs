//! Replacement strategies.
//!
//! "When it is necessary to make room in working storage for some new
//! information, a replacement strategy is used to determine which
//! informational units should be overlayed. The strategy should seek to
//! avoid the overlaying of information which may be required again in
//! the near future. Program and information structure ... or recent
//! history of usage of information may guide the allocator toward this
//! ideal" — §Replacement Strategies. The detailed evaluation the paper
//! cites is Belady's study \[1\], whose cast we implement in full:
//!
//! | Policy | Module | Provenance |
//! |---|---|---|
//! | FIFO | [`fifo`] | Belady's baseline |
//! | LRU | [`lru`] | recency of use |
//! | Clock / second chance | [`clock`] | use-bit approximation of LRU |
//! | Random | [`random`] | Belady's control |
//! | Class-based random | [`nru`] | the M44/44X strategy (A.2): random among the least-recommended (use, modify) class |
//! | LFU | [`lfu`] | the M44's "frequency of usage" criterion taken neat, with optional aging |
//! | ATLAS learning program | [`atlas`] | Kilburn et al. (A.1): inactivity-period prediction |
//! | MIN | [`min`] | Belady's offline optimum — a bound, not a realizable policy |
//! | Working set | [`ws`] | variable-allocation counterpoint |
//!
//! All fixed-allocation policies implement [`Replacer`], the interface
//! [`crate::paged::PagedMemory`] drives; they learn about loads and
//! touches through callbacks (the software analogue of the paper's
//! use/modify sensors, which are also available to them directly at
//! victim-selection time). The whole cast is indexable through
//! [`registry`] — count, constructors, table labels, and which members
//! are exact stack algorithms — shared by experiments E4 and E12.

pub mod atlas;
pub mod clock;
pub mod fifo;
pub mod lfu;
pub mod lru;
pub mod min;
pub mod nru;
pub mod random;
pub mod registry;
pub mod ws;

use dsa_core::clock::VirtualTime;
use dsa_core::ids::{FrameNo, PageNo};

use crate::sensors::Sensors;

/// A fixed-allocation replacement strategy.
///
/// The engine calls [`Replacer::loaded`] when a page is placed in a
/// frame, [`Replacer::touched`] on every reference to a resident page,
/// and [`Replacer::victim`] when a frame must be vacated.
/// [`Replacer::victim`] must return one of `eligible` (frames holding
/// unpinned resident pages).
///
/// `Send` is a supertrait so boxed policies (and the machines holding
/// them) can be dispatched to the parallel simulation engine's workers.
pub trait Replacer: Send {
    /// A page was loaded into `frame`.
    fn loaded(&mut self, frame: FrameNo, page: PageNo, now: VirtualTime);

    /// A resident page was referenced.
    fn touched(&mut self, frame: FrameNo, page: PageNo, now: VirtualTime, write: bool) {
        let _ = (frame, page, now, write);
    }

    /// Chooses a frame to vacate among `eligible` (never empty).
    fn victim(&mut self, eligible: &[FrameNo], sensors: &mut Sensors, now: VirtualTime) -> FrameNo;

    /// The page in `frame` was evicted.
    fn evicted(&mut self, frame: FrameNo) {
        let _ = frame;
    }

    /// Advisory: the page in `frame` will not be needed for some time
    /// (a "wont-need" directive landed on it). Default: ignored.
    fn hint_idle(&mut self, frame: FrameNo) {
        let _ = frame;
    }

    /// A short label for experiment tables.
    fn name(&self) -> &'static str;
}

/// `table[frame]` of a frame-indexed table of per-frame policy state,
/// grown with `None` (nothing tracked) to reach it.
pub(crate) fn slot<T: Clone>(table: &mut Vec<Option<T>>, frame: FrameNo) -> &mut Option<T> {
    if frame.index() >= table.len() {
        table.resize(frame.index() + 1, None);
    }
    &mut table[frame.index()]
}

/// A tiny deterministic xorshift generator used by the randomized
/// policies, kept local so `dsa-paging` needs no workload-crate
/// dependency.
#[derive(Clone, Debug)]
pub(crate) struct TinyRng(u64);

impl TinyRng {
    pub(crate) fn new(seed: u64) -> TinyRng {
        TinyRng(seed | 1)
    }

    pub(crate) fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    pub(crate) fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_rng_is_deterministic_and_in_range() {
        let mut a = TinyRng::new(42);
        let mut b = TinyRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
        for _ in 0..1000 {
            assert!(a.below(7) < 7);
        }
    }

    #[test]
    fn tiny_rng_zero_seed_is_usable() {
        let mut r = TinyRng::new(0);
        let first = r.next();
        assert_ne!(first, 0);
    }
}

#[cfg(test)]
mod probe_tests {
    use crate::paged::PagedMemory;
    use crate::replacement::atlas::AtlasLearning;
    use crate::replacement::clock::ClockRepl;
    use crate::replacement::fifo::FifoRepl;
    use crate::replacement::lfu::LfuRepl;
    use crate::replacement::lru::LruRepl;
    use crate::replacement::min::MinRepl;
    use crate::replacement::nru::ClassRandomRepl;
    use crate::replacement::random::RandomRepl;
    use crate::replacement::Replacer;
    use dsa_core::ids::PageNo;
    use dsa_probe::CountingProbe;

    /// The engine emits events centrally, so one test run per policy
    /// proves the whole cast traces identically: touch/fault/evict
    /// totals from the probe must equal the engine's own statistics.
    #[test]
    fn every_policy_traces_consistently_with_stats() {
        let trace: Vec<PageNo> = (0..400u64).map(|i| PageNo((i * 13) % 24)).collect();
        let frames = 8;
        let policies: Vec<Box<dyn Replacer>> = vec![
            Box::new(LruRepl::new()),
            Box::new(FifoRepl::new()),
            Box::new(ClockRepl::new(frames)),
            Box::new(RandomRepl::new(5)),
            Box::new(ClassRandomRepl::new(5, 8)),
            Box::new(AtlasLearning::new()),
            Box::new(LfuRepl::with_aging(32)),
            Box::new(MinRepl::new(&trace)),
        ];
        for policy in policies {
            let name = policy.name();
            let mut mem = PagedMemory::new(frames, policy);
            let mut probe = CountingProbe::new();
            let stats = mem
                .run_pages_probed(&trace, &mut probe)
                .expect("no pinning");
            assert_eq!(probe.touches, stats.references, "{name}: touches");
            assert_eq!(probe.faults, stats.faults, "{name}: faults");
            assert_eq!(probe.evictions, stats.evictions, "{name}: evictions");
            assert_eq!(
                probe.dirty_evictions, stats.dirty_evictions,
                "{name}: dirty evictions"
            );
            assert_eq!(probe.prefetches, stats.prefetches, "{name}: prefetches");
        }
    }

    /// `run_pages` and `run_pages_probed` with a sink attached must
    /// drive the engine identically — probing never perturbs behaviour.
    #[test]
    fn probing_does_not_change_fault_counts() {
        let trace: Vec<PageNo> = (0..300u64).map(|i| PageNo((i * 7) % 20)).collect();
        let mut plain = PagedMemory::new(6, Box::new(LruRepl::new()));
        let mut probed = PagedMemory::new(6, Box::new(LruRepl::new()));
        let mut probe = CountingProbe::new();
        let a = plain.run_pages(&trace).expect("no pinning");
        let b = probed
            .run_pages_probed(&trace, &mut probe)
            .expect("no pinning");
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.evictions, b.evictions);
        probed.check_invariants();
    }

    /// `words_per_page` scales the word quantities carried by evictions.
    #[test]
    fn words_per_page_scales_traced_transfers() {
        let trace: Vec<PageNo> = (0..10u64).map(PageNo).collect();
        let mut mem = PagedMemory::new(4, Box::new(LruRepl::new())).with_words_per_page(512);
        let mut probe = CountingProbe::new();
        mem.run_pages_probed(&trace, &mut probe)
            .expect("no pinning");
        assert_eq!(probe.evictions, 6);
        assert_eq!(probe.evicted_words, 6 * 512);
    }
}
