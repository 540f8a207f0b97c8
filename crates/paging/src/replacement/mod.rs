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
use dsa_core::ids::{FrameNo, IdSet, PageNo};

use crate::sensors::Sensors;

/// The frames a victim may be chosen from: those whose page is resident
/// and not pinned (vacant and quarantined frames hold no page). A `Copy`
/// view borrowed from the engine's frame table and pin set — nothing is
/// built per fault — with an exact O(1) `len`, an O(1) `contains`, and
/// `iter`/`nth` in ascending frame order, the order ties are broken by.
#[derive(Clone, Copy, Debug)]
pub struct Eligible<'a> {
    pub(crate) frames: &'a [Option<PageNo>],
    pub(crate) pinned: &'a IdSet<PageNo>,
    /// The number of frames [`Eligible::contains`] accepts.
    pub(crate) len: usize,
}

impl<'a> Eligible<'a> {
    /// Number of eligible frames.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no frame is eligible. The engine never asks for a victim
    /// then.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of frames in the memory being served, eligible or not.
    #[must_use]
    pub(crate) fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// Whether a frame whose table entry is `slot` is eligible.
    fn admits(&self, slot: &Option<PageNo>) -> bool {
        matches!(slot, Some(page) if self.pinned.is_empty() || !self.pinned.contains(page))
    }

    /// Whether `frame` is eligible.
    #[must_use]
    pub(crate) fn contains(&self, frame: FrameNo) -> bool {
        self.frames
            .get(frame.index())
            .is_some_and(|slot| self.admits(slot))
    }

    /// The eligible frames in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = FrameNo> + 'a {
        let view = *self;
        let slots = self.frames.iter().enumerate();
        slots.filter_map(move |(i, slot)| view.admits(slot).then_some(FrameNo(i as u64)))
    }

    /// The `k`-th eligible frame in ascending order — `FrameNo(k)`
    /// itself whenever every frame is eligible.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.len()`.
    #[must_use]
    pub(crate) fn nth(&self, k: usize) -> FrameNo {
        assert!(k < self.len, "nth({k}) of {} eligible frames", self.len);
        if self.len == self.frames.len() {
            return FrameNo(k as u64);
        }
        // Internal invariant: `len` counts what `iter` yields.
        #[allow(clippy::expect_used)]
        self.iter().nth(k).expect("len counts the eligible frames")
    }
}

/// A fixed-allocation replacement strategy.
///
/// The engine calls [`Replacer::loaded`] when a page is placed in a
/// frame, [`Replacer::touched`] on every reference to a resident page,
/// [`Replacer::evicted`] when a frame is vacated and
/// [`Replacer::victim`] when one must be. A frame is [`Eligible`] only
/// between its `loaded` and its `evicted`, so a policy with an order of
/// its own (recency list, load queue, clock hand) walks that order and
/// tests frames against the view; one that ranks the whole set iterates
/// the view, whose ascending order makes a tie broken by position a tie
/// broken by frame. `victim` must return a frame the view contains and
/// must not allocate.
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
    fn victim(
        &mut self,
        eligible: Eligible<'_>,
        sensors: &mut Sensors,
        now: VirtualTime,
    ) -> FrameNo;

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

/// Test support: the tables an [`Eligible`] borrows, without an engine.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;

    /// Frame `i` holds page `i`.
    pub(crate) struct Frames {
        frames: Vec<Option<PageNo>>,
        pinned: IdSet<PageNo>,
    }

    impl Frames {
        /// `frames` resident frames, nothing pinned.
        pub(crate) fn all(frames: u64) -> Frames {
            Frames::only(frames, &(0..frames).collect::<Vec<_>>())
        }

        /// `frames` resident frames, every page pinned but those in the
        /// frames `eligible` lists.
        pub(crate) fn only(frames: u64, eligible: &[u64]) -> Frames {
            Frames {
                frames: (0..frames).map(|f| Some(PageNo(f))).collect(),
                pinned: (0..frames)
                    .filter(|f| !eligible.contains(f))
                    .map(PageNo)
                    .collect(),
            }
        }

        /// Empties `frame` (its pin, if any, stays behind).
        pub(crate) fn vacate(mut self, frame: u64) -> Frames {
            self.frames[frame as usize] = None;
            self
        }

        pub(crate) fn view(&self) -> Eligible<'_> {
            let unpinned = |p: &&PageNo| !self.pinned.contains(p);
            Eligible {
                frames: &self.frames,
                pinned: &self.pinned,
                len: self.frames.iter().flatten().filter(unpinned).count(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::Frames;
    use super::*;

    #[test]
    fn view_enumerates_unpinned_resident_frames_ascending() {
        let frames = Frames::only(6, &[1, 2, 4, 5]).vacate(0).vacate(4);
        let view = frames.view();
        let listed: Vec<FrameNo> = view.iter().collect();
        assert_eq!(listed, [FrameNo(1), FrameNo(2), FrameNo(5)]);
        assert_eq!((view.len(), view.is_empty()), (3, false));
        assert_eq!(view.frame_count(), 6);
        for f in 0..8 {
            assert_eq!(view.contains(FrameNo(f)), listed.contains(&FrameNo(f)));
        }
        for (k, &f) in listed.iter().enumerate() {
            assert_eq!(view.nth(k), f, "nth({k}) under a pin");
        }
        assert!(Frames::only(2, &[]).view().is_empty());
    }

    #[test]
    fn nth_is_the_frame_number_when_every_frame_is_eligible() {
        let frames = Frames::all(5);
        let view = frames.view();
        assert_eq!(view.len(), 5);
        assert!((0..5).all(|k| view.nth(k) == FrameNo(k as u64)));
    }

    #[test]
    #[should_panic(expected = "nth(1) of 1 eligible")]
    fn nth_past_the_end_panics() {
        let _ = Frames::only(3, &[1]).view().nth(1);
    }

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
            Box::new(ClockRepl::new()),
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
