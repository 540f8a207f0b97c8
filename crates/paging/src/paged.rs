//! The demand-paging engine.
//!
//! "Demand paging uses the address mapping device to deflect reference
//! to a page which is not currently in one of the page frames. A page
//! fetch will then be initiated. Demand paging thus tends to minimize
//! the amount of working storage allocated to each program, since only
//! pages which are referenced are loaded" — §Fetch Strategies.
//!
//! [`PagedMemory`] drives a [`Replacer`] over a fixed pool of page
//! frames, maintains the use/modify [`Sensors`], honours advisory
//! directives (prefetch on will-need, demote on wont-need, pin, release
//! — the M44/MULTICS repertoire), and optionally keeps one frame vacant
//! at all times, as the ATLAS replacement machinery did ("the
//! replacement strategy ... is used to ensure that one page frame is
//! kept vacant, ready for the next page demand").

use dsa_core::advice::{Advice, AdviceUnit};
use dsa_core::clock::VirtualTime;
use dsa_core::error::{AllocError, CoreError};
use dsa_core::ids::{FrameNo, IdMap, IdSet, PageNo, Words};
use dsa_probe::{EventKind, NullProbe, Probe, Stamp};

use crate::replacement::{Eligible, Replacer};
use crate::sensors::Sensors;

/// A page pushed out of working storage.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EvictedPage {
    /// The page that was removed.
    pub page: PageNo,
    /// The frame it occupied.
    pub frame: FrameNo,
    /// Whether its modify sensor was set (a write-back is needed).
    pub dirty: bool,
}

/// The outcome of one reference.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TouchOutcome {
    /// The page was resident.
    Hit {
        /// The frame holding it.
        frame: FrameNo,
    },
    /// The page was fetched on demand.
    Fault {
        /// The frame it was loaded into.
        frame: FrameNo,
        /// The page evicted to make room, if any.
        evicted: Option<EvictedPage>,
        /// The page the vacant reserve pushed out after the load, if
        /// any. It may be the page just fetched.
        reserve: Option<EvictedPage>,
    },
}

impl TouchOutcome {
    /// True for [`TouchOutcome::Fault`].
    #[must_use]
    pub fn is_fault(&self) -> bool {
        matches!(self, TouchOutcome::Fault { .. })
    }
}

/// Cumulative paging statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct PagingStats {
    /// References processed.
    pub references: u64,
    /// Demand faults.
    pub faults: u64,
    /// Pages evicted (for any reason).
    pub evictions: u64,
    /// Evictions that required a write-back.
    pub dirty_evictions: u64,
    /// Pages loaded by will-need prefetch.
    pub prefetches: u64,
    /// Prefetched pages that were later actually referenced.
    pub useful_prefetches: u64,
    /// Pages evicted by release advice.
    pub advised_evictions: u64,
}

impl PagingStats {
    /// Faults per reference.
    #[must_use]
    pub fn fault_rate(&self) -> f64 {
        if self.references == 0 {
            0.0
        } else {
            self.faults as f64 / self.references as f64
        }
    }
}

/// What an advisory directive actually did.
#[derive(Clone, Copy, Debug, Default)]
pub struct AdviceOutcome {
    /// A page was brought in: `(page, frame)`.
    pub loaded: Option<(PageNo, FrameNo)>,
    /// A page was pushed out (to make room for a prefetch, or by a
    /// release directive).
    pub evicted: Option<EvictedPage>,
}

/// A fixed pool of page frames under a replacement strategy.
pub struct PagedMemory {
    frames: Vec<Option<PageNo>>,
    page_table: IdMap<PageNo, FrameNo>,
    free: Vec<FrameNo>,
    sensors: Sensors,
    replacer: Box<dyn Replacer>,
    pinned: IdSet<PageNo>,
    /// How many of `pinned` are resident. Pins may name absent pages,
    /// so this is kept as pages come, go and change pin state; the
    /// frames eligible for eviction number `resident - pinned_resident`.
    pinned_resident: usize,
    prefetched: IdSet<PageNo>,
    /// Frames retired from service after a bad-frame fault; never free,
    /// never loaded into again.
    quarantined: IdSet<FrameNo>,
    reserve_vacant: bool,
    /// Words a page stands for in probe events (machine adapters set
    /// this to their page size so traced transfer sizes are real).
    words_per_page: Words,
    stats: PagingStats,
}

impl PagedMemory {
    /// Creates a memory of `n_frames` frames driven by `replacer`.
    ///
    /// # Panics
    ///
    /// Panics if `n_frames` is zero.
    #[must_use]
    pub fn new(n_frames: usize, replacer: Box<dyn Replacer>) -> PagedMemory {
        assert!(n_frames > 0, "need at least one frame");
        PagedMemory {
            frames: vec![None; n_frames],
            page_table: IdMap::default(),
            free: (0..n_frames as u64).rev().map(FrameNo).collect(),
            sensors: Sensors::new(n_frames),
            replacer,
            pinned: IdSet::default(),
            pinned_resident: 0,
            prefetched: IdSet::default(),
            quarantined: IdSet::default(),
            reserve_vacant: false,
            words_per_page: 1,
            stats: PagingStats::default(),
        }
    }

    /// Sets how many words a page stands for in traced events.
    #[must_use]
    pub fn with_words_per_page(mut self, words: Words) -> PagedMemory {
        self.words_per_page = words.max(1);
        self
    }

    /// Enables the ATLAS discipline of keeping one frame vacant at all
    /// times, evicting eagerly after each load.
    #[must_use]
    pub fn with_vacant_reserve(mut self) -> PagedMemory {
        self.reserve_vacant = true;
        self
    }

    /// Number of resident pages.
    #[must_use]
    pub fn resident_count(&self) -> usize {
        self.page_table.len()
    }

    /// Frames still in service (not quarantined).
    #[must_use]
    pub(crate) fn usable_frames(&self) -> usize {
        self.frames.len() - self.quarantined.len()
    }

    /// Retires `frame` from service permanently: it leaves the free pool
    /// and is never loaded into again, shrinking working storage for the
    /// rest of the run. Any page it held is dropped *without* write-back
    /// — a frame is retired because its storage failed, so its contents
    /// are not to be trusted; the caller refetches the page from the
    /// backing copy into a surviving frame.
    ///
    /// Returns `false` (and does nothing) if the frame is out of range,
    /// already quarantined, or the last usable frame — a machine must
    /// always keep at least one frame in service.
    pub fn retire_frame(&mut self, frame: FrameNo) -> bool {
        if frame.index() >= self.frames.len()
            || self.quarantined.contains(&frame)
            || self.usable_frames() <= 1
        {
            return false;
        }
        if let Some(page) = self.frames[frame.index()].take() {
            self.unpin(page);
            self.page_table.remove(&page);
            self.prefetched.remove(&page);
            self.sensors.clear(frame);
            self.replacer.evicted(frame);
        } else {
            self.free.retain(|&f| f != frame);
        }
        self.quarantined.insert(frame);
        true
    }

    /// Drops every pin, returning how many were released. The
    /// degradation ladder's shed-load rung calls this to surrender
    /// advisory claims when a demand would otherwise fail.
    pub fn unpin_all(&mut self) -> usize {
        let n = self.pinned.len();
        self.pinned.clear();
        self.pinned_resident = 0;
        n
    }

    fn unpin(&mut self, page: PageNo) {
        if self.pinned.remove(&page) && self.page_table.contains_key(&page) {
            self.pinned_resident -= 1;
        }
    }

    /// The frame holding `page`, if resident.
    #[must_use]
    pub fn frame_of(&self, page: PageNo) -> Option<FrameNo> {
        self.page_table.get(&page).copied()
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> &PagingStats {
        &self.stats
    }

    fn evict_one_probed<P: Probe + ?Sized>(
        &mut self,
        at: Stamp,
        probe: &mut P,
    ) -> Result<EvictedPage, CoreError> {
        let now = at.vtime;
        let eligible = Eligible {
            frames: &self.frames,
            pinned: &self.pinned,
            len: self.page_table.len() - self.pinned_resident,
        };
        if eligible.is_empty() {
            return Err(CoreError::Alloc(AllocError::OutOfStorage {
                requested: 1,
                largest_free: 0,
            }));
        }
        let frame = self.replacer.victim(eligible, &mut self.sensors, now);
        debug_assert!(eligible.contains(frame), "policy returned ineligible frame");
        // Internal invariant, not a user-reachable failure: the policy
        // chose from `eligible`, which only admits resident frames.
        #[allow(clippy::expect_used)]
        let page = self.frames[frame.index()].expect("victim frame must be resident");
        Ok(self.push_out(page, frame, at, probe))
    }

    /// Empties `frame` of `page` into the free pool, counting and
    /// tracing the eviction.
    fn push_out<P: Probe + ?Sized>(
        &mut self,
        page: PageNo,
        frame: FrameNo,
        at: Stamp,
        probe: &mut P,
    ) -> EvictedPage {
        let dirty = self.sensors.modified(frame);
        self.frames[frame.index()] = None;
        self.page_table.remove(&page);
        self.sensors.clear(frame);
        self.replacer.evicted(frame);
        self.free.push(frame);
        self.stats.evictions += 1;
        if dirty {
            self.stats.dirty_evictions += 1;
        }
        probe.emit(
            EventKind::Evict {
                dirty,
                words: self.words_per_page,
            },
            at,
        );
        EvictedPage { page, frame, dirty }
    }

    fn load_into_free(&mut self, page: PageNo, now: VirtualTime) -> FrameNo {
        // Internal invariant, not a user-reachable failure: every caller
        // evicts (or checks) before loading.
        #[allow(clippy::expect_used)]
        let frame = self.free.pop().expect("caller ensured a free frame");
        self.frames[frame.index()] = Some(page);
        self.page_table.insert(page, frame);
        if !self.pinned.is_empty() && self.pinned.contains(&page) {
            self.pinned_resident += 1;
        }
        self.sensors.clear(frame);
        self.replacer.loaded(frame, page, now);
        frame
    }

    /// References `page` at reference-time `now`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Alloc`] if the page is absent and every
    /// frame is pinned.
    pub fn touch(
        &mut self,
        page: PageNo,
        write: bool,
        now: VirtualTime,
    ) -> Result<TouchOutcome, CoreError> {
        self.touch_probed(page, write, Stamp::vtime(now), &mut NullProbe)
    }

    /// The hit of a caller whose mapping device has already found
    /// `page` in `frame`, taken there without looking the page up again.
    /// The device names only pages the engine holds where it says, so
    /// the frame does hold the page (checked in debug builds).
    #[inline]
    pub fn touch_resolved(&mut self, page: PageNo, frame: FrameNo, write: bool, now: VirtualTime) {
        debug_assert_eq!(
            self.page_table.get(&page),
            Some(&frame),
            "{page:?} is not in {frame:?}"
        );
        self.stats.references += 1;
        if !self.prefetched.is_empty() && self.prefetched.remove(&page) {
            self.stats.useful_prefetches += 1;
        }
        self.sensors.touch(frame, write);
        self.replacer.touched(frame, page, now, write);
    }

    /// [`PagedMemory::touch`] with event emission: `Fault` when the
    /// reference misses, `Evict` for every page pushed out (demand or
    /// vacant-reserve). The caller supplies the stamp so machine
    /// adapters can carry their cycle clock into the trace.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Alloc`] if the page is absent and every
    /// frame is pinned.
    #[inline]
    pub fn touch_probed<P: Probe + ?Sized>(
        &mut self,
        page: PageNo,
        write: bool,
        at: Stamp,
        probe: &mut P,
    ) -> Result<TouchOutcome, CoreError> {
        let now = at.vtime;
        if let Some(frame) = self.page_table.get(&page).copied() {
            self.touch_resolved(page, frame, write, now);
            return Ok(TouchOutcome::Hit { frame });
        }
        // Demand fault.
        self.stats.references += 1;
        self.stats.faults += 1;
        probe.emit(EventKind::Fault, at);
        let mut evicted = None;
        if self.free.is_empty() {
            evicted = Some(self.evict_one_probed(at, probe)?);
        }
        let frame = self.load_into_free(page, now);
        self.sensors.touch(frame, write);
        if !self.prefetched.is_empty() {
            self.prefetched.remove(&page);
        }
        // The ATLAS vacant-frame reserve: evict now so the *next* demand
        // finds a frame waiting.
        let mut reserve = None;
        if self.reserve_vacant && self.free.is_empty() {
            reserve = Some(self.evict_one_probed(at, probe)?);
        }
        Ok(TouchOutcome::Fault {
            frame,
            evicted,
            reserve,
        })
    }

    /// Applies an advisory directive at `at`, reporting what actually
    /// happened so callers keeping a mapping device in step (the machine
    /// adapters) can mirror it, and emitting `Prefetch` for every
    /// will-need load and `Evict` for every page displaced or released.
    /// Advice on segments is ignored here (segment advice is interpreted
    /// by the segment store).
    pub fn advise_probed<P: Probe + ?Sized>(
        &mut self,
        advice: Advice,
        at: Stamp,
        probe: &mut P,
    ) -> AdviceOutcome {
        let now = at.vtime;
        let AdviceUnit::Page(page) = advice.unit() else {
            return AdviceOutcome::default();
        };
        let mut out = AdviceOutcome::default();
        match advice {
            Advice::WillNeed(_) => {
                // "Brought into working storage if possible": a free
                // frame is used if one exists; otherwise the replacement
                // strategy gives one up — unless everything is pinned,
                // in which case the advice is quietly dropped (it is
                // advisory, never an error).
                if self.page_table.contains_key(&page) {
                    return out;
                }
                if self.free.is_empty() {
                    match self.evict_one_probed(at, probe) {
                        Ok(e) => out.evicted = Some(e),
                        Err(_) => return out,
                    }
                }
                let frame = self.load_into_free(page, now);
                // The arrival marks the use sensor, as a hardware fetch
                // would; otherwise sensor-driven policies see the
                // still-untouched prefetched pages as prime victims and
                // prefetches cannibalize each other.
                self.sensors.touch(frame, false);
                self.prefetched.insert(page);
                self.stats.prefetches += 1;
                probe.emit(
                    EventKind::Prefetch {
                        words: self.words_per_page,
                    },
                    at,
                );
                out.loaded = Some((page, frame));
            }
            Advice::WontNeed(_) => {
                if let Some(frame) = self.page_table.get(&page).copied() {
                    // Make it look idle to sensor-driven policies and
                    // tell history-driven ones directly.
                    self.sensors.reset_use(frame);
                    self.replacer.hint_idle(frame);
                }
            }
            Advice::Pin(_) => {
                if self.pinned.insert(page) && self.page_table.contains_key(&page) {
                    self.pinned_resident += 1;
                }
            }
            Advice::Unpin(_) => self.unpin(page),
            Advice::Release(_) => {
                self.unpin(page);
                if let Some(frame) = self.page_table.get(&page).copied() {
                    self.stats.advised_evictions += 1;
                    out.evicted = Some(self.push_out(page, frame, at, probe));
                }
            }
        }
        out
    }

    /// Replays a page-granular reference string (all reads), returning
    /// the final statistics.
    ///
    /// # Errors
    ///
    /// Propagates the first [`CoreError`] (possible only with pinning).
    pub fn run_pages(&mut self, trace: &[PageNo]) -> Result<PagingStats, CoreError> {
        self.run_pages_probed(trace, &mut NullProbe)
    }

    /// [`PagedMemory::run_pages`] over any page iterator — the
    /// streaming entry point: a `dsa-trace` stream (or any other
    /// constant-memory source) drives the machine without a `Vec` ever
    /// materializing. Equivalent to `run_pages` on the collected
    /// sequence, touch for touch.
    ///
    /// # Errors
    ///
    /// Propagates the first [`CoreError`] (possible only with pinning).
    pub fn run_pages_iter<I>(&mut self, pages: I) -> Result<PagingStats, CoreError>
    where
        I: IntoIterator<Item = PageNo>,
    {
        for (i, page) in pages.into_iter().enumerate() {
            self.touch(page, false, i as VirtualTime)?;
        }
        Ok(self.stats)
    }

    /// [`PagedMemory::run_pages`] with event emission: a `Touch` per
    /// reference plus the fault/evict/prefetch stream, stamped with
    /// reference time.
    ///
    /// # Errors
    ///
    /// Propagates the first [`CoreError`] (possible only with pinning).
    pub fn run_pages_probed<P: Probe + ?Sized>(
        &mut self,
        trace: &[PageNo],
        probe: &mut P,
    ) -> Result<PagingStats, CoreError> {
        for (i, &page) in trace.iter().enumerate() {
            let at = Stamp::vtime(i as VirtualTime);
            probe.emit(EventKind::Touch { write: false }, at);
            self.touch_probed(page, false, at, probe)?;
        }
        Ok(self.stats)
    }

    /// Verifies internal invariants.
    ///
    /// # Panics
    ///
    /// Panics if the page table and frame array disagree, frames are
    /// double-booked, the free pool lists a frame that is not free, or
    /// the pinned-resident count is not what a recount gives.
    pub fn check_invariants(&self) {
        let mut seen = IdSet::default();
        for (i, slot) in self.frames.iter().enumerate() {
            if let Some(page) = slot {
                assert_eq!(
                    self.page_table.get(page),
                    Some(&FrameNo(i as u64)),
                    "frame/page-table disagreement for {page}"
                );
                assert!(seen.insert(*page), "page resident twice");
            }
        }
        assert_eq!(
            seen.len(),
            self.page_table.len(),
            "stale page-table entries"
        );
        let resident = self.frames.iter().filter(|s| s.is_some()).count();
        assert_eq!(
            resident + self.free.len() + self.quarantined.len(),
            self.frames.len(),
            "frames leaked"
        );
        for &frame in &self.quarantined {
            assert!(
                self.frames[frame.index()].is_none(),
                "quarantined frame holds a page"
            );
        }
        let mut free = IdSet::default();
        for &frame in &self.free {
            assert!(free.insert(frame), "frame {frame} in the free pool twice");
            assert!(
                self.frames[frame.index()].is_none(),
                "free frame holds a page"
            );
            assert!(
                !self.quarantined.contains(&frame),
                "quarantined frame in free pool"
            );
        }
        let pinned_resident = seen.iter().filter(|p| self.pinned.contains(p)).count();
        assert_eq!(
            pinned_resident, self.pinned_resident,
            "pinned-resident count drifted"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::fifo::FifoRepl;
    use crate::replacement::lru::LruRepl;
    use crate::replacement::min::MinRepl;

    fn pages(xs: &[u64]) -> Vec<PageNo> {
        xs.iter().map(|&x| PageNo(x)).collect()
    }

    fn lru(frames: usize) -> PagedMemory {
        PagedMemory::new(frames, Box::new(LruRepl::new()))
    }

    fn advise(m: &mut PagedMemory, advice: Advice, now: VirtualTime) -> AdviceOutcome {
        m.advise_probed(advice, Stamp::vtime(now), &mut NullProbe)
    }

    #[test]
    fn cold_faults_then_hits() {
        let mut m = lru(2);
        assert!(m.touch(PageNo(1), false, 0).unwrap().is_fault());
        assert!(m.touch(PageNo(2), false, 1).unwrap().is_fault());
        assert!(!m.touch(PageNo(1), false, 2).unwrap().is_fault());
        assert_eq!(m.stats().faults, 2);
        assert_eq!(m.stats().references, 3);
        assert_eq!(m.resident_count(), 2);
        m.check_invariants();
    }

    #[test]
    fn a_device_resolved_hit_is_the_hit_touch_takes() {
        use crate::replacement::atlas::AtlasLearning;
        use crate::replacement::clock::ClockRepl;
        let replacers: [fn() -> Box<dyn Replacer>; 3] = [
            || Box::new(LruRepl::new()),
            || Box::new(ClockRepl::new()),
            || Box::new(AtlasLearning::new()),
        ];
        for replacer in replacers {
            let mut touched = PagedMemory::new(6, replacer());
            let mut resolved = PagedMemory::new(6, replacer());
            for m in [&mut touched, &mut resolved] {
                for page in 0..5 {
                    m.touch(PageNo(page), false, page).unwrap();
                }
                // A prefetched page, so a hit also finds it useful.
                advise(m, Advice::WillNeed(AdviceUnit::Page(PageNo(9))), 5);
            }
            let hits = [3, 9, 0, 3, 1, 4, 9, 2, 0, 4, 4, 1];
            for (i, &page) in hits.iter().enumerate() {
                let (page, write, now) = (PageNo(page), i % 3 == 0, 6 + i as u64);
                assert!(!touched.touch(page, write, now).unwrap().is_fault());
                let frame = resolved.frame_of(page).unwrap();
                resolved.touch_resolved(page, frame, write, now);
            }
            assert_eq!(
                format!("{:?}", touched.stats()),
                format!("{:?}", resolved.stats())
            );
            for f in 0..6 {
                let frame = FrameNo(f);
                assert_eq!(touched.sensors.used(frame), resolved.sensors.used(frame));
                assert_eq!(
                    touched.sensors.modified(frame),
                    resolved.sensors.modified(frame)
                );
            }
            // The next fault evicts the same page from both.
            let next = 6 + hits.len() as u64;
            let evicted = |m: &mut PagedMemory| match m.touch(PageNo(21), false, next) {
                Ok(TouchOutcome::Fault { evicted, .. }) => evicted.map(|e| e.page),
                other => panic!("expected a fault, got {other:?}"),
            };
            assert_eq!(evicted(&mut touched), evicted(&mut resolved));
            touched.check_invariants();
            resolved.check_invariants();
        }
    }

    #[test]
    fn run_pages_iter_matches_run_pages() {
        let trace: Vec<PageNo> = (0..500u64).map(|i| PageNo((i * 7 + i * i) % 23)).collect();
        let mut batch = lru(8);
        let mut streamed = lru(8);
        let a = batch.run_pages(&trace).unwrap();
        let b = streamed.run_pages_iter(trace.iter().copied()).unwrap();
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.references, b.references);
        assert_eq!(a.evictions, b.evictions);
        streamed.check_invariants();
    }

    #[test]
    fn eviction_happens_when_full() {
        let mut m = lru(2);
        m.touch(PageNo(1), false, 0).unwrap();
        m.touch(PageNo(2), false, 1).unwrap();
        let out = m.touch(PageNo(3), false, 2).unwrap();
        match out {
            TouchOutcome::Fault {
                evicted: Some(e), ..
            } => {
                assert_eq!(e.page, PageNo(1), "LRU evicts page 1");
                assert!(!e.dirty);
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        assert_eq!(m.frame_of(PageNo(1)), None);
        m.check_invariants();
    }

    #[test]
    fn dirty_pages_report_writeback() {
        let mut m = lru(1);
        m.touch(PageNo(1), true, 0).unwrap();
        let out = m.touch(PageNo(2), false, 1).unwrap();
        match out {
            TouchOutcome::Fault {
                evicted: Some(e), ..
            } => assert!(e.dirty),
            other => panic!("expected eviction, got {other:?}"),
        }
        assert_eq!(m.stats().dirty_evictions, 1);
    }

    #[test]
    fn lru_sequence_fault_count_matches_hand_computation() {
        // Classic example: 3 frames, trace 1 2 3 4 1 2 5 1 2 3 4 5.
        // LRU faults: 10.
        let trace = pages(&[1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5]);
        let mut m = lru(3);
        let stats = m.run_pages(&trace).unwrap();
        assert_eq!(stats.faults, 10);
    }

    #[test]
    fn fifo_belady_anomaly_exists() {
        // The canonical anomaly trace: FIFO with 4 frames faults MORE
        // than with 3.
        let trace = pages(&[1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5]);
        let mut m3 = PagedMemory::new(3, Box::new(FifoRepl::new()));
        let mut m4 = PagedMemory::new(4, Box::new(FifoRepl::new()));
        let f3 = m3.run_pages(&trace).unwrap().faults;
        let f4 = m4.run_pages(&trace).unwrap().faults;
        assert_eq!(f3, 9);
        assert_eq!(f4, 10);
        assert!(f4 > f3, "Belady's anomaly must reproduce");
    }

    #[test]
    fn min_is_optimal_on_the_classic_trace() {
        let trace = pages(&[1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5]);
        let mut m = PagedMemory::new(3, Box::new(MinRepl::new(&trace)));
        let stats = m.run_pages(&trace).unwrap();
        assert_eq!(stats.faults, 7, "Belady's published optimum for this trace");
    }

    #[test]
    fn pinned_pages_are_never_evicted() {
        let mut m = lru(2);
        m.touch(PageNo(1), false, 0).unwrap();
        advise(&mut m, Advice::Pin(AdviceUnit::Page(PageNo(1))), 0);
        m.touch(PageNo(2), false, 1).unwrap();
        m.touch(PageNo(3), false, 2).unwrap(); // must evict 2, not 1
        assert!(m.frame_of(PageNo(1)).is_some());
        assert!(m.frame_of(PageNo(2)).is_none());
        m.check_invariants();
    }

    #[test]
    fn all_pinned_faults_out_of_storage() {
        let mut m = lru(1);
        m.touch(PageNo(1), false, 0).unwrap();
        advise(&mut m, Advice::Pin(AdviceUnit::Page(PageNo(1))), 0);
        let err = m.touch(PageNo(2), false, 1).unwrap_err();
        assert!(matches!(
            err,
            CoreError::Alloc(AllocError::OutOfStorage { .. })
        ));
    }

    #[test]
    fn all_pinned_fault_never_consults_the_policy() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        /// Counts every callback; refuses to choose.
        struct Untouchable(Arc<AtomicUsize>);
        impl Replacer for Untouchable {
            fn loaded(&mut self, _: FrameNo, _: PageNo, _: VirtualTime) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
            fn victim(&mut self, _: Eligible<'_>, _: &mut Sensors, _: VirtualTime) -> FrameNo {
                panic!("victim called with nothing eligible");
            }
            fn evicted(&mut self, _: FrameNo) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
            fn name(&self) -> &'static str {
                "untouchable"
            }
        }

        let calls = Arc::new(AtomicUsize::new(0));
        let mut m = PagedMemory::new(2, Box::new(Untouchable(Arc::clone(&calls))));
        for p in [1, 2] {
            m.touch(PageNo(p), false, p).unwrap();
            advise(&mut m, Advice::Pin(AdviceUnit::Page(PageNo(p))), p);
        }
        // A pin on an absent page counts for nothing.
        advise(&mut m, Advice::Pin(AdviceUnit::Page(PageNo(9))), 2);
        assert_eq!((m.pinned_resident, calls.load(Ordering::Relaxed)), (2, 2));
        let err = m.touch(PageNo(3), false, 3).unwrap_err();
        assert!(matches!(
            err,
            CoreError::Alloc(AllocError::OutOfStorage { .. })
        ));
        assert_eq!((m.pinned_resident, calls.load(Ordering::Relaxed)), (2, 2));
        assert_eq!(m.resident_count(), 2);
        m.check_invariants();
    }

    #[test]
    fn unpin_restores_eligibility() {
        let mut m = lru(1);
        m.touch(PageNo(1), false, 0).unwrap();
        advise(&mut m, Advice::Pin(AdviceUnit::Page(PageNo(1))), 0);
        advise(&mut m, Advice::Unpin(AdviceUnit::Page(PageNo(1))), 1);
        assert!(m.touch(PageNo(2), false, 2).is_ok());
    }

    #[test]
    fn will_need_prefetches_and_may_replace() {
        let mut m = lru(2);
        advise(&mut m, Advice::WillNeed(AdviceUnit::Page(PageNo(7))), 0);
        assert!(m.frame_of(PageNo(7)).is_some());
        assert_eq!(m.stats().prefetches, 1);
        // A later touch is a hit and counts the prefetch useful.
        assert!(!m.touch(PageNo(7), false, 1).unwrap().is_fault());
        assert_eq!(m.stats().useful_prefetches, 1);
        // With memory full, a prefetch displaces the LRU page — the
        // danger of inaccurate advice.
        m.touch(PageNo(8), false, 2).unwrap();
        advise(&mut m, Advice::WillNeed(AdviceUnit::Page(PageNo(9))), 3);
        assert!(m.frame_of(PageNo(9)).is_some());
        assert!(m.frame_of(PageNo(7)).is_none(), "LRU page displaced");
        assert_eq!(m.stats().prefetches, 2);
        m.check_invariants();
    }

    #[test]
    fn will_need_is_dropped_when_all_pinned() {
        let mut m = lru(1);
        m.touch(PageNo(1), false, 0).unwrap();
        advise(&mut m, Advice::Pin(AdviceUnit::Page(PageNo(1))), 0);
        advise(&mut m, Advice::WillNeed(AdviceUnit::Page(PageNo(2))), 1);
        assert!(m.frame_of(PageNo(2)).is_none(), "advice is never an error");
        assert_eq!(m.stats().prefetches, 0);
        m.check_invariants();
    }

    #[test]
    fn release_evicts_immediately() {
        let mut m = lru(2);
        m.touch(PageNo(1), true, 0).unwrap();
        advise(&mut m, Advice::Release(AdviceUnit::Page(PageNo(1))), 1);
        assert!(m.frame_of(PageNo(1)).is_none());
        assert_eq!(m.stats().advised_evictions, 1);
        assert_eq!(
            m.stats().dirty_evictions,
            1,
            "released dirty page still writes back"
        );
        m.check_invariants();
    }

    #[test]
    fn wont_need_makes_page_the_next_victim_for_sensor_policies() {
        use crate::replacement::nru::ClassRandomRepl;
        let mut m = PagedMemory::new(2, Box::new(ClassRandomRepl::new(1, 1000)));
        m.touch(PageNo(1), false, 0).unwrap();
        m.touch(PageNo(2), false, 1).unwrap();
        advise(&mut m, Advice::WontNeed(AdviceUnit::Page(PageNo(1))), 2);
        let out = m.touch(PageNo(3), false, 3).unwrap();
        match out {
            TouchOutcome::Fault {
                evicted: Some(e), ..
            } => assert_eq!(e.page, PageNo(1)),
            other => panic!("expected eviction, got {other:?}"),
        }
    }

    #[test]
    fn vacant_reserve_keeps_a_frame_free() {
        let mut m = lru(3).with_vacant_reserve();
        for (t, p) in [1u64, 2, 3, 4, 5].into_iter().enumerate() {
            m.touch(PageNo(p), false, t as u64).unwrap();
            assert!(
                m.resident_count() < m.frames.len(),
                "one frame must stay vacant after servicing"
            );
        }
        m.check_invariants();
    }

    #[test]
    fn a_fault_reports_both_the_demand_and_the_reserve_victim() {
        let mut m = lru(3).with_vacant_reserve();
        m.touch(PageNo(1), false, 0).unwrap();
        m.touch(PageNo(2), false, 1).unwrap();
        // Will-need advice takes the vacant frame, so the next fault
        // evicts for its demand and again for the reserve.
        advise(&mut m, Advice::WillNeed(AdviceUnit::Page(PageNo(7))), 2);
        match m.touch(PageNo(3), false, 3).unwrap() {
            TouchOutcome::Fault {
                evicted: Some(demand),
                reserve: Some(reserve),
                ..
            } => assert_eq!((demand.page, reserve.page), (PageNo(1), PageNo(2))),
            other => panic!("expected two evictions, got {other:?}"),
        }
        assert_eq!(m.stats().evictions, 2);
        m.check_invariants();
    }

    #[test]
    fn the_reserve_may_push_out_the_page_just_fetched() {
        /// Always gives up the frame loaded last.
        struct Newest(FrameNo);
        impl Replacer for Newest {
            fn loaded(&mut self, frame: FrameNo, _: PageNo, _: VirtualTime) {
                self.0 = frame;
            }
            fn victim(&mut self, _: Eligible<'_>, _: &mut Sensors, _: VirtualTime) -> FrameNo {
                self.0
            }
            fn evicted(&mut self, _: FrameNo) {}
            fn name(&self) -> &'static str {
                "newest"
            }
        }

        let mut m = PagedMemory::new(2, Box::new(Newest(FrameNo(0)))).with_vacant_reserve();
        m.touch(PageNo(1), false, 0).unwrap();
        match m.touch(PageNo(2), true, 1).unwrap() {
            TouchOutcome::Fault {
                frame,
                evicted: None,
                reserve: Some(reserve),
            } => {
                assert_eq!((reserve.page, reserve.frame), (PageNo(2), frame));
                assert!(reserve.dirty, "the touch that fetched it wrote it");
            }
            other => panic!("expected the reserve to take page 2, got {other:?}"),
        }
        assert_eq!(m.frame_of(PageNo(2)), None);
        m.check_invariants();
    }

    #[test]
    fn retire_frame_shrinks_the_pool_permanently() {
        let mut m = lru(3);
        m.touch(PageNo(1), false, 0).unwrap();
        let frame = m.frame_of(PageNo(1)).unwrap();
        assert!(m.retire_frame(frame));
        assert_eq!(m.quarantined.len(), 1);
        assert_eq!(m.usable_frames(), 2);
        assert!(m.quarantined.contains(&frame));
        assert!(
            m.frame_of(PageNo(1)).is_none(),
            "page dropped, no writeback"
        );
        assert!(!m.retire_frame(frame), "already quarantined");
        // The frame is never reused: fill the memory and check.
        for (t, p) in [2u64, 3, 4, 5].into_iter().enumerate() {
            m.touch(PageNo(p), false, t as u64 + 1).unwrap();
            assert_ne!(m.frame_of(PageNo(p)), Some(frame));
        }
        m.check_invariants();
    }

    #[test]
    fn retire_frame_refuses_the_last_usable_frame() {
        let mut m = lru(2);
        m.touch(PageNo(1), false, 0).unwrap();
        assert!(m.retire_frame(FrameNo(0)));
        assert!(
            !m.retire_frame(FrameNo(1)),
            "must keep one frame in service"
        );
        assert_eq!(m.usable_frames(), 1);
        assert!(m.touch(PageNo(2), false, 1).is_ok(), "still serviceable");
        m.check_invariants();
    }

    #[test]
    fn retire_vacant_frame_leaves_free_pool_consistent() {
        let mut m = lru(3);
        m.touch(PageNo(1), false, 0).unwrap();
        // Retire a frame that is still in the free pool.
        let vacant = (0..3u64)
            .map(FrameNo)
            .find(|&f| m.frames[f.index()].is_none())
            .unwrap();
        assert!(m.retire_frame(vacant));
        m.check_invariants();
        // Faulting past capacity still works with the shrunken pool.
        m.touch(PageNo(2), false, 1).unwrap();
        m.touch(PageNo(3), false, 2).unwrap();
        assert_eq!(m.resident_count(), 2);
        m.check_invariants();
    }

    #[test]
    fn unpin_all_releases_every_pin() {
        let mut m = lru(2);
        m.touch(PageNo(1), false, 0).unwrap();
        m.touch(PageNo(2), false, 1).unwrap();
        advise(&mut m, Advice::Pin(AdviceUnit::Page(PageNo(1))), 2);
        advise(&mut m, Advice::Pin(AdviceUnit::Page(PageNo(2))), 2);
        assert!(m.touch(PageNo(3), false, 3).is_err(), "everything pinned");
        assert_eq!(m.unpin_all(), 2);
        assert!(m.touch(PageNo(3), false, 4).is_ok());
        m.check_invariants();
    }
}
