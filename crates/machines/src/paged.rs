//! The paged backend: uniform page frames behind a mapping device.
//!
//! Two choices stay open beneath it. The *name layout* says where a
//! program's segments sit among the machine's names. [`OneExtent`]
//! places them at the next free names of one run (no gaps — names are
//! precious): ATLAS and the M44/44X, whose name space is that run, and
//! equally the 24-bit 360/67, whose 16 large segments force "several
//! independent programs into the same segment". The consequence, which
//! experiment E13 measures, is that an out-of-bounds subscript lands on
//! the *neighbouring data's names* and resolves without any trap.
//! [`PerObject`] gives each user object a machine segment of its own
//! (MULTICS), so the hardware's limit check is the object's bound. The
//! *mapping device* ([`MapDevice`]) is the other choice, and the two
//! are independent but for one point the types refuse: per-object names
//! need a device that checks a limit per segment.

use dsa_core::advice::{Advice, AdviceUnit};
use dsa_core::error::{AccessFault, CoreError};
use dsa_core::ids::{FrameNo, IdMap, PageNo, SegId, Words};
use dsa_core::taxonomy::{NameSpaceKind, SystemCharacteristics};
use dsa_mapping::two_level::TwoLevelMap;
use dsa_paging::paged::{EvictedPage, PagedMemory, TouchOutcome};
use dsa_probe::{EventKind, Probe, Stamp};
use dsa_storage::level::LevelSpec;

use crate::device::MapDevice;
use crate::driver::{Backend, Composed, Cx};
use crate::report::MachineReport;

/// Where user segments sit among the names of a device `D`.
pub trait NameLayout<D: MapDevice>: Send + Sized {
    /// The layout a machine with name space `names` starts with, its
    /// device readied — or the device's fault if it cannot hold them.
    fn open(names: &NameSpaceKind, device: &mut D) -> Result<Self, AccessFault>;

    /// Allocates names for `seg`; `false` if there are none.
    fn define(&mut self, device: &mut D, seg: SegId, size: Words) -> bool;

    /// Re-declares `seg` at `size`; `false` if that needs names the
    /// layout does not have.
    fn resize(&mut self, device: &mut D, seg: SegId, size: Words) -> bool;

    /// Forgets `seg`, returning its declared size; where the names are
    /// reclaimed its pages leave working storage with it.
    fn delete<P: Probe + ?Sized>(
        &mut self,
        frames: &mut Frames<D>,
        seg: SegId,
        cx: &mut Cx<'_, P>,
    ) -> Option<Words>;

    /// `seg`'s machine segment, first name within it, and declared size.
    fn locate(&self, seg: SegId) -> Option<(SegId, Words, Words)>;
}

/// Segments laid out at the next free names of one run, machine
/// segment 0.
pub struct OneExtent {
    extent: Words,
    bump: Words,
    /// User segment -> (first name, declared size).
    names: IdMap<SegId, (Words, Words)>,
}

impl<D: MapDevice> NameLayout<D> for OneExtent {
    /// The run is the whole space when names are linear, and one
    /// (large) segment of it otherwise.
    fn open(names: &NameSpaceKind, device: &mut D) -> Result<OneExtent, AccessFault> {
        let extent = match *names {
            NameSpaceKind::Linear { extent } => extent,
            NameSpaceKind::LinearlySegmented {
                max_segment_extent, ..
            }
            | NameSpaceKind::SymbolicallySegmented { max_segment_extent } => max_segment_extent,
        };
        device.open(extent)?;
        Ok(OneExtent {
            extent,
            bump: 0,
            names: IdMap::default(),
        })
    }

    fn define(&mut self, _device: &mut D, seg: SegId, size: Words) -> bool {
        if self.bump + size > self.extent {
            return false;
        }
        self.names.insert(seg, (self.bump, size));
        self.bump += size;
        true
    }

    /// One run of names cannot grow in place: a grown segment must be
    /// re-laid at fresh names (the name allocation problem the paper
    /// says segmentation alleviates).
    fn resize(&mut self, device: &mut D, seg: SegId, size: Words) -> bool {
        match self.names.get_mut(&seg) {
            None => true,
            Some(entry) if size <= entry.1 => {
                entry.1 = size;
                true
            }
            Some(_) => self.define(device, seg, size),
        }
    }

    /// Names are not reclaimed (no dynamic name reallocation on these
    /// systems); the pages decay out of working storage by replacement.
    fn delete<P: Probe + ?Sized>(
        &mut self,
        _frames: &mut Frames<D>,
        seg: SegId,
        _cx: &mut Cx<'_, P>,
    ) -> Option<Words> {
        self.names.remove(&seg).map(|(_, size)| size)
    }

    #[inline]
    fn locate(&self, seg: SegId) -> Option<(SegId, Words, Words)> {
        self.names
            .get(&seg)
            .map(|&(base, size)| (SegId(0), base, size))
    }
}

/// One machine segment per user segment, under the user's own number.
#[derive(Default)]
pub struct PerObject {
    /// User segment -> declared size.
    sizes: IdMap<SegId, Words>,
}

impl NameLayout<TwoLevelMap> for PerObject {
    fn open(_names: &NameSpaceKind, _device: &mut TwoLevelMap) -> Result<PerObject, AccessFault> {
        Ok(PerObject::default())
    }

    fn define(&mut self, device: &mut TwoLevelMap, seg: SegId, size: Words) -> bool {
        let created = device.create_segment(seg, size).is_ok();
        if created {
            self.sizes.insert(seg, size);
        }
        created
    }

    /// The page table is cut or extended in place. Pages beyond a cut
    /// stay in working storage (ROADMAP, "stale pages after a shrink").
    fn resize(&mut self, device: &mut TwoLevelMap, seg: SegId, size: Words) -> bool {
        if device.resize_segment(seg, size).is_ok() {
            self.sizes.insert(seg, size);
        }
        true
    }

    fn delete<P: Probe + ?Sized>(
        &mut self,
        frames: &mut Frames<TwoLevelMap>,
        seg: SegId,
        cx: &mut Cx<'_, P>,
    ) -> Option<Words> {
        if let Some(limit) = frames.device.segment_limit(seg) {
            frames.drop_pages(seg, limit, cx);
        }
        frames.device.delete_segment(seg);
        self.sizes.remove(&seg)
    }

    #[inline]
    fn locate(&self, seg: SegId) -> Option<(SegId, Words, Words)> {
        self.sizes.get(&seg).map(|&size| (seg, 0, size))
    }
}

/// The page frames and the device that maps names onto them, kept in
/// step with each other.
pub struct Frames<D> {
    device: D,
    memory: PagedMemory,
    page_size: Words,
}

/// Demand paging: names laid out by `L`, resolved by `D`, held in
/// [`Frames`].
pub struct Paged<L, D> {
    layout: L,
    frames: Frames<D>,
}

impl<L: NameLayout<D>, D: MapDevice> Composed<Paged<L, D>> {
    /// Assembles a paged machine from the appendix's components: the
    /// mapping device, the frames with their replacement strategy, and
    /// the level pages are fetched from. The name space the layout
    /// covers and whether advice is taken are read from `chars`; the
    /// page size is the device's.
    ///
    /// # Panics
    ///
    /// Panics if `device` cannot hold the name space `chars` declares.
    // A machine whose parts contradict each other is a bug in the
    // preset that composed it, not a condition a run can meet.
    #[allow(clippy::expect_used)]
    #[must_use]
    pub fn paged(
        name: &'static str,
        chars: SystemCharacteristics,
        mut device: D,
        memory: PagedMemory,
        backing: LevelSpec,
    ) -> Composed<Paged<L, D>> {
        let layout =
            L::open(&chars.name_space, &mut device).expect("the device holds the name space");
        let page_size = device.page_size();
        let frames = Frames {
            device,
            // Traced transfers must carry the machine's page size.
            memory: memory.with_words_per_page(page_size),
            page_size,
        };
        Composed::new(name, chars, backing, Paged { layout, frames })
    }
}

impl Frames<TwoLevelMap> {
    /// Evicts the resident pages of machine segment `seg`, `limit`
    /// words long, from the paging engine, tracing each `Evict`, and
    /// unmaps them.
    fn drop_pages<P: Probe + ?Sized>(&mut self, seg: SegId, limit: Words, cx: &mut Cx<'_, P>) {
        for index in 0..self.device.pages_for(limit) {
            let page = self.device.global_page(seg, index);
            if self.memory.frame_of(page).is_some() {
                self.memory.advise_probed(
                    Advice::Release(AdviceUnit::Page(page)),
                    Stamp::vtime(cx.now),
                    cx.probe,
                );
            }
            let _ = self.device.unmap_page(seg, index);
        }
    }
}

impl<D: MapDevice> Frames<D> {
    /// Mirrors an eviction into the mapping device and writes the page
    /// back if it was modified.
    fn push_out<P: Probe + ?Sized>(&mut self, evicted: EvictedPage, cx: &mut Cx<'_, P>) {
        self.device.unload(evicted.page, evicted.frame);
        if evicted.dirty {
            cx.charge_writeback(self.page_size);
        }
    }

    /// Services a missing-page trap. The engine emits `Fault` and
    /// per-victim `Evict`; the transfer events are the machine's.
    fn fetch<P: Probe + ?Sized>(
        &mut self,
        page: PageNo,
        write: bool,
        cx: &mut Cx<'_, P>,
    ) -> Result<(), CoreError> {
        let outcome = self.memory.touch_probed(page, write, cx.at(), cx.probe)?;
        // A `Hit` raced with a prefetch; nothing more to do.
        if let TouchOutcome::Fault {
            frame,
            evicted,
            reserve,
        } = outcome
        {
            cx.emit(EventKind::FetchStart {
                words: self.page_size,
            });
            for e in [evicted, reserve].into_iter().flatten() {
                self.push_out(e, cx);
            }
            // ATLAS's vacant reserve may have pushed out the very page
            // just fetched; then no register is to name it.
            if reserve.is_none_or(|r| r.page != page) {
                self.device.load(page, frame).map_err(CoreError::Access)?;
            }
            cx.report.faults += 1;
            cx.charge_fetch(self.page_size);
            // The transfer may have filled a frame whose storage is
            // bad: quarantine it and refetch the page into a surviving
            // frame (remap-and-refetch). The recursive service does the
            // full accounting for the extra fetch.
            if cx.frame_bad() && self.memory.retire_frame(frame) {
                cx.note_quarantined();
                self.device.unload(page, frame);
                self.fetch(page, write, cx)?;
            }
        }
        Ok(())
    }
}

impl<L: NameLayout<D>, D: MapDevice> Backend for Paged<L, D> {
    /// Machine segment, name within it, and whether the subscript was
    /// out of the user's bounds.
    type Target = (SegId, Words, bool);
    type Demand = PageNo;

    const RESTARTS_TIME: bool = false;
    const COUNTS_EXHAUSTION: bool = false;

    fn define(&mut self, seg: SegId, size: Words, _failed: &mut u64) -> Result<bool, CoreError> {
        Ok(self.layout.define(&mut self.frames.device, seg, size))
    }

    fn resize(&mut self, seg: SegId, size: Words, failed: &mut u64) -> Result<(), CoreError> {
        if !self.layout.resize(&mut self.frames.device, seg, size) {
            *failed += 1;
        }
        Ok(())
    }

    fn delete<P: Probe + ?Sized>(&mut self, seg: SegId, cx: &mut Cx<'_, P>) -> Option<Words> {
        self.layout.delete(&mut self.frames, seg, cx)
    }

    #[inline]
    fn locate(&self, seg: SegId, offset: Words) -> Option<Self::Target> {
        let (mseg, base, size) = self.layout.locate(seg)?;
        Some((mseg, base + offset, offset >= size))
    }

    #[inline]
    fn address<P: Probe + ?Sized>(
        &mut self,
        (mseg, name, wild): Self::Target,
        write: bool,
        cx: &mut Cx<'_, P>,
    ) -> Result<Option<PageNo>, CoreError> {
        let frames = &mut self.frames;
        let t = frames.device.lookup(mseg, name, cx.at(), cx.probe);
        cx.report.map_time += t.cost;
        cx.clock += t.cost;
        // An illegal subscript that lands on valid names — resident or
        // not — traps nowhere, and is executed like any other touch.
        match t.outcome {
            Ok(addr) => {
                cx.report.wild_undetected += u64::from(wild);
                // Keep the paging engine's recency state in step with
                // the hardware hit, in the frame the device found: the
                // device maps no page the engine does not hold there.
                let page = frames.device.page(mseg, name / frames.page_size);
                let frame = FrameNo(addr.value() / frames.page_size);
                frames.memory.touch_resolved(page, frame, write, cx.now);
                Ok(None)
            }
            Err(AccessFault::MissingPage { page }) => {
                cx.report.wild_undetected += u64::from(wild);
                Ok(Some(page))
            }
            Err(AccessFault::InvalidName { .. } | AccessFault::BoundsViolation { .. }) => {
                cx.report.bounds_caught += 1;
                cx.emit(EventKind::BoundsTrap);
                Ok(None)
            }
            Err(AccessFault::UnknownSegment { .. }) => {
                cx.report.alloc_failures += 1;
                Ok(None)
            }
            Err(f) => Err(f.into()),
        }
    }

    fn demand<P: Probe + ?Sized>(
        &mut self,
        page: PageNo,
        write: bool,
        cx: &mut Cx<'_, P>,
    ) -> Result<(), CoreError> {
        self.frames.fetch(page, write, cx)
    }

    /// The advice instructions speak of pages; segment-level advice is
    /// lowered onto (at most 16 of) the segment's pages.
    fn advise<P: Probe + ?Sized>(&mut self, advice: Advice, cx: &mut Cx<'_, P>) {
        let frames = &mut self.frames;
        let (mseg, pages) = match advice.unit() {
            AdviceUnit::Page(p) if D::PAGES_ARE_NAMES => (SegId(0), p.0..=p.0),
            AdviceUnit::Page(_) => return,
            AdviceUnit::Segment(seg) => {
                let Some((mseg, base, size)) = self.layout.locate(seg) else {
                    return;
                };
                let last = (base + size.max(1) - 1) / frames.page_size;
                (mseg, base / frames.page_size..=last)
            }
        };
        for index in pages.take(16) {
            cx.note_advice();
            let page = frames.device.page(mseg, index);
            let lowered = advice.with_unit(AdviceUnit::Page(page));
            let outcome = frames.memory.advise_probed(lowered, cx.at(), cx.probe);
            // Mirror what actually happened into the mapping device.
            if let Some(e) = outcome.evicted {
                frames.push_out(e, cx);
            }
            if let Some((_, frame)) = outcome.loaded {
                if frames.device.load(page, frame).is_ok() {
                    cx.emit(EventKind::FetchStart {
                        words: frames.page_size,
                    });
                    cx.charge_fetch(frames.page_size);
                }
            }
        }
    }

    fn unpin_all(&mut self) {
        self.frames.memory.unpin_all();
    }

    fn finish(&self, report: &mut MachineReport) {
        let stats = self.frames.memory.stats();
        report.prefetches = stats.prefetches;
        report.useful_prefetches = stats.useful_prefetches;
    }

    /// The engine's books, and every page the device maps sitting in
    /// that frame of the engine.
    fn check_invariants(&self) {
        let frames = &self.frames;
        frames.memory.check_invariants();
        for (page, frame) in frames.device.mapped() {
            assert_eq!(
                frames.memory.frame_of(page),
                Some(frame),
                "the device maps {page:?} to {frame:?}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::multics;
    use crate::report::Machine;
    use dsa_core::access::{AccessKind, ProgramOp};
    use dsa_core::clock::Cycles;
    use dsa_core::taxonomy::{AllocationUnit, Contiguity, PredictiveInfo};
    use dsa_mapping::associative::AssocPolicy;
    use dsa_mapping::block_map::BlockMap;
    use dsa_mapping::cost::MapCosts;
    use dsa_paging::replacement::lru::LruRepl;
    use dsa_probe::CountingProbe;
    use dsa_storage::level::LevelKind;

    fn chars(name_space: NameSpaceKind, page_size: Words, advice: bool) -> SystemCharacteristics {
        SystemCharacteristics {
            name_space,
            predictive: if advice {
                PredictiveInfo::Advisory
            } else {
                PredictiveInfo::None
            },
            contiguity: Contiguity::Artificial,
            unit: AllocationUnit::Uniform { page_size },
        }
    }

    /// A drum that delivers any page in 100 us.
    fn drum() -> LevelSpec {
        LevelSpec {
            name: "test drum".into(),
            kind: LevelKind::Drum,
            capacity: 1 << 20,
            latency: Cycles::from_micros(100),
            word_time: Cycles::ZERO,
        }
    }

    /// 1024 linear names in 16-word pages behind a mapping store.
    fn flat(frames: usize, advice: bool) -> Composed<Paged<OneExtent, BlockMap>> {
        let costs = MapCosts::for_core_cycle(Cycles::from_micros(1));
        Composed::paged(
            "test-linear",
            chars(NameSpaceKind::Linear { extent: 1024 }, 16, advice),
            BlockMap::new(1024 / 16, 4, costs),
            PagedMemory::new(frames, Box::new(LruRepl::new())),
            drum(),
        )
    }

    /// 8 segments of 4096 names in 64-word pages behind Figure 4.
    fn two_level<L: NameLayout<TwoLevelMap>>(
        frames: usize,
        advice: bool,
    ) -> Composed<Paged<L, TwoLevelMap>> {
        let costs = MapCosts::for_core_cycle(Cycles::from_micros(1));
        let names = NameSpaceKind::LinearlySegmented {
            max_segments: 8,
            max_segment_extent: 4096,
        };
        Composed::paged(
            "test-two-level",
            chars(names, 64, advice),
            TwoLevelMap::new(8, 4096, 6, 4, AssocPolicy::Lru, costs),
            PagedMemory::new(frames, Box::new(LruRepl::new())),
            drum(),
        )
    }

    fn touch(seg: u32, offset: u64) -> ProgramOp {
        ProgramOp::Touch {
            seg: SegId(seg),
            offset,
            kind: AccessKind::Read,
        }
    }

    #[test]
    fn segments_are_laid_out_consecutively() {
        let mut m = flat(8, false);
        let ops = vec![
            ProgramOp::Define {
                seg: SegId(0),
                size: 20,
            },
            ProgramOp::Define {
                seg: SegId(1),
                size: 20,
            },
            // Wild touch of seg 0 at offset 25 lands in seg 1's names:
            // silently resolved.
            touch(0, 25),
        ];
        let r = m.run(&ops).unwrap();
        assert_eq!(r.wild_undetected, 1);
        assert_eq!(r.bounds_caught, 0);
    }

    #[test]
    fn name_space_exhaustion_counts_alloc_failures() {
        let mut m = flat(8, false);
        let ops = vec![
            ProgramOp::Define {
                seg: SegId(0),
                size: 1000,
            },
            ProgramOp::Define {
                seg: SegId(1),
                size: 100,
            }, // 1100 > 1024
        ];
        let r = m.run(&ops).unwrap();
        assert_eq!(r.alloc_failures, 1);
    }

    #[test]
    fn grow_moves_to_fresh_names_shrink_stays() {
        let mut m = flat(16, false);
        let ops = vec![
            ProgramOp::Define {
                seg: SegId(0),
                size: 32,
            },
            touch(0, 0),
            ProgramOp::Resize {
                seg: SegId(0),
                size: 16,
            }, // shrink in place
            touch(0, 0), // hit: same names
            ProgramOp::Resize {
                seg: SegId(0),
                size: 64,
            }, // grow: fresh names
            touch(0, 0), // fault: different page now
        ];
        let r = m.run(&ops).unwrap();
        // Faults: first touch (1), after shrink still resident (0),
        // after grow the new name is unmapped (1).
        assert_eq!(r.faults, 2);
    }

    #[test]
    fn out_of_extent_wild_touch_is_caught() {
        let mut m = flat(8, false);
        let ops = vec![
            ProgramOp::Define {
                seg: SegId(0),
                size: 1000,
            },
            touch(0, 1010), // 1010 >= extent 1024? no: 1010 < 1024, lands in names
            touch(0, 1030), // 1030 >= 1024: trapped by the name-space limit
        ];
        let r = m.run(&ops).unwrap();
        assert_eq!(r.wild_undetected, 1);
        assert_eq!(r.bounds_caught, 1);
    }

    #[test]
    fn advice_is_ignored_when_not_accepted() {
        let mut m = flat(8, false);
        let ops = vec![
            ProgramOp::Define {
                seg: SegId(0),
                size: 32,
            },
            ProgramOp::advise(Advice::WillNeed(AdviceUnit::Segment(SegId(0)))),
        ];
        let r = m.run(&ops).unwrap();
        assert_eq!(r.advice_ops, 0);
        assert_eq!(r.prefetches, 0);
    }

    #[test]
    fn prefetch_counts_words_and_is_useful() {
        let mut m = flat(8, true);
        let ops = vec![
            ProgramOp::Define {
                seg: SegId(0),
                size: 32,
            }, // 2 pages
            ProgramOp::advise(Advice::WillNeed(AdviceUnit::Segment(SegId(0)))),
            touch(0, 0),
            touch(0, 20),
        ];
        let r = m.run(&ops).unwrap();
        assert_eq!(r.prefetches, 2);
        assert_eq!(r.useful_prefetches, 2);
        assert_eq!(r.faults, 0, "prefetch absorbed both first touches");
        assert_eq!(r.fetched_words, 32);
    }

    #[test]
    fn eviction_keeps_device_in_step() {
        let mut m = flat(2, false); // 2 frames only
        let mut ops = vec![ProgramOp::Define {
            seg: SegId(0),
            size: 64,
        }]; // 4 pages
        for round in 0..3 {
            for page in 0..4u64 {
                let _ = round;
                ops.push(touch(0, page * 16));
            }
        }
        let r = m.run(&ops).unwrap();
        // 4-page cyclic sweep over 2 LRU frames: every touch faults.
        assert_eq!(r.faults, 12);
        assert_eq!(r.touches, 12);
    }

    #[test]
    fn per_object_catches_wild_packed_does_not() {
        let ops = vec![
            ProgramOp::Define {
                seg: SegId(1),
                size: 100,
            },
            ProgramOp::Define {
                seg: SegId(2),
                size: 100,
            },
            touch(1, 150), // wild
        ];
        let r = two_level::<PerObject>(8, false).run(&ops).unwrap();
        assert_eq!(r.bounds_caught, 1);
        assert_eq!(r.wild_undetected, 0);
        let r = two_level::<OneExtent>(8, false).run(&ops).unwrap();
        assert_eq!(r.bounds_caught, 0);
        assert_eq!(r.wild_undetected, 1, "lands in seg 2's packed names");
    }

    #[test]
    fn packed_segment_overflow_counts_failures() {
        let ops = vec![
            ProgramOp::Define {
                seg: SegId(1),
                size: 3000,
            },
            ProgramOp::Define {
                seg: SegId(2),
                size: 2000,
            }, // 5000 > 4096
        ];
        let r = two_level::<OneExtent>(8, false).run(&ops).unwrap();
        assert_eq!(r.alloc_failures, 1);
    }

    #[test]
    fn delete_releases_pages_and_tlb() {
        let ops = vec![
            ProgramOp::Define {
                seg: SegId(1),
                size: 100,
            },
            touch(1, 0),
            touch(1, 70),
            ProgramOp::Delete { seg: SegId(1) },
            // Re-declared segment starts cold.
            ProgramOp::Define {
                seg: SegId(1),
                size: 100,
            },
            touch(1, 0),
        ];
        let r = two_level::<PerObject>(8, false).run(&ops).unwrap();
        assert_eq!(r.faults, 3, "pages do not survive segment deletion");
    }

    #[test]
    fn dirty_pages_write_back_under_pressure() {
        let mut ops = vec![ProgramOp::Define {
            seg: SegId(1),
            size: 512,
        }]; // 8 pages
        for p in 0..8u64 {
            ops.push(ProgramOp::Touch {
                seg: SegId(1),
                offset: p * 64,
                kind: AccessKind::Write,
            });
        }
        // 2 frames: heavy eviction of dirty pages.
        let r = two_level::<PerObject>(2, false).run(&ops).unwrap();
        assert_eq!(r.faults, 8);
        assert!(
            r.writeback_words >= 6 * 64,
            "{} written back",
            r.writeback_words
        );
    }

    #[test]
    fn advice_prefetch_maps_pages() {
        let ops = vec![
            ProgramOp::Define {
                seg: SegId(1),
                size: 128,
            }, // 2 pages
            ProgramOp::advise(Advice::WillNeed(AdviceUnit::Segment(SegId(1)))),
            touch(1, 0),
            touch(1, 70),
        ];
        let r = two_level::<PerObject>(8, true).run(&ops).unwrap();
        assert_eq!(r.faults, 0, "prefetched pages must be mapped and hit");
        assert_eq!(r.prefetches, 2);
        let r = two_level::<PerObject>(8, false).run(&ops).unwrap();
        assert_eq!(r.advice_ops, 0);
        assert_eq!(r.faults, 2);
    }

    #[test]
    fn resize_updates_limit_per_object() {
        let ops = vec![
            ProgramOp::Define {
                seg: SegId(1),
                size: 100,
            },
            ProgramOp::Resize {
                seg: SegId(1),
                size: 50,
            },
            touch(1, 80), // beyond the shrunk limit
        ];
        let r = two_level::<PerObject>(8, false).run(&ops).unwrap();
        assert_eq!(r.bounds_caught, 1);
    }

    /// A page cut off by a shrink must leave working storage with its
    /// table entry: its second life starts with one fault and is mapped.
    #[test]
    #[ignore = "fix moves machine_survey's seed-1967 digest; needs a benchmark PR to re-pin"]
    fn a_page_cut_by_a_shrink_is_refetched_and_mapped_after_a_regrow() {
        let seg = SegId(1);
        let mut ops = vec![
            ProgramOp::Define { seg, size: 4096 },
            touch(1, 3000),
            ProgramOp::Resize { seg, size: 1024 },
            ProgramOp::Resize { seg, size: 4096 },
        ];
        ops.extend([touch(1, 3000); 4]);
        let mut seen = CountingProbe::new();
        let r = multics().run_probed(&ops, &mut seen).unwrap();
        assert_eq!(r.faults, 2, "the old contents must not return unfetched");
        assert_eq!((seen.map_hits, seen.map_misses), (3, 2));
    }
}
