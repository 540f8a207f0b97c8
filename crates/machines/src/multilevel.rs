//! Paged-segment machines: MULTICS and the IBM 360/67.
//!
//! Both use the two-level mapping of Figure 4: a segment table and
//! per-segment page tables, fronted by a small associative memory. They
//! differ in how the segmented name space is *used*:
//!
//! * MULTICS gives each user object its own segment ("used as a
//!   symbolically segmented name space" by convention), so bounds are
//!   meaningful per object;
//! * the 24-bit 360/67 has only 16 large segments, so "it is necessary
//!   to pack, for example, several independent programs into the same
//!   segment. Therefore the segmentation is intended to reduce the
//!   number of page table entries ... and not normally to convey
//!   structural information" — our adapter packs every user segment
//!   into one machine segment, and out-of-bounds subscripts accordingly
//!   go undetected unless they cross the big segment's limit.

use dsa_core::access::ProgramOp;
use dsa_core::advice::{Advice, AdviceUnit};
use dsa_core::clock::{Cycles, VirtualTime};
use dsa_core::error::{AccessFault, CoreError};
use dsa_core::ids::{IdMap, PageNo, SegId, Words};
use dsa_core::taxonomy::SystemCharacteristics;
use dsa_faults::FaultConfig;
use dsa_mapping::two_level::TwoLevelMap;
use dsa_paging::paged::{PagedMemory, TouchOutcome};
use dsa_probe::{EventKind, Probe, Stamp};

use crate::faults_rt::{self, FaultState};
use crate::report::MachineReport;

/// How user segments map onto machine segments.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SegmentUse {
    /// One machine segment per user segment (MULTICS).
    PerObject,
    /// All user objects packed into machine segment 0 (24-bit 360/67).
    PackedIntoOne {
        /// The big segment's extent in words.
        extent: Words,
    },
}

/// A machine with the Figure 4 two-level mapping over demand paging.
pub struct PagedSegmentedMachine {
    name: &'static str,
    chars: SystemCharacteristics,
    map: TwoLevelMap,
    memory: PagedMemory,
    page_size: Words,
    page_fetch: Cycles,
    seg_use: SegmentUse,
    accepts_advice: bool,
    /// For `PackedIntoOne`: user segment -> (offset within segment 0,
    /// user size). For `PerObject`: user segment -> its declared size
    /// (machine segment id equals user id).
    packed_layout: IdMap<SegId, (Words, Words)>,
    packed_bump: Words,
    now: VirtualTime,
    /// Armed fault injection and its recovery state, if any.
    faults: Option<FaultState>,
}

impl PagedSegmentedMachine {
    /// Assembles the machine. For [`SegmentUse::PackedIntoOne`] the big
    /// segment is created immediately.
    ///
    /// # Errors
    ///
    /// Returns a configuration error if the packed segment cannot be
    /// created.
    // Each argument is one hardware component of the appendix's spec;
    // a builder would only obscure that correspondence.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: &'static str,
        chars: SystemCharacteristics,
        mut map: TwoLevelMap,
        memory: PagedMemory,
        page_size: Words,
        page_fetch: Cycles,
        seg_use: SegmentUse,
        accepts_advice: bool,
    ) -> Result<PagedSegmentedMachine, CoreError> {
        if let SegmentUse::PackedIntoOne { extent } = seg_use {
            map.create_segment(SegId(0), extent)
                .map_err(CoreError::Access)?;
        }
        Ok(PagedSegmentedMachine {
            name,
            chars,
            map,
            // Traced transfers must carry the machine's page size.
            memory: memory.with_words_per_page(page_size),
            page_size,
            page_fetch,
            seg_use,
            accepts_advice,
            packed_layout: IdMap::default(),
            packed_bump: 0,
            now: 0,
            faults: None,
        })
    }

    /// Arms seed-driven fault injection for subsequent runs: transfer
    /// errors are retried with backoff, bad frames are quarantined with
    /// the page refetched elsewhere, and storage exhaustion degrades
    /// through shed-load instead of aborting the run. The per-run
    /// recovery accounting lands in [`MachineReport::recovery`].
    #[must_use]
    pub fn with_fault_injection(mut self, seed: u64, config: FaultConfig) -> PagedSegmentedMachine {
        self.faults = Some(FaultState::new(seed, config));
        self
    }

    /// Verifies the paging engine's internal invariants.
    ///
    /// # Panics
    ///
    /// Panics if frame bookkeeping is inconsistent (see
    /// [`PagedMemory::check_invariants`]).
    pub fn check_invariants(&self) {
        self.memory.check_invariants();
    }

    /// Resolves a user touch to `(machine segment, offset, user size)`.
    fn locate(&self, seg: SegId, offset: Words) -> Option<(SegId, Words, Words)> {
        match self.seg_use {
            SegmentUse::PerObject => {
                let &(_, size) = self.packed_layout.get(&seg)?;
                Some((seg, offset, size))
            }
            SegmentUse::PackedIntoOne { .. } => {
                let &(base, size) = self.packed_layout.get(&seg)?;
                Some((SegId(0), base + offset, size))
            }
        }
    }

    fn service_fault<P: Probe + ?Sized>(
        &mut self,
        page: PageNo,
        write: bool,
        report: &mut MachineReport,
        clock: &mut Cycles,
        probe: &mut P,
    ) -> Result<(), CoreError> {
        let (mseg, index) = TwoLevelMap::decode_page(page);
        // The engine emits `Fault` and per-victim `Evict`; the machine
        // owns the transfer events, because only it knows the channel
        // timing.
        match self
            .memory
            .touch_probed(page, write, Stamp::at(*clock, self.now), probe)?
        {
            TouchOutcome::Fault { frame, evicted } => {
                probe.emit(
                    EventKind::FetchStart {
                        words: self.page_size,
                    },
                    Stamp::at(*clock, self.now),
                );
                if let Some(e) = evicted {
                    let (eseg, eindex) = TwoLevelMap::decode_page(e.page);
                    // The evicted page's segment may have been deleted.
                    let _ = self.map.unmap_page(eseg, eindex);
                    if e.dirty {
                        probe.emit(
                            EventKind::Writeback {
                                words: self.page_size,
                            },
                            Stamp::at(*clock, self.now),
                        );
                        let extra = faults_rt::transfer_extra(
                            &mut self.faults,
                            self.page_fetch,
                            Stamp::at(*clock, self.now),
                            probe,
                        );
                        report.writeback_words += self.page_size;
                        report.fetch_time += self.page_fetch + extra;
                        *clock += self.page_fetch + extra;
                    }
                }
                self.map
                    .map_page(mseg, index, frame)
                    .map_err(CoreError::Access)?;
                report.faults += 1;
                report.fetched_words += self.page_size;
                let extra = faults_rt::transfer_extra(
                    &mut self.faults,
                    self.page_fetch,
                    Stamp::at(*clock, self.now),
                    probe,
                );
                report.fetch_time += self.page_fetch + extra;
                *clock += self.page_fetch + extra;
                probe.emit(
                    EventKind::FetchDone {
                        words: self.page_size,
                    },
                    Stamp::at(*clock, self.now),
                );
                // The transfer may have filled a frame whose storage is
                // bad: quarantine it and refetch the page into a
                // surviving frame (remap-and-refetch). The recursive
                // service does the full accounting for the extra fetch.
                let bad =
                    faults_rt::frame_bad(&mut self.faults, Stamp::at(*clock, self.now), probe);
                if bad && self.memory.retire_frame(frame) {
                    faults_rt::note_quarantined(
                        &mut self.faults,
                        Stamp::at(*clock, self.now),
                        probe,
                    );
                    let _ = self.map.unmap_page(mseg, index);
                    self.service_fault(page, write, report, clock, probe)?;
                }
            }
            TouchOutcome::Hit { .. } => {}
        }
        Ok(())
    }

    /// Evicts every resident page of machine segment `mseg` from the
    /// paging engine (used on delete/release), tracing each `Evict`.
    fn drop_segment_pages<P: Probe + ?Sized>(&mut self, mseg: SegId, limit: Words, probe: &mut P) {
        let pages = limit.div_ceil(self.page_size);
        for index in 0..pages {
            let global = self.map.global_page(mseg, index);
            if self.memory.frame_of(global).is_some() {
                self.memory.advise_probed(
                    Advice::Release(AdviceUnit::Page(global)),
                    Stamp::vtime(self.now),
                    probe,
                );
            }
            let _ = self.map.unmap_page(mseg, index);
        }
    }

    /// [`Machine::run`] generically over any probe; `run` and
    /// `run_probed` both land here.
    ///
    /// # Errors
    ///
    /// As [`Machine::run`].
    ///
    /// [`Machine::run`]: crate::Machine::run
    pub fn run_with<P: Probe + ?Sized>(
        &mut self,
        ops: &[ProgramOp],
        probe: &mut P,
    ) -> Result<MachineReport, CoreError> {
        let mut clock = Cycles::ZERO;
        let mut report = MachineReport {
            machine: self.name.to_owned(),
            ..MachineReport::default()
        };
        if let Some(fs) = self.faults.as_mut() {
            fs.begin_run();
        }
        for op in ops {
            match *op {
                ProgramOp::Define { seg, size } => {
                    if faults_rt::alloc_refused(&mut self.faults, Stamp::at(clock, self.now), probe)
                    {
                        report.alloc_failures += 1;
                        continue;
                    }
                    match self.seg_use {
                        SegmentUse::PerObject => {
                            if self.map.create_segment(seg, size).is_ok() {
                                self.packed_layout.insert(seg, (0, size));
                                probe.emit(
                                    EventKind::Alloc {
                                        words: size,
                                        searched: 0,
                                    },
                                    Stamp::at(clock, self.now),
                                );
                            } else {
                                report.alloc_failures += 1;
                            }
                        }
                        SegmentUse::PackedIntoOne { extent } => {
                            if self.packed_bump + size > extent {
                                report.alloc_failures += 1;
                            } else {
                                self.packed_layout.insert(seg, (self.packed_bump, size));
                                self.packed_bump += size;
                                probe.emit(
                                    EventKind::Alloc {
                                        words: size,
                                        searched: 0,
                                    },
                                    Stamp::at(clock, self.now),
                                );
                            }
                        }
                    }
                }
                ProgramOp::Resize { seg, size } => match self.seg_use {
                    SegmentUse::PerObject => {
                        if self.map.resize_segment(seg, size).is_ok() {
                            self.packed_layout.insert(seg, (0, size));
                        }
                    }
                    SegmentUse::PackedIntoOne { extent } => {
                        let Some(&(base, old)) = self.packed_layout.get(&seg) else {
                            continue;
                        };
                        if size <= old {
                            self.packed_layout.insert(seg, (base, size));
                        } else if self.packed_bump + size <= extent {
                            self.packed_layout.insert(seg, (self.packed_bump, size));
                            self.packed_bump += size;
                        } else {
                            report.alloc_failures += 1;
                        }
                    }
                },
                ProgramOp::Delete { seg } => match self.seg_use {
                    SegmentUse::PerObject => {
                        if let Some(limit) = self.map.segment_limit(seg) {
                            self.drop_segment_pages(seg, limit, probe);
                        }
                        self.map.delete_segment(seg);
                        if let Some((_, size)) = self.packed_layout.remove(&seg) {
                            probe.emit(EventKind::Free { words: size }, Stamp::at(clock, self.now));
                        }
                    }
                    SegmentUse::PackedIntoOne { .. } => {
                        // Packed names are not reclaimed; the pages decay
                        // out of working storage by replacement.
                        if let Some((_, size)) = self.packed_layout.remove(&seg) {
                            probe.emit(EventKind::Free { words: size }, Stamp::at(clock, self.now));
                        }
                    }
                },
                ProgramOp::Touch { seg, offset, kind } => {
                    let Some((mseg, moffset, user_size)) = self.locate(seg, offset) else {
                        continue;
                    };
                    report.touches += 1;
                    self.now += 1;
                    probe.emit(
                        EventKind::Touch {
                            write: kind.is_write(),
                        },
                        Stamp::at(clock, self.now),
                    );
                    let wild = offset >= user_size;
                    let t = self.map.translate_pair_probed(
                        mseg,
                        moffset,
                        Stamp::at(clock, self.now),
                        probe,
                    );
                    report.map_time += t.cost;
                    clock += t.cost;
                    match t.outcome {
                        Ok(_) => {
                            if wild {
                                // Resolved fine inside someone else's
                                // names: undetected.
                                report.wild_undetected += 1;
                            }
                            let page = self.map.global_page(mseg, moffset / self.page_size);
                            self.memory.touch_probed(
                                page,
                                kind.is_write(),
                                Stamp::at(clock, self.now),
                                probe,
                            )?;
                        }
                        Err(AccessFault::MissingPage { page }) => {
                            if wild {
                                report.wild_undetected += 1;
                            }
                            match self.service_fault(
                                page,
                                kind.is_write(),
                                &mut report,
                                &mut clock,
                                probe,
                            ) {
                                Ok(()) => {}
                                Err(CoreError::Alloc(e)) => {
                                    // Everything pinned. Degradation:
                                    // shed load (surrender the pins) and
                                    // retry once; without injection this
                                    // aborts, as it always did.
                                    let shed = faults_rt::try_shed(
                                        &mut self.faults,
                                        Stamp::at(clock, self.now),
                                        probe,
                                    );
                                    if !shed {
                                        return Err(CoreError::Alloc(e));
                                    }
                                    self.memory.unpin_all();
                                    match self.service_fault(
                                        page,
                                        kind.is_write(),
                                        &mut report,
                                        &mut clock,
                                        probe,
                                    ) {
                                        Ok(()) => {}
                                        Err(CoreError::Alloc(_)) => report.alloc_failures += 1,
                                        Err(e) => return Err(e),
                                    }
                                }
                                Err(e) => return Err(e),
                            }
                        }
                        Err(AccessFault::BoundsViolation { .. }) => {
                            report.bounds_caught += 1;
                            probe.emit(EventKind::BoundsTrap, Stamp::at(clock, self.now));
                        }
                        Err(AccessFault::UnknownSegment { .. }) => {
                            report.alloc_failures += 1;
                        }
                        Err(f) => return Err(f.into()),
                    }
                }
                ProgramOp::Advise(advice) => {
                    if !self.accepts_advice {
                        continue;
                    }
                    let AdviceUnit::Segment(seg) = advice.unit() else {
                        continue;
                    };
                    let Some((mseg, base, size)) = self.locate(seg, 0) else {
                        continue;
                    };
                    let first = base / self.page_size;
                    let last = (base + size.max(1) - 1) / self.page_size;
                    for index in (first..=last).take(16) {
                        report.advice_ops += 1;
                        probe.emit(EventKind::Advice, Stamp::at(clock, self.now));
                        let global = self.map.global_page(mseg, index);
                        let unit = AdviceUnit::Page(global);
                        let lowered = match advice {
                            Advice::WillNeed(_) => Advice::WillNeed(unit),
                            Advice::WontNeed(_) => Advice::WontNeed(unit),
                            Advice::Pin(_) => Advice::Pin(unit),
                            Advice::Unpin(_) => Advice::Unpin(unit),
                            Advice::Release(_) => Advice::Release(unit),
                        };
                        let outcome =
                            self.memory
                                .advise_probed(lowered, Stamp::at(clock, self.now), probe);
                        if let Some(e) = outcome.evicted {
                            let (eseg, eindex) = TwoLevelMap::decode_page(e.page);
                            let _ = self.map.unmap_page(eseg, eindex);
                            if e.dirty {
                                probe.emit(
                                    EventKind::Writeback {
                                        words: self.page_size,
                                    },
                                    Stamp::at(clock, self.now),
                                );
                                let extra = faults_rt::transfer_extra(
                                    &mut self.faults,
                                    self.page_fetch,
                                    Stamp::at(clock, self.now),
                                    probe,
                                );
                                report.writeback_words += self.page_size;
                                report.fetch_time += self.page_fetch + extra;
                                clock += self.page_fetch + extra;
                            }
                        }
                        if let Some((_, frame)) = outcome.loaded {
                            if self.map.map_page(mseg, index, frame).is_ok() {
                                report.fetched_words += self.page_size;
                                probe.emit(
                                    EventKind::FetchStart {
                                        words: self.page_size,
                                    },
                                    Stamp::at(clock, self.now),
                                );
                                let extra = faults_rt::transfer_extra(
                                    &mut self.faults,
                                    self.page_fetch,
                                    Stamp::at(clock, self.now),
                                    probe,
                                );
                                report.fetch_time += self.page_fetch + extra;
                                clock += self.page_fetch + extra;
                                probe.emit(
                                    EventKind::FetchDone {
                                        words: self.page_size,
                                    },
                                    Stamp::at(clock, self.now),
                                );
                            }
                        }
                    }
                }
                ProgramOp::Compute { .. } => {}
            }
        }
        report.prefetches = self.memory.stats().prefetches;
        report.useful_prefetches = self.memory.stats().useful_prefetches;
        if let Some(fs) = self.faults.as_ref() {
            report.recovery = fs.recovery;
        }
        Ok(report)
    }
}

crate::report::impl_machine!(PagedSegmentedMachine);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Machine;
    use dsa_core::access::AccessKind;
    use dsa_core::taxonomy::{AllocationUnit, Contiguity, NameSpaceKind, PredictiveInfo};
    use dsa_mapping::associative::AssocPolicy;
    use dsa_mapping::cost::MapCosts;
    use dsa_paging::replacement::lru::LruRepl;

    fn machine(seg_use: SegmentUse, frames: usize, advice: bool) -> PagedSegmentedMachine {
        let costs = MapCosts::for_core_cycle(Cycles::from_micros(1));
        PagedSegmentedMachine::new(
            "test-two-level",
            SystemCharacteristics {
                name_space: NameSpaceKind::LinearlySegmented {
                    max_segments: 8,
                    max_segment_extent: 4096,
                },
                predictive: if advice {
                    PredictiveInfo::Advisory
                } else {
                    PredictiveInfo::None
                },
                contiguity: Contiguity::Artificial,
                unit: AllocationUnit::Uniform { page_size: 64 },
            },
            TwoLevelMap::new(8, 4096, 6, 4, AssocPolicy::Lru, costs),
            PagedMemory::new(frames, Box::new(LruRepl::new())),
            64,
            Cycles::from_micros(100),
            seg_use,
            advice,
        )
        .expect("valid configuration")
    }

    fn touch(seg: u32, offset: u64) -> ProgramOp {
        ProgramOp::Touch {
            seg: SegId(seg),
            offset,
            kind: AccessKind::Read,
        }
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
        let r = machine(SegmentUse::PerObject, 8, false).run(&ops).unwrap();
        assert_eq!(r.bounds_caught, 1);
        assert_eq!(r.wild_undetected, 0);
        let r = machine(SegmentUse::PackedIntoOne { extent: 4096 }, 8, false)
            .run(&ops)
            .unwrap();
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
        let r = machine(SegmentUse::PackedIntoOne { extent: 4096 }, 8, false)
            .run(&ops)
            .unwrap();
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
        let r = machine(SegmentUse::PerObject, 8, false).run(&ops).unwrap();
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
        let r = machine(SegmentUse::PerObject, 2, false).run(&ops).unwrap();
        assert_eq!(r.faults, 8);
        assert!(
            r.writeback_words >= 6 * 64,
            "{} written back",
            r.writeback_words
        );
    }

    #[test]
    fn advice_prefetch_maps_pages() {
        use dsa_core::advice::{Advice, AdviceUnit};
        let ops = vec![
            ProgramOp::Define {
                seg: SegId(1),
                size: 128,
            }, // 2 pages
            ProgramOp::Advise(Advice::WillNeed(AdviceUnit::Segment(SegId(1)))),
            touch(1, 0),
            touch(1, 70),
        ];
        let r = machine(SegmentUse::PerObject, 8, true).run(&ops).unwrap();
        assert_eq!(r.faults, 0, "prefetched pages must be mapped and hit");
        assert_eq!(r.prefetches, 2);
        let r = machine(SegmentUse::PerObject, 8, false).run(&ops).unwrap();
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
        let r = machine(SegmentUse::PerObject, 8, false).run(&ops).unwrap();
        assert_eq!(r.bounds_caught, 1);
    }
}
