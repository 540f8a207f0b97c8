//! Machines with a linear name space over demand paging: ATLAS, M44/44X.
//!
//! Programs written for a linear name space must place their own
//! segments: the adapter here lays each declared segment out at the next
//! free names (no gaps — names are precious). The crucial consequence,
//! which experiment E13 measures, is that an out-of-bounds subscript
//! lands on the *neighbouring data's names* and resolves without any
//! trap: a linear name space carries no per-array structure for the
//! hardware to check.

use dsa_core::access::ProgramOp;
use dsa_core::advice::{Advice, AdviceUnit};
use dsa_core::clock::{Cycles, VirtualTime};
use dsa_core::error::{AccessFault, CoreError};
use dsa_core::ids::{IdMap, PageNo, SegId, Words};
use dsa_core::taxonomy::SystemCharacteristics;
use dsa_faults::FaultConfig;
use dsa_mapping::associative::FrameAssociativeMap;
use dsa_mapping::block_map::BlockMap;
use dsa_mapping::{AddressMap, Translation};
use dsa_paging::paged::{PagedMemory, TouchOutcome};
use dsa_probe::{EventKind, Probe, Stamp};

use crate::faults_rt::{self, FaultState};
use crate::report::MachineReport;

/// Which mapping hardware performs the name-to-address step.
pub enum LinearMapDevice {
    /// One page-address register per frame, searched associatively
    /// (ATLAS).
    FrameAssociative(FrameAssociativeMap),
    /// Indirect addressing through a mapping store (M44/44X) — the
    /// single-level table of Figure 2.
    MappingStore(BlockMap),
}

impl LinearMapDevice {
    fn translate(&mut self, name: u64) -> Translation {
        match self {
            LinearMapDevice::FrameAssociative(m) => m.translate(dsa_core::ids::Name(name)),
            LinearMapDevice::MappingStore(m) => m.translate(dsa_core::ids::Name(name)),
        }
    }

    fn load(&mut self, page: PageNo, frame: dsa_core::ids::FrameNo, page_size: Words) {
        match self {
            LinearMapDevice::FrameAssociative(m) => m.load(frame, page),
            LinearMapDevice::MappingStore(m) => {
                m.map_block(page.0, dsa_core::ids::PhysAddr(frame.0 * page_size));
            }
        }
    }

    fn unload(&mut self, page: PageNo, frame: dsa_core::ids::FrameNo) {
        match self {
            LinearMapDevice::FrameAssociative(m) => m.unload(frame),
            LinearMapDevice::MappingStore(m) => m.unmap_block(page.0),
        }
    }
}

/// A linear-name-space demand-paged machine.
pub struct LinearPagedMachine {
    name: &'static str,
    chars: SystemCharacteristics,
    page_size: Words,
    name_extent: Words,
    device: LinearMapDevice,
    memory: PagedMemory,
    /// Time to fetch one page from backing storage.
    page_fetch: Cycles,
    /// Whether the M44-style advice instructions exist.
    accepts_advice: bool,
    /// Segment layout in the linear space: seg -> (base name, size).
    layout: IdMap<SegId, (u64, Words)>,
    bump: u64,
    now: VirtualTime,
    /// Armed fault injection and its recovery state, if any.
    faults: Option<FaultState>,
}

impl LinearPagedMachine {
    /// Assembles the machine. The caller supplies components configured
    /// with the appendix's parameters (see `presets`).
    // Each argument is one hardware component of the appendix's spec;
    // a builder would only obscure that correspondence.
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn new(
        name: &'static str,
        chars: SystemCharacteristics,
        page_size: Words,
        name_extent: Words,
        device: LinearMapDevice,
        memory: PagedMemory,
        page_fetch: Cycles,
        accepts_advice: bool,
    ) -> LinearPagedMachine {
        LinearPagedMachine {
            name,
            chars,
            page_size,
            name_extent,
            device,
            // Traced transfers must carry the machine's page size.
            memory: memory.with_words_per_page(page_size),
            page_fetch,
            accepts_advice,
            layout: IdMap::default(),
            bump: 0,
            now: 0,
            faults: None,
        }
    }

    /// Arms seed-driven fault injection for subsequent runs: transfer
    /// errors are retried with backoff, bad frames are quarantined with
    /// the page refetched elsewhere, and storage exhaustion degrades
    /// through shed-load instead of aborting the run. The per-run
    /// recovery accounting lands in [`MachineReport::recovery`].
    #[must_use]
    pub fn with_fault_injection(mut self, seed: u64, config: FaultConfig) -> LinearPagedMachine {
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

    /// Pages spanned by segment `seg`, given its layout.
    fn pages_of(&self, base: u64, size: Words) -> impl Iterator<Item = PageNo> {
        let first = base / self.page_size;
        let last = (base + size.max(1) - 1) / self.page_size;
        (first..=last).map(PageNo)
    }

    fn service_fault<P: Probe + ?Sized>(
        &mut self,
        page: PageNo,
        write: bool,
        report: &mut MachineReport,
        clock: &mut Cycles,
        probe: &mut P,
    ) -> Result<(), CoreError> {
        // The engine emits `Fault` and per-victim `Evict`; the machine
        // owns the transfer events, because only it knows the channel
        // timing.
        let outcome = self
            .memory
            .touch_probed(page, write, Stamp::at(*clock, self.now), probe)?;
        match outcome {
            TouchOutcome::Fault { frame, evicted } => {
                probe.emit(
                    EventKind::FetchStart {
                        words: self.page_size,
                    },
                    Stamp::at(*clock, self.now),
                );
                if let Some(e) = evicted {
                    self.device.unload(e.page, e.frame);
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
                self.device.load(page, frame, self.page_size);
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
                    self.device.unload(page, frame);
                    self.service_fault(page, write, report, clock, probe)?;
                }
            }
            TouchOutcome::Hit { .. } => {
                // Raced with a prefetch; nothing more to do.
            }
        }
        Ok(())
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
                    // Lay the segment out at the next free names.
                    if self.bump + size > self.name_extent {
                        report.alloc_failures += 1;
                        continue;
                    }
                    self.layout.insert(seg, (self.bump, size));
                    self.bump += size;
                    probe.emit(
                        EventKind::Alloc {
                            words: size,
                            searched: 0,
                        },
                        Stamp::at(clock, self.now),
                    );
                }
                ProgramOp::Resize { seg, size } => {
                    // A linear space cannot grow in place: a grown
                    // segment must be re-laid at fresh names (the name
                    // allocation problem the paper says segmentation
                    // alleviates).
                    let Some(&(base, old)) = self.layout.get(&seg) else {
                        continue;
                    };
                    if size <= old {
                        self.layout.insert(seg, (base, size));
                    } else if self.bump + size <= self.name_extent {
                        self.layout.insert(seg, (self.bump, size));
                        self.bump += size;
                    } else {
                        report.alloc_failures += 1;
                    }
                }
                ProgramOp::Delete { seg } => {
                    // Names are not reclaimed (no dynamic name
                    // reallocation on these systems); the pages simply
                    // stop being referenced.
                    if let Some((_, size)) = self.layout.remove(&seg) {
                        probe.emit(EventKind::Free { words: size }, Stamp::at(clock, self.now));
                    }
                }
                ProgramOp::Touch { seg, offset, kind } => {
                    let Some(&(base, size)) = self.layout.get(&seg) else {
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
                    let name = base + offset;
                    if offset >= size && name < self.name_extent {
                        // An illegal subscript that lands on valid names:
                        // nothing traps. It is still executed below.
                        report.wild_undetected += 1;
                    }
                    let t = self.device.translate(name);
                    report.map_time += t.cost;
                    clock += t.cost;
                    probe.emit(
                        EventKind::MapLookup {
                            hit: t.outcome.is_ok(),
                        },
                        Stamp::at(clock, self.now),
                    );
                    match t.outcome {
                        Ok(_) => {
                            // Keep the paging engine's recency state in
                            // step with the hardware hit.
                            let page = PageNo(name / self.page_size);
                            self.memory.touch_probed(
                                page,
                                kind.is_write(),
                                Stamp::at(clock, self.now),
                                probe,
                            )?;
                        }
                        Err(AccessFault::MissingPage { page }) => {
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
                        Err(AccessFault::InvalidName { .. }) => {
                            report.bounds_caught += 1;
                            probe.emit(EventKind::BoundsTrap, Stamp::at(clock, self.now));
                        }
                        Err(f) => return Err(f.into()),
                    }
                }
                ProgramOp::Advise(advice) => {
                    if !self.accepts_advice {
                        continue;
                    }
                    // The M44 instructions speak of pages; segment-level
                    // advice is lowered onto the segment's pages.
                    let advised: Vec<PageNo> = match advice.unit() {
                        AdviceUnit::Page(p) => vec![p],
                        AdviceUnit::Segment(seg) => match self.layout.get(&seg) {
                            Some(&(base, size)) => self.pages_of(base, size).take(16).collect(),
                            None => vec![],
                        },
                    };
                    for p in advised {
                        report.advice_ops += 1;
                        probe.emit(EventKind::Advice, Stamp::at(clock, self.now));
                        let lowered = match advice {
                            Advice::WillNeed(_) => Advice::WillNeed(AdviceUnit::Page(p)),
                            Advice::WontNeed(_) => Advice::WontNeed(AdviceUnit::Page(p)),
                            Advice::Pin(_) => Advice::Pin(AdviceUnit::Page(p)),
                            Advice::Unpin(_) => Advice::Unpin(AdviceUnit::Page(p)),
                            Advice::Release(_) => Advice::Release(AdviceUnit::Page(p)),
                        };
                        let outcome =
                            self.memory
                                .advise_probed(lowered, Stamp::at(clock, self.now), probe);
                        // Mirror what actually happened into the mapping
                        // device.
                        if let Some(e) = outcome.evicted {
                            self.device.unload(e.page, e.frame);
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
                        if let Some((page, frame)) = outcome.loaded {
                            self.device.load(page, frame, self.page_size);
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

crate::report::impl_machine!(LinearPagedMachine);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Machine;
    use dsa_core::access::AccessKind;
    use dsa_core::taxonomy::{AllocationUnit, Contiguity, NameSpaceKind, PredictiveInfo};
    use dsa_mapping::cost::MapCosts;
    use dsa_paging::replacement::lru::LruRepl;

    fn tiny_machine(frames: usize, advice: bool) -> LinearPagedMachine {
        let costs = MapCosts::for_core_cycle(Cycles::from_micros(1));
        let page_size = 16;
        let extent = 1024;
        LinearPagedMachine::new(
            "test-linear",
            SystemCharacteristics {
                name_space: NameSpaceKind::Linear { extent },
                predictive: if advice {
                    PredictiveInfo::Advisory
                } else {
                    PredictiveInfo::None
                },
                contiguity: Contiguity::Artificial,
                unit: AllocationUnit::Uniform { page_size },
            },
            page_size,
            extent,
            LinearMapDevice::MappingStore(BlockMap::new((extent / page_size) as usize, 4, costs)),
            PagedMemory::new(frames, Box::new(LruRepl::new())),
            Cycles::from_micros(100),
            advice,
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
        let mut m = tiny_machine(8, false);
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
        let mut m = tiny_machine(8, false);
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
        let mut m = tiny_machine(16, false);
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
        let mut m = tiny_machine(8, false);
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
        use dsa_core::advice::{Advice, AdviceUnit};
        let mut m = tiny_machine(8, false);
        let ops = vec![
            ProgramOp::Define {
                seg: SegId(0),
                size: 32,
            },
            ProgramOp::Advise(Advice::WillNeed(AdviceUnit::Segment(SegId(0)))),
        ];
        let r = m.run(&ops).unwrap();
        assert_eq!(r.advice_ops, 0);
        assert_eq!(r.prefetches, 0);
    }

    #[test]
    fn prefetch_counts_words_and_is_useful() {
        use dsa_core::advice::{Advice, AdviceUnit};
        let mut m = tiny_machine(8, true);
        let ops = vec![
            ProgramOp::Define {
                seg: SegId(0),
                size: 32,
            }, // 2 pages
            ProgramOp::Advise(Advice::WillNeed(AdviceUnit::Segment(SegId(0)))),
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
        let mut m = tiny_machine(2, false); // 2 frames only
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
}
