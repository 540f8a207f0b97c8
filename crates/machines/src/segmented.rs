//! Segment-allocated machines: B5000, Rice, B8500.
//!
//! On these machines the segment is the unit of allocation: fetched
//! whole on first reference, placed by a variable-unit allocator,
//! bounds-checked on every access through its descriptor (B5000/B8500
//! PRT entries) or codeword (Rice). The B5000 limits segments to 1024
//! words; "by virtue of the way the compiler implements multidimensional
//! arrays" a programmer may still declare larger objects, which the
//! compiler splits — our adapter performs the same split.

use dsa_core::access::ProgramOp;
use dsa_core::clock::Cycles;
use dsa_core::clock::VirtualTime;
use dsa_core::error::{AccessFault, AllocError, CoreError};
use dsa_core::ids::{IdMap, SegId, Words};
use dsa_core::taxonomy::SystemCharacteristics;
use dsa_faults::FaultConfig;
use dsa_mapping::associative::{AssocMemory, AssocPolicy};
use dsa_mapping::cost::MapCosts;
use dsa_probe::{EventKind, Probe, Stamp};
use dsa_seg::store::SegmentStore;

use crate::faults_rt::{self, FaultState};
use crate::report::MachineReport;

/// A segment-allocated machine.
pub struct SegmentedMachine {
    name: &'static str,
    chars: SystemCharacteristics,
    store: SegmentStore,
    costs: MapCosts,
    /// Optional descriptor cache (the B8500's 44-word thin-film
    /// associative memory retaining recently used PRT elements).
    descriptor_cache: Option<AssocMemory>,
    /// Per-word transfer time to/from backing storage plus latency,
    /// charged per fetched segment.
    backing_latency: Cycles,
    backing_word_time: Cycles,
    /// The compiler's segment-size ceiling (1024 on the B5000); larger
    /// declarations are split into chunks.
    split_at: Words,
    /// User segment -> (chunk ids, user-declared size).
    split_map: IdMap<SegId, (Vec<SegId>, Words)>,
    next_internal: u32,
    /// Whether advisory directives are honoured (the appendix machines
    /// in this family accept none; the authors' favoured design does).
    accepts_advice: bool,
    /// Fault injection and recovery, when armed.
    faults: Option<FaultState>,
}

impl SegmentedMachine {
    /// Assembles the machine.
    // Each argument is one hardware component of the appendix's spec;
    // a builder would only obscure that correspondence.
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn new(
        name: &'static str,
        chars: SystemCharacteristics,
        store: SegmentStore,
        costs: MapCosts,
        descriptor_cache: Option<AssocMemory>,
        backing_latency: Cycles,
        backing_word_time: Cycles,
        split_at: Words,
    ) -> SegmentedMachine {
        SegmentedMachine {
            name,
            chars,
            store,
            costs,
            descriptor_cache,
            backing_latency,
            backing_word_time,
            split_at,
            split_map: IdMap::default(),
            next_internal: 0,
            accepts_advice: false,
            faults: None,
        }
    }

    /// Enables advisory directives (will-need prefetch, wont-need
    /// demotion, pin, release) — the authors' favoured configuration;
    /// none of the appendix's segment machines accepted any.
    #[must_use]
    pub fn with_advice(mut self) -> SegmentedMachine {
        self.accepts_advice = true;
        self
    }

    /// Arms deterministic fault injection with the given seed and
    /// configuration, and enables the store's graceful-degradation
    /// ladder (coalesce, compact, evict) so injected storage pressure is
    /// survived rather than surfaced.
    #[must_use]
    pub fn with_fault_injection(mut self, seed: u64, config: FaultConfig) -> SegmentedMachine {
        self.faults = Some(FaultState::new(seed, config));
        self.store.enable_degradation();
        self
    }

    /// Asserts the segment store's internal consistency. Panics on
    /// violation; intended for tests.
    pub fn check_invariants(&self) {
        self.store.check_invariants();
    }

    /// The B8500's 44-word associative memory, preconfigured.
    #[must_use]
    pub fn b8500_cache() -> AssocMemory {
        AssocMemory::new(44, AssocPolicy::Lru)
    }

    fn transfer_time(&self, words: Words) -> Cycles {
        self.backing_latency + self.backing_word_time * words
    }

    fn fresh_internal(&mut self) -> SegId {
        let id = SegId(self.next_internal);
        self.next_internal += 1;
        id
    }

    /// Charges the descriptor-access cost for one touch of `chunk`,
    /// consulting the descriptor cache if the machine has one. Emits one
    /// `MapLookup`: on a cached machine `hit` means the descriptor was
    /// in the associative memory; without a cache every PRT reference
    /// resolves directly and counts as a hit.
    fn charge_descriptor<P: Probe + ?Sized>(
        &mut self,
        chunk: SegId,
        report: &mut MachineReport,
        at: Stamp,
        probe: &mut P,
    ) -> Cycles {
        let (cost, hit) = match &mut self.descriptor_cache {
            Some(cache) => {
                if cache.lookup(u64::from(chunk.0)).is_some() {
                    (self.costs.assoc_search, true)
                } else {
                    cache.insert(u64::from(chunk.0), 0);
                    (self.costs.assoc_search + self.costs.table_ref, false)
                }
            }
            // A PRT reference in core.
            None => (self.costs.table_ref, true),
        };
        report.map_time += cost;
        probe.emit(EventKind::MapLookup { hit }, at);
        cost
    }

    fn define_user_segment(
        &mut self,
        seg: SegId,
        size: Words,
        report: &mut MachineReport,
    ) -> Result<(), CoreError> {
        let mut chunks = Vec::new();
        let mut remaining = size;
        while remaining > 0 {
            let chunk_size = remaining.min(self.split_at);
            let id = self.fresh_internal();
            match self.store.define(id, chunk_size) {
                Ok(()) => chunks.push(id),
                Err(CoreError::Alloc(AllocError::OutOfStorage { .. })) => {
                    report.alloc_failures += 1;
                    break;
                }
                Err(e) => return Err(e),
            }
            remaining -= chunk_size;
        }
        self.split_map.insert(seg, (chunks, size));
        Ok(())
    }

    fn delete_user_segment(&mut self, seg: SegId) -> Words {
        if let Some((chunks, size)) = self.split_map.remove(&seg) {
            for c in chunks {
                let _ = self.store.delete(c);
            }
            size
        } else {
            0
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
        let mut now: VirtualTime = 0;
        let mut report = MachineReport {
            machine: self.name.to_owned(),
            ..MachineReport::default()
        };
        if let Some(fs) = self.faults.as_mut() {
            fs.begin_run();
        }
        // The store counts its own degradation rungs (coalesce, compact,
        // evict); fold this run's delta into the recovery report so it
        // reconciles with the `DegradationStep` events emitted below.
        let degradation_before = self.store.stats().degradation_steps;
        for op in ops {
            match *op {
                ProgramOp::Define { seg, size } => {
                    if faults_rt::alloc_refused(&mut self.faults, Stamp::at(clock, now), probe) {
                        report.alloc_failures += 1;
                        continue;
                    }
                    self.define_user_segment(seg, size, &mut report)?;
                    probe.emit(
                        EventKind::Alloc {
                            words: size,
                            searched: 0,
                        },
                        Stamp::at(clock, now),
                    );
                }
                ProgramOp::Resize { seg, size } => {
                    // Dynamic segments: re-declare at the new size.
                    self.delete_user_segment(seg);
                    self.define_user_segment(seg, size, &mut report)?;
                }
                ProgramOp::Delete { seg } => {
                    let freed = self.delete_user_segment(seg);
                    if freed > 0 {
                        probe.emit(EventKind::Free { words: freed }, Stamp::at(clock, now));
                    }
                }
                ProgramOp::Touch { seg, offset, kind } => {
                    let Some((chunks, user_size)) = self.split_map.get(&seg) else {
                        continue;
                    };
                    report.touches += 1;
                    now += 1;
                    probe.emit(
                        EventKind::Touch {
                            write: kind.is_write(),
                        },
                        Stamp::at(clock, now),
                    );
                    // The illegal-subscript interception the paper lists
                    // as segmentation advantage (iii): the *user's*
                    // declared bound is enforced by the chunk bounds.
                    if offset >= *user_size {
                        report.bounds_caught += 1;
                        probe.emit(EventKind::BoundsTrap, Stamp::at(clock, now));
                        continue;
                    }
                    let chunk_idx = (offset / self.split_at) as usize;
                    let within = offset % self.split_at;
                    let Some(&chunk) = chunks.get(chunk_idx) else {
                        // The chunk was never defined (alloc failure at
                        // define time).
                        report.alloc_failures += 1;
                        continue;
                    };
                    let cost =
                        self.charge_descriptor(chunk, &mut report, Stamp::at(clock, now), probe);
                    clock += cost;
                    let mut attempts = 0u32;
                    loop {
                        attempts += 1;
                        match self.store.touch_probed(
                            chunk,
                            within,
                            kind.is_write(),
                            Stamp::at(clock, now),
                            probe,
                        ) {
                            Ok(r) => {
                                if r.fetched {
                                    probe.emit(
                                        EventKind::FetchStart {
                                            words: r.fetched_words,
                                        },
                                        Stamp::at(clock, now),
                                    );
                                    if r.writeback_words > 0 {
                                        probe.emit(
                                            EventKind::Writeback {
                                                words: r.writeback_words,
                                            },
                                            Stamp::at(clock, now),
                                        );
                                        let base = self.transfer_time(r.writeback_words);
                                        let extra = faults_rt::transfer_extra(
                                            &mut self.faults,
                                            base,
                                            Stamp::at(clock, now),
                                            probe,
                                        );
                                        report.writeback_words += r.writeback_words;
                                        report.fetch_time += base + extra;
                                        clock += base + extra;
                                    }
                                    report.faults += 1;
                                    report.fetched_words += r.fetched_words;
                                    let base = self.transfer_time(r.fetched_words);
                                    let extra = faults_rt::transfer_extra(
                                        &mut self.faults,
                                        base,
                                        Stamp::at(clock, now),
                                        probe,
                                    );
                                    report.fetch_time += base + extra;
                                    clock += base + extra;
                                    probe.emit(
                                        EventKind::FetchDone {
                                            words: r.fetched_words,
                                        },
                                        Stamp::at(clock, now),
                                    );
                                }
                                break;
                            }
                            Err(CoreError::Access(AccessFault::BoundsViolation { .. })) => {
                                report.bounds_caught += 1;
                                probe.emit(EventKind::BoundsTrap, Stamp::at(clock, now));
                                break;
                            }
                            Err(CoreError::Alloc(AllocError::OutOfStorage { .. }))
                                if attempts == 1 =>
                            {
                                // The store's ladder (coalesce, compact,
                                // evict) is exhausted. Last rung: shed
                                // load — surrender every pin — and retry
                                // the demand once.
                                if faults_rt::try_shed(
                                    &mut self.faults,
                                    Stamp::at(clock, now),
                                    probe,
                                ) {
                                    self.store.unpin_all();
                                    continue;
                                }
                                report.alloc_failures += 1;
                                break;
                            }
                            Err(CoreError::Alloc(AllocError::OutOfStorage { .. })) => {
                                report.alloc_failures += 1;
                                break;
                            }
                            Err(e) => return Err(e),
                        }
                    }
                }
                ProgramOp::Advise(advice) => {
                    if !self.accepts_advice {
                        continue;
                    }
                    // Only segment advice is meaningful; lower the user
                    // segment onto its chunks.
                    let dsa_core::advice::AdviceUnit::Segment(seg) = advice.unit() else {
                        continue;
                    };
                    let Some((chunks, _)) = self.split_map.get(&seg) else {
                        continue;
                    };
                    for &chunk in chunks.clone().iter() {
                        report.advice_ops += 1;
                        probe.emit(EventKind::Advice, Stamp::at(clock, now));
                        let unit = dsa_core::advice::AdviceUnit::Segment(chunk);
                        use dsa_core::advice::Advice as A;
                        let lowered = match advice {
                            A::WillNeed(_) => A::WillNeed(unit),
                            A::WontNeed(_) => A::WontNeed(unit),
                            A::Pin(_) => A::Pin(unit),
                            A::Unpin(_) => A::Unpin(unit),
                            A::Release(_) => A::Release(unit),
                        };
                        let before_fetched = self.store.stats().fetched_words;
                        let before_writeback = self.store.stats().writeback_words;
                        self.store
                            .advise_probed(lowered, Stamp::at(clock, now), probe);
                        // Evictions forced by a will-need fetch (and any
                        // release write-back) must be charged like the
                        // demand-path ones.
                        let wrote = self.store.stats().writeback_words - before_writeback;
                        if wrote > 0 {
                            probe
                                .emit(EventKind::Writeback { words: wrote }, Stamp::at(clock, now));
                            let base = self.transfer_time(wrote);
                            let extra = faults_rt::transfer_extra(
                                &mut self.faults,
                                base,
                                Stamp::at(clock, now),
                                probe,
                            );
                            report.writeback_words += wrote;
                            report.fetch_time += base + extra;
                            clock += base + extra;
                        }
                        let brought = self.store.stats().fetched_words - before_fetched;
                        if brought > 0 {
                            report.prefetches += 1;
                            report.fetched_words += brought;
                            probe.emit(
                                EventKind::FetchStart { words: brought },
                                Stamp::at(clock, now),
                            );
                            let base = self.transfer_time(brought);
                            let extra = faults_rt::transfer_extra(
                                &mut self.faults,
                                base,
                                Stamp::at(clock, now),
                                probe,
                            );
                            report.fetch_time += base + extra;
                            clock += base + extra;
                            probe.emit(
                                EventKind::FetchDone { words: brought },
                                Stamp::at(clock, now),
                            );
                        }
                    }
                }
                ProgramOp::Compute { .. } => {}
            }
        }
        if let Some(fs) = self.faults.as_mut() {
            fs.recovery.degradation_steps +=
                self.store.stats().degradation_steps - degradation_before;
            report.recovery = fs.recovery;
        }
        Ok(report)
    }
}

crate::report::impl_machine!(SegmentedMachine);
