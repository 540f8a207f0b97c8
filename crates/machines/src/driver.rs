//! The one interpreter every composed machine runs.
//!
//! The paper's thesis is that name space, predictive information,
//! artificial contiguity and uniformity of unit are largely independent
//! choices. [`Composed`] takes them as parameters: the predictive axis
//! is read from the machine's [`SystemCharacteristics`], the unit of
//! allocation is its [`Backend`] ([`Paged`](crate::paged::Paged) page
//! frames or [`Segments`](crate::segments::Segments) placed whole), and
//! the paged backend is in turn generic over how names are laid out and
//! which mapping device resolves them. What no axis changes lives here,
//! once: the walk over [`ProgramOp`], the fault-injection rolls, the
//! transfer accounting, and shed-load-and-retry when storage is full.

use dsa_core::access::ProgramOp;
use dsa_core::advice::Advice;
use dsa_core::clock::{Cycles, VirtualTime};
use dsa_core::error::{AllocError, CoreError};
use dsa_core::ids::{SegId, Words};
use dsa_core::taxonomy::{PredictiveInfo, SystemCharacteristics};
use dsa_faults::FaultConfig;
use dsa_probe::{Event, EventKind, NullProbe, Probe, Stamp};
use dsa_storage::level::LevelSpec;

use crate::faults_rt::FaultState;
use crate::report::{Machine, MachineReport};

/// One run's books, handed to the backend with every operation: the
/// report, the machine's clocks, the armed fault state and the probe.
pub struct Cx<'a, P: ?Sized> {
    pub(crate) report: MachineReport,
    pub(crate) clock: Cycles,
    pub(crate) now: VirtualTime,
    pub(crate) faults: &'a mut Option<FaultState>,
    pub(crate) probe: &'a mut P,
    backing: &'a LevelSpec,
}

impl<P: Probe + ?Sized> Cx<'_, P> {
    /// The stamp of whatever happens next.
    #[inline]
    pub(crate) fn at(&self) -> Stamp {
        Stamp::at(self.clock, self.now)
    }

    #[inline]
    pub(crate) fn emit(&mut self, kind: EventKind) {
        self.probe.emit(kind, self.at());
    }

    /// Waits out one transfer of `words` over the backing channel,
    /// hazards included: only the machine knows the channel's timing.
    fn transfer(&mut self, words: Words) {
        let base = self.backing.transfer_time(words);
        let busy = base + self.transfer_extra(base);
        self.report.fetch_time += busy;
        self.clock += busy;
    }

    /// Writes `words` of an evicted unit back.
    pub(crate) fn charge_writeback(&mut self, words: Words) {
        self.emit(EventKind::Writeback { words });
        self.report.writeback_words += words;
        self.transfer(words);
    }

    /// Brings `words` in; the caller has emitted the `FetchStart`.
    pub(crate) fn charge_fetch(&mut self, words: Words) {
        self.report.fetched_words += words;
        self.transfer(words);
        self.emit(EventKind::FetchDone { words });
    }

    /// Counts one advisory directive acted upon.
    pub(crate) fn note_advice(&mut self) {
        self.report.advice_ops += 1;
        self.emit(EventKind::Advice);
    }
}

/// The unit-of-allocation axis: what a composed machine allocates,
/// addresses and fetches. The driver owns the sequence; a backend owns
/// what each step means for its unit. What a program can provoke is
/// counted in the report; an `Err` aborts [`Machine::run`].
pub trait Backend: Send {
    /// A touch located in the name space, not yet addressed.
    type Target: Copy;
    /// A unit that must be made resident before the touch completes.
    type Demand: Copy;

    /// Whether reference time starts again with each run. The paging
    /// engine's recency state outlives a run, so its clock must too.
    const RESTARTS_TIME: bool;
    /// Whether storage exhausted with no load left to shed is counted
    /// as an allocation failure (a segment larger than what is free) or
    /// ends the run (every page frame pinned).
    const COUNTS_EXHAUSTION: bool;

    /// Declares `seg`; `Ok(false)` if its names cannot be allocated.
    /// Failures inside a declaration that stands are counted in `failed`.
    fn define(&mut self, seg: SegId, size: Words, failed: &mut u64) -> Result<bool, CoreError>;

    /// Changes `seg`'s declared size, counting in `failed` as `define`.
    fn resize(&mut self, seg: SegId, size: Words, failed: &mut u64) -> Result<(), CoreError>;

    /// Forgets `seg`, returning the words to trace as freed.
    fn delete<P: Probe + ?Sized>(&mut self, seg: SegId, cx: &mut Cx<'_, P>) -> Option<Words>;

    /// Finds `offset` of `seg` in the name space; `None` if the program
    /// never (successfully) declared `seg`.
    fn locate(&self, seg: SegId, offset: Words) -> Option<Self::Target>;

    /// The addressing step: bounds, mapping, the resident case. Returns
    /// what must still be fetched, if anything.
    fn address<P: Probe + ?Sized>(
        &mut self,
        target: Self::Target,
        write: bool,
        cx: &mut Cx<'_, P>,
    ) -> Result<Option<Self::Demand>, CoreError>;

    /// The fetch step: makes `unit` resident, charging the transfers;
    /// [`AllocError::OutOfStorage`] when nothing can be evicted.
    fn demand<P: Probe + ?Sized>(
        &mut self,
        unit: Self::Demand,
        write: bool,
        cx: &mut Cx<'_, P>,
    ) -> Result<(), CoreError>;

    /// Acts on a directive the machine accepts.
    fn advise<P: Probe + ?Sized>(&mut self, advice: Advice, cx: &mut Cx<'_, P>);

    /// Surrenders every pin: the shed-load rung.
    fn unpin_all(&mut self);

    /// Degradation rungs the backend has climbed by itself so far.
    fn degradation_steps(&self) -> u64 {
        0
    }

    /// Called when fault injection is armed.
    fn arm_recovery(&mut self) {}

    /// Fills in what the backend, not the driver, counted.
    fn finish(&self, _report: &mut MachineReport) {}

    /// Panics if the backend's bookkeeping is inconsistent.
    fn check_invariants(&self);
}

/// A storage allocation system composed along the paper's four axes.
pub struct Composed<B> {
    name: &'static str,
    chars: SystemCharacteristics,
    /// The level behind working storage; every transfer is timed on it.
    backing: LevelSpec,
    backend: B,
    now: VirtualTime,
    /// Armed fault injection and its recovery state, if any.
    faults: Option<FaultState>,
}

impl<B: Backend> Composed<B> {
    pub(crate) fn new(
        name: &'static str,
        chars: SystemCharacteristics,
        backing: LevelSpec,
        backend: B,
    ) -> Composed<B> {
        Composed {
            name,
            chars,
            backing,
            backend,
            now: 0,
            faults: None,
        }
    }

    /// Arms seed-driven fault injection for subsequent runs: transfer
    /// errors are retried with backoff, bad frames are quarantined with
    /// the page refetched elsewhere, and storage exhaustion degrades
    /// (a segment store's coalesce / compact / evict ladder, then
    /// shed-load) instead of aborting the run. The per-run recovery
    /// accounting lands in [`MachineReport::recovery`].
    #[must_use]
    pub fn with_fault_injection(mut self, seed: u64, config: FaultConfig) -> Composed<B> {
        self.faults = Some(FaultState::new(seed, config));
        self.backend.arm_recovery();
        self
    }

    /// Verifies the backend's internal invariants.
    ///
    /// # Panics
    ///
    /// Panics if frame or residency bookkeeping is inconsistent.
    pub fn check_invariants(&self) {
        self.backend.check_invariants();
    }

    /// [`Machine::run`] generically over any probe; `run` and
    /// `run_probed` both land here.
    ///
    /// # Errors
    ///
    /// As [`Machine::run`].
    pub fn run_with<P: Probe + ?Sized>(
        &mut self,
        ops: &[ProgramOp],
        probe: &mut P,
    ) -> Result<MachineReport, CoreError> {
        if let Some(fs) = self.faults.as_mut() {
            fs.begin_run();
        }
        if B::RESTARTS_TIME {
            self.now = 0;
        }
        let accepts_advice = self.chars.predictive != PredictiveInfo::None;
        let backend = &mut self.backend;
        let degraded_before = backend.degradation_steps();
        let mut cx = Cx {
            report: MachineReport {
                machine: self.name.to_owned(),
                ..MachineReport::default()
            },
            clock: Cycles::ZERO,
            now: self.now,
            faults: &mut self.faults,
            probe,
            backing: &self.backing,
        };
        let outcome = Self::interpret(backend, accepts_advice, ops, &mut cx);
        // Even if cut short: the paging engine's recency stamps are this late.
        self.now = cx.now;
        outcome?;
        let mut report = cx.report;
        backend.finish(&mut report);
        if let Some(fs) = self.faults.as_mut() {
            // The backend's own rungs reconcile with the
            // `DegradationStep` events it emitted, one for one.
            fs.recovery.degradation_steps += backend.degradation_steps() - degraded_before;
            report.recovery = fs.recovery;
        }
        Ok(report)
    }

    /// The one walk over [`ProgramOp`].
    fn interpret<P: Probe + ?Sized>(
        backend: &mut B,
        accepts_advice: bool,
        ops: &[ProgramOp],
        cx: &mut Cx<'_, P>,
    ) -> Result<(), CoreError> {
        for op in ops {
            match *op {
                ProgramOp::Define { seg, size } => {
                    if !cx.alloc_refused()
                        && backend.define(seg, size, &mut cx.report.alloc_failures)?
                    {
                        cx.emit(EventKind::Alloc {
                            words: size,
                            searched: 0,
                        });
                    } else {
                        cx.report.alloc_failures += 1;
                    }
                }
                ProgramOp::Resize { seg, size } => {
                    backend.resize(seg, size, &mut cx.report.alloc_failures)?;
                }
                ProgramOp::Delete { seg } => {
                    if let Some(words) = backend.delete(seg, cx) {
                        cx.emit(EventKind::Free { words });
                    }
                }
                ProgramOp::Touch { seg, offset, kind } => {
                    let Some(target) = backend.locate(seg, offset) else {
                        continue;
                    };
                    let write = kind.is_write();
                    cx.report.touches += 1;
                    cx.now += 1;
                    cx.emit(EventKind::Touch { write });
                    let Some(unit) = backend.address(target, write, cx)? else {
                        continue;
                    };
                    match backend.demand(unit, write, cx) {
                        // Nothing left to evict. Degradation: shed load
                        // (surrender the pins) and retry the demand once.
                        Err(CoreError::Alloc(AllocError::OutOfStorage { .. })) if cx.try_shed() => {
                            backend.unpin_all();
                            match backend.demand(unit, write, cx) {
                                Err(CoreError::Alloc(AllocError::OutOfStorage { .. })) => {
                                    cx.report.alloc_failures += 1;
                                }
                                other => other?,
                            }
                        }
                        Err(CoreError::Alloc(AllocError::OutOfStorage { .. }))
                            if B::COUNTS_EXHAUSTION =>
                        {
                            cx.report.alloc_failures += 1;
                        }
                        other => other?,
                    }
                }
                ProgramOp::Advise {
                    kind,
                    segment,
                    number,
                } => {
                    // Advice about a segment no `SegId` can name is
                    // advice about nothing.
                    if let (true, Some(advice)) = (accepts_advice, kind.about(segment, number)) {
                        backend.advise(advice, cx);
                    }
                }
            }
        }
        Ok(())
    }
}

/// What [`Machine::run_probed`] hands the driver in place of an enabled
/// `&mut dyn Probe`. The sink was asked `is_enabled()` once, before the
/// run; through this adapter `emit` const-folds that question to `true`
/// and an event costs one virtual call (`record`) instead of two.
struct Enabled<'a>(&'a mut dyn Probe);

impl Probe for Enabled<'_> {
    #[inline]
    fn record(&mut self, event: &Event) {
        self.0.record(event);
    }
}

impl<B: Backend> Machine for Composed<B> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn characteristics(&self) -> SystemCharacteristics {
        self.chars.clone()
    }

    fn run(&mut self, ops: &[ProgramOp]) -> Result<MachineReport, CoreError> {
        self.run_with(ops, &mut NullProbe)
    }

    /// Asks the sink whether it is enabled once, not once per event: a
    /// disabled dynamic sink costs exactly `run`.
    fn run_probed(
        &mut self,
        ops: &[ProgramOp],
        probe: &mut dyn Probe,
    ) -> Result<MachineReport, CoreError> {
        if probe.is_enabled() {
            self.run_with(ops, &mut Enabled(probe))
        } else {
            self.run(ops)
        }
    }
}
