//! The fault-injection runtime of the machine driver.
//!
//! A machine optionally carries one [`FaultState`]: the seed-driven
//! injector, the retry policy for transfer errors, the shed-load budget,
//! and the [`RecoveryReport`] being accumulated for the current run.
//! The run's [`Cx`] rolls one hazard per method against it, so a
//! machine without injection pays nothing. Every recovery action both
//! counts in the report and emits the matching probe event, one for
//! one — that is what makes the end-of-run reconciliation exact.

use dsa_core::clock::Cycles;
use dsa_faults::ladder::ShedBudget;
use dsa_faults::{FaultConfig, FaultInjector, RecoveryReport, RetryPolicy};
use dsa_probe::{DegradationStep, EventKind, InjectedFault, Probe, Stamp};

use crate::driver::Cx;

/// Shed-load rungs a single machine may take per run before allocation
/// failures are surfaced to the program.
const SHED_BUDGET: u32 = 8;

/// The per-machine fault state carried when injection is armed.
pub(crate) struct FaultState {
    injector: FaultInjector,
    retry: RetryPolicy,
    shedder: ShedBudget,
    /// Recovery accounting for the current run (reset by `begin_run`).
    pub(crate) recovery: RecoveryReport,
}

impl FaultState {
    pub(crate) fn new(seed: u64, config: FaultConfig) -> FaultState {
        FaultState {
            injector: FaultInjector::new(seed, config),
            retry: RetryPolicy::default_policy(),
            shedder: ShedBudget::new(SHED_BUDGET),
            recovery: RecoveryReport::default(),
        }
    }

    /// Starts a fresh run: recovery accounting and the shed budget are
    /// per-run, while the injector's random stream continues so distinct
    /// runs of one machine see distinct fault schedules.
    pub(crate) fn begin_run(&mut self) {
        self.recovery = RecoveryReport::default();
        self.shedder = ShedBudget::new(SHED_BUDGET);
    }

    /// Counts one injected fault of kind `fault` and traces it.
    fn injected<P: Probe + ?Sized>(&mut self, fault: InjectedFault, at: Stamp, probe: &mut P) {
        self.recovery.faults_injected += 1;
        probe.emit(EventKind::FaultInjected { fault }, at);
    }
}

/// One hazard each, rolled against the run's fault state; every one is
/// free (and silent) when injection is off.
impl<P: Probe + ?Sized> Cx<'_, P> {
    /// Rolls the hazards for one transfer whose base duration is
    /// `base`: a possible channel-congestion stall, then transfer
    /// errors retried with exponential backoff (each retry re-drives
    /// the transfer, charging `base` again). Returns the extra
    /// simulated time recovery consumed, to be added to the transfer's
    /// service time — fault-service latency is thus visible end to end
    /// in the `FetchStart`/`FetchDone` interval.
    pub(crate) fn transfer_extra(&mut self, base: Cycles) -> Cycles {
        let at = self.at();
        let mut extra = Cycles::ZERO;
        let Some(fs) = self.faults.as_mut() else {
            return extra;
        };
        if let Some(delay) = fs.injector.channel_delay() {
            fs.recovery.channel_delays += 1;
            fs.recovery.delay_time += delay;
            fs.injected(InjectedFault::ChannelDelay, at, self.probe);
            extra += delay;
        }
        let mut attempt = 0u32;
        while fs.injector.transfer_error() {
            fs.recovery.transfer_errors += 1;
            fs.injected(InjectedFault::TransferError, at, self.probe);
            if attempt >= fs.retry.max_attempts {
                // Declared permanent: complete from the duplexed backing
                // copy (the simulation stays total), count the
                // exhaustion, stop rolling.
                fs.recovery.retries_exhausted += 1;
                break;
            }
            attempt += 1;
            fs.recovery.retry_attempts += 1;
            self.probe.emit(EventKind::RetryAttempt { attempt }, at);
            let pause = fs.retry.backoff(attempt) + base;
            fs.recovery.retry_time += pause;
            extra += pause;
        }
        extra
    }

    /// Whether the frame a demand load just filled turned out bad.
    pub(crate) fn frame_bad(&mut self) -> bool {
        let at = self.at();
        let Some(fs) = self.faults.as_mut() else {
            return false;
        };
        let bad = fs.injector.frame_bad();
        if bad {
            fs.recovery.bad_frames += 1;
            fs.injected(InjectedFault::BadFrame, at, self.probe);
        }
        bad
    }

    /// Whether this allocation request is refused outright by the
    /// injector.
    pub(crate) fn alloc_refused(&mut self) -> bool {
        let at = self.at();
        let Some(fs) = self.faults.as_mut() else {
            return false;
        };
        let refused = fs.injector.alloc_failure();
        if refused {
            fs.recovery.forced_alloc_failures += 1;
            fs.injected(InjectedFault::AllocFailure, at, self.probe);
        }
        refused
    }

    /// Records a successful quarantine (the caller already retired the
    /// frame).
    pub(crate) fn note_quarantined(&mut self) {
        if let Some(fs) = self.faults.as_mut() {
            fs.recovery.frames_quarantined += 1;
            self.emit(EventKind::FrameQuarantined);
        }
    }

    /// Attempts the shed-load rung of the degradation ladder. `true`
    /// means the caller should surrender advisory claims (unpin
    /// everything) and retry the failed demand once.
    pub(crate) fn try_shed(&mut self) -> bool {
        let Some(fs) = self.faults.as_mut() else {
            return false;
        };
        if !fs.shedder.try_shed() {
            return false;
        }
        fs.recovery.degradation_steps += 1;
        fs.recovery.shed_loads += 1;
        self.emit(EventKind::DegradationStep {
            step: DegradationStep::ShedLoad,
        });
        true
    }
}
