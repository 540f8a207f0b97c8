//! The common machine interface and its report.

use core::fmt;

use dsa_core::access::ProgramOp;
use dsa_core::clock::Cycles;
use dsa_core::error::CoreError;
use dsa_core::ids::Words;
use dsa_core::taxonomy::SystemCharacteristics;
use dsa_faults::RecoveryReport;
use dsa_probe::Probe;

/// What running a workload on a machine produced.
#[derive(Clone, Debug, Default)]
pub struct MachineReport {
    /// The machine's name.
    pub machine: String,
    /// Touch operations executed (including ones that faulted).
    pub touches: u64,
    /// Fetch faults serviced (page or segment, per the machine's unit).
    pub faults: u64,
    /// Words moved from backing storage into working storage.
    pub fetched_words: Words,
    /// Words written back to backing storage on eviction.
    pub writeback_words: Words,
    /// Total time spent waiting on fetches and write-backs.
    pub fetch_time: Cycles,
    /// Total time consumed by the addressing mechanism.
    pub map_time: Cycles,
    /// Illegal subscripts intercepted by limit checking.
    pub bounds_caught: u64,
    /// Wild touches that resolved to *some* location undetected — the
    /// fate of out-of-bounds subscripts on machines whose name space
    /// carries no per-array structure.
    pub wild_undetected: u64,
    /// Advisory directives acted upon.
    pub advice_ops: u64,
    /// Pages brought in by will-need prefetch.
    pub prefetches: u64,
    /// Prefetched pages that were later actually referenced.
    pub useful_prefetches: u64,
    /// Requests the machine could not satisfy (storage exhausted even
    /// after replacement).
    pub alloc_failures: u64,
    /// What the fault-injection recovery machinery did, when armed
    /// (all-zero otherwise). Its counts reconcile one for one with the
    /// `FaultInjected`/`RetryAttempt`/`FrameQuarantined`/
    /// `DegradationStep` events of the same run.
    pub recovery: RecoveryReport,
}

impl MachineReport {
    /// Faults per touch.
    #[must_use]
    pub fn fault_rate(&self) -> f64 {
        if self.touches == 0 {
            0.0
        } else {
            self.faults as f64 / self.touches as f64
        }
    }

    /// Mean addressing overhead per touch, in nanoseconds.
    #[must_use]
    pub fn mean_map_overhead_nanos(&self) -> f64 {
        if self.touches == 0 {
            0.0
        } else {
            self.map_time.as_nanos() as f64 / self.touches as f64
        }
    }
}

impl fmt::Display for MachineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} touches, {} faults ({:.2}%), {} words in / {} out, map {:.0} ns/touch, bounds {} caught / {} missed",
            self.machine,
            self.touches,
            self.faults,
            self.fault_rate() * 100.0,
            self.fetched_words,
            self.writeback_words,
            self.mean_map_overhead_nanos(),
            self.bounds_caught,
            self.wild_undetected,
        )
    }
}

/// A composed storage allocation system able to execute the portable
/// workload format.
///
/// `Send` is a supertrait so a boxed machine can be constructed in one
/// thread of the parallel simulation engine and run there.
pub trait Machine: Send {
    /// The machine's name (e.g. `"Ferranti ATLAS"`).
    fn name(&self) -> &'static str;

    /// Its position in the paper's four-axis design space.
    fn characteristics(&self) -> SystemCharacteristics;

    /// Executes a workload. Bounds violations and capacity failures are
    /// *counted*, not propagated; only configuration-level errors abort.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for unrecoverable conditions (a workload
    /// that cannot be expressed on this machine at all).
    fn run(&mut self, ops: &[ProgramOp]) -> Result<MachineReport, CoreError>;

    /// [`Machine::run`] with event emission: every touch, fault,
    /// transfer, eviction, advisory directive, and bounds trap is
    /// reported to `probe`, stamped with the machine's own clock and the
    /// workload's reference time. The returned report and the event
    /// stream are two views of one execution: the `CountingProbe` totals
    /// reconcile exactly with the report's fields.
    ///
    /// # Errors
    ///
    /// As [`Machine::run`].
    fn run_probed(
        &mut self,
        ops: &[ProgramOp],
        probe: &mut dyn Probe,
    ) -> Result<MachineReport, CoreError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_empty_report() {
        let r = MachineReport::default();
        assert_eq!(r.fault_rate(), 0.0);
        assert_eq!(r.mean_map_overhead_nanos(), 0.0);
    }

    #[test]
    fn display_is_informative() {
        let r = MachineReport {
            machine: "Test".into(),
            touches: 100,
            faults: 10,
            ..MachineReport::default()
        };
        let s = r.to_string();
        assert!(s.contains("Test") && s.contains("10 faults"), "{s}");
    }
}
