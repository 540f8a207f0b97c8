//! Admission control: the valve in front of the allocators.
//!
//! An overloaded allocation service has exactly two choices: collapse —
//! every request grinds through the full steal rotation, fails, and
//! retries — or *degrade on purpose*. The [`OverloadGuard`] implements
//! the second course. It watches global occupancy and refuses admission
//! at the door by tenant [`Priority`] once the watermarks are crossed
//! (85 % and 95 % occupancy: constants, since every service uses the
//! same two), and it meters the shed rung of the arena's degradation
//! ladder through an [`AtomicShedBudget`] so victim
//! eviction is bounded per overload episode rather than cascading. The
//! budget is the guard's one setting.
//!
//! The ladder the service walks on a failed placement, in order:
//!
//! 1. [`DegradationStep::RetryBackoff`] — yield, then re-drive the
//!    placement (another worker may have freed);
//! 2. [`DegradationStep::Coalesce`] — compact the pressured home shard
//!    so its free words become one placeable hole;
//! 3. [`DegradationStep::StealGlobal`] — the full steal rotation (the
//!    arena does this on every placement; the ladder names the re-drive
//!    after compaction);
//! 4. [`DegradationStep::ShedTenant`] — evict the lowest-priority
//!    tenant's blocks until the request fits, budget permitting.
//!
//! Only then does the typed failure surface to the client.
//!
//! [`DegradationStep::RetryBackoff`]: dsa_faults::ladder::DegradationStep::RetryBackoff
//! [`DegradationStep::Coalesce`]: dsa_faults::ladder::DegradationStep::Coalesce
//! [`DegradationStep::StealGlobal`]: dsa_faults::ladder::DegradationStep::StealGlobal
//! [`DegradationStep::ShedTenant`]: dsa_faults::ladder::DegradationStep::ShedTenant

use std::sync::atomic::{AtomicU64, Ordering};

use dsa_core::ids::Words;
use dsa_faults::ladder::AtomicShedBudget;

use crate::tenant::Priority;

/// Occupancy fraction at and above which [`Priority::Low`] is refused
/// admission.
pub(crate) const LOW_WATERMARK: f64 = 0.85;

/// Occupancy fraction at and above which only [`Priority::High`] is
/// admitted.
pub(crate) const HIGH_WATERMARK: f64 = 0.95;

/// The admission-control valve plus degradation-ladder metering.
///
/// All state is atomic: workers consult the guard concurrently with no
/// lock, and its counters reconcile exactly with the probe events the
/// service emits (one `AdmissionReject` event per refused request, one
/// `TenantShed` event per granted shed).
#[derive(Debug)]
pub struct OverloadGuard {
    shed_budget: AtomicShedBudget,
    admission_rejects: AtomicU64,
}

impl OverloadGuard {
    /// A guard granting at most `shed_budget` victim evictions in its
    /// lifetime before failures surface unsoftened.
    #[must_use]
    pub(crate) fn new(shed_budget: u32) -> OverloadGuard {
        OverloadGuard {
            shed_budget: AtomicShedBudget::new(shed_budget),
            admission_rejects: AtomicU64::new(0),
        }
    }

    /// Whether a request at `priority` is admitted when `in_use` of
    /// `capacity` words are occupied. Below the low watermark everyone
    /// is admitted; between the watermarks best-effort traffic is
    /// refused; above the high watermark only [`Priority::High`]
    /// clears the bar. A refusal is counted.
    pub(crate) fn admit(&self, priority: Priority, in_use: Words, capacity: Words) -> bool {
        let occupancy = if capacity == 0 {
            1.0
        } else {
            in_use as f64 / capacity as f64
        };
        let admitted = if occupancy >= HIGH_WATERMARK {
            priority >= Priority::High
        } else if occupancy >= LOW_WATERMARK {
            priority >= Priority::Normal
        } else {
            true
        };
        if !admitted {
            self.admission_rejects.fetch_add(1, Ordering::Relaxed);
        }
        admitted
    }

    /// Claims one eviction from the shed budget; `false` once the
    /// budget for this overload episode is spent.
    pub(crate) fn try_shed(&self) -> bool {
        self.shed_budget.try_shed()
    }

    /// Evictions granted so far.
    #[must_use]
    pub(crate) fn sheds(&self) -> u64 {
        self.shed_budget.sheds()
    }

    /// Requests refused at the door so far.
    #[must_use]
    pub fn admission_rejects(&self) -> u64 {
        self.admission_rejects.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermarks_gate_by_priority() {
        let g = OverloadGuard::new(64);
        // Plenty of room: everyone gets in.
        assert!(g.admit(Priority::Low, 100, 1000));
        // Past the low watermark: best-effort refused.
        assert!(!g.admit(Priority::Low, 900, 1000));
        assert!(g.admit(Priority::Normal, 900, 1000));
        // Past the high watermark: only High.
        assert!(!g.admit(Priority::Normal, 960, 1000));
        assert!(g.admit(Priority::High, 960, 1000));
        assert_eq!(g.admission_rejects(), 2);
    }

    #[test]
    fn zero_capacity_admits_only_high() {
        let g = OverloadGuard::new(64);
        assert!(!g.admit(Priority::Normal, 0, 0));
        assert!(g.admit(Priority::High, 0, 0));
    }

    #[test]
    fn shed_budget_is_finite() {
        let g = OverloadGuard::new(2);
        assert!(g.try_shed());
        assert!(g.try_shed());
        assert!(!g.try_shed());
        assert_eq!(g.sheds(), 2);
    }
}
