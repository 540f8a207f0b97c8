//! The graceful-degradation ladder: one vocabulary for every climber.
//!
//! Two subsystems climb degradation ladders under storage pressure: the
//! single-threaded machine drivers (coalesce → compact → evict → shed
//! load, PR 2) and the concurrent arena service's `OverloadGuard`
//! (retry-with-backoff → coalesce the pressured shard → steal-then-
//! coalesce globally → shed lowest-priority tenants). They used to keep
//! separate step enums; this module is the shared vocabulary, so one
//! `DegradationStep` probe event covers both and the reconciliation
//! rules are written once.
//!
//! The ladder *ordering* is policy, not vocabulary: each climber
//! walks its own rung sequence over the shared steps (the machines'
//! is [`MACHINE_LADDER`]; the arena's is the order
//! `ArenaService::climb_ladder` takes its rungs in).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// One rung of a graceful-degradation ladder a system climbs under
/// storage pressure before giving up with a typed error.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DegradationStep {
    /// The failed operation was retried after an exponential backoff.
    RetryBackoff,
    /// Adjacent free blocks were combined.
    Coalesce,
    /// Allocated blocks were slid together to consolidate free storage.
    Compact,
    /// Resident units were evicted to make room.
    EvictVictims,
    /// Every shard was compacted and the overflow steal rotation was
    /// re-driven against the consolidated holes.
    StealGlobal,
    /// The load controller shed speculative/pinned claims on storage.
    ShedLoad,
    /// A lower-priority tenant's allocations were shed to admit a
    /// higher-priority demand.
    ShedTenant,
}

impl DegradationStep {
    /// Every rung, in declaration order.
    pub const ALL: [DegradationStep; 7] = [
        DegradationStep::RetryBackoff,
        DegradationStep::Coalesce,
        DegradationStep::Compact,
        DegradationStep::EvictVictims,
        DegradationStep::StealGlobal,
        DegradationStep::ShedLoad,
        DegradationStep::ShedTenant,
    ];

    /// Stable lowercase label, used by renderers and exporters.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            DegradationStep::RetryBackoff => "retry_backoff",
            DegradationStep::Coalesce => "coalesce",
            DegradationStep::Compact => "compact",
            DegradationStep::EvictVictims => "evict_victims",
            DegradationStep::StealGlobal => "steal_global",
            DegradationStep::ShedLoad => "shed_load",
            DegradationStep::ShedTenant => "shed_tenant",
        }
    }
}

/// The machine drivers' rung order (PR 2): local consolidation first,
/// then eviction, then the scheduler's slack.
pub const MACHINE_LADDER: [DegradationStep; 4] = [
    DegradationStep::Coalesce,
    DegradationStep::Compact,
    DegradationStep::EvictVictims,
    DegradationStep::ShedLoad,
];

/// A bounded budget of shed rungs per run.
///
/// Shedding is the rung where one party's storage is surrendered for
/// another's demand; an unbounded shedder can livelock a pathological
/// workload (shed, refill, shed again). The budget bounds how many
/// times a run may fall back on it before failures are surfaced.
#[derive(Clone, Copy, Debug)]
pub struct ShedBudget {
    /// Sheds still permitted.
    remaining: u32,
    /// Sheds performed.
    sheds: u64,
}

impl ShedBudget {
    /// A budget allowing at most `max_sheds` shed rungs per run.
    #[must_use]
    pub fn new(max_sheds: u32) -> ShedBudget {
        ShedBudget {
            remaining: max_sheds,
            sheds: 0,
        }
    }

    /// Attempts to take a shed rung. Returns `true` (and counts it)
    /// while the budget lasts; after that the caller must surface the
    /// failure.
    pub fn try_shed(&mut self) -> bool {
        if self.remaining == 0 {
            return false;
        }
        self.remaining -= 1;
        self.sheds += 1;
        true
    }
}

/// [`ShedBudget`] semantics behind atomics, shared by every worker
/// thread of a concurrent service.
///
/// `try_shed` is a compare-exchange loop on the remaining budget, so
/// exactly `max_sheds` claims succeed across all threads no matter how
/// the races fall — the count of granted sheds reconciles exactly with
/// the `DegradationStep { step: ShedTenant }` events emitted, one per
/// granted claim.
#[derive(Debug)]
pub struct AtomicShedBudget {
    remaining: AtomicU32,
    sheds: AtomicU64,
}

impl AtomicShedBudget {
    /// A shared budget allowing at most `max_sheds` shed rungs.
    #[must_use]
    pub fn new(max_sheds: u32) -> AtomicShedBudget {
        AtomicShedBudget {
            remaining: AtomicU32::new(max_sheds),
            sheds: AtomicU64::new(0),
        }
    }

    /// Attempts to take a shed rung; thread-safe, never over-grants.
    pub fn try_shed(&self) -> bool {
        let mut cur = self.remaining.load(Ordering::Relaxed);
        loop {
            if cur == 0 {
                return false;
            }
            match self.remaining.compare_exchange_weak(
                cur,
                cur - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.sheds.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// Shed rungs granted so far.
    #[must_use]
    pub fn sheds(&self) -> u64 {
        self.sheds.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(DegradationStep::Coalesce.label(), "coalesce");
        assert_eq!(DegradationStep::ShedTenant.label(), "shed_tenant");
    }

    #[test]
    fn ladders_share_the_vocabulary() {
        assert!(MACHINE_LADDER.contains(&DegradationStep::ShedLoad));
    }

    #[test]
    fn shed_budget_is_bounded() {
        let mut b = ShedBudget::new(2);
        assert!(b.try_shed());
        assert!(b.try_shed());
        assert!(!b.try_shed());
        assert_eq!(b.sheds, 2);
    }

    #[test]
    fn atomic_budget_never_over_grants() {
        let b = AtomicShedBudget::new(5);
        let granted: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| (0..100).filter(|_| b.try_shed()).count()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(granted, 5);
        assert_eq!(b.sheds.load(Ordering::Relaxed), 5);
    }
}
