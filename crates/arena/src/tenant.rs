//! Tenants: who an allocation is charged *to*, and the word quotas that
//! keep one client from starving the rest.
//!
//! A shared allocation service is multi-tenant the moment two programs
//! allocate from it — the paper's multiprogramming concern, restated at
//! the service boundary. Each allocation names its tenant by a dense
//! `u32` id; `TenantTable::register` gives the id its [`Priority`] and
//! quota, and the service charges every successful allocation to that
//! entry and refunds it on release. Quota reservation is a CAS loop
//! over an atomic occupancy counter, so the accounting is *exact* at
//! any thread count: reserve happens before the storage is touched,
//! release after the storage is returned, and a failed allocation rolls
//! the reservation back — the counter can transiently over-state
//! occupancy (by in-flight requests) but never under-state it, and it
//! returns to truth at quiescence.

use std::sync::atomic::{AtomicU64, Ordering};

use dsa_core::ids::Words;

/// How much a tenant matters when the service has to pick victims.
///
/// Ordering is by importance: `Low < Normal < High`. The shed rung of
/// the degradation ladder evicts lowest-priority tenants first, and
/// admission control under overload admits only the priorities above
/// the current watermark.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Best-effort: first to be shed, first to be refused admission.
    Low,
    /// The default class.
    #[default]
    Normal,
    /// Latency-critical: admitted until the service is truly full,
    /// shed only when nothing lower remains.
    High,
}

impl Priority {
    /// Stable label for telemetry series and experiment tables.
    #[must_use]
    pub(crate) fn label(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }
}

/// One tenant's frozen accounting, from `TenantTable::occupancy`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenantOccupancy {
    /// The tenant id.
    pub tenant: u32,
    /// The tenant's shed/admission class.
    pub priority: Priority,
    /// Configured quota, in words.
    pub quota: Words,
    /// Words currently charged to the tenant.
    pub in_use: Words,
    /// Allocations shed *from* this tenant by the degradation ladder,
    /// cumulatively.
    pub shed: u64,
    /// Requests refused for this tenant by quota, cumulatively.
    pub quota_denials: u64,
}

/// One tenant's live accounting slot.
#[derive(Debug)]
struct TenantSlot {
    priority: Priority,
    quota: Words,
    in_use: AtomicU64,
    shed: AtomicU64,
    quota_denials: AtomicU64,
}

/// The per-tenant quota book: dense slots indexed by tenant id.
///
/// All counters are atomics; charging is a compare-and-swap loop so a
/// reservation either fits entirely under the quota or fails without
/// side effects — no over-grant window exists at any interleaving.
#[derive(Debug, Default)]
pub(crate) struct TenantTable {
    slots: Vec<TenantSlot>,
}

impl TenantTable {
    /// An empty table (every request fails with `UnknownTenant` until
    /// tenants are registered).
    #[must_use]
    pub(crate) fn new() -> TenantTable {
        TenantTable::default()
    }

    /// Registers tenant `id..` slots up to and including `id`, giving
    /// the new slot `quota` words at `priority`. Re-registering an id
    /// replaces its quota and priority but keeps its occupancy.
    pub(crate) fn register(&mut self, id: u32, priority: Priority, quota: Words) {
        while self.slots.len() <= id as usize {
            self.slots.push(TenantSlot {
                priority: Priority::Normal,
                quota: 0,
                in_use: AtomicU64::new(0),
                shed: AtomicU64::new(0),
                quota_denials: AtomicU64::new(0),
            });
        }
        let slot = &mut self.slots[id as usize];
        slot.priority = priority;
        slot.quota = quota;
    }

    /// Number of registered slots.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no tenant is registered.
    #[must_use]
    pub(crate) fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The registered priority of `tenant`, if known.
    #[must_use]
    pub(crate) fn priority(&self, tenant: u32) -> Option<Priority> {
        self.slots.get(tenant as usize).map(|s| s.priority)
    }

    /// Attempts to charge `words` to `tenant`. The CAS loop grants the
    /// reservation only if the whole amount fits under the quota.
    ///
    /// # Errors
    ///
    /// Returns the occupancy observed at refusal time (for the typed
    /// `QuotaExceeded` error) without modifying the counter.
    pub(crate) fn try_reserve(&self, tenant: u32, words: Words) -> Result<(), Words> {
        let Some(slot) = self.slots.get(tenant as usize) else {
            return Err(0);
        };
        let mut cur = slot.in_use.load(Ordering::Acquire);
        loop {
            if cur + words > slot.quota {
                slot.quota_denials.fetch_add(1, Ordering::Relaxed);
                return Err(cur);
            }
            match slot.in_use.compare_exchange_weak(
                cur,
                cur + words,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Ok(()),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Refunds `words` to `tenant` (release, or rollback of a
    /// reservation whose backend allocation failed).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the refund exceeds the occupancy —
    /// that would mean the books were already wrong.
    pub(crate) fn release(&self, tenant: u32, words: Words) {
        if let Some(slot) = self.slots.get(tenant as usize) {
            let prev = slot.in_use.fetch_sub(words, Ordering::AcqRel);
            debug_assert!(prev >= words, "tenant {tenant} refunded below zero");
        }
    }

    /// Unconditionally re-charges `words` to `tenant` — the rollback of
    /// a refund whose backend release failed. Unlike
    /// [`TenantTable::try_reserve`] this never refuses: the storage is
    /// demonstrably still held, so the books must say so even if that
    /// re-states an over-quota occupancy.
    pub(crate) fn recharge(&self, tenant: u32, words: Words) {
        if let Some(slot) = self.slots.get(tenant as usize) {
            slot.in_use.fetch_add(words, Ordering::AcqRel);
        }
    }

    /// Records one allocation shed from `tenant` by the degradation
    /// ladder (the occupancy itself is refunded via
    /// [`TenantTable::release`]).
    pub(crate) fn note_shed(&self, tenant: u32) {
        if let Some(slot) = self.slots.get(tenant as usize) {
            slot.shed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The configured quota of `tenant`, if registered.
    #[must_use]
    pub(crate) fn quota(&self, tenant: u32) -> Option<Words> {
        self.slots.get(tenant as usize).map(|s| s.quota)
    }

    /// Frozen per-tenant accounting, in tenant order.
    #[must_use]
    pub(crate) fn occupancy(&self) -> Vec<TenantOccupancy> {
        self.slots
            .iter()
            .enumerate()
            .map(|(id, s)| TenantOccupancy {
                tenant: id as u32,
                priority: s.priority,
                quota: s.quota,
                in_use: s.in_use.load(Ordering::Acquire),
                shed: s.shed.load(Ordering::Relaxed),
                quota_denials: s.quota_denials.load(Ordering::Relaxed),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Words currently charged to `tenant` (0 for unknown tenants).
    fn in_use(t: &TenantTable, tenant: u32) -> Words {
        t.slots
            .get(tenant as usize)
            .map_or(0, |s| s.in_use.load(Ordering::Acquire))
    }

    #[test]
    fn quota_reservation_grants_exactly_to_the_line() {
        let mut t = TenantTable::new();
        t.register(0, Priority::Normal, 100);
        assert!(t.try_reserve(0, 60).is_ok());
        assert!(t.try_reserve(0, 40).is_ok());
        assert_eq!(t.try_reserve(0, 1), Err(100));
        t.release(0, 40);
        assert!(t.try_reserve(0, 40).is_ok());
        assert_eq!(in_use(&t, 0), 100);
        let occ = t.occupancy();
        assert_eq!(occ[0].quota_denials, 1);
    }

    #[test]
    fn unknown_tenants_are_refused_without_side_effects() {
        let t = TenantTable::new();
        assert_eq!(t.try_reserve(7, 10), Err(0));
        assert_eq!(in_use(&t, 7), 0);
        assert_eq!(t.quota(7), None);
    }

    #[test]
    fn priorities_order_by_importance() {
        assert!(Priority::Low < Priority::Normal);
        assert!(Priority::Normal < Priority::High);
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn concurrent_reservations_never_over_grant() {
        let mut t = TenantTable::new();
        t.register(0, Priority::Normal, 1000);
        let granted = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let t = &t;
                let granted = &granted;
                scope.spawn(move || {
                    for _ in 0..1000 {
                        if t.try_reserve(0, 7).is_ok() {
                            granted.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        let g = granted.load(Ordering::Relaxed);
        assert_eq!(in_use(&t, 0), g * 7);
        assert!(g * 7 <= 1000, "no over-grant: {g} grants of 7 words");
        // Full refund returns the books to zero, exactly.
        for _ in 0..g {
            t.release(0, 7);
        }
        assert_eq!(in_use(&t, 0), 0);
    }
}
