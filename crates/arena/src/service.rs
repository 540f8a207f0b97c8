//! The multi-tenant front over [`ShardedArena`]: the door worker
//! threads talk to.
//!
//! The door mirrors the arena's own: [`ArenaService::alloc_probed`] and
//! [`ArenaService::free_probed`] each hold their operation's one body,
//! and [`ArenaService::alloc`] / [`ArenaService::free`] are the
//! unwatched, unfaulted forms. Every method is `&self`: any number of
//! worker threads (`std::thread::scope` in the bench driver) call it
//! concurrently on one shared service.
//!
//! On top of the arena the service is *multi-tenant and
//! overload-hardened*:
//!
//! * every allocation names its tenant by id; registered tenants carry
//!   a priority and a word quota, charged through the atomic
//!   `TenantTable` **before** storage is touched and refunded after it
//!   is returned, so the per-tenant books reconcile exactly at any
//!   thread count;
//! * an optional [`OverloadGuard`] refuses admission at the door by
//!   priority once occupancy crosses its watermarks, and walks the
//!   arena's degradation ladder (retry with backoff → coalesce
//!   the pressured shard → compact globally and re-drive the steal
//!   rotation → shed lowest-priority tenants) before a typed failure
//!   reaches the caller;
//! * a [`WorkerInjector`] passed to either door drives the same path
//!   under deterministic fault injection — forced allocation failures,
//!   channel delays, and shard corruption that is detected,
//!   quarantined and healed in place.
//!
//! Every operation is emitted into one [`SharedProbe`]. Because the
//! sink is a set of atomic counters, the totals it reports reconcile
//! *exactly* with the sum of per-worker tallies at any thread count —
//! the reconciliation guarantee the sequential probes have always
//! given, extended to concurrent traffic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use dsa_core::error::AllocError;
use dsa_core::ids::{IdMap, PhysAddr, Words};
use dsa_faults::ladder::DegradationStep;
use dsa_faults::WorkerInjector;
use dsa_freelist::freelist::Placement;
use dsa_probe::{Event, EventKind, InjectedFault, NullProbe, Probe, SharedProbe, Stamp, Tee};
use dsa_telemetry::TelemetrySnapshot;

use crate::overload::OverloadGuard;
use crate::striped::{ArenaError, ShardedArena};
use crate::telemetry::ServiceTelemetry;
use crate::tenant::{Priority, TenantOccupancy, TenantTable};

/// Stripes in the service's id registry (the map from live ids to
/// their tenant and charged words).
const REGISTRY_STRIPES: usize = 16;

/// One live allocation's service-side book entry.
#[derive(Clone, Copy, Debug)]
struct LiveRec {
    /// The tenant charged.
    tenant: u32,
    /// Words charged.
    words: Words,
    /// Whether the arena has placed the block. Until it has, the entry
    /// is its own request's, and the shed rung must not take it.
    placed: bool,
}

/// The thread-safe multi-tenant allocation front over a
/// [`ShardedArena`].
///
/// # Examples
///
/// ```
/// use dsa_arena::ArenaService;
///
/// let svc = ArenaService::striped(4, 1000);
/// svc.alloc(1, 100, 0).unwrap();
/// assert_eq!(svc.occupied(), 100);
/// svc.free(1).unwrap();
/// assert_eq!(svc.counters().allocs, 1);
/// ```
#[derive(Debug)]
pub struct ArenaService {
    arena: ShardedArena,
    telemetry: ServiceTelemetry,
    /// id -> live book entry, striped by id to keep lock spans short.
    registry: Vec<Mutex<IdMap<u64, LiveRec>>>,
    /// Per-tenant quotas and occupancy. An empty table means an
    /// untenanted service: no quota metering, no registration needed.
    tenants: TenantTable,
    /// Admission control + degradation ladder, when armed.
    guard: Option<OverloadGuard>,
    /// Service-wide charged words (advisory: feeds the admission
    /// watermarks; the exact books are the registry + tenant table).
    occupied: AtomicU64,
    /// Service-wide request sequence: the virtual-time stamp on emitted
    /// events (a total order over requests, whatever the thread count).
    clock: AtomicU64,
}

/// Captures the `Alloc` payload the arena emits, so the service can
/// attribute it to the serving shard and size class without re-deriving
/// the search length.
#[derive(Default)]
struct LastAlloc {
    searched: u64,
}

impl Probe for LastAlloc {
    fn record(&mut self, event: &Event) {
        if let EventKind::Alloc { searched, .. } = event.kind {
            self.searched = searched;
        }
    }
}

impl ArenaService {
    /// A service over `shards` first-fit stripes of `shard_capacity`
    /// words each, in a [`ShardedArena`].
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `shard_capacity` is zero.
    #[must_use]
    pub fn striped(shards: u32, shard_capacity: Words) -> ArenaService {
        ArenaService {
            arena: ShardedArena::new(shards, shard_capacity, Placement::FirstFit),
            telemetry: ServiceTelemetry::new(shards),
            registry: (0..REGISTRY_STRIPES)
                .map(|_| Mutex::new(IdMap::default()))
                .collect(),
            tenants: TenantTable::new(),
            guard: None,
            occupied: AtomicU64::new(0),
            clock: AtomicU64::new(0),
        }
    }

    /// Arms admission control and the degradation ladder, with at most
    /// `shed_budget` victim evictions before failures surface unsoftened.
    #[must_use]
    pub fn with_overload(mut self, shed_budget: u32) -> ArenaService {
        self.guard = Some(OverloadGuard::new(shed_budget));
        self
    }

    /// Registers (or re-registers) tenant `id` at `priority` with a
    /// word quota. Once any tenant is registered, *every* allocation
    /// must name a registered tenant — unknown tenants fail typed.
    pub fn register_tenant(&mut self, id: u32, priority: Priority, quota: Words) {
        self.tenants.register(id, priority, quota);
    }

    /// The admission-control guard, when armed.
    #[must_use]
    pub fn guard(&self) -> Option<&OverloadGuard> {
        self.guard.as_ref()
    }

    /// Total arena capacity, in words.
    #[must_use]
    pub(crate) fn capacity(&self) -> Words {
        self.arena.capacity()
    }

    /// Words currently charged across all tenants.
    #[must_use]
    pub fn occupied(&self) -> Words {
        self.occupied.load(Ordering::Relaxed)
    }

    /// The shared atomic event sink.
    #[must_use]
    pub fn probe(&self) -> &SharedProbe {
        self.telemetry.probe().shared()
    }

    /// The always-on telemetry: counters plus global, per-shard and
    /// per-size-class distributions.
    #[must_use]
    pub fn telemetry(&self) -> &ServiceTelemetry {
        &self.telemetry
    }

    /// A frozen copy of the counters (see [`SharedProbe::snapshot`]).
    #[must_use]
    pub fn counters(&self) -> dsa_probe::CountingProbe {
        self.telemetry.probe().counters()
    }

    /// The arena the service allocates from.
    #[must_use]
    pub fn arena(&self) -> &ShardedArena {
        &self.arena
    }

    /// Frozen per-tenant accounting, in tenant order.
    #[must_use]
    pub fn tenant_occupancy(&self) -> Vec<TenantOccupancy> {
        self.tenants.occupancy()
    }

    /// Registers the service's full telemetry surface into an exporter
    /// snapshot: the base counters and distributions, then the ordered
    /// per-tenant quota series and the per-shard quarantine flags.
    pub fn export_into(&self, snap: &mut TelemetrySnapshot) {
        self.telemetry.export_into(snap);
        for t in self.tenants.occupancy() {
            let tenant = t.tenant.to_string();
            let labels = [
                ("tenant", tenant.as_str()),
                ("priority", t.priority.label()),
            ];
            snap.gauge(
                "tenant_quota_words",
                "Configured per-tenant quota in words",
                &labels,
                t.quota as f64,
            );
            snap.gauge(
                "tenant_in_use_words",
                "Words currently charged to the tenant",
                &labels,
                t.in_use as f64,
            );
            snap.counter(
                "tenant_shed_total",
                "Allocations shed from the tenant by the degradation ladder",
                &labels,
                t.shed,
            );
            snap.counter(
                "tenant_quota_denials_total",
                "Requests refused by the tenant's quota",
                &labels,
                t.quota_denials,
            );
        }
        for s in 0..self.arena.shard_count() {
            let shard = s.to_string();
            snap.gauge(
                "shard_quarantined",
                "Whether the shard is quarantined (1) or serving (0)",
                &[("shard", &shard)],
                if self.arena.is_quarantined(s) {
                    1.0
                } else {
                    0.0
                },
            );
        }
        if let Some(guard) = &self.guard {
            snap.counter(
                "admission_rejects_total",
                "Requests refused at the door by admission control",
                &[],
                guard.admission_rejects(),
            );
            snap.counter(
                "tenant_sheds_granted_total",
                "Shed-rung grants taken from the overload budget",
                &[],
                guard.sheds(),
            );
        }
    }

    fn stripe(&self, id: u64) -> MutexGuard<'_, IdMap<u64, LiveRec>> {
        let stripe = (id % self.registry.len() as u64) as usize;
        self.registry[stripe]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Takes the request's stamp from the service clock and, under
    /// chaos, rolls the hazards that fire between requests: a
    /// channel-congestion stall (a bounded yield — simulated stall time
    /// is the injector's business, not wall time) and free-list
    /// corruption. Corruption is *immediately* detected by the shard
    /// audit and healed through the quarantine path, under live traffic
    /// from the other workers.
    fn begin<P: Probe + ?Sized>(
        &self,
        chaos: Option<&mut WorkerInjector<'_>>,
        probe: &mut P,
    ) -> Stamp {
        let at = Stamp::vtime(self.clock.fetch_add(1, Ordering::Relaxed));
        let Some(inj) = chaos else {
            return at;
        };
        let mut sink = Tee(self.telemetry.probe(), probe);
        if inj.channel_delay().is_some() {
            sink.emit(
                EventKind::FaultInjected {
                    fault: InjectedFault::ChannelDelay,
                },
                at,
            );
            std::thread::yield_now();
        }
        if inj.shard_corruption() {
            let target = inj.corruption_target(self.arena.shard_count());
            self.arena.corrupt_shard_for_chaos(target);
            sink.emit(
                EventKind::FaultInjected {
                    fault: InjectedFault::ShardCorruption,
                },
                at,
            );
            // Heal in place; on a (never-expected) rebuild failure the
            // shard stays quarantined and the service degrades around it
            // instead of serving from corrupt state. (No audit assertion
            // here: a concurrent worker healing its own corruption of the
            // same shard may have already repaired this one — the
            // rebuild below is idempotent.)
            let _ = self.arena.heal_shard(target, at, &mut sink);
        }
        at
    }

    /// Allocates `words` under `id`, charged to tenant `tenant`. See
    /// [`ArenaService::alloc_probed`].
    ///
    /// # Errors
    ///
    /// As [`ArenaService::alloc_probed`].
    pub fn alloc(&self, id: u64, words: Words, tenant: u32) -> Result<PhysAddr, ArenaError> {
        self.alloc_probed(id, words, tenant, None, &mut NullProbe)
    }

    /// [`ArenaService::alloc`] under an optional chaos injector, with
    /// `probe` teed alongside the always-on telemetry — a flight
    /// recorder for shed postmortems, a JSONL stream, a latency tracker.
    ///
    /// With `chaos`, the request rolls the worker's deterministic hazard
    /// stream: the between-request hazards first, then a forced
    /// allocation failure, which recovers through the ladder exactly as
    /// true exhaustion does.
    ///
    /// # Errors
    ///
    /// * [`ArenaError::Alloc`] for a zero-size request or a live `id`;
    /// * [`ArenaError::AdmissionDenied`], [`ArenaError::UnknownTenant`]
    ///   and [`ArenaError::QuotaExceeded`] from the door, before any
    ///   storage is touched;
    /// * [`ArenaError::Exhausted`] when nothing — the ladder included —
    ///   could place it, with every shard's real fullness (also for a
    ///   forced failure, whose `largest_free` then shows it was not
    ///   storage).
    pub fn alloc_probed<P: Probe + ?Sized>(
        &self,
        id: u64,
        words: Words,
        tenant: u32,
        mut chaos: Option<&mut WorkerInjector<'_>>,
        probe: &mut P,
    ) -> Result<PhysAddr, ArenaError> {
        let at = self.begin(chaos.as_deref_mut(), probe);
        if words == 0 {
            return Err(ArenaError::Alloc(AllocError::ZeroSize));
        }
        // The forced-failure hazard is rolled before any stateful gate
        // (admission, quota) so every allocation consumes exactly the
        // same injector rolls regardless of how concurrent books look at
        // the instant it runs — the schedule stays a pure function of
        // (seed, stream), byte-identical at any thread count.
        let forced = chaos.is_some_and(|inj| inj.alloc_failure());
        let mut sink = Tee(self.telemetry.probe(), &mut *probe);
        if forced {
            sink.emit(
                EventKind::FaultInjected {
                    fault: InjectedFault::AllocFailure,
                },
                at,
            );
        }
        let priority = self.tenants.priority(tenant).unwrap_or_default();
        // Admission: refused at the door, before any book is touched.
        if let Some(guard) = &self.guard {
            if !guard.admit(priority, self.occupied(), self.capacity()) {
                sink.emit(EventKind::AdmissionReject { tenant }, at);
                return Err(ArenaError::AdmissionDenied { tenant });
            }
        }
        // Quota: the whole charge is reserved up front (CAS, exact) and
        // rolled back if the arena cannot place the request.
        let metered = !self.tenants.is_empty();
        if metered {
            let Some(quota) = self.tenants.quota(tenant) else {
                return Err(ArenaError::UnknownTenant { tenant });
            };
            if let Err(in_use) = self.tenants.try_reserve(tenant, words) {
                sink.emit(EventKind::QuotaDenied { tenant }, at);
                return Err(ArenaError::QuotaExceeded {
                    tenant,
                    requested: words,
                    quota,
                    in_use,
                });
            }
        }
        // Book the id before the arena runs: the registry entry goes
        // live together with the quota charge, so a probe panic on the
        // success emission (which fires after the arena's mutation)
        // leaves every book already agreeing.
        {
            let mut reg = self.stripe(id);
            if reg.contains_key(&id) {
                drop(reg);
                if metered {
                    self.tenants.release(tenant, words);
                }
                return Err(ArenaError::Alloc(AllocError::AlreadyAllocated));
            }
            reg.insert(
                id,
                LiveRec {
                    tenant,
                    words,
                    placed: false,
                },
            );
        }
        // Occupancy is charged before the arena runs, mirroring the
        // quota reservation: the success emission fires *after* the
        // arena's mutation, so a probe panic there (poisoning the shard
        // lock) must find every book — registry, quota, occupancy, and
        // the arena itself — already agreeing. Like the quota, the
        // counter transiently over-states during flight and is rolled
        // back on a failed placement.
        self.occupied.fetch_add(words, Ordering::Relaxed);
        match self.place(id, words, priority, forced, at, probe) {
            Ok(addr) => {
                if let Some(rec) = self.stripe(id).get_mut(&id) {
                    rec.placed = true;
                }
                Ok(addr)
            }
            Err(e) => {
                self.occupied.fetch_sub(words, Ordering::Relaxed);
                self.stripe(id).remove(&id);
                if metered {
                    self.tenants.release(tenant, words);
                }
                Err(e)
            }
        }
    }

    /// Places a booked request: the arena's own rotation, then — on
    /// exhaustion, real or forced, with a guard armed — the ladder.
    fn place<P: Probe + ?Sized>(
        &self,
        id: u64,
        words: Words,
        priority: Priority,
        forced_failure: bool,
        at: Stamp,
        probe: &mut P,
    ) -> Result<PhysAddr, ArenaError> {
        let mut last = LastAlloc::default();
        let mut sink = Tee(Tee(self.telemetry.probe(), probe), &mut last);
        let first = if forced_failure {
            // The injector refused this placement outright; recovery
            // starts at the ladder exactly as for true exhaustion.
            Err(self.arena.exhausted(words))
        } else {
            self.arena.alloc_probed(id, words, at, &mut sink)
        };
        let addr = match (first, &self.guard) {
            (Err(ArenaError::Exhausted { .. }), Some(guard)) => {
                self.climb_ladder(guard, id, words, priority, at, &mut sink)
            }
            (placed, _) => placed,
        }?;
        let shard = (addr.value() / self.arena.shard_capacity()) as u32;
        self.telemetry.record_alloc(shard, words, last.searched);
        Ok(addr)
    }

    /// The arena's degradation ladder on a placement failure, rung by
    /// rung — retry with backoff, coalesce the pressured shard, steal
    /// globally, shed a tenant — re-driving the allocation after each.
    /// Every rung emits its [`DegradationStep`]; every shed emits
    /// `TenantShed`, one for one with the budget grants.
    fn climb_ladder<P: Probe + ?Sized>(
        &self,
        guard: &OverloadGuard,
        id: u64,
        words: Words,
        priority: Priority,
        at: Stamp,
        probe: &mut P,
    ) -> Result<PhysAddr, ArenaError> {
        let arena = &self.arena;
        // Rung 1: retry after backoff — under concurrency another
        // worker's free may have opened a hole.
        probe.emit(
            EventKind::DegradationStep {
                step: DegradationStep::RetryBackoff,
            },
            at,
        );
        std::thread::yield_now();
        let mut outcome = arena.alloc_probed(id, words, at, probe);
        if !matches!(outcome, Err(ArenaError::Exhausted { .. })) {
            return outcome;
        }
        // Rung 2: coalesce the pressured home shard into one hole.
        probe.emit(
            EventKind::DegradationStep {
                step: DegradationStep::Coalesce,
            },
            at,
        );
        arena.compact_shard(arena.home_shard(id), at, probe);
        outcome = arena.alloc_probed(id, words, at, probe);
        if !matches!(outcome, Err(ArenaError::Exhausted { .. })) {
            return outcome;
        }
        // Rung 3: compact every serving shard, then re-drive the full
        // steal rotation against the consolidated holes.
        probe.emit(
            EventKind::DegradationStep {
                step: DegradationStep::StealGlobal,
            },
            at,
        );
        for s in 0..arena.shard_count() {
            if !arena.is_quarantined(s) {
                arena.compact_shard(s, at, probe);
            }
        }
        outcome = arena.alloc_probed(id, words, at, probe);
        if !matches!(outcome, Err(ArenaError::Exhausted { .. })) {
            return outcome;
        }
        // Rung 4: shed lowest-priority tenants, budget permitting, and
        // re-drive once enough words have been surrendered.
        loop {
            let mut freed = 0;
            while freed < words {
                let Some(victim) = self.pick_victim(priority) else {
                    return outcome;
                };
                let Some(shed) = self.shed_block(guard, victim, at, probe) else {
                    return outcome;
                };
                freed += shed;
            }
            outcome = arena.alloc_probed(id, words, at, probe);
            if !matches!(outcome, Err(ArenaError::Exhausted { .. })) {
                return outcome;
            }
        }
    }

    /// The lowest-id placed block of the lowest-priority tenant strictly
    /// below `priority` that still holds storage. Deterministic given
    /// the live set: priorities resolve first, ids tie-break ascending.
    fn pick_victim(&self, priority: Priority) -> Option<u64> {
        let victim_priority = self
            .tenants
            .occupancy()
            .into_iter()
            .filter(|t| t.in_use > 0 && t.priority < priority)
            .map(|t| t.priority)
            .min()?;
        let mut best: Option<u64> = None;
        for stripe in &self.registry {
            let reg = stripe
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for (&rid, rec) in reg.iter() {
                if rec.placed
                    && self.tenants.priority(rec.tenant) == Some(victim_priority)
                    && best.is_none_or(|b| rid < b)
                {
                    best = Some(rid);
                }
            }
        }
        best
    }

    /// Evicts one victim block through the normal free path and returns
    /// the words it surrendered: `Some(0)` when the owner's own free
    /// removed the entry first, `None` once the shed budget is spent.
    /// The registry removal decides the race against a concurrent
    /// client free, and the budget is claimed under the same stripe lock
    /// only once the entry is seen live, so grants, removals and the
    /// shed events stay one for one whoever wins.
    fn shed_block<P: Probe + ?Sized>(
        &self,
        guard: &OverloadGuard,
        id: u64,
        at: Stamp,
        probe: &mut P,
    ) -> Option<Words> {
        let rec = {
            let mut reg = self.stripe(id);
            if !reg.get(&id).is_some_and(|rec| rec.placed) {
                return Some(0);
            }
            if !guard.try_shed() {
                return None;
            }
            reg.remove(&id)?
        };
        self.tenants.release(rec.tenant, rec.words);
        self.occupied.fetch_sub(rec.words, Ordering::Relaxed);
        // Winning the registry removal means the block is live in the
        // arena; a failure here would already be a book tear, which
        // `check_reconciliation` would surface.
        let _ = self.arena.free_probed(id, at, probe);
        self.tenants.note_shed(rec.tenant);
        probe.emit(
            EventKind::DegradationStep {
                step: DegradationStep::ShedTenant,
            },
            at,
        );
        probe.emit(
            EventKind::TenantShed {
                tenant: rec.tenant,
                words: rec.words,
            },
            at,
        );
        Some(rec.words)
    }

    /// Releases the allocation `id`. See [`ArenaService::free_probed`].
    ///
    /// # Errors
    ///
    /// As [`ArenaService::free_probed`].
    pub fn free(&self, id: u64) -> Result<(), ArenaError> {
        self.free_probed(id, None, &mut NullProbe)
    }

    /// [`ArenaService::free`] under an optional chaos injector (which
    /// rolls the between-request hazards), with `probe` teed alongside
    /// the always-on telemetry.
    ///
    /// # Errors
    ///
    /// [`ArenaError::Alloc`] carrying [`AllocError::UnknownUnit`] if
    /// `id` is not live — never allocated, already freed, or shed by the
    /// ladder.
    pub fn free_probed<P: Probe + ?Sized>(
        &self,
        id: u64,
        chaos: Option<&mut WorkerInjector<'_>>,
        probe: &mut P,
    ) -> Result<(), ArenaError> {
        let at = self.begin(chaos, probe);
        let Some(rec) = self.stripe(id).remove(&id) else {
            return Err(ArenaError::Alloc(AllocError::UnknownUnit));
        };
        // Refund *before* the arena's release: the arena's probe
        // emission fires after its mutation, so a panicking probe leaves
        // the charge refunded and the storage returned — exact. The
        // transient under-statement admits at most one in-flight request
        // early, which the quota CAS then settles.
        if !self.tenants.is_empty() {
            self.tenants.release(rec.tenant, rec.words);
        }
        self.occupied.fetch_sub(rec.words, Ordering::Relaxed);
        let mut sink = Tee(self.telemetry.probe(), probe);
        if let Err(e) = self.arena.free_probed(id, at, &mut sink) {
            // The storage is demonstrably still held: roll the books
            // forward again so they keep telling the truth.
            if !self.tenants.is_empty() {
                self.tenants.recharge(rec.tenant, rec.words);
            }
            self.occupied.fetch_add(rec.words, Ordering::Relaxed);
            self.stripe(id).insert(id, rec);
            return Err(e);
        }
        Ok(())
    }

    /// Verifies the service-level books against the arena from a
    /// quiescent state: every registry entry is charged, the tenant
    /// occupancies sum to exactly the charged words, and the arena's own
    /// invariants hold.
    ///
    /// # Panics
    ///
    /// Panics if any book disagrees with the storage.
    pub fn check_reconciliation(&self) {
        let mut by_tenant: Vec<Words> = vec![0; self.tenants.len()];
        let mut charged = 0u64;
        for stripe in &self.registry {
            let reg = stripe
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for rec in reg.values() {
                // An untenanted service books whatever id it was given.
                if let Some(sum) = by_tenant.get_mut(rec.tenant as usize) {
                    *sum += rec.words;
                }
                charged += rec.words;
            }
        }
        assert_eq!(self.occupied(), charged, "occupied counter out of step");
        for (t, &sum) in self.tenants.occupancy().iter().zip(&by_tenant) {
            assert_eq!(t.in_use, sum, "tenant {} occupancy out of step", t.tenant);
        }
        self.arena.check_invariants();
        assert_eq!(
            self.arena.snapshot().allocated_words(),
            charged,
            "arena words out of step with the registry"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_reconciles() {
        let svc = ArenaService::striped(4, 1000);
        for id in 0..10 {
            assert!(svc.alloc(id, 50, 0).is_ok());
        }
        for id in 0..5 {
            assert_eq!(svc.free(id), Ok(()));
        }
        let c = svc.counters();
        assert_eq!(c.allocs, 10);
        assert_eq!(c.alloc_words, 500);
        assert_eq!(c.frees, 5);
        assert_eq!(c.freed_words, 250);
        assert_eq!(svc.arena().snapshot().allocated_words(), 250);
        svc.check_reconciliation();
    }

    #[test]
    fn quick_lists_reconcile_and_drain_to_zero() {
        let svc = ArenaService::striped(4, 4096);
        svc.arena().enable_quick_lists(64, 16);
        // Churn small blocks so frees park on the quick lists, then
        // re-allocate through them; charged words must track arena
        // words at every quiescent point.
        for round in 0..8u64 {
            for i in 0..32 {
                assert!(svc.alloc(round * 32 + i, 8 + (i % 4) * 8, 0).is_ok());
            }
            svc.check_reconciliation();
            for i in 0..32 {
                assert_eq!(svc.free(round * 32 + i), Ok(()));
            }
            svc.check_reconciliation();
        }
        // Parked blocks are free words: a fully-drained service shows
        // zero allocated even with blocks still on the quick lists.
        assert_eq!(svc.arena().snapshot().allocated_words(), 0);
        svc.arena().check_invariants();
    }

    #[test]
    fn duplicate_and_unknown_ids_fail_typed() {
        let svc = ArenaService::striped(2, 64);
        assert!(svc.alloc(7, 8, 0).is_ok());
        assert_eq!(
            svc.alloc(7, 8, 0),
            Err(ArenaError::Alloc(AllocError::AlreadyAllocated))
        );
        assert_eq!(
            svc.alloc(8, 0, 0),
            Err(ArenaError::Alloc(AllocError::ZeroSize))
        );
        assert_eq!(svc.free(9), Err(ArenaError::Alloc(AllocError::UnknownUnit)));
        svc.check_reconciliation();
    }

    #[test]
    fn quotas_meter_each_tenant_exactly() {
        let mut svc = ArenaService::striped(2, 1000);
        svc.register_tenant(0, Priority::Normal, 100);
        svc.register_tenant(1, Priority::Normal, 500);
        assert!(svc.alloc(1, 80, 0).is_ok());
        assert_eq!(
            svc.alloc(2, 80, 0),
            Err(ArenaError::QuotaExceeded {
                tenant: 0,
                requested: 80,
                quota: 100,
                in_use: 80
            }),
            "over tenant 0's quota"
        );
        assert!(svc.alloc(3, 400, 1).is_ok());
        assert_eq!(
            svc.alloc(4, 10, 7),
            Err(ArenaError::UnknownTenant { tenant: 7 })
        );
        let in_use = |svc: &ArenaService| -> Vec<Words> {
            svc.tenant_occupancy().iter().map(|t| t.in_use).collect()
        };
        assert_eq!(in_use(&svc), [80, 400]);
        assert_eq!(svc.counters().quota_denials, 1);
        assert_eq!(svc.free(1), Ok(()));
        assert_eq!(svc.free(3), Ok(()));
        assert_eq!(in_use(&svc), [0, 0]);
        svc.check_reconciliation();
    }

    #[test]
    fn admission_gates_by_priority_under_pressure() {
        let mut svc = ArenaService::striped(1, 1000).with_overload(64);
        svc.register_tenant(0, Priority::Low, 1000);
        svc.register_tenant(1, Priority::High, 1000);
        // Fill to 90%: past the low watermark, below the high one.
        assert!(svc.alloc(1, 900, 1).is_ok());
        assert_eq!(
            svc.alloc(2, 10, 0),
            Err(ArenaError::AdmissionDenied { tenant: 0 })
        );
        assert!(svc.alloc(3, 10, 1).is_ok());
        assert_eq!(svc.guard().map(OverloadGuard::admission_rejects), Some(1));
        assert_eq!(svc.counters().admission_rejects, 1);
        svc.check_reconciliation();
    }

    /// Records the ladder rungs a request walked, in order.
    #[derive(Default)]
    struct Rungs(Vec<DegradationStep>);

    impl Probe for Rungs {
        fn record(&mut self, event: &Event) {
            if let EventKind::DegradationStep { step } = event.kind {
                if self.0.last() != Some(&step) {
                    self.0.push(step);
                }
            }
        }
    }

    #[test]
    fn the_ladder_sheds_low_priority_tenants_for_high() {
        // The low tenant stays under the low watermark and the high one
        // clears every watermark: this test exercises the shed rung, not
        // the door.
        let mut svc = ArenaService::striped(1, 100).with_overload(64);
        svc.register_tenant(0, Priority::Low, 100);
        svc.register_tenant(1, Priority::High, 100);
        // The low tenant fills the storage.
        assert!(svc.alloc(1, 40, 0).is_ok());
        assert!(svc.alloc(2, 40, 0).is_ok());
        // The high tenant's demand does not fit — the ladder retries,
        // coalesces, compacts, then sheds tenant 0's blocks.
        let mut rungs = Rungs::default();
        let served = svc.alloc_probed(3, 60, 1, None, &mut rungs);
        assert!(served.is_ok(), "{served:?}");
        let order = [
            DegradationStep::RetryBackoff,
            DegradationStep::Coalesce,
            DegradationStep::StealGlobal,
            DegradationStep::ShedTenant,
        ];
        assert_eq!(rungs.0, order, "rungs in order");
        let c = svc.counters();
        assert!(c.tenants_shed >= 1, "at least one block shed");
        assert_eq!(Some(c.tenants_shed), svc.guard().map(OverloadGuard::sheds));
        let occupancy = svc.tenant_occupancy();
        assert_eq!(occupancy[0].shed, c.tenants_shed);
        assert_eq!(occupancy[1].in_use, 60);
        // A shed block is gone to its owner too.
        assert_eq!(svc.free(1), Err(ArenaError::Alloc(AllocError::UnknownUnit)));
        svc.check_reconciliation();
    }

    /// The bug a forced failure used to hide: without a guard to absorb
    /// it, the caller saw `Exhausted` with no shards at all ("all 0
    /// shards exhausted ... largest free extent anywhere 0") while every
    /// word was free. It now carries the arena's real fullness, so
    /// `largest_free >= requested` shows the failure was not storage.
    #[test]
    fn a_forced_failure_reports_the_arenas_real_fullness() {
        use dsa_faults::{FaultConfig, SyncFaultInjector};
        let svc = ArenaService::striped(4, 1000);
        let inj = SyncFaultInjector::new(
            1,
            FaultConfig {
                alloc_fail_rate: 1.0,
                ..FaultConfig::default()
            },
        );
        let mut worker = inj.worker(0);
        match svc.alloc_probed(1, 10, 0, Some(&mut worker), &mut NullProbe) {
            Err(ArenaError::Exhausted {
                requested: 10,
                per_shard,
            }) => {
                assert_eq!(per_shard.len(), 4);
                assert!(per_shard
                    .iter()
                    .all(|s| s.largest_free == 1000 && s.free_words == 1000));
            }
            other => panic!("expected a forced Exhausted, got {other:?}"),
        }
        assert_eq!(inj.report().forced_alloc_failures, 1);
        assert_eq!(svc.occupied(), 0, "the refused request left no charge");
        svc.check_reconciliation();
    }

    #[test]
    fn concurrent_requests_reconcile_exactly() {
        let svc = ArenaService::striped(4, 4096);
        let threads = 8u64;
        let per_thread = 500u64;
        let oks: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|scope| {
            for t in 0..threads {
                let svc = &svc;
                let oks = &oks;
                scope.spawn(move || {
                    let mut ok = 0u64;
                    for i in 0..per_thread {
                        let id = (t << 32) | i;
                        ok += u64::from(svc.alloc(id, 16, 0).is_ok());
                        ok += u64::from(svc.free(id).is_ok());
                    }
                    oks[t as usize].store(ok, Ordering::Relaxed);
                });
            }
        });
        let total_ok: u64 = oks.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        let c = svc.counters();
        // Every successful answer is counted exactly once in the shared
        // sink, whatever the interleaving.
        assert_eq!(c.allocs + c.frees, total_ok);
        assert_eq!(c.allocs, c.frees);
        assert_eq!(svc.arena().snapshot().allocated_words(), 0);
        svc.check_reconciliation();
    }

    #[test]
    fn tenant_books_reconcile_under_multithreaded_churn() {
        let mut svc = ArenaService::striped(4, 8192);
        for t in 0..4 {
            svc.register_tenant(t, Priority::Normal, 4096);
        }
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let svc = &svc;
                scope.spawn(move || {
                    for i in 0..400u64 {
                        let id = (u64::from(t) << 32) | i;
                        let _ = svc.alloc(id, 1 + (i % 32), t);
                        let _ = svc.free(id);
                    }
                });
            }
        });
        for t in svc.tenant_occupancy() {
            assert_eq!(t.in_use, 0, "tenant {} books settle to zero", t.tenant);
        }
        assert_eq!(svc.occupied(), 0);
        svc.check_reconciliation();
    }

    /// The race the registry exists to decide: the shed rung and the
    /// owner's own free both try to remove one entry. A low-priority
    /// tenant churns on one thread while a high-priority one, whose
    /// demand never fits beside it, keeps forcing the shed rung on
    /// another. Whoever wins each race, every block the low tenant was
    /// given is answered once — freed, or `UnknownUnit` because it was
    /// shed — and grants, sheds and events stay one for one.
    #[test]
    fn shed_and_owner_free_race_for_one_entry_and_the_books_hold() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;
        const HIGH: u64 = 1 << 40;
        // Past the watermarks the door refuses the low tenant, and its
        // alloc just fails: only granted blocks are counted.
        let mut svc = ArenaService::striped(1, 512).with_overload(u32::MAX);
        svc.register_tenant(0, Priority::Low, 512);
        svc.register_tenant(1, Priority::High, 512);
        let start = Barrier::new(2);
        let done = AtomicBool::new(false);
        let (allocs, freed, unknown) = std::thread::scope(|scope| {
            let low = scope.spawn(|| {
                let (mut allocs, mut freed, mut unknown) = (0u64, 0u64, 0u64);
                let mut free = |id| match svc.free(id) {
                    Ok(()) => freed += 1,
                    Err(ArenaError::Alloc(AllocError::UnknownUnit)) => unknown += 1,
                    Err(e) => panic!("low free of {id}: {e}"),
                };
                // Up to eight blocks of 48 live, oldest freed first: the
                // entry the shed rung picks (lowest id) is the one this
                // thread frees next.
                let mut live = std::collections::VecDeque::new();
                start.wait();
                let mut id = 0u64;
                while !done.load(Ordering::Acquire) {
                    if live.len() == 8 {
                        free(live.pop_front().unwrap_or_default());
                    }
                    if svc.alloc(id, 48, 0).is_ok() {
                        allocs += 1;
                        live.push_back(id);
                    }
                    id += 1;
                }
                live.into_iter().for_each(&mut free);
                (allocs, freed, unknown)
            });
            start.wait();
            for i in 0..1_000_000 {
                if svc.guard().map_or(0, OverloadGuard::sheds) >= 500 {
                    break;
                }
                if svc.alloc(HIGH | i, 256, 1).is_ok() {
                    assert_eq!(svc.free(HIGH | i), Ok(()));
                }
                std::thread::yield_now();
            }
            done.store(true, Ordering::Release);
            low.join().unwrap_or_else(|e| std::panic::resume_unwind(e))
        });
        let sheds = svc.guard().map_or(0, OverloadGuard::sheds);
        assert!(sheds > 0, "the shed rung must actually run");
        let occupancy = svc.tenant_occupancy();
        assert_eq!(freed + unknown, allocs, "every low block answered once");
        assert_eq!(
            unknown, occupancy[0].shed,
            "UnknownUnit only for shed blocks"
        );
        assert_eq!(sheds, svc.counters().tenants_shed, "one event per grant");
        svc.check_reconciliation();
        assert!(occupancy.iter().all(|t| t.in_use == 0), "{occupancy:?}");
    }

    /// A probe that panics the first time it sees its trigger event —
    /// the *real* panic-while-holding-lock: the freelist emits
    /// `Alloc`/`Free` after its mutation, inside the shard mutex, so
    /// the unwind poisons the lock mid-operation.
    struct PanicOn {
        armed: bool,
        trigger: fn(&EventKind) -> bool,
    }

    impl Probe for PanicOn {
        fn record(&mut self, event: &Event) {
            if self.armed && (self.trigger)(&event.kind) {
                self.armed = false;
                panic!("probe panic injected for the poison ride-out test");
            }
        }
    }

    #[test]
    fn probe_panic_mid_alloc_poisons_the_lock_but_not_the_books() {
        let mut svc = ArenaService::striped(2, 512);
        svc.register_tenant(0, Priority::Normal, 1024);
        assert!(svc.alloc(1, 40, 0).is_ok());
        // Panic on the success emission of the next alloc: the freelist
        // has already placed the block when the probe fires, and every
        // book — registry, quota, occupancy — was settled before it.
        let torn = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let mut probe = PanicOn {
                        armed: true,
                        trigger: |k| matches!(k, EventKind::Alloc { .. }),
                    };
                    let _ = svc.alloc_probed(2, 48, 0, None, &mut probe);
                })
                .join()
        });
        assert!(torn.is_err(), "the probe must actually panic");
        svc.check_reconciliation();
        assert_eq!(svc.occupied(), 40 + 48, "the torn alloc is fully booked");
        // The poisoned shard mutex is ridden out via PoisonError::
        // into_inner: traffic continues, and the torn id is live — it
        // frees like any other block.
        assert_eq!(svc.free(2), Ok(()));
        assert_eq!(svc.free(1), Ok(()));
        assert_eq!(svc.occupied(), 0);
        svc.check_reconciliation();
    }

    #[test]
    fn probe_panic_mid_free_leaves_the_books_reconciled() {
        let mut svc = ArenaService::striped(2, 512);
        svc.register_tenant(0, Priority::Normal, 1024);
        assert!(svc.alloc(1, 40, 0).is_ok());
        assert!(svc.alloc(2, 48, 0).is_ok());
        // The free path settles registry, quota, and occupancy before
        // the arena mutates, and the arena emits only after its own
        // mutation — so the panic tears nothing.
        let torn = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let mut probe = PanicOn {
                        armed: true,
                        trigger: |k| matches!(k, EventKind::Free { .. }),
                    };
                    let _ = svc.free_probed(2, None, &mut probe);
                })
                .join()
        });
        assert!(torn.is_err(), "the probe must actually panic");
        svc.check_reconciliation();
        assert_eq!(svc.occupied(), 40, "the torn free completed");
        // The torn id is really gone — a second free reports it unknown.
        assert!(svc.free(2).is_err());
        assert_eq!(svc.free(1), Ok(()));
        assert_eq!(svc.occupied(), 0);
        svc.check_reconciliation();
    }

    /// Chaos at 1, 2, and 8 worker threads: forced failures, delays and
    /// shard corruption healed under live traffic, with conservation
    /// and the per-tenant books intact at every width.
    #[test]
    fn chaos_churn_conserves_storage_at_any_thread_count() {
        use dsa_faults::{FaultConfig, SyncFaultInjector};
        for &threads in &[1usize, 2, 8] {
            let mut svc = ArenaService::striped(4, 2048).with_overload(64);
            for t in 0..threads as u32 {
                svc.register_tenant(t, Priority::Normal, 2048);
            }
            let inj = SyncFaultInjector::new(
                0xC4A05,
                FaultConfig {
                    alloc_fail_rate: 0.02,
                    channel_delay_rate: 0.01,
                    channel_delay: dsa_core::clock::Cycles::from_micros(5),
                    shard_corruption_rate: 0.01,
                    ..FaultConfig::default()
                },
            );
            std::thread::scope(|scope| {
                for w in 0..threads {
                    let svc = &svc;
                    let inj = &inj;
                    scope.spawn(move || {
                        let mut worker = inj.worker(w as u64);
                        for i in 0..600u64 {
                            let id = ((w as u64) << 32) | i;
                            let words = 1 + (i % 48);
                            let chaos = Some(&mut worker);
                            let _ = svc.alloc_probed(id, words, w as u32, chaos, &mut NullProbe);
                            let _ = svc.free_probed(id, Some(&mut worker), &mut NullProbe);
                        }
                    });
                }
            });
            svc.check_reconciliation();
            assert_eq!(
                svc.arena().quarantined_count(),
                0,
                "{threads} threads: every corruption healed and readmitted"
            );
            assert_eq!(svc.occupied(), 0, "{threads} threads: drained to zero");
            let report = inj.report();
            assert!(
                report.shard_corruptions > 0,
                "{threads} threads: the corruption path must actually run"
            );
            assert!(
                report.forced_alloc_failures > 0,
                "{threads} threads: forced failures must actually fire"
            );
        }
    }
}
