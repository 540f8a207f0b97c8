//! The multiprogramming simulator.
//!
//! [`EventSim`] models the paper's one multiprogramming setting —
//! round-robin quanta, demand faults that re-execute the faulting
//! reference, fetches overlapped with other programs' execution, finite
//! transfer channels that queue — organized around an event queue keyed
//! by virtual time:
//!
//! * blocked time is never stepped through: a fault schedules one
//!   `FetchDone` event at its completion instant (queueing delay
//!   included), and an idle processor jumps the clock straight to the
//!   next event;
//! * the queue is a FIFO, not a heap: with one fetch time per run and
//!   a clock and channel slots that only move forward, every wake is at
//!   or after the one before it and joins the back (`wake::WakeQueue`);
//! * per-tenant state is compact ([`crate::tenant::TenantSpec`] recipes
//!   and stream cursors instead of materialized traces,
//!   [`dsa_paging::compact::CompactLru`] summaries instead of the full
//!   engine), so a 100k-tenant population is tens of megabytes, not
//!   gigabytes;
//! * every probe emission is stamped through one `crate::vclock::VClock`
//!   — fetch-channel queueing and degradation-ladder interventions
//!   read the same clock the event queue is keyed by, so
//!   `TelemetryProbe` percentiles reconcile with the queue's chronology
//!   by construction;
//! * the space-time product of Figure 3 is integrated where a tenant
//!   changes phase (dispatch, fault, wake, quantum end, finish), never
//!   per reference.
//!
//! On top sits the load-control layer of [`crate::admission`]: working-set
//! admission gates activation, per-tenant allotments are picked online
//! from one truncated LRU-stack pass over a trace sample, and a
//! thrashing tenant is walked down PR 2's degradation ladder
//! (coalesce → compact → evict-victims → shed-load), the final rung
//! being deactivation — the swap-out that converts a thrashing
//! population into one that runs in shifts.
//!
//! Tenants page in private allotments ([`EventSim::new`]) or steal from
//! each other in one global-LRU pool ([`EventSim::with_shared_pool`]).
//! A per-reference stepper of the same machine survives as the test
//! oracle (`tests/common/stepper.rs`); `tests/properties_sched.rs` pins
//! the two report-identical across every registry replacement policy
//! and channel configuration through [`EventSim::with_full_memory`].

use std::cmp::Reverse;
use std::collections::VecDeque;

use dsa_core::clock::{Cycles, VirtualTime};
use dsa_core::error::CoreError;
use dsa_core::ids::{PageNo, Words};
use dsa_faults::ladder::{DegradationStep, ShedBudget, MACHINE_LADDER};
use dsa_metrics::spacetime::{Phase, SpaceTimeReport};
use dsa_paging::compact::CompactLru;
use dsa_paging::paged::{PagedMemory, TouchOutcome};
use dsa_paging::replacement::lru::LruRepl;
use dsa_paging::replacement::Replacer;
use dsa_probe::{EventKind, Probe, Stamp};

use crate::admission::{
    estimate_ws, pick_allotment, AdmissionPolicy, LoadControlCfg, SHED_BUDGET, TARGET_FAULT_RATE,
    THRASH_FAULT_RATE,
};
use crate::sim::SimConfig;
use crate::tenant::{TenantSpec, TraceState};
use crate::vclock::VClock;
use crate::wake::WakeQueue;

/// A tenant's private resident-set representation.
enum Memory {
    /// Not yet activated, already finished (state released), or paging
    /// in the shared pool.
    Idle,
    /// The compact LRU summary — the population-scale default.
    Compact(CompactLru),
    /// The full paging engine under an arbitrary replacement policy —
    /// parity mode ([`EventSim::with_full_memory`]).
    Full(Box<PagedMemory>),
}

impl Memory {
    /// References `page` at reference time `vt`; `Ok(true)` on a fault.
    fn touch(&mut self, page: PageNo, vt: VirtualTime) -> Result<bool, CoreError> {
        match self {
            Memory::Idle => Ok(true),
            Memory::Compact(m) => Ok(m.touch(page)),
            Memory::Full(m) => Ok(m.touch(page, false, vt)?.is_fault()),
        }
    }

    fn resident_count(&self) -> usize {
        match self {
            Memory::Idle => 0,
            Memory::Compact(m) => m.resident_count(),
            Memory::Full(m) => m.resident_count(),
        }
    }
}

/// Tenant-namespaced page numbers in the shared pool: the tenant's
/// index above, the low 40 bits of its own page number beneath.
const TENANT_SHIFT: u32 = 40;

/// The one pool every tenant pages against in shared-pool mode, under
/// global LRU: tenants steal each other's frames.
struct SharedPool {
    memory: PagedMemory,
    /// References made to the pool — the recency clock of its LRU.
    touches: VirtualTime,
    /// Pages each tenant holds in the pool, by tenant index.
    resident: Vec<u32>,
}

impl SharedPool {
    /// References `page` of tenant `tenant`; `Ok(true)` on a fault.
    fn touch(&mut self, tenant: u32, page: PageNo) -> Result<bool, CoreError> {
        self.touches += 1;
        let own = page.0 & ((1 << TENANT_SHIFT) - 1);
        let global = PageNo((u64::from(tenant) << TENANT_SHIFT) | own);
        let TouchOutcome::Fault { evicted, .. } = self.memory.touch(global, false, self.touches)?
        else {
            return Ok(false);
        };
        if let Some(victim) = evicted {
            self.resident[(victim.page.0 >> TENANT_SHIFT) as usize] -= 1;
        }
        self.resident[tenant as usize] += 1;
        Ok(true)
    }
}

/// The population's space-time product, split by phase. A tenant's
/// occupancy moves only where its phase does (a fault both loads the
/// page and blocks the tenant), so charging each interval as it closes
/// integrates Figure 3 exactly with no per-reference work. In the
/// shared pool other tenants' faults move a tenant's occupancy too;
/// there an interval is charged at the occupancy it opened with, and
/// occupancy is read afresh at the tenant's own dispatches and faults.
struct SpaceTime {
    page_size: Words,
    total: SpaceTimeReport,
    /// Each tenant's open interval, by tenant index — apart from the
    /// tenant's bulkier state, so a wake touches only this.
    open: Vec<Interval>,
}

/// When an interval began, the pages held through it, and the phase it
/// is charged to. A tenant outside storage (backlogged, swapped out,
/// finished) holds none.
#[derive(Clone, Copy)]
struct Interval {
    since: Cycles,
    pages: u32,
    phase: Phase,
}

impl SpaceTime {
    /// Charges `tenant`'s interval since its last phase change at the
    /// phase and occupancy it held, and opens one in `phase` holding
    /// `pages`.
    fn enter(&mut self, tenant: usize, phase: Phase, pages: usize, now: Cycles) {
        let open = &mut self.open[tenant];
        let words = u64::from(open.pages) * self.page_size;
        let word_nanos = u128::from((now - open.since).as_nanos()) * u128::from(words);
        match open.phase {
            Phase::Active => self.total.active_word_nanos += word_nanos,
            Phase::AwaitingFetch => self.total.waiting_word_nanos += word_nanos,
            Phase::ReadyIdle => self.total.ready_idle_word_nanos += word_nanos,
        }
        let pages = u32::try_from(pages).unwrap_or(u32::MAX);
        *open = Interval {
            since: now,
            pages,
            phase,
        };
    }

    /// Fetch completions: `woken` stop waiting at `now`, when the
    /// processor looks, not when their pages landed. A wake moves no
    /// pages.
    fn wake<'a>(&mut self, woken: impl Iterator<Item = &'a u32>, now: Cycles) {
        for &w in woken {
            let pages = self.open[w as usize].pages as usize;
            self.enter(w as usize, Phase::ReadyIdle, pages, now);
        }
    }
}

/// Live state of one tenant: a few hundred bytes, streams included.
struct TenantState {
    id: u32,
    quota: u32,
    priority: u8,
    /// The reference string: recipe, then cursor, then released.
    trace: TraceState,
    /// A faulted reference awaiting re-execution after its fetch.
    pending: Option<PageNo>,
    memory: Memory,
    /// Parity-mode replacement policy; taken at first activation.
    replacer: Option<Box<dyn Replacer>>,
    len: u64,
    executed: u64,
    faults: u64,
    finished_at: Option<Cycles>,
    /// Working-set estimate (pages): the caller's measurement if the
    /// spec carried one, else cached from the admission sample.
    est_ws: Option<u32>,
    /// The allotment working-set admission grants, fixed with `est_ws`.
    allot_base: u32,
    /// The current allotment (the ladder may have shrunk it).
    allot: u32,
    rejected_once: bool,
    ladder_pos: u8,
    recent_refs: u32,
    recent_faults: u32,
}

/// Per-tenant results.
#[derive(Clone, Copy, Debug)]
pub struct TenantReport {
    /// The tenant.
    pub id: u32,
    /// References executed.
    pub references: u64,
    /// Demand faults taken.
    pub faults: u64,
    /// Completion time.
    pub finished_at: Cycles,
}

/// Whole-run results.
#[derive(Clone, Debug)]
pub struct EventReport {
    /// Per-tenant reports, in tenant order.
    pub tenants: Vec<TenantReport>,
    /// Total time the processor executed references.
    pub cpu_busy: Cycles,
    /// Time the last tenant finished.
    pub makespan: Cycles,
    /// References executed across the population.
    pub references: u64,
    /// Demand faults across the population.
    pub faults: u64,
    /// Peak number of concurrently active tenants.
    pub peak_active: usize,
    /// Activations (re-admissions after swap-out included).
    pub admissions: u64,
    /// Tenants the working-set gate deferred at least once.
    pub admission_rejects: u64,
    /// Swap-outs taken by the degradation ladder's shed-load rung.
    pub deactivations: u64,
    /// Degradation-ladder rungs climbed in total.
    pub ladder_steps: u64,
    /// Mean working-set estimate over the tenants that have one,
    /// measured by the caller or sampled by the controller (0 when
    /// there are none).
    pub mean_ws_estimate: f64,
    /// The population's space-time product (occupied words × time),
    /// split into executing, awaiting a fetch, and ready but preempted.
    pub space_time: SpaceTimeReport,
}

impl EventReport {
    /// Fraction of the makespan the processor was executing.
    #[must_use]
    pub fn cpu_utilization(&self) -> f64 {
        if self.makespan == Cycles::ZERO {
            0.0
        } else {
            self.cpu_busy.as_nanos() as f64 / self.makespan.as_nanos() as f64
        }
    }

    /// References executed per simulated second — the population's
    /// virtual throughput (this is what collapses under thrashing).
    #[must_use]
    pub fn refs_per_second(&self) -> f64 {
        if self.makespan == Cycles::ZERO {
            0.0
        } else {
            self.references as f64 / (self.makespan.as_nanos() as f64 / 1e9)
        }
    }

    /// Faults per executed reference.
    #[must_use]
    pub fn fault_rate(&self) -> f64 {
        if self.references == 0 {
            0.0
        } else {
            self.faults as f64 / self.references as f64
        }
    }
}

/// The event-driven simulator. Construct, then [`EventSim::run`].
pub struct EventSim {
    cfg: SimConfig,
    policy: AdmissionPolicy,
    lc: LoadControlCfg,
    frames: usize,
    tenants: Vec<TenantState>,
    /// Shared-pool mode: where every tenant's pages live.
    pool: Option<SharedPool>,
}

impl EventSim {
    /// Builds the simulator over `frames` pooled page frames with
    /// compact per-tenant resident sets (LRU).
    #[must_use]
    pub fn new(
        cfg: SimConfig,
        frames: usize,
        policy: AdmissionPolicy,
        lc: LoadControlCfg,
        specs: Vec<TenantSpec>,
    ) -> EventSim {
        Self::build(cfg, frames, policy, lc, specs, None::<fn(&TenantSpec) -> _>)
    }

    /// Shared-pool constructor: every admitted tenant pages against one
    /// pool of `frames` frames under global LRU (pages are namespaced
    /// per tenant, so tenants share frames, never pages), and tenants
    /// steal frames from each other — the setting of the paper's
    /// conclusion (i). An allotment is then a claim the admission gate
    /// counts, not a partition: [`AdmissionPolicy::Open`] lets everyone
    /// in to thrash, [`AdmissionPolicy::WorkingSet`] admits while the
    /// claims fit the pool. A swapped-out tenant's pages are not
    /// flushed; they age out of the pool.
    #[must_use]
    pub fn with_shared_pool(
        cfg: SimConfig,
        frames: usize,
        policy: AdmissionPolicy,
        lc: LoadControlCfg,
        specs: Vec<TenantSpec>,
    ) -> EventSim {
        let mut sim = Self::new(cfg, frames, policy, lc, specs);
        sim.pool = Some(SharedPool {
            memory: PagedMemory::new(sim.frames, Box::new(LruRepl::new())),
            touches: 0,
            resident: vec![0; sim.tenants.len()],
        });
        sim
    }

    /// Every tenant pages through a full [`PagedMemory`] whose
    /// replacement policy `build` supplies — how the property tests
    /// compare the simulator with the reference stepper under every
    /// policy, in [`AdmissionPolicy::Fixed`] mode.
    #[must_use]
    pub fn with_full_memory(
        cfg: SimConfig,
        frames: usize,
        policy: AdmissionPolicy,
        lc: LoadControlCfg,
        specs: Vec<TenantSpec>,
        build: impl Fn(&TenantSpec) -> Box<dyn Replacer>,
    ) -> EventSim {
        Self::build(cfg, frames, policy, lc, specs, Some(build))
    }

    fn build(
        cfg: SimConfig,
        frames: usize,
        policy: AdmissionPolicy,
        lc: LoadControlCfg,
        specs: Vec<TenantSpec>,
        replacers: Option<impl Fn(&TenantSpec) -> Box<dyn Replacer>>,
    ) -> EventSim {
        let tenants = specs
            .into_iter()
            .map(|s| {
                let replacer = replacers.as_ref().map(|f| f(&s));
                let len = s.trace.len();
                let quota = s.quota.max(1) as u32;
                let measured = s.ws_estimate.map(|p| u32::try_from(p).unwrap_or(u32::MAX));
                TenantState {
                    id: s.id,
                    quota,
                    priority: s.priority,
                    trace: TraceState::Recipe(s.trace),
                    pending: None,
                    memory: Memory::Idle,
                    replacer,
                    len,
                    executed: 0,
                    faults: 0,
                    finished_at: None,
                    est_ws: measured,
                    allot_base: measured.map_or(0, |pages| pages.min(quota)),
                    allot: 0,
                    rejected_once: false,
                    ladder_pos: 0,
                    recent_refs: 0,
                    recent_faults: 0,
                }
            })
            .collect();
        EventSim {
            cfg,
            policy,
            lc,
            frames: frames.max(1),
            tenants,
            pool: None,
        }
    }

    /// Runs the population to completion, emitting probe events into
    /// `probe` (pass a `NullProbe` for a silent run).
    ///
    /// # Errors
    ///
    /// Propagates paging errors from full-memory tenants and the shared
    /// pool (impossible without pinning); compact resident sets cannot
    /// fail.
    #[allow(clippy::too_many_lines)]
    pub fn run<P: Probe>(mut self, probe: &mut P) -> Result<EventReport, CoreError> {
        let (cfg, lc, policy, frames) = (self.cfg, self.lc, self.policy, self.frames);
        let pooled = self.pool.is_some();

        let mut clock = VClock::new();
        let mut cpu_busy = Cycles::ZERO;
        // Global reference time: executed references across tenants.
        let mut gvt: VirtualTime = 0;
        let mut ready: VecDeque<u32> = VecDeque::new();
        let mut events = WakeQueue::default();
        // Next-free instants of the transfer channels (empty = ample).
        let mut channels: Vec<u64> = vec![0; cfg.fetch_channels.unwrap_or(0)];
        let mut shed = ShedBudget::new(SHED_BUDGET);
        let idle = Interval {
            since: Cycles::ZERO,
            pages: 0,
            phase: Phase::ReadyIdle,
        };
        let mut space_time = SpaceTime {
            page_size: cfg.page_size,
            total: SpaceTimeReport::default(),
            open: vec![idle; self.tenants.len()],
        };

        let mut pool_used: usize = 0;
        let mut active_count: usize = 0;
        let mut peak_active: usize = 0;
        let mut admissions: u64 = 0;
        let mut rejects: u64 = 0;
        let mut deactivations: u64 = 0;
        let mut ladder_steps: u64 = 0;

        for t in self.tenants.iter_mut().filter(|t| t.len == 0) {
            t.finished_at = Some(Cycles::ZERO);
        }
        // Backlog: higher priority first, ties in tenant order.
        let mut order: Vec<u32> = (0..self.tenants.len() as u32)
            .filter(|&i| self.tenants[i as usize].len > 0)
            .collect();
        order.sort_by_key(|&i| (Reverse(self.tenants[i as usize].priority), i));
        let mut backlog: VecDeque<u32> = order.into();
        // Open admission equipartitions the pool across the population.
        let equi = match policy {
            AdmissionPolicy::Open => (frames / backlog.len().max(1)).max(1),
            _ => 0,
        };

        loop {
            // Admission review: move backlog tenants in while the
            // policy allows.
            while let Some(&cand) = backlog.front() {
                // A faulted tenant's page must outlast the other
                // tenants' faults until its reference re-executes; in
                // fewer shared frames than active tenants they can
                // steal each other's forever, so no policy goes there.
                if pooled && active_count >= frames {
                    break;
                }
                let ci = cand as usize;
                let allot = match policy {
                    AdmissionPolicy::Fixed => self.tenants[ci].quota as usize,
                    AdmissionPolicy::Open => equi.min(self.tenants[ci].quota as usize),
                    AdmissionPolicy::WorkingSet => {
                        let allot = grant(&mut self.tenants[ci], &lc, probe, clock.stamp(gvt));
                        if pool_used + allot > frames && pool_used > 0 {
                            let t = &mut self.tenants[ci];
                            if !t.rejected_once {
                                t.rejected_once = true;
                                rejects += 1;
                                probe.emit(
                                    EventKind::AdmissionReject { tenant: t.id },
                                    clock.stamp(gvt),
                                );
                            }
                            break;
                        }
                        allot
                    }
                };
                backlog.pop_front();
                activate(
                    &mut self.tenants[ci],
                    allot,
                    pooled,
                    probe,
                    clock.stamp(gvt),
                );
                pool_used += allot;
                active_count += 1;
                admissions += 1;
                peak_active = peak_active.max(active_count);
                ready.push_back(cand);
            }

            let Some(i) = ready.pop_front() else {
                let Some(wake) = events.next_wake() else {
                    // Nothing runs and no fetch is in flight, so the
                    // pool is empty, and the gates above refuse only
                    // while `pool_used > 0` (which is what lets an
                    // oversized tenant in): the population has drained.
                    debug_assert!(backlog.is_empty(), "an idle pool admits its backlog");
                    break;
                };
                // Idle processor: jump straight to the next event.
                clock.advance_to(Cycles::from_nanos(wake));
                let queued = ready.len();
                events.deliver(clock.nanos(), &mut ready);
                space_time.wake(ready.range(queued..), clock.now());
                continue;
            };
            let ii = i as usize;

            // Load control: a tenant whose recent fault rate says it is
            // thrashing climbs the degradation ladder at dispatch.
            if policy == AdmissionPolicy::WorkingSet
                && self.tenants[ii].recent_refs >= lc.thrash_refs
            {
                let t = &mut self.tenants[ii];
                let rate = f64::from(t.recent_faults) / f64::from(t.recent_refs.max(1));
                t.recent_refs = 0;
                t.recent_faults = 0;
                if rate > THRASH_FAULT_RATE && !backlog.is_empty() {
                    let rung =
                        MACHINE_LADDER[(t.ladder_pos as usize).min(MACHINE_LADDER.len() - 1)];
                    ladder_steps += 1;
                    probe.emit(EventKind::DegradationStep { step: rung }, clock.stamp(gvt));
                    match rung {
                        DegradationStep::EvictVictims => {
                            // Halve the allotment; freed frames return
                            // to the pool.
                            let new_allot = (t.allot / 2).max(1);
                            let freed = (t.allot - new_allot) as usize;
                            t.allot = new_allot;
                            pool_used -= freed;
                            if let Memory::Compact(ref mut m) = t.memory {
                                m.resize(new_allot as usize);
                            }
                            t.ladder_pos += 1;
                        }
                        DegradationStep::ShedLoad => {
                            if shed.try_shed() {
                                // Swap the tenant out entirely.
                                let resident = resident_pages(&self.pool, t, ii) as u32;
                                if let Memory::Compact(ref mut m) = t.memory {
                                    m.clear();
                                }
                                space_time.enter(ii, Phase::ReadyIdle, 0, clock.now());
                                probe.emit(
                                    EventKind::TenantDeactivated {
                                        tenant: t.id,
                                        resident,
                                    },
                                    clock.stamp(gvt),
                                );
                                deactivations += 1;
                                pool_used -= t.allot as usize;
                                t.allot = 0;
                                t.ladder_pos = 0;
                                active_count -= 1;
                                backlog.push_back(i);
                                continue;
                            }
                        }
                        // Coalesce and Compact have nothing to give
                        // back in a paged pool; they mark the climb.
                        _ => t.ladder_pos += 1,
                    }
                }
            }

            // One round-robin quantum.
            let t = &mut self.tenants[ii];
            let resident = resident_pages(&self.pool, t, ii);
            space_time.enter(ii, Phase::Active, resident, clock.now());
            let mut blocked_now = false;
            for _ in 0..cfg.quantum_refs {
                // A faulted reference re-executes; otherwise the cursor
                // draws the next one, and runs dry with the trace.
                let draw = || t.trace.next_page();
                let Some(page) = t.pending.or_else(draw) else {
                    break;
                };
                let fault = match self.pool.as_mut() {
                    Some(pool) => pool.touch(i, page)?,
                    None => t.memory.touch(page, t.executed)?,
                };
                if fault {
                    t.faults += 1;
                    t.recent_faults += 1;
                    // The faulting reference re-executes once the page
                    // arrives; the page is already installed, and the
                    // tenant occupies its frame while it waits.
                    t.pending = Some(page);
                    let resident = resident_pages(&self.pool, t, ii);
                    space_time.enter(ii, Phase::AwaitingFetch, resident, clock.now());
                    probe.emit(EventKind::Fault, clock.stamp(gvt));
                    // Queue for a transfer channel if capacity is
                    // limited: the fetch starts when the least-loaded
                    // channel frees.
                    let start = match channels.iter_mut().min() {
                        Some(slot) => {
                            let start = (*slot).max(clock.nanos());
                            *slot = start + cfg.fetch_time.as_nanos();
                            Cycles::from_nanos(start)
                        }
                        None => clock.now(),
                    };
                    let wake = start + cfg.fetch_time;
                    probe.emit(
                        EventKind::FetchStart {
                            words: cfg.page_size,
                        },
                        clock.stamp_at(start, gvt),
                    );
                    probe.emit(
                        EventKind::FetchDone {
                            words: cfg.page_size,
                        },
                        clock.stamp_at(wake, gvt),
                    );
                    let in_order = events.push(wake.as_nanos(), i);
                    debug_assert!(in_order, "wakes never go back");
                    blocked_now = true;
                    break;
                }
                t.pending = None;
                t.executed += 1;
                t.recent_refs += 1;
                gvt += 1;
                clock.advance(cfg.instr_time);
                cpu_busy += cfg.instr_time;
            }

            // Deliver any fetch completions that arrived while this
            // tenant's quantum ran.
            let queued = ready.len();
            events.deliver(clock.nanos(), &mut ready);
            space_time.wake(ready.range(queued..), clock.now());
            if blocked_now {
                continue;
            }
            let t = &mut self.tenants[ii];
            if t.executed >= t.len && t.pending.is_none() {
                t.finished_at = Some(clock.now());
                // Release the tenant's state and its pool share.
                t.memory = Memory::Idle;
                t.trace = TraceState::Released;
                pool_used -= t.allot as usize;
                t.allot = 0;
                active_count -= 1;
                space_time.enter(ii, Phase::ReadyIdle, 0, clock.now());
            } else {
                let resident = resident_pages(&self.pool, t, ii);
                space_time.enter(ii, Phase::ReadyIdle, resident, clock.now());
                ready.push_back(i);
            }
        }

        let makespan = clock.now();
        let mut references = 0u64;
        let mut faults = 0u64;
        // Each sampled tenant weighs once, however often it re-admits.
        let mut ws_est_sum = 0u64;
        let mut ws_est_count = 0u64;
        let tenants = self
            .tenants
            .iter()
            .map(|t| {
                references += t.executed;
                faults += t.faults;
                if let Some(est) = t.est_ws {
                    ws_est_sum += u64::from(est);
                    ws_est_count += 1;
                }
                TenantReport {
                    id: t.id,
                    references: t.executed,
                    faults: t.faults,
                    finished_at: t.finished_at.unwrap_or(makespan),
                }
            })
            .collect();
        Ok(EventReport {
            tenants,
            cpu_busy,
            makespan,
            references,
            faults,
            peak_active,
            admissions,
            admission_rejects: rejects,
            deactivations,
            ladder_steps,
            mean_ws_estimate: if ws_est_count == 0 {
                0.0
            } else {
                ws_est_sum as f64 / ws_est_count as f64
            },
            space_time: space_time.total,
        })
    }
}

/// Pages tenant `t` (at index `i`) holds in working storage.
fn resident_pages(pool: &Option<SharedPool>, t: &TenantState, i: usize) -> usize {
    match pool {
        Some(pool) => pool.resident[i] as usize,
        None => t.memory.resident_count(),
    }
}

/// Returns the tenant's granted allotment under working-set admission:
/// the measured working set its spec carried, or else an estimate
/// computed (once) from the head of its trace, the `WsEstimate` probe
/// event marking the computation. Sampling builds the tenant's cursor,
/// which draws the head once and serves it later.
fn grant<P: Probe>(t: &mut TenantState, lc: &LoadControlCfg, probe: &mut P, at: Stamp) -> usize {
    if t.est_ws.is_none() {
        let sample = t
            .trace
            .cursor()
            .map_or(&[][..], |cursor| cursor.sample(lc.ws_sample));
        let est = estimate_ws(sample, lc.ws_window);
        let allot = pick_allotment(sample, est, t.quota as usize, TARGET_FAULT_RATE);
        let pages = u32::try_from(est).unwrap_or(u32::MAX);
        t.est_ws = Some(pages);
        t.allot_base = u32::try_from(allot).unwrap_or(u32::MAX);
        probe.emit(
            EventKind::WsEstimate {
                tenant: t.id,
                pages,
            },
            at,
        );
    }
    (t.allot_base as usize).max(1)
}

/// Activates a tenant with `allot` frames: builds its cursor (unless
/// [`grant`] did) and (unless it is `pooled`, paging in the shared
/// pool) its resident set on first activation, resizes them on
/// re-admission, and emits the `TenantAdmitted` probe event.
fn activate<P: Probe>(t: &mut TenantState, allot: usize, pooled: bool, probe: &mut P, at: Stamp) {
    let allot = allot.max(1);
    t.allot = u32::try_from(allot).unwrap_or(u32::MAX);
    t.trace.cursor();
    match t.memory {
        Memory::Idle if pooled => {}
        Memory::Idle => {
            t.memory = match t.replacer.take() {
                Some(r) => Memory::Full(Box::new(PagedMemory::new(allot, r))),
                None => Memory::Compact(CompactLru::new(allot)),
            };
        }
        Memory::Compact(ref mut m) => {
            m.resize(allot);
        }
        Memory::Full(_) => {}
    }
    t.ladder_pos = 0;
    t.recent_refs = 0;
    t.recent_faults = 0;
    probe.emit(
        EventKind::TenantAdmitted {
            tenant: t.id,
            frames: t.allot,
        },
        at,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::TraceSpec;
    use dsa_probe::{CountingProbe, NullProbe};
    use dsa_trace::refstring::RefStringCfg;

    fn cfg(channels: Option<usize>) -> SimConfig {
        SimConfig {
            instr_time: Cycles::from_micros(10),
            fetch_time: Cycles::from_millis(2),
            page_size: 512,
            quantum_refs: 20,
            fetch_channels: channels,
        }
    }

    fn stream_tenants(n: u32, refs: u64) -> Vec<TenantSpec> {
        (0..n)
            .map(|i| {
                TenantSpec::new(
                    i,
                    TraceSpec::Stream {
                        cfg: RefStringCfg::WorkingSetPhases {
                            pages: 16,
                            set: 6,
                            phase_len: 200,
                        },
                        write_fraction: 0.0,
                        seed: u64::from(i) + 1,
                        len: refs,
                    },
                    16,
                )
            })
            .collect()
    }

    fn run(policy: AdmissionPolicy, n: u32, frames: usize) -> EventReport {
        EventSim::new(
            cfg(Some(2)),
            frames,
            policy,
            LoadControlCfg::default(),
            stream_tenants(n, 800),
        )
        .run(&mut NullProbe)
        .expect("compact sets cannot fail")
    }

    /// Three pages cycled through one frame: every reference faults.
    const STORM: [u64; 12] = [1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3];

    /// A fixed mix of `(trace, frames)` jobs in private quotas, at 10 us
    /// per reference and quanta of four.
    fn mix(fetch: Cycles, channels: Option<usize>, jobs: &[(&[u64], usize)]) -> EventReport {
        let cfg = SimConfig {
            fetch_time: fetch,
            quantum_refs: 4,
            ..cfg(channels)
        };
        let specs = jobs.iter().enumerate().map(|(i, &(trace, frames))| {
            let trace = TraceSpec::Pages(trace.iter().map(|&p| PageNo(p)).collect());
            TenantSpec::new(i as u32, trace, frames)
        });
        let lc = LoadControlCfg::default();
        EventSim::new(cfg, 64, AdmissionPolicy::Fixed, lc, specs.collect())
            .run(&mut NullProbe)
            .expect("compact sets cannot fail")
    }

    const MS: Cycles = Cycles::from_millis(1);

    #[test]
    fn cold_start_faults_once_and_every_reference_costs_one_instruction() {
        let r = mix(MS, None, &[(&[1; 10], 2)]);
        assert_eq!((r.tenants[0].faults, r.tenants[0].references), (1, 10));
        // The faulting reference re-executes: 10 refs x 10 us.
        assert_eq!(r.cpu_busy, Cycles::from_micros(100));
        assert!(r.makespan >= MS, "the fetch time elapses");
    }

    #[test]
    fn space_time_is_wait_dominated_unless_the_fetch_is_fast() {
        let slow = mix(MS, None, &[(&STORM, 1)]);
        let wait = slow.space_time.waiting_fraction();
        assert!(wait > 0.9, "waiting fraction {wait}");
        let fast = mix(Cycles::from_micros(20), None, &[(&STORM, 1)]);
        assert!(fast.space_time.waiting_fraction() < wait);
        assert!(fast.makespan < slow.makespan);
    }

    #[test]
    fn multiprogramming_overlaps_fetch_with_execution() {
        // Tenant 0 faults on every reference; tenant 1 never does after
        // its cold start. Together they must keep the processor busier
        // than tenant 0 alone, whose faults the company does not change.
        let alone = mix(MS, None, &[(&STORM, 1)]);
        let mixed = mix(MS, None, &[(&STORM, 1), (&[7; 2000], 2)]);
        assert!(
            mixed.cpu_utilization() > 2.0 * alone.cpu_utilization(),
            "mixed {} vs alone {}",
            mixed.cpu_utilization(),
            alone.cpu_utilization()
        );
        assert_eq!(mixed.tenants[0].faults, alone.tenants[0].faults);
    }

    #[test]
    fn round_robin_shares_the_processor() {
        // Two identical tenants that stop faulting after the cold start
        // finish near each other, not serially.
        let r = mix(MS, None, &[(&[1; 400], 1), (&[1; 400], 1)]);
        let f0 = r.tenants[0].finished_at.as_nanos() as f64;
        let f1 = r.tenants[1].finished_at.as_nanos() as f64;
        assert!((f0 - f1).abs() / f0.max(f1) < 0.05, "{f0} vs {f1}");
    }

    #[test]
    fn one_channel_serializes_fetches_and_enough_channels_are_ample() {
        let storms = [(&STORM[..9], 1); 4];
        let ample = mix(MS, None, &storms);
        let narrow = mix(MS, Some(1), &storms);
        assert!(
            narrow.makespan.as_nanos() > 2 * ample.makespan.as_nanos(),
            "queueing at one channel must stretch the run: {} vs {}",
            narrow.makespan,
            ample.makespan
        );
        // Fault counts are untouched by channel capacity.
        for (a, b) in ample.tenants.iter().zip(&narrow.tenants) {
            assert_eq!(a.faults, b.faults);
        }
        // A channel per tenant never queues.
        let wide = mix(MS, Some(4), &storms);
        assert_eq!(
            (wide.makespan, wide.cpu_busy),
            (ample.makespan, ample.cpu_busy)
        );
    }

    #[test]
    fn channel_queueing_lowers_utilization() {
        // Three faulting tenants beside a compute-heavy one: one channel
        // keeps the faulting ones blocked longer and the processor's
        // work is the same, so utilization (busy / makespan) falls.
        let jobs = [
            (&STORM[..9], 1),
            (&STORM[..9], 1),
            (&STORM[..9], 1),
            (&[7; 500][..], 2),
        ];
        let ample = mix(MS, None, &jobs);
        let narrow = mix(MS, Some(1), &jobs);
        assert_eq!(narrow.cpu_busy, ample.cpu_busy);
        assert!(narrow.makespan > ample.makespan);
        assert!(narrow.cpu_utilization() < ample.cpu_utilization());
    }

    /// `n` tenants of ~7-page working sets in one pool of `frames`, each
    /// spec carrying `estimate` as its measured working set.
    fn run_shared(policy: AdmissionPolicy, n: u32, frames: usize, estimate: usize) -> EventReport {
        let mut specs = stream_tenants(n, 1500);
        for s in &mut specs {
            s.ws_estimate = Some(estimate);
        }
        // One drum channel: fetches queue, so thrash costs wall clock.
        EventSim::with_shared_pool(
            cfg(Some(1)),
            frames,
            policy,
            LoadControlCfg::default(),
            specs,
        )
        .run(&mut NullProbe)
        .expect("no pinning")
    }

    #[test]
    fn over_admission_thrashes_a_shared_pool_and_the_gate_does_not() {
        // Eight working sets over 24 frames: admitting everyone floods
        // the pool; claims of 8 frames run three at a time.
        let open = run_shared(AdmissionPolicy::Open, 8, 24, 8);
        let ws = run_shared(AdmissionPolicy::WorkingSet, 8, 24, 8);
        assert_eq!((open.peak_active, ws.peak_active), (8, 3));
        assert!(
            ws.faults * 2 < open.faults,
            "load control must cut faults sharply: {} vs {}",
            ws.faults,
            open.faults
        );
        assert!(
            ws.makespan < open.makespan,
            "finishing in shifts beats thrashing: {} vs {}",
            ws.makespan,
            open.makespan
        );
    }

    #[test]
    fn ample_shared_storage_makes_the_policies_agree_on_faults() {
        let open = run_shared(AdmissionPolicy::Open, 4, 200, 8);
        let ws = run_shared(AdmissionPolicy::WorkingSet, 4, 200, 8);
        assert_eq!(open.faults, ws.faults, "no pressure, no difference");
    }

    #[test]
    fn shared_pool_survives_page_numbers_past_its_namespace() {
        let lc = LoadControlCfg::default();
        let wild = TraceSpec::Pages(vec![PageNo(u64::MAX), PageNo(1 << TENANT_SHIFT), PageNo(0)]);
        let specs = vec![
            TenantSpec::new(0, wild.clone(), 4),
            TenantSpec::new(1, wild, 4),
        ];
        let r = EventSim::with_shared_pool(cfg(None), 2, AdmissionPolicy::Open, lc, specs)
            .run(&mut NullProbe)
            .expect("no pinning");
        assert_eq!(r.references, 6);
    }

    #[test]
    fn shared_pool_runs_every_reference_on_degenerate_input() {
        // No frames, an estimate of nothing, an estimate past the pool:
        // none may panic or wedge the backlog.
        for (frames, estimate) in [(0, 8), (24, 0), (24, 1000)] {
            for policy in [AdmissionPolicy::Open, AdmissionPolicy::WorkingSet] {
                let r = run_shared(policy, 3, frames, estimate);
                assert_eq!(r.references, 3 * 1500, "{policy:?} {frames} {estimate}");
                assert!(r.tenants.iter().all(|t| t.references == 1500));
            }
        }
    }

    #[test]
    fn every_tenant_completes_under_both_policies() {
        for policy in [AdmissionPolicy::Open, AdmissionPolicy::WorkingSet] {
            let r = run(policy, 12, 48);
            assert_eq!(r.tenants.len(), 12);
            for t in &r.tenants {
                assert_eq!(t.references, 800, "{policy:?} tenant {}", t.id);
                assert!(t.finished_at <= r.makespan);
            }
            assert_eq!(r.references, 12 * 800);
        }
    }

    #[test]
    fn working_set_admission_beats_open_under_overcommit() {
        // 16 tenants of ~7-page working sets over 24 frames: open
        // admission gives everyone 1 frame and thrashes; the gate runs
        // a few at a time.
        let open = run(AdmissionPolicy::Open, 16, 24);
        let ws = run(AdmissionPolicy::WorkingSet, 16, 24);
        assert!(ws.peak_active < open.peak_active);
        assert!(
            ws.faults * 2 < open.faults,
            "admission control must cut faults sharply: {} vs {}",
            ws.faults,
            open.faults
        );
        assert!(
            ws.refs_per_second() > 2.0 * open.refs_per_second(),
            "throughput must collapse without the gate: {} vs {}",
            ws.refs_per_second(),
            open.refs_per_second()
        );
    }

    #[test]
    fn ample_frames_make_the_policies_agree_on_faults() {
        let open = run(AdmissionPolicy::Open, 6, 6 * 16);
        let ws = run(AdmissionPolicy::WorkingSet, 6, 6 * 16);
        // With a full quota each under Open and estimates under WS,
        // neither regime steals frames; both see only per-phase faults.
        assert!(open.fault_rate() < 0.2);
        assert!(ws.fault_rate() < 0.2);
    }

    #[test]
    fn probe_events_reconcile_with_the_report() {
        let mut probe = CountingProbe::new();
        let r = EventSim::new(
            cfg(Some(2)),
            24,
            AdmissionPolicy::WorkingSet,
            LoadControlCfg::default(),
            stream_tenants(10, 600),
        )
        .run(&mut probe)
        .expect("compact sets cannot fail");
        assert_eq!(probe.faults, r.faults);
        assert_eq!(probe.fetch_starts, r.faults);
        assert_eq!(probe.fetches, r.faults);
        assert_eq!(probe.tenants_admitted, r.admissions);
        assert_eq!(probe.tenants_deactivated, r.deactivations);
        assert_eq!(probe.degradation_steps, r.ladder_steps);
        assert!(probe.ws_estimates >= 1);
    }

    #[test]
    fn oversized_tenant_is_force_admitted() {
        // One tenant whose estimate exceeds the pool must still run.
        let specs = stream_tenants(1, 300);
        let r = EventSim::new(
            cfg(None),
            2,
            AdmissionPolicy::WorkingSet,
            LoadControlCfg::default(),
            specs,
        )
        .run(&mut NullProbe)
        .expect("compact sets cannot fail");
        assert_eq!(r.tenants[0].references, 300);
    }

    #[test]
    fn empty_population_and_empty_traces() {
        let r = EventSim::new(
            cfg(None),
            8,
            AdmissionPolicy::Open,
            LoadControlCfg::default(),
            vec![],
        )
        .run(&mut NullProbe)
        .expect("compact sets cannot fail");
        assert_eq!(r.makespan, Cycles::ZERO);
        assert_eq!(r.refs_per_second(), 0.0);

        let empty = TenantSpec::new(0, TraceSpec::Pages(vec![]), 4);
        let r = EventSim::new(
            cfg(None),
            8,
            AdmissionPolicy::Open,
            LoadControlCfg::default(),
            vec![empty],
        )
        .run(&mut NullProbe)
        .expect("compact sets cannot fail");
        assert_eq!(r.tenants[0].references, 0);
        assert_eq!(r.tenants[0].finished_at, Cycles::ZERO);
    }

    #[test]
    fn quota_capped_thrashers_walk_the_ladder_to_swap_out() {
        // Quota 1 pins every allotment below the 2- to 11-page working
        // sets, so admitted tenants thrash no matter what admission
        // decided; with a standing backlog the dispatcher must climb
        // the ladder and reach the shed-load rung (swap-out), and the
        // swapped tenants must still finish after re-admission.
        let specs: Vec<TenantSpec> = (0..10)
            .map(|i| {
                TenantSpec::new(
                    i,
                    TraceSpec::Stream {
                        cfg: RefStringCfg::WorkingSetPhases {
                            pages: 16,
                            set: 2 + u64::from(i),
                            phase_len: 200,
                        },
                        write_fraction: 0.0,
                        seed: u64::from(i) + 1,
                        len: 600,
                    },
                    1,
                )
            })
            .collect();
        let lc = LoadControlCfg::default();
        let estimates: u64 = specs
            .iter()
            .map(|s| estimate_ws(&s.trace.sample(lc.ws_sample), lc.ws_window) as u64)
            .sum();
        let mut probe = CountingProbe::new();
        let r = EventSim::new(cfg(Some(2)), 4, AdmissionPolicy::WorkingSet, lc, specs)
            .run(&mut probe)
            .expect("compact sets cannot fail");
        assert!(
            r.ladder_steps > 0,
            "thrashing tenants must climb the ladder"
        );
        assert!(r.deactivations > 0, "the final rung must swap tenants out");
        assert_eq!(probe.tenants_deactivated, r.deactivations);
        assert!(
            r.admissions > 10,
            "swapped-out tenants re-admit: {} admissions",
            r.admissions
        );
        for t in &r.tenants {
            assert_eq!(t.references, 600, "tenant {} must finish", t.id);
        }
        // The mean weighs each sampled tenant once, not each admission:
        // the sets differ, so counting re-admissions would move it.
        assert_eq!(probe.ws_estimates, 10);
        assert_eq!(
            r.mean_ws_estimate.to_bits(),
            (estimates as f64 / 10.0).to_bits()
        );
    }

    #[test]
    fn a_tenant_stays_the_size_it_was() {
        // Every tenant of a population carries one of these, and the
        // open run is memory-bound: a field that grows it must change
        // this number on purpose. (64-bit targets.)
        assert_eq!(std::mem::size_of::<TenantState>(), 288);
    }

    #[test]
    fn priorities_admit_high_before_low() {
        // Pool fits one tenant at a time; the high-priority tenant must
        // finish first even though it has the higher id.
        let mut specs = stream_tenants(2, 400);
        specs[1].priority = 9;
        let r = EventSim::new(
            cfg(None),
            8,
            AdmissionPolicy::WorkingSet,
            LoadControlCfg::default(),
            specs,
        )
        .run(&mut NullProbe)
        .expect("compact sets cannot fail");
        assert!(
            r.tenants[1].finished_at <= r.tenants[0].finished_at,
            "priority 9 should finish no later: {} vs {}",
            r.tenants[1].finished_at,
            r.tenants[0].finished_at
        );
    }

    #[test]
    fn reversed_priorities_share_one_wake_without_going_quadratic() {
        // Ample channels and a clock that has not moved: every tenant's
        // first fault wakes at the same instant, and priorities that
        // run against tenant order push those wakes tenant-descending.
        let n = 20_000u32;
        let population = |reversed: bool| {
            let mut specs = stream_tenants(n, 40);
            if reversed {
                for s in &mut specs {
                    s.priority = u8::try_from(s.id * 256 / n).expect("below 256");
                }
            }
            EventSim::new(
                cfg(None),
                2 * n as usize,
                AdmissionPolicy::Open,
                LoadControlCfg::default(),
                specs,
            )
            .run(&mut NullProbe)
            .expect("compact sets cannot fail")
        };
        let plain = population(false);
        let reversed = population(true);
        for (r, p) in reversed.tenants.iter().zip(&plain.tenants) {
            assert_eq!(r.references, 40, "tenant {} runs its whole trace", r.id);
            // A tenant's faults depend on its trace and allotment only.
            assert_eq!(r.faults, p.faults, "tenant {}", r.id);
        }
    }
}
