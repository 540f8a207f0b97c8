//! The sharded variable-size arena: striped free-list allocators
//! behind per-shard locks.
//!
//! Variable-size allocation cannot use the slab's search-free stack —
//! placement *is* a search — so concurrency comes from sharding
//! instead: storage is striped into `N` independent regions, each owned
//! by one [`FreeListAllocator`] (any placement policy) behind its own
//! lock. Requests hash to a deterministic *home shard*; threads whose
//! ids hash apart never contend. When the home shard cannot satisfy a
//! request, the arena *steals*: it tries the remaining shards in a
//! deterministic rotation before giving up with a typed
//! [`ArenaError::Exhausted`] that reports every shard's honest
//! `largest_free` — the same honesty the single-allocator
//! [`AllocError::OutOfStorage`] carries, extended across the stripe.
//!
//! A caller that keeps each block's address until it frees it, and
//! whose blocks never move, needs no id at all: the second door
//! ([`ShardedArena::alloc_at_probed`] / [`ShardedArena::free_at_probed`])
//! names a block by an address inside it, which says which shard owns
//! it — one lock each way and no ownership map.
//!
//! A 1-shard arena degenerates to a mutex around one allocator: every
//! id homes to shard 0, no stealing can happen, and the placement
//! decisions (and the stats) are byte-identical to the bare
//! [`FreeListAllocator`] — the property test that anchors the arena's
//! semantics to the sequential taxonomy.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use dsa_core::error::AllocError;
use dsa_core::ids::{IdMap, PhysAddr, Words};
use dsa_freelist::compaction::{compact_probed, CompactionReport};
use dsa_freelist::freelist::{AllocSnapshot, FreeListAllocator, FreeListStats, Placement};
use dsa_probe::{EventKind, NullProbe, Probe, Stamp};

/// Marks an id whose steal attempt is still in flight in the home
/// shard's ownership map.
const RESERVED: u32 = u32::MAX;

/// The fixed 64-bit mixer behind home-shard hashing (SplitMix64's
/// finalizer). Deterministic across runs, platforms and thread counts.
fn mix64(id: u64) -> u64 {
    let mut z = id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One shard's honest fullness figures inside an
/// [`ArenaError::Exhausted`] report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardFullness {
    /// Which shard.
    pub shard: u32,
    /// The largest contiguous hole in that shard at failure time.
    pub largest_free: Words,
    /// Total free words in that shard.
    pub free_words: Words,
}

/// An arena request failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArenaError {
    /// A per-request error from the underlying allocator (zero size,
    /// duplicate id, unknown id).
    Alloc(AllocError),
    /// Every shard was tried — home first, then the steal rotation —
    /// and none could place the request. Carries each shard's honest
    /// `largest_free` so callers can tell fragmentation from genuine
    /// exhaustion.
    Exhausted {
        /// The size that was requested, in words.
        requested: Words,
        /// Fullness of every shard, in shard order.
        per_shard: Vec<ShardFullness>,
    },
    /// The request would push its tenant past its word quota. The
    /// storage may have room — the *tenant* does not.
    QuotaExceeded {
        /// The tenant that was refused.
        tenant: u32,
        /// The size that was requested, in words.
        requested: Words,
        /// The tenant's configured quota, in words.
        quota: Words,
        /// The tenant's occupancy at refusal time, in words.
        in_use: Words,
    },
    /// Admission control refused the request before it touched storage:
    /// the service is past its overload watermark and the tenant's
    /// priority did not clear the bar.
    AdmissionDenied {
        /// The tenant that was refused.
        tenant: u32,
    },
    /// The request named a tenant the service has no quota entry for.
    UnknownTenant {
        /// The unregistered tenant id.
        tenant: u32,
    },
}

impl fmt::Display for ArenaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArenaError::Alloc(e) => write!(f, "{e}"),
            ArenaError::Exhausted {
                requested,
                per_shard,
            } => {
                let largest = per_shard.iter().map(|s| s.largest_free).max().unwrap_or(0);
                write!(
                    f,
                    "all {} shards exhausted: requested {requested} words, largest free \
                     extent anywhere {largest}",
                    per_shard.len()
                )
            }
            ArenaError::QuotaExceeded {
                tenant,
                requested,
                quota,
                in_use,
            } => write!(
                f,
                "tenant {tenant} over quota: requested {requested} words with {in_use} \
                 of {quota} in use"
            ),
            ArenaError::AdmissionDenied { tenant } => {
                write!(
                    f,
                    "admission denied for tenant {tenant}: service overloaded"
                )
            }
            ArenaError::UnknownTenant { tenant } => {
                write!(f, "unknown tenant {tenant}")
            }
        }
    }
}

impl std::error::Error for ArenaError {}

impl From<AllocError> for ArenaError {
    fn from(e: AllocError) -> ArenaError {
        ArenaError::Alloc(e)
    }
}

/// One shard: its allocator plus the ownership map for ids that *home*
/// here (the owner may be another shard after a steal).
#[derive(Debug)]
struct Shard {
    alloc: FreeListAllocator,
    /// id -> owning shard, for every live id homed to this shard.
    homed: IdMap<u64, u32>,
}

/// A point-in-time view of one shard.
#[derive(Clone, Copy, Debug)]
pub struct ShardSnapshot {
    /// Which shard.
    pub shard: u32,
    /// The shard allocator's occupancy and counters.
    pub alloc: AllocSnapshot,
    /// Live ids homed to this shard (owned here or stolen elsewhere).
    pub homed: usize,
    /// Whether the shard is quarantined (out of the placement rotation,
    /// frees still drain).
    pub quarantined: bool,
}

/// A point-in-time view of the whole arena.
#[derive(Clone, Debug)]
pub struct ArenaSnapshot {
    /// Per-shard views, in shard order.
    pub shards: Vec<ShardSnapshot>,
    /// Allocations that landed on a non-home shard, cumulatively.
    pub steals: u64,
}

impl ArenaSnapshot {
    /// Total capacity across shards.
    #[must_use]
    pub fn capacity(&self) -> Words {
        self.shards.iter().map(|s| s.alloc.capacity).sum()
    }

    /// Total free words across shards.
    #[must_use]
    pub fn free_words(&self) -> Words {
        self.shards.iter().map(|s| s.alloc.free_words).sum()
    }

    /// Total allocated words across shards.
    #[must_use]
    pub fn allocated_words(&self) -> Words {
        self.capacity() - self.free_words()
    }

    /// The shard counters merged into one [`FreeListStats`].
    #[must_use]
    pub fn stats(&self) -> FreeListStats {
        let mut total = FreeListStats::default();
        for s in &self.shards {
            total.merge(&s.alloc.stats);
        }
        total
    }
}

/// A thread-safe variable-size arena striped over `N` locked
/// [`FreeListAllocator`] shards.
///
/// Shard `s` owns the global address range
/// `[s * shard_capacity, (s + 1) * shard_capacity)`; returned addresses
/// are global.
///
/// Concurrency contract: any number of threads may call any method, but
/// each *id* must be driven by one request stream at a time (alloc,
/// then free, strictly ordered per id) — the natural shape of a
/// per-client id space.
///
/// # Examples
///
/// ```
/// use dsa_arena::ShardedArena;
/// use dsa_freelist::Placement;
///
/// let arena = ShardedArena::new(4, 1000, Placement::BestFit);
/// arena.alloc(7, 100).unwrap();
/// assert_eq!(arena.snapshot().free_words(), 3900);
/// arena.free(7).unwrap();
/// assert_eq!(arena.snapshot().free_words(), 4000);
/// ```
#[derive(Debug)]
pub struct ShardedArena {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard quarantine flags: a quarantined shard is skipped by
    /// placement (home and steal rotation alike) until readmitted;
    /// frees still reach it so it can drain while sidelined.
    quarantined: Vec<AtomicBool>,
    shard_capacity: Words,
    steals: AtomicU64,
}

impl ShardedArena {
    /// Creates an arena of `shards` stripes, each `shard_capacity`
    /// words under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or `shard_capacity` is zero.
    #[must_use]
    pub fn new(shards: u32, shard_capacity: Words, policy: Placement) -> ShardedArena {
        assert!(shards > 0, "an arena needs at least one shard");
        let quarantined = (0..shards).map(|_| AtomicBool::new(false)).collect();
        let shards = (0..shards)
            .map(|_| {
                Mutex::new(Shard {
                    alloc: FreeListAllocator::new(shard_capacity, policy),
                    homed: IdMap::default(),
                })
            })
            .collect();
        ShardedArena {
            shards,
            quarantined,
            shard_capacity,
            steals: AtomicU64::new(0),
        }
    }

    /// Enables the exact-size quick lists (deferred coalescing) in
    /// every shard's allocator — the small-size fast path for churn-
    /// heavy hosts. Host-speed mode only: placement behavior changes
    /// and quick-path requests charge no modeled probes, so this must
    /// never be enabled in a modeled (golden) experiment. See
    /// `FreeListAllocator::enable_quick_lists`.
    ///
    /// # Panics
    ///
    /// Panics if `max_size` is zero or exceeds the shard capacity, or
    /// if `depth` is zero.
    pub fn enable_quick_lists(&self, max_size: Words, depth: usize) {
        for s in 0..self.shard_count() {
            self.lock(s).alloc.enable_quick_lists(max_size, depth);
        }
    }

    /// Number of shards.
    #[must_use]
    pub(crate) fn shard_count(&self) -> u32 {
        self.shards.len() as u32
    }

    /// Capacity of each shard, in words.
    #[must_use]
    pub(crate) fn shard_capacity(&self) -> Words {
        self.shard_capacity
    }

    /// Total capacity across shards.
    #[must_use]
    pub fn capacity(&self) -> Words {
        self.shard_capacity * self.shards.len() as u64
    }

    /// The deterministic home shard of an id.
    #[must_use]
    pub(crate) fn home_shard(&self, id: u64) -> u32 {
        (mix64(id) % self.shards.len() as u64) as u32
    }

    /// Locks shard `s`, riding out poisoning (a panicked holder leaves
    /// counters behind, never a torn free list — `FreeListAllocator`
    /// mutates through `&mut self` with no unwind points mid-update).
    fn lock(&self, s: u32) -> MutexGuard<'_, Shard> {
        self.shards[s as usize]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn global(&self, shard: u32, addr: PhysAddr) -> PhysAddr {
        PhysAddr(u64::from(shard) * self.shard_capacity + addr.value())
    }

    /// Allocates `size` words under `id`: home shard first, then the
    /// steal rotation. See [`ShardedArena::alloc_probed`].
    ///
    /// # Errors
    ///
    /// As [`ShardedArena::alloc_probed`].
    pub fn alloc(&self, id: u64, size: Words) -> Result<PhysAddr, ArenaError> {
        self.alloc_probed(id, size, Stamp::default(), &mut NullProbe)
    }

    /// [`ShardedArena::alloc`] with event emission: the shard that
    /// places the request emits `Alloc { words, searched }` through its
    /// allocator, where `searched` counts that shard's hole
    /// inspections.
    ///
    /// # Errors
    ///
    /// * [`ArenaError::Alloc`] for zero-size requests and duplicate
    ///   ids;
    /// * [`ArenaError::Exhausted`] when no shard can place the request,
    ///   with every shard's honest `largest_free`.
    pub fn alloc_probed<P: Probe + ?Sized>(
        &self,
        id: u64,
        size: Words,
        at: Stamp,
        probe: &mut P,
    ) -> Result<PhysAddr, ArenaError> {
        if size == 0 {
            return Err(ArenaError::Alloc(AllocError::ZeroSize));
        }
        let home = self.home_shard(id);
        let n = self.shards.len() as u32;
        {
            let mut g = self.lock(home);
            if g.homed.contains_key(&id) {
                return Err(ArenaError::Alloc(AllocError::AlreadyAllocated));
            }
            if self.is_quarantined(home) {
                // The home shard still does the bookkeeping — only its
                // free list is out of rotation. Reserve and steal.
                g.homed.insert(id, RESERVED);
            } else {
                // Record ownership *before* mutating the allocator. The
                // only unwind point inside `alloc_probed` is probe
                // emission, which fires after the free list is updated
                // and only on success — so a panicking probe leaves
                // both books agreeing the block is live and homed, and
                // the poison ride-out in `lock` keeps serving.
                g.homed.insert(id, home);
                match g.alloc.alloc_probed(id, size, at, probe) {
                    Ok(addr) => return Ok(self.global(home, addr)),
                    Err(AllocError::OutOfStorage { .. }) => {
                        // Reserve the id while we steal, so a racing
                        // duplicate alloc is refused.
                        g.homed.insert(id, RESERVED);
                    }
                    Err(e) => {
                        g.homed.remove(&id);
                        return Err(ArenaError::Alloc(e));
                    }
                }
            }
        }
        // Steal rotation: deterministic order, one lock at a time,
        // skipping quarantined shards. The ownership entry is pointed at
        // the candidate *before* its allocator is tried (same panic-safe
        // ordering as the home path); per-id request ordering means no
        // well-formed free can observe the provisional owner.
        for k in 1..n {
            let s = (home + k) % n;
            if self.is_quarantined(s) {
                continue;
            }
            self.lock(home).homed.insert(id, s);
            let stolen = {
                let mut g = self.lock(s);
                match g.alloc.alloc_probed(id, size, at, probe) {
                    Ok(addr) => Some(Ok(addr)),
                    Err(AllocError::OutOfStorage { .. }) => None,
                    Err(e) => Some(Err(e)),
                }
            };
            match stolen {
                Some(Ok(addr)) => {
                    self.steals.fetch_add(1, Ordering::Relaxed);
                    return Ok(self.global(s, addr));
                }
                Some(Err(e)) => {
                    self.lock(home).homed.remove(&id);
                    return Err(ArenaError::Alloc(e));
                }
                None => {
                    self.lock(home).homed.insert(id, RESERVED);
                }
            }
        }
        // Nothing anywhere: drop the reservation and report honestly.
        self.lock(home).homed.remove(&id);
        Err(self.exhausted(size))
    }

    /// The honest report of a request no shard could place.
    pub(crate) fn exhausted(&self, requested: Words) -> ArenaError {
        let per_shard = (0..self.shard_count())
            .map(|s| {
                let g = self.lock(s);
                ShardFullness {
                    shard: s,
                    largest_free: g.alloc.largest_free(),
                    free_words: g.alloc.free_words(),
                }
            })
            .collect();
        ArenaError::Exhausted {
            requested,
            per_shard,
        }
    }

    /// Allocates `size` words named by address instead of by id: the
    /// block is filed under `name_of(global address)`, which must lie
    /// inside the block, and leaves through
    /// [`ShardedArena::free_at_probed`] alone. The caller picks the
    /// `home` shard; rotation, quarantine skip, steal count and events
    /// are those of [`ShardedArena::alloc_probed`].
    ///
    /// # Errors
    ///
    /// As [`ShardedArena::alloc_probed`]; `AlreadyAllocated` means the
    /// first shard with room has that name live.
    ///
    /// # Panics
    ///
    /// Panics if `home` is not a shard, or (before anything is placed)
    /// if `name_of` names a word outside the block.
    pub fn alloc_at_probed<P: Probe + ?Sized>(
        &self,
        home: u32,
        size: Words,
        name_of: impl Fn(PhysAddr) -> u64,
        at: Stamp,
        probe: &mut P,
    ) -> Result<PhysAddr, ArenaError> {
        if size == 0 {
            return Err(ArenaError::Alloc(AllocError::ZeroSize));
        }
        let n = self.shard_count();
        assert!(home < n, "home shard {home} of {n}");
        for s in (home..n).chain(0..home) {
            if self.is_quarantined(s) {
                continue;
            }
            let name_of = |local: PhysAddr| {
                let addr = self.global(s, local);
                let name = name_of(addr);
                assert!(name.wrapping_sub(addr.0) < size, "name outside its block");
                name
            };
            let placed = (self.lock(s).alloc).alloc_at_probed(size, name_of, at, probe);
            match placed {
                Ok(local) => {
                    if s != home {
                        self.steals.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(self.global(s, local));
                }
                Err(AllocError::OutOfStorage { .. }) => {}
                Err(e) => return Err(ArenaError::Alloc(e)),
            }
        }
        Err(self.exhausted(size))
    }

    /// Frees the allocation `id`, wherever the steal rotation placed
    /// it. See `ShardedArena::free_probed`.
    ///
    /// # Errors
    ///
    /// As `ShardedArena::free_probed`.
    pub fn free(&self, id: u64) -> Result<(), ArenaError> {
        self.free_probed(id, Stamp::default(), &mut NullProbe)
    }

    /// [`ShardedArena::free`] with event emission: the owning shard
    /// emits `Free { words }` through its allocator.
    ///
    /// # Errors
    ///
    /// [`ArenaError::Alloc`] carrying [`AllocError::UnknownUnit`] if
    /// `id` is not live.
    pub(crate) fn free_probed<P: Probe + ?Sized>(
        &self,
        id: u64,
        at: Stamp,
        probe: &mut P,
    ) -> Result<(), ArenaError> {
        let home = self.home_shard(id);
        let owner = {
            let mut g = self.lock(home);
            match g.homed.get(&id) {
                None => return Err(ArenaError::Alloc(AllocError::UnknownUnit)),
                Some(&RESERVED) => return Err(ArenaError::Alloc(AllocError::UnknownUnit)),
                Some(&owner) if owner == home => {
                    // Drop the ownership entry *before* the release: if
                    // the probe panics it does so after the free list
                    // has absorbed the block, so the books still agree.
                    g.homed.remove(&id);
                    if let Err(e) = g.alloc.free_probed(id, at, probe) {
                        g.homed.insert(id, home);
                        return Err(ArenaError::Alloc(e));
                    }
                    return Ok(());
                }
                Some(&owner) => {
                    g.homed.remove(&id);
                    owner
                }
            }
        };
        self.lock(owner)
            .alloc
            .free_probed(id, at, probe)
            .map_err(ArenaError::Alloc)
    }

    /// Frees the blocks [`ShardedArena::alloc_at_probed`] filed under
    /// `names` and returns how many there were: a name that is not live
    /// is skipped, an id-named block's too — a block leaves by the door
    /// it came in. The owner is the shard whose stripe holds the name;
    /// `names` is sorted so that each owner's lock is taken once. Each
    /// block freed emits `Free { words }`.
    pub fn free_at_probed<P: Probe + ?Sized>(
        &self,
        names: &mut [u64],
        at: Stamp,
        probe: &mut P,
    ) -> usize {
        names.sort_unstable();
        let (mut freed, mut rest) = (0, &*names);
        while let Some(&first) = rest.first() {
            let owner = first / self.shard_capacity;
            if owner >= u64::from(self.shard_count()) {
                break; // past the last stripe there is no shard to ask
            }
            // Sorted, so the owner's names are those below its stripe's end.
            let end = (owner + 1) * self.shard_capacity;
            let (run, later) = rest.split_at(rest.partition_point(|&name| name < end));
            let mut g = self.lock(owner as u32);
            for &name in run {
                freed += usize::from(g.alloc.free_at_probed(name, at, probe).is_ok());
            }
            rest = later;
        }
        freed
    }

    /// Allocations that landed on a non-home shard so far.
    #[must_use]
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Whether shard `s` is currently quarantined.
    #[must_use]
    pub(crate) fn is_quarantined(&self, s: u32) -> bool {
        self.quarantined[s as usize].load(Ordering::Acquire)
    }

    /// Quarantines shard `s`: placement (home and steal rotation) skips
    /// it until `ShardedArena::readmit`; frees still drain into it.
    /// Returns `true` if this call changed the state.
    pub fn quarantine(&self, s: u32) -> bool {
        !self.quarantined[s as usize].swap(true, Ordering::AcqRel)
    }

    /// Readmits shard `s` to the placement rotation. Returns `true` if
    /// this call changed the state.
    pub(crate) fn readmit(&self, s: u32) -> bool {
        self.quarantined[s as usize].swap(false, Ordering::AcqRel)
    }

    /// Number of shards currently quarantined.
    #[must_use]
    pub fn quarantined_count(&self) -> u32 {
        self.quarantined
            .iter()
            .filter(|q| q.load(Ordering::Acquire))
            .count() as u32
    }

    /// Compacts shard `s` in place — the pressured-shard coalesce rung
    /// of the degradation ladder. Live blocks slide toward the shard
    /// base (relocation is transparent here exactly as in
    /// `dsa_freelist::compaction`: addresses are logical), and the pass
    /// is bracketed by `CompactionStart`/`CompactionDone` events.
    pub(crate) fn compact_shard<P: Probe + ?Sized>(
        &self,
        s: u32,
        at: Stamp,
        probe: &mut P,
    ) -> CompactionReport {
        let mut g = self.lock(s);
        compact_probed(&mut g.alloc, |_, _, _, _| {}, at, probe)
    }

    /// Quarantines shard `s`, rebuilds its free list from the
    /// live-allocation book of record, audits the rebuilt state
    /// (including word conservation), and readmits it — the
    /// self-healing path taken when corruption is detected.
    ///
    /// Emits `ShardQuarantined` on entry and `ShardRestored` on
    /// successful readmission. On failure the shard *stays quarantined*
    /// (frees drain, placement avoids it) and the violated invariant is
    /// returned.
    ///
    /// # Errors
    ///
    /// Returns the audit failure if the rebuilt shard still violates an
    /// invariant.
    pub(crate) fn heal_shard<P: Probe + ?Sized>(
        &self,
        s: u32,
        at: Stamp,
        probe: &mut P,
    ) -> Result<(), String> {
        if self.quarantine(s) {
            probe.emit(EventKind::ShardQuarantined { shard: s }, at);
        }
        {
            let mut g = self.lock(s);
            // Sum the allocation book directly — `allocated_words()`
            // is capacity minus the (corrupt) free store right now.
            let live: Words = g
                .alloc
                .allocations_by_address()
                .iter()
                .map(|&(_, _, size)| size)
                .sum();
            g.alloc.rebuild_from_live();
            g.alloc.audit()?;
            // Conservation, stated independently of the audit: the
            // rebuilt free store must be exactly the complement of the
            // live blocks that survived.
            let free = g.alloc.free_words();
            if live + free != self.shard_capacity {
                return Err(format!(
                    "rebuild lost words: {live} live + {free} free != {} capacity",
                    self.shard_capacity
                ));
            }
        }
        self.readmit(s);
        probe.emit(EventKind::ShardRestored { shard: s }, at);
        Ok(())
    }

    /// Deliberately corrupts shard `s`'s free list (chaos injection
    /// hook). The damage is always detected and healed by
    /// [`ShardedArena::heal_shard`]. Not for production use.
    #[doc(hidden)]
    pub(crate) fn corrupt_shard_for_chaos(&self, s: u32) {
        self.lock(s).alloc.corrupt_free_list_for_chaos();
    }

    /// The arena-wide hole map: every shard's free holes as
    /// `(global_address, size)`, in address order (shards visited in
    /// stripe order, each copied under its own lock).
    ///
    /// This is what the fragmentation heatmap sampler snapshots — feed
    /// it to `HeatFrame::capture` with [`ShardedArena::capacity`].
    #[must_use]
    pub fn hole_map(&self) -> Vec<(u64, Words)> {
        let mut holes = Vec::new();
        for s in 0..self.shards.len() as u32 {
            let g = self.lock(s);
            let base = u64::from(s) * self.shard_capacity;
            holes.extend(g.alloc.holes().map(|(a, size)| (base + a, size)));
        }
        holes
    }

    /// A point-in-time view of every shard (each copied out under its
    /// own lock; the arena keeps serving between shards).
    #[must_use]
    pub fn snapshot(&self) -> ArenaSnapshot {
        let shards = (0..self.shards.len() as u32)
            .map(|s| {
                let g = self.lock(s);
                ShardSnapshot {
                    shard: s,
                    alloc: g.alloc.snapshot(),
                    homed: g.homed.len(),
                    quarantined: self.is_quarantined(s),
                }
            })
            .collect();
        ArenaSnapshot {
            shards,
            steals: self.steals(),
        }
    }

    /// Verifies every shard's allocator invariants plus cross-shard
    /// ownership consistency, from a quiescent state.
    ///
    /// # Panics
    ///
    /// Panics if any shard's free list is corrupt, an ownership entry
    /// points at a shard that doesn't hold the id, or the ownership
    /// maps disagree with the live-allocation count.
    pub fn check_invariants(&self) {
        let guards: Vec<MutexGuard<'_, Shard>> = (0..self.shards.len() as u32)
            .map(|s| self.lock(s))
            .collect();
        let mut owned_total = 0usize;
        for g in &guards {
            g.alloc.check_invariants();
            owned_total += g.alloc.snapshot().live_allocs;
        }
        // Address-named blocks have no ownership entry to be found by.
        let mut homed_total: usize = guards.iter().map(|g| g.alloc.address_named()).sum();
        for g in &guards {
            for (&id, &owner) in &g.homed {
                assert_ne!(owner, RESERVED, "reservation leaked for id {id}");
                let owner_guard = &guards[owner as usize];
                assert!(
                    owner_guard.alloc.lookup(id).is_some(),
                    "id {id} homed here but not live on shard {owner}"
                );
                homed_total += 1;
            }
        }
        assert_eq!(
            homed_total, owned_total,
            "ownership maps plus address-named blocks out of step with live allocations"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The global address and size of the live id-named block `id`.
    fn lookup(arena: &ShardedArena, id: u64) -> Option<(PhysAddr, Words)> {
        (0..arena.shard_count()).find_map(|s| {
            let block = arena.lock(s).alloc.lookup(id);
            block.map(|(addr, size)| (arena.global(s, addr), size))
        })
    }

    #[test]
    fn alloc_free_roundtrip_across_shards() {
        let arena = ShardedArena::new(4, 500, Placement::FirstFit);
        for id in 0..20 {
            arena.alloc(id, 50).unwrap();
        }
        assert_eq!(arena.snapshot().allocated_words(), 1000);
        arena.check_invariants();
        for id in 0..20 {
            arena.free(id).unwrap();
        }
        assert_eq!(arena.snapshot().free_words(), 2000);
        arena.check_invariants();
    }

    #[test]
    fn addresses_land_in_the_owning_shards_stripe() {
        let arena = ShardedArena::new(8, 1000, Placement::BestFit);
        for id in 0..40 {
            let addr = arena.alloc(id, 10).unwrap();
            let (found, size) = lookup(&arena, id).unwrap();
            assert_eq!(found, addr);
            assert_eq!(size, 10);
            let shard = addr.value() / 1000;
            assert!(shard < 8);
        }
        arena.check_invariants();
    }

    #[test]
    fn overflow_steals_to_a_neighbour() {
        let arena = ShardedArena::new(2, 100, Placement::FirstFit);
        // Fill whichever shard id 0 homes to, then overflow it.
        let home = arena.home_shard(0);
        arena.alloc(0, 100).unwrap();
        // Find another id with the same home to force a steal.
        let id2 = (1..).find(|&i| arena.home_shard(i) == home).unwrap();
        let addr = arena.alloc(id2, 50).unwrap();
        let other = 1 - home;
        assert_eq!(addr.value() / 100, u64::from(other), "stolen placement");
        assert_eq!(arena.steals(), 1);
        arena.free(id2).unwrap();
        arena.free(0).unwrap();
        arena.check_invariants();
    }

    #[test]
    fn exhaustion_reports_every_shard_honestly() {
        let arena = ShardedArena::new(2, 100, Placement::FirstFit);
        arena.alloc(1, 90).unwrap();
        arena.alloc(2, 90).unwrap();
        let err = arena.alloc(3, 50).unwrap_err();
        match err {
            ArenaError::Exhausted {
                requested,
                per_shard,
            } => {
                assert_eq!(requested, 50);
                assert_eq!(per_shard.len(), 2);
                for (i, s) in per_shard.iter().enumerate() {
                    assert_eq!(s.shard, i as u32);
                    assert_eq!(s.largest_free, 10);
                    assert_eq!(s.free_words, 10);
                }
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
        // The failed request leaves no residue.
        arena.check_invariants();
        assert_eq!(lookup(&arena, 3), None);
    }

    #[test]
    fn hole_map_spans_the_stripes_globally() {
        let arena = ShardedArena::new(2, 100, Placement::FirstFit);
        assert_eq!(arena.hole_map(), vec![(0, 100), (100, 100)]);
        let home = arena.home_shard(0);
        arena.alloc(0, 40).unwrap();
        let holes = arena.hole_map();
        assert_eq!(holes.len(), 2);
        // The home shard's hole starts past the allocation; the other
        // stripe is untouched.
        let base = u64::from(home) * 100;
        assert!(holes.contains(&(base + 40, 60)), "{holes:?}");
        let total: Words = holes.iter().map(|&(_, s)| s).sum();
        assert_eq!(total, 160);
    }

    #[test]
    fn typed_errors_pass_through() {
        let arena = ShardedArena::new(4, 100, Placement::BestFit);
        assert_eq!(
            arena.alloc(1, 0),
            Err(ArenaError::Alloc(AllocError::ZeroSize))
        );
        arena.alloc(1, 10).unwrap();
        assert_eq!(
            arena.alloc(1, 10),
            Err(ArenaError::Alloc(AllocError::AlreadyAllocated))
        );
        assert_eq!(
            arena.free(99),
            Err(ArenaError::Alloc(AllocError::UnknownUnit))
        );
    }

    #[test]
    fn quarantined_shard_is_skipped_but_still_drains() {
        let arena = ShardedArena::new(2, 100, Placement::FirstFit);
        let home = arena.home_shard(0);
        arena.alloc(0, 30).unwrap();
        // Sideline the home shard: the next alloc homing there must be
        // placed on the neighbour, counted as a steal.
        assert!(arena.quarantine(home));
        let id2 = (1..).find(|&i| arena.home_shard(i) == home).unwrap();
        let addr = arena.alloc(id2, 30).unwrap();
        assert_eq!(addr.value() / 100, u64::from(1 - home), "steered away");
        assert_eq!(arena.steals(), 1);
        // Frees still drain into the quarantined shard.
        arena.free(0).unwrap();
        assert!(arena.readmit(home));
        let id3 = (id2 + 1..).find(|&i| arena.home_shard(i) == home).unwrap();
        let back = arena.alloc(id3, 30).unwrap();
        assert_eq!(back.value() / 100, u64::from(home), "readmitted");
        arena.check_invariants();
        let snap = arena.snapshot();
        assert!(snap.shards.iter().all(|s| !s.quarantined));
    }

    #[test]
    fn every_shard_quarantined_reports_honest_exhaustion() {
        let arena = ShardedArena::new(2, 100, Placement::FirstFit);
        arena.quarantine(0);
        arena.quarantine(1);
        assert_eq!(arena.quarantined_count(), 2);
        match arena.alloc(5, 10).unwrap_err() {
            ArenaError::Exhausted { requested, .. } => assert_eq!(requested, 10),
            other => panic!("expected Exhausted, got {other:?}"),
        }
        assert_eq!(lookup(&arena, 5), None, "no reservation residue");
        arena.check_invariants();
    }

    #[test]
    fn injected_corruption_is_detected_and_healed_in_place() {
        let arena = ShardedArena::new(2, 100, Placement::BestFit);
        for id in 0..6 {
            arena.alloc(id, 10).unwrap();
        }
        arena.free(2).unwrap();
        let live_before = arena.snapshot().allocated_words();
        let victim = 0;
        arena.corrupt_shard_for_chaos(victim);
        assert!(
            arena.lock(victim).alloc.audit().is_err(),
            "corruption detected"
        );
        let mut probe = dsa_probe::CountingProbe::default();
        arena
            .heal_shard(victim, Stamp::default(), &mut probe)
            .unwrap();
        assert_eq!(probe.shards_quarantined, 1);
        assert_eq!(probe.shards_restored, 1);
        assert!(!arena.is_quarantined(victim), "readmitted after heal");
        assert!(arena.lock(victim).alloc.audit().is_ok());
        assert_eq!(arena.snapshot().allocated_words(), live_before);
        arena.check_invariants();
        // The healed shard keeps serving.
        for id in 0..6 {
            let _ = arena.free(id);
        }
        assert_eq!(arena.snapshot().free_words(), 200);
        arena.check_invariants();
    }

    #[test]
    fn one_shard_arena_matches_the_bare_allocator() {
        // The anchor property: with one shard there is no hashing, no
        // stealing, and no divergence from the sequential allocator.
        let arena = ShardedArena::new(1, 1000, Placement::BestFit);
        let mut bare = FreeListAllocator::new(1000, Placement::BestFit);
        let sizes = [100u64, 37, 200, 64, 300, 12, 150];
        for (i, &size) in sizes.iter().enumerate() {
            let id = i as u64;
            assert_eq!(arena.alloc(id, size).ok(), bare.alloc(id, size).ok());
        }
        for id in [1u64, 3, 5] {
            assert!(arena.free(id).is_ok() == bare.free(id).is_ok());
        }
        // Refill into the holes: placement decisions must agree.
        for (i, &size) in [30u64, 60, 90].iter().enumerate() {
            let id = 100 + i as u64;
            assert_eq!(arena.alloc(id, size).ok(), bare.alloc(id, size).ok());
        }
        let snap = arena.snapshot();
        assert_eq!(snap.shards[0].alloc.free_words, bare.free_words());
        assert_eq!(snap.stats().probes, bare.stats().probes);
        arena.check_invariants();
    }
}
