//! The size-class heap: real memory behind the simulated books.
//!
//! A [`DsaHeap`] owns one contiguous region obtained from
//! [`std::alloc::System`] (page-aligned, sized in words like every
//! arena in this workspace) and splits it three ways:
//!
//! * **Slab pages.** At construction, one span per size class up to
//!   2 KiB is carved out of the backing [`ShardedArena`] and handed to
//!   a lock-free [`FixedSlab`]. Each span's base is rounded up to a
//!   4096-byte boundary inside the region, so every power-of-two class
//!   is naturally aligned — that is how over-aligned small requests
//!   are served without headers.
//! * **Arena classes.** The ladder goes on to 32 KiB with sixteen
//!   classes that have no slab: each block is one arena block of
//!   exactly the class size, parked and carried between threads by the
//!   magazines and depots like a slab unit.
//! * **The large path.** Everything past the ladder, over-aligned past
//!   a word, or overflowing an exhausted slab is allocated from the
//!   arena directly, named by the word offset of the pointer handed
//!   out: the caller holds that pointer until the free and the block
//!   never moves, so the arena's own book is the only one kept.
//!
//! Nothing in the region carries a header: frees recompute the class
//! from the caller's `Layout`, the slab's span answers "is this mine",
//! and arena blocks say the address. A pointer outside the region
//! belongs to [`System`] (the fallback of last resort, and the
//! destination of the heap's own bookkeeping allocations when used
//! through [`crate::GlobalDsa`]).
//!
//! The probe discipline mirrors the simulators: every *backend*
//! operation — slab pop/push, arena alloc/free — emits
//! `Alloc { words, searched }` / `Free { words }` into the heap's
//! [`TelemetryProbe`]. Magazine hits are invisible here by design (they
//! are the fast path being fast); [`DsaHeap::check_reconciliation`]
//! proves the probe's net ledger equals slab-live plus arena-live
//! words, magazines included, because a magazine-parked object is
//! backend-live.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dsa_arena::{FixedSlab, ShardedArena};
use dsa_core::ids::{PhysAddr, Words};
use dsa_core::sizeclass::SizeClasses;
use dsa_freelist::freelist::Placement;
use dsa_probe::{EventKind, Probe, Stamp};
use dsa_telemetry::TelemetryProbe;

use crate::magazine::{Depot, MAG_MAX};

/// Bytes per storage word, the unit the backing arena accounts in.
pub(crate) const BYTES_PER_WORD: u64 = 8;

/// The size-class ladder's top, and the largest class with a slab:
/// the classes between are arena blocks of exactly the class size.
const LADDER_MAX_BYTES: u64 = 32 << 10;
const SLAB_MAX_BYTES: u64 = 2 << 10;

/// Slab spans are based at multiples of this many words (4096 bytes),
/// so power-of-two unit sizes are naturally aligned.
const PAGE_ALIGN_WORDS: u64 = 512;

/// Alignment of the backing region itself, in bytes.
const REGION_ALIGN: usize = 4096;

/// Arena ids at and above this are slab-span carves (one per class).
/// Large blocks share the arena's book under their word offsets, which
/// no region is big enough to bring this high.
const CARVE_ID_BASE: u64 = 1 << 60;

/// Quick-list geometry for the large path, whose quick lists every heap
/// arms (see `ShardedArena`): blocks up to this many words ride the
/// per-shard LIFO caches.
const QUICK_MAX_WORDS: Words = 256;
const QUICK_DEPTH: usize = 16;

/// Construction parameters for a [`DsaHeap`].
///
/// `const`-constructible so a [`crate::GlobalDsa`] can be a `static`.
#[derive(Clone, Copy, Debug)]
pub struct HeapConfig {
    /// Backing region size in words (bytes = `arena_words * 8`). Must
    /// be divisible by `shards`.
    pub arena_words: Words,
    /// Shards of the backing arena (large-path concurrency).
    pub shards: u32,
    /// Units per size-class slab.
    pub class_units: u32,
    /// Objects per magazine, `1..=`[`MAG_MAX`].
    pub magazine_depth: usize,
}

impl HeapConfig {
    /// The default geometry: a 32 MiB region, 8 shards, 1024 units per
    /// class (~13 MiB of slab pages), magazines at their full depth
    /// ([`MAG_MAX`]). A magazine changes hands by pointer, so a deeper
    /// one costs an exchange nothing more, and a slab class meets the
    /// depot half as often as at 32; it may also park twice as much.
    pub const DEFAULT: HeapConfig = HeapConfig {
        arena_words: 4 << 20,
        shards: 8,
        class_units: 1024,
        magazine_depth: MAG_MAX,
    };

    /// A small geometry for tests: a 2 MiB region, 4 shards, 64 units
    /// per class, 8-object magazines.
    #[must_use]
    pub const fn small() -> HeapConfig {
        HeapConfig {
            arena_words: 1 << 18,
            shards: 4,
            class_units: 64,
            magazine_depth: 8,
        }
    }
}

impl Default for HeapConfig {
    fn default() -> HeapConfig {
        HeapConfig::DEFAULT
    }
}

/// The backing region: one `System` allocation the whole heap lives in.
struct Region {
    base: *mut u8,
    bytes: usize,
    layout: Layout,
}

/// One size class: a lock-free slab over a span of the region.
struct ClassSlab {
    slab: FixedSlab,
    /// Word offset of unit 0 within the region (multiple of
    /// [`PAGE_ALIGN_WORDS`]).
    base_words: u64,
    /// Words the units cover (`class_units * unit_words`).
    span_words: u64,
}

/// Operation counters, snapshotted with [`DsaHeap::stats`].
///
/// Magazine and depot-exchange counters are accumulated thread-locally
/// and folded in when a cache flushes (explicit flush, thread exit), so
/// they trail the instantaneous truth until then.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Allocations served from a thread's magazines (no atomics).
    pub magazine_allocs: u64,
    /// Frees absorbed by a thread's magazines (no atomics).
    pub magazine_frees: u64,
    /// Magazine exchanges with a per-class depot.
    pub depot_exchanges: u64,
    /// Small allocations that fell to the large path because the class
    /// slab was exhausted.
    pub slab_exhausted: u64,
    /// Allocations served by the arena's large path.
    pub large_allocs: u64,
    /// Frees returned to the arena's large path.
    pub large_frees: u64,
    /// Allocations passed through to [`System`] (arena exhausted).
    pub system_allocs: u64,
    /// Frees passed through to [`System`].
    pub system_frees: u64,
    /// Frees of pointers the heap does not recognize.
    pub bad_frees: u64,
}

/// What allocating threads write on the slow paths, on a cache line
/// that freeing threads leave alone (and the other way round below):
/// a producer and a consumer must not trade a line per large block.
#[derive(Default)]
#[repr(align(64))]
struct AllocSide {
    slab_exhausted: AtomicU64,
    large_allocs: AtomicU64,
    system_allocs: AtomicU64,
    /// Deals large requests round the arena's shards.
    rotor: AtomicU64,
}

#[derive(Default)]
#[repr(align(64))]
struct FreeSide {
    large_frees: AtomicU64,
    system_frees: AtomicU64,
    bad_frees: AtomicU64,
}

#[derive(Default)]
struct Counters {
    alloc_side: AllocSide,
    free_side: FreeSide,
    /// Folded in from the thread caches when they flush.
    magazine_allocs: AtomicU64,
    magazine_frees: AtomicU64,
    depot_exchanges: AtomicU64,
}

/// The three-layer heap. See the [crate docs](crate) for the layout.
///
/// All methods take `&self`; the slab layer and the magazine depots are
/// lock-free, and the large path locks one arena shard.
/// [`crate::ThreadCache`] sits on top and removes even the atomics from
/// the common path.
pub struct DsaHeap {
    config: HeapConfig,
    classes: SizeClasses,
    region: Region,
    arena: ShardedArena,
    slabs: Vec<ClassSlab>,
    depots: Vec<Depot>,
    telemetry: TelemetryProbe,
    counters: Counters,
}

// SAFETY: the raw region pointer is owned exclusively by the heap; all
// access to the memory behind it is mediated by the lock-free slabs
// and the shard locks.
unsafe impl Send for DsaHeap {}
// SAFETY: as above — `&DsaHeap` exposes only atomic/locked operations.
unsafe impl Sync for DsaHeap {}

impl DsaHeap {
    /// Builds the heap: maps the region, carves one aligned slab span
    /// per size class out of the backing arena, and arms the quick
    /// lists.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (`arena_words` not
    /// divisible by `shards`, zero or oversized `magazine_depth`) or
    /// too small for the slab spans to fit, and aborts via
    /// [`std::alloc::handle_alloc_error`] if the system refuses the
    /// region.
    #[must_use]
    pub fn new(config: HeapConfig) -> DsaHeap {
        assert!(config.shards > 0, "need at least one shard");
        assert!(
            config.arena_words % u64::from(config.shards) == 0,
            "arena_words must divide evenly into shards"
        );
        assert!(
            (1..=MAG_MAX).contains(&config.magazine_depth),
            "magazine_depth must be 1..={MAG_MAX}"
        );
        assert!(config.class_units > 0, "need at least one unit per class");
        let classes = SizeClasses::jemalloc(BYTES_PER_WORD, LADDER_MAX_BYTES);

        let bytes = usize::try_from(config.arena_words * BYTES_PER_WORD)
            .unwrap_or_else(|_| panic!("region too large for this platform"));
        let Ok(layout) = Layout::from_size_align(bytes, REGION_ALIGN) else {
            panic!("degenerate region layout ({bytes} bytes)");
        };
        // SAFETY: `layout` has non-zero size (arena_words >= shards > 0).
        let base = unsafe { System.alloc(layout) };
        if base.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        let region = Region {
            base,
            bytes,
            layout,
        };

        let arena = ShardedArena::new(
            config.shards,
            config.arena_words / u64::from(config.shards),
            Placement::FirstFit,
        );
        arena.enable_quick_lists(QUICK_MAX_WORDS, QUICK_DEPTH);
        let telemetry = TelemetryProbe::new();

        // Carve one span per slab class, with enough slack to round the
        // base up to a page boundary. The carves stay live for the
        // heap's lifetime and are part of the probe ledger.
        let slab_classes = classes
            .classes()
            .iter()
            .take_while(|&&b| b <= SLAB_MAX_BYTES);
        let mut slabs = Vec::new();
        for (c, &class_bytes) in slab_classes.enumerate() {
            let unit_words = class_bytes / BYTES_PER_WORD;
            let span_words = unit_words * u64::from(config.class_units);
            let carve = span_words + PAGE_ALIGN_WORDS;
            let mut probe = &telemetry;
            let addr = arena
                .alloc_probed(
                    CARVE_ID_BASE + c as u64,
                    carve,
                    Stamp::default(),
                    &mut probe,
                )
                .unwrap_or_else(|e| {
                    panic!("arena too small for the class-{class_bytes} slab span: {e}")
                });
            let base_words = addr.0.next_multiple_of(PAGE_ALIGN_WORDS);
            debug_assert!(base_words + span_words <= addr.0 + carve);
            slabs.push(ClassSlab {
                slab: FixedSlab::new(config.class_units, unit_words),
                base_words,
                span_words,
            });
        }
        let depots = (0..classes.count()).map(|_| Depot::default()).collect();

        DsaHeap {
            config,
            classes,
            region,
            arena,
            slabs,
            depots,
            telemetry,
            counters: Counters::default(),
        }
    }

    /// The configuration the heap was built with.
    #[must_use]
    pub(crate) fn config(&self) -> &HeapConfig {
        &self.config
    }

    /// The size-class ladder (sizes in bytes).
    #[must_use]
    pub(crate) fn classes(&self) -> &SizeClasses {
        &self.classes
    }

    /// The live telemetry probe every backend operation flows through.
    #[must_use]
    pub fn telemetry(&self) -> &TelemetryProbe {
        &self.telemetry
    }

    /// Is `ptr` inside the heap's backing region?
    #[must_use]
    pub(crate) fn contains(&self, ptr: *const u8) -> bool {
        let p = ptr as usize;
        let b = self.region.base as usize;
        p >= b && p < b + self.region.bytes
    }

    /// Snapshot of the operation counters.
    #[must_use]
    pub fn stats(&self) -> HeapStats {
        let c = &self.counters;
        let (a, f) = (&c.alloc_side, &c.free_side);
        HeapStats {
            magazine_allocs: c.magazine_allocs.load(Ordering::Relaxed),
            magazine_frees: c.magazine_frees.load(Ordering::Relaxed),
            depot_exchanges: c.depot_exchanges.load(Ordering::Relaxed),
            slab_exhausted: a.slab_exhausted.load(Ordering::Relaxed),
            large_allocs: a.large_allocs.load(Ordering::Relaxed),
            large_frees: f.large_frees.load(Ordering::Relaxed),
            system_allocs: a.system_allocs.load(Ordering::Relaxed),
            system_frees: f.system_frees.load(Ordering::Relaxed),
            bad_frees: f.bad_frees.load(Ordering::Relaxed),
        }
    }

    /// Words live in the backend: arena-allocated (slab spans + large
    /// blocks) plus slab-live units. Objects parked in magazines and
    /// depots count as live — the backend has handed them out.
    #[must_use]
    pub fn live_words(&self) -> Words {
        // Keep the arena snapshot's own vector out of the books when
        // this heap is the global allocator (see check_reconciliation).
        let _guard = crate::global::DepthGuard::enter();
        let slab_live: Words = self
            .slabs
            .iter()
            .map(|s| s.slab.live_units() * s.slab.unit_words())
            .sum();
        self.arena.snapshot().allocated_words() + slab_live
    }

    /// Objects currently parked in full depot magazines, per class sum.
    /// Safe to call while other threads exchange: it reads the lengths
    /// the depot slots carry, never a magazine. Each slot is read once,
    /// so a class never reads past `DEPOT_MAX_FULL` magazines.
    #[must_use]
    pub fn depot_parked(&self) -> u64 {
        self.depots.iter().map(|d| d.full.parked() as u64).sum()
    }

    // ---- allocation paths -------------------------------------------------

    /// The size class a layout routes to, or `None` for the large path.
    /// Over-aligned requests map to the covering power-of-two slab
    /// class (naturally aligned in the page-aligned spans), and past
    /// the slabs to the large path.
    #[must_use]
    pub(crate) fn small_class(&self, layout: Layout) -> Option<usize> {
        let size = layout.size() as u64;
        let align = layout.align() as u64;
        if align <= BYTES_PER_WORD {
            self.classes.class_of(size)
        } else {
            (self.classes.aligned_class_of(size, align)).filter(|&c| c < self.slabs.len())
        }
    }

    /// The first class with no slab: an arena class.
    #[must_use]
    pub(crate) fn first_arena_class(&self) -> usize {
        self.slabs.len()
    }

    /// Does `ptr` fall inside class `c`'s slab span?
    #[must_use]
    pub(crate) fn in_class_slab(&self, c: usize, ptr: *const u8) -> bool {
        let (Some(off), Some(cs)) = (self.word_off_of(ptr), self.slabs.get(c)) else {
            return false;
        };
        off >= cs.base_words && off < cs.base_words + cs.span_words
    }

    /// Does a freed block of class `c` at `ptr` park in a magazine: a
    /// unit of its slab, or an arena-class block (always its size)?
    #[must_use]
    pub(crate) fn parks(&self, c: usize, ptr: *const u8) -> bool {
        self.in_class_slab(c, ptr) || (c >= self.slabs.len() && self.contains(ptr))
    }

    /// Pops one unit from class `c`'s slab, emitting `Alloc` to the
    /// probe. `None` when the slab is exhausted or the class has none
    /// (caller falls to the large path).
    pub(crate) fn slab_pop(&self, c: usize) -> Option<*mut u8> {
        let cs = self.slabs.get(c)?;
        match cs.slab.alloc() {
            Ok(unit) => {
                let mut probe = &self.telemetry;
                probe.emit(
                    EventKind::Alloc {
                        words: cs.slab.unit_words(),
                        searched: u64::from(unit.attempts),
                    },
                    Stamp::default(),
                );
                Some(self.ptr_at(cs.base_words + unit.addr.0))
            }
            Err(_) => {
                let side = &self.counters.alloc_side;
                side.slab_exhausted.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Pushes a unit back onto class `c`'s slab, emitting `Free`.
    /// Misrouted pointers (not on a unit boundary of this span) are
    /// counted, not freed.
    pub(crate) fn slab_push(&self, c: usize, ptr: *mut u8) {
        let cs = &self.slabs[c];
        let side = &self.counters.free_side;
        let Some(off) = self.word_off_of(ptr) else {
            side.bad_frees.fetch_add(1, Ordering::Relaxed);
            return;
        };
        debug_assert!(off >= cs.base_words && off < cs.base_words + cs.span_words);
        let rel = off - cs.base_words;
        debug_assert_eq!(rel % cs.slab.unit_words(), 0);
        #[allow(clippy::cast_possible_truncation)] // units fit u32 by construction
        let unit = (rel / cs.slab.unit_words()) as u32;
        if cs.slab.free(unit).is_ok() {
            let mut probe = &self.telemetry;
            probe.emit(
                EventKind::Free {
                    words: cs.slab.unit_words(),
                },
                Stamp::default(),
            );
        } else {
            side.bad_frees.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Allocates via the arena's large path, the block named by the
    /// word offset of the pointer returned. A request in the ladder's
    /// range is rounded up to its class, so that whatever frees the
    /// block may park it for the next request of that class. A full
    /// arena is asked again if `make_room` says it returned something,
    /// and only then does the request fall to [`System`]. Never returns
    /// null unless `System` does.
    pub(crate) fn large_alloc(&self, layout: Layout, make_room: impl FnOnce() -> bool) -> *mut u8 {
        let align = layout.align() as u64;
        let mut bytes = layout.size().max(1) as u64;
        if let (true, Some(c)) = (align <= BYTES_PER_WORD, self.classes.class_of(bytes)) {
            bytes = self.classes.classes()[c];
        }
        // Over-aligned blocks get `align` slack bytes so the aligned
        // pointer always fits (arena addresses are only word-aligned).
        let extra = if align > BYTES_PER_WORD { align } else { 0 };
        let words = (bytes + extra).div_ceil(BYTES_PER_WORD);
        // The word the caller's pointer lands on: the block's first
        // that is aligned, which the slack keeps inside the block (a
        // word-aligned address already satisfies any smaller `align`).
        let handed_out = |addr: PhysAddr| {
            let raw = self.ptr_at(addr.0) as usize;
            let aligned = (raw + (layout.align() - 1)) & !(layout.align() - 1);
            ((aligned - self.region.base as usize) as u64) / BYTES_PER_WORD
        };
        let side = &self.counters.alloc_side;
        let place = || {
            let turn = side.rotor.fetch_add(1, Ordering::Relaxed);
            let home = (turn % u64::from(self.config.shards)) as u32;
            let mut probe = &self.telemetry;
            (self.arena).alloc_at_probed(home, words, handed_out, Stamp::default(), &mut probe)
        };
        let mut placed = place();
        if placed.is_err() && make_room() {
            placed = place();
        }
        match placed {
            Ok(addr) => {
                side.large_allocs.fetch_add(1, Ordering::Relaxed);
                self.ptr_at(handed_out(addr))
            }
            Err(_) => self.system_alloc(layout),
        }
    }

    /// Allocates from [`System`], counted in `system_allocs`.
    pub(crate) fn system_alloc(&self, layout: Layout) -> *mut u8 {
        let side = &self.counters.alloc_side;
        side.system_allocs.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the layout is padded to non-zero size.
        unsafe { System.alloc(nonzero(layout)) }
    }

    /// Returns large-path blocks to the arena by the names their
    /// addresses give them, one shard lock per shard touched. An
    /// interior, foreign or already-freed pointer names no live block
    /// and is counted, not freed.
    pub(crate) fn large_free(&self, names: &mut [u64]) {
        let side = &self.counters.free_side;
        let mut probe = &self.telemetry;
        let freed = (self.arena).free_at_probed(names, Stamp::default(), &mut probe);
        side.large_frees.fetch_add(freed as u64, Ordering::Relaxed);
        if freed < names.len() {
            let bad = (names.len() - freed) as u64;
            side.bad_frees.fetch_add(bad, Ordering::Relaxed);
        }
    }

    /// Frees a pointer that is not a live slab unit: large-path blocks
    /// by name, anything outside the region via [`System`].
    ///
    /// # Safety
    ///
    /// `ptr` must have been returned by this heap (or `System` through
    /// it) with the same `layout`, and not freed since.
    pub(crate) unsafe fn dealloc_outside_slab(&self, ptr: *mut u8, layout: Layout) {
        if let Some(off) = self.word_off_of(ptr) {
            self.large_free(&mut [off]);
        } else {
            let side = &self.counters.free_side;
            side.system_frees.fetch_add(1, Ordering::Relaxed);
            // SAFETY: outside the region means the block came from
            // `System` with this (padded) layout — the caller's
            // contract.
            unsafe { System.dealloc(ptr, nonzero(layout)) }
        }
    }

    /// Returns blocks of class `c` to the backend: units to the class's
    /// slab, arena-class blocks to the arena by name, in one batch.
    pub(crate) fn release(&self, c: usize, ptrs: &[*mut u8]) {
        if c < self.slabs.len() {
            for &p in ptrs {
                self.slab_push(c, p);
            }
        } else if !ptrs.is_empty() {
            let mut names = [u64::MAX; MAG_MAX];
            for (name, &p) in names.iter_mut().zip(ptrs) {
                *name = self.word_off_of(p).unwrap_or(u64::MAX);
            }
            self.large_free(&mut names[..ptrs.len()]);
        }
    }

    /// Allocates without a thread cache: slab pop for slab classes,
    /// large path otherwise (and when the slab is exhausted).
    ///
    /// This is the "no-magazine" baseline the benchmarks compare the
    /// cached path against, and the fallback when thread-local storage
    /// is unavailable.
    #[must_use]
    pub fn alloc_direct(&self, layout: Layout) -> *mut u8 {
        match self.small_class(layout) {
            Some(c) => self
                .slab_pop(c)
                .unwrap_or_else(|| self.large_alloc(layout, || false)),
            None => self.large_alloc(layout, || false),
        }
    }

    /// Frees a block from [`DsaHeap::alloc_direct`] (or any heap path —
    /// routing is by layout and region geometry, not by who allocated).
    ///
    /// # Safety
    ///
    /// `ptr` must be live and have been allocated with `layout` from
    /// this heap.
    pub unsafe fn dealloc_direct(&self, ptr: *mut u8, layout: Layout) {
        if let Some(c) = self.small_class(layout) {
            if self.in_class_slab(c, ptr) {
                self.slab_push(c, ptr);
                return;
            }
        }
        // SAFETY: forwarded caller contract.
        unsafe { self.dealloc_outside_slab(ptr, layout) }
    }

    // ---- magazine support -------------------------------------------------

    /// Class `c`'s depot.
    pub(crate) fn depot(&self, c: usize) -> &Depot {
        &self.depots[c]
    }

    /// Folds a cache's local magazine and depot counters into the
    /// heap's.
    pub(crate) fn fold_magazine_counters(&self, allocs: u64, frees: u64, exchanges: u64) {
        let c = &self.counters;
        c.magazine_allocs.fetch_add(allocs, Ordering::Relaxed);
        c.magazine_frees.fetch_add(frees, Ordering::Relaxed);
        c.depot_exchanges.fetch_add(exchanges, Ordering::Relaxed);
    }

    /// Drains every depot's full magazines back to the slabs and the
    /// arena. Parked *thread* magazines are untouched — flush those via
    /// their caches.
    pub fn flush_depots(&self) {
        // The arena's books may grow under the shard locks taken here:
        // an installed `GlobalDsa` must not be asked for that memory.
        let _guard = crate::global::DepthGuard::enter();
        self.drain_depots(0);
    }

    /// Drains the depots of classes `from..` to the backend; `true` if
    /// they held anything.
    pub(crate) fn drain_depots(&self, from: usize) -> bool {
        let mut drained = false;
        for (c, depot) in self.depots.iter().enumerate().skip(from) {
            while let Some(mut mag) = depot.full.take() {
                self.release(c, mag.drain());
                let _ = depot.empty.put(mag);
                drained = true;
            }
        }
        drained
    }

    // ---- verification -----------------------------------------------------

    /// Proves the books balance: the probe's net ledger (allocs minus
    /// frees, in operations and in words) must equal what the backend
    /// holds live — the class carves, live slab units, and live large
    /// blocks. Objects parked in magazines or depots are backend-live
    /// and therefore *included*; the identity holds at any quiescent
    /// point without flushing caches.
    ///
    /// Also replays the arena's and every slab's own invariant checks.
    ///
    /// # Panics
    ///
    /// Panics if any ledger disagrees.
    pub fn check_reconciliation(&self) {
        // Self-hosting hazard: this method's own allocations (the arena
        // snapshot's vector, the invariant sweeps' scratch) would land
        // in the books between the ledger read and the backend reads if
        // they went through an installed `GlobalDsa`. The depth guard
        // routes them to `System` so reading the books cannot move them.
        let _guard = crate::global::DepthGuard::enter();
        let c = self.telemetry.counters();
        let arena = self.arena.snapshot();
        let arena_allocated = arena.allocated_words();
        let slab_live_words: Words = self
            .slabs
            .iter()
            .map(|s| s.slab.live_units() * s.slab.unit_words())
            .sum();
        let slab_live_units: u64 = self.slabs.iter().map(|s| s.slab.live_units()).sum();
        // The arena's book holds the class carves and the large blocks.
        let arena_live: u64 = arena
            .shards
            .iter()
            .map(|s| s.alloc.live_allocs as u64)
            .sum();
        let large_live = arena_live - self.slabs.len() as u64;
        assert_eq!(
            c.alloc_words - c.freed_words,
            arena_allocated + slab_live_words,
            "probe word ledger diverged from backend-live words \
             (allocs {} frees {} alloc_words {} freed_words {} arena {} \
             slab_words {} slab_units {} large_live {})",
            c.allocs,
            c.frees,
            c.alloc_words,
            c.freed_words,
            arena_allocated,
            slab_live_words,
            slab_live_units,
            large_live,
        );
        assert_eq!(
            c.allocs - c.frees,
            arena_live + slab_live_units,
            "probe operation ledger diverged from backend-live blocks \
             (allocs {} frees {} slab_units {} large_live {})",
            c.allocs,
            c.frees,
            slab_live_units,
            large_live,
        );
        self.arena.check_invariants();
        for s in &self.slabs {
            s.slab.check_invariants();
        }
    }

    // ---- internals --------------------------------------------------------

    fn ptr_at(&self, word_off: u64) -> *mut u8 {
        debug_assert!(((word_off * BYTES_PER_WORD) as usize) < self.region.bytes);
        // SAFETY: word_off is inside the region by construction.
        unsafe { self.region.base.add((word_off * BYTES_PER_WORD) as usize) }
    }

    /// The word offset of `ptr` within the region, or `None` outside.
    pub(crate) fn word_off_of(&self, ptr: *const u8) -> Option<u64> {
        let p = ptr as usize;
        let b = self.region.base as usize;
        if p >= b && p < b + self.region.bytes {
            Some(((p - b) as u64) / BYTES_PER_WORD)
        } else {
            None
        }
    }
}

impl Drop for DsaHeap {
    fn drop(&mut self) {
        // SAFETY: the region was allocated with exactly this layout in
        // `new`. Outstanding pointers into the region dangle after
        // this — the heap must outlive its allocations (a
        // `GlobalDsa` static never drops).
        unsafe { System.dealloc(self.region.base, self.region.layout) }
    }
}

/// `System` refuses zero-size layouts; pad them to one aligned unit.
/// Used symmetrically on the alloc and dealloc fallbacks.
fn nonzero(layout: Layout) -> Layout {
    if layout.size() == 0 {
        Layout::from_size_align(layout.align(), layout.align()).unwrap_or(layout)
    } else {
        layout
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(size: usize, align: usize) -> Layout {
        Layout::from_size_align(size, align).unwrap()
    }

    #[test]
    fn direct_roundtrip_reconciles() {
        let heap = DsaHeap::new(HeapConfig::small());
        heap.check_reconciliation();
        let l = layout(24, 8);
        let p = heap.alloc_direct(l);
        assert!(!p.is_null());
        assert!(heap.contains(p));
        // The block is writable real memory.
        unsafe {
            p.write_bytes(0xAB, 24);
            assert_eq!(*p, 0xAB);
        }
        heap.check_reconciliation();
        unsafe { heap.dealloc_direct(p, l) };
        heap.check_reconciliation();
    }

    #[test]
    fn small_sizes_hit_their_class_slab() {
        let heap = DsaHeap::new(HeapConfig::small());
        for size in [1usize, 8, 9, 100, 2048] {
            let l = layout(size, 8);
            let c = heap.small_class(l).unwrap();
            assert!(heap.classes().classes()[c] >= size as u64);
            let p = heap.alloc_direct(l);
            assert!(heap.in_class_slab(c, p), "size {size} missed its slab");
            unsafe { heap.dealloc_direct(p, l) };
        }
        heap.check_reconciliation();
    }

    #[test]
    fn large_sizes_take_the_arena_path() {
        let heap = DsaHeap::new(HeapConfig::small());
        // An arena class (no slab) and a size past the ladder.
        let arena_class = layout(4096, 8);
        assert!(heap.small_class(arena_class) >= Some(heap.first_arena_class()));
        assert!(heap.small_class(layout(40 << 10, 8)).is_none());
        for (n, l) in [arena_class, layout(40 << 10, 8)].into_iter().enumerate() {
            let p = heap.alloc_direct(l);
            assert!(heap.contains(p));
            unsafe {
                p.write_bytes(0xCD, l.size());
            }
            assert_eq!(heap.stats().large_allocs, n as u64 + 1);
            heap.check_reconciliation();
            unsafe { heap.dealloc_direct(p, l) };
            assert_eq!(heap.stats().large_frees, n as u64 + 1);
            heap.check_reconciliation();
        }
    }

    #[test]
    fn a_class_range_block_reserves_its_whole_class() {
        // Whoever frees it may park it for the next request of the
        // class, however much that request asks for.
        let heap = DsaHeap::new(HeapConfig::small());
        let baseline = heap.live_words();
        for (size, class) in [(2049usize, 2560u64), (5000, 5120), (32 << 10, 32 << 10)] {
            let l = layout(size, 8);
            let p = heap.alloc_direct(l);
            assert_eq!(
                heap.live_words(),
                baseline + class / BYTES_PER_WORD,
                "{size}"
            );
            heap.check_reconciliation();
            unsafe { heap.dealloc_direct(p, l) };
        }
        assert_eq!(heap.live_words(), baseline);
    }

    #[test]
    fn over_aligned_requests_are_actually_aligned() {
        let heap = DsaHeap::new(HeapConfig::small());
        for (size, align) in [(24usize, 64usize), (100, 256), (10, 2048), (100, 4096)] {
            let l = layout(size, align);
            let p = heap.alloc_direct(l);
            assert!(!p.is_null());
            assert_eq!(p as usize % align, 0, "{size}/{align} misaligned");
            unsafe { heap.dealloc_direct(p, l) };
        }
        heap.check_reconciliation();
    }

    #[test]
    fn slab_exhaustion_overflows_to_the_large_path() {
        let heap = DsaHeap::new(HeapConfig::small());
        let l = layout(8, 8);
        let units = heap.config().class_units as usize;
        let mut ptrs: Vec<*mut u8> = (0..units + 10).map(|_| heap.alloc_direct(l)).collect();
        assert!(ptrs.iter().all(|p| !p.is_null()));
        let s = heap.stats();
        assert!(s.slab_exhausted >= 10);
        heap.check_reconciliation();
        for p in ptrs.drain(..) {
            unsafe { heap.dealloc_direct(p, l) };
        }
        heap.check_reconciliation();
        // The overflow blocks came back by address, like any large one.
        let s = heap.stats();
        assert_eq!(
            (s.large_allocs, s.large_frees),
            (s.slab_exhausted, s.slab_exhausted)
        );
        assert_eq!(s.bad_frees, 0);
    }

    // A producer's counters and a consumer's must not share a line.
    const _: () = assert!(
        std::mem::offset_of!(Counters, free_side)
            >= std::mem::offset_of!(Counters, alloc_side) + 64
            && std::mem::offset_of!(Counters, magazine_allocs)
                >= std::mem::offset_of!(Counters, free_side) + 64
    );

    #[test]
    fn over_aligned_large_blocks_are_freed_by_the_aligned_pointer() {
        let heap = DsaHeap::new(HeapConfig::small());
        let baseline = heap.live_words();
        for align in [16usize, 32, 64, 128, 256, 512, 1024, 2048, 4096] {
            // Two of each, so the second starts wherever the first ended.
            let l = layout(5000, align);
            assert!(heap.small_class(l).is_none());
            let (a, b) = (heap.alloc_direct(l), heap.alloc_direct(l));
            for p in [a, b] {
                assert!(heap.contains(p));
                assert_eq!(p as usize % align, 0, "align {align}");
                unsafe { p.write_bytes(0xEE, 5000) };
            }
            heap.check_reconciliation();
            unsafe {
                heap.dealloc_direct(a, l);
                heap.dealloc_direct(b, l);
            }
        }
        heap.check_reconciliation();
        let s = heap.stats();
        assert_eq!((s.large_allocs, s.large_frees, s.bad_frees), (18, 18, 0));
        assert_eq!(heap.live_words(), baseline);
    }

    #[test]
    fn pointers_that_name_no_live_block_are_counted_not_freed() {
        let heap = DsaHeap::new(HeapConfig::small());
        let l = layout(8192, 8);
        let p = heap.alloc_direct(l);
        let live = heap.live_words();
        // A word inside the block, the free word after it, and (below)
        // the block itself a second time.
        let interior = unsafe { p.add(4096) };
        let never = unsafe { p.add(8192) };
        assert!(heap.contains(never));
        for (n, bad) in [interior, never].into_iter().enumerate() {
            unsafe { heap.dealloc_direct(bad, l) };
            assert_eq!(heap.stats().bad_frees, n as u64 + 1);
            assert_eq!(heap.live_words(), live);
        }
        unsafe { heap.dealloc_direct(p, l) };
        let freed = heap.live_words();
        assert!(freed < live);
        unsafe { heap.dealloc_direct(p, l) };
        let s = heap.stats();
        assert_eq!((s.large_allocs, s.large_frees, s.bad_frees), (1, 1, 3));
        assert_eq!(heap.live_words(), freed);
        heap.check_reconciliation();
    }

    #[test]
    fn distinct_pointers_until_freed() {
        let heap = DsaHeap::new(HeapConfig::small());
        let l = layout(64, 8);
        let a = heap.alloc_direct(l);
        let b = heap.alloc_direct(l);
        assert_ne!(a, b);
        unsafe {
            heap.dealloc_direct(a, l);
            heap.dealloc_direct(b, l);
        }
        heap.check_reconciliation();
    }

    #[test]
    fn zero_size_requests_are_served() {
        let heap = DsaHeap::new(HeapConfig::small());
        let l = layout(0, 1);
        let p = heap.alloc_direct(l);
        assert!(!p.is_null());
        unsafe { heap.dealloc_direct(p, l) };
        heap.check_reconciliation();
    }
}
