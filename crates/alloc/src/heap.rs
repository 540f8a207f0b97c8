//! The size-class heap: real memory behind the simulated books.
//!
//! A [`DsaHeap`] owns one contiguous region obtained from
//! [`std::alloc::System`] (page-aligned, sized in words like every
//! arena in this workspace), managed by one [`ShardedArena`] that
//! serves two kinds of block:
//!
//! * **Class blocks.** The ladder runs from 8 bytes to 32 KiB. A block
//!   of a class is one arena block of exactly the class size, parked
//!   and carried between threads by the magazines and depots, and
//!   returned to the arena when they overflow or flush.
//! * **The large path.** Everything past the ladder, or over-aligned
//!   past a word, is allocated from the arena and freed straight back.
//!
//! Every block is named in the arena's book by the word offset of the
//! pointer handed out: the caller holds that pointer until the free and
//! the block never moves, so the arena's own book is the only one kept
//! and nothing in the region carries a header. Frees recompute the
//! class from the caller's `Layout`, and the address says the rest. A
//! pointer outside the region belongs to [`System`] (the fallback of
//! last resort, and the destination of the heap's own bookkeeping
//! allocations when used through [`crate::GlobalDsa`]).
//!
//! The probe discipline mirrors the simulators: every *backend*
//! operation — an arena alloc or free — emits `Alloc { words, searched
//! }` / `Free { words }` into the heap's [`TelemetryProbe`]. Magazine
//! hits are invisible here by design (they are the fast path being
//! fast); [`DsaHeap::check_reconciliation`] proves the probe's net
//! ledger equals arena-live words, magazines included, because a
//! magazine-parked object is backend-live.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dsa_arena::ShardedArena;
use dsa_core::ids::{PhysAddr, Words};
use dsa_core::sizeclass::SizeClasses;
use dsa_freelist::freelist::Placement;
use dsa_probe::Stamp;
use dsa_telemetry::TelemetryProbe;

use crate::magazine::{Depot, MAG_MAX};

/// Bytes per storage word, the unit the backing arena accounts in.
pub(crate) const BYTES_PER_WORD: u64 = 8;

/// The size-class ladder's top.
const LADDER_MAX_BYTES: u64 = 32 << 10;

/// Alignment of the backing region itself, in bytes.
const REGION_ALIGN: usize = 4096;

/// Quick-list geometry for the arena, whose quick lists every heap arms
/// (see `ShardedArena`): blocks up to this many words ride the
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
    /// Shards of the backing arena (arena-path concurrency).
    pub shards: u32,
}

impl HeapConfig {
    /// The default geometry: a 32 MiB region over 8 shards.
    pub const DEFAULT: HeapConfig = HeapConfig {
        arena_words: 4 << 20,
        shards: 8,
    };

    /// A small geometry for tests: a 2 MiB region over 4 shards.
    #[must_use]
    pub const fn small() -> HeapConfig {
        HeapConfig {
            arena_words: 1 << 18,
            shards: 4,
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
    /// Always 0: every class is served by the arena, which has no
    /// per-class limit to exhaust. Kept so existing readers still
    /// compile.
    pub slab_exhausted: u64,
    /// Allocations served by the arena: magazine misses and the large
    /// path.
    pub large_allocs: u64,
    /// Frees returned to the arena.
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
    large_allocs: AtomicU64,
    system_allocs: AtomicU64,
    /// Deals requests round the arena's shards.
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

/// The heap: a sharded arena over one region, with a depot per size
/// class. See the [crate docs](crate) for the layers.
///
/// All methods take `&self`; the magazine depots are lock-free, and an
/// arena operation locks one shard. [`crate::ThreadCache`] sits on top
/// and removes even the atomics from the common path.
pub struct DsaHeap {
    config: HeapConfig,
    classes: SizeClasses,
    region: Region,
    arena: ShardedArena,
    depots: Vec<Depot>,
    telemetry: TelemetryProbe,
    counters: Counters,
}

// SAFETY: the raw region pointer is owned exclusively by the heap; all
// access to the memory behind it is mediated by the shard locks and the
// depots, each of which hands a block to one owner at a time.
unsafe impl Send for DsaHeap {}
// SAFETY: as above — `&DsaHeap` exposes only atomic/locked operations.
unsafe impl Sync for DsaHeap {}

impl DsaHeap {
    /// Builds the heap: maps the region and arms the arena's quick
    /// lists. The arena starts empty, so `live_words()` reads 0.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (no shards, or
    /// `arena_words` not divisible by `shards`), and aborts via
    /// [`std::alloc::handle_alloc_error`] if the system refuses the
    /// region.
    #[must_use]
    pub fn new(config: HeapConfig) -> DsaHeap {
        assert!(config.shards > 0, "need at least one shard");
        assert!(
            config.arena_words % u64::from(config.shards) == 0,
            "arena_words must divide evenly into shards"
        );
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
        let depots = (0..classes.count()).map(|_| Depot::default()).collect();

        DsaHeap {
            config,
            classes,
            region,
            arena,
            depots,
            telemetry: TelemetryProbe::new(),
            counters: Counters::default(),
        }
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
        self.word_off_of(ptr).is_some()
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
            slab_exhausted: 0,
            large_allocs: a.large_allocs.load(Ordering::Relaxed),
            large_frees: f.large_frees.load(Ordering::Relaxed),
            system_allocs: a.system_allocs.load(Ordering::Relaxed),
            system_frees: f.system_frees.load(Ordering::Relaxed),
            bad_frees: f.bad_frees.load(Ordering::Relaxed),
        }
    }

    /// Words live in the arena. Objects parked in magazines and depots
    /// count as live — the backend has handed them out.
    #[must_use]
    pub fn live_words(&self) -> Words {
        // Keep the arena snapshot's own vector out of the books when
        // this heap is the global allocator (see check_reconciliation).
        let _guard = crate::global::DepthGuard::enter();
        self.arena.snapshot().allocated_words()
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

    /// The size class a layout parks in, or `None` for the large path:
    /// past the ladder, or aligned past a word (an arena block is only
    /// word-aligned, so such a block is not interchangeable with the
    /// others of its class).
    #[must_use]
    pub(crate) fn small_class(&self, layout: Layout) -> Option<usize> {
        if layout.align() as u64 <= BYTES_PER_WORD {
            self.classes.class_of(layout.size() as u64)
        } else {
            None
        }
    }

    /// Allocates from the arena, the block named by the word offset of
    /// the pointer returned. A request in the ladder's range is rounded
    /// up to its class, so that whatever frees the block may park it
    /// for the next request of that class. A full arena is asked again
    /// if `make_room` says it returned something, and only then does
    /// the request fall to [`System`]. Never returns null unless
    /// `System` does.
    pub(crate) fn large_alloc(&self, layout: Layout, make_room: impl FnOnce() -> bool) -> *mut u8 {
        let align = layout.align() as u64;
        let mut bytes = layout.size().max(1) as u64;
        if let Some(c) = self.small_class(layout) {
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

    /// Returns arena blocks by the names their addresses give them, one
    /// shard lock per shard touched. An interior, foreign or
    /// already-freed pointer names no live block and is counted, not
    /// freed.
    fn large_free(&self, names: &mut [u64]) {
        let side = &self.counters.free_side;
        let mut probe = &self.telemetry;
        let freed = (self.arena).free_at_probed(names, Stamp::default(), &mut probe);
        side.large_frees.fetch_add(freed as u64, Ordering::Relaxed);
        if freed < names.len() {
            let bad = (names.len() - freed) as u64;
            side.bad_frees.fetch_add(bad, Ordering::Relaxed);
        }
    }

    /// Returns up to a magazine of blocks to the arena by name, in one
    /// batch.
    pub(crate) fn release(&self, ptrs: &[*mut u8]) {
        if ptrs.is_empty() {
            return;
        }
        let mut names = [u64::MAX; MAG_MAX];
        for (name, &p) in names.iter_mut().zip(ptrs) {
            *name = self.word_off_of(p).unwrap_or(u64::MAX);
        }
        self.large_free(&mut names[..ptrs.len()]);
    }

    /// Allocates without a thread cache: straight from the arena.
    ///
    /// This is the "no-magazine" baseline the benchmarks compare the
    /// cached path against, and the fallback when thread-local storage
    /// is unavailable.
    #[must_use]
    pub fn alloc_direct(&self, layout: Layout) -> *mut u8 {
        self.large_alloc(layout, || false)
    }

    /// Frees a block from any heap path without parking it: a region
    /// pointer goes back to the arena by name, anything else to
    /// [`System`].
    ///
    /// # Safety
    ///
    /// `ptr` must be live and have been allocated with `layout` from
    /// this heap (or `System` through it).
    pub unsafe fn dealloc_direct(&self, ptr: *mut u8, layout: Layout) {
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

    /// Drains every depot's full magazines back to the arena. Parked
    /// *thread* magazines are untouched — flush those via their caches.
    pub fn flush_depots(&self) {
        // The arena's books may grow under the shard locks taken here:
        // an installed `GlobalDsa` must not be asked for that memory.
        let _guard = crate::global::DepthGuard::enter();
        self.drain_depots();
    }

    /// Drains every depot to the arena; `true` if they held anything.
    pub(crate) fn drain_depots(&self) -> bool {
        let mut drained = false;
        for depot in &self.depots {
            while let Some(mut mag) = depot.full.take() {
                self.release(mag.drain());
                let _ = depot.empty.put(mag);
                drained = true;
            }
        }
        drained
    }

    // ---- verification -----------------------------------------------------

    /// Proves the books balance: the probe's net ledger (allocs minus
    /// frees, in operations and in words) must equal what the arena
    /// holds live. Objects parked in magazines or depots are
    /// backend-live and therefore *included*; the identity holds at any
    /// quiescent point without flushing caches.
    ///
    /// Also replays the arena's own invariant checks.
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
        let live_words = arena.allocated_words();
        let live_blocks: u64 = (arena.shards.iter())
            .map(|s| s.alloc.live_allocs as u64)
            .sum();
        assert_eq!(
            c.alloc_words - c.freed_words,
            live_words,
            "probe word ledger diverged from arena-live words \
             (allocs {} frees {} alloc_words {} freed_words {} live blocks {live_blocks})",
            c.allocs,
            c.frees,
            c.alloc_words,
            c.freed_words,
        );
        assert_eq!(
            c.allocs - c.frees,
            live_blocks,
            "probe operation ledger diverged from arena-live blocks \
             (allocs {} frees {})",
            c.allocs,
            c.frees,
        );
        self.arena.check_invariants();
    }

    // ---- internals --------------------------------------------------------

    fn ptr_at(&self, word_off: u64) -> *mut u8 {
        debug_assert!(((word_off * BYTES_PER_WORD) as usize) < self.region.bytes);
        // SAFETY: word_off is inside the region by construction.
        unsafe { self.region.base.add((word_off * BYTES_PER_WORD) as usize) }
    }

    /// The word offset of `ptr` within the region, or `None` outside.
    fn word_off_of(&self, ptr: *const u8) -> Option<u64> {
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
    use crate::ThreadCache;

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
    fn a_fresh_heap_holds_nothing_and_small_churn_gives_it_all_back() {
        let heap = DsaHeap::new(HeapConfig::small());
        assert_eq!(heap.live_words(), 0);
        let mut cache = ThreadCache::new(&heap);
        let sizes = [8usize, 24, 64, 100, 512, 2048];
        let ptrs: Vec<(*mut u8, Layout)> = (0..600)
            .map(|i| {
                let l = layout(sizes[i % sizes.len()], 8);
                (cache.alloc(l), l)
            })
            .collect();
        assert!(heap.live_words() > 0);
        for (p, l) in ptrs {
            unsafe { cache.dealloc(p, l) };
        }
        cache.flush();
        heap.flush_depots();
        assert_eq!(heap.live_words(), 0);
        heap.check_reconciliation();
        assert_eq!(heap.stats().bad_frees, 0);
    }

    #[test]
    fn large_sizes_take_the_arena_path() {
        let heap = DsaHeap::new(HeapConfig::small());
        // The ladder's top region and a size past the ladder.
        let class = layout(4096, 8);
        assert!(heap.small_class(class).is_some());
        assert!(heap.small_class(layout(40 << 10, 8)).is_none());
        for (n, l) in [class, layout(40 << 10, 8)].into_iter().enumerate() {
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
    fn small_sizes_hit_their_class_slab() {
        // A class's blocks are arena blocks of the class size, taken
        // from the heap's own region.
        let heap = DsaHeap::new(HeapConfig::small());
        for (size, class) in [(1usize, 8u64), (8, 8), (9, 16), (100, 112), (2048, 2048)] {
            let l = layout(size, 8);
            let c = heap.small_class(l).unwrap();
            assert_eq!(heap.classes().classes()[c], class, "{size}");
            let p = heap.alloc_direct(l);
            assert!(heap.contains(p), "size {size} missed the arena");
            assert_eq!(heap.live_words(), class / BYTES_PER_WORD, "{size}");
            unsafe { heap.dealloc_direct(p, l) };
        }
        heap.check_reconciliation();
    }

    #[test]
    fn a_class_range_block_reserves_its_whole_class() {
        // Whoever frees it may park it for the next request of the
        // class, however much that request asks for.
        let heap = DsaHeap::new(HeapConfig::small());
        for (size, class) in [(2049usize, 2560u64), (5000, 5120), (32 << 10, 32 << 10)] {
            let l = layout(size, 8);
            let c = heap.small_class(l).unwrap();
            assert_eq!(heap.classes().classes()[c], class, "{size}");
            let p = heap.alloc_direct(l);
            assert_eq!(heap.live_words(), class / BYTES_PER_WORD, "{size}");
            heap.check_reconciliation();
            unsafe { heap.dealloc_direct(p, l) };
        }
        assert_eq!(heap.live_words(), 0);
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
        assert_eq!(heap.live_words(), 0);
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
