//! Per-thread magazine caches, after Bonwick's vmem/slab design.
//!
//! A *magazine* is a fixed-capacity stack of object pointers. Each
//! thread keeps two per size class — *loaded* and *previous* — and
//! serves allocations by popping the loaded magazine and frees by
//! pushing it: no atomics, no locks, no shared cache lines on the
//! common path. The protocol on exhaustion is Bonwick's:
//!
//! * **alloc, loaded empty**: if the previous magazine has objects,
//!   swap the two and pop. Otherwise exchange the empty magazine for a
//!   full one at the per-class *depot*; if the depot is dry, take one
//!   arena block of exactly the class size — magazines fill up on the
//!   free side.
//! * **free, loaded full**: if the previous magazine is empty, swap
//!   and push. Otherwise hand the full magazine to the depot, take an
//!   empty one, and push.
//!
//! Magazines are boxed and change hands by pointer. A depot is
//! lock-free: [`DEPOT_MAX_FULL`] slots for full magazines and as many
//! for empty ones, each slot null or the sole owner of a magazine. A
//! take swaps a slot to null; a put compare-exchanges a null slot to
//! the magazine, so a slot only goes null ↔ owned and there is no ABA.
//! A full magazine that finds no null slot is drained to the arena by
//! name, one batch per magazine, by the thread that brought it, and an
//! empty one is freed. A magazine holds at most [`MAG_MAX`] objects and
//! at most 128 KiB, so parked memory per class is capped at
//! `(DEPOT_MAX_FULL + 2 × threads)` magazines of that. A full arena
//! gets the calling thread's and the depots' parked blocks back before
//! the system is asked.
//!
//! Accounting: magazine hits and depot exchanges are counted in plain
//! thread-local counters and folded into the heap's [`HeapStats`] on
//! flush and thread exit. The telemetry probe never sees a magazine
//! hit — it tracks backend traffic, and an object parked in a magazine
//! is still backend-live. That is what keeps
//! [`DsaHeap::check_reconciliation`] exact without quiescing threads.

use std::alloc::Layout;
use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};

use crate::heap::{DsaHeap, HeapStats};

/// Hard capacity of a magazine, and the depth of
/// [`ThreadCache::new`]'s; [`ThreadCache::with_depth`] may choose less.
pub const MAG_MAX: usize = 64;

/// Full magazines a depot parks per class, and empty ones.
pub const DEPOT_MAX_FULL: usize = 8;

/// Bytes one magazine may hold: caps the depth of the largest classes.
const MAG_MAX_BYTES: u64 = 128 << 10;

/// A fixed stack of cached object pointers for one size class. Aligned
/// past [`MAG_MAX`], so a depot slot carries its magazine's length in
/// the pointer's low bits.
#[repr(align(128))]
pub(crate) struct Magazine {
    len: usize,
    ptrs: [*mut u8; MAG_MAX],
}

const _: () = assert!(MAG_MAX < std::mem::align_of::<Magazine>());

// SAFETY: the pointers are cached heap objects whose ownership moves
// with the magazine; a magazine is only ever touched by one thread at
// a time (its owner, or whoever took it from a depot slot).
unsafe impl Send for Magazine {}

impl Magazine {
    pub(crate) fn boxed() -> Box<Magazine> {
        Box::new(Magazine {
            len: 0,
            ptrs: [ptr::null_mut(); MAG_MAX],
        })
    }

    pub(crate) fn push(&mut self, p: *mut u8) {
        debug_assert!(self.len < MAG_MAX);
        self.ptrs[self.len] = p;
        self.len += 1;
    }

    pub(crate) fn pop(&mut self) -> Option<*mut u8> {
        if self.len == 0 {
            None
        } else {
            self.len -= 1;
            Some(self.ptrs[self.len])
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Empties the magazine, handing back what it held.
    pub(crate) fn drain(&mut self) -> &[*mut u8] {
        let n = std::mem::take(&mut self.len);
        &self.ptrs[..n]
    }
}

/// The length a slot's pointer carries.
fn tag_of(p: *mut Magazine) -> usize {
    p as usize % std::mem::align_of::<Magazine>()
}

/// One side of a depot: each slot is null or the sole owner of a boxed
/// magazine, its pointer tagged with the magazine's length.
#[derive(Default)]
pub(crate) struct Slots([AtomicPtr<Magazine>; DEPOT_MAX_FULL]);

impl Slots {
    pub(crate) fn take(&self) -> Option<Box<Magazine>> {
        self.0.iter().find_map(|slot| {
            if slot.load(Ordering::Relaxed).is_null() {
                return None;
            }
            let p = slot.swap(ptr::null_mut(), Ordering::Acquire);
            let p = p.cast::<u8>().wrapping_sub(tag_of(p)).cast::<Magazine>();
            // SAFETY: a non-null slot holds a pointer from `put`, which
            // is `Box::into_raw`'s plus the tag just subtracted. Swapping
            // in null makes this thread the magazine's only owner, and
            // the acquire pairs with `put`'s release, so its pushes are
            // visible here.
            (!p.is_null()).then(|| unsafe { Box::from_raw(p) })
        })
    }

    /// Parks `mag` in a null slot, or hands it back if there is none.
    pub(crate) fn put(&self, mag: Box<Magazine>) -> Result<(), Box<Magazine>> {
        let len = mag.len();
        let p = Box::into_raw(mag)
            .cast::<u8>()
            .wrapping_add(len)
            .cast::<Magazine>();
        for slot in &self.0 {
            if slot.load(Ordering::Relaxed).is_null()
                && (slot.compare_exchange(ptr::null_mut(), p, Ordering::Release, Ordering::Relaxed))
                    .is_ok()
            {
                return Ok(());
            }
        }
        // SAFETY: no slot took `p`, so this thread still owns it.
        Err(unsafe { Box::from_raw(p.cast::<u8>().wrapping_sub(len).cast()) })
    }

    /// Objects in the parked magazines, read off the tags: no magazine
    /// is followed, and each slot is read once, so the sum never passes
    /// `DEPOT_MAX_FULL` magazines.
    pub(crate) fn parked(&self) -> usize {
        (self.0.iter())
            .map(|slot| tag_of(slot.load(Ordering::Relaxed)))
            .sum()
    }
}

impl Drop for Slots {
    fn drop(&mut self) {
        while self.take().is_some() {}
    }
}

/// The per-class exchange point: full magazines waiting for hungry
/// threads, empty ones waiting for full ones. On cache lines of its
/// own.
#[derive(Default)]
#[repr(align(64))]
pub(crate) struct Depot {
    pub(crate) full: Slots,
    pub(crate) empty: Slots,
}

/// The loaded/previous pair for one size class, and the depth a free
/// reads beside them.
struct ClassMags {
    loaded: Box<Magazine>,
    /// Objects a magazine of this class holds before it counts as full.
    depth: usize,
    prev: Box<Magazine>,
}

/// A per-thread front-end for a [`DsaHeap`].
///
/// `Send`, not `Sync`: a cache is the sole owner of the blocks in its
/// magazines, so it may move to another thread, but one thread uses it
/// at a time. Dropping the cache flushes every parked object back to
/// the heap and folds the hit counters in, so books balance at thread
/// exit.
pub struct ThreadCache<'h> {
    heap: &'h DsaHeap,
    mags: Vec<ClassMags>,
    local_allocs: u64,
    local_frees: u64,
    local_exchanges: u64,
}

impl<'h> ThreadCache<'h> {
    /// A cache with magazines [`MAG_MAX`] deep. A magazine changes
    /// hands by pointer, so a deeper one costs an exchange nothing
    /// more; it may park more.
    #[must_use]
    pub fn new(heap: &'h DsaHeap) -> ThreadCache<'h> {
        ThreadCache::with_depth(heap, MAG_MAX)
    }

    /// A cache with an explicit magazine depth (the depth-sweep
    /// experiments use this); a magazine holds at most 128 KiB
    /// whatever the depth.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= depth <= `[`MAG_MAX`].
    #[must_use]
    pub fn with_depth(heap: &'h DsaHeap, depth: usize) -> ThreadCache<'h> {
        assert!(
            (1..=MAG_MAX).contains(&depth),
            "depth must be 1..={MAG_MAX}"
        );
        let mags = (heap.classes().classes().iter())
            .map(|&bytes| ClassMags {
                loaded: Magazine::boxed(),
                prev: Magazine::boxed(),
                depth: depth.min((MAG_MAX_BYTES / bytes) as usize),
            })
            .collect();
        ThreadCache {
            heap,
            mags,
            local_allocs: 0,
            local_frees: 0,
            local_exchanges: 0,
        }
    }

    /// The heap this cache fronts (identity check for global installs).
    #[must_use]
    pub(crate) fn heap_ptr(&self) -> *const DsaHeap {
        self.heap
    }

    /// Allocates a block for `layout`. Ladder sizes go through the
    /// magazines; larger (or over-aligned) requests pass straight to
    /// the heap's large path. Null only if the final `System` fallback
    /// fails.
    #[must_use]
    pub fn alloc(&mut self, layout: Layout) -> *mut u8 {
        let Some(class) = self.heap.small_class(layout) else {
            return self.large_alloc(layout);
        };
        let m = &mut self.mags[class];
        if let Some(p) = m.loaded.pop() {
            self.local_allocs += 1;
            return p;
        }
        if m.prev.len() > 0 {
            std::mem::swap(&mut m.loaded, &mut m.prev);
            if let Some(p) = m.loaded.pop() {
                self.local_allocs += 1;
                return p;
            }
        }
        self.alloc_slow(class, layout)
    }

    /// Frees a block allocated with `layout`.
    ///
    /// # Safety
    ///
    /// `ptr` must be live and must have been allocated from this
    /// cache's heap (any thread) with the same `layout`.
    pub unsafe fn dealloc(&mut self, ptr: *mut u8, layout: Layout) {
        if let Some(class) = self.heap.small_class(layout) {
            if self.heap.contains(ptr) {
                let m = &mut self.mags[class];
                if m.loaded.len() < m.depth {
                    m.loaded.push(ptr);
                    self.local_frees += 1;
                    return;
                }
                if m.prev.len() == 0 {
                    std::mem::swap(&mut m.loaded, &mut m.prev);
                    m.loaded.push(ptr);
                    self.local_frees += 1;
                    return;
                }
                self.dealloc_slow(class, ptr);
                return;
            }
        }
        // SAFETY: forwarded caller contract.
        unsafe { self.heap.dealloc_direct(ptr, layout) }
    }

    /// Returns every magazine's blocks to the arena; `true` if they
    /// held anything.
    fn release_all(&mut self) -> bool {
        let mut released = false;
        for m in &mut self.mags {
            for mag in [&mut m.loaded, &mut m.prev] {
                let ptrs = mag.drain();
                released |= !ptrs.is_empty();
                self.heap.release(ptrs);
            }
        }
        released
    }

    /// The heap's arena path; a full arena first gets back the blocks
    /// parked in this thread's magazines and in the depots — that may
    /// be the room it lacks, and the system must not be asked while the
    /// heap holds it.
    fn large_alloc(&mut self, layout: Layout) -> *mut u8 {
        let heap = self.heap;
        heap.large_alloc(layout, || self.release_all() | heap.drain_depots())
    }

    /// Adds the hit and exchange counts not yet folded into the heap's
    /// books to `stats`.
    pub(crate) fn add_unfolded(&self, stats: &mut HeapStats) {
        stats.magazine_allocs += self.local_allocs;
        stats.magazine_frees += self.local_frees;
        stats.depot_exchanges += self.local_exchanges;
    }

    /// Returns every parked object to the heap and folds the hit
    /// counters into [`HeapStats`]. The cache stays usable.
    pub(crate) fn flush(&mut self) {
        // Outside an allocator frame (thread exit, an explicit flush):
        // the arena's books may grow under the shard locks taken here,
        // and an installed `GlobalDsa` must not be asked for that
        // memory — it would come back for the same lock.
        let _guard = crate::global::DepthGuard::enter();
        self.release_all();
        self.heap.fold_magazine_counters(
            std::mem::take(&mut self.local_allocs),
            std::mem::take(&mut self.local_frees),
            std::mem::take(&mut self.local_exchanges),
        );
    }

    /// Cold alloc path: depot exchange, then one arena block of the
    /// class size.
    fn alloc_slow(&mut self, class: usize, layout: Layout) -> *mut u8 {
        let depot = self.heap.depot(class);
        if let Some(full) = depot.full.take() {
            let empty = std::mem::replace(&mut self.mags[class].loaded, full);
            let _ = depot.empty.put(empty);
            self.local_exchanges += 1;
            if let Some(p) = self.mags[class].loaded.pop() {
                self.local_allocs += 1;
                return p;
            }
        }
        // Depot dry: serve one object straight from the arena.
        // Magazines fill on the free side — pre-filling here would just
        // move the miss cost around.
        self.large_alloc(layout)
    }

    /// Cold free path: trade the full loaded magazine for an empty one
    /// at the depot, then push. A depot already at its bound hands the
    /// full one back, and it is drained to the backend here instead
    /// (bounding parked memory).
    fn dealloc_slow(&mut self, class: usize, ptr: *mut u8) {
        let depot = self.heap.depot(class);
        let empty = depot.empty.take().unwrap_or_else(Magazine::boxed);
        let full = std::mem::replace(&mut self.mags[class].loaded, empty);
        self.local_exchanges += 1;
        if let Err(mut surplus) = depot.full.put(full) {
            self.heap.release(surplus.drain());
            let _ = depot.empty.put(surplus);
        }
        self.mags[class].loaded.push(ptr);
        self.local_frees += 1;
    }
}

impl Drop for ThreadCache<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::{HeapConfig, BYTES_PER_WORD};

    fn layout(size: usize) -> Layout {
        Layout::from_size_align(size, 8).unwrap()
    }

    #[test]
    fn magazine_is_a_lifo_stack() {
        let mut m = Magazine::boxed();
        assert_eq!(m.pop(), None);
        m.push(8 as *mut u8);
        m.push(16 as *mut u8);
        assert_eq!(m.len(), 2);
        assert_eq!(m.pop(), Some(16 as *mut u8));
        assert_eq!(m.pop(), Some(8 as *mut u8));
        assert_eq!(m.pop(), None);
    }

    #[test]
    fn cached_roundtrip_reconciles_after_flush() {
        let heap = DsaHeap::new(HeapConfig::small());
        let mut cache = ThreadCache::new(&heap);
        let l = layout(40);
        let mut ptrs: Vec<*mut u8> = (0..100).map(|_| cache.alloc(l)).collect();
        assert!(ptrs.iter().all(|p| !p.is_null()));
        // Books balance even with objects parked in the magazines.
        heap.check_reconciliation();
        for p in ptrs.drain(..) {
            unsafe { cache.dealloc(p, l) };
        }
        heap.check_reconciliation();
        drop(cache);
        heap.flush_depots();
        heap.check_reconciliation();
        let s = heap.stats();
        assert!(s.magazine_allocs + s.magazine_frees > 0);
        assert_eq!(s.bad_frees, 0);
    }

    #[test]
    fn magazine_hits_dominate_after_warmup() {
        let heap = DsaHeap::new(HeapConfig::small());
        let mut cache = ThreadCache::new(&heap);
        let l = layout(64);
        // Warm the magazines, then churn.
        let warm: Vec<*mut u8> = (0..16).map(|_| cache.alloc(l)).collect();
        for p in warm {
            unsafe { cache.dealloc(p, l) };
        }
        for _ in 0..1000 {
            let p = cache.alloc(l);
            unsafe { cache.dealloc(p, l) };
        }
        cache.flush();
        let s = heap.stats();
        assert!(
            s.magazine_allocs >= 1000,
            "expected magazine hits, got {s:?}"
        );
        drop(cache);
        heap.flush_depots();
        heap.check_reconciliation();
    }

    #[test]
    fn cross_thread_free_through_the_depot() {
        let heap = DsaHeap::new(HeapConfig::small());
        let l = layout(96);
        // Producer allocates, consumer frees: objects come back via the
        // consumer's magazines and the shared depot.
        std::thread::scope(|scope| {
            let (tx, rx) = std::sync::mpsc::channel::<usize>();
            let heap_ref = &heap;
            scope.spawn(move || {
                let mut producer = ThreadCache::new(heap_ref);
                for _ in 0..500 {
                    tx.send(producer.alloc(l) as usize).unwrap();
                }
            });
            scope.spawn(move || {
                let mut consumer = ThreadCache::new(heap_ref);
                for p in rx {
                    unsafe { consumer.dealloc(p as *mut u8, l) };
                }
            });
        });
        heap.flush_depots();
        heap.check_reconciliation();
        assert_eq!(heap.stats().bad_frees, 0);
    }

    /// An 8 MiB region, so that a few hundred KiB of the larger classes
    /// fit with room to spare.
    fn roomy() -> HeapConfig {
        HeapConfig {
            arena_words: 1 << 20,
            ..HeapConfig::small()
        }
    }

    #[test]
    fn large_frees_are_gathered_up_to_a_bound_in_blocks_and_in_words() {
        // A magazine holds `depth` blocks (8 here), or 128 KiB if that
        // is fewer: 4 KiB blocks are bound by the depth, 32 KiB ones by
        // the bytes.
        let heap = DsaHeap::new(roomy());
        let baseline = heap.live_words();
        let mut cache = ThreadCache::with_depth(&heap, 8);
        for (size, per_mag) in [(4096usize, 8usize), (32 << 10, 4)] {
            let l = layout(size);
            let (n, words) = (3 * per_mag, size as u64 / BYTES_PER_WORD);
            let before = heap.stats();
            let ptrs: Vec<*mut u8> = (0..n).map(|_| cache.alloc(l)).collect();
            assert_eq!(heap.live_words(), baseline + n as u64 * words);
            // Two magazines park in the thread, the third goes to the
            // depot, and the arena sees none of them.
            for &p in &ptrs {
                unsafe { cache.dealloc(p, l) };
            }
            assert_eq!(heap.stats().large_frees, before.large_frees);
            assert_eq!(heap.depot_parked(), per_mag as u64);
            assert_eq!(heap.live_words(), baseline + n as u64 * words);
            heap.check_reconciliation();
            // The same blocks come back without an arena call.
            let again: Vec<*mut u8> = (0..n).map(|_| cache.alloc(l)).collect();
            assert_eq!(heap.stats().large_allocs, before.large_allocs + n as u64);
            assert_eq!(heap.depot_parked(), 0);
            for &p in &again {
                assert!(ptrs.contains(&p));
                unsafe { cache.dealloc(p, l) };
            }
            cache.flush();
            heap.flush_depots();
            assert_eq!(heap.stats().large_frees, before.large_frees + n as u64);
            assert_eq!(heap.live_words(), baseline);
        }
        heap.check_reconciliation();
        assert_eq!(heap.stats().bad_frees, 0);
    }

    #[test]
    fn flush_and_drop_return_the_large_blocks_set_aside() {
        let heap = DsaHeap::new(roomy());
        let baseline = heap.live_words();
        let mut cache = ThreadCache::new(&heap);
        let l = layout(4096);
        let ptrs: Vec<*mut u8> = (0..5).map(|_| cache.alloc(l)).collect();
        for &p in &ptrs[..3] {
            unsafe { cache.dealloc(p, l) };
        }
        assert_eq!(heap.stats().large_frees, 0);
        cache.flush();
        assert_eq!(heap.stats().large_frees, 3);
        for &p in &ptrs[3..] {
            unsafe { cache.dealloc(p, l) };
        }
        assert_eq!(heap.stats().large_frees, 3);
        drop(cache);
        let s = heap.stats();
        assert_eq!((s.large_allocs, s.large_frees, s.bad_frees), (5, 5, 0));
        assert_eq!(heap.live_words(), baseline);
        heap.check_reconciliation();
    }

    #[test]
    fn over_aligned_blocks_and_blocks_past_the_ladder_never_park() {
        let heap = DsaHeap::new(roomy());
        let baseline = heap.live_words();
        let mut cache = ThreadCache::new(&heap);
        let sizes = [
            (24usize, 16usize),
            (100, 256),
            (5000, 16),
            (4096, 64),
            (40 << 10, 8),
            (1 << 20, 8),
        ];
        for (n, (size, align)) in sizes.into_iter().enumerate() {
            let l = Layout::from_size_align(size, align).unwrap();
            let p = cache.alloc(l);
            assert!(heap.contains(p));
            unsafe { cache.dealloc(p, l) };
            assert_eq!(heap.stats().large_frees, n as u64 + 1, "{size}/{align}");
        }
        drop(cache);
        let s = heap.stats();
        assert_eq!(
            (s.magazine_allocs, s.magazine_frees, s.depot_exchanges),
            (0, 0, 0)
        );
        assert_eq!(heap.live_words(), baseline);
    }

    #[test]
    fn a_full_arena_gets_its_blocks_back_before_the_system_is_asked() {
        let l = layout(32 << 10);
        // A 1 MiB region: fewer 32 KiB blocks than the thread's two
        // magazines and the depot park (40 at four a magazine).
        let tight = HeapConfig {
            arena_words: 1 << 17,
            ..HeapConfig::small()
        };
        // How many 32 KiB blocks the arena holds, read off a heap of the
        // same geometry filled until the system is asked.
        let fits = {
            let heap = DsaHeap::new(tight);
            let mut held = Vec::new();
            loop {
                let p = heap.alloc_direct(l);
                if !heap.contains(p) {
                    unsafe { heap.dealloc_direct(p, l) };
                    break;
                }
                held.push(p);
            }
            for p in held.drain(..).rev() {
                unsafe { heap.dealloc_direct(p, l) };
            }
            heap.check_reconciliation();
            heap.stats().large_allocs as usize
        };
        let heap = DsaHeap::new(tight);
        let mut cache = ThreadCache::new(&heap);
        let held: Vec<*mut u8> = (0..fits).map(|_| cache.alloc(l)).collect();
        assert!(held.iter().all(|&p| heap.contains(p)));
        // Every one parks, in the thread's two magazines and the depot.
        for &p in &held {
            unsafe { cache.dealloc(p, l) };
        }
        assert_eq!(
            heap.stats().large_frees,
            0,
            "{fits} blocks overflowed the depot"
        );
        assert!(heap.depot_parked() > 0);
        // A block past the ladder that only their room can hold.
        let big = layout(128 << 10);
        let p = cache.alloc(big);
        assert!(
            heap.contains(p),
            "the system was asked while the heap had room"
        );
        let s = heap.stats();
        assert_eq!((s.large_frees, s.system_allocs), (fits as u64, 0));
        assert_eq!(heap.depot_parked(), 0);
        unsafe { cache.dealloc(p, big) };
        drop(cache);
        heap.check_reconciliation();
        assert_eq!(heap.stats().bad_frees, 0);
    }

    #[test]
    fn a_depot_keeps_no_more_than_its_bound_and_counts_every_exchange() {
        let heap = DsaHeap::new(HeapConfig::small());
        let depth = 4;
        let mut cache = ThreadCache::with_depth(&heap, depth);
        let l = layout(8);
        // Blocks freed through one cache: the two magazines fill, then
        // every further magazine-full is one trip to the depot.
        let blocks = 64;
        let ptrs: Vec<*mut u8> = (0..blocks).map(|_| heap.alloc_direct(l)).collect();
        for p in ptrs {
            unsafe { cache.dealloc(p, l) };
        }
        let trips = (blocks / depth - 2) as u64;
        assert!(trips > DEPOT_MAX_FULL as u64);
        assert_eq!(heap.depot_parked(), (DEPOT_MAX_FULL * depth) as u64);
        assert_eq!(
            heap.stats().depot_exchanges,
            0,
            "counted locally until a flush"
        );
        cache.flush();
        assert_eq!(heap.stats().depot_exchanges, trips);
        heap.flush_depots();
        heap.check_reconciliation();
    }

    #[test]
    fn magazines_change_hands_by_pointer() {
        let heap = DsaHeap::new(HeapConfig::small());
        let depth = MAG_MAX;
        let l = layout(64);
        let class = heap.small_class(l).unwrap();
        let addr = |c: &ThreadCache<'_>| std::ptr::from_ref::<Magazine>(&c.mags[class].loaded);
        let (mut consumer, mut producer) = (ThreadCache::new(&heap), ThreadCache::new(&heap));
        // The consumer fills both its magazines; one more free sends
        // the loaded one to the depot.
        let ptrs: Vec<*mut u8> = (0..=2 * depth).map(|_| heap.alloc_direct(l)).collect();
        for &p in &ptrs[..2 * depth] {
            unsafe { consumer.dealloc(p, l) };
        }
        let handed_in = addr(&consumer);
        unsafe { consumer.dealloc(ptrs[2 * depth], l) };
        assert_eq!(heap.depot_parked(), depth as u64);
        // The producer's empty magazine goes to the depot as the full
        // one comes out: the same allocation, both ways.
        let shell = addr(&producer);
        let p = producer.alloc(l);
        assert!(ptrs.contains(&p));
        assert_eq!(addr(&producer), handed_in);
        assert_eq!(heap.depot_parked(), 0);
        // The consumer's next trip takes the producer's shell back.
        let more: Vec<*mut u8> = (0..depth).map(|_| heap.alloc_direct(l)).collect();
        for &q in &more {
            unsafe { consumer.dealloc(q, l) };
        }
        assert_eq!(addr(&consumer), shell);
        unsafe { producer.dealloc(p, l) };
        drop((consumer, producer));
        heap.flush_depots();
        heap.check_reconciliation();
    }

    #[test]
    fn depth_one_cache_still_balances() {
        let heap = DsaHeap::new(HeapConfig::small());
        let mut cache = ThreadCache::with_depth(&heap, 1);
        let l = layout(8);
        let ptrs: Vec<*mut u8> = (0..50).map(|_| cache.alloc(l)).collect();
        for p in ptrs {
            unsafe { cache.dealloc(p, l) };
        }
        drop(cache);
        heap.flush_depots();
        heap.check_reconciliation();
    }

    // A cache owns its magazines' blocks outright, so it may move to
    // another thread; naming `is_send` at it fails to compile if not.
    const _: () = {
        fn is_send<T: Send>() {}
        let _ = is_send::<ThreadCache<'static>>;
    };
}
