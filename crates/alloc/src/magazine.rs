//! Per-thread magazine caches, after Bonwick's vmem/slab design.
//!
//! A *magazine* is a fixed-capacity stack of object pointers. Each
//! thread keeps two per size class — *loaded* and *previous* — and
//! serves allocations by popping the loaded magazine and frees by
//! pushing it: no atomics, no locks, no shared cache lines on the
//! common path. The protocol on exhaustion is Bonwick's:
//!
//! * **alloc, loaded empty**: if the previous magazine has objects,
//!   swap the two and pop (still lock-free). Otherwise exchange an
//!   empty magazine for a full one at the per-class *depot* under a
//!   short lock; if the depot is dry, take one object straight from
//!   the slab — magazines fill up on the free side.
//! * **free, loaded full**: if the previous magazine is empty, swap
//!   and push. Otherwise hand a full magazine to the depot, take an
//!   empty one, and push.
//!
//! The depot bounds its stock (the freeing thread drains overflow back
//! to the slab), so parked memory per class is capped at
//! `(DEPOT_MAX_FULL + 2 × threads) × depth` objects.
//!
//! Large blocks have no magazines, but a thread that frees many — the
//! consumer end of a hand-off — sets up to [`LARGE_PARK_BLOCKS`] aside
//! and returns them to the arena together, one shard lock per shard
//! touched instead of one per block.
//!
//! Accounting: magazine hits and depot exchanges are counted in plain
//! (non-atomic) thread-local counters and folded into the heap's
//! [`HeapStats`](crate::heap::HeapStats) on flush and thread exit. The
//! telemetry probe never sees a magazine hit — it tracks backend
//! traffic, and an object parked in a magazine, like a large block set
//! aside, is still backend-live. That is what keeps
//! [`DsaHeap::check_reconciliation`] exact without quiescing threads.

use std::alloc::Layout;

use crate::heap::{DsaHeap, BYTES_PER_WORD};

/// Hard capacity of a magazine; the runtime depth
/// ([`crate::HeapConfig::magazine_depth`]) may be anything up to this.
pub const MAG_MAX: usize = 64;

/// Full magazines a depot retains per class; one more is drained back
/// to the slab by the thread that brought it.
const DEPOT_MAX_FULL: usize = 8;

/// Freed large blocks a thread sets aside before returning the lot to
/// the arena, and the words they may add up to (512 KiB): storage held
/// this way is free to nobody.
const LARGE_PARK_BLOCKS: usize = 16;
const LARGE_PARK_WORDS: u64 = 1 << 16;

/// A fixed stack of cached object pointers for one size class.
pub(crate) struct Magazine {
    ptrs: [*mut u8; MAG_MAX],
    len: usize,
}

// SAFETY: the pointers are cached heap objects whose ownership moves
// with the magazine; a magazine is only ever touched by one thread at
// a time (its owner, or a depot holder under the depot lock).
unsafe impl Send for Magazine {}

impl Magazine {
    pub(crate) const EMPTY: Magazine = Magazine {
        ptrs: [std::ptr::null_mut(); MAG_MAX],
        len: 0,
    };

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
}

/// The per-class exchange point: full magazines waiting for hungry
/// threads, empty shells waiting for full ones.
#[derive(Default)]
pub(crate) struct Depot {
    pub(crate) full: Vec<Magazine>,
    pub(crate) empty: Vec<Magazine>,
}

impl Depot {
    /// Objects parked in this depot's full magazines.
    pub(crate) fn parked(&self) -> usize {
        self.full.iter().map(Magazine::len).sum()
    }
}

/// The loaded/previous pair for one size class.
struct ClassMags {
    loaded: Magazine,
    prev: Magazine,
}

/// A per-thread front-end for a [`DsaHeap`].
///
/// Not `Send`/`Sync` (it owns raw cached pointers): create one per
/// thread. Dropping the cache flushes every parked object back to the
/// heap and folds the hit counters in, so books balance at thread
/// exit.
pub struct ThreadCache<'h> {
    heap: &'h DsaHeap,
    depth: usize,
    mags: Vec<ClassMags>,
    local_allocs: u64,
    local_frees: u64,
    local_exchanges: u64,
    /// Names (word offsets) of the large blocks set aside, and the
    /// words their layouts asked for.
    large: [u64; LARGE_PARK_BLOCKS],
    large_len: usize,
    large_words: u64,
}

impl<'h> ThreadCache<'h> {
    /// A cache with the heap's configured magazine depth.
    #[must_use]
    pub fn new(heap: &'h DsaHeap) -> ThreadCache<'h> {
        ThreadCache::with_depth(heap, heap.config().magazine_depth)
    }

    /// A cache with an explicit magazine depth (the depth-sweep
    /// experiments use this).
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
        let mags = (0..heap.classes().count())
            .map(|_| ClassMags {
                loaded: Magazine::EMPTY,
                prev: Magazine::EMPTY,
            })
            .collect();
        ThreadCache {
            heap,
            depth,
            mags,
            local_allocs: 0,
            local_frees: 0,
            local_exchanges: 0,
            large: [0; LARGE_PARK_BLOCKS],
            large_len: 0,
            large_words: 0,
        }
    }

    /// The heap this cache fronts (identity check for global installs).
    #[must_use]
    pub(crate) fn heap_ptr(&self) -> *const DsaHeap {
        self.heap
    }

    /// Allocates a block for `layout`. Ladder sizes go through the
    /// magazines; larger (or hyper-aligned) requests pass straight to
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
            if self.heap.in_class_slab(class, ptr) {
                let m = &mut self.mags[class];
                if m.loaded.len() < self.depth {
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
        let Some(off) = self.heap.word_off_of(ptr) else {
            // SAFETY: forwarded caller contract.
            return unsafe { self.heap.dealloc_outside_slab(ptr, layout) };
        };
        self.large[self.large_len] = off;
        self.large_len += 1;
        self.large_words += (layout.size() as u64).div_ceil(BYTES_PER_WORD);
        if self.large_len == LARGE_PARK_BLOCKS || self.large_words > LARGE_PARK_WORDS {
            self.return_large();
        }
    }

    /// Returns the large blocks set aside to the arena; `false` if there
    /// were none.
    fn return_large(&mut self) -> bool {
        let parked = std::mem::take(&mut self.large_len);
        self.heap.large_free(&mut self.large[..parked]);
        self.large_words = 0;
        parked > 0
    }

    /// The heap's large path; a full arena first gets back what this
    /// thread has set aside — that may be the room it lacks, and the
    /// system must not be asked while the heap holds it.
    fn large_alloc(&mut self, layout: Layout) -> *mut u8 {
        let heap = self.heap;
        heap.large_alloc(layout, || self.return_large())
    }

    /// Returns every parked object and every large block set aside to
    /// the heap and folds the hit counters into
    /// [`HeapStats`](crate::heap::HeapStats). The
    /// cache stays usable.
    pub(crate) fn flush(&mut self) {
        // Outside an allocator frame (thread exit, an explicit flush):
        // the arena's books may grow under the shard locks taken here,
        // and an installed `GlobalDsa` must not be asked for that
        // memory — it would come back for the same lock.
        let _guard = crate::global::DepthGuard::enter();
        self.return_large();
        for class in 0..self.mags.len() {
            loop {
                let p = {
                    let m = &mut self.mags[class];
                    m.loaded.pop().or_else(|| m.prev.pop())
                };
                let Some(p) = p else { break };
                self.heap.slab_push(class, p);
            }
        }
        self.heap.fold_magazine_counters(
            std::mem::take(&mut self.local_allocs),
            std::mem::take(&mut self.local_frees),
            std::mem::take(&mut self.local_exchanges),
        );
    }

    /// Cold alloc path: depot exchange, then the raw slab, then the
    /// large path (slab exhausted).
    fn alloc_slow(&mut self, class: usize, layout: Layout) -> *mut u8 {
        let exchanged = {
            let mut depot = self.heap.depot(class);
            if let Some(full) = depot.full.pop() {
                let shell = std::mem::replace(&mut self.mags[class].loaded, full);
                depot.empty.push(shell);
                true
            } else {
                false
            }
        };
        if exchanged {
            self.local_exchanges += 1;
            if let Some(p) = self.mags[class].loaded.pop() {
                self.local_allocs += 1;
                return p;
            }
        }
        // Depot dry: serve one object straight from the slab. Magazines
        // fill on the free side — pre-filling here would just move the
        // miss cost around.
        match self.heap.slab_pop(class) {
            Some(p) => p,
            None => self.large_alloc(layout),
        }
    }

    /// Cold free path: trade the full loaded magazine for an empty one
    /// at the depot, then push. A depot already at its bound declines
    /// the full one under the same lock, and it is drained to the slab
    /// here instead (bounding parked memory).
    fn dealloc_slow(&mut self, class: usize, ptr: *mut u8) {
        let surplus = {
            let mut depot = self.heap.depot(class);
            let shell = depot.empty.pop().unwrap_or(Magazine::EMPTY);
            let full = std::mem::replace(&mut self.mags[class].loaded, shell);
            if depot.full.len() < DEPOT_MAX_FULL {
                depot.full.push(full);
                None
            } else {
                Some(full)
            }
        };
        self.local_exchanges += 1;
        if let Some(mut mag) = surplus {
            while let Some(p) = mag.pop() {
                self.heap.slab_push(class, p);
            }
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
    use crate::heap::HeapConfig;

    fn layout(size: usize) -> Layout {
        Layout::from_size_align(size, 8).unwrap()
    }

    #[test]
    fn magazine_is_a_lifo_stack() {
        let mut m = Magazine::EMPTY;
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

    /// An 8 MiB region, so that a few hundred KiB of large blocks fit
    /// beside the slab spans.
    fn roomy() -> HeapConfig {
        HeapConfig {
            arena_words: 1 << 20,
            ..HeapConfig::small()
        }
    }

    #[test]
    fn large_frees_are_gathered_up_to_a_bound_in_blocks_and_in_words() {
        let heap = DsaHeap::new(roomy());
        let mut cache = ThreadCache::new(&heap);
        let l = layout(4096);
        let ptrs: Vec<*mut u8> = (0..LARGE_PARK_BLOCKS).map(|_| cache.alloc(l)).collect();
        let live = heap.live_words();
        for (n, &p) in ptrs.iter().enumerate() {
            // Set aside: still live in the arena, the books balanced
            // with nothing flushed.
            assert_eq!(heap.stats().large_frees, 0, "after {n} frees");
            assert_eq!(heap.live_words(), live);
            heap.check_reconciliation();
            unsafe { cache.dealloc(p, l) };
        }
        assert_eq!(heap.stats().large_frees, LARGE_PARK_BLOCKS as u64);
        assert_eq!(heap.live_words(), live - 512 * LARGE_PARK_BLOCKS as u64);
        // Three blocks of 200 KiB pass the word bound at the third.
        let big = layout(200 << 10);
        let ptrs: Vec<*mut u8> = (0..3).map(|_| cache.alloc(big)).collect();
        assert!(ptrs.iter().all(|&p| heap.contains(p)));
        for (n, &p) in ptrs.iter().enumerate() {
            assert_eq!(heap.stats().large_frees, 16, "after {n} big frees");
            unsafe { cache.dealloc(p, big) };
        }
        assert_eq!(heap.stats().large_frees, 19);
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
        // The second of these frees names a block already set aside:
        // found out when the lot goes back, counted once, nothing freed.
        for p in [ptrs[3], ptrs[3], ptrs[4]] {
            unsafe { cache.dealloc(p, l) };
        }
        drop(cache);
        let s = heap.stats();
        assert_eq!((s.large_allocs, s.large_frees, s.bad_frees), (5, 5, 1));
        assert_eq!(heap.live_words(), baseline);
        heap.check_reconciliation();
    }

    #[test]
    fn a_full_arena_gets_its_blocks_back_before_the_system_is_asked() {
        let heap = DsaHeap::new(HeapConfig::small());
        let mut cache = ThreadCache::new(&heap);
        let l = layout(64 << 10);
        // Fill the arena: the first block it cannot hold is the system's.
        let mut held = Vec::new();
        let foreign = loop {
            let p = cache.alloc(l);
            if !heap.contains(p) {
                break p;
            }
            held.push(p);
        };
        assert_eq!(heap.stats().system_allocs, 1);
        unsafe { cache.dealloc(foreign, l) };
        assert_eq!(heap.stats().system_frees, 1);
        // Set two aside; the next two requests need exactly that room.
        for _ in 0..2 {
            unsafe { cache.dealloc(held.pop().unwrap(), l) };
        }
        assert_eq!(heap.stats().large_frees, 0);
        for _ in 0..2 {
            let p = cache.alloc(l);
            assert!(
                heap.contains(p),
                "the system was asked while the heap had room"
            );
            held.push(p);
        }
        assert_eq!(heap.stats().large_frees, 2);
        assert_eq!(heap.stats().system_allocs, 1);
        for p in held {
            unsafe { cache.dealloc(p, l) };
        }
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
        // A whole slab freed through one cache: the two magazines fill,
        // then every further magazine-full is one trip to the depot.
        let units = heap.config().class_units as usize;
        let ptrs: Vec<*mut u8> = (0..units).map(|_| heap.alloc_direct(l)).collect();
        for p in ptrs {
            unsafe { cache.dealloc(p, l) };
        }
        let trips = (units / depth - 2) as u64;
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
}
