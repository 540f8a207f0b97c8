//! The `GlobalAlloc` front-end: install the heap as the process
//! allocator.
//!
//! ```ignore
//! use dsa_alloc::{GlobalDsa, HeapConfig};
//!
//! #[global_allocator]
//! static HEAP: GlobalDsa = GlobalDsa::new(HeapConfig::DEFAULT);
//! ```
//!
//! Two problems make a self-hosted allocator interesting, and both are
//! solved here rather than in the heap:
//!
//! * **Reentrancy.** The heap's own bookkeeping (shard books, hole
//!   tables, magazines) allocates. If those allocations
//!   re-entered the heap they would deadlock on the locks already
//!   held. A thread-local depth guard routes every nested allocation
//!   to [`System`]; on the free side pointers route by address (region
//!   pointers to the heap, everything else to `System`), so the split
//!   heals itself.
//! * **Thread teardown.** The per-thread [`ThreadCache`] lives in TLS
//!   and flushes its magazines on thread exit; allocations that happen
//!   *during* teardown (or before TLS is ready) fall back to the
//!   heap's direct path or to `System`, both of which are
//!   TLS-independent.
//!
//! With the `nightly` feature, [`GlobalDsa`] also implements the
//! unstable [`core::alloc::Allocator`] trait so it can back individual
//! collections without being the global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::sync::OnceLock;

use crate::heap::{DsaHeap, HeapConfig, HeapStats};
use crate::magazine::ThreadCache;

thread_local! {
    /// Reentrancy depth. Non-zero means an allocator frame is already
    /// on this thread's stack: nested allocations go to `System`.
    /// `Cell<usize>` has no destructor, so the guard stays readable
    /// even while other TLS destructors run.
    static DEPTH: Cell<usize> = const { Cell::new(0) };

    /// The per-thread magazine cache. Built lazily on first use (the
    /// `Box` itself routes to `System` through the depth guard);
    /// dropped at thread exit, which flushes the magazines.
    static CACHE: RefCell<Option<Box<ThreadCache<'static>>>> = const { RefCell::new(None) };
}

/// A lazily-initialized [`DsaHeap`] behind [`GlobalAlloc`].
///
/// `const`-constructible so it can be a `static`; the heap itself is
/// built on first allocation.
///
/// # Safety contract
///
/// A `GlobalDsa` used through [`GlobalAlloc`] (or the nightly
/// `Allocator` impl) must live for the rest of the process — in
/// practice: be a `static`, as the `#[global_allocator]` attribute
/// requires. The thread caches borrow the heap at `'static`.
pub struct GlobalDsa {
    config: HeapConfig,
    heap: OnceLock<DsaHeap>,
}

impl GlobalDsa {
    /// A global allocator with the given heap geometry.
    #[must_use]
    pub const fn new(config: HeapConfig) -> GlobalDsa {
        GlobalDsa {
            config,
            heap: OnceLock::new(),
        }
    }

    /// The heap, building it on first call. Construction runs under
    /// the depth guard: if this allocator is already installed
    /// globally, the heap's own setup allocations route to `System`
    /// instead of re-entering the initializing `OnceLock`.
    pub fn heap(&self) -> &DsaHeap {
        self.heap.get_or_init(|| {
            let _guard = DepthGuard::enter();
            DsaHeap::new(self.config)
        })
    }

    /// Flushes the calling thread's magazine cache back to the heap
    /// (for quiescing before [`DsaHeap::check_reconciliation`] — not
    /// needed for correctness, the books include parked objects).
    pub fn flush_current_thread(&self) {
        let _ = CACHE.try_with(|slot| {
            if let Ok(mut slot) = slot.try_borrow_mut() {
                if let Some(cache) = slot.as_mut() {
                    cache.flush();
                }
            }
        });
    }

    /// The heap's counters plus the calling thread's magazine hits and
    /// depot exchanges not yet folded in; flushes nothing. Other
    /// threads' counts still trail until they flush or exit.
    pub fn stats(&self) -> HeapStats {
        let heap = self.heap();
        let mut stats = heap.stats();
        let _ = CACHE.try_with(|slot| match slot.try_borrow().as_deref() {
            Ok(Some(cache)) if std::ptr::eq(cache.heap_ptr(), heap) => {
                cache.add_unfolded(&mut stats)
            }
            _ => {}
        });
        stats
    }

    /// The heap with its lifetime extended to `'static`.
    ///
    /// SAFETY: callers uphold the type's safety contract (the value is
    /// a `static`); `OnceLock` never moves its contents.
    #[allow(clippy::mut_from_ref)]
    fn static_heap(&self) -> &'static DsaHeap {
        let heap: &DsaHeap = self.heap();
        // SAFETY: see above.
        unsafe { &*std::ptr::from_ref(heap) }
    }
}

/// RAII depth guard for heap code that allocates on its own behalf
/// *outside* an allocator frame — introspection (snapshots, invariant
/// sweeps) and lazy heap construction. While held, any allocation that
/// re-enters an installed [`GlobalDsa`] routes to `System`, so reading
/// the books cannot mutate the books. A no-op when a frame is already
/// active or the allocator is not installed.
pub(crate) struct DepthGuard {
    entered: bool,
}

impl DepthGuard {
    pub(crate) fn enter() -> DepthGuard {
        DepthGuard { entered: enter() }
    }
}

impl Drop for DepthGuard {
    fn drop(&mut self) {
        if self.entered {
            leave();
        }
    }
}

/// Enters an allocator frame. `false` means one is already active (or
/// TLS is gone) — the caller must take the `System`/direct route.
fn enter() -> bool {
    DEPTH
        .try_with(|d| {
            if d.get() == 0 {
                d.set(1);
                true
            } else {
                false
            }
        })
        .unwrap_or(false)
}

fn leave() {
    let _ = DEPTH.try_with(|d| d.set(0));
}

/// Runs `f` against the thread's cache, building it on first use;
/// falls back to `direct` when TLS is unavailable (thread teardown) or
/// the cache belongs to a different heap.
fn with_cache<R>(
    heap: &'static DsaHeap,
    f: impl FnOnce(&mut ThreadCache<'static>) -> R,
    direct: impl FnOnce(&DsaHeap) -> R,
) -> R {
    let run = CACHE.try_with(|slot| {
        let Ok(mut slot) = slot.try_borrow_mut() else {
            return None;
        };
        let cache = slot.get_or_insert_with(|| Box::new(ThreadCache::new(heap)));
        if std::ptr::eq(cache.heap_ptr(), heap) {
            Some(f(cache))
        } else {
            None
        }
    });
    match run {
        Ok(Some(r)) => r,
        _ => direct(heap),
    }
}

// SAFETY: `DsaHeap`'s arena and magazines uphold `GlobalAlloc`'s
// contract — live blocks are disjoint, suitably aligned, and stable —
// and the depth guard keeps the allocator's own footprint on `System`.
unsafe impl GlobalAlloc for GlobalDsa {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !enter() {
            // Nested frame: this is the heap allocating for itself.
            return match self.heap.get() {
                Some(heap) => heap.system_alloc(layout),
                // SAFETY: caller contract (non-zero layout).
                None => unsafe { System.alloc(layout) },
            };
        }
        let heap = self.static_heap();
        let p = with_cache(
            heap,
            |cache| cache.alloc(layout),
            |h| h.alloc_direct(layout),
        );
        leave();
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if !enter() {
            // Nested frees can only see `System` pointers (everything
            // allocated under the guard came from `System`), but route
            // defensively by address: region pointers must go home.
            match self.heap.get() {
                // SAFETY: caller contract; the heap sends non-region
                // pointers to `System`, counted.
                Some(heap) => unsafe { heap.dealloc_direct(ptr, layout) },
                // SAFETY: caller contract; with no heap yet, every
                // pointer is `System`'s.
                None => unsafe { System.dealloc(ptr, layout) },
            }
            return;
        }
        let heap = self.static_heap();
        if heap.contains(ptr) {
            with_cache(
                heap,
                // SAFETY: caller contract.
                |cache| unsafe { cache.dealloc(ptr, layout) },
                // SAFETY: caller contract.
                |h| unsafe { h.dealloc_direct(ptr, layout) },
            );
        } else {
            // Allocated before the heap existed, under the guard, or by
            // the exhaustion fallback.
            // SAFETY: caller contract.
            unsafe { heap.dealloc_direct(ptr, layout) };
        }
        leave();
    }
}

#[cfg(feature = "nightly")]
// SAFETY: blocks from `allocate` are valid for `deallocate` until
// freed; clones of the (zero-sized borrow of the) allocator are
// interchangeable.
unsafe impl core::alloc::Allocator for &GlobalDsa {
    fn allocate(&self, layout: Layout) -> Result<std::ptr::NonNull<[u8]>, std::alloc::AllocError> {
        if layout.size() == 0 {
            let dangling = layout.align() as *mut u8;
            return match std::ptr::NonNull::new(dangling) {
                Some(p) => Ok(std::ptr::NonNull::slice_from_raw_parts(p, 0)),
                None => Err(std::alloc::AllocError),
            };
        }
        // SAFETY: layout is non-zero.
        let p = unsafe { GlobalAlloc::alloc(*self, layout) };
        match std::ptr::NonNull::new(p) {
            Some(p) => Ok(std::ptr::NonNull::slice_from_raw_parts(p, layout.size())),
            None => Err(std::alloc::AllocError),
        }
    }

    unsafe fn deallocate(&self, ptr: std::ptr::NonNull<u8>, layout: Layout) {
        if layout.size() == 0 {
            return;
        }
        // SAFETY: forwarded caller contract.
        unsafe { GlobalAlloc::dealloc(*self, ptr.as_ptr(), layout) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Not installed as #[global_allocator] here (tests must not hijack
    // the test harness's heap); exercised through the trait instead.
    // The example binary and the E21 experiment install it for real.
    static HEAP: GlobalDsa = GlobalDsa::new(HeapConfig::small());

    #[test]
    fn trait_roundtrip_small_and_large() {
        let l_small = Layout::from_size_align(48, 8).unwrap();
        let l_large = Layout::from_size_align(1 << 14, 16).unwrap();
        unsafe {
            let a = HEAP.alloc(l_small);
            let b = HEAP.alloc(l_large);
            assert!(!a.is_null() && !b.is_null());
            a.write_bytes(0x11, 48);
            b.write_bytes(0x22, 1 << 14);
            assert_eq!(*a, 0x11);
            assert_eq!(*b.add((1 << 14) - 1), 0x22);
            HEAP.dealloc(a, l_small);
            HEAP.dealloc(b, l_large);
        }
        HEAP.flush_current_thread();
        HEAP.heap().flush_depots();
        HEAP.heap().check_reconciliation();
    }

    #[test]
    fn reentrant_frames_route_to_system() {
        // Simulate the heap allocating for itself: under the guard,
        // pointers must come from System (outside the region).
        let l = Layout::from_size_align(64, 8).unwrap();
        assert!(enter());
        let p = unsafe { HEAP.alloc(l) };
        assert!(!HEAP.heap().contains(p));
        unsafe { HEAP.dealloc(p, l) };
        leave();
    }

    #[test]
    fn system_traffic_is_counted_once_the_heap_exists() {
        static OWN: GlobalDsa = GlobalDsa::new(HeapConfig::small());
        let heap = OWN.heap();
        let before = heap.stats();
        let l = Layout::from_size_align(64, 8).unwrap();
        // Two re-entrant allocations: one freed in its frame, one after.
        assert!(enter());
        let (p, q) = unsafe { (OWN.alloc(l), OWN.alloc(l)) };
        assert!(!heap.contains(p) && !heap.contains(q));
        unsafe { OWN.dealloc(p, l) };
        leave();
        let s = heap.stats();
        assert_eq!(
            s.system_allocs - s.system_frees,
            before.system_allocs - before.system_frees + 1
        );
        unsafe { OWN.dealloc(q, l) };
        let s = heap.stats();
        assert_eq!(
            (s.system_allocs, s.system_frees),
            (before.system_allocs + 2, before.system_frees + 2)
        );
    }

    #[test]
    fn arena_class_blocks_parked_anywhere_keep_the_books() {
        static OWN: GlobalDsa = GlobalDsa::new(HeapConfig::small());
        let heap = OWN.heap();
        let baseline = heap.live_words();
        // 8 KiB: sixteen a magazine, 128 KiB.
        let l = Layout::from_size_align(8 << 10, 8).unwrap();
        let ptrs: Vec<*mut u8> = (0..40).map(|_| unsafe { OWN.alloc(l) }).collect();
        for p in ptrs {
            unsafe { OWN.dealloc(p, l) };
        }
        // Twenty-four in this thread's magazines, sixteen in the depot,
        // all of them arena-live.
        assert_eq!(heap.depot_parked(), 16);
        assert_eq!(heap.live_words(), baseline + 40 * 1024);
        heap.check_reconciliation();
        OWN.flush_current_thread();
        heap.flush_depots();
        heap.check_reconciliation();
        assert_eq!(heap.live_words(), baseline);
        assert_eq!(heap.stats().large_frees, 40);
    }

    #[test]
    fn stats_count_this_threads_magazines_before_any_flush() {
        static OWN: GlobalDsa = GlobalDsa::new(HeapConfig::small());
        // A thread of its own, so its cache fronts `OWN`.
        std::thread::spawn(|| {
            let l = Layout::from_size_align(64, 8).unwrap();
            let p = unsafe { OWN.alloc(l) };
            unsafe { OWN.dealloc(p, l) };
            let q = unsafe { OWN.alloc(l) };
            assert_eq!(p, q, "the magazine hands the block back");
            unsafe { OWN.dealloc(q, l) };
            let folded = OWN.heap().stats();
            assert_eq!((folded.magazine_allocs, folded.magazine_frees), (0, 0));
            let s = OWN.stats();
            assert_eq!((s.magazine_allocs, s.magazine_frees), (1, 2));
            // Reading folded nothing in.
            assert_eq!(OWN.heap().stats(), folded);
            OWN.flush_current_thread();
            assert_eq!(OWN.stats(), OWN.heap().stats());
            assert_eq!(OWN.heap().stats().magazine_frees, 2);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn foreign_pointers_take_the_system_path() {
        // A block allocated straight from System must round-trip
        // through GlobalDsa::dealloc by address routing.
        let l = Layout::from_size_align(256, 8).unwrap();
        let p = unsafe { System.alloc(l) };
        assert!(!HEAP.heap().contains(p));
        unsafe { HEAP.dealloc(p, l) };
    }
}
