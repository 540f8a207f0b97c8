//! E21 — a real allocator: size-class slabs, per-thread magazines,
//! and the system allocator as the yardstick (extension).
//!
//! The seed experiments model allocation (probe counts, placement
//! quality); this binary runs the *operational* allocator built on the
//! same substrate — [`DsaHeap`]'s size-class slabs over a
//! `ShardedArena` region, fronted by Bonwick-style per-thread
//! magazine caches ([`ThreadCache`]) — and races it against
//! `std::alloc::System` on the same mixed-size churn.
//!
//! Three phases:
//!
//! 1. **Churn** — a sliding window of live objects, random alloc/free
//!    with jemalloc-ladder sizes plus an occasional large block, timed
//!    for `System`, the no-magazine slab path (`alloc_direct`), and
//!    the magazine path. Same seed, same op sequence, per backend.
//! 2. **Producer/consumer** — one thread allocates, another frees, so
//!    every object crosses caches and returns home through the depot.
//! 3. **Depth sweep** — small-object churn at magazine depths 1..64,
//!    showing the depot amortization the depth buys.
//!
//! After every phase the heap's books are reconciled
//! ([`DsaHeap::check_reconciliation`]): the telemetry ledger must
//! equal backend-live words exactly, magazines included. Wall-clock
//! numbers vary by host, so this binary is not part of the golden
//! gauntlet; the accounting assertions are what must always hold.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::mpsc;
use std::time::Instant;

use dsa_alloc::{DsaHeap, HeapConfig, ThreadCache, MAG_MAX};
use dsa_metrics::table::Table;
use dsa_trace::rng::Rng64;

use crate::cli::FlagSpec;
use crate::{Args, Failure, Report};

/// The `--ops N` flag: churn operations per timed phase.
pub(super) const OPS: FlagSpec = FlagSpec {
    name: "--ops",
    value: Some("N"),
    help: "churn operations per timed phase (default: 2000000)",
};

/// Live-object window for the churn phases: at any instant at most
/// this many objects are outstanding, as in the E5 lifetime streams.
const WINDOW: usize = 512;

/// The small-size menu: one representative per ladder region, so the
/// churn touches many classes without degenerating into one slab.
const SMALL_SIZES: [usize; 12] = [16, 24, 32, 48, 64, 96, 128, 192, 256, 512, 1024, 2048];

/// One in this many allocations takes the large path (4 KB–32 KB).
const LARGE_EVERY: u64 = 32;

/// An allocation backend under test: the churn driver is generic so
/// every backend replays the identical op sequence.
trait Backend {
    fn alloc(&mut self, layout: Layout) -> *mut u8;
    /// # Safety
    ///
    /// `ptr` must be live from this backend's `alloc` with `layout`.
    unsafe fn dealloc(&mut self, ptr: *mut u8, layout: Layout);
}

/// `std::alloc::System`, the yardstick.
struct SystemBackend;

impl Backend for SystemBackend {
    fn alloc(&mut self, layout: Layout) -> *mut u8 {
        // SAFETY: layout is non-zero (the churn driver never asks for
        // zero bytes).
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&mut self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded caller contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// The no-magazine slab path: every op takes the shared slab word.
struct DirectBackend<'h>(&'h DsaHeap);

impl Backend for DirectBackend<'_> {
    fn alloc(&mut self, layout: Layout) -> *mut u8 {
        self.0.alloc_direct(layout)
    }
    unsafe fn dealloc(&mut self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded caller contract.
        unsafe { self.0.dealloc_direct(ptr, layout) }
    }
}

/// The magazine path: per-thread cache in front of the same heap.
struct MagazineBackend<'h>(ThreadCache<'h>);

impl Backend for MagazineBackend<'_> {
    fn alloc(&mut self, layout: Layout) -> *mut u8 {
        self.0.alloc(layout)
    }
    unsafe fn dealloc(&mut self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded caller contract.
        unsafe { self.0.dealloc(ptr, layout) }
    }
}

/// Draws the next request size — mostly ladder sizes, occasionally a
/// multi-page large block.
fn next_size(rng: &mut Rng64) -> usize {
    if rng.below(LARGE_EVERY) == 0 {
        rng.range(4_096, 32_768) as usize
    } else {
        SMALL_SIZES[rng.below(SMALL_SIZES.len() as u64) as usize]
    }
}

/// Runs `ops` random alloc/free operations over a [`WINDOW`]-slot
/// live set and returns mean ns per operation. Every allocation is
/// written to once, so the measurement includes the first-touch cost
/// a real mutator always pays.
fn churn<B: Backend>(backend: &mut B, ops: u64, seed: u64) -> f64 {
    let mut rng = Rng64::new(seed);
    let mut slots: Vec<Option<(*mut u8, Layout)>> = vec![None; WINDOW];
    let start = Instant::now();
    for _ in 0..ops {
        let i = rng.below(WINDOW as u64) as usize;
        match slots[i].take() {
            Some((p, l)) => {
                // SAFETY: `p` is live from this backend with layout `l`.
                unsafe { backend.dealloc(p, l) };
            }
            None => {
                let layout = Layout::from_size_align(next_size(&mut rng), 8).expect("valid");
                let p = backend.alloc(layout);
                assert!(!p.is_null(), "backend refused {layout:?}");
                // SAFETY: `p` is a live allocation of at least 1 byte.
                unsafe { p.write(i as u8) };
                slots[i] = Some((p, layout));
            }
        }
    }
    let elapsed = start.elapsed().as_nanos() as f64;
    for slot in &mut slots {
        if let Some((p, l)) = slot.take() {
            // SAFETY: `p` is live from this backend with layout `l`.
            unsafe { backend.dealloc(p, l) };
        }
    }
    elapsed / ops as f64
}

/// A raw pointer with its layout, made `Send` so the consumer thread
/// can free what the producer allocated.
struct Parcel(*mut u8, Layout);

// SAFETY: the parcel is a unique handle to a live heap block; sending
// it transfers ownership, and the heap itself is `Sync`.
unsafe impl Send for Parcel {}

/// Producer/consumer: `count` objects allocated on one thread, freed
/// on another, every one crossing caches through the depot.
fn cross_thread_phase(heap: &DsaHeap, count: usize, rep: &mut Report) {
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::sync_channel::<Parcel>(64);
        scope.spawn(move || {
            let mut cache = ThreadCache::new(heap);
            let mut rng = Rng64::new(0x21_0002);
            for _ in 0..count {
                let layout = Layout::from_size_align(next_size(&mut rng), 8).expect("valid");
                let p = cache.alloc(layout);
                assert!(!p.is_null());
                tx.send(Parcel(p, layout)).expect("consumer alive");
            }
        });
        scope.spawn(move || {
            let mut cache = ThreadCache::new(heap);
            while let Ok(Parcel(p, layout)) = rx.recv() {
                // SAFETY: the parcel transferred ownership of a live
                // block allocated with `layout` from this heap.
                unsafe { cache.dealloc(p, layout) };
            }
        });
    });
    heap.flush_depots();
    heap.check_reconciliation();
    let s = heap.stats();
    outln!(rep,
        "cross-thread: {count} objects produced on one thread, consumed on another\n\
         magazine hits {} allocs / {} frees, depot exchanges {}, bad frees {}\n\
         books reconciled: telemetry ledger == backend-live words\n",
        s.magazine_allocs, s.magazine_frees, s.depot_exchanges, s.bad_frees
    );
    rep.metrics.counter(
        "dsa_e21_depot_exchanges",
        "depot exchanges during the cross-thread phase",
        &[],
        s.depot_exchanges,
    );
    rep.metrics.counter(
        "dsa_e21_bad_frees",
        "mis-routed frees during the cross-thread phase (must be 0)",
        &[],
        s.bad_frees,
    );
    assert_eq!(s.bad_frees, 0, "every cross-thread free must route home");
}

pub(super) fn run(args: &Args, rep: &mut Report) -> Result<(), Failure> {
    let ops = args.count(OPS).unwrap_or(2_000_000) as u64;
    outln!(rep, "E21: a real allocator — slab classes, magazines, vs the system allocator\n");
    outln!(rep,
        "{ops} ops per phase, {WINDOW}-slot live window, jemalloc-ladder sizes\n\
         plus 1/{LARGE_EVERY} large blocks (4-32 KB); every phase ends with a full\n\
         ledger reconciliation (magazines included, no flush required)\n"
    );

    // Phase 1: churn, three backends, identical op sequences.
    let heap = DsaHeap::new(HeapConfig::DEFAULT);
    let system_ns = churn(&mut SystemBackend, ops, 0x21_0001);
    let direct_ns = churn(&mut DirectBackend(&heap), ops, 0x21_0001);
    heap.check_reconciliation();
    let magazine_ns = churn(
        &mut MagazineBackend(ThreadCache::new(&heap)),
        ops,
        0x21_0001,
    );
    heap.check_reconciliation();

    let mut t = Table::new(&["backend", "ns/op", "vs System"])
        .with_title("mixed-size churn (same seed, same op sequence)");
    for (name, ns) in [
        ("System", system_ns),
        ("dsa slab direct", direct_ns),
        ("dsa magazines", magazine_ns),
    ] {
        t.row_owned(vec![
            name.to_string(),
            format!("{ns:.1}"),
            format!("{:.2}x", ns / system_ns),
        ]);
    }
    rep.table("churn", t);
    outln!(rep,
        "magazine speedup over the shared slab path: {:.2}x\n",
        direct_ns / magazine_ns
    );
    rep.metrics.gauge(
        "dsa_e21_magazine_speedup",
        "direct slab ns/op divided by magazine ns/op on mixed churn",
        &[],
        direct_ns / magazine_ns,
    );

    // Phase 2: every object freed on a different thread than made it.
    cross_thread_phase(&heap, 200_000, rep);

    // Phase 3: what magazine depth buys. Small objects only — depth
    // governs how often the depot lock is touched, and the large path
    // never sees a magazine.
    let mut t = Table::new(&["depth", "ns/op", "depot exchanges"])
        .with_title("magazine depth sweep (64-byte churn)");
    for depth in [1usize, 2, 4, 8, 16, 32, MAG_MAX] {
        let before = heap.stats().depot_exchanges;
        let mut backend = MagazineBackend(ThreadCache::with_depth(&heap, depth));
        let mut rng = Rng64::new(0x21_0003);
        let layout = Layout::from_size_align(64, 8).expect("valid");
        let mut slots: Vec<Option<*mut u8>> = vec![None; WINDOW];
        let start = Instant::now();
        for _ in 0..ops {
            let i = rng.below(WINDOW as u64) as usize;
            match slots[i].take() {
                // SAFETY: live from this backend with `layout`.
                Some(p) => unsafe { backend.dealloc(p, layout) },
                None => {
                    let p = backend.alloc(layout);
                    assert!(!p.is_null());
                    slots[i] = Some(p);
                }
            }
        }
        let ns = start.elapsed().as_nanos() as f64 / ops as f64;
        for slot in &mut slots {
            if let Some(p) = slot.take() {
                // SAFETY: live from this backend with `layout`.
                unsafe { backend.dealloc(p, layout) };
            }
        }
        drop(backend);
        let exchanges = heap.stats().depot_exchanges - before;
        t.row_owned(vec![
            depth.to_string(),
            format!("{ns:.1}"),
            exchanges.to_string(),
        ]);
    }
    heap.check_reconciliation();
    rep.table("depth_sweep", t);

    let s = heap.stats();
    outln!(rep,
        "\nfinal books: {} magazine allocs, {} magazine frees, {} depot exchanges,\n\
         {} large allocs, {} slab exhaustions, {} bad frees — reconciled after every phase",
        s.magazine_allocs,
        s.magazine_frees,
        s.depot_exchanges,
        s.large_allocs,
        s.slab_exhausted,
        s.bad_frees
    );
    Ok(())
}
