//! E21 — a real allocator: size classes and per-thread magazines,
//! judged by their books (extension).
//!
//! The seed experiments model allocation (probe counts, placement
//! quality); this binary runs the *operational* allocator built on the
//! same substrate — [`DsaHeap`]'s size classes over a `ShardedArena`
//! region, fronted by Bonwick-style per-thread magazine caches
//! ([`ThreadCache`]) — on real churn, and reports what each phase did
//! to the heap's books.
//!
//! Three phases:
//!
//! 1. **Churn** — a sliding window of live objects, random alloc/free
//!    with jemalloc-ladder sizes plus an occasional large block,
//!    through the no-magazine path (`alloc_direct`, straight to the
//!    arena) and the magazine path. Same seed, same op sequence, per backend.
//! 2. **Depth sweep** — small-object churn at magazine depths 1..64,
//!    counting the depot exchanges the depth saves.
//! 3. **Producer/consumer** — one thread allocates, another frees, so
//!    every object crosses caches and returns home through the depot.
//!    Its counts depend on how the two threads interleave, so it runs
//!    on a heap of its own and prints verdicts only.
//!
//! After every phase the heap's books are reconciled
//! ([`DsaHeap::check_reconciliation`]): the heap ledger must equal
//! backend-live blocks and words exactly, magazines included. What the heap
//! costs in host time is `benchmark/`'s `alloc.*` metrics.

use std::alloc::Layout;
use std::sync::mpsc;

use dsa_alloc::{DsaHeap, HeapConfig, HeapStats, ThreadCache, MAG_MAX};
use dsa_metrics::table::Table;
use dsa_trace::rng::Rng64;

use crate::cli::FlagSpec;
use crate::{Args, Failure, Report};

/// The `--ops N` flag: churn operations per phase.
pub(super) const OPS: FlagSpec = FlagSpec {
    name: "--ops",
    value: Some("N"),
    help: "churn operations per phase (default: 2000000)",
};

/// Live-object window for the churn phases: at any instant at most
/// this many objects are outstanding, as in the E5 lifetime streams.
const WINDOW: usize = 512;

/// The small-size menu: one representative per ladder region, so the
/// churn touches many classes without degenerating into one.
const SMALL_SIZES: [usize; 12] = [16, 24, 32, 48, 64, 96, 128, 192, 256, 512, 1024, 2048];

/// One in this many allocations is a large block (4 KB–32 KB): still a
/// class of the ladder, whose top is 32 KiB.
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

/// The no-magazine path: every op takes an arena shard lock.
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
/// live set, each new block `size` bytes, then frees what is left.
/// Every allocation is written to once, as a real mutator writes it.
fn churn<B: Backend>(
    backend: &mut B,
    ops: u64,
    seed: u64,
    mut size: impl FnMut(&mut Rng64) -> usize,
) {
    let mut rng = Rng64::new(seed);
    let mut slots: Vec<Option<(*mut u8, Layout)>> = vec![None; WINDOW];
    for _ in 0..ops {
        let i = rng.below(WINDOW as u64) as usize;
        match slots[i].take() {
            Some((p, l)) => {
                // SAFETY: `p` is live from this backend with layout `l`.
                unsafe { backend.dealloc(p, l) };
            }
            None => {
                let layout = Layout::from_size_align(size(&mut rng), 8).expect("valid");
                let p = backend.alloc(layout);
                assert!(!p.is_null(), "backend refused {layout:?}");
                // SAFETY: `p` is a live allocation of at least 1 byte.
                unsafe { p.write(i as u8) };
                slots[i] = Some((p, layout));
            }
        }
    }
    for slot in &mut slots {
        if let Some((p, l)) = slot.take() {
            // SAFETY: `p` is live from this backend with layout `l`.
            unsafe { backend.dealloc(p, l) };
        }
    }
}

/// A phase's row of the books: what the heap counted since `before`,
/// once its ledger reconciles.
fn books(phase: &str, heap: &DsaHeap, before: HeapStats) -> Vec<String> {
    heap.check_reconciliation();
    let s = heap.stats();
    let counts = [
        s.magazine_allocs - before.magazine_allocs,
        s.magazine_frees - before.magazine_frees,
        s.depot_exchanges - before.depot_exchanges,
        s.large_allocs - before.large_allocs,
        s.bad_frees - before.bad_frees,
    ];
    let counts = counts.iter().map(u64::to_string);
    std::iter::once(phase.to_owned()).chain(counts).collect()
}

/// A raw pointer with its layout, made `Send` so the consumer thread
/// can free what the producer allocated.
struct Parcel(*mut u8, Layout);

// SAFETY: the parcel is a unique handle to a live heap block; sending
// it transfers ownership, and the heap itself is `Sync`.
unsafe impl Send for Parcel {}

/// Producer/consumer: `count` objects allocated on one thread, freed
/// on another, every one crossing caches through the depot, on a heap
/// of its own: how many frees the magazines absorb and how often they
/// meet the depot depend on how the two threads interleave, so its
/// table holds the verdicts only.
fn cross_thread_phase(count: usize) -> Table {
    let heap = &DsaHeap::new(HeapConfig::DEFAULT);
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
    assert_eq!(heap.stats().bad_frees, 0, "every cross-thread free must route home");
    let mut t = Table::new(&["objects", "bad frees", "books"])
        .with_title("phase 3, cross-thread frees: made on one thread, freed on another");
    t.row_owned(vec![
        count.to_string(),
        heap.stats().bad_frees.to_string(),
        "reconciled".to_owned(),
    ]);
    t
}

pub(super) fn run(args: &Args, rep: &mut Report) -> Result<(), Failure> {
    let ops = args.count(OPS).unwrap_or(2_000_000) as u64;
    let mut t = Table::new(&["ops per phase", "live window", "large blocks", "large sizes"])
        .with_title("the op sequence: jemalloc-ladder sizes plus a share of large blocks");
    t.row_owned(vec![
        ops.to_string(),
        WINDOW.to_string(),
        format!("1/{LARGE_EVERY}"),
        "4-32 KB".to_owned(),
    ]);
    rep.table("ops", t);

    // Phase 1: churn, two backends, identical op sequences.
    let heap = DsaHeap::new(HeapConfig::DEFAULT);
    let mut t = Table::new(&[
        "phase",
        "magazine allocs",
        "magazine frees",
        "depot exchanges",
        "large allocs",
        "bad frees",
    ])
    .with_title("books by phase (each reconciled: heap ledger == backend-live words)");
    let before = heap.stats();
    churn(&mut DirectBackend(&heap), ops, 0x21_0001, next_size);
    t.row_owned(books("mixed churn, direct", &heap, before));
    let before = heap.stats();
    let mut backend = MagazineBackend(ThreadCache::new(&heap));
    churn(&mut backend, ops, 0x21_0001, next_size);
    drop(backend);
    t.row_owned(books("mixed churn, magazines", &heap, before));

    // Phase 2: what magazine depth buys. Small objects only — depth
    // governs how often a thread meets the depot, and a 32 KiB
    // class's magazine is capped at 128 KiB whatever the depth.
    let mut depths = Table::new(&["depth", "depot exchanges"])
        .with_title("magazine depth sweep (64-byte churn)");
    let sweep = heap.stats();
    for depth in [1usize, 2, 4, 8, 16, 32, MAG_MAX] {
        let before = heap.stats().depot_exchanges;
        let mut backend = MagazineBackend(ThreadCache::with_depth(&heap, depth));
        churn(&mut backend, ops, 0x21_0003, |_| 64);
        drop(backend);
        let exchanges = heap.stats().depot_exchanges - before;
        depths.row_owned(vec![depth.to_string(), exchanges.to_string()]);
    }
    t.row_owned(books("64-byte depth sweep", &heap, sweep));
    rep.table("books", t);
    rep.table("depth_sweep", depths);

    // Phase 3: every object freed on a different thread than made it.
    rep.table("cross_thread", cross_thread_phase(200_000));
    Ok(())
}
