//! Property-based tests on the operational allocator's magazine
//! accounting: whatever the op stream and thread count, no byte is
//! lost or handed out twice across thread-local caches, the per-class
//! depots, and the shared arena.
//!
//! The load-bearing oracle is [`DsaHeap::check_reconciliation`]: the
//! heap's arena ledger (backend ops only) must equal backend-live
//! blocks and words exactly, with magazine- and depot-parked blocks
//! counted as live.
//! These tests drive that identity through randomized churn at 1, 2,
//! and 8 threads, through cross-thread hand-offs (ladder blocks through
//! the depots, larger ones named to the arena by their address alone),
//! and through flush-on-thread-exit. Two plain tests hammer the
//! lock-free depot itself: every op of a depth-1 ring of threads is an
//! exchange, and its bound is read while magazines are in flight.

use std::alloc::Layout;
use std::collections::HashSet;
use std::sync::Barrier;

use dsa::alloc::{DsaHeap, HeapConfig, ThreadCache, DEPOT_MAX_FULL, MAG_MAX};
use proptest::prelude::*;

/// Ladder sizes the random streams draw from — spanning several
/// classes so magazines, depots, and the arena all see traffic, from
/// the bottom of the ladder to past 4 KiB.
const SIZES: [usize; 7] = [16, 48, 64, 256, 1024, 2048, 5000];

/// One step of a churn stream.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Allocate `SIZES[i]` bytes.
    Alloc(usize),
    /// Free the `n % live`-th live block, if any.
    FreeNth(usize),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0usize..SIZES.len()).prop_map(Op::Alloc),
            (0usize..64).prop_map(Op::FreeNth),
        ],
        1..120,
    )
}

fn layout_for(i: usize) -> Layout {
    Layout::from_size_align(SIZES[i], 8).expect("valid layout")
}

/// Runs one op stream through a cache, freeing everything before the
/// cache drops (and flushes).
fn churn_to_empty(heap: &DsaHeap, ops: &[Op]) {
    let mut cache = ThreadCache::new(heap);
    let mut live: Vec<(*mut u8, Layout)> = Vec::new();
    for op in ops {
        match *op {
            Op::Alloc(i) => {
                let l = layout_for(i);
                let p = cache.alloc(l);
                assert!(!p.is_null());
                live.push((p, l));
            }
            Op::FreeNth(n) => {
                if !live.is_empty() {
                    let (p, l) = live.swap_remove(n % live.len());
                    // SAFETY: `p` is live from this heap with layout `l`.
                    unsafe { cache.dealloc(p, l) };
                }
            }
        }
    }
    for (p, l) in live {
        // SAFETY: remaining blocks are live with their layouts.
        unsafe { cache.dealloc(p, l) };
    }
}

/// A pointer+layout parcel made `Send` so blocks can change threads;
/// ownership moves with it.
struct Parcel(*mut u8, Layout);

// SAFETY: a parcel is the unique handle to a live block of a `Sync`
// heap; sending it transfers ownership.
unsafe impl Send for Parcel {}

proptest! {
    /// Conservation at 1, 2, and 8 threads: every thread churns the
    /// same random stream through its own cache and frees everything;
    /// after caches flush on exit and the depots drain, live words are
    /// back at the baseline and the ledger balances.
    #[test]
    fn allocated_bytes_conserve_across_caches(ops in arb_ops(), t in 0usize..3) {
        let threads = [1usize, 2, 8][t];
        let heap = DsaHeap::new(HeapConfig::small());
        let baseline = heap.live_words();
        std::thread::scope(|s| {
            for _ in 0..threads {
                let (heap, ops) = (&heap, &ops);
                s.spawn(move || churn_to_empty(heap, ops));
            }
        });
        // Mid-state sanity: parked blocks count as live, so the books
        // balance even before the depots are drained.
        heap.check_reconciliation();
        heap.flush_depots();
        heap.check_reconciliation();
        prop_assert_eq!(heap.live_words(), baseline);
        prop_assert_eq!(heap.stats().bad_frees, 0);
    }

    /// No double hand-out: two threads allocating from the same class
    /// ladder never receive the same pointer while both blocks are
    /// live, even with magazines refilled through the shared depot.
    #[test]
    fn no_block_handed_out_twice(count in 1usize..200, size in 0usize..SIZES.len()) {
        let heap = DsaHeap::new(HeapConfig::small());
        let l = layout_for(size);
        let (tx, rx) = std::sync::mpsc::channel::<Parcel>();
        std::thread::scope(|s| {
            for _ in 0..2 {
                let (heap, tx) = (&heap, tx.clone());
                s.spawn(move || {
                    let mut cache = ThreadCache::new(heap);
                    for _ in 0..count {
                        let p = cache.alloc(l);
                        assert!(!p.is_null());
                        tx.send(Parcel(p, l)).expect("receiver alive");
                    }
                });
            }
            drop(tx);
        });
        let parcels: Vec<Parcel> = rx.into_iter().collect();
        let distinct: HashSet<*mut u8> = parcels.iter().map(|p| p.0).collect();
        prop_assert_eq!(distinct.len(), parcels.len());
        prop_assert_eq!(parcels.len(), 2 * count);
        for Parcel(p, l) in parcels {
            // SAFETY: each parcel owns a live block with layout `l`.
            unsafe { heap.dealloc_direct(p, l) };
        }
        heap.flush_depots();
        heap.check_reconciliation();
        prop_assert_eq!(heap.stats().bad_frees, 0);
    }

    /// A one-way hand-off: one thread only allocates, the other only
    /// frees, one block in eight large (of varying size and alignment),
    /// so every large block is parked or named to the arena by a thread
    /// that never saw it allocated. The books balance at a mid-run
    /// pause with nothing flushed — blocks still in flight, magazines
    /// loaded — and again once both caches are gone.
    #[test]
    fn one_way_handoff_reconciles_mid_run_and_after(
        picks in prop::collection::vec((0usize..SIZES.len() - 1, 0usize..4), 16..400),
        pause in 1usize..16,
    ) {
        let heap = DsaHeap::new(HeapConfig::small());
        let baseline = heap.live_words();
        let pause = picks.len() * pause / 16;
        // Over-aligned blocks keep the large path; every other block is
        // of a class, which a magazine may serve.
        let aligned = picks.iter().step_by(8).filter(|&&(_, align)| align > 0).count() as u64;
        let (tx, rx) = std::sync::mpsc::channel::<Parcel>();
        // Both threads stop here twice: once to let the books be read,
        // once to go on.
        let gate = Barrier::new(3);
        std::thread::scope(|s| {
            let (heap, gate, picks) = (&heap, &gate, &picks);
            s.spawn(move || {
                let mut cache = ThreadCache::new(heap);
                for (i, &(size, align)) in picks.iter().enumerate() {
                    if i == pause {
                        gate.wait();
                        gate.wait();
                    }
                    let l = if i % 8 == 0 {
                        Layout::from_size_align(3000 + 977 * size, 8 << (3 * align))
                            .expect("valid layout")
                    } else {
                        layout_for(size)
                    };
                    let p = cache.alloc(l);
                    assert!(!p.is_null());
                    assert_eq!(p as usize % l.align(), 0);
                    tx.send(Parcel(p, l)).expect("receiver alive");
                }
            });
            s.spawn(move || {
                let mut cache = ThreadCache::new(heap);
                // Leave the second half of what has arrived by the
                // pause in flight across it.
                for (i, Parcel(p, l)) in rx.into_iter().enumerate() {
                    if i == pause / 2 {
                        gate.wait();
                        gate.wait();
                    }
                    // SAFETY: the parcel owns a live block with layout `l`.
                    unsafe { cache.dealloc(p, l) };
                }
            });
            gate.wait();
            heap.check_reconciliation();
            gate.wait();
        });
        heap.check_reconciliation();
        heap.flush_depots();
        heap.check_reconciliation();
        // However far ahead the producer ran: every block came from a
        // magazine, the arena or the system, once (the reconciliations
        // above hold every arena one to the arena's own book); no
        // magazine held an over-aligned block; what the arena could not
        // hold went to the system, and all of it came back the way it
        // went.
        let stats = heap.stats();
        prop_assert_eq!(
            stats.magazine_allocs + stats.large_allocs + stats.system_allocs,
            picks.len() as u64
        );
        let parkable = picks.len() as u64 - aligned;
        prop_assert!(stats.magazine_allocs.max(stats.magazine_frees) <= parkable);
        prop_assert_eq!(stats.large_frees, stats.large_allocs);
        prop_assert_eq!(stats.system_frees, stats.system_allocs);
        prop_assert_eq!(stats.bad_frees, 0);
        prop_assert_eq!(heap.live_words(), baseline);
    }

    /// Flush-on-thread-exit reconciles: a thread allocates, frees a
    /// random subset through its cache (parking blocks in magazines),
    /// ships the survivors out, and exits — the drop-flush plus a
    /// depot drain must leave zero parked blocks and balanced books,
    /// with exactly the survivors still live.
    #[test]
    fn thread_exit_flush_reconciles(ops in arb_ops()) {
        let heap = DsaHeap::new(HeapConfig::small());
        let baseline = heap.live_words();
        let (tx, rx) = std::sync::mpsc::channel::<Parcel>();
        std::thread::scope(|s| {
            let heap = &heap;
            s.spawn(move || {
                let mut cache = ThreadCache::new(heap);
                let mut live: Vec<(*mut u8, Layout)> = Vec::new();
                for op in &ops {
                    match *op {
                        Op::Alloc(i) => {
                            let l = layout_for(i);
                            let p = cache.alloc(l);
                            assert!(!p.is_null());
                            live.push((p, l));
                        }
                        Op::FreeNth(n) => {
                            if !live.is_empty() {
                                let (p, l) = live.swap_remove(n % live.len());
                                // SAFETY: `p` is live with layout `l`.
                                unsafe { cache.dealloc(p, l) };
                            }
                        }
                    }
                }
                for (p, l) in live {
                    tx.send(Parcel(p, l)).expect("receiver alive");
                }
                // `cache` drops here: flush-on-thread-exit.
            });
        });
        heap.check_reconciliation();
        heap.flush_depots();
        prop_assert_eq!(heap.depot_parked(), 0);
        heap.check_reconciliation();
        let survivors: Vec<Parcel> = rx.into_iter().collect();
        prop_assert!(heap.live_words() >= baseline);
        for Parcel(p, l) in survivors {
            // SAFETY: each parcel owns a live block with layout `l`.
            unsafe { heap.dealloc_direct(p, l) };
        }
        heap.flush_depots();
        heap.check_reconciliation();
        prop_assert_eq!(heap.live_words(), baseline);
        prop_assert_eq!(heap.stats().bad_frees, 0);
    }
}

/// An arena-class block freed on one thread serves another thread's
/// next allocation of its class through the depot, with no arena call.
#[test]
fn an_arena_class_block_crosses_threads_through_the_depot() {
    let heap = DsaHeap::new(HeapConfig::small());
    let baseline = heap.live_words();
    let l = Layout::from_size_align(8 << 10, 8).expect("valid layout");
    // Three magazines' worth (sixteen blocks, 128 KiB, each): the
    // freeing thread keeps two and hands the third to the depot.
    let count = 3 * 16;
    let (tx, rx) = std::sync::mpsc::channel::<Parcel>();
    let (freed_tx, freed_rx) = std::sync::mpsc::channel::<()>();
    std::thread::scope(|s| {
        let heap = &heap;
        s.spawn(move || {
            let mut cache = ThreadCache::new(heap);
            let made: Vec<*mut u8> = (0..count).map(|_| cache.alloc(l)).collect();
            for &p in &made {
                tx.send(Parcel(p, l)).expect("receiver alive");
            }
            drop(tx);
            freed_rx.recv().expect("the freeing thread reports");
            let before = heap.stats();
            let p = cache.alloc(l);
            assert!(made.contains(&p));
            assert_eq!(heap.stats().large_allocs, before.large_allocs);
            // SAFETY: `p` is live with layout `l`.
            unsafe { cache.dealloc(p, l) };
            drop(cache);
            assert_eq!(heap.stats().depot_exchanges, before.depot_exchanges + 1);
        });
        s.spawn(move || {
            let mut cache = ThreadCache::new(heap);
            for Parcel(p, l) in rx {
                // SAFETY: the parcel owns a live block with layout `l`.
                unsafe { cache.dealloc(p, l) };
            }
            drop(cache);
            freed_tx.send(()).expect("the allocating thread waits");
        });
    });
    heap.check_reconciliation();
    heap.flush_depots();
    heap.check_reconciliation();
    assert_eq!(heap.live_words(), baseline);
    assert_eq!(heap.stats().bad_frees, 0);
}

/// An 8 MiB region: room for a megabyte of 8 KiB blocks in flight, so
/// the depot tests exchange rather than exhaust.
fn roomy() -> HeapConfig {
    HeapConfig {
        arena_words: 1 << 20,
        ..HeapConfig::small()
    }
}

/// A block on its way to another thread, with the tag its maker wrote
/// into its first word.
struct Stamped(*mut u8, u64);

// SAFETY: as for `Parcel`: the unique handle to a live block.
unsafe impl Send for Stamped {}

/// The slot protocol under stress: 2–4 threads in a ring, each with
/// depth-1 magazines, so every alloc past the first and every free is
/// a depot exchange. Each thread stamps what it makes with a tag no
/// other block carries and sends it on; the next thread checks the tag
/// and frees the block. A block handed out twice while live would have
/// its tag overwritten; one lost would unbalance the books. While the
/// ring runs and after, the depot never reads past its bound of
/// `DEPOT_MAX_FULL` magazines.
#[test]
fn a_depth_one_ring_exchanges_every_op_and_loses_nothing() {
    const ROUNDS: u64 = 400;
    const BATCH: u64 = 16;
    let depth = 1;
    for size in [64usize, 8 << 10] {
        for threads in 2..=4usize {
            let heap = DsaHeap::new(roomy());
            let baseline = heap.live_words();
            let l = Layout::from_size_align(size, 8).expect("valid layout");
            let (txs, rxs): (Vec<_>, Vec<_>) = (0..threads)
                .map(|_| std::sync::mpsc::channel::<Stamped>())
                .unzip();
            let mut rxs: Vec<_> = rxs.into_iter().map(Some).collect();
            std::thread::scope(|s| {
                let heap = &heap;
                let ring: Vec<_> = (0..threads)
                    .map(|t| {
                        let tx = txs[(t + 1) % threads].clone();
                        let rx = rxs[t].take().expect("one receiver per thread");
                        s.spawn(move || {
                            let mut cache = ThreadCache::with_depth(heap, depth);
                            for round in 0..ROUNDS {
                                for j in 0..BATCH {
                                    let tag = ((t as u64) << 56) | (round * BATCH + j);
                                    let p = cache.alloc(l);
                                    assert!(!p.is_null());
                                    // SAFETY: `p` is a live block of `size` >= 8 bytes.
                                    unsafe { p.cast::<u64>().write(tag) };
                                    tx.send(Stamped(p, tag)).expect("ring alive");
                                }
                                for _ in 0..BATCH {
                                    let Stamped(p, tag) = rx.recv().expect("ring alive");
                                    // SAFETY: the stamp owns a live block.
                                    let seen = unsafe { p.cast::<u64>().read() };
                                    assert_eq!(seen, tag, "{size}: a block was handed out twice");
                                    // SAFETY: as above; freed once, with its layout.
                                    unsafe {
                                        p.cast::<u64>().write(!tag);
                                        cache.dealloc(p, l);
                                    }
                                }
                            }
                        })
                    })
                    .collect();
                drop(txs);
                let bound = (DEPOT_MAX_FULL * depth) as u64;
                while !ring.iter().all(|h| h.is_finished()) {
                    let parked = heap.depot_parked();
                    assert!(parked <= bound, "{parked} parked past {bound}");
                }
            });
            // Every cache has flushed on exit; what the depot holds is
            // within its bound, and every block is back.
            assert!(heap.depot_parked() <= (DEPOT_MAX_FULL * depth) as u64);
            heap.check_reconciliation();
            heap.flush_depots();
            assert_eq!(heap.depot_parked(), 0);
            heap.check_reconciliation();
            assert_eq!(
                heap.live_words(),
                baseline,
                "{size} x {threads}: blocks lost"
            );
            let s = heap.stats();
            let ops = 2 * ROUNDS * BATCH * threads as u64;
            assert!(s.depot_exchanges >= ops / 2, "{size} x {threads}: {s:?}");
            assert_eq!((s.bad_frees, s.system_allocs), (0, 0));
        }
    }
}

/// `depot_parked` never reads a magazine another thread may be freeing:
/// read in a loop while a producer and a consumer trade one class's
/// magazines through the depot, it races nothing (CI runs this file
/// under TSan) and stays within the depot's bound.
#[test]
fn depot_parked_is_safe_to_read_during_exchanges() {
    let heap = DsaHeap::new(roomy());
    let depth = MAG_MAX;
    let l = Layout::from_size_align(64, 8).expect("valid layout");
    let (tx, rx) = std::sync::mpsc::sync_channel::<Parcel>(32);
    let mut reads = 0u64;
    std::thread::scope(|s| {
        let heap = &heap;
        s.spawn(move || {
            let mut cache = ThreadCache::new(heap);
            for _ in 0..20_000 {
                tx.send(Parcel(cache.alloc(l), l)).expect("receiver alive");
            }
        });
        let consumer = s.spawn(move || {
            let mut cache = ThreadCache::new(heap);
            for Parcel(p, l) in rx {
                // SAFETY: the parcel owns a live block with layout `l`.
                unsafe { cache.dealloc(p, l) };
            }
        });
        let bound = (DEPOT_MAX_FULL * depth) as u64;
        while !consumer.is_finished() {
            let parked = heap.depot_parked();
            assert!(parked <= bound, "{parked} parked past {bound}");
            reads += 1;
        }
    });
    assert!(reads > 0);
    assert!(heap.stats().depot_exchanges > 0);
    heap.check_reconciliation();
    heap.flush_depots();
    heap.check_reconciliation();
    assert_eq!(heap.stats().bad_frees, 0);
}
