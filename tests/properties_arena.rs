//! Property-based and concurrency tests on `ShardedArena`, the
//! variable-size core under `DsaHeap` and `ArenaService`.
//!
//! Four claims, each load-bearing for the arena's contract:
//!
//! * **Conservation** — allocated words plus free words equal capacity
//!   at every step, under any op stream (no leak, no mint).
//! * **No double hand-out** — under concurrent churn from 1, 2, and 8
//!   threads, no word of storage is ever inside two live allocations,
//!   observed from outside via a shared claim bitmap.
//! * **Sequential equivalence** — a 1-shard arena is the bare
//!   [`FreeListAllocator`]: same placement decisions, same addresses,
//!   same failures, same modeled search counts, under any op stream,
//!   whether blocks are named by id or by address.
//! * **Two doors** — id-named and address-named blocks share the
//!   shards' books, and each leaves only the way it came in.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use dsa::arena::{ArenaError, ShardedArena};
use dsa::core::error::AllocError;
use dsa::core::ids::PhysAddr;
use dsa::freelist::freelist::{FreeListAllocator, Placement};
use dsa::probe::{NullProbe, Stamp};
use dsa::trace::Rng64;
use proptest::prelude::*;

/// The error both wrong doors answer with.
const UNKNOWN: ArenaError = ArenaError::Alloc(AllocError::UnknownUnit);

/// `alloc_at_probed`, the block named by its own first word, unwatched.
fn alloc_at(arena: &ShardedArena, home: u32, words: u64) -> Result<PhysAddr, ArenaError> {
    arena.alloc_at_probed(
        home,
        words,
        PhysAddr::value,
        Stamp::default(),
        &mut NullProbe,
    )
}

/// `free_at_probed` of one name, unwatched, answering as `free` does.
fn free_at(arena: &ShardedArena, name: u64) -> Result<(), ArenaError> {
    match arena.free_at_probed(&mut [name], Stamp::default(), &mut NullProbe) {
        1 => Ok(()),
        _ => Err(UNKNOWN),
    }
}

/// A random operation stream: sizes for allocs, indices for frees.
#[derive(Clone, Debug)]
enum Op {
    Alloc(u64),
    FreeNth(usize),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (1u64..200).prop_map(Op::Alloc),
            (0usize..64).prop_map(Op::FreeNth),
        ],
        1..200,
    )
}

proptest! {
    /// Words are conserved across every shard at every step: the
    /// snapshot's allocated + free always equals total capacity, and
    /// the arena's own invariant checker (per-shard free-list checks,
    /// ownership consistency, homed == owned) stays green.
    #[test]
    fn arena_conserves_words(ops in arb_ops()) {
        let arena = ShardedArena::new(4, 1024, Placement::FirstFit);
        let mut live: Vec<u64> = Vec::new();
        for (id, op) in ops.iter().enumerate() {
            match *op {
                Op::Alloc(words) => {
                    live.extend(arena.alloc(id as u64, words).ok().map(|_| id as u64));
                }
                Op::FreeNth(i) => {
                    if live.is_empty() {
                        continue;
                    }
                    prop_assert_eq!(arena.free(live.swap_remove(i % live.len())), Ok(()));
                }
            }
            arena.check_invariants();
            let snap = arena.snapshot();
            prop_assert_eq!(
                snap.allocated_words() + snap.free_words(),
                snap.capacity(),
                "allocated + free must equal capacity"
            );
        }
    }

    /// A 1-shard arena makes byte-identical placement decisions to the
    /// bare sequential allocator: same success/failure on every
    /// request, same address on every success, and the same modeled
    /// search count at the end.
    #[test]
    fn one_shard_matches_bare_allocator(ops in arb_ops()) {
        for policy in [Placement::FirstFit, Placement::BestFit, Placement::WorstFit] {
            let arena = ShardedArena::new(1, 2048, policy);
            let mut bare = FreeListAllocator::new(2048, policy);
            let mut live: Vec<u64> = Vec::new();
            for (id, op) in ops.iter().enumerate() {
                let id = id as u64;
                match *op {
                    Op::Alloc(words) => {
                        let got = arena.alloc(id, words).ok();
                        let want = bare.alloc(id, words).ok();
                        prop_assert_eq!(got, want, "{:?}: placement diverged", policy);
                        live.extend(got.map(|_| id));
                    }
                    Op::FreeNth(i) => {
                        if live.is_empty() {
                            continue;
                        }
                        let id = live.swap_remove(i % live.len());
                        prop_assert_eq!(arena.free(id), Ok(()));
                        bare.free(id).expect("live id");
                    }
                }
            }
            arena.check_invariants();
            let snap = &arena.snapshot().shards[0];
            prop_assert_eq!(snap.alloc.stats.probes, bare.stats().probes,
                "modeled search count diverged");
            prop_assert_eq!(snap.alloc.free_words, bare.free_words());
            prop_assert_eq!(snap.alloc.largest_free, bare.largest_free());
            prop_assert_eq!(snap.alloc.hole_count, bare.hole_count());
        }
    }

    /// The same anchor for the address-named door: a 1-shard arena
    /// asked by address places every request where the bare allocator
    /// asked by id does, fails when it fails, and charges the same
    /// probes.
    #[test]
    fn one_shard_by_address_matches_bare_allocator(ops in arb_ops()) {
        for policy in [Placement::FirstFit, Placement::BestFit, Placement::WorstFit] {
            let arena = ShardedArena::new(1, 2048, policy);
            let mut bare = FreeListAllocator::new(2048, policy);
            // Live blocks as (bare id, arena name).
            let mut live: Vec<(u64, u64)> = Vec::new();
            for (id, op) in ops.iter().enumerate() {
                match *op {
                    Op::Alloc(words) => {
                        let got = alloc_at(&arena, 0, words).ok();
                        let want = bare.alloc(id as u64, words).ok();
                        prop_assert_eq!(got, want, "{:?}: placement diverged", policy);
                        live.extend(got.map(|addr| (id as u64, addr.value())));
                    }
                    Op::FreeNth(i) => {
                        if live.is_empty() {
                            continue;
                        }
                        let (id, name) = live.swap_remove(i % live.len());
                        prop_assert_eq!(free_at(&arena, name), Ok(()));
                        bare.free(id).expect("live id");
                    }
                }
            }
            arena.check_invariants();
            let snap = &arena.snapshot().shards[0];
            prop_assert_eq!(snap.alloc.stats.probes, bare.stats().probes);
            prop_assert_eq!(snap.alloc.free_words, bare.free_words());
            prop_assert_eq!(snap.alloc.largest_free, bare.largest_free());
            prop_assert_eq!(snap.alloc.hole_count, bare.hole_count());
            prop_assert_eq!(arena.steals(), 0);
        }
    }

    /// Blocks of both kinds live side by side in the same shards, the
    /// arena's own invariants hold at every step (ownership entries
    /// plus address-named blocks account for every live block), and a
    /// block offered to the wrong door is refused with the books
    /// untouched — also when an id happens to be an address inside its
    /// own block, which small ids in a small arena often are.
    #[test]
    fn each_block_leaves_by_the_door_it_came_in(
        ops in arb_ops(),
        doors in prop::collection::vec(any::<bool>(), 200..201),
    ) {
        let arena = ShardedArena::new(4, 1024, Placement::FirstFit);
        // Live blocks as (name, named by address).
        let mut live: Vec<(u64, bool)> = Vec::new();
        for (i, (op, &by_address)) in ops.iter().zip(&doors).enumerate() {
            match *op {
                Op::Alloc(words) if by_address => {
                    let home = i as u32 % 4;
                    live.extend(alloc_at(&arena, home, words).ok().map(|a| (a.value(), true)));
                }
                Op::Alloc(words) => {
                    // An id that is some live block's address may be
                    // refused as a duplicate name; that is not a leak.
                    let id = i as u64 * 7;
                    live.extend(arena.alloc(id, words).ok().map(|_| (id, false)));
                }
                Op::FreeNth(n) => {
                    if live.is_empty() {
                        continue;
                    }
                    let (name, by_address) = live.swap_remove(n % live.len());
                    // The other door knows this name only if a block of
                    // the other kind happens to share it.
                    if !live.contains(&(name, !by_address)) {
                        let before = (arena.hole_map(), arena.snapshot().stats().frees);
                        let wrong = if by_address { arena.free(name) } else { free_at(&arena, name) };
                        prop_assert_eq!(wrong, Err(UNKNOWN));
                        prop_assert_eq!((arena.hole_map(), arena.snapshot().stats().frees), before);
                    }
                    let right = if by_address { free_at(&arena, name) } else { arena.free(name) };
                    prop_assert_eq!(right, Ok(()));
                }
            }
            arena.check_invariants();
            let by_id = live.iter().filter(|&&(_, by_address)| !by_address).count();
            let homed: usize = arena.snapshot().shards.iter().map(|s| s.homed).sum();
            prop_assert_eq!(homed, by_id, "one ownership entry per id-named block, none other");
        }
        for (name, by_address) in live {
            let freed = if by_address { free_at(&arena, name) } else { arena.free(name) };
            prop_assert_eq!(freed, Ok(()));
        }
        arena.check_invariants();
        prop_assert_eq!(arena.snapshot().free_words(), 4096);
    }
}

/// The address-named door shares the id-named one's placement policy
/// across shards: home first, then the rotation, quarantined shards
/// skipped, every off-home placement counted as a steal, and a request
/// nothing can hold reported with every shard's honest fullness. The
/// address handed back is global — it lies in the stripe of the shard
/// that placed the block, and is all the free side needs.
#[test]
fn address_named_requests_steal_skip_and_report_like_id_named_ones() {
    let arena = ShardedArena::new(3, 100, Placement::FirstFit);
    assert_eq!(
        alloc_at(&arena, 1, 100),
        Ok(PhysAddr(100)),
        "home shard first"
    );
    assert_eq!(arena.steals(), 0);
    assert_eq!(
        alloc_at(&arena, 1, 50),
        Ok(PhysAddr(200)),
        "then the next in rotation"
    );
    assert_eq!(arena.steals(), 1);
    assert!(arena.quarantine(2));
    assert_eq!(
        alloc_at(&arena, 1, 60),
        Ok(PhysAddr(0)),
        "quarantined shard skipped"
    );
    assert_eq!(arena.steals(), 2);
    match alloc_at(&arena, 1, 45) {
        Err(ArenaError::Exhausted {
            requested: 45,
            per_shard,
        }) => {
            let free: Vec<(u64, u64)> = per_shard
                .iter()
                .map(|s| (s.largest_free, s.free_words))
                .collect();
            assert_eq!(
                free,
                [(40, 40), (0, 0), (50, 50)],
                "the quarantined shard's room too"
            );
        }
        other => panic!("expected Exhausted, got {other:?}"),
    }
    assert_eq!(arena.steals(), 2, "a refused request stole nothing");
    assert_eq!(
        alloc_at(&arena, 0, 0),
        Err(ArenaError::Alloc(AllocError::ZeroSize))
    );
    arena.check_invariants();
    // Frees drain into a quarantined shard, and find a stolen block by
    // its address alone.
    for name in [200, 0, 100] {
        assert_eq!(free_at(&arena, name), Ok(()));
        assert_eq!(free_at(&arena, name), Err(UNKNOWN), "freed once");
    }
    assert_eq!(free_at(&arena, 300), Err(UNKNOWN), "past the last stripe");
    assert_eq!(free_at(&arena, u64::MAX), Err(UNKNOWN));
    arena.check_invariants();
    assert_eq!(arena.snapshot().free_words(), 300);
}

/// A batch of names goes back under one lock per owning shard, in any
/// order, and the count says how many named a live block: a name given
/// twice, an id, a freed block and an address past the arena do not.
#[test]
fn a_batch_of_names_frees_what_is_live_and_counts_it() {
    let arena = ShardedArena::new(4, 100, Placement::FirstFit);
    let names: Vec<u64> = (0..12)
        .map(|i| alloc_at(&arena, i % 4, 20).expect("room").value())
        .collect();
    arena.alloc(7, 5).expect("room");
    assert_eq!(free_at(&arena, names[5]), Ok(()));
    let mut batch: Vec<u64> = names.iter().rev().copied().collect();
    batch.extend([names[0], 7, 400, u64::MAX]);
    let freed = arena.free_at_probed(&mut batch, Stamp::default(), &mut NullProbe);
    assert_eq!(freed, 11, "twelve live names less the one already freed");
    arena.check_invariants();
    assert_eq!(
        arena.snapshot().allocated_words(),
        5,
        "the id-named block stays"
    );
    assert_eq!(arena.free(7), Ok(()));
}

/// Claim bitmap covering the arena's global address space: each
/// successful allocation claims its word range, each free releases it.
/// Two live allocations sharing a word — a double hand-out — trips the
/// claim assert in whichever thread arrives second.
struct ClaimMap {
    words: Vec<AtomicBool>,
}

impl ClaimMap {
    fn new(capacity: u64) -> ClaimMap {
        ClaimMap {
            words: (0..capacity).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    fn claim(&self, addr: u64, len: u64) -> bool {
        (addr..addr + len).all(|w| !self.words[w as usize].swap(true, Ordering::AcqRel))
    }

    fn release(&self, addr: u64, len: u64) {
        for w in addr..addr + len {
            assert!(
                self.words[w as usize].swap(false, Ordering::AcqRel),
                "released a word that was never claimed"
            );
        }
    }
}

/// Churns the arena from `threads` workers, each owning an id
/// namespace, while a shared [`ClaimMap`] checks from outside that no
/// word is ever inside two live allocations.
fn churn_no_double_handout(threads: u64) {
    const SHARDS: u32 = 4;
    const SHARD_WORDS: u64 = 4096;
    const OPS: usize = 3_000;
    let arena = ShardedArena::new(SHARDS, SHARD_WORDS, Placement::FirstFit);
    let claims = ClaimMap::new(u64::from(SHARDS) * SHARD_WORDS);
    let overlaps = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let arena = &arena;
            let claims = &claims;
            let overlaps = &overlaps;
            scope.spawn(move || {
                let mut rng = Rng64::new(900 + t);
                // id -> (global addr, words) for this worker's live set.
                let mut live: Vec<(u64, u64, u64)> = Vec::new();
                let mut next = 0u64;
                for _ in 0..OPS {
                    let grow = live.is_empty() || rng.next_u64() % 100 < 55;
                    if grow {
                        let id = (t << 40) | next;
                        next += 1;
                        let words = 1 + rng.next_u64() % 96;
                        if let Ok(addr) = arena.alloc(id, words) {
                            if !claims.claim(addr.value(), words) {
                                overlaps.fetch_add(1, Ordering::Relaxed);
                            }
                            live.push((id, addr.value(), words));
                        }
                    } else {
                        let i = (rng.next_u64() as usize) % live.len();
                        let (id, addr, words) = live.swap_remove(i);
                        // Release BEFORE the arena frees: otherwise a
                        // racing re-allocation of the words would trip
                        // the map spuriously.
                        claims.release(addr, words);
                        assert_eq!(arena.free(id), Ok(()));
                    }
                }
                for (id, addr, words) in live {
                    claims.release(addr, words);
                    assert_eq!(arena.free(id), Ok(()));
                }
            });
        }
    });
    assert_eq!(
        overlaps.load(Ordering::Relaxed),
        0,
        "a word of storage was handed to two live allocations"
    );
    arena.check_invariants();
    let snap = arena.snapshot();
    assert_eq!(snap.allocated_words(), 0, "everything was freed");
    assert_eq!(snap.free_words(), snap.capacity());
}

#[test]
fn no_double_handout_1_thread() {
    churn_no_double_handout(1);
}

#[test]
fn no_double_handout_2_threads() {
    churn_no_double_handout(2);
}

#[test]
fn no_double_handout_8_threads() {
    churn_no_double_handout(8);
}
