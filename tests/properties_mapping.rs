//! Property-based tests on the addressing mechanisms.

use dsa::core::clock::Cycles;
use dsa::core::error::AccessFault;
use dsa::core::ids::{FrameNo, Name, PhysAddr, SegId};
use dsa::mapping::associative::AssocPolicy;
use dsa::mapping::{
    AddressMap, AssocMemory, BlockMap, FrameAssociativeMap, MapCosts, RelocationLimit, TwoLevelMap,
};
use proptest::prelude::*;
use std::collections::HashMap;

#[path = "common/assoc_model.rs"]
mod assoc_model;

fn costs() -> MapCosts {
    MapCosts::for_core_cycle(Cycles::from_micros(1))
}

proptest! {
    /// A block map is injective over mapped names when its blocks are
    /// disjoint: two different names never translate to the same
    /// address.
    #[test]
    fn block_map_is_injective(perm in prop::sample::subsequence((0u64..16).collect::<Vec<_>>(), 4..16)) {
        // Map blocks to disjoint physical slots given by a permutation
        // sample.
        let mut m = BlockMap::new(16, 4, costs());
        for (i, &slot) in perm.iter().enumerate() {
            m.map_block(i as u64, PhysAddr(slot * 16));
        }
        let mut seen: HashMap<u64, u64> = HashMap::new();
        for name in 0..(perm.len() as u64 * 16) {
            let t = m.translate(Name(name));
            let addr = t.outcome.expect("mapped").value();
            if let Some(prev) = seen.insert(addr, name) {
                prop_assert!(false, "names {prev} and {name} alias address {addr}");
            }
        }
    }

    /// Consecutive names inside one block map to consecutive addresses
    /// (name contiguity within the block is real).
    #[test]
    fn block_map_preserves_in_block_contiguity(base in 0u64..1000) {
        let mut m = BlockMap::new(4, 6, costs());
        for b in 0..4 {
            m.map_block(b, PhysAddr(base + b * 1000));
        }
        for name in 0..(4 * 64 - 1) {
            let a = m.translate(Name(name)).outcome.expect("mapped");
            let b = m.translate(Name(name + 1)).outcome.expect("mapped");
            if (name + 1) % 64 != 0 {
                prop_assert_eq!(b.value(), a.value() + 1);
            }
        }
    }

    /// The frame-associative map and a shadow table always agree, over
    /// all 32 frames of an ATLAS: a load may land on an occupied frame
    /// with no unload first (the frame's page leaves it), an unload may
    /// find the frame empty, pages may lie far apart, and names at and
    /// past the extent trap.
    #[test]
    fn frame_associative_matches_shadow(
        ops in prop::collection::vec((0u64..32, 0u64..48, 0u8..4), 1..120),
    ) {
        // 16-word pages over 4096 pages of names: page 4095 is the last.
        const PAGES: u64 = 4096;
        let mut m = FrameAssociativeMap::new(32, 4, PAGES * 16, costs());
        let mut shadow: HashMap<u64, u64> = HashMap::new(); // page -> frame
        // Pages 0..40 sit together; 40..48 stand for pages far out.
        let page_of = |p: u64| if p < 40 { p } else { PAGES - 1 - (p - 40) * 500 };
        for &(frame, p, op) in &ops {
            let page = page_of(p);
            if op == 0 {
                m.unload(FrameNo(frame));
                shadow.retain(|_, &mut f| f != frame);
            } else {
                // The frame's page leaves it. A page lives in at most
                // one frame, so a page resident elsewhere is unloaded
                // from there first.
                if let Some(old_frame) = shadow.remove(&page) {
                    m.unload(FrameNo(old_frame));
                }
                m.load(FrameNo(frame), dsa::core::ids::PageNo(page));
                shadow.retain(|_, &mut f| f != frame);
                shadow.insert(page, frame);
            }
            m.check_invariants();
        }
        for p in 0..48u64 {
            let page = page_of(p);
            let name = Name(page * 16 + 3);
            let t = m.translate(name);
            match shadow.get(&page) {
                Some(&frame) => {
                    prop_assert_eq!(t.outcome.expect("resident"), PhysAddr(frame * 16 + 3));
                    prop_assert_eq!(m.frame_of(dsa::core::ids::PageNo(page)), Some(FrameNo(frame)));
                }
                None => {
                    let missing = matches!(t.outcome, Err(AccessFault::MissingPage { .. }));
                    prop_assert!(missing, "expected a page trap for page {}", page);
                }
            }
        }
        let last = m.translate(Name(PAGES * 16 - 1)).outcome;
        prop_assert!(!matches!(last, Err(AccessFault::InvalidName { .. })), "the last name is valid");
        for name in [PAGES * 16, PAGES * 16 + 1, u64::MAX] {
            let invalid = matches!(m.translate(Name(name)).outcome, Err(AccessFault::InvalidName { .. }));
            prop_assert!(invalid, "name {} is past the extent", name);
        }
    }

    /// The TLB is invisible to correctness: a two-level map with and
    /// without an associative memory translates every access to the
    /// same outcome (only the cost differs).
    #[test]
    fn tlb_never_changes_outcomes(
        accesses in prop::collection::vec((0u32..6, 0u64..300), 1..300),
        tlb in 1usize..16,
    ) {
        let build = |tlb: usize| {
            let mut m = TwoLevelMap::new(6, 256, 4, tlb, AssocPolicy::Lru, costs());
            for s in 0..6u32 {
                let limit = 64 + u64::from(s) * 32; // varied limits
                m.create_segment(SegId(s), limit).expect("fits");
                for p in 0..limit.div_ceil(16) {
                    if (p + u64::from(s)) % 3 != 0 {
                        m.map_page(SegId(s), p, FrameNo(u64::from(s) * 16 + p)).expect("page");
                    }
                }
            }
            m
        };
        let mut with = build(tlb);
        let mut without = build(0);
        for &(seg, off) in &accesses {
            let a = with.translate_pair(SegId(seg), off);
            let b = without.translate_pair(SegId(seg), off);
            match (a.outcome, b.outcome) {
                (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
                (Err(x), Err(y)) => prop_assert_eq!(format!("{x:?}"), format!("{y:?}")),
                (x, y) => prop_assert!(false, "diverged: {x:?} vs {y:?}"),
            }
            prop_assert!(a.cost <= b.cost, "the TLB may only make access cheaper");
        }
    }

    /// Invalidating a segment sweeps every one of its entries out of
    /// the associative memory, wherever they sit, and no other's.
    #[test]
    fn segment_invalidation_sweeps_its_entries_and_only_those(
        loaded in prop::collection::vec((0u32..3, 0u64..4), 1..24),
        victim in 0u32..3,
    ) {
        // Twelve pages, sixteen entries: nothing is ever evicted.
        let mut m = TwoLevelMap::new(3, 64, 4, 16, AssocPolicy::Lru, costs());
        for s in 0..3u32 {
            m.create_segment(SegId(s), 64).expect("fits");
            for p in 0..4 {
                m.map_page(SegId(s), p, FrameNo(u64::from(s) * 4 + p)).expect("page");
            }
        }
        for &(seg, page) in &loaded {
            m.translate_pair(SegId(seg), page * 16);
            m.check_invariants();
        }
        m.resize_segment(SegId(victim), 64).expect("same extent");
        m.check_invariants();
        let mut distinct = loaded.clone();
        distinct.sort_unstable();
        distinct.dedup();
        for &(seg, page) in &distinct {
            let hits = m.stats().assoc_hits;
            m.translate_pair(SegId(seg), page * 16);
            prop_assert_eq!(m.stats().assoc_hits - hits, u64::from(seg != victim), "segment {} page {}", seg, page);
        }
    }

    /// Relocation is transparent: moving the base changes every address
    /// by exactly the base delta and faults identically.
    #[test]
    fn relocation_is_uniform_shift(base1 in 0u64..5000, base2 in 0u64..5000, limit in 1u64..500) {
        let mut m1 = RelocationLimit::new(PhysAddr(base1), limit, costs());
        let mut m2 = RelocationLimit::new(PhysAddr(base2), limit, costs());
        for name in 0..(limit + 10) {
            let a = m1.translate(Name(name));
            let b = m2.translate(Name(name));
            match (a.outcome, b.outcome) {
                (Ok(x), Ok(y)) => {
                    prop_assert_eq!(x.value() as i128 - base1 as i128,
                                    y.value() as i128 - base2 as i128);
                }
                (Err(_), Err(_)) => {}
                (x, y) => prop_assert!(false, "fault behaviour diverged: {x:?} vs {y:?}"),
            }
        }
    }

    /// An LRU associative memory behaves like a textbook LRU cache.
    #[test]
    fn assoc_memory_is_lru(keys in prop::collection::vec(0u64..12, 1..200), cap in 1usize..8) {
        let mut mem = AssocMemory::new(cap, AssocPolicy::Lru);
        // Shadow model: recency list, most recent last.
        let mut shadow: Vec<u64> = Vec::new();
        for &k in &keys {
            let hit = mem.lookup(k).is_some();
            let shadow_hit = shadow.contains(&k);
            prop_assert_eq!(hit, shadow_hit, "hit state diverged on key {}", k);
            shadow.retain(|&x| x != k);
            shadow.push(k);
            if !hit {
                mem.insert(k, k * 10);
                if shadow.len() > cap {
                    shadow.remove(0);
                }
            }
        }
    }

    /// The flat-array associative memory is the `VecDeque` one it
    /// replaced: both policies, no capacity to a B8500's worth, every
    /// operation including a re-insert of a resident key, and after
    /// each step the same answer and the same keys.
    #[test]
    fn assoc_memory_matches_the_deque_model(
        (size, big) in (0usize..3, 2usize..45),
        fifo in any::<bool>(),
        ops in prop::collection::vec((0u8..16, any::<u64>(), any::<u64>()), 1..400),
    ) {
        let capacity = [0, 1, big][size];
        let policy = if fifo { AssocPolicy::Fifo } else { AssocPolicy::Lru };
        let mut mem = AssocMemory::new(capacity, policy);
        let mut model = assoc_model::AssocModel::new(capacity, policy);
        // Half again as many keys as slots: hits, misses and evictions
        // all stay common at every capacity.
        let universe = capacity as u64 * 3 / 2 + 2;
        for (step, &(pick, a, value)) in ops.iter().enumerate() {
            // Every third key carries its high half, as a segment
            // number does in a global page number.
            let key = a % universe;
            let key = if key % 3 == 0 { key << 32 } else { key };
            match pick {
                0..=6 => prop_assert_eq!(mem.lookup(key), model.lookup(key), "step {}: lookup {}", step, key),
                7..=10 => {
                    mem.insert(key, value);
                    model.insert(key, value);
                }
                11 | 12 => {
                    // A key that is resident for certain, when any is.
                    let resident = model.keys();
                    if let Some(&key) = resident.get(a as usize % resident.len().max(1)) {
                        mem.insert(key, value);
                        model.insert(key, value);
                    }
                }
                13 | 14 => {
                    mem.invalidate(key);
                    model.invalidate(key);
                }
                _ => {}
            }
            mem.check_invariants();
            let mut keys: Vec<u64> = mem.keys().collect();
            keys.sort_unstable();
            let want = model.keys();
            prop_assert_eq!(mem.len(), want.len(), "step {}: len", step);
            prop_assert_eq!(keys, want, "step {}: resident keys", step);
        }
    }
}
