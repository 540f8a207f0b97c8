//! Property-based tests on the variable-unit allocators.

use dsa::core::error::AllocError;
use dsa::core::ids::PhysAddr;
use dsa::freelist::compaction::compact;
use dsa::freelist::freelist::{FreeListAllocator, Placement};
use dsa::freelist::{BuddyAllocator, RiceAllocator};
use dsa::probe::{CountingProbe, NullProbe, Stamp};
use proptest::prelude::*;
use std::collections::HashMap;

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

fn placements() -> Vec<Placement> {
    vec![
        Placement::FirstFit,
        Placement::NextFit,
        Placement::BestFit,
        Placement::WorstFit,
        Placement::TwoEnds { threshold: 64 },
    ]
}

proptest! {
    /// Under any op stream and any placement, the free list never
    /// overlaps blocks, never leaks words, and keeps coalescing maximal
    /// (`check_invariants` asserts all three).
    #[test]
    fn freelist_invariants_hold(ops in arb_ops()) {
        for policy in placements() {
            let mut a = FreeListAllocator::new(4096, policy);
            let mut live: Vec<u64> = Vec::new();
            let mut next = 0u64;
            for op in &ops {
                match *op {
                    Op::Alloc(size) => {
                        if a.alloc(next, size).is_ok() {
                            live.push(next);
                        }
                        next += 1;
                    }
                    Op::FreeNth(i) => {
                        if !live.is_empty() {
                            let id = live.swap_remove(i % live.len());
                            a.free(id).expect("live id");
                        }
                    }
                }
                a.check_invariants();
            }
            // Free everything: storage must return to one hole.
            for id in live {
                a.free(id).expect("live id");
            }
            a.check_invariants();
            prop_assert_eq!(a.free_words(), 4096);
            prop_assert_eq!(a.hole_count(), 1);
        }
    }

    /// Allocated blocks never change address or size until freed, and
    /// distinct blocks never alias.
    #[test]
    fn freelist_blocks_are_stable_and_disjoint(ops in arb_ops()) {
        let mut a = FreeListAllocator::new(4096, Placement::FirstFit);
        let mut expected: HashMap<u64, (u64, u64)> = HashMap::new();
        let mut next = 0u64;
        for op in &ops {
            match *op {
                Op::Alloc(size) => {
                    if let Ok(addr) = a.alloc(next, size) {
                        expected.insert(next, (addr.value(), size));
                    }
                    next += 1;
                }
                Op::FreeNth(i) => {
                    let keys: Vec<u64> = {
                        let mut k: Vec<u64> = expected.keys().copied().collect();
                        k.sort_unstable();
                        k
                    };
                    if !keys.is_empty() {
                        let id = keys[i % keys.len()];
                        expected.remove(&id);
                        a.free(id).expect("live id");
                    }
                }
            }
            for (&id, &(addr, size)) in &expected {
                let (got_addr, got_size) = a.lookup(id).expect("still live");
                prop_assert_eq!(got_addr.value(), addr);
                prop_assert_eq!(got_size, size);
            }
        }
    }

    /// Compaction preserves every live block's identity and size,
    /// preserves address order, and leaves exactly one hole.
    #[test]
    fn compaction_preserves_blocks(ops in arb_ops()) {
        let mut a = FreeListAllocator::new(4096, Placement::BestFit);
        let mut live: Vec<u64> = Vec::new();
        let mut next = 0u64;
        for op in &ops {
            match *op {
                Op::Alloc(size) => {
                    if a.alloc(next, size).is_ok() {
                        live.push(next);
                    }
                    next += 1;
                }
                Op::FreeNth(i) => {
                    if !live.is_empty() {
                        let id = live.swap_remove(i % live.len());
                        a.free(id).expect("live id");
                    }
                }
            }
        }
        let before = a.allocations_by_address();
        let free_before = a.free_words();
        let mut moves: Vec<(u64, u64)> = Vec::new();
        let _report = compact(&mut a, |_, old, new, _| {
            moves.push((old.value(), new.value()));
        });
        for &(old, new) in &moves {
            prop_assert!(new < old, "compaction only slides downward");
        }
        a.check_invariants();
        let after = a.allocations_by_address();
        prop_assert_eq!(a.free_words(), free_before, "no words created or lost");
        prop_assert!(a.hole_count() <= 1);
        // Same ids, same sizes, same relative order.
        let ids_before: Vec<(u64, u64)> = before.iter().map(|&(id, _, s)| (id, s)).collect();
        let ids_after: Vec<(u64, u64)> = after.iter().map(|&(id, _, s)| (id, s)).collect();
        prop_assert_eq!(ids_before, ids_after);
        // Packed: blocks start at 0 and are contiguous.
        let mut cursor = 0;
        for &(_, addr, size) in &after {
            prop_assert_eq!(addr, cursor);
            cursor += size;
        }
    }

    /// The Rice allocator's invariants hold under churn, and combining
    /// never loses words.
    #[test]
    fn rice_invariants_hold(ops in arb_ops()) {
        let mut a = RiceAllocator::new(4096);
        let mut live: Vec<u64> = Vec::new();
        let mut next = 0u64;
        for op in &ops {
            match *op {
                Op::Alloc(size) => {
                    if a.alloc(next, size, next).is_ok() {
                        live.push(next);
                    }
                    next += 1;
                }
                Op::FreeNth(i) => {
                    if !live.is_empty() {
                        let id = live.swap_remove(i % live.len());
                        a.free(id).expect("live id");
                    }
                }
            }
            a.check_invariants();
        }
        let free_before = a.free_words();
        a.combine_adjacent();
        a.check_invariants();
        prop_assert_eq!(a.free_words(), free_before, "combining conserves words");
    }

    /// Buddy invariants hold under churn; blocks stay aligned and the
    /// arena reassembles fully after freeing everything.
    #[test]
    fn buddy_invariants_hold(ops in arb_ops()) {
        let mut a = BuddyAllocator::new(12); // 4096 words
        let mut live: Vec<u64> = Vec::new();
        let mut next = 0u64;
        for op in &ops {
            match *op {
                Op::Alloc(size) => {
                    if a.alloc(next, size).is_ok() {
                        live.push(next);
                    }
                    next += 1;
                }
                Op::FreeNth(i) => {
                    if !live.is_empty() {
                        let id = live.swap_remove(i % live.len());
                        a.free(id).expect("live id");
                    }
                }
            }
            a.check_invariants();
        }
        for id in live {
            a.free(id).expect("live id");
        }
        a.check_invariants();
        prop_assert_eq!(a.free_words(), 4096);
    }

    /// Metamorphic: for the same op stream, best-fit never ends with a
    /// larger hole count than worst-fit after full free-down (both
    /// coalesce to one hole), and both conserve words throughout.
    #[test]
    fn placements_agree_on_conservation(ops in arb_ops()) {
        let mut results = Vec::new();
        for policy in placements() {
            let mut a = FreeListAllocator::new(4096, policy);
            let mut live: Vec<u64> = Vec::new();
            let mut next = 0u64;
            let mut served_words = 0u64;
            for op in &ops {
                match *op {
                    Op::Alloc(size) => {
                        if a.alloc(next, size).is_ok() {
                            live.push(next);
                            served_words += size;
                        }
                        next += 1;
                    }
                    Op::FreeNth(i) => {
                        if !live.is_empty() {
                            let id = live.swap_remove(i % live.len());
                            let (_, size) = a.lookup(id).expect("live");
                            served_words -= size;
                            a.free(id).expect("live id");
                        }
                    }
                }
                prop_assert_eq!(a.allocated_words(), served_words);
            }
            results.push(a.allocated_words());
        }
    }
}

/// Reference linear-scan best fit over `holes` (address order): the
/// smallest adequate hole, lowest address on ties, with the classic
/// exact-fit early exit. Returns the chosen address and the modeled
/// search length (holes examined).
fn best_fit_scan(holes: &[(u64, u64)], size: u64) -> (Option<u64>, u64) {
    let mut best: Option<(u64, u64)> = None; // (size, addr)
    for (i, &(addr, hsize)) in holes.iter().enumerate() {
        if hsize == size {
            return (Some(addr), i as u64 + 1);
        }
        if hsize > size && best.is_none_or(|(bsize, _)| hsize < bsize) {
            best = Some((hsize, addr));
        }
    }
    (best.map(|(_, addr)| addr), holes.len() as u64)
}

/// Reference linear-scan worst fit: the first strict maximum in
/// address order (largest hole, lowest address on ties), no early
/// exit — the whole list is always examined.
fn worst_fit_scan(holes: &[(u64, u64)], size: u64) -> (Option<u64>, u64) {
    let mut best: Option<(u64, u64)> = None;
    for &(addr, hsize) in holes {
        if best.is_none_or(|(bsize, _)| hsize > bsize) {
            best = Some((hsize, addr));
        }
    }
    (
        best.filter(|&(bsize, _)| bsize >= size)
            .map(|(_, addr)| addr),
        holes.len() as u64,
    )
}

/// Reference linear-scan first fit: the first adequate hole in
/// address order. The scan stops at the chosen hole, so the modeled
/// search length is its rank; on failure the whole list was examined.
fn first_fit_scan(holes: &[(u64, u64)], size: u64) -> (Option<u64>, u64) {
    for (i, &(addr, hsize)) in holes.iter().enumerate() {
        if hsize >= size {
            return (Some(addr), i as u64 + 1);
        }
    }
    (None, holes.len() as u64)
}

/// Reference next fit: first fit resuming at the first hole at or
/// after the roving pointer and wrapping round to the holes below it.
fn next_fit_scan(holes: &[(u64, u64)], size: u64, rover: u64) -> (Option<u64>, u64) {
    let start = holes.partition_point(|&(addr, _)| addr < rover);
    let wrapped = holes[start..].iter().chain(&holes[..start]);
    for (i, &(addr, hsize)) in wrapped.enumerate() {
        if hsize >= size {
            return (Some(addr), i as u64 + 1);
        }
    }
    (None, holes.len() as u64)
}

/// Reference two-ends: small requests first fit bottom-up, large ones
/// first fit top-down.
fn two_ends_scan(holes: &[(u64, u64)], size: u64, threshold: u64) -> (Option<u64>, u64) {
    if size < threshold {
        return first_fit_scan(holes, size);
    }
    for (i, &(addr, hsize)) in holes.iter().rev().enumerate() {
        if hsize >= size {
            return (Some(addr), i as u64 + 1);
        }
    }
    (None, holes.len() as u64)
}

/// The 1967 free list taken literally: the holes in one flat
/// address-ordered vector, every search one of the linear scans above,
/// every count kept by hand. What `FreeListAllocator` must agree with,
/// placement for placement and count for count.
struct LinearList {
    capacity: u64,
    policy: Placement,
    holes: Vec<(u64, u64)>,
    /// Live blocks as `(id, address, size)`.
    live: Vec<(u64, u64, u64)>,
    rover: u64,
    probes: u64,
    coalesces: u64,
    failures: u64,
}

impl LinearList {
    fn new(capacity: u64, policy: Placement) -> LinearList {
        LinearList {
            capacity,
            policy,
            holes: vec![(0, capacity)],
            live: Vec::new(),
            rover: 0,
            probes: 0,
            coalesces: 0,
            failures: 0,
        }
    }

    fn alloc(&mut self, id: u64, size: u64) -> Option<u64> {
        let (chosen, probes) = match self.policy {
            Placement::FirstFit => first_fit_scan(&self.holes, size),
            Placement::NextFit => next_fit_scan(&self.holes, size, self.rover),
            Placement::BestFit => best_fit_scan(&self.holes, size),
            Placement::WorstFit => worst_fit_scan(&self.holes, size),
            Placement::TwoEnds { threshold } => two_ends_scan(&self.holes, size, threshold),
        };
        self.probes += probes;
        let Some(hole_addr) = chosen else {
            self.failures += 1;
            return None;
        };
        let i = self.holes.partition_point(|&(addr, _)| addr < hole_addr);
        let hole_size = self.holes[i].1;
        let high = matches!(self.policy, Placement::TwoEnds { threshold } if size >= threshold);
        let (addr, rest) = if high {
            (hole_addr + hole_size - size, hole_addr)
        } else {
            (hole_addr, hole_addr + size)
        };
        if hole_size > size {
            self.holes[i] = (rest, hole_size - size);
        } else {
            self.holes.remove(i);
        }
        self.rover = addr + size;
        self.live.push((id, addr, size));
        Some(addr)
    }

    fn free(&mut self, id: u64) {
        let at = self
            .live
            .iter()
            .position(|&(lid, _, _)| lid == id)
            .expect("live id");
        let (_, mut addr, mut size) = self.live.swap_remove(at);
        let mut i = self.holes.partition_point(|&(haddr, _)| haddr < addr);
        if i > 0 && self.holes[i - 1].0 + self.holes[i - 1].1 == addr {
            i -= 1;
            let (paddr, psize) = self.holes.remove(i);
            (addr, size) = (paddr, psize + size);
            self.coalesces += 1;
        }
        if i < self.holes.len() && self.holes[i].0 == addr + size {
            size += self.holes.remove(i).1;
            self.coalesces += 1;
        }
        self.holes.insert(i, (addr, size));
    }

    /// Slides the live blocks down in address order; the roving pointer
    /// follows the top of the packed region.
    fn compact(&mut self) {
        sorted_pack(&mut self.live);
        let cursor = self.live.iter().map(|block| block.2).sum();
        self.holes.clear();
        if cursor < self.capacity {
            self.holes.push((cursor, self.capacity - cursor));
        }
        self.rover = cursor;
    }
}

/// Alloc/free streams with the two repairs mixed in.
#[derive(Clone, Debug)]
enum Step {
    Alloc(u64),
    FreeNth(usize),
    Compact,
    /// Corrupt the free list, then `rebuild_from_live`.
    Heal,
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    // Two allocs and two frees for each repair.
    prop::collection::vec(
        (0u32..6, 1u64..200, 0usize..64).prop_map(|(kind, size, i)| match kind {
            0 | 1 => Step::Alloc(size),
            2 | 3 => Step::FreeNth(i),
            4 => Step::Compact,
            _ => Step::Heal,
        }),
        1..200,
    )
}

/// `holes` one-word keepers, each followed by a victim of two to four
/// words, then the victims freed from the top of the book down (so
/// that `swap_remove` disturbs no index still to come): that many
/// isolated holes of three sizes, equal sizes recurring every third
/// hole. `base` is the book's length beforehand.
fn plant(holes: usize, base: usize) -> Vec<Step> {
    let blocks = (0..holes).flat_map(|k| [Step::Alloc(1), Step::Alloc(2 + k as u64 % 3)]);
    let victims = (0..holes).rev().map(|k| Step::FreeNth(base + 2 * k + 1));
    blocks.chain(victims).collect()
}

/// One step on the allocator and on the linear list, holding the two
/// equal on what the step returns and charges; `audit` adds the hole
/// list, the invariants and the running counts.
fn step_both(
    a: &mut FreeListAllocator,
    list: &mut LinearList,
    step: &Step,
    next: &mut u64,
    audit: bool,
) -> Result<(), String> {
    let policy = list.policy;
    match *step {
        Step::Alloc(size) => {
            let before = a.stats().probes;
            let charged = list.probes;
            let want = list.alloc(*next, size);
            let got = a.alloc(*next, size).ok().map(|p| p.value());
            prop_assert_eq!(got, want, "{:?}: placement diverged", policy);
            prop_assert_eq!(
                a.stats().probes - before,
                list.probes - charged,
                "{:?}: per-request probes diverged",
                policy
            );
            *next += 1;
        }
        Step::FreeNth(i) => {
            if !list.live.is_empty() {
                let id = list.live[i % list.live.len()].0;
                list.free(id);
                a.free(id).expect("live id");
            }
        }
        Step::Compact => {
            compact(a, |_, _, _, _| {});
            list.compact();
            for &(id, addr, size) in &list.live {
                let (got, got_size) = a.lookup(id).expect("live");
                prop_assert_eq!((got.value(), got_size), (addr, size));
            }
        }
        Step::Heal => {
            a.corrupt_free_list_for_chaos();
            a.rebuild_from_live();
            list.rover = 0;
        }
    }
    if audit {
        a.check_invariants();
        prop_assert_eq!(a.holes().collect::<Vec<_>>(), list.holes.clone());
        let stats = a.stats();
        prop_assert_eq!(
            (stats.probes, stats.coalesces, stats.failures),
            (list.probes, list.coalesces, list.failures),
            "{:?}: probes, coalesces, failures",
            policy
        );
    }
    Ok(())
}

proptest! {
    /// Every placement agrees with the literal linear list on the
    /// address of each block, the probes charged to each request, the
    /// coalesces, the failures and the hole list itself — next-fit's
    /// rover and wrap and two-ends' two directions included — through
    /// `compact` (rover to the top of the packed region) and
    /// `rebuild_from_live` (rover to zero). When `dense`, 300 small
    /// holes are planted first and again after the first
    /// `compact`, and requests are folded down to their sizes: the
    /// hole table splits into blocks, and best-fit's smallest adequate
    /// size recurs in each of them, so its lowest-address tie-break is
    /// taken across block boundaries.
    #[test]
    fn placements_match_the_linear_list_through_repairs(
        steps in arb_steps(),
        dense in any::<bool>(),
    ) {
        for policy in placements() {
            let mut a = FreeListAllocator::new(4096, policy);
            let mut list = LinearList::new(4096, policy);
            let mut next = 0u64;
            let (mut plantings, mut replant) = (if dense { 2 } else { 0 }, true);
            for step in &steps {
                if replant && plantings > 0 {
                    for planting in &plant(300, list.live.len()) {
                        step_both(&mut a, &mut list, planting, &mut next, false)?;
                    }
                    prop_assert!(plantings < 2 || a.hole_count() == 300, "blocks must split");
                    plantings -= 1;
                }
                replant = matches!(step, Step::Compact);
                let step = match *step {
                    Step::Alloc(size) if dense => Step::Alloc(1 + size % 5),
                    ref other => other.clone(),
                };
                step_both(&mut a, &mut list, &step, &mut next, true)?;
            }
        }
    }

    /// A block named by the caller's id and one named from the address
    /// placement chose are the same block: one allocator driven by id
    /// and one by address through the same requests agree on every
    /// address, every request's probes, the counters, the events, the
    /// hole list and the audit, under every placement, with quick lists
    /// off and on, through corruption-and-rebuild and through `compact`
    /// — after which an address-named block sits somewhere its name no
    /// longer says, and is still freed by that name.
    #[test]
    fn the_two_names_place_identically(steps in arb_steps(), quick in any::<bool>()) {
        let at = Stamp::default();
        for policy in placements() {
            let mut by_id = FreeListAllocator::new(4096, policy);
            let mut by_addr = FreeListAllocator::new(4096, policy);
            if quick {
                by_id.enable_quick_lists(64, 4);
                by_addr.enable_quick_lists(64, 4);
            }
            let (mut seen_id, mut seen_addr) = (CountingProbe::default(), CountingProbe::default());
            // Live blocks as (id, name). A name is the address under
            // the number of compactions so far, so that a block placed
            // where a moved one used to be gets a name of its own.
            let mut live: Vec<(u64, u64)> = Vec::new();
            let (mut next, mut epoch) = (0u64, 0u64);
            for step in &steps {
                match *step {
                    Step::Alloc(size) => {
                        let name_of = |addr: PhysAddr| epoch << 32 | addr.value();
                        let (p_id, p_addr) = (by_id.stats().probes, by_addr.stats().probes);
                        let want = by_id.alloc_probed(next, size, at, &mut seen_id);
                        let got = by_addr.alloc_at_probed(size, name_of, at, &mut seen_addr);
                        prop_assert_eq!(got, want, "{:?}: placement diverged", policy);
                        prop_assert_eq!(
                            by_addr.stats().probes - p_addr,
                            by_id.stats().probes - p_id,
                            "{:?}: per-request probes diverged",
                            policy
                        );
                        if let Ok(addr) = got {
                            live.push((next, name_of(addr)));
                        }
                        next += 1;
                    }
                    Step::FreeNth(i) => {
                        if !live.is_empty() {
                            let (id, name) = live.swap_remove(i % live.len());
                            // Neither block leaves by the other's door.
                            prop_assert_eq!(by_addr.free(name), Err(AllocError::UnknownUnit));
                            prop_assert_eq!(
                                by_id.free_at_probed(id, at, &mut seen_id),
                                Err(AllocError::UnknownUnit)
                            );
                            by_id.free_probed(id, at, &mut seen_id).expect("live id");
                            by_addr.free_at_probed(name, at, &mut seen_addr).expect("live name");
                        }
                    }
                    Step::Compact => {
                        let a = compact(&mut by_id, |_, _, _, _| {});
                        let b = compact(&mut by_addr, |_, _, _, _| {});
                        prop_assert_eq!(a, b);
                        epoch += 1;
                    }
                    Step::Heal => {
                        for a in [&mut by_id, &mut by_addr] {
                            a.corrupt_free_list_for_chaos();
                            a.rebuild_from_live();
                        }
                    }
                }
                prop_assert_eq!((by_addr.audit(), by_id.audit()), (Ok(()), Ok(())));
                prop_assert_eq!(
                    by_addr.holes().collect::<Vec<_>>(),
                    by_id.holes().collect::<Vec<_>>()
                );
                prop_assert_eq!(by_addr.quick_parked_words(), by_id.quick_parked_words());
                prop_assert_eq!(by_addr.stats(), by_id.stats(), "{:?}: counters diverged", policy);
                for &(id, name) in &live {
                    prop_assert_eq!(by_addr.lookup(name), by_id.lookup(id));
                }
                prop_assert_eq!(by_addr.address_named(), live.len());
                prop_assert_eq!(by_id.address_named(), 0);
            }
            prop_assert_eq!(&seen_addr, &seen_id, "{:?}: events diverged", policy);
        }
    }

    /// A name that is already live is refused before anything is
    /// edited: the storage placement had found — a hole or a parked
    /// quick block — is still free, the book is as it was, no event
    /// went out, and the next request is placed exactly where a twin
    /// that never saw the refused one places it.
    #[test]
    fn a_live_name_is_refused_before_anything_is_edited(
        ops in arb_ops(),
        quick in any::<bool>(),
    ) {
        let at = Stamp::default();
        for policy in placements() {
            let mut a = FreeListAllocator::new(4096, policy);
            if quick {
                a.enable_quick_lists(64, 4);
            }
            let mut seen = CountingProbe::default();
            let mut live: Vec<u64> = Vec::new();
            for op in &ops {
                match *op {
                    Op::Alloc(size) => {
                        let mut twin = a.clone();
                        if let Some(&taken) = live.first() {
                            match a.alloc_at_probed(size, |_| taken, at, &mut seen) {
                                Err(AllocError::AlreadyAllocated) => {}
                                // No storage: the search fails first.
                                Err(AllocError::OutOfStorage { .. }) => {}
                                other => prop_assert!(false, "{policy:?}: {other:?}"),
                            }
                            prop_assert_eq!(a.audit(), Ok(()));
                            prop_assert_eq!(a.free_words(), twin.free_words());
                            prop_assert_eq!(a.allocations_by_address(), twin.allocations_by_address());
                            prop_assert_eq!(seen.total_events(), 0);
                        }
                        let placed = a.alloc_at_probed(size, |p| p.value(), at, &mut NullProbe);
                        let want = twin.alloc_at_probed(size, |p| p.value(), at, &mut NullProbe);
                        prop_assert_eq!(&placed, &want, "{:?}: the refusal left a mark", policy);
                        live.extend(placed.ok().map(|p| p.value()));
                    }
                    Op::FreeNth(i) => {
                        if !live.is_empty() {
                            let name = live.swap_remove(i % live.len());
                            a.free_at_probed(name, at, &mut NullProbe).expect("live name");
                        }
                    }
                }
            }
        }
    }

    /// Best-fit's one pass over the hole table and the block-skipping
    /// first-fit and worst-fit searches pick the same hole and report
    /// the same modeled search length as the linear scans they
    /// replaced, under any op stream.
    #[test]
    fn size_index_matches_linear_scan(ops in arb_ops()) {
        for (policy, scan) in [
            (
                Placement::BestFit,
                best_fit_scan as fn(&[(u64, u64)], u64) -> (Option<u64>, u64),
            ),
            (Placement::WorstFit, worst_fit_scan),
            (Placement::FirstFit, first_fit_scan),
        ] {
            let mut a = FreeListAllocator::new(4096, policy);
            let mut live: Vec<u64> = Vec::new();
            let mut next = 0u64;
            for op in &ops {
                match *op {
                    Op::Alloc(size) => {
                        let holes: Vec<(u64, u64)> = a.holes().collect();
                        let (want_addr, want_probes) = scan(&holes, size);
                        let before = a.stats().probes;
                        let got = a.alloc(next, size);
                        prop_assert_eq!(
                            got.ok().map(|p| p.value()),
                            want_addr,
                            "{:?}: choice diverged from the scan",
                            policy
                        );
                        prop_assert_eq!(
                            a.stats().probes - before,
                            want_probes,
                            "{:?}: modeled search length diverged",
                            policy
                        );
                        if want_addr.is_some() {
                            live.push(next);
                        }
                        next += 1;
                    }
                    Op::FreeNth(i) => {
                        if !live.is_empty() {
                            let id = live.swap_remove(i % live.len());
                            a.free(id).expect("live id");
                        }
                    }
                }
                a.check_invariants();
            }
        }
    }

    /// Quick lists (deferred coalescing) never change *accounting*:
    /// under any op stream, an allocator with quick lists enabled
    /// reports the same allocated and free words as a twin without
    /// them, every parked word is counted free, and once everything is
    /// freed a request for the whole store flushes the parked blocks
    /// and finds them coalesced into one hole.
    #[test]
    fn quick_lists_preserve_accounting(ops in arb_ops()) {
        let mut plain = FreeListAllocator::new(4096, Placement::FirstFit);
        let mut quick = FreeListAllocator::new(4096, Placement::FirstFit);
        quick.enable_quick_lists(64, 8);
        let mut live: Vec<u64> = Vec::new();
        let mut next = 0u64;
        for op in &ops {
            match *op {
                Op::Alloc(size) => {
                    // Placement may differ (that is the point of the
                    // fast path); success/failure may too, so keep the
                    // twins in step by driving both and only tracking
                    // ids live in both.
                    let a = plain.alloc(next, size).is_ok();
                    let b = quick.alloc(next, size).is_ok();
                    if a && b {
                        live.push(next);
                    } else {
                        if a {
                            plain.free(next).expect("just allocated");
                        }
                        if b {
                            quick.free(next).expect("just allocated");
                        }
                    }
                    next += 1;
                }
                Op::FreeNth(i) => {
                    if !live.is_empty() {
                        let id = live.swap_remove(i % live.len());
                        plain.free(id).expect("live id");
                        quick.free(id).expect("live id");
                    }
                }
            }
            prop_assert_eq!(plain.allocated_words(), quick.allocated_words());
            prop_assert_eq!(plain.free_words(), quick.free_words());
            prop_assert!(quick.quick_parked_words() <= quick.free_words());
            quick.check_invariants();
        }
        for id in live {
            quick.free(id).expect("live id");
        }
        // A request for the whole store fits only once every parked
        // block is flushed back and coalesced.
        prop_assert!(quick.alloc(next, 4096).is_ok());
        quick.free(next).expect("just allocated");
        quick.check_invariants();
        prop_assert_eq!(quick.free_words(), 4096);
        prop_assert_eq!(quick.hole_count(), 1);
    }

    /// `largest_free` agrees with a scan of the holes, and the
    /// allocations view is sorted by address and equals the book, at
    /// every step, for every placement policy.
    #[test]
    fn largest_free_and_sorted_view_match_the_book(ops in arb_ops()) {
        for policy in placements() {
            let mut a = FreeListAllocator::new(4096, policy);
            let mut live: Vec<u64> = Vec::new();
            let mut next = 0u64;
            for op in &ops {
                match *op {
                    Op::Alloc(size) => {
                        if a.alloc(next, size).is_ok() {
                            live.push(next);
                        }
                        next += 1;
                    }
                    Op::FreeNth(i) => {
                        if !live.is_empty() {
                            let id = live.swap_remove(i % live.len());
                            a.free(id).expect("live id");
                        }
                    }
                }
                let holes: Vec<(u64, u64)> = a.holes().collect();
                let largest = holes.iter().map(|&(_, s)| s).max().unwrap_or(0);
                prop_assert_eq!(a.largest_free(), largest);
                let view = a.allocations_by_address();
                let mut expect: Vec<(u64, u64)> = live
                    .iter()
                    .map(|&id| {
                        let (addr, size) = a.lookup(id).expect("live");
                        (addr.value(), size)
                    })
                    .collect();
                expect.sort_unstable();
                let got: Vec<(u64, u64)> =
                    view.iter().map(|&(_, addr, size)| (addr, size)).collect();
                prop_assert_eq!(&got, &expect);
                prop_assert_eq!(view.len(), a.snapshot().live_allocs);
            }
        }
    }
}

/// The moves a compaction pass must report, from a book sorted afresh:
/// every block not already at the cursor, in ascending old address,
/// as `(id, old address, new address, size)`. Packs `book` in place.
fn sorted_pack(book: &mut [(u64, u64, u64)]) -> Vec<(u64, u64, u64, u64)> {
    book.sort_unstable_by_key(|&(_, addr, _)| addr);
    let (mut cursor, mut moves) = (0, Vec::new());
    for (id, addr, size) in book {
        if *addr != cursor {
            moves.push((*id, *addr, cursor, *size));
            *addr = cursor;
        }
        cursor += *size;
    }
    moves
}

/// `compact` with its `on_move` calls written down.
fn recorded_compact(a: &mut FreeListAllocator) -> Vec<(u64, u64, u64, u64)> {
    let mut moves = Vec::new();
    compact(a, |id, old, new, size| {
        moves.push((id, old.value(), new.value(), size))
    });
    moves
}

/// The Rice chain taken literally: a deque with the newest inactive
/// block at the front, searched from the front, sorted and merged only
/// when a search fails.
struct RiceChain {
    capacity: u64,
    frontier: u64,
    chain: std::collections::VecDeque<(u64, u64)>,
    /// Live blocks: id to `(address, gross size)`.
    active: HashMap<u64, (u64, u64)>,
    probes: u64,
    combine_passes: u64,
    blocks_combined: u64,
}

impl RiceChain {
    fn try_place(&mut self, gross: u64) -> Option<u64> {
        for i in 0..self.chain.len() {
            self.probes += 1;
            let (addr, size) = self.chain[i];
            if size > gross {
                self.chain[i] = (addr + gross, size - gross);
                return Some(addr);
            } else if size == gross {
                self.chain.remove(i);
                return Some(addr);
            }
        }
        let addr = self.frontier;
        (gross <= self.capacity - addr).then(|| {
            self.frontier += gross;
            addr
        })
    }

    fn combine(&mut self) {
        self.combine_passes += 1;
        let before = self.chain.len();
        let mut blocks: Vec<(u64, u64)> = self.chain.drain(..).collect();
        blocks.sort_unstable();
        for (addr, size) in blocks {
            match self.chain.back_mut() {
                Some(last) if last.0 + last.1 == addr => last.1 += size,
                _ => self.chain.push_back((addr, size)),
            }
        }
        if self
            .chain
            .back()
            .is_some_and(|&(addr, size)| addr + size == self.frontier)
        {
            self.frontier = self.chain.pop_back().expect("just seen").0;
        }
        self.blocks_combined += (before - self.chain.len()) as u64;
    }

    /// The payload address, as `RiceAllocator::alloc` returns it.
    fn alloc(&mut self, id: u64, size: u64) -> Option<u64> {
        let gross = size + 1;
        let addr = self.try_place(gross).or_else(|| {
            self.combine();
            self.try_place(gross)
        })?;
        self.active.insert(id, (addr, gross));
        Some(addr + 1)
    }

    fn free(&mut self, id: u64) {
        let block = self.active.remove(&id).expect("live id");
        self.chain.push_front(block);
    }
}

proptest! {
    /// Compaction passes repeated through churn report, every time and
    /// under every placement, exactly the moves a model that sorts the
    /// whole book afresh reports, in the same order, and leave the book
    /// where the model leaves it: with ids freed and placed again
    /// between passes (sixteen ids serve every request), with a clone
    /// packed on its own while its original carries on unpacked, with
    /// the free list corrupted and rebuilt between passes, and with
    /// quick lists off and on.
    #[test]
    fn repeated_compaction_moves_what_a_sorted_book_moves(
        steps in arb_steps(),
        quick in any::<bool>(),
    ) {
        for policy in placements() {
            let mut a = FreeListAllocator::new(4096, policy);
            if quick {
                a.enable_quick_lists(64, 4);
            }
            // The model's book: `(id, address, size)`.
            let mut book: Vec<(u64, u64, u64)> = Vec::new();
            for (n, step) in steps.iter().enumerate() {
                match *step {
                    Step::Alloc(size) => {
                        let id = (size + n as u64) % 16;
                        if let Some(at) = book.iter().position(|b| b.0 == id) {
                            book.swap_remove(at);
                            a.free(id).expect("live id");
                        }
                        if let Ok(addr) = a.alloc(id, size) {
                            book.push((id, addr.value(), size));
                        }
                    }
                    Step::FreeNth(i) => {
                        if !book.is_empty() {
                            let (id, _, _) = book.swap_remove(i % book.len());
                            a.free(id).expect("live id");
                        }
                    }
                    Step::Compact => {
                        let want = sorted_pack(&mut book);
                        prop_assert_eq!(recorded_compact(&mut a), want, "{:?}", policy);
                    }
                    Step::Heal => {
                        let mut copy = a.clone();
                        let mut packed = book.clone();
                        let want = sorted_pack(&mut packed);
                        prop_assert_eq!(recorded_compact(&mut copy), want, "{:?}: the clone", policy);
                        copy.check_invariants();
                        prop_assert_eq!(copy.allocations_by_address(), packed);
                        a.corrupt_free_list_for_chaos();
                        a.rebuild_from_live();
                    }
                }
                a.check_invariants();
                book.sort_unstable_by_key(|&(_, addr, _)| addr);
                prop_assert_eq!(a.allocations_by_address(), book.clone(), "{:?}", policy);
            }
        }
    }

    /// `RiceAllocator` stores its chain newest-last and searches it
    /// from the back; the literal newest-first deque agrees with it on
    /// every address returned, every request's probes, the combining
    /// passes, the blocks combined, the chain length and the frontier,
    /// over a stream held at 90-97 % occupancy, where about two
    /// requests in five end in a combining pass.
    #[test]
    fn rice_matches_the_newest_first_chain(
        permille in 900u64..970,
        draws in prop::collection::vec((1u64..120, 0usize..4096), 200..600),
    ) {
        let capacity = 4096;
        let mut a = RiceAllocator::new(capacity);
        let mut chain = RiceChain {
            capacity,
            frontier: 0,
            chain: Default::default(),
            active: HashMap::new(),
            probes: 0,
            combine_passes: 0,
            blocks_combined: 0,
        };
        let mut live: Vec<u64> = Vec::new();
        for (id, &(size, i)) in draws.iter().enumerate() {
            let id = id as u64;
            let mut placed = false;
            if capacity - a.free_words() < capacity * permille / 1000 {
                let (before, charged) = (a.stats().probes, chain.probes);
                let got = a.alloc(id, size, id).ok().map(|p| p.value());
                prop_assert_eq!(got, chain.alloc(id, size), "request {} of {} words", id, size);
                prop_assert_eq!(a.stats().probes - before, chain.probes - charged);
                live.extend(got.map(|_| id));
                placed = got.is_some();
            }
            // Over the target, or refused: a block is released, as the
            // machine's replacement algorithm would release one.
            if !placed {
                let victim = live.swap_remove(i % live.len());
                a.free(victim).expect("live id");
                chain.free(victim);
            }
            let stats = a.stats();
            prop_assert_eq!(
                (stats.combine_passes, stats.blocks_combined, a.chain_len(), a.frontier()),
                (chain.combine_passes, chain.blocks_combined, chain.chain.len(), chain.frontier)
            );
            a.check_invariants();
        }
        prop_assert!(a.stats().combine_passes > 0, "the stream must reach the failure path");
    }
}
