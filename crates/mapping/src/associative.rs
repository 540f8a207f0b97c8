//! Associative memories.
//!
//! Two distinct uses of associative hardware appear in the paper:
//!
//! * On ATLAS, the associative memory *performs the mapping directly*:
//!   there is one page-address register per page frame, and the hardware
//!   matches the high bits of every name against all registers at once —
//!   [`FrameAssociativeMap`].
//! * On MULTICS, the 360/67 and the B8500, a *small* associative memory
//!   caches recently used mapping-table entries so that most references
//!   avoid walking tables in core — [`AssocMemory`], used by
//!   [`crate::two_level::TwoLevelMap`]. This is special hardware
//!   facility (vi): "if it were not for such mechanisms, the cost in
//!   extra addressing time ... would often be unacceptable".
//!
//! Either search is one parallel match in the hardware, and is charged
//! as one `assoc_search` whatever the number of registers. The host
//! does not compare a name against each register to answer it: ATLAS's
//! registers keep an inverse index beside them (page to frame), and the
//! small memory a hash index over its resident keys, so a search costs
//! the host about the same at 8 entries as at 44.

use dsa_core::error::AccessFault;
use dsa_core::ids::{FrameNo, Name, PageNo, PhysAddr, Words};

use crate::cost::{MapCosts, MapStats};
use crate::{AddressMap, Translation};

/// Replacement policy for a small associative memory.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AssocPolicy {
    /// Evict the least recently matched entry.
    Lru,
    /// Evict the oldest-loaded entry (cheaper hardware, no use
    /// recording).
    Fifo,
}

/// A small fully-associative memory mapping keys to 64-bit values.
///
/// Capacity-bounded; the search itself is modelled as constant-time
/// (it is a parallel match in hardware), and the host answers it from
/// a hash index of the resident keys rather than by comparing each.
/// The age order is a list through the slots, so a refresh or an
/// eviction relinks one slot and nothing moves.
#[derive(Clone, Debug)]
pub struct AssocMemory {
    capacity: usize,
    policy: AssocPolicy,
    // Entries sit in slots `1..`, packed, in no particular order; `heads`
    // finds a key's slot. Age is a circular list threaded through
    // `slots`, rooted at slot 0 (which holds no entry): the root's
    // `next` is the oldest entry, its `prev` the newest, so refreshing
    // or evicting relinks a slot and nothing moves.
    keys: Vec<u64>,
    slots: Vec<Slot>,
    // Each key hangs in a chain of slots (linked through `chain`) from
    // the bucket its multiplicative hash names; 0 ends a chain. The
    // table is a power of two kept at most a quarter full, so a miss
    // mostly meets an empty bucket and a hit the key at once.
    heads: Vec<usize>,
    shift: u32,
    // The key the last lookup missed, until the next insert: absent for
    // certain, so the insert that follows a miss need not search again.
    missed: Option<u64>,
}

/// Initial buckets; the table doubles as entries arrive.
const MIN_BUCKETS: usize = 4;

#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    value: u64,
    prev: usize,
    next: usize,
    chain: usize,
}

impl AssocMemory {
    /// Creates an associative memory of `capacity` entries. A capacity
    /// of zero is legal and models the absence of the device (every
    /// lookup misses).
    #[must_use]
    pub fn new(capacity: usize, policy: AssocPolicy) -> AssocMemory {
        AssocMemory {
            capacity,
            policy,
            keys: vec![0],
            slots: vec![Slot::default()],
            heads: vec![0; MIN_BUCKETS],
            shift: 64 - MIN_BUCKETS.trailing_zeros(),
            missed: None,
        }
    }

    fn bucket(&self, key: u64) -> usize {
        // Keys put a segment number above bit 32 (`global_page`), where
        // a multiply alone spreads it badly into the top bits: fold it
        // down first.
        ((key ^ (key >> 29)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The slot holding `key`, or 0.
    fn find(&self, key: u64) -> usize {
        let mut slot = self.heads[self.bucket(key)];
        while slot != 0 && self.keys[slot] != key {
            slot = self.slots[slot].chain;
        }
        slot
    }

    /// Hangs `slot` at the head of its key's chain, doubling the table
    /// instead if the entries would pass a quarter of it.
    fn index(&mut self, slot: usize) {
        if 4 * self.len() > self.heads.len() {
            self.heads = vec![0; 2 * self.heads.len()];
            self.shift -= 1;
            (1..self.keys.len()).for_each(|resident| self.hang(resident));
        } else {
            self.hang(slot);
        }
    }

    fn hang(&mut self, slot: usize) {
        let bucket = self.bucket(self.keys[slot]);
        self.slots[slot].chain = self.heads[bucket];
        self.heads[bucket] = slot;
    }

    /// Takes `slot` off its key's chain.
    fn unindex(&mut self, slot: usize) {
        let bucket = self.bucket(self.keys[slot]);
        let chain = self.slots[slot].chain;
        if self.heads[bucket] == slot {
            self.heads[bucket] = chain;
        } else {
            let mut at = self.heads[bucket];
            while self.slots[at].chain != slot {
                at = self.slots[at].chain;
            }
            self.slots[at].chain = chain;
        }
    }

    fn unlink(&mut self, slot: usize) {
        let Slot { prev, next, .. } = self.slots[slot];
        self.slots[prev].next = next;
        self.slots[next].prev = prev;
    }

    fn link_newest(&mut self, slot: usize) {
        let newest = self.slots[0].prev;
        self.slots[newest].next = slot;
        self.slots[slot].prev = newest;
        self.slots[slot].next = 0;
        self.slots[0].prev = slot;
    }

    /// Looks up `key`, updating recency under LRU.
    pub fn lookup(&mut self, key: u64) -> Option<u64> {
        match self.find(key) {
            0 => {
                self.missed = Some(key);
                None
            }
            slot => {
                if self.policy == AssocPolicy::Lru {
                    self.unlink(slot);
                    self.link_newest(slot);
                }
                Some(self.slots[slot].value)
            }
        }
    }

    /// Inserts or updates `key -> value`, evicting per policy if full.
    pub fn insert(&mut self, key: u64, value: u64) {
        if self.capacity == 0 {
            return;
        }
        let resident = match self.missed.take() {
            Some(absent) if absent == key => 0,
            _ => self.find(key),
        };
        let slot = match resident {
            0 if self.len() < self.capacity => {
                self.keys.push(key);
                self.slots.push(Slot::default());
                let slot = self.len();
                self.index(slot);
                slot
            }
            0 => {
                let oldest = self.slots[0].next;
                self.unlink(oldest);
                self.unindex(oldest);
                self.keys[oldest] = key;
                self.hang(oldest);
                oldest
            }
            slot => {
                self.unlink(slot);
                slot
            }
        };
        self.slots[slot].value = value;
        self.link_newest(slot);
    }

    /// Drops the entry in `slot` and moves the last one into its place.
    fn remove_slot(&mut self, slot: usize) {
        self.unlink(slot);
        self.unindex(slot);
        let last = self.len();
        if slot != last {
            self.unindex(last);
        }
        self.keys.swap_remove(slot);
        self.slots.swap_remove(slot);
        if let Some(&Slot { prev, next, .. }) = self.slots.get(slot) {
            self.slots[prev].next = slot;
            self.slots[next].prev = slot;
            self.hang(slot);
        }
    }

    /// Removes `key` if present (needed when a page is replaced: a stale
    /// entry would translate to a frame now holding other information).
    pub fn invalidate(&mut self, key: u64) {
        match self.find(key) {
            0 => {}
            slot => self.remove_slot(slot),
        }
    }

    /// Removes every key `stale` accepts, in one sweep.
    pub(crate) fn invalidate_where(&mut self, stale: impl Fn(u64) -> bool) {
        let mut slot = 1;
        while slot < self.keys.len() {
            if stale(self.keys[slot]) {
                self.remove_slot(slot);
            } else {
                slot += 1;
            }
        }
    }

    /// Checks that the keys, the index and the age list agree: every
    /// resident key is indexed at its own slot and nothing else is, and
    /// the age list runs through every slot once, both ways.
    ///
    /// # Panics
    ///
    /// Panics if they do not.
    pub fn check_invariants(&self) {
        assert!(self.len() <= self.capacity, "over capacity");
        assert_eq!(self.keys.len(), self.slots.len(), "keys and slots differ");
        assert!(
            4 * self.len() <= self.heads.len(),
            "table over a quarter full"
        );
        let mut chained = 0;
        for (bucket, &head) in self.heads.iter().enumerate() {
            let mut slot = head;
            while slot != 0 {
                assert_eq!(
                    self.bucket(self.keys[slot]),
                    bucket,
                    "slot {slot} in the wrong chain"
                );
                chained += 1;
                assert!(chained <= self.len(), "a chain loops");
                slot = self.slots[slot].chain;
            }
        }
        assert_eq!(chained, self.len(), "{chained} slots chained");
        for (slot, &key) in self.keys.iter().enumerate().skip(1) {
            assert_eq!(self.find(key), slot, "key {key} indexed elsewhere");
        }
        let mut seen = vec![false; self.slots.len()];
        let mut at = 0;
        for _ in 0..self.slots.len() {
            let next = self.slots[at].next;
            assert_eq!(
                self.slots[next].prev, at,
                "age list links disagree at {next}"
            );
            assert!(!seen[next], "age list revisits slot {next}");
            seen[next] = true;
            at = next;
        }
        assert_eq!(at, 0, "age list does not close at the root");
    }

    // Callers count; none asks for emptiness, so there is no unused
    // `is_empty` beside it.
    /// Number of resident entries.
    #[must_use]
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.keys.len() - 1
    }

    /// Iterates over the currently resident keys.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.keys[1..].iter().copied()
    }
}

/// The ATLAS mapping scheme: one page-address register per page frame.
///
/// Names are split on a power-of-two page size; the page bits are
/// matched associatively against all frame registers simultaneously.
/// Loading a page into a frame sets that frame's register.
///
/// The hardware's parallel match is modelled at the constant cost of
/// one `assoc_search`; the host answers it from an inverse index, the
/// frame each page's register names, so no register is ever scanned.
#[derive(Clone, Debug)]
pub struct FrameAssociativeMap {
    page_bits: u32,
    registers: Vec<Option<PageNo>>,
    /// Indexed by page number, grown on `load` to reach the page: the
    /// frame whose register holds it. The exact inverse of `registers`.
    frame_by_page: Vec<Option<FrameNo>>,
    name_extent: Words,
    costs: MapCosts,
    stats: MapStats,
}

impl FrameAssociativeMap {
    /// Creates the map for `frames` page frames of `1 << page_bits`
    /// words each, over a name space of `name_extent` words.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero or `page_bits` not in `1..=32`.
    #[must_use]
    pub fn new(
        frames: usize,
        page_bits: u32,
        name_extent: Words,
        costs: MapCosts,
    ) -> FrameAssociativeMap {
        assert!(frames > 0, "need at least one frame");
        assert!((1..=32).contains(&page_bits), "page_bits out of range");
        FrameAssociativeMap {
            page_bits,
            registers: vec![None; frames],
            frame_by_page: Vec::new(),
            name_extent,
            costs,
            stats: MapStats::default(),
        }
    }

    /// Page size in words.
    #[must_use]
    pub fn page_size(&self) -> Words {
        1u64 << self.page_bits
    }

    /// Declares that `page` now occupies `frame` (sets the frame's
    /// page-address register). Whatever page the frame held leaves it,
    /// and a page lives in one frame: a register that named `page`
    /// elsewhere is cleared.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is out of range.
    pub fn load(&mut self, frame: FrameNo, page: PageNo) {
        self.unload(frame);
        let at = page.0 as usize;
        if at >= self.frame_by_page.len() {
            self.frame_by_page.resize(at + 1, None);
        }
        if let Some(old) = self.frame_by_page[at].replace(frame) {
            self.registers[old.index()] = None;
        }
        self.registers[frame.index()] = Some(page);
    }

    /// Clears `frame`'s register (the page was removed).
    ///
    /// # Panics
    ///
    /// Panics if `frame` is out of range.
    pub fn unload(&mut self, frame: FrameNo) {
        if let Some(page) = self.registers[frame.index()].take() {
            self.frame_by_page[page.0 as usize] = None;
        }
    }

    /// The frame currently holding `page`, if resident.
    #[must_use]
    pub fn frame_of(&self, page: PageNo) -> Option<FrameNo> {
        self.frame_by_page.get(page.0 as usize).copied().flatten()
    }

    /// Every page a register names, with its frame.
    pub fn mappings(&self) -> impl Iterator<Item = (PageNo, FrameNo)> + '_ {
        (0u64..)
            .zip(&self.frame_by_page)
            .filter_map(|(page, frame)| frame.map(|frame| (PageNo(page), frame)))
    }

    /// Checks that the inverse index and the registers agree entry for
    /// entry.
    ///
    /// # Panics
    ///
    /// Panics if they do not.
    pub fn check_invariants(&self) {
        let mut loaded = 0;
        for (frame, register) in (0u64..).zip(&self.registers) {
            if let Some(page) = register {
                loaded += 1;
                assert_eq!(
                    self.frame_of(*page),
                    Some(FrameNo(frame)),
                    "frame {frame}'s register names {page:?}; the index disagrees"
                );
            }
        }
        let indexed = self.frame_by_page.iter().flatten().count();
        assert_eq!(indexed, loaded, "the index holds pages no register names");
    }
}

impl AddressMap for FrameAssociativeMap {
    fn translate(&mut self, name: Name) -> Translation {
        self.stats.translations += 1;
        // One parallel associative search, regardless of frame count.
        let cost = self.costs.assoc_search;
        self.stats.cycles += cost;
        if name.value() >= self.name_extent {
            self.stats.faults += 1;
            return Translation::fault(
                AccessFault::InvalidName {
                    name,
                    extent: self.name_extent,
                },
                cost,
            );
        }
        let page = PageNo(name.value() >> self.page_bits);
        let offset = name.value() & (self.page_size() - 1);
        match self.frame_of(page) {
            Some(frame) => {
                self.stats.assoc_hits += 1;
                let addr = PhysAddr(frame.0 * self.page_size() + offset);
                Translation::ok(addr, cost)
            }
            None => {
                self.stats.assoc_misses += 1;
                self.stats.faults += 1;
                Translation::fault(AccessFault::MissingPage { page }, cost)
            }
        }
    }

    fn stats(&self) -> &MapStats {
        &self.stats
    }

    fn label(&self) -> &'static str {
        "frame-associative (ATLAS)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_core::clock::Cycles;

    #[test]
    fn assoc_lru_evicts_least_recent() {
        let mut a = AssocMemory::new(2, AssocPolicy::Lru);
        a.insert(1, 10);
        a.insert(2, 20);
        assert_eq!(a.lookup(1), Some(10)); // 1 now most recent
        a.insert(3, 30); // evicts 2
        assert_eq!(a.lookup(2), None);
        assert_eq!(a.lookup(1), Some(10));
        assert_eq!(a.lookup(3), Some(30));
    }

    #[test]
    fn assoc_fifo_evicts_oldest_load() {
        let mut a = AssocMemory::new(2, AssocPolicy::Fifo);
        a.insert(1, 10);
        a.insert(2, 20);
        assert_eq!(a.lookup(1), Some(10)); // recency must not matter
        a.insert(3, 30); // evicts 1 (oldest load)
        assert_eq!(a.lookup(1), None);
        assert_eq!(a.lookup(2), Some(20));
    }

    #[test]
    fn assoc_zero_capacity_always_misses() {
        let mut a = AssocMemory::new(0, AssocPolicy::Lru);
        a.insert(1, 10);
        assert_eq!(a.lookup(1), None);
        assert_eq!(a.len(), 0);
    }

    #[test]
    fn assoc_update_and_invalidate() {
        let mut a = AssocMemory::new(4, AssocPolicy::Lru);
        a.insert(1, 10);
        a.insert(1, 11); // update, no duplicate
        assert_eq!(a.len(), 1);
        assert_eq!(a.lookup(1), Some(11));
        a.invalidate(1);
        assert_eq!(a.lookup(1), None);
        assert_eq!(a.len(), 0);
    }

    fn atlas_map() -> FrameAssociativeMap {
        // 4 frames of 8 words; 64-word name space.
        FrameAssociativeMap::new(4, 3, 64, MapCosts::for_core_cycle(Cycles::from_micros(2)))
    }

    #[test]
    fn frame_map_translates_resident_pages() {
        let mut m = atlas_map();
        m.load(FrameNo(2), PageNo(5)); // names 40..48 -> addrs 16..24
        let t = m.translate(Name(43));
        assert_eq!(t.unwrap_addr(), PhysAddr(19));
        assert_eq!(m.frame_of(PageNo(5)), Some(FrameNo(2)));
    }

    #[test]
    fn frame_map_faults_on_missing_page() {
        let mut m = atlas_map();
        let t = m.translate(Name(0));
        assert!(matches!(
            t.outcome,
            Err(AccessFault::MissingPage { page: PageNo(0) })
        ));
        assert_eq!(m.stats().assoc_misses, 1);
    }

    #[test]
    fn frame_map_checks_name_extent() {
        let mut m = atlas_map();
        let t = m.translate(Name(64));
        assert!(matches!(t.outcome, Err(AccessFault::InvalidName { .. })));
    }

    #[test]
    fn frame_map_unload_clears_register() {
        let mut m = atlas_map();
        m.load(FrameNo(0), PageNo(1));
        assert!(m.translate(Name(8)).outcome.is_ok());
        m.unload(FrameNo(0));
        assert!(m.translate(Name(8)).outcome.is_err());
    }

    #[test]
    fn frame_map_index_follows_the_pages_loaded_not_the_extent() {
        // Two-word pages over every name a u64 holds: an index sized
        // from the extent would be 2^63 entries.
        let mut m = FrameAssociativeMap::new(1, 1, u64::MAX, MapCosts::default());
        assert_eq!(m.frame_by_page.capacity(), 0);
        m.load(FrameNo(0), PageNo(3));
        assert!(m.frame_by_page.capacity() <= 8);
        assert_eq!(m.translate(Name(7)).unwrap_addr(), PhysAddr(1));
        m.load(FrameNo(0), PageNo(1000));
        assert!(m.frame_by_page.capacity() <= 2 * 1001);
        assert_eq!(m.frame_of(PageNo(3)), None);
        m.check_invariants();
    }

    #[test]
    fn assoc_index_follows_the_entries_not_the_capacity() {
        let mut a = AssocMemory::new(usize::MAX, AssocPolicy::Lru);
        a.insert(1 << 32, 10);
        assert_eq!(a.heads.len(), MIN_BUCKETS);
        (0..100).for_each(|k| a.insert(k, k));
        assert_eq!(a.heads.len(), 512);
        a.check_invariants();
    }

    #[test]
    fn frame_map_search_cost_is_constant() {
        let mut small =
            FrameAssociativeMap::new(1, 3, 64, MapCosts::for_core_cycle(Cycles::from_micros(2)));
        let mut large = atlas_map();
        small.load(FrameNo(0), PageNo(0));
        large.load(FrameNo(3), PageNo(0));
        assert_eq!(small.translate(Name(0)).cost, large.translate(Name(0)).cost);
    }

    #[test]
    fn page_moving_frames_keeps_name_stable() {
        let mut m = atlas_map();
        m.load(FrameNo(0), PageNo(2));
        assert_eq!(m.translate(Name(16)).unwrap_addr(), PhysAddr(0));
        m.unload(FrameNo(0));
        m.load(FrameNo(3), PageNo(2));
        assert_eq!(m.translate(Name(16)).unwrap_addr(), PhysAddr(24));
    }

    #[test]
    fn probed_translation_traces_hits_and_misses() {
        use dsa_probe::{CountingProbe, Stamp};
        let mut m = atlas_map();
        let mut probe = CountingProbe::new();
        m.load(FrameNo(2), PageNo(5));
        let t = m.translate_probed(Name(43), Stamp::vtime(0), &mut probe);
        assert!(t.outcome.is_ok());
        m.translate_probed(Name(0), Stamp::vtime(1), &mut probe); // missing page
        m.translate_probed(Name(64), Stamp::vtime(2), &mut probe); // invalid name
        assert_eq!(probe.map_lookups, 3);
        assert_eq!(probe.map_hits, 1);
        assert_eq!(probe.map_misses, 2);
    }
}
