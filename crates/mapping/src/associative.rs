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
/// (it is a parallel match in hardware).
#[derive(Clone, Debug)]
pub struct AssocMemory {
    capacity: usize,
    policy: AssocPolicy,
    // Entries sit in slots `1..`, packed, in no particular order: a
    // search is one pass over `keys`. Age is a circular list threaded
    // through `slots`, rooted at slot 0 (which holds no entry): the
    // root's `next` is the oldest entry, its `prev` the newest, so
    // refreshing or evicting relinks a slot and nothing moves.
    keys: Vec<u64>,
    slots: Vec<Slot>,
    // The key the last lookup missed, until the next insert: absent for
    // certain, so the insert that follows a miss need not search again.
    missed: Option<u64>,
    hits: u64,
    misses: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    value: u64,
    prev: usize,
    next: usize,
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
            missed: None,
            hits: 0,
            misses: 0,
        }
    }

    fn slot_of(&self, key: u64) -> Option<usize> {
        // Keys are distinct, so the last match is the match: a pass
        // with no early exit has no branch to mispredict.
        let mut found = 0;
        for (slot, &k) in self.keys.iter().enumerate().skip(1) {
            found = if k == key { slot } else { found };
        }
        (found != 0).then_some(found)
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
        match self.slot_of(key) {
            Some(slot) => {
                self.hits += 1;
                if self.policy == AssocPolicy::Lru {
                    self.unlink(slot);
                    self.link_newest(slot);
                }
                Some(self.slots[slot].value)
            }
            None => {
                self.misses += 1;
                self.missed = Some(key);
                None
            }
        }
    }

    /// Inserts or updates `key -> value`, evicting per policy if full.
    pub fn insert(&mut self, key: u64, value: u64) {
        if self.capacity == 0 {
            return;
        }
        let resident = match self.missed.take() {
            Some(absent) if absent == key => None,
            _ => self.slot_of(key),
        };
        let slot = match resident {
            Some(slot) => {
                self.unlink(slot);
                slot
            }
            None if self.len() < self.capacity => {
                self.keys.push(key);
                self.slots.push(Slot::default());
                self.len()
            }
            None => {
                let oldest = self.slots[0].next;
                self.unlink(oldest);
                oldest
            }
        };
        self.keys[slot] = key;
        self.slots[slot].value = value;
        self.link_newest(slot);
    }

    /// Drops the entry in `slot` and moves the last one into its place.
    fn remove_slot(&mut self, slot: usize) {
        self.unlink(slot);
        self.keys.swap_remove(slot);
        self.slots.swap_remove(slot);
        if let Some(&Slot { prev, next, .. }) = self.slots.get(slot) {
            self.slots[prev].next = slot;
            self.slots[next].prev = slot;
        }
    }

    /// Removes `key` if present (needed when a page is replaced: a stale
    /// entry would translate to a frame now holding other information).
    pub fn invalidate(&mut self, key: u64) {
        if let Some(slot) = self.slot_of(key) {
            self.remove_slot(slot);
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

    /// Clears the memory (e.g. on a program switch).
    pub fn invalidate_all(&mut self) {
        self.keys.truncate(1);
        self.slots.truncate(1);
        self.slots[0] = Slot::default();
    }

    /// Number of resident entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len() - 1
    }

    /// True if no entries are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over the currently resident keys.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.keys[1..].iter().copied()
    }

    /// Hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// The ATLAS mapping scheme: one page-address register per page frame.
///
/// Names are split on a power-of-two page size; the page bits are
/// matched associatively against all frame registers simultaneously.
/// Loading a page into a frame sets that frame's register.
#[derive(Clone, Debug)]
pub struct FrameAssociativeMap {
    page_bits: u32,
    registers: Vec<Option<PageNo>>,
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
    /// page-address register).
    ///
    /// # Panics
    ///
    /// Panics if `frame` is out of range.
    pub fn load(&mut self, frame: FrameNo, page: PageNo) {
        self.registers[frame.index()] = Some(page);
    }

    /// Clears `frame`'s register (the page was removed).
    ///
    /// # Panics
    ///
    /// Panics if `frame` is out of range.
    pub fn unload(&mut self, frame: FrameNo) {
        self.registers[frame.index()] = None;
    }

    /// The frame currently holding `page`, if resident.
    #[must_use]
    pub fn frame_of(&self, page: PageNo) -> Option<FrameNo> {
        self.registers
            .iter()
            .position(|&r| r == Some(page))
            .map(|i| FrameNo(i as u64))
    }

    /// Number of frames.
    #[must_use]
    pub fn frames(&self) -> usize {
        self.registers.len()
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
        assert!(a.is_empty());
        assert_eq!(a.misses(), 1);
        assert_eq!(a.hits(), 0);
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
        a.insert(2, 20);
        a.invalidate_all();
        assert!(a.is_empty());
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
