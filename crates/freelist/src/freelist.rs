//! The address-ordered free list and its placement strategies.

use std::collections::hash_map::Entry;
use std::ops::Range;

use dsa_core::error::AllocError;
use dsa_core::ids::{IdMap, PhysAddr, Words};
use dsa_probe::{EventKind, NullProbe, Probe, Stamp};

/// A placement strategy for variable-unit allocation.
///
/// §Placement Strategies: "A common and frequently satisfactory strategy
/// is to place the information in the smallest space which is sufficient
/// to contain it. An alternative strategy, which involves less
/// bookkeeping, is to place large blocks of information starting at one
/// end of storage and small blocks starting at the other end."
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Placement {
    /// Lowest-addressed hole that fits.
    FirstFit,
    /// First fit, resuming from where the previous search ended (a
    /// roving pointer).
    NextFit,
    /// Smallest hole that fits.
    BestFit,
    /// Largest hole (a known-poor control).
    WorstFit,
    /// Requests smaller than `threshold` words are first-fit from the
    /// low end; larger requests are first-fit from the high end and
    /// placed at the top of the hole.
    TwoEnds {
        /// Requests of at least this many words count as "large".
        threshold: Words,
    },
}

impl Placement {
    /// A short label for experiment tables.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Placement::FirstFit => "first-fit",
            Placement::NextFit => "next-fit",
            Placement::BestFit => "best-fit",
            Placement::WorstFit => "worst-fit",
            Placement::TwoEnds { .. } => "two-ends",
        }
    }
}

/// Cumulative allocator statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FreeListStats {
    /// Successful allocations.
    pub allocs: u64,
    /// Frees.
    pub frees: u64,
    /// Allocation failures (no hole large enough).
    pub failures: u64,
    /// Free blocks examined across all searches — the "bookkeeping"
    /// cost placement strategies trade against fragmentation.
    pub probes: u64,
    /// Coalesce operations performed on free.
    pub coalesces: u64,
}

impl FreeListStats {
    /// Accumulates another allocator's counters into this one — the
    /// reduction a sharded arena performs when it reports totals across
    /// shards.
    pub fn merge(&mut self, other: &FreeListStats) {
        self.allocs += other.allocs;
        self.frees += other.frees;
        self.failures += other.failures;
        self.probes += other.probes;
        self.coalesces += other.coalesces;
    }

    /// Mean search length per allocation attempt.
    #[must_use]
    pub fn mean_search(&self) -> f64 {
        let attempts = self.allocs + self.failures;
        if attempts == 0 {
            0.0
        } else {
            self.probes as f64 / attempts as f64
        }
    }
}

/// A point-in-time view of one allocator: the occupancy figures and
/// cumulative counters, copied out in one go. A sharded arena takes one
/// of these per shard while holding that shard's lock, then reports on
/// the copies with every lock released.
#[derive(Clone, Copy, Debug)]
pub struct AllocSnapshot {
    /// Total capacity in words.
    pub capacity: Words,
    /// Words currently free.
    pub free_words: Words,
    /// The largest contiguous free hole.
    pub largest_free: Words,
    /// Number of free holes.
    pub hole_count: usize,
    /// Number of live allocations.
    pub live_allocs: usize,
    /// Cumulative operation counters.
    pub stats: FreeListStats,
}

/// An address-ordered free-list allocator with immediate coalescing.
///
/// # Examples
///
/// ```
/// use dsa_freelist::freelist::{FreeListAllocator, Placement};
///
/// let mut a = FreeListAllocator::new(1000, Placement::BestFit);
/// let addr = a.alloc(1, 100).unwrap();
/// assert_eq!(addr.value(), 0);
/// a.free(1).unwrap();
/// assert_eq!(a.free_words(), 1000);
/// ```
#[derive(Clone, Debug)]
pub struct FreeListAllocator {
    capacity: Words,
    policy: Placement,
    /// Free holes in address order: the one hole list every policy
    /// searches, coalesces into and charges its modeled probes from.
    holes: HoleTable,
    /// Opt-in exact-size quick lists (deferred coalescing): `None`
    /// unless [`FreeListAllocator::enable_quick_lists`] was called.
    quick: Option<QuickLists>,
    /// Live allocations, one book for both ways of naming a block.
    allocated: IdMap<u64, Live>,
    /// Blocks the last compaction pass ranked (see [`Live::rank`]).
    ranked: u32,
    /// Roving pointer for next-fit.
    rover: u64,
    stats: FreeListStats,
}

/// The hole list: `(start, size)` entries in ascending address order
/// and their running word total. Entries live in sorted blocks of at
/// most `2 * RANK_BLOCK`, so a structural edit memmoves one small
/// block instead of the whole list, one binary search lands between a
/// freed block's predecessor and successor, and `rank_le` — the
/// modeled probe charge — sums whole-block counts up to the block
/// holding the query. A split or a one-sided coalesce slides a hole's
/// start or end within its own extent, which cannot change its rank:
/// those are [`HoleTable::set`], an overwrite of one entry.
#[derive(Clone, Debug, Default)]
struct HoleTable {
    /// Sorted, non-empty blocks; block `i+1`'s first hole starts after
    /// block `i`'s last.
    blocks: Vec<Vec<Hole>>,
    /// `maxes[i]` is the size of the largest hole in `blocks[i]`:
    /// first-fit skips the blocks that cannot hold a request, and the
    /// largest hole of all is the largest of these.
    maxes: Vec<Words>,
    /// Number of holes.
    len: usize,
    /// Sum of the hole sizes.
    words: Words,
}

/// A free hole: `(start address, size)`.
type Hole = (u64, Words);

/// Where a hole sits in the [`HoleTable`]: `(block, index)`.
type At = (usize, usize);

/// One live block in the book, filed under its name.
#[derive(Clone, Copy, Debug)]
struct Live {
    addr: u64,
    size: Words,
    /// Named from its address rather than by the caller's id: the door
    /// it came in by, and the only one it leaves by.
    by_address: bool,
    /// Position in address order among the blocks the last compaction
    /// pass walked, or [`UNRANKED`] if placed since. Blocks move only
    /// in that pass, so ranked blocks stay in rank order until the
    /// next one however many of them are freed in between.
    rank: u32,
}

/// [`Live::rank`] of a block placed since the last compaction pass.
const UNRANKED: u32 = u32::MAX;

/// Target block size for [`HoleTable`]; blocks split at twice this.
const RANK_BLOCK: usize = 128;

impl HoleTable {
    /// `(block, index)` of the first hole starting at or after `addr`:
    /// where a hole at `addr` is, or would be inserted. The block is
    /// the last one starting at or below `addr`, so the index is past
    /// its end when every hole in it starts below `addr`, and zero
    /// only when no hole at all does.
    fn seek(&self, addr: u64) -> (usize, usize) {
        let i = self
            .blocks
            .partition_point(|b| b[0].0 <= addr)
            .saturating_sub(1);
        let j = self
            .blocks
            .get(i)
            .map_or(0, |b| b.partition_point(|h| h.0 < addr));
        (i, j)
    }

    /// Inserts `hole` at a position [`HoleTable::seek`] gave for its
    /// start.
    fn insert(&mut self, (i, j): (usize, usize), hole: Hole) {
        if self.blocks.is_empty() {
            self.blocks.push(Vec::new());
            self.maxes.push(0);
        }
        let b = &mut self.blocks[i];
        b.insert(j, hole);
        self.maxes[i] = self.maxes[i].max(hole.1);
        if b.len() > 2 * RANK_BLOCK {
            let tail = b.split_off(b.len() / 2);
            self.maxes[i] = Self::max_of(b);
            self.maxes.insert(i + 1, Self::max_of(&tail));
            self.blocks.insert(i + 1, tail);
        }
        self.len += 1;
        self.words += hole.1;
    }

    /// Removes and returns the hole at `(i, j)`.
    fn remove(&mut self, (i, j): (usize, usize)) -> Hole {
        let hole = self.blocks[i].remove(j);
        if self.blocks[i].is_empty() {
            self.blocks.remove(i);
            self.maxes.remove(i);
        } else if hole.1 == self.maxes[i] {
            self.maxes[i] = Self::max_of(&self.blocks[i]);
        }
        self.len -= 1;
        self.words -= hole.1;
        hole
    }

    /// Overwrites the hole at `(i, j)` in place. Only legal when no
    /// other hole starts between the old start and the new one, so the
    /// rank is unchanged — a hole sliding within its own extent.
    fn set(&mut self, (i, j): (usize, usize), hole: Hole) {
        let old = std::mem::replace(&mut self.blocks[i][j], hole);
        self.words = self.words - old.1 + hole.1;
        if hole.1 >= self.maxes[i] {
            self.maxes[i] = hole.1;
        } else if old.1 == self.maxes[i] {
            self.maxes[i] = Self::max_of(&self.blocks[i]);
        }
    }

    /// The size of the largest hole in `block`.
    fn max_of(block: &[Hole]) -> Words {
        block.iter().map(|h| h.1).max().unwrap_or(0)
    }

    /// The size of the largest hole, or 0 with none.
    fn largest(&self) -> Words {
        self.maxes.iter().copied().max().unwrap_or(0)
    }

    /// The lowest-addressed hole of at least `size` words, skipping the
    /// blocks whose largest hole is too small, and what the
    /// address-ordered scan is charged: every hole up to and including
    /// the chosen one, or the whole list on failure.
    fn first_fit(&self, size: Words) -> (Option<At>, u64) {
        let mut before = 0;
        for (i, (b, &max)) in self.blocks.iter().zip(&self.maxes).enumerate() {
            if max >= size {
                let Some(j) = b.iter().position(|h| h.1 >= size) else {
                    break;
                };
                return (Some((i, j)), (before + j + 1) as u64);
            }
            before += b.len();
        }
        (None, self.len as u64)
    }

    /// The smallest hole of at least `size` words, lowest address among
    /// equals — the hole the address-ordered scan with the classic
    /// exact-fit early exit chooses — and that scan's charge: up to the
    /// chosen hole when the exit fires there, the whole list otherwise.
    fn best_fit(&self, size: Words) -> (Option<At>, u64) {
        let (mut best, mut at, mut before) = (Words::MAX, None, 0);
        for (i, (b, &max)) in self.blocks.iter().zip(&self.maxes).enumerate() {
            if max >= size {
                // A short hole's slack wraps above every adequate
                // one's: one compare, no branch on adequacy.
                let (mut slack, mut j) = (best, 0);
                for (k, h) in b.iter().enumerate() {
                    let s = h.1.wrapping_sub(size);
                    (slack, j) = if s < slack { (s, k) } else { (slack, j) };
                }
                if slack < best {
                    (best, at) = (slack, Some((i, j)));
                    if slack == 0 {
                        return (at, (before + j + 1) as u64);
                    }
                }
            }
            before += b.len();
        }
        (at, self.len as u64)
    }

    /// Adds the hole `[addr, addr + size)`, merged with a predecessor
    /// that ends at `addr` and a successor that starts at its end, and
    /// returns the neighbours merged away. A one-sided merge overwrites
    /// the neighbour's entry; only an isolated hole is a structural
    /// insert, and only a two-sided merge a structural remove.
    fn coalesce(&mut self, addr: u64, size: Words) -> (Option<Hole>, Option<Hole>) {
        let (i, j) = self.seek(addr);
        // Past this block's last hole, the successor heads the next.
        let at = match self.blocks.get(i) {
            Some(b) if j == b.len() && i + 1 < self.blocks.len() => (i + 1, 0),
            _ => (i, j),
        };
        let pred = j.checked_sub(1).map(|p| self.blocks[i][p]);
        let succ = self.blocks.get(at.0).and_then(|b| b.get(at.1)).copied();
        debug_assert!(
            pred.is_none_or(|p| p.0 + p.1 <= addr),
            "overlapping free blocks"
        );
        let pred = pred.filter(|p| p.0 + p.1 == addr);
        let succ = succ.filter(|s| s.0 == addr + size);
        let merged = (
            pred.map_or(addr, |p| p.0),
            size + pred.map_or(0, |p| p.1) + succ.map_or(0, |s| s.1),
        );
        match (pred, succ) {
            (None, None) => self.insert((i, j), merged),
            (None, Some(_)) => self.set(at, merged),
            (Some(_), None) => self.set((i, j - 1), merged),
            (Some(_), Some(_)) => {
                self.set((i, j - 1), merged);
                self.remove(at);
            }
        }
        (pred, succ)
    }

    /// All holes in ascending address order.
    fn iter(&self) -> impl DoubleEndedIterator<Item = Hole> + '_ {
        self.blocks.iter().flatten().copied()
    }

    /// The holes of block `i` at indices `js`, each with its position.
    fn span(&self, i: usize, js: Range<usize>) -> impl DoubleEndedIterator<Item = (At, Hole)> + '_ {
        let holes = self.blocks.get(i).map_or(&[][..], |b| &b[js.clone()]);
        js.zip(holes).map(move |(j, &hole)| ((i, j), hole))
    }

    /// The holes of blocks `is`, in that order, each with its position.
    fn spans(
        &self,
        is: impl DoubleEndedIterator<Item = usize> + 'static,
    ) -> impl DoubleEndedIterator<Item = (At, Hole)> + '_ {
        is.flat_map(move |i| self.span(i, 0..self.blocks[i].len()))
    }

    /// All holes, starting from the first at or after `addr` and
    /// wrapping round to the ones below it — the roving scan.
    fn iter_from(&self, addr: u64) -> impl Iterator<Item = (At, Hole)> + '_ {
        let (i, j) = self.seek(addr);
        let end = self.blocks.get(i).map_or(0, Vec::len);
        self.span(i, j..end)
            .chain(self.spans((i + 1..self.blocks.len()).chain(0..i)))
            .chain(self.span(i, 0..j))
    }

    /// Chooses a hole per `policy`, charging `stats` the *modeled*
    /// cost — the address-ordered scan's, whatever the host skipped.
    /// Returns its position, the hole and place-at-high-end.
    fn choose(
        &self,
        policy: Placement,
        rover: u64,
        stats: &mut FreeListStats,
        size: Words,
    ) -> Option<(At, Hole, bool)> {
        let ((at, probes), place_high) = match policy {
            Placement::FirstFit => (self.first_fit(size), false),
            Placement::BestFit => (self.best_fit(size), false),
            // The largest hole, lowest address among equals — the hole
            // the full scan's first-strict-maximum rule chooses — is
            // the first fit for its own size. The scan has no early
            // exit, so the modeled cost is always the whole list.
            Placement::WorstFit => {
                let (at, _) = self.first_fit(self.largest().max(size));
                ((at, self.len as u64), false)
            }
            Placement::NextFit => (Self::scan(self.iter_from(rover), size), false),
            Placement::TwoEnds { threshold } => {
                let all = self.spans(0..self.blocks.len());
                if size < threshold {
                    (Self::scan(all, size), false)
                } else {
                    (Self::scan(all.rev(), size), true)
                }
            }
        };
        stats.probes += probes;
        at.map(|(i, j)| ((i, j), self.blocks[i][j], place_high))
    }

    /// The linear scan itself: walks `holes` to the first that fits,
    /// charged one probe per hole examined.
    fn scan(mut holes: impl Iterator<Item = (At, Hole)>, size: Words) -> (Option<At>, u64) {
        let mut probes = 0;
        let found = holes.find(|&(_, hole)| {
            probes += 1;
            hole.1 >= size
        });
        (found.map(|(at, _)| at), probes)
    }
}

/// Exact-size LIFO free lists in front of the coalescing hole list —
/// the classic "quick fit" arrangement. A freed block of size
/// `s <= max_size` is parked (uncoalesced) on `lists[s]` unless that
/// list is already `depth` deep; a later request for exactly `s` words
/// pops it back in O(1). Parked blocks are *free* storage: they count
/// toward `free_words()` and are flushed into the real hole list when
/// a request cannot otherwise be satisfied, when the arena compacts,
/// or when a shard heals.
///
/// This trades the paper's immediate-coalescing discipline for host
/// speed, so it is strictly opt-in and never enabled in the modeled
/// (golden) experiments; see DESIGN.md "Simulated cost vs host cost".
#[derive(Clone, Debug)]
struct QuickLists {
    /// Largest size eligible for parking.
    max_size: Words,
    /// Per-size depth cap, bounding fragmentation from deferred
    /// coalescing.
    depth: usize,
    /// `lists[s]` holds start addresses of parked blocks of size `s`.
    lists: Vec<Vec<u64>>,
    /// Total words parked across all lists.
    words: Words,
}

impl FreeListAllocator {
    /// Creates an allocator over `capacity` words, all free.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: Words, policy: Placement) -> FreeListAllocator {
        assert!(capacity > 0, "capacity must be positive");
        let mut a = FreeListAllocator {
            capacity,
            policy,
            holes: HoleTable::default(),
            quick: None,
            allocated: IdMap::default(),
            ranked: 0,
            rover: 0,
            stats: FreeListStats::default(),
        };
        a.holes.insert((0, 0), (0, capacity));
        a
    }

    /// Words currently free (including any blocks parked on the quick
    /// lists — parked storage is free storage, merely uncoalesced).
    #[must_use]
    pub fn free_words(&self) -> Words {
        self.holes.words + self.quick_parked_words()
    }

    /// Words currently allocated.
    #[must_use]
    pub fn allocated_words(&self) -> Words {
        self.capacity - self.free_words()
    }

    /// Utilization: allocated / capacity.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.allocated_words() as f64 / self.capacity as f64
    }

    /// The largest free hole, or 0 when storage is exhausted: the
    /// largest of the hole table's per-block maxima.
    #[must_use]
    pub fn largest_free(&self) -> Words {
        self.holes.largest()
    }

    /// Number of free holes.
    #[must_use]
    pub fn hole_count(&self) -> usize {
        self.holes.len
    }

    /// Iterates `(address, size)` over free holes in address order.
    pub fn holes(&self) -> impl Iterator<Item = (u64, Words)> + '_ {
        self.holes.iter()
    }

    /// `(id, address, size)` of every live allocation, in address
    /// order.
    #[must_use]
    pub fn allocations_by_address(&self) -> Vec<(u64, u64, Words)> {
        let mut sorted: Vec<(u64, u64, Words)> = self
            .allocated
            .iter()
            .map(|(&id, live)| (id, live.addr, live.size))
            .collect();
        sorted.sort_unstable_by_key(|&(_, addr, _)| addr);
        sorted
    }

    /// Looks up a live allocation.
    #[must_use]
    pub fn lookup(&self, id: u64) -> Option<(PhysAddr, Words)> {
        self.allocated
            .get(&id)
            .map(|live| (PhysAddr(live.addr), live.size))
    }

    /// Live blocks named from their address, counted by a sweep of the book.
    #[must_use]
    pub fn address_named(&self) -> usize {
        self.allocated.values().filter(|b| b.by_address).count()
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> &FreeListStats {
        &self.stats
    }

    /// Copies out the occupancy figures and counters in one call (see
    /// [`AllocSnapshot`]).
    #[must_use]
    pub fn snapshot(&self) -> AllocSnapshot {
        AllocSnapshot {
            capacity: self.capacity,
            free_words: self.free_words(),
            largest_free: self.largest_free(),
            hole_count: self.hole_count(),
            live_allocs: self.allocated.len(),
            stats: self.stats,
        }
    }

    /// Allocates `size` words under identifier `id`.
    ///
    /// # Errors
    ///
    /// * [`AllocError::ZeroSize`] for a zero-word request;
    /// * [`AllocError::AlreadyAllocated`] if `id` is live;
    /// * [`AllocError::OutOfStorage`] if no hole fits (external
    ///   fragmentation may leave `free_words() >= size` yet no
    ///   contiguous hole).
    pub fn alloc(&mut self, id: u64, size: Words) -> Result<PhysAddr, AllocError> {
        self.place(size, Some(id), |_| id, Stamp::default(), &mut NullProbe)
    }

    /// [`FreeListAllocator::alloc`] with event emission: a successful
    /// allocation emits `Alloc { words, searched }`, where `searched` is
    /// the number of holes the placement strategy inspected for this
    /// request — the per-request view of the search-length concern in
    /// §Placement Strategies.
    ///
    /// # Errors
    ///
    /// As [`FreeListAllocator::alloc`]; no event is emitted on failure.
    pub fn alloc_probed<P: Probe + ?Sized>(
        &mut self,
        id: u64,
        size: Words,
        at: Stamp,
        probe: &mut P,
    ) -> Result<PhysAddr, AllocError> {
        self.place(size, Some(id), |_| id, at, probe)
    }

    /// [`FreeListAllocator::alloc_probed`] for a caller with no id to
    /// give: the block is filed under `name_of(address)` and leaves
    /// through [`FreeListAllocator::free_at_probed`] only. The name is
    /// fixed at placement: compaction moves the block, not the name.
    ///
    /// # Errors
    ///
    /// As [`FreeListAllocator::alloc`], except that a live name is found
    /// after the search (its probes stay charged) and before the free
    /// store or the book is edited.
    pub fn alloc_at_probed<P: Probe + ?Sized>(
        &mut self,
        size: Words,
        name_of: impl FnOnce(PhysAddr) -> u64,
        at: Stamp,
        probe: &mut P,
    ) -> Result<PhysAddr, AllocError> {
        self.place(size, None, name_of, at, probe)
    }

    /// The one allocation body: find the storage, settle the name —
    /// the caller's `id`, or `name_of` the address found — and only
    /// then edit the free store.
    fn place<P: Probe + ?Sized>(
        &mut self,
        size: Words,
        id: Option<u64>,
        name_of: impl FnOnce(PhysAddr) -> u64,
        at: Stamp,
        probe: &mut P,
    ) -> Result<PhysAddr, AllocError> {
        if size == 0 {
            return Err(AllocError::ZeroSize);
        }
        // A caller's id is looked up once: refused here if live, before
        // any probe is charged, and filed through the same slot below.
        // The search runs on the other fields while the slot is held.
        let slot = match id.map(|id| self.allocated.entry(id)) {
            Some(Entry::Occupied(_)) => return Err(AllocError::AlreadyAllocated),
            Some(Entry::Vacant(slot)) => Some(slot),
            None => None,
        };
        let before = self.stats.probes;
        // Quick-fit fast path: an exact-size parked block satisfies the
        // request in O(1), no search, no split. Charges zero modeled
        // probes — quick lists are opt-in host-speed mode, never part
        // of the modeled experiments.
        let parked = self.quick.as_ref().and_then(|q| {
            let list = q.lists.get(usize::try_from(size).ok()?)?;
            list.last().copied()
        });
        let mut hole = None;
        if parked.is_none() {
            hole = self
                .holes
                .choose(self.policy, self.rover, &mut self.stats, size);
            // Before declaring exhaustion, return every parked block
            // to the coalescing hole list and search once more:
            // deferred coalescing must not manufacture failures.
            if hole.is_none() && Self::flush(&mut self.quick, &mut self.holes, &mut self.stats) {
                hole = self
                    .holes
                    .choose(self.policy, self.rover, &mut self.stats, size);
            }
        }
        // Two-ends large requests take the top of the hole, everything
        // else the bottom.
        let addr = match (parked, hole) {
            (Some(addr), _) => addr,
            (None, Some((_, (hole_addr, hole_size), true))) => hole_addr + hole_size - size,
            (None, Some((_, (hole_addr, _), false))) => hole_addr,
            (None, None) => {
                self.stats.failures += 1;
                return Err(AllocError::OutOfStorage {
                    requested: size,
                    largest_free: self.holes.largest(),
                });
            }
        };
        // The book first: a name found live here (an id's was refused
        // above) ends the request with the free store unedited.
        let block = Live {
            addr,
            size,
            by_address: id.is_none(),
            rank: UNRANKED,
        };
        match slot {
            Some(slot) => slot.insert(block),
            None => match self.allocated.entry(name_of(PhysAddr(addr))) {
                Entry::Occupied(_) => return Err(AllocError::AlreadyAllocated),
                Entry::Vacant(slot) => slot.insert(block),
            },
        };
        if let Some((at, (hole_addr, hole_size), place_high)) = hole {
            // Either way the remainder lies within the old hole's
            // extent: same rank, one entry overwritten where the search
            // stopped.
            if hole_size > size {
                let rest = if place_high { hole_addr } else { addr + size };
                self.holes.set(at, (rest, hole_size - size));
            } else {
                self.holes.remove(at);
            }
        } else if let Some(q) = self.quick.as_mut() {
            q.lists[size as usize].pop();
            q.words -= size;
        }
        self.rover = addr + size;
        self.stats.allocs += 1;
        let searched = self.stats.probes - before;
        probe.emit(
            EventKind::Alloc {
                words: size,
                searched,
            },
            at,
        );
        Ok(PhysAddr(addr))
    }

    /// Frees the allocation `id`, coalescing with free neighbours.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::UnknownUnit`] if `id` is not live, or is a
    /// name some block was given from its address.
    pub fn free(&mut self, id: u64) -> Result<(), AllocError> {
        self.release(id, false, Stamp::default(), &mut NullProbe)
    }

    /// [`FreeListAllocator::free`] with event emission: a successful
    /// release emits `Free { words }`.
    ///
    /// # Errors
    ///
    /// As [`FreeListAllocator::free`]; no event is emitted on failure.
    pub fn free_probed<P: Probe + ?Sized>(
        &mut self,
        id: u64,
        at: Stamp,
        probe: &mut P,
    ) -> Result<(), AllocError> {
        self.release(id, false, at, probe)
    }

    /// [`FreeListAllocator::free_probed`] for the block that
    /// [`FreeListAllocator::alloc_at_probed`] filed under `name`.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::UnknownUnit`] if `name` is not live, or is
    /// a caller's id.
    pub fn free_at_probed<P: Probe + ?Sized>(
        &mut self,
        name: u64,
        at: Stamp,
        probe: &mut P,
    ) -> Result<(), AllocError> {
        self.release(name, true, at, probe)
    }

    /// The one release body. A block leaves by the door it came in:
    /// a name of the other kind is unknown here.
    fn release<P: Probe + ?Sized>(
        &mut self,
        name: u64,
        by_address: bool,
        at: Stamp,
        probe: &mut P,
    ) -> Result<(), AllocError> {
        let Live { addr, size, .. } = match self.allocated.entry(name) {
            Entry::Occupied(e) if e.get().by_address == by_address => e.remove(),
            _ => return Err(AllocError::UnknownUnit),
        };
        self.stats.frees += 1;
        // Quick-fit fast path: park small blocks uncoalesced, up to the
        // per-size depth cap.
        match self.quick.as_mut() {
            Some(q) if size <= q.max_size && q.lists[size as usize].len() < q.depth => {
                q.lists[size as usize].push(addr);
                q.words += size;
            }
            _ => Self::insert_free(&mut self.holes, &mut self.stats, addr, size),
        }
        probe.emit(EventKind::Free { words: size }, at);
        Ok(())
    }

    /// Inserts a free hole, merging with adjacent holes.
    fn insert_free(holes: &mut HoleTable, stats: &mut FreeListStats, addr: u64, size: Words) {
        let (pred, succ) = holes.coalesce(addr, size);
        stats.coalesces += u64::from(pred.is_some()) + u64::from(succ.is_some());
    }

    /// Enables exact-size quick lists (deferred coalescing) for sizes
    /// up to `max_size`, at most `depth` parked blocks per size. This
    /// is a host-speed fast path: it changes *placement behavior* (a
    /// parked block is reused before any hole is searched) and charges
    /// zero modeled probes on the quick path, so it must never be
    /// enabled in a modeled experiment. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `max_size` is zero or exceeds the capacity, or if
    /// `depth` is zero.
    pub fn enable_quick_lists(&mut self, max_size: Words, depth: usize) {
        assert!(max_size > 0, "max_size must be positive");
        assert!(max_size <= self.capacity, "max_size beyond capacity");
        assert!(depth > 0, "depth must be positive");
        if self.quick.is_none() {
            self.quick = Some(QuickLists {
                max_size,
                depth,
                lists: vec![Vec::new(); max_size as usize + 1],
                words: 0,
            });
        }
    }

    /// Words currently parked on the quick lists (0 when disabled).
    #[must_use]
    pub fn quick_parked_words(&self) -> Words {
        self.quick.as_ref().map_or(0, |q| q.words)
    }

    /// Returns every parked block to the coalescing hole list, and says
    /// whether any block was parked. Called before a request is allowed
    /// to fail, before compaction, and on heal.
    fn flush(
        quick: &mut Option<QuickLists>,
        holes: &mut HoleTable,
        stats: &mut FreeListStats,
    ) -> bool {
        let Some(q) = quick.as_mut().filter(|q| q.words > 0) else {
            return false;
        };
        q.words = 0;
        for (size, list) in q.lists.iter_mut().enumerate() {
            for addr in list.drain(..) {
                Self::insert_free(holes, stats, addr, size as Words);
            }
        }
        true
    }

    /// Empties the hole table and, *without* re-inserting their blocks,
    /// the quick lists — the first step of rebuilding the free store
    /// wholesale from the live book (compaction, heal), whose
    /// reconstructed holes re-cover the parked storage.
    fn clear_holes(&mut self) {
        self.holes = HoleTable::default();
        if let Some(q) = self.quick.as_mut() {
            q.lists.iter_mut().for_each(Vec::clear);
            q.words = 0;
        }
    }

    /// Slides every allocation toward address zero, preserving address
    /// order, leaving a single hole at the top of storage. Reports each
    /// block that moved to `on_move` as `(id, old address, new address,
    /// size)`, in the order the moves must be performed (ascending
    /// addresses, so overlapping slides are safe), and returns
    /// `(blocks moved, words moved)`.
    pub(crate) fn pack_down(
        &mut self,
        mut on_move: impl FnMut(u64, PhysAddr, PhysAddr, Words),
    ) -> (u64, Words) {
        // Survivors of the last pass are still in its rank order —
        // nothing else moves a block — so they scatter into place by
        // rank, freed ranks left empty. Only the newcomers are sorted;
        // the walk merges the two ascending runs, re-ranking as it
        // goes and writing new addresses through the book's own slots.
        let mut survivors: Vec<Option<(u64, &mut Live)>> = (0..self.ranked).map(|_| None).collect();
        let mut newcomers: Vec<(u64, &mut Live)> = Vec::new();
        for (&id, block) in &mut self.allocated {
            match block.rank {
                UNRANKED => newcomers.push((id, block)),
                rank => survivors[rank as usize] = Some((id, block)),
            }
        }
        newcomers.sort_unstable_by_key(|(_, block)| block.addr);
        let mut survivors = survivors.into_iter().flatten().peekable();
        let mut newcomers = newcomers.into_iter().peekable();
        let (mut cursor, mut blocks_moved, mut words_moved) = (0u64, 0u64, 0);
        self.ranked = 0;
        loop {
            let next = match (survivors.peek(), newcomers.peek()) {
                (Some(old), Some(new)) if new.1.addr < old.1.addr => newcomers.next(),
                (None, _) => newcomers.next(),
                (Some(_), _) => survivors.next(),
            };
            let Some((id, block)) = next else { break };
            let Live { addr, size, .. } = *block;
            if addr != cursor {
                debug_assert!(cursor < addr, "pack_down must slide downwards");
                block.addr = cursor;
                on_move(id, PhysAddr(addr), PhysAddr(cursor), size);
                blocks_moved += 1;
                words_moved += size;
            }
            block.rank = self.ranked;
            self.ranked += 1;
            cursor += size;
        }
        self.clear_holes();
        if cursor < self.capacity {
            self.holes.insert((0, 0), (cursor, self.capacity - cursor));
        }
        self.rover = cursor;
        (blocks_moved, words_moved)
    }

    /// Verifies internal invariants; used by tests and property tests.
    ///
    /// # Panics
    ///
    /// Panics if free/allocated regions overlap, accounting is wrong, or
    /// two free holes are adjacent (coalescing must be maximal).
    pub fn check_invariants(&self) {
        if let Err(why) = self.audit() {
            panic!("{why}");
        }
    }

    /// Non-panicking invariant check: the self-healing path's detector.
    ///
    /// Runs exactly the checks of [`FreeListAllocator::check_invariants`]
    /// but returns the first violation as a description instead of
    /// panicking — a concurrent service auditing a possibly-corrupted
    /// shard must be able to *observe* the damage while holding the
    /// shard lock, quarantine, and heal, not unwind.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant, described.
    pub fn audit(&self) -> Result<(), String> {
        // Free holes: in-bounds, disjoint, non-adjacent.
        let mut prev_end: Option<u64> = None;
        let (mut hole_count, mut hole_words) = (0usize, 0);
        for (addr, size) in self.holes.iter() {
            hole_count += 1;
            hole_words += size;
            if size == 0 {
                return Err(format!("zero-size hole at {addr}"));
            }
            if addr + size > self.capacity {
                return Err(format!("hole at {addr} beyond capacity"));
            }
            if let Some(end) = prev_end {
                if end >= addr {
                    return Err(format!("holes overlap or are adjacent at {addr}"));
                }
            }
            prev_end = Some(addr + size);
        }
        // The table's running totals, recomputed from its entries.
        if (hole_count, hole_words) != (self.holes.len, self.holes.words) {
            return Err(format!(
                "hole table totals out of step: {hole_count} holes of {hole_words} words counted, {} of {} recorded",
                self.holes.len, self.holes.words
            ));
        }
        if self.holes.blocks.iter().any(Vec::is_empty) {
            return Err("empty block in the hole table".to_string());
        }
        // Quick lists: parked blocks sized by their list, words
        // accounted exactly, every block in bounds.
        if let Some(q) = self.quick.as_ref() {
            let mut parked_words: Words = 0;
            for (size, list) in q.lists.iter().enumerate() {
                if size == 0 && !list.is_empty() {
                    return Err("zero-size block parked on quick list".to_string());
                }
                parked_words += size as Words * list.len() as Words;
                for &addr in list {
                    if addr + size as Words > self.capacity {
                        return Err(format!("parked block at {addr} beyond capacity"));
                    }
                }
            }
            if parked_words != q.words {
                return Err(format!(
                    "quick-list words out of step: {parked_words} parked, {} recorded",
                    q.words
                ));
            }
        }
        // Allocations and parked quick-list blocks: in-bounds, disjoint
        // from each other and from holes. (Parked blocks may be
        // *adjacent* to holes — coalescing is deferred — but never
        // overlapping.)
        let quick_regions: Vec<(u64, u64)> = self.quick.as_ref().map_or_else(Vec::new, |q| {
            q.lists
                .iter()
                .enumerate()
                .flat_map(|(size, list)| list.iter().map(move |&a| (a, a + size as Words)))
                .collect()
        });
        let mut regions: Vec<(u64, u64)> = self
            .holes
            .iter()
            .map(|(a, s)| (a, a + s))
            .chain(self.allocated.values().map(|b| (b.addr, b.addr + b.size)))
            .chain(quick_regions)
            .collect();
        regions.sort_unstable();
        for w in regions.windows(2) {
            if w[0].1 > w[1].0 {
                return Err(format!("regions overlap: {w:?}"));
            }
        }
        // Accounting.
        let total: Words =
            self.free_words() + self.allocated.values().map(|b| b.size).sum::<Words>();
        if total != self.capacity {
            return Err(format!(
                "words leaked or duplicated: {total} accounted of {} capacity",
                self.capacity
            ));
        }
        let maxes = self.holes.blocks.iter().map(|b| HoleTable::max_of(b));
        if !maxes.eq(self.holes.maxes.iter().copied()) {
            return Err("stale per-block largest-hole summary".to_string());
        }
        // Ranked blocks: in rank order by address and below the last
        // pass's count — what `pack_down` scatters and merges by.
        let ranked = self.allocated.values().filter(|b| b.rank != UNRANKED);
        let mut ranked: Vec<(u64, u32)> = ranked.map(|b| (b.addr, b.rank)).collect();
        ranked.sort_unstable();
        let ordered = ranked.windows(2).all(|w| w[0].1 < w[1].1);
        if !ordered || ranked.last().is_some_and(|top| top.1 >= self.ranked) {
            return Err("compaction ranks out of address order or beyond the count".to_string());
        }
        Ok(())
    }

    /// Rebuilds the hole list and everything derived from it from
    /// the live-allocation book alone, discarding whatever (possibly
    /// corrupt) free-list state was there. Returns the free words after
    /// the rebuild.
    ///
    /// This is the self-healing half of the quarantine protocol: the
    /// `allocated` map is the book of record (it is what `free(id)`
    /// consults, and the corruption model covers the derived hole
    /// structures, not the book), so the complement of the live blocks
    /// *is* the free store. Holes are reconstructed maximal — adjacent
    /// free runs become one hole — so a healed allocator passes
    /// [`FreeListAllocator::audit`] including the coalescing invariant.
    pub fn rebuild_from_live(&mut self) -> Words {
        let mut blocks: Vec<(u64, Words)> =
            (self.allocated.values().map(|b| (b.addr, b.size))).collect();
        blocks.sort_unstable_by_key(|&(addr, _)| addr);
        self.clear_holes();
        let mut cursor = 0u64;
        for &(addr, size) in &blocks {
            // A live block lies between any two of these: none merge.
            if addr > cursor {
                self.holes.coalesce(cursor, addr - cursor);
            }
            cursor = addr + size;
        }
        if cursor < self.capacity {
            self.holes.coalesce(cursor, self.capacity - cursor);
        }
        self.rover = 0;
        self.free_words()
    }

    /// Deliberately corrupts the derived free-list state (never the
    /// live-allocation book): the chaos injector's shard-corruption
    /// payload. The damage is deterministic and always detectable by
    /// [`FreeListAllocator::audit`] — either a word leaks from the first
    /// hole or, with no holes to damage, a bogus hole is fabricated over
    /// allocated storage.
    #[doc(hidden)]
    pub fn corrupt_free_list_for_chaos(&mut self) {
        let first = self.holes.iter().next();
        if let Some((addr, size)) = first {
            if size > 1 {
                // Shrink the hole by one word: conservation now fails.
                self.holes.set((0, 0), (addr, size - 1));
            } else {
                // The hole vanishes entirely — also a leak.
                self.holes.remove((0, 0));
            }
        } else {
            // Saturated shard: fabricate a hole overlapping an
            // allocation.
            self.holes.insert((0, 0), (0, 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_alloc_free_cycle() {
        let mut a = FreeListAllocator::new(100, Placement::FirstFit);
        let p1 = a.alloc(1, 30).unwrap();
        let p2 = a.alloc(2, 30).unwrap();
        assert_eq!(p1, PhysAddr(0));
        assert_eq!(p2, PhysAddr(30));
        assert_eq!(a.allocated_words(), 60);
        a.free(1).unwrap();
        a.free(2).unwrap();
        assert_eq!(a.free_words(), 100);
        assert_eq!(a.hole_count(), 1, "frees must coalesce back to one hole");
        a.check_invariants();
    }

    #[test]
    fn audit_detects_chaos_corruption_and_rebuild_heals_it() {
        for policy in [
            Placement::FirstFit,
            Placement::BestFit,
            Placement::WorstFit,
            Placement::NextFit,
            Placement::TwoEnds { threshold: 64 },
        ] {
            let mut a = FreeListAllocator::new(400, policy);
            a.alloc(1, 50).unwrap();
            a.alloc(2, 60).unwrap();
            a.alloc(3, 70).unwrap();
            a.free(2).unwrap();
            assert!(a.audit().is_ok(), "{policy:?}");
            a.corrupt_free_list_for_chaos();
            assert!(a.audit().is_err(), "{policy:?}: corruption must be seen");
            let free = a.rebuild_from_live();
            assert_eq!(free, 400 - 50 - 70, "{policy:?}");
            a.check_invariants();
            // The healed allocator still places and frees correctly.
            a.alloc(4, 60).unwrap();
            a.free(1).unwrap();
            a.check_invariants();
        }
    }

    /// Seeded mutants of the hole table's running totals and per-block
    /// maxima: `audit` recomputes each from the entries, and a rebuild
    /// from the live book resets them.
    #[test]
    fn audit_rejects_stale_table_totals() {
        type Mutant = fn(&mut HoleTable);
        let mutants: [(Mutant, &str); 3] = [
            (|t| t.words += 1, "totals out of step"),
            (|t| t.len += 1, "totals out of step"),
            (|t| t.maxes[0] += 1, "largest-hole summary"),
        ];
        for (mutate, why) in mutants {
            let mut a = FreeListAllocator::new(400, Placement::NextFit);
            a.alloc(1, 50).unwrap();
            a.alloc(2, 60).unwrap();
            a.alloc(3, 70).unwrap();
            a.free(2).unwrap();
            assert!(a.audit().is_ok());
            mutate(&mut a.holes);
            let err = a.audit().unwrap_err();
            assert!(err.contains(why), "{err}");
            assert_eq!(a.rebuild_from_live(), 400 - 50 - 70);
            a.check_invariants();
        }
    }

    /// Seeded mutants of the compaction ranks: a newcomer stamped with
    /// a rank a survivor holds, survivors left with the ranks they had
    /// before the merge, a rank past the recorded count. `pack_down`
    /// scatters by rank unchecked, so `audit` is what stands between
    /// each of these and a block left out of the next pass.
    #[test]
    fn audit_rejects_stale_compaction_ranks() {
        type Mutant = fn(&mut FreeListAllocator);
        let mutants: [Mutant; 3] = [
            |a| a.allocated.get_mut(&5).unwrap().rank = 2,
            |a| {
                let low = a.allocated[&1].rank;
                a.allocated.get_mut(&1).unwrap().rank = a.allocated[&4].rank;
                a.allocated.get_mut(&4).unwrap().rank = low;
            },
            |a| a.ranked -= 1,
        ];
        for mutate in mutants {
            let mut a = FreeListAllocator::new(400, Placement::FirstFit);
            for id in 1..=4 {
                a.alloc(id, 50).unwrap();
            }
            a.free(2).unwrap();
            assert_eq!(a.pack_down(|_, _, _, _| {}), (2, 100));
            a.free(3).unwrap();
            a.alloc(5, 30).unwrap();
            let ranks = |a: &FreeListAllocator| [1, 4, 5].map(|id| a.allocated[&id].rank);
            assert_eq!((ranks(&a), a.ranked), ([0, 2, UNRANKED], 3));
            a.check_invariants();
            mutate(&mut a);
            let err = a.audit().unwrap_err();
            assert!(err.contains("compaction ranks"), "{err}");
        }
    }

    #[test]
    fn corruption_of_a_saturated_allocator_is_detected() {
        let mut a = FreeListAllocator::new(64, Placement::FirstFit);
        a.alloc(1, 64).unwrap();
        assert_eq!(a.hole_count(), 0);
        a.corrupt_free_list_for_chaos();
        assert!(a.audit().is_err());
        assert_eq!(a.rebuild_from_live(), 0);
        a.check_invariants();
    }

    #[test]
    fn error_cases() {
        let mut a = FreeListAllocator::new(100, Placement::FirstFit);
        assert_eq!(a.alloc(1, 0), Err(AllocError::ZeroSize));
        a.alloc(1, 10).unwrap();
        assert_eq!(a.alloc(1, 10), Err(AllocError::AlreadyAllocated));
        assert_eq!(
            a.stats().probes,
            1,
            "a live id is refused before any search"
        );
        assert_eq!(a.free(99), Err(AllocError::UnknownUnit));
        let err = a.alloc(2, 1000).unwrap_err();
        assert!(matches!(
            err,
            AllocError::OutOfStorage {
                requested: 1000,
                largest_free: 90
            }
        ));
        assert_eq!(a.stats().failures, 1);
    }

    #[test]
    fn external_fragmentation_blocks_fitting_total() {
        // Holes of 30+30 = 60 free words, but a 40-word request fails.
        let mut a = FreeListAllocator::new(100, Placement::FirstFit);
        a.alloc(1, 30).unwrap(); // [0,30)
        a.alloc(2, 10).unwrap(); // [30,40)
        a.alloc(3, 30).unwrap(); // [40,70)
        a.alloc(4, 30).unwrap(); // [70,100)
        a.free(1).unwrap();
        a.free(3).unwrap();
        assert_eq!(a.free_words(), 60);
        assert!(a.alloc(5, 40).is_err());
        assert_eq!(a.largest_free(), 30);
        a.check_invariants();
    }

    #[test]
    fn best_fit_picks_smallest_adequate_hole() {
        let mut a = FreeListAllocator::new(100, Placement::BestFit);
        // Create holes of sizes 20 ([0,20)) and 10 ([30,40)).
        a.alloc(1, 20).unwrap();
        a.alloc(2, 10).unwrap();
        a.alloc(3, 10).unwrap();
        a.alloc(4, 60).unwrap();
        a.free(1).unwrap(); // hole [0,20)
        a.free(3).unwrap(); // hole [30,40)
        let p = a.alloc(5, 8).unwrap();
        assert_eq!(p, PhysAddr(30), "best-fit must choose the 10-word hole");
        a.check_invariants();
    }

    #[test]
    fn worst_fit_picks_largest_hole() {
        let mut a = FreeListAllocator::new(100, Placement::WorstFit);
        a.alloc(1, 20).unwrap();
        a.alloc(2, 10).unwrap();
        a.alloc(3, 10).unwrap();
        a.alloc(4, 60).unwrap();
        a.free(1).unwrap(); // hole [0,20)
        a.free(3).unwrap(); // hole [30,40)
        let p = a.alloc(5, 8).unwrap();
        assert_eq!(p, PhysAddr(0), "worst-fit must choose the 20-word hole");
    }

    #[test]
    fn first_fit_takes_lowest_hole() {
        let mut a = FreeListAllocator::new(100, Placement::FirstFit);
        a.alloc(1, 20).unwrap();
        a.alloc(2, 10).unwrap();
        a.alloc(3, 10).unwrap();
        a.alloc(4, 60).unwrap();
        a.free(1).unwrap();
        a.free(3).unwrap();
        let p = a.alloc(5, 8).unwrap();
        assert_eq!(p, PhysAddr(0));
    }

    #[test]
    fn next_fit_resumes_from_rover() {
        let mut a = FreeListAllocator::new(100, Placement::NextFit);
        a.alloc(1, 20).unwrap();
        a.alloc(2, 10).unwrap();
        a.alloc(3, 10).unwrap();
        a.alloc(4, 60).unwrap();
        a.free(1).unwrap(); // hole [0,20)
        a.free(3).unwrap(); // hole [30,40)
                            // Rover is at 100 (end of last alloc), wraps to the start.
        let p = a.alloc(5, 8).unwrap();
        assert_eq!(p, PhysAddr(0));
        // Rover now at 8: the next small alloc comes from [8,20), not
        // rescanning [0,8).
        let p2 = a.alloc(6, 8).unwrap();
        assert_eq!(p2, PhysAddr(8));
        // And the next one skips to [30,40).
        let p3 = a.alloc(7, 8).unwrap();
        assert_eq!(p3, PhysAddr(30));
    }

    #[test]
    fn two_ends_separates_small_and_large() {
        let mut a = FreeListAllocator::new(1000, Placement::TwoEnds { threshold: 100 });
        let small = a.alloc(1, 10).unwrap();
        let large = a.alloc(2, 200).unwrap();
        let small2 = a.alloc(3, 10).unwrap();
        let large2 = a.alloc(4, 200).unwrap();
        assert_eq!(small, PhysAddr(0));
        assert_eq!(large, PhysAddr(800));
        assert_eq!(small2, PhysAddr(10));
        assert_eq!(large2, PhysAddr(600));
        a.check_invariants();
    }

    #[test]
    fn exact_fit_consumes_whole_hole() {
        let mut a = FreeListAllocator::new(100, Placement::BestFit);
        a.alloc(1, 40).unwrap();
        a.alloc(2, 60).unwrap();
        a.free(1).unwrap();
        a.alloc(3, 40).unwrap();
        assert_eq!(a.free_words(), 0);
        assert_eq!(a.hole_count(), 0);
        a.check_invariants();
    }

    #[test]
    fn coalescing_merges_both_sides() {
        let mut a = FreeListAllocator::new(90, Placement::FirstFit);
        a.alloc(1, 30).unwrap();
        a.alloc(2, 30).unwrap();
        a.alloc(3, 30).unwrap();
        a.free(1).unwrap();
        a.free(3).unwrap();
        assert_eq!(a.hole_count(), 2);
        a.free(2).unwrap(); // merges with both neighbours
        assert_eq!(a.hole_count(), 1);
        assert_eq!(a.largest_free(), 90);
        assert!(a.stats().coalesces >= 2);
    }

    #[test]
    fn probe_counting_reflects_search_length() {
        let mut a = FreeListAllocator::new(100, Placement::FirstFit);
        a.alloc(1, 10).unwrap(); // 1 probe (single hole)
        a.alloc(2, 10).unwrap(); // 1 probe
        assert_eq!(a.stats().probes, 2);
        assert_eq!(a.stats().mean_search(), 1.0);
    }

    #[test]
    fn best_fit_probes_whole_list_without_exact_fit() {
        let mut a = FreeListAllocator::new(300, Placement::BestFit);
        for i in 0..5 {
            a.alloc(i, 30).unwrap();
        }
        for i in [0u64, 2, 4] {
            a.free(i).unwrap();
        }
        // Holes: [0,30), [60,90), and [120,300) (the last coalesced with
        // the tail).
        assert_eq!(a.hole_count(), 3);
        let probes_before = a.stats().probes;
        a.alloc(10, 5).unwrap(); // no exact fit: must scan all 3 holes
        assert_eq!(a.stats().probes - probes_before, 3);
    }

    #[test]
    fn lookup_and_listing() {
        let mut a = FreeListAllocator::new(100, Placement::FirstFit);
        a.alloc(7, 25).unwrap();
        assert_eq!(a.lookup(7), Some((PhysAddr(0), 25)));
        assert_eq!(a.lookup(8), None);
        let list = a.allocations_by_address();
        assert_eq!(list, vec![(7, 0, 25)]);
        assert!((a.utilization() - 0.25).abs() < 1e-12);
    }
}

#[cfg(test)]
mod probe_tests {
    use super::*;
    use dsa_probe::CountingProbe;

    #[test]
    fn alloc_and_free_emit_balanced_events() {
        let mut a = FreeListAllocator::new(200, Placement::BestFit);
        let mut probe = CountingProbe::new();
        let at = Stamp::vtime(0);
        a.alloc_probed(1, 40, at, &mut probe).unwrap();
        a.alloc_probed(2, 60, at, &mut probe).unwrap();
        a.free_probed(1, at, &mut probe).unwrap();
        // A third allocation must now search past hole [0,40).
        a.alloc_probed(3, 50, at, &mut probe).unwrap();
        assert_eq!(probe.allocs, 3);
        assert_eq!(probe.alloc_words, 150);
        assert_eq!(probe.frees, 1);
        assert_eq!(probe.freed_words, 40);
        assert!(probe.alloc_searched >= 3, "searches were counted");
    }

    #[test]
    fn failed_requests_emit_nothing() {
        let mut a = FreeListAllocator::new(10, Placement::FirstFit);
        let mut probe = CountingProbe::new();
        let at = Stamp::vtime(0);
        assert!(a.alloc_probed(1, 99, at, &mut probe).is_err());
        assert!(a.free_probed(9, at, &mut probe).is_err());
        assert_eq!(probe.total_events(), 0);
    }

    /// A first-fit scan over the hole list, straight from the paper:
    /// the reference the block-skipping search must agree with.
    fn first_fit_reference(a: &FreeListAllocator, size: Words) -> (Option<u64>, u64) {
        let holes: Vec<(u64, Words)> = a.holes().collect();
        for (i, &(addr, hsize)) in holes.iter().enumerate() {
            if hsize >= size {
                return (Some(addr), i as u64 + 1);
            }
        }
        (None, holes.len() as u64)
    }

    #[test]
    fn first_fit_matches_linear_scan_under_churn() {
        let mut a = FreeListAllocator::new(8192, Placement::FirstFit);
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut live: Vec<u64> = Vec::new();
        for id in 0..4000u64 {
            if step() % 3 != 0 || live.is_empty() {
                let size = 1 + step() % 300;
                let (want_addr, want_probes) = first_fit_reference(&a, size);
                let before = a.stats().probes;
                match a.alloc(id, size) {
                    Ok(addr) => {
                        assert_eq!(Some(addr.value()), want_addr, "placement diverged");
                        live.push(id);
                    }
                    Err(_) => assert!(want_addr.is_none(), "scan found a hole the search missed"),
                }
                assert_eq!(
                    a.stats().probes - before,
                    want_probes,
                    "modeled cost diverged"
                );
            } else {
                let victim = live.swap_remove((step() % live.len() as u64) as usize);
                a.free(victim).unwrap();
            }
            if id % 512 == 0 {
                a.check_invariants();
            }
        }
        a.check_invariants();
    }

    #[test]
    fn quick_lists_round_trip_and_account_words() {
        let mut a = FreeListAllocator::new(1000, Placement::FirstFit);
        a.enable_quick_lists(64, 8);
        let p1 = a.alloc(1, 16).unwrap();
        a.alloc(2, 16).unwrap();
        a.free(1).unwrap();
        assert_eq!(a.quick_parked_words(), 16);
        assert_eq!(a.free_words(), 1000 - 16, "parked storage is free storage");
        // The exact-size request reuses the parked block, no search.
        let probes_before = a.stats().probes;
        let p3 = a.alloc(3, 16).unwrap();
        assert_eq!(p3, p1, "quick list must hand back the parked block");
        assert_eq!(
            a.stats().probes,
            probes_before,
            "quick path charges no probes"
        );
        assert_eq!(a.quick_parked_words(), 0);
        a.check_invariants();
    }

    #[test]
    fn quick_lists_flush_before_failing() {
        let mut a = FreeListAllocator::new(100, Placement::FirstFit);
        a.enable_quick_lists(50, 8);
        for id in 0..4u64 {
            a.alloc(id, 25).unwrap();
        }
        for id in 0..4u64 {
            a.free(id).unwrap();
        }
        assert_eq!(a.quick_parked_words(), 100);
        assert_eq!(a.hole_count(), 0, "parked blocks are not holes yet");
        // No single hole fits 100 words until the parked blocks are
        // flushed and coalesced — which alloc must do before failing.
        let addr = a.alloc(9, 100).unwrap();
        assert_eq!(addr, PhysAddr(0));
        a.check_invariants();
    }

    #[test]
    fn quick_lists_respect_depth_and_size_caps() {
        let mut a = FreeListAllocator::new(1000, Placement::FirstFit);
        a.enable_quick_lists(16, 2);
        for id in 0..3u64 {
            a.alloc(id, 8).unwrap();
        }
        a.alloc(3, 100).unwrap();
        for id in 0..3u64 {
            a.free(id).unwrap();
        }
        // Depth cap 2: the third freed 8-word block coalesces normally.
        assert_eq!(a.quick_parked_words(), 16);
        a.free(3).unwrap();
        // Size cap 16: the 100-word block goes straight to the holes.
        assert_eq!(a.quick_parked_words(), 16);
        a.check_invariants();
        assert!(FreeListAllocator::flush(
            &mut a.quick,
            &mut a.holes,
            &mut a.stats
        ));
        assert_eq!(a.quick_parked_words(), 0);
        assert_eq!(a.free_words(), 1000);
        a.check_invariants();
    }

    #[test]
    fn rebuild_and_pack_down_clear_quick_lists() {
        let mut a = FreeListAllocator::new(500, Placement::FirstFit);
        a.enable_quick_lists(32, 8);
        for id in 0..6u64 {
            a.alloc(id, 20).unwrap();
        }
        a.free(1).unwrap();
        a.free(3).unwrap();
        assert_eq!(a.quick_parked_words(), 40);
        a.rebuild_from_live();
        assert_eq!(a.quick_parked_words(), 0);
        assert_eq!(a.free_words(), 500 - 4 * 20);
        a.check_invariants();
        a.free(5).unwrap();
        assert!(a.quick_parked_words() > 0);
        let _ = a.pack_down(|_, _, _, _| {});
        assert_eq!(a.quick_parked_words(), 0);
        a.check_invariants();
    }
}

/// The hole table against a `BTreeMap` of the same holes: a test
/// model may use the type the crate refuses (clippy.toml).
#[cfg(test)]
#[allow(clippy::disallowed_types)]
mod hole_table_tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Addresses the random phase draws from.
    const SPACE: u64 = 4096;
    /// One-word holes the fill phase plants, three words apart so none
    /// coalesce: more than `2 * RANK_BLOCK`, so blocks must split.
    const PLANTED: u64 = 701;

    #[derive(Clone, Debug)]
    enum Op {
        /// Release `[addr, addr + size)`, unless it overlaps a hole.
        Release(u64, Words),
        /// Release up to `size` words of the gap that ends at the `nth`
        /// hole's start, or of the one that starts at its end: a merge
        /// on that side, and on both when the gap is filled.
        Beside {
            nth: usize,
            size: Words,
            after: bool,
        },
        /// Carve `amount` words off the `nth` hole, from its low end or
        /// its high end: an in-place slide, or a removal when nothing
        /// is left.
        Carve {
            nth: usize,
            amount: Words,
            high: bool,
        },
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec(
            prop_oneof![
                (0..SPACE, 1u64..24).prop_map(|(addr, size)| Op::Release(addr, size)),
                (0usize..1024, 1u64..4, any::<bool>()).prop_map(|(nth, size, after)| Op::Beside {
                    nth,
                    size,
                    after
                }),
                (0usize..1024, 1u64..24, any::<bool>()).prop_map(|(nth, amount, high)| Op::Carve {
                    nth,
                    amount,
                    high
                }),
            ],
            1..300,
        )
    }

    /// The coalescing release on the model; returns the neighbours
    /// merged away, as [`HoleTable::coalesce`] does.
    fn model_release(
        model: &mut BTreeMap<u64, Words>,
        addr: u64,
        size: Words,
    ) -> (Option<Hole>, Option<Hole>) {
        let pred = model.range(..addr).next_back().map(|(&a, &s)| (a, s));
        let pred = pred.filter(|p| p.0 + p.1 == addr);
        let succ = model.get(&(addr + size)).map(|&s| (addr + size, s));
        let mut merged = (addr, size);
        for hole in pred.iter().chain(&succ) {
            model.remove(&hole.0);
            merged = (merged.0.min(hole.0), merged.1 + hole.1);
        }
        model.insert(merged.0, merged.1);
        (pred, succ)
    }

    /// Every answer the table gives, against the model's; `q` seeds the
    /// rank query, the rover and the first-fit request.
    fn check(table: &HoleTable, model: &BTreeMap<u64, Words>, q: u64) -> Result<(), String> {
        let holes: Vec<Hole> = model.iter().map(|(&a, &s)| (a, s)).collect();
        prop_assert_eq!(table.iter().collect::<Vec<_>>(), holes.clone());
        let backwards: Vec<Hole> = holes.iter().rev().copied().collect();
        prop_assert_eq!(table.iter().rev().collect::<Vec<_>>(), backwards);
        prop_assert_eq!(table.len, holes.len());
        prop_assert_eq!(table.words, holes.iter().map(|h| h.1).sum::<Words>());
        prop_assert_eq!(
            table.largest(),
            holes.iter().map(|h| h.1).max().unwrap_or(0)
        );
        prop_assert!(table
            .blocks
            .iter()
            .all(|b| !b.is_empty() && b.len() <= 2 * RANK_BLOCK));
        let maxes: Vec<Words> = table.blocks.iter().map(|b| HoleTable::max_of(b)).collect();
        prop_assert_eq!(&table.maxes, &maxes);
        let wrapped: Vec<Hole> = model
            .range(q..)
            .chain(model.range(..q))
            .map(|(&a, &s)| (a, s))
            .collect();
        let from_q: Vec<(At, Hole)> = table.iter_from(q).collect();
        prop_assert_eq!(from_q.iter().map(|&(_, h)| h).collect::<Vec<_>>(), wrapped);
        prop_assert!(from_q.iter().all(|&((i, j), h)| table.blocks[i][j] == h));
        // Each search against the scan of the flat list it stands for:
        // the hole it stops at, by position, and the holes examined.
        let size = q % 32 + 1;
        let hole_at = |at: Option<At>| at.map(|(i, j)| table.blocks[i][j]);
        let first = holes.iter().position(|h| h.1 >= size);
        let (at, probes) = table.first_fit(size);
        prop_assert_eq!(hole_at(at), first.map(|j| holes[j]));
        prop_assert_eq!(probes, first.map_or(holes.len(), |j| j + 1) as u64);
        let best = (holes.iter().enumerate())
            .filter(|(_, h)| h.1 >= size)
            .min_by_key(|&(j, h)| (h.1, j));
        let (at, probes) = table.best_fit(size);
        prop_assert_eq!(hole_at(at), best.map(|(_, &h)| h));
        let exact = best.filter(|(_, h)| h.1 == size);
        prop_assert_eq!(probes, exact.map_or(holes.len(), |(j, _)| j + 1) as u64);
        Ok(())
    }

    proptest! {
        /// Insert, coalescing with the predecessor and
        /// successor, in-place slide, remove, `first_fit`, `best_fit`,
        /// wrap-around iteration from a rover and the running totals
        /// all agree with a `BTreeMap`, on a table that grows past two
        /// full blocks, is churned, and is then drained from one end
        /// until its blocks empty and vanish.
        #[test]
        fn hole_table_matches_btreemap_model(
            stride in 1..PLANTED,
            ops in arb_ops(),
            drain_high in any::<bool>(),
        ) {
            let mut table = HoleTable::default();
            let mut model: BTreeMap<u64, Words> = BTreeMap::new();
            // PLANTED is prime, so k * stride visits every slot once, in
            // an order that lands inserts all over the table.
            for k in 0..PLANTED {
                let addr = 3 * ((k * stride) % PLANTED);
                prop_assert_eq!(table.coalesce(addr, 1), model_release(&mut model, addr, 1));
                if k % 64 == 0 {
                    check(&table, &model, addr)?;
                }
            }
            check(&table, &model, SPACE / 2)?;
            prop_assert!(table.blocks.len() >= 3, "the fill must split blocks");
            for op in &ops {
                match *op {
                    Op::Release(addr, size) => {
                        let size = size.min(SPACE - addr);
                        let clear = model
                            .range(..addr + size)
                            .next_back()
                            .is_none_or(|(&a, &s)| a + s <= addr);
                        if clear {
                            prop_assert_eq!(
                                table.coalesce(addr, size),
                                model_release(&mut model, addr, size)
                            );
                        }
                        check(&table, &model, addr)?;
                    }
                    Op::Beside { nth, size, after } => {
                        let Some((&addr, &hsize)) = model.iter().nth(nth % model.len().max(1))
                        else {
                            continue;
                        };
                        let (at, size) = if after {
                            let next = model.range(addr + 1..).next().map_or(SPACE, |(&a, _)| a);
                            (addr + hsize, size.min(next - (addr + hsize)))
                        } else {
                            let prev = model.range(..addr).next_back().map_or(0, |(&a, &s)| a + s);
                            let size = size.min(addr - prev);
                            (addr - size, size)
                        };
                        if size > 0 {
                            prop_assert_eq!(
                                table.coalesce(at, size),
                                model_release(&mut model, at, size)
                            );
                        }
                        check(&table, &model, at)?;
                    }
                    Op::Carve { nth, amount, high } => {
                        let Some((&addr, &size)) = model.iter().nth(nth % model.len().max(1))
                        else {
                            continue;
                        };
                        let at = table.seek(addr);
                        model.remove(&addr);
                        if amount >= size {
                            prop_assert_eq!(table.remove(at), (addr, size));
                        } else {
                            let rest = (if high { addr } else { addr + amount }, size - amount);
                            table.set(at, rest);
                            model.insert(rest.0, rest.1);
                        }
                        check(&table, &model, addr)?;
                    }
                }
            }
            while let Some((&addr, &size)) =
                if drain_high { model.iter().next_back() } else { model.iter().next() }
            {
                prop_assert_eq!(table.remove(table.seek(addr)), (addr, size));
                model.remove(&addr);
                if model.len() % 32 == 0 {
                    check(&table, &model, addr)?;
                }
            }
            prop_assert!(table.blocks.is_empty() && table.maxes.is_empty());
            prop_assert_eq!((table.len, table.words), (0, 0));
        }
    }
}
