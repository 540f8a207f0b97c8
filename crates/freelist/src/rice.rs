//! The Rice University Computer allocation scheme (Appendix A.4).
//!
//! Iliffe & Jodeit's scheme, as the paper describes it:
//!
//! * "Segments are initially placed sequentially in storage in a block
//!   of contiguous locations, the first of which is a 'back reference'
//!   to the codeword of the segment" — sequential frontier placement,
//!   one word of overhead per active block;
//! * "When a segment loses its significance the block in which it was
//!   stored is designated as 'inactive', and its first word set up with
//!   the size of the block and the location of the next inactive block"
//!   — an explicit chain of inactive blocks, newest first;
//! * "When space is required for a segment, the chain of inactive blocks
//!   is searched sequentially for one of sufficient size" — first-fit
//!   over the chain (not over address order!);
//! * "If an inactive block of sufficient size cannot be found, an
//!   attempt is made to make one by finding groups of adjacent inactive
//!   blocks which can be combined" — *deferred* coalescing, performed
//!   only on failure;
//! * "If this fails a replacement algorithm ... is applied iteratively
//!   until a block of sufficient size is released" — eviction is the
//!   caller's job (see `dsa-seg`); the allocator reports failure.

use std::cmp::Reverse;

use dsa_core::error::AllocError;
use dsa_core::ids::{IdMap, PhysAddr, Words};
use dsa_probe::{EventKind, Probe, Stamp};

/// Words of overhead per active block (the back-reference word).
pub(crate) const BACK_REF_WORDS: Words = 1;

/// Statistics for the Rice allocator.
#[derive(Clone, Copy, Debug, Default)]
pub struct RiceStats {
    /// Successful allocations.
    pub allocs: u64,
    /// Deallocations (blocks made inactive).
    pub frees: u64,
    /// Chain entries examined across all searches.
    pub probes: u64,
    /// Failure-triggered combining passes.
    pub combine_passes: u64,
    /// Blocks merged by combining.
    pub blocks_combined: u64,
    /// Allocations that failed even after combining.
    pub failures: u64,
}

/// The Rice inactive-block-chain allocator.
///
/// Back references are stored as the `owner` value supplied at
/// allocation time (in the real machine, the address of the segment's
/// codeword).
#[derive(Clone, Debug)]
pub struct RiceAllocator {
    capacity: Words,
    /// Next never-used address (sequential initial placement).
    frontier: u64,
    /// The chain of inactive blocks, stored newest *last*: the chain's
    /// head is the vector's end, so a free is a push and a search runs
    /// from the back.
    chain: Vec<(u64, Words)>,
    /// Live blocks: id -> (addr, gross size incl. back-ref, owner).
    active: IdMap<u64, (u64, Words, u64)>,
    stats: RiceStats,
}

impl RiceAllocator {
    /// Creates an allocator over `capacity` words.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: Words) -> RiceAllocator {
        assert!(capacity > 0, "capacity must be positive");
        RiceAllocator {
            capacity,
            frontier: 0,
            chain: Vec::new(),
            active: IdMap::default(),
            stats: RiceStats::default(),
        }
    }

    /// Words in inactive blocks plus the untouched region beyond the
    /// frontier.
    #[must_use]
    pub fn free_words(&self) -> Words {
        self.chain.iter().map(|&(_, s)| s).sum::<Words>() + (self.capacity - self.frontier)
    }

    /// Length of the inactive chain.
    #[must_use]
    pub fn chain_len(&self) -> usize {
        self.chain.len()
    }

    /// Largest contiguous free extent: the biggest inactive block or the
    /// untouched region beyond the frontier, whichever is larger. (Note
    /// adjacent inactive blocks count separately until
    /// [`RiceAllocator::combine_adjacent`] runs — combining is deferred
    /// on the Rice machine.)
    #[must_use]
    pub fn largest_free(&self) -> Words {
        self.chain
            .iter()
            .map(|&(_, s)| s)
            .max()
            .unwrap_or(0)
            .max(self.capacity - self.frontier)
    }

    /// Current frontier (next sequential placement address).
    #[must_use]
    pub fn frontier(&self) -> u64 {
        self.frontier
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> &RiceStats {
        &self.stats
    }

    /// Looks up a live block: `(payload address, payload size)`. The
    /// payload starts one word past the back reference.
    #[must_use]
    pub fn lookup(&self, id: u64) -> Option<(PhysAddr, Words)> {
        self.active
            .get(&id)
            .map(|&(addr, gross, _)| (PhysAddr(addr + BACK_REF_WORDS), gross - BACK_REF_WORDS))
    }

    /// Allocates `size` payload words for `id`, recording `owner` as the
    /// back reference.
    ///
    /// Tries, in order: the inactive chain (first-fit in chain order),
    /// the sequential frontier, then one combining pass followed by a
    /// retry of both.
    ///
    /// # Errors
    ///
    /// * [`AllocError::ZeroSize`] / [`AllocError::AlreadyAllocated`] on
    ///   bad requests, [`AllocError::RequestTooLarge`] for a payload
    ///   the back-reference word cannot be added to;
    /// * [`AllocError::OutOfStorage`] when even combining cannot make a
    ///   large-enough block — the caller should release a segment (the
    ///   "replacement algorithm applied iteratively") and retry.
    pub fn alloc(&mut self, id: u64, size: Words, owner: u64) -> Result<PhysAddr, AllocError> {
        if size == 0 {
            return Err(AllocError::ZeroSize);
        }
        if self.active.contains_key(&id) {
            return Err(AllocError::AlreadyAllocated);
        }
        // A payload the back reference cannot be added to is no size at
        // all; one it can, however large, is searched for and not found.
        let max = Words::MAX - BACK_REF_WORDS;
        let too_large = AllocError::RequestTooLarge {
            requested: size,
            max,
        };
        let gross = size.checked_add(BACK_REF_WORDS).ok_or(too_large)?;
        // "An attempt is made to make one by finding groups of adjacent
        // inactive blocks which can be combined."
        let placed = self.try_place(gross).or_else(|| {
            self.combine_adjacent();
            self.try_place(gross)
        });
        let Some(addr) = placed else {
            self.stats.failures += 1;
            return Err(AllocError::OutOfStorage {
                requested: gross,
                largest_free: self.largest_free(),
            });
        };
        self.active.insert(id, (addr, gross, owner));
        self.stats.allocs += 1;
        Ok(PhysAddr(addr + BACK_REF_WORDS))
    }

    /// [`RiceAllocator::alloc`] with event emission: a successful
    /// allocation emits `Alloc { words, searched }`, where `searched`
    /// counts inactive-chain blocks inspected (across the combine-retry
    /// too, if one was needed).
    ///
    /// # Errors
    ///
    /// As [`RiceAllocator::alloc`]; no event is emitted on failure.
    pub fn alloc_probed<P: Probe + ?Sized>(
        &mut self,
        id: u64,
        size: Words,
        owner: u64,
        at: Stamp,
        probe: &mut P,
    ) -> Result<PhysAddr, AllocError> {
        let before = self.stats.probes;
        let r = self.alloc(id, size, owner);
        if r.is_ok() {
            probe.emit(
                EventKind::Alloc {
                    words: size,
                    searched: self.stats.probes - before,
                },
                at,
            );
        }
        r
    }

    /// One placement attempt: chain first, then frontier.
    fn try_place(&mut self, gross: Words) -> Option<u64> {
        for i in (0..self.chain.len()).rev() {
            self.stats.probes += 1;
            let (addr, bsize) = self.chain[i];
            if bsize >= gross {
                let leftover = bsize - gross;
                if leftover > 0 {
                    // "If any unused space is left over it replaces the
                    // original inactive block in the chain."
                    self.chain[i] = (addr + gross, leftover);
                } else {
                    self.chain.remove(i);
                }
                return Some(addr);
            }
        }
        if gross <= self.capacity - self.frontier {
            let addr = self.frontier;
            self.frontier += gross;
            return Some(addr);
        }
        None
    }

    /// Designates block `id` inactive, pushing it onto the chain head.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::UnknownUnit`] if `id` is not live.
    pub fn free(&mut self, id: u64) -> Result<(), AllocError> {
        let (addr, gross, _) = self.active.remove(&id).ok_or(AllocError::UnknownUnit)?;
        self.chain.push((addr, gross));
        self.stats.frees += 1;
        Ok(())
    }

    /// [`RiceAllocator::free`] with event emission: a successful release
    /// emits `Free { words }` carrying the net (requested) size, so a
    /// space accountant sees Alloc and Free balance.
    ///
    /// # Errors
    ///
    /// As [`RiceAllocator::free`]; no event is emitted on failure.
    pub fn free_probed<P: Probe + ?Sized>(
        &mut self,
        id: u64,
        at: Stamp,
        probe: &mut P,
    ) -> Result<(), AllocError> {
        let net = self
            .active
            .get(&id)
            .map(|&(_, gross, _)| gross - BACK_REF_WORDS);
        let r = self.free(id);
        if r.is_ok() {
            probe.emit(
                EventKind::Free {
                    words: net.unwrap_or(0),
                },
                at,
            );
        }
        r
    }

    /// Combines groups of adjacent inactive blocks and retracts the
    /// frontier over any inactive block that touches it. Returns the
    /// number of blocks merged away.
    pub fn combine_adjacent(&mut self) -> usize {
        self.stats.combine_passes += 1;
        let before = self.chain.len();
        // Chain order after a pass is ascending address, so the vector
        // is descending: the last pass's run, still in order, then the
        // frees since — what a run-adaptive sort is quick on.
        self.chain.sort_by_key(|&(addr, _)| Reverse(addr));
        self.chain.dedup_by(|below, kept| {
            let adjacent = below.0 + below.1 == kept.0;
            if adjacent {
                *kept = (below.0, below.1 + kept.1);
            }
            adjacent
        });
        // Retract the frontier over an inactive block that reaches it:
        // the highest, and once merged the only one that can.
        if (self.chain.first()).is_some_and(|&(addr, size)| addr + size == self.frontier) {
            self.frontier = self.chain.remove(0).0;
        }
        let removed = before - self.chain.len();
        self.stats.blocks_combined += removed as u64;
        removed
    }

    /// Verifies internal invariants (disjointness, accounting).
    ///
    /// # Panics
    ///
    /// Panics if blocks overlap, exceed the frontier, or words leak.
    pub fn check_invariants(&self) {
        let mut regions: Vec<(u64, u64)> = self
            .active
            .values()
            .map(|&(a, g, _)| (a, a + g))
            .chain(self.chain.iter().map(|&(a, s)| (a, a + s)))
            .collect();
        regions.sort_unstable();
        for w in regions.windows(2) {
            assert!(w[0].1 <= w[1].0, "regions overlap: {w:?}");
        }
        for &(_, end) in &regions {
            assert!(end <= self.frontier, "block beyond frontier");
        }
        let used: Words = self.active.values().map(|&(_, g, _)| g).sum();
        let inactive: Words = self.chain.iter().map(|&(_, s)| s).sum();
        assert_eq!(
            used + inactive,
            self.frontier,
            "words leaked before frontier"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_initial_placement() {
        let mut a = RiceAllocator::new(100);
        let p1 = a.alloc(1, 10, 101).unwrap();
        let p2 = a.alloc(2, 10, 102).unwrap();
        // Payload starts one word in (back reference).
        assert_eq!(p1, PhysAddr(1));
        assert_eq!(p2, PhysAddr(12));
        assert_eq!(a.frontier(), 22);
        a.check_invariants();
    }

    #[test]
    fn freed_blocks_chain_newest_first_and_first_fit() {
        let mut a = RiceAllocator::new(100);
        a.alloc(1, 10, 0).unwrap(); // [0,11)
        a.alloc(2, 20, 0).unwrap(); // [11,32)
        a.alloc(3, 10, 0).unwrap(); // [32,43)
        a.free(1).unwrap();
        a.free(2).unwrap(); // chain: [11,32) then [0,11)
                            // An 8-word request (9 gross) fits both; chain order tries the
                            // newest inactive block first -> address 11.
        let p = a.alloc(4, 8, 0).unwrap();
        assert_eq!(p, PhysAddr(12));
        // Leftover (21-9=12 words at addr 20) replaced the block in situ.
        assert_eq!(a.chain_len(), 2);
        a.check_invariants();
    }

    #[test]
    fn exact_fit_removes_chain_entry() {
        let mut a = RiceAllocator::new(100);
        a.alloc(1, 10, 0).unwrap();
        a.alloc(2, 10, 0).unwrap();
        a.free(1).unwrap(); // inactive [0,11)
        let p = a.alloc(3, 10, 0).unwrap(); // gross 11: exact
        assert_eq!(p, PhysAddr(1));
        assert_eq!(a.chain_len(), 0);
        a.check_invariants();
    }

    #[test]
    fn combining_is_deferred_until_failure() {
        let mut a = RiceAllocator::new(64);
        a.alloc(1, 15, 0).unwrap(); // [0,16)
        a.alloc(2, 15, 0).unwrap(); // [16,32)
        a.alloc(3, 15, 0).unwrap(); // [32,48)
        a.free(1).unwrap();
        a.free(2).unwrap();
        assert_eq!(a.chain_len(), 2, "no eager coalescing");
        // 24 gross words fit only in the combined [0,32) block; frontier
        // has 16 left. The alloc triggers a combining pass.
        let p = a.alloc(4, 23, 0).unwrap();
        assert_eq!(p, PhysAddr(1));
        assert!(a.stats().combine_passes >= 1);
        assert!(a.stats().blocks_combined >= 1);
        a.check_invariants();
    }

    #[test]
    fn combining_retracts_frontier() {
        let mut a = RiceAllocator::new(64);
        a.alloc(1, 15, 0).unwrap(); // [0,16)
        a.alloc(2, 15, 0).unwrap(); // [16,32) frontier=32
        a.free(2).unwrap();
        a.combine_adjacent();
        assert_eq!(
            a.frontier(),
            16,
            "trailing inactive block retracts frontier"
        );
        assert_eq!(a.chain_len(), 0);
        a.check_invariants();
    }

    #[test]
    fn failure_after_combining_reports_out_of_storage() {
        let mut a = RiceAllocator::new(32);
        a.alloc(1, 10, 0).unwrap();
        a.alloc(2, 10, 0).unwrap();
        a.free(1).unwrap();
        let err = a.alloc(3, 30, 0).unwrap_err();
        assert!(matches!(err, AllocError::OutOfStorage { .. }));
        assert_eq!(a.stats().failures, 1);
        // The iterative replacement loop: freeing 2 then combining makes
        // room.
        a.free(2).unwrap();
        assert!(a.alloc(3, 30, 0).is_ok());
        a.check_invariants();
    }

    #[test]
    fn error_cases() {
        let mut a = RiceAllocator::new(32);
        assert_eq!(a.alloc(1, 0, 0), Err(AllocError::ZeroSize));
        a.alloc(1, 5, 0).unwrap();
        assert_eq!(a.alloc(1, 5, 0), Err(AllocError::AlreadyAllocated));
        assert_eq!(a.free(9), Err(AllocError::UnknownUnit));
    }

    #[test]
    fn lookup_by_id() {
        let mut a = RiceAllocator::new(64);
        a.alloc(5, 10, 77).unwrap();
        assert_eq!(a.lookup(5), Some((PhysAddr(1), 10)));
        assert_eq!(a.lookup(6), None);
    }

    #[test]
    fn free_words_counts_chain_and_tail() {
        let mut a = RiceAllocator::new(100);
        a.alloc(1, 9, 0).unwrap(); // gross 10
        a.alloc(2, 9, 0).unwrap(); // gross 10
        a.free(1).unwrap();
        assert_eq!(a.free_words(), 10 + 80);
    }

    #[test]
    fn probes_count_chain_scans() {
        let mut a = RiceAllocator::new(200);
        a.alloc(1, 10, 0).unwrap();
        a.alloc(2, 10, 0).unwrap();
        a.alloc(3, 10, 0).unwrap();
        a.free(1).unwrap();
        a.free(2).unwrap();
        a.free(3).unwrap();
        let before = a.stats().probes;
        // 50-word request: all three 11-word chain entries probed, then
        // frontier used.
        a.alloc(4, 50, 0).unwrap();
        assert_eq!(a.stats().probes - before, 3);
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;

    #[test]
    fn combine_on_empty_chain_is_harmless() {
        let mut a = RiceAllocator::new(16);
        assert_eq!(a.combine_adjacent(), 0);
        a.check_invariants();
    }

    /// `frontier + gross` used to wrap for a request this large and move
    /// the frontier backwards over a live block; one word larger and
    /// `gross` itself wrapped to an empty block. Both are refused with
    /// nothing edited, in release builds as in debug.
    #[test]
    fn requests_near_the_word_limit_are_refused_untouched() {
        let mut a = RiceAllocator::new(1000);
        a.alloc(1, 99, 0).unwrap();
        assert!(matches!(
            a.alloc(2, u64::MAX - 1, 0),
            Err(AllocError::OutOfStorage {
                requested: u64::MAX,
                largest_free: 900
            })
        ));
        assert!(matches!(
            a.alloc(2, u64::MAX, 0),
            Err(AllocError::RequestTooLarge {
                requested: u64::MAX,
                ..
            })
        ));
        assert_eq!((a.frontier(), a.chain_len()), (100, 0));
        assert_eq!(a.lookup(1), Some((PhysAddr(1), 99)));
        assert_eq!(a.lookup(2), None);
        a.check_invariants();
    }

    #[test]
    fn payload_exactly_fills_capacity_minus_back_ref() {
        let mut a = RiceAllocator::new(16);
        assert!(a.alloc(1, 16, 0).is_err(), "gross 17 > 16");
        assert!(a.alloc(1, 15, 0).is_ok(), "gross 16 == 16");
        assert_eq!(a.free_words(), 0);
    }
}
