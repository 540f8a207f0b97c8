//! A binary buddy allocator.
//!
//! The buddy system is the classic compromise between the paper's two
//! poles: units are variable but quantized to powers of two, so
//! placement is trivial and coalescing is a constant-time buddy check —
//! at the price of *internal* fragmentation (a request is rounded up to
//! the next power of two). It serves as an ablation baseline between
//! the pure free list and pure paging in experiments E5–E6.

// The per-order sets are the buddy system's free store, not an index
// beside a hole table (crates/freelist/clippy.toml).
#[allow(clippy::disallowed_types)]
use std::collections::BTreeSet;

use dsa_core::error::AllocError;
use dsa_core::ids::{IdMap, PhysAddr, Words};

/// Statistics for the buddy allocator.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuddyStats {
    /// Successful allocations.
    pub allocs: u64,
    /// Frees.
    pub frees: u64,
    /// Failed allocations.
    pub failures: u64,
    /// Block splits performed.
    pub splits: u64,
    /// Buddy merges performed.
    pub merges: u64,
    /// Total words lost to rounding (cumulative over live blocks).
    pub internal_waste: Words,
}

/// A binary buddy allocator over a power-of-two capacity.
#[derive(Clone, Debug)]
#[allow(clippy::disallowed_types)] // its free store, as above
pub struct BuddyAllocator {
    capacity_log2: u32,
    /// Free blocks per order: `free[k]` holds start addresses of free
    /// blocks of `1 << k` words.
    free: Vec<BTreeSet<u64>>,
    /// Live allocations: id -> (addr, order, requested size).
    allocated: IdMap<u64, (u64, u32, Words)>,
    stats: BuddyStats,
}

impl BuddyAllocator {
    /// Creates an allocator of `1 << capacity_log2` words.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_log2` exceeds 40 (a petabyte of simulated
    /// words is surely a configuration error).
    #[must_use]
    #[allow(clippy::disallowed_types)] // its free store, as above
    pub fn new(capacity_log2: u32) -> BuddyAllocator {
        assert!(capacity_log2 <= 40, "capacity_log2 too large");
        let mut free: Vec<BTreeSet<u64>> = (0..=capacity_log2).map(|_| BTreeSet::new()).collect();
        free[capacity_log2 as usize].insert(0);
        BuddyAllocator {
            capacity_log2,
            free,
            allocated: IdMap::default(),
            stats: BuddyStats::default(),
        }
    }

    /// Total capacity in words.
    #[must_use]
    pub(crate) fn capacity(&self) -> Words {
        1u64 << self.capacity_log2
    }

    /// Words currently free.
    #[must_use]
    pub fn free_words(&self) -> Words {
        self.free
            .iter()
            .enumerate()
            .map(|(k, s)| (s.len() as u64) << k)
            .sum()
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> &BuddyStats {
        &self.stats
    }

    fn order_for(size: Words) -> u32 {
        size.next_power_of_two().trailing_zeros()
    }

    /// Allocates `size` words under `id`, rounded up to a power of two.
    ///
    /// # Errors
    ///
    /// * [`AllocError::ZeroSize`] / [`AllocError::AlreadyAllocated`] on
    ///   bad requests;
    /// * [`AllocError::RequestTooLarge`] if the rounded size exceeds
    ///   capacity;
    /// * [`AllocError::OutOfStorage`] if no block of sufficient order is
    ///   free.
    pub fn alloc(&mut self, id: u64, size: Words) -> Result<PhysAddr, AllocError> {
        if size == 0 {
            return Err(AllocError::ZeroSize);
        }
        if self.allocated.contains_key(&id) {
            return Err(AllocError::AlreadyAllocated);
        }
        let order = Self::order_for(size);
        if order > self.capacity_log2 {
            return Err(AllocError::RequestTooLarge {
                requested: size,
                max: self.capacity(),
            });
        }
        // Find the smallest free order >= requested.
        let Some(found) = (order..=self.capacity_log2).find(|&k| !self.free[k as usize].is_empty())
        else {
            self.stats.failures += 1;
            let largest = (0..=self.capacity_log2)
                .rev()
                .find(|&k| !self.free[k as usize].is_empty())
                .map_or(0, |k| 1u64 << k);
            return Err(AllocError::OutOfStorage {
                requested: size,
                largest_free: largest,
            });
        };
        // Invariant: `found` was selected as a class with a free block.
        #[allow(clippy::expect_used)]
        let addr = *self.free[found as usize].iter().next().expect("non-empty");
        self.free[found as usize].remove(&addr);
        // Split down to the requested order, freeing the upper halves.
        let mut k = found;
        while k > order {
            k -= 1;
            self.free[k as usize].insert(addr + (1u64 << k));
            self.stats.splits += 1;
        }
        self.allocated.insert(id, (addr, order, size));
        self.stats.allocs += 1;
        self.stats.internal_waste += (1u64 << order) - size;
        Ok(PhysAddr(addr))
    }

    /// Frees `id`, merging buddies as far as possible.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::UnknownUnit`] if `id` is not live.
    pub fn free(&mut self, id: u64) -> Result<(), AllocError> {
        let (mut addr, mut order, _) = self.allocated.remove(&id).ok_or(AllocError::UnknownUnit)?;
        self.stats.frees += 1;
        while order < self.capacity_log2 {
            let buddy = addr ^ (1u64 << order);
            if self.free[order as usize].remove(&buddy) {
                addr = addr.min(buddy);
                order += 1;
                self.stats.merges += 1;
            } else {
                break;
            }
        }
        self.free[order as usize].insert(addr);
        Ok(())
    }

    /// Verifies internal invariants.
    ///
    /// # Panics
    ///
    /// Panics if blocks overlap, are misaligned, or words leak.
    pub fn check_invariants(&self) {
        let mut regions: Vec<(u64, u64)> = Vec::new();
        for (k, set) in self.free.iter().enumerate() {
            for &addr in set {
                let size = 1u64 << k;
                assert_eq!(addr % size, 0, "misaligned free block");
                regions.push((addr, addr + size));
            }
        }
        for &(addr, order, _) in self.allocated.values() {
            let size = 1u64 << order;
            assert_eq!(addr % size, 0, "misaligned allocation");
            regions.push((addr, addr + size));
        }
        regions.sort_unstable();
        for w in regions.windows(2) {
            assert!(w[0].1 <= w[1].0, "regions overlap: {w:?}");
        }
        let total: Words = regions.iter().map(|&(a, b)| b - a).sum();
        assert_eq!(total, self.capacity(), "words leaked");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_rounded_blocks() {
        let mut a = BuddyAllocator::new(10); // 1024 words
        let p = a.alloc(1, 100).unwrap();
        assert_eq!(p, PhysAddr(0));
        assert_eq!(a.free_words(), 1024 - 128);
        assert_eq!(a.stats().internal_waste, 28);
        a.check_invariants();
    }

    #[test]
    fn split_and_merge_round_trip() {
        let mut a = BuddyAllocator::new(6); // 64 words
        a.alloc(1, 16).unwrap();
        a.alloc(2, 16).unwrap();
        a.alloc(3, 32).unwrap();
        assert_eq!(a.free_words(), 0);
        a.free(1).unwrap();
        a.free(2).unwrap();
        a.free(3).unwrap();
        assert_eq!(a.free_words(), 64);
        // Everything must have merged back to one block.
        assert!(a.free[6].contains(&0));
        assert!(a.stats().merges >= 2);
        a.check_invariants();
    }

    #[test]
    fn buddies_merge_only_with_their_buddy() {
        let mut a = BuddyAllocator::new(6);
        a.alloc(1, 16).unwrap(); // [0,16)
        a.alloc(2, 16).unwrap(); // [16,32)
        a.alloc(3, 16).unwrap(); // [32,48)
        a.free(2).unwrap();
        a.free(3).unwrap();
        // [32,48) merges with its free buddy [48,64) into [32,64), but
        // [16,32) — adjacent to [32,48) yet NOT its buddy — stays alone.
        assert_eq!(a.free[4].len(), 1);
        assert!(a.free[4].contains(&16));
        assert!(a.free[5].contains(&32));
        a.check_invariants();
    }

    #[test]
    fn power_of_two_requests_have_no_waste() {
        let mut a = BuddyAllocator::new(8);
        a.alloc(1, 64).unwrap();
        assert_eq!(a.stats().internal_waste, 0);
    }

    #[test]
    fn error_cases() {
        let mut a = BuddyAllocator::new(5); // 32 words
        assert_eq!(a.alloc(1, 0), Err(AllocError::ZeroSize));
        assert!(matches!(
            a.alloc(1, 33),
            Err(AllocError::RequestTooLarge { .. })
        ));
        a.alloc(1, 32).unwrap();
        assert_eq!(a.alloc(1, 1), Err(AllocError::AlreadyAllocated));
        assert!(matches!(
            a.alloc(2, 1),
            Err(AllocError::OutOfStorage { .. })
        ));
        assert_eq!(a.free(9), Err(AllocError::UnknownUnit));
    }

    #[test]
    fn worst_case_internal_waste_approaches_half() {
        let mut a = BuddyAllocator::new(12); // 4096 words
                                             // Requests of 2^k + 1 waste almost half of each block.
        a.alloc(1, 513).unwrap(); // rounds to 1024
        a.alloc(2, 257).unwrap(); // rounds to 512
        let waste = a.stats().internal_waste;
        assert_eq!(waste, (1024 - 513) + (512 - 257));
        let frac = waste as f64 / (1024 + 512) as f64;
        assert!(frac > 0.45, "{frac}");
    }

    #[test]
    fn fragmented_free_space_fails_large_request() {
        let mut a = BuddyAllocator::new(6); // 64
        a.alloc(1, 16).unwrap(); // [0,16)
        a.alloc(2, 16).unwrap(); // [16,32)
        a.alloc(3, 16).unwrap(); // [32,48)
        a.alloc(4, 16).unwrap(); // [48,64)
        a.free(1).unwrap();
        a.free(3).unwrap();
        assert_eq!(a.free_words(), 32);
        assert!(matches!(
            a.alloc(5, 32),
            Err(AllocError::OutOfStorage {
                largest_free: 16,
                ..
            })
        ));
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;

    #[test]
    fn one_word_arena_serves_one_word() {
        let mut a = BuddyAllocator::new(0); // capacity 1
        assert_eq!(a.capacity(), 1);
        a.alloc(1, 1).unwrap();
        assert!(matches!(
            a.alloc(2, 1),
            Err(AllocError::OutOfStorage { .. })
        ));
        a.free(1).unwrap();
        assert_eq!(a.free_words(), 1);
        a.check_invariants();
    }
}
