//! A segregated-fit allocator.
//!
//! The paper's placement discussion ends with the factors a designer
//! should weigh: "the frequency of storage allocation requests, the
//! average size of allocation unit, and the number of different
//! allocation units." When requests cluster into a few sizes, keeping a
//! *separate free list per size class* removes the search entirely —
//! the philosophy that later allocators (Knuth's exercise, quick fit,
//! and eventually slab/size-class allocators) built on. It is the
//! logical completion of the two-ends idea: not two populations, but
//! one per class.
//!
//! [`SegregatedAllocator`] rounds each request up to its class and
//! serves it from that class's list, falling back to carving the tail
//! region when the list is empty. Frees push the block back onto its
//! class list — constant time, no coalescing. The price is classic:
//! internal fragmentation from rounding, and free storage trapped in
//! the wrong class ("external" fragmentation across classes), which the
//! E5 harness measures against the search-based policies.

use dsa_core::error::AllocError;
use dsa_core::ids::{IdMap, PhysAddr, Words};

/// Statistics for the segregated allocator.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SegregatedStats {
    /// Successful allocations.
    pub allocs: u64,
    /// Frees.
    pub frees: u64,
    /// Failed allocations.
    pub failures: u64,
    /// Allocations served from a class list (constant-time hits).
    pub list_hits: u64,
    /// Allocations carved from the tail region.
    pub tail_carves: u64,
}

/// Per-size-class free lists over a contiguous arena.
#[derive(Clone, Debug)]
pub struct SegregatedAllocator {
    capacity: Words,
    /// Class sizes, ascending; every request is rounded up to one.
    classes: Vec<Words>,
    /// Free blocks per class (parallel to `classes`), each a stack of
    /// block addresses.
    free: Vec<Vec<u64>>,
    /// First never-used address.
    tail: u64,
    /// Live allocations: id -> (addr, class index, requested size).
    allocated: IdMap<u64, (u64, usize, Words)>,
    stats: SegregatedStats,
}

impl SegregatedAllocator {
    /// Creates an allocator over `capacity` words with the given class
    /// sizes (ascending, deduplicated by the caller).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero, `classes` is empty, or the classes
    /// are not strictly ascending.
    #[must_use]
    pub(crate) fn new(capacity: Words, classes: &[Words]) -> SegregatedAllocator {
        assert!(capacity > 0, "capacity must be positive");
        assert!(!classes.is_empty(), "need at least one class");
        assert!(
            classes.windows(2).all(|w| w[0] < w[1]) && classes[0] > 0,
            "classes must be strictly ascending and positive"
        );
        SegregatedAllocator {
            capacity,
            classes: classes.to_vec(),
            free: vec![Vec::new(); classes.len()],
            tail: 0,
            allocated: IdMap::default(),
            stats: SegregatedStats::default(),
        }
    }

    /// Power-of-two classes from `min` doubling up to at least `max`,
    /// using the shared ladder from [`dsa_core::sizeclass`].
    ///
    /// # Panics
    ///
    /// Panics (via `SegregatedAllocator::new`) on degenerate inputs.
    #[must_use]
    pub fn power_of_two(capacity: Words, min: Words, max: Words) -> SegregatedAllocator {
        let classes = dsa_core::sizeclass::power_of_two_classes(min, max);
        SegregatedAllocator::new(capacity, &classes)
    }

    fn class_of(&self, size: Words) -> Option<usize> {
        self.classes.iter().position(|&c| c >= size)
    }

    /// Total words currently free (class lists plus the untouched tail).
    #[must_use]
    pub fn free_words(&self) -> Words {
        let in_lists: Words = self
            .free
            .iter()
            .zip(&self.classes)
            .map(|(list, &c)| list.len() as Words * c)
            .sum();
        in_lists + (self.capacity - self.tail)
    }

    /// Allocates `size` words under `id`.
    ///
    /// # Errors
    ///
    /// * [`AllocError::ZeroSize`] / [`AllocError::AlreadyAllocated`] on
    ///   bad requests;
    /// * [`AllocError::RequestTooLarge`] if no class fits `size`;
    /// * [`AllocError::OutOfStorage`] if the class list is empty and the
    ///   tail cannot supply a block (storage trapped in other classes is
    ///   *not* reused — the discipline's known weakness).
    pub fn alloc(&mut self, id: u64, size: Words) -> Result<PhysAddr, AllocError> {
        if size == 0 {
            return Err(AllocError::ZeroSize);
        }
        if self.allocated.contains_key(&id) {
            return Err(AllocError::AlreadyAllocated);
        }
        let Some(class) = self.class_of(size) else {
            // Invariant: construction rejects an empty class list.
            #[allow(clippy::expect_used)]
            return Err(AllocError::RequestTooLarge {
                requested: size,
                max: *self.classes.last().expect("non-empty"),
            });
        };
        let class_size = self.classes[class];
        let addr = if let Some(addr) = self.free[class].pop() {
            self.stats.list_hits += 1;
            addr
        } else if self.tail + class_size <= self.capacity {
            let addr = self.tail;
            self.tail += class_size;
            self.stats.tail_carves += 1;
            addr
        } else {
            self.stats.failures += 1;
            return Err(AllocError::OutOfStorage {
                requested: class_size,
                largest_free: self.capacity - self.tail,
            });
        };
        self.allocated.insert(id, (addr, class, size));
        self.stats.allocs += 1;
        Ok(PhysAddr(addr))
    }

    /// Frees `id`, returning its block to its class list.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::UnknownUnit`] if `id` is not live.
    pub fn free(&mut self, id: u64) -> Result<(), AllocError> {
        let (addr, class, _) = self.allocated.remove(&id).ok_or(AllocError::UnknownUnit)?;
        self.free[class].push(addr);
        self.stats.frees += 1;
        Ok(())
    }

    /// Verifies internal invariants (disjoint blocks, accounting).
    ///
    /// # Panics
    ///
    /// Panics if blocks overlap or words leak.
    pub fn check_invariants(&self) {
        let mut regions: Vec<(u64, u64)> = Vec::new();
        for (&id, &(addr, class, _)) in &self.allocated {
            let _ = id;
            regions.push((addr, addr + self.classes[class]));
        }
        for (class, list) in self.free.iter().enumerate() {
            for &addr in list {
                regions.push((addr, addr + self.classes[class]));
            }
        }
        regions.sort_unstable();
        for w in regions.windows(2) {
            assert!(w[0].1 <= w[1].0, "regions overlap: {w:?}");
        }
        let used: Words = regions.iter().map(|&(a, b)| b - a).sum();
        assert_eq!(used, self.tail, "words leaked before the tail");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc() -> SegregatedAllocator {
        SegregatedAllocator::new(1000, &[16, 64, 256])
    }

    #[test]
    fn requests_round_to_classes() {
        let mut a = alloc();
        a.alloc(1, 10).unwrap();
        a.alloc(2, 17).unwrap();
        a.alloc(3, 256).unwrap();
        assert_eq!(a.free_words(), 1000 - (16 + 64 + 256));
        a.check_invariants();
    }

    #[test]
    fn free_and_realloc_is_constant_time_reuse() {
        let mut a = alloc();
        let p1 = a.alloc(1, 60).unwrap();
        a.free(1).unwrap();
        let p2 = a.alloc(2, 50).unwrap();
        assert_eq!(p1, p2, "same class reuses the same block");
        assert_eq!(a.stats.list_hits, 1);
        assert_eq!(a.stats.tail_carves, 1);
    }

    #[test]
    fn storage_trapped_in_the_wrong_class() {
        // Fill with small blocks, free them all, then ask for a large
        // block: the free storage exists but only in the 16-word class.
        let mut a = SegregatedAllocator::new(160, &[16, 128]);
        for i in 0..10 {
            a.alloc(i, 16).unwrap();
        }
        for i in 0..10 {
            a.free(i).unwrap();
        }
        assert_eq!(a.free_words(), 160);
        let err = a.alloc(99, 100).unwrap_err();
        assert!(matches!(err, AllocError::OutOfStorage { .. }));
        a.check_invariants();
    }

    #[test]
    fn too_large_requests_are_rejected() {
        let mut a = alloc();
        assert!(matches!(
            a.alloc(1, 257),
            Err(AllocError::RequestTooLarge { max: 256, .. })
        ));
    }

    #[test]
    fn error_cases() {
        let mut a = alloc();
        assert_eq!(a.alloc(1, 0), Err(AllocError::ZeroSize));
        a.alloc(1, 10).unwrap();
        assert_eq!(a.alloc(1, 10), Err(AllocError::AlreadyAllocated));
        assert_eq!(a.free(9), Err(AllocError::UnknownUnit));
    }

    #[test]
    fn power_of_two_constructor() {
        let a = SegregatedAllocator::power_of_two(4096, 8, 512);
        assert_eq!(a.classes, vec![8, 16, 32, 64, 128, 256, 512]);
    }

    #[test]
    fn accounting_over_churn() {
        let mut a = SegregatedAllocator::power_of_two(4096, 8, 512);
        let mut live = Vec::new();
        for i in 0..200u64 {
            let size = (i * 13) % 300 + 1;
            if a.alloc(i, size).is_ok() {
                live.push(i);
            }
            if i % 3 == 0 && !live.is_empty() {
                let id = live.remove((i as usize * 7) % live.len());
                a.free(id).unwrap();
            }
            a.check_invariants();
        }
        // Free everything: every word is recoverable within its class.
        for id in live {
            a.free(id).unwrap();
        }
        a.check_invariants();
        assert_eq!(a.free_words(), 4096);
    }
}
