//! The lock-free fixed-size slab: concurrent alloc/free in constant
//! time, in the style of Blelloch & Wei.
//!
//! When the unit of allocation is uniform, the free storage needs no
//! search at all — any free unit is as good as any other, so the free
//! set can be a stack of unit indices and both operations are a single
//! successful compare-and-swap on its head. That is the core of
//! Blelloch & Wei's *Concurrent Fixed-Size Allocation and Free in
//! Constant Time*: no locks, no helping, just a version-tagged head so
//! the classic ABA interleaving (pop observes head `A`, sleeps while
//! others pop `A`, push `B`, push `A` back, then wakes and CASes a
//! stale successor in) can never succeed — the tag has moved on even
//! though the index matches.
//!
//! The head packs `(tag, index+1)` into one [`AtomicU64`]: 32 bits of
//! version tag, 32 bits of index (`0` meaning the stack is empty), so a
//! single CAS covers both. Per-unit `live` flags catch double frees and
//! frees of never-allocated units, turning them into typed
//! [`AllocError::UnknownUnit`] instead of silent free-list corruption.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

use dsa_core::error::AllocError;
use dsa_core::ids::{PhysAddr, Words};

/// Sentinel for "no successor" / "stack empty" in the packed head and
/// the `next` array: indices are stored as `index + 1`, so `0` is free
/// to mean none.
const NONE: u32 = 0;

/// Packs a version tag and an `index + 1` value into the head word.
fn pack(tag: u32, idx1: u32) -> u64 {
    (u64::from(tag) << 32) | u64::from(idx1)
}

/// A successful slab allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlabUnit {
    /// The unit index, `0..units`. Pass it back to [`FixedSlab::free`].
    pub unit: u32,
    /// The unit's storage address: `unit * unit_words`.
    pub addr: PhysAddr,
    /// How many CAS attempts the pop took — the constant-time analogue
    /// of the free-list's search length (1 = no contention).
    pub attempts: u32,
}

/// Cumulative slab counters, snapshotted with relaxed loads.
#[derive(Clone, Copy, Debug, Default)]
pub struct SlabStats {
    /// Successful allocations.
    pub allocs: u64,
    /// Successful frees.
    pub frees: u64,
    /// Allocations refused because every unit was live.
    pub failures: u64,
    /// Frees refused as double frees / unknown units.
    pub bad_frees: u64,
    /// Total CAS attempts across both operations; `attempts - (allocs +
    /// frees)` is the number of contended retries.
    pub cas_attempts: u64,
}

/// A lock-free allocator for `units` uniform blocks of `unit_words`
/// words each.
///
/// All methods take `&self`; the slab is [`Sync`] and meant to be
/// hammered from many threads at once.
///
/// # Examples
///
/// ```
/// use dsa_arena::FixedSlab;
///
/// let slab = FixedSlab::new(4, 64);
/// let a = slab.alloc().unwrap();
/// let b = slab.alloc().unwrap();
/// assert_ne!(a.unit, b.unit);
/// slab.free(a.unit).unwrap();
/// assert_eq!(slab.stats().frees, 1);
/// ```
#[derive(Debug)]
pub struct FixedSlab {
    unit_words: Words,
    units: u32,
    /// `(tag << 32) | (index + 1)`; low half `0` = empty stack.
    head: AtomicU64,
    /// `next[i]` = successor's `index + 1`, `0` = end of stack. Only
    /// meaningful while unit `i` is on the free stack.
    next: Vec<AtomicU32>,
    /// `live[i]` = unit `i` is currently handed out. Guards against
    /// double frees corrupting the stack.
    live: Vec<AtomicBool>,
    allocs: AtomicU64,
    frees: AtomicU64,
    failures: AtomicU64,
    bad_frees: AtomicU64,
    cas_attempts: AtomicU64,
}

impl FixedSlab {
    /// Creates a slab of `units` free blocks, `unit_words` words each.
    ///
    /// # Panics
    ///
    /// Panics if `units` or `unit_words` is zero.
    #[must_use]
    pub fn new(units: u32, unit_words: Words) -> FixedSlab {
        assert!(units > 0, "a slab needs at least one unit");
        assert!(unit_words > 0, "a unit must hold at least one word");
        // Initial free stack: 0 -> 1 -> ... -> units-1, head at 0.
        let next = (0..units)
            .map(|i| AtomicU32::new(if i + 1 < units { i + 2 } else { NONE }))
            .collect();
        let live = (0..units).map(|_| AtomicBool::new(false)).collect();
        FixedSlab {
            unit_words,
            units,
            head: AtomicU64::new(pack(0, 1)),
            next,
            live,
            allocs: AtomicU64::new(0),
            frees: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            bad_frees: AtomicU64::new(0),
            cas_attempts: AtomicU64::new(0),
        }
    }

    /// Words per unit.
    #[must_use]
    pub fn unit_words(&self) -> Words {
        self.unit_words
    }

    /// Units currently handed out.
    #[must_use]
    pub fn live_units(&self) -> u64 {
        let s = self.stats();
        s.allocs - s.frees
    }

    /// Units currently free.
    #[must_use]
    pub(crate) fn free_units(&self) -> u64 {
        u64::from(self.units) - self.live_units()
    }

    /// The storage address of a unit: `unit * unit_words`.
    #[must_use]
    pub(crate) fn addr_of(&self, unit: u32) -> PhysAddr {
        PhysAddr(u64::from(unit) * self.unit_words)
    }

    /// Pops a free unit off the stack.
    ///
    /// Lock-free: a CAS failure means some other thread *succeeded*, so
    /// the system as a whole always makes progress.
    ///
    /// # Errors
    ///
    /// [`AllocError::OutOfStorage`] when every unit is live
    /// (`largest_free` is honest: zero words are free in this slab).
    pub fn alloc(&self) -> Result<SlabUnit, AllocError> {
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            self.cas_attempts.fetch_add(1, Ordering::Relaxed);
            let head = self.head.load(Ordering::Acquire);
            let idx1 = (head & 0xFFFF_FFFF) as u32;
            if idx1 == NONE {
                self.failures.fetch_add(1, Ordering::Relaxed);
                return Err(AllocError::OutOfStorage {
                    requested: self.unit_words,
                    largest_free: 0,
                });
            }
            let idx = idx1 - 1;
            // Benign race: `next[idx]` may be mutated by a concurrent
            // push of the same unit, but then the tag has changed and
            // the CAS below fails, discarding the stale read.
            let succ = self.next[idx as usize].load(Ordering::Relaxed);
            let tag = (head >> 32) as u32;
            let new = pack(tag.wrapping_add(1), succ);
            if self
                .head
                .compare_exchange_weak(head, new, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                self.live[idx as usize].store(true, Ordering::Release);
                self.allocs.fetch_add(1, Ordering::Relaxed);
                return Ok(SlabUnit {
                    unit: idx,
                    addr: self.addr_of(idx),
                    attempts,
                });
            }
        }
    }

    /// Pushes `unit` back onto the free stack.
    ///
    /// # Errors
    ///
    /// [`AllocError::UnknownUnit`] if `unit` is out of range, already
    /// free, or was never handed out — the double-free guard.
    pub fn free(&self, unit: u32) -> Result<(), AllocError> {
        if unit >= self.units {
            self.bad_frees.fetch_add(1, Ordering::Relaxed);
            return Err(AllocError::UnknownUnit);
        }
        // Claim the release: exactly one thread can turn `live` off, so
        // a double free is caught here and never touches the stack.
        if !self.live[unit as usize].swap(false, Ordering::AcqRel) {
            self.bad_frees.fetch_add(1, Ordering::Relaxed);
            return Err(AllocError::UnknownUnit);
        }
        loop {
            self.cas_attempts.fetch_add(1, Ordering::Relaxed);
            let head = self.head.load(Ordering::Acquire);
            let idx1 = (head & 0xFFFF_FFFF) as u32;
            self.next[unit as usize].store(idx1, Ordering::Relaxed);
            let tag = (head >> 32) as u32;
            let new = pack(tag.wrapping_add(1), unit + 1);
            if self
                .head
                .compare_exchange_weak(head, new, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                self.frees.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
        }
    }

    /// Snapshot of the cumulative counters (relaxed loads; exact once
    /// the mutating threads have joined).
    #[must_use]
    pub fn stats(&self) -> SlabStats {
        SlabStats {
            allocs: self.allocs.load(Ordering::Relaxed),
            frees: self.frees.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            bad_frees: self.bad_frees.load(Ordering::Relaxed),
            cas_attempts: self.cas_attempts.load(Ordering::Relaxed),
        }
    }

    /// Verifies free-stack integrity from a quiescent state (no
    /// concurrent operations): every unit is on the free stack exactly
    /// once or live, and the two populations partition the slab.
    ///
    /// # Panics
    ///
    /// Panics if the stack has a cycle, an index out of range, a live
    /// unit on the stack, or the populations don't add up.
    pub fn check_invariants(&self) {
        let mut on_stack = vec![false; self.units as usize];
        let mut idx1 = (self.head.load(Ordering::Acquire) & 0xFFFF_FFFF) as u32;
        let mut count = 0u64;
        while idx1 != NONE {
            let idx = (idx1 - 1) as usize;
            assert!(idx < self.units as usize, "stack index out of range");
            assert!(!on_stack[idx], "unit {idx} is on the free stack twice");
            assert!(
                !self.live[idx].load(Ordering::Acquire),
                "unit {idx} is both live and free"
            );
            on_stack[idx] = true;
            count += 1;
            idx1 = self.next[idx].load(Ordering::Acquire);
        }
        assert_eq!(count, self.free_units(), "free count out of step");
        let live = (0..self.units as usize)
            .filter(|&i| self.live[i].load(Ordering::Acquire))
            .count() as u64;
        assert_eq!(live, self.live_units(), "live count out of step");
        assert_eq!(count + live, u64::from(self.units), "units leaked");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_up_then_frees_back() {
        let slab = FixedSlab::new(3, 10);
        let a = slab.alloc().unwrap();
        let b = slab.alloc().unwrap();
        let c = slab.alloc().unwrap();
        assert_eq!(slab.free_units(), 0);
        let err = slab.alloc().unwrap_err();
        assert_eq!(
            err,
            AllocError::OutOfStorage {
                requested: 10,
                largest_free: 0
            }
        );
        for u in [a, b, c] {
            slab.free(u.unit).unwrap();
        }
        assert_eq!(slab.free_units(), 3);
        slab.check_invariants();
    }

    #[test]
    #[allow(clippy::disallowed_types)] // a test's set of seen addresses
    fn addresses_are_disjoint_unit_multiples() {
        let slab = FixedSlab::new(8, 64);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..8 {
            let u = slab.alloc().unwrap();
            assert_eq!(u.addr.value() % 64, 0);
            assert!(seen.insert(u.addr), "address handed out twice");
        }
    }

    #[test]
    fn double_free_is_caught() {
        let slab = FixedSlab::new(2, 8);
        let u = slab.alloc().unwrap();
        slab.free(u.unit).unwrap();
        assert_eq!(slab.free(u.unit), Err(AllocError::UnknownUnit));
        assert_eq!(slab.free(99), Err(AllocError::UnknownUnit));
        assert_eq!(
            slab.free(1),
            Err(AllocError::UnknownUnit),
            "never allocated"
        );
        assert_eq!(slab.stats().bad_frees, 3);
        slab.check_invariants();
    }

    #[test]
    fn lifo_reuse_from_a_quiescent_stack() {
        let slab = FixedSlab::new(4, 16);
        let a = slab.alloc().unwrap();
        slab.free(a.unit).unwrap();
        let b = slab.alloc().unwrap();
        assert_eq!(a.unit, b.unit, "a freshly freed unit is popped first");
    }

    #[test]
    fn concurrent_churn_hands_no_unit_out_twice() {
        let slab = FixedSlab::new(64, 8);
        let claimed: Vec<AtomicBool> = (0..64).map(|_| AtomicBool::new(false)).collect();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..2_000 {
                        if let Ok(u) = slab.alloc() {
                            // Exclusive hand-out: our claim flag must
                            // have been clear.
                            assert!(
                                !claimed[u.unit as usize].swap(true, Ordering::AcqRel),
                                "unit {} handed to two threads",
                                u.unit
                            );
                            claimed[u.unit as usize].store(false, Ordering::Release);
                            slab.free(u.unit).unwrap();
                        }
                    }
                });
            }
        });
        let s = slab.stats();
        assert_eq!(s.allocs, s.frees);
        assert_eq!(slab.free_units(), 64);
        slab.check_invariants();
    }
}
