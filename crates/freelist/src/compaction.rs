//! Storage compaction.
//!
//! §Uniformity of Unit of Storage Allocation offers "two main
//! alternative courses of action" when variable-unit allocation
//! fragments storage: accept the decreased utilization, or "move
//! information around in storage so as to remove any unused spaces
//! between the sets of contiguous locations". This module implements the
//! second course and prices it, so experiment E7 can draw the trade-off
//! the paper describes ("sophisticated strategies for minimizing both
//! fragmentation and the corrective data movement").
//!
//! [`compact`] slides every live block toward address zero, preserving
//! order — the minimum-data-movement full compaction. The caller
//! receives each move through a callback, to apply it to a
//! `CoreMemory`-like store (see `dsa-storage`) and to charge a
//! packing channel (special hardware facility (iii)); relocation is
//! transparent to programs exactly when no absolute addresses are stored
//! in them, i.e. when access is via a mapping device or base registers
//! (§Storage Addressing).

use dsa_core::ids::{PhysAddr, Words};
use dsa_probe::{EventKind, Probe, Stamp};

use crate::freelist::FreeListAllocator;

/// What a compaction pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Number of blocks that changed address.
    pub blocks_moved: u64,
    /// Total words of information moved.
    pub words_moved: Words,
    /// Largest free hole before the pass.
    pub largest_free_before: Words,
    /// Largest free hole after the pass (all free storage, coalesced).
    pub largest_free_after: Words,
    /// Free holes before the pass.
    pub holes_before: u64,
}

/// Compacts the allocator, reporting each block move to `on_move` as
/// `(id, old address, new address, size)`, in ascending address order
/// (safe for overlapping `memmove`-style slides).
pub fn compact(
    a: &mut FreeListAllocator,
    on_move: impl FnMut(u64, PhysAddr, PhysAddr, Words),
) -> CompactionReport {
    let largest_free_before = a.largest_free();
    let holes_before = a.hole_count() as u64;
    let (blocks_moved, words_moved) = a.pack_down(on_move);
    CompactionReport {
        blocks_moved,
        words_moved,
        largest_free_before,
        largest_free_after: a.largest_free(),
        holes_before,
    }
}

/// [`compact`] with event emission: `CompactionStart` before the pass,
/// `CompactionDone { moved_words }` after, bracketing the packing
/// channel's burst of data movement.
pub fn compact_probed<P: Probe + ?Sized>(
    a: &mut FreeListAllocator,
    on_move: impl FnMut(u64, PhysAddr, PhysAddr, Words),
    at: Stamp,
    probe: &mut P,
) -> CompactionReport {
    probe.emit(EventKind::CompactionStart, at);
    let report = compact(a, on_move);
    probe.emit(
        EventKind::CompactionDone {
            moved_words: report.words_moved,
        },
        at,
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freelist::Placement;

    fn fragmented() -> FreeListAllocator {
        let mut a = FreeListAllocator::new(100, Placement::FirstFit);
        for i in 0..5 {
            a.alloc(i, 20).unwrap();
        }
        a.free(1).unwrap(); // hole [20,40)
        a.free(3).unwrap(); // hole [60,80)
        a
    }

    #[test]
    fn compaction_coalesces_all_free_space() {
        let mut a = fragmented();
        assert_eq!(a.largest_free(), 20);
        let report = compact(&mut a, |_, _, _, _| {});
        assert_eq!(report.largest_free_after, 40);
        assert_eq!(a.hole_count(), 1);
        assert_eq!(a.free_words(), 40);
        a.check_invariants();
    }

    #[test]
    fn moves_preserve_order_and_are_minimal() {
        let mut a = fragmented();
        let mut moves = Vec::new();
        let report = compact(&mut a, |id, old, new, size| {
            moves.push((id, old.value(), new.value(), size));
        });
        // Blocks 0 (at 0) stays; 2 (40->20), 4 (80->40) move.
        assert_eq!(report.blocks_moved, 2);
        assert_eq!(report.words_moved, 40);
        assert_eq!(moves, vec![(2, 40, 20, 20), (4, 80, 40, 20)]);
        // Moves are in ascending address order and always downwards.
        for &(_, old, new, _) in &moves {
            assert!(new < old);
        }
        // Lookup reflects new addresses.
        assert_eq!(a.lookup(2).unwrap().0.value(), 20);
        assert_eq!(a.lookup(4).unwrap().0.value(), 40);
    }

    #[test]
    fn compacting_compact_storage_is_free() {
        let mut a = FreeListAllocator::new(100, Placement::FirstFit);
        a.alloc(1, 30).unwrap();
        a.alloc(2, 30).unwrap();
        let report = compact(&mut a, |_, _, _, _| panic!("nothing should move"));
        assert_eq!(report.blocks_moved, 0);
        assert_eq!(report.words_moved, 0);
    }

    #[test]
    fn compaction_unblocks_failed_request() {
        let mut a = fragmented();
        // 40 free words in two 20-word holes: a 30-word request fails.
        assert!(a.alloc(10, 30).is_err());
        compact(&mut a, |_, _, _, _| {});
        assert!(
            a.alloc(10, 30).is_ok(),
            "compaction must cure external fragmentation"
        );
        a.check_invariants();
    }

    #[test]
    fn empty_allocator_compacts_to_nothing() {
        let mut a = FreeListAllocator::new(50, Placement::BestFit);
        let report = compact(&mut a, |_, _, _, _| {});
        assert_eq!(report.blocks_moved, 0);
        assert_eq!(a.largest_free(), 50);
    }

    #[test]
    fn full_allocator_compacts_to_no_hole() {
        let mut a = FreeListAllocator::new(40, Placement::FirstFit);
        a.alloc(1, 40).unwrap();
        compact(&mut a, |_, _, _, _| {});
        assert_eq!(a.hole_count(), 0);
        a.check_invariants();
    }
}
