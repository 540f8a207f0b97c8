//! Property-based tests on the segment store and sharing layer.

use dsa::core::error::{AccessFault, CoreError};
use dsa::core::ids::SegId;
use dsa::freelist::freelist::{FreeListAllocator, Placement};
use dsa::freelist::RiceAllocator;
use dsa::seg::sharing::{AccessMode, AccessType, SharedSegments};
use dsa::seg::store::{SegReplacement, SegmentStore, StoreBackend};
use proptest::prelude::*;

/// Random segment-store operations.
#[derive(Clone, Debug)]
enum Op {
    Define(u32, u64),
    Touch(u32, u64, bool),
    Delete(u32),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u32..12, 1u64..400).prop_map(|(s, z)| Op::Define(s, z)),
            (0u32..12, 0u64..500, any::<bool>()).prop_map(|(s, o, w)| Op::Touch(s, o, w)),
            (0u32..12).prop_map(Op::Delete),
        ],
        1..150,
    )
}

fn drive(store: &mut SegmentStore, ops: &[Op]) {
    for op in ops {
        // Every outcome is legal; what must never happen is a panic or
        // an invariant break.
        match *op {
            Op::Define(s, z) => {
                let _ = store.define(SegId(s), z);
            }
            Op::Touch(s, o, w) => {
                let _ = store.touch(SegId(s), o, w);
            }
            Op::Delete(s) => {
                let _ = store.delete(SegId(s));
            }
        }
        store.check_invariants();
    }
}

proptest! {
    /// The segment store's residency bookkeeping survives any operation
    /// stream, on both allocator backends.
    #[test]
    fn store_invariants_hold(ops in arb_ops()) {
        let mut freelist_store = SegmentStore::new(
            StoreBackend::FreeList(FreeListAllocator::new(1500, Placement::BestFit)),
            SegReplacement::Cyclic,
            1024,
        );
        drive(&mut freelist_store, &ops);
        prop_assert!(freelist_store.resident_words() <= 1500);

        let mut rice_store = SegmentStore::new(
            StoreBackend::Rice(RiceAllocator::new(1500)),
            SegReplacement::RiceIterative,
            1024,
        );
        drive(&mut rice_store, &ops);
        prop_assert!(rice_store.resident_words() <= 1500);
    }

    /// Bounds checking is exact: a touch faults with BoundsViolation iff
    /// the offset is at or beyond the segment's current size.
    #[test]
    fn bounds_check_is_exact(size in 1u64..300, offset in 0u64..600) {
        let mut store = SegmentStore::new(
            StoreBackend::FreeList(FreeListAllocator::new(4096, Placement::FirstFit)),
            SegReplacement::Cyclic,
            1024,
        );
        store.define(SegId(0), size).expect("fits");
        let result = store.touch(SegId(0), offset, false);
        if offset < size {
            prop_assert!(result.is_ok());
        } else {
            let is_bounds = matches!(
                result,
                Err(CoreError::Access(AccessFault::BoundsViolation { .. }))
            );
            prop_assert!(is_bounds, "expected bounds violation, got {:?}", result);
        }
    }

    /// In the sharing layer, access succeeds iff a covering capability
    /// exists — never otherwise, regardless of operation order.
    #[test]
    fn capability_semantics_are_exact(
        grants in prop::collection::vec((1u32..5, any::<bool>(), any::<bool>(), any::<bool>()), 0..8),
        probes in prop::collection::vec((0u32..5, 0u8..3), 1..40),
    ) {
        let mut s = SharedSegments::new(SegmentStore::new(
            StoreBackend::FreeList(FreeListAllocator::new(4096, Placement::BestFit)),
            SegReplacement::Cyclic,
            1024,
        ));
        let owner_mode = AccessMode { read: true, write: true, execute: true };
        s.publish(0, SegId(0), 200, owner_mode).expect("fits");
        let mut expected: std::collections::HashMap<u32, AccessMode> =
            std::collections::HashMap::new();
        expected.insert(0, owner_mode);
        for &(to, r, w, x) in &grants {
            let mode = AccessMode { read: r, write: w, execute: x };
            s.grant(0, to, SegId(0), mode).expect("owner holds all rights");
            expected.insert(to, mode);
        }
        for &(prog, kind) in &probes {
            let kind = match kind {
                0 => AccessType::Read,
                1 => AccessType::Write,
                _ => AccessType::Execute,
            };
            let allowed = expected.get(&prog).is_some_and(|m| match kind {
                AccessType::Read => m.read,
                AccessType::Write => m.write,
                AccessType::Execute => m.execute,
            });
            let got = s.access(prog, SegId(0), 10, kind);
            prop_assert_eq!(got.is_ok(), allowed, "prog {} kind {:?}", prog, kind);
        }
    }

    /// Sharing savings accounting: words saved equals (sharers - 1) ×
    /// size, for any grant sequence, repeated grants included.
    #[test]
    fn sharing_savings_track_sharers(grants in prop::collection::vec(1u32..6, 0..30)) {
        let mut s = SharedSegments::new(SegmentStore::new(
            StoreBackend::FreeList(FreeListAllocator::new(4096, Placement::BestFit)),
            SegReplacement::Cyclic,
            1024,
        ));
        s.publish(0, SegId(0), 150, AccessMode::RX).expect("fits");
        let mut holders: std::collections::HashSet<u32> = std::collections::HashSet::new();
        for &prog in &grants {
            s.grant(0, prog, SegId(0), AccessMode::RX).expect("owner grants");
            holders.insert(prog);
            prop_assert_eq!(
                s.stats().words_saved_by_sharing,
                holders.len() as u64 * 150
            );
        }
    }
}
