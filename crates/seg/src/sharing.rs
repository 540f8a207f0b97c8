//! Segment sharing and protection.
//!
//! Segmentation advantage (ii) of the paper: "Segments form a very
//! convenient unit for purposes of information protection and sharing,
//! between programs." (The deeper treatment the paper defers to is
//! Dennis's *Segmentation and the design of multiprogrammed computer
//! systems* and the Evans–LeClerc access-control work it cites.)
//!
//! [`SharedSegments`] is a registry over a [`SegmentStore`]: programs
//! *publish* segments, *grant* capabilities (read / write / execute
//! subsets) to other programs, and make every access through a
//! capability check. The payoff the paper names is measured directly:
//! one resident copy serves every sharer, so the words saved versus
//! private copies is `(sharers - 1) × size` per segment.
#![allow(clippy::disallowed_types, reason = "E15's tables, off the touch path")]

use std::collections::HashMap;

use dsa_core::error::{AccessFault, CoreError};
use dsa_core::ids::{SegId, Words};

use crate::store::{SegmentStore, TouchReport};

/// The rights a capability carries.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct AccessMode {
    /// May fetch data words.
    pub read: bool,
    /// May store into the segment.
    pub write: bool,
    /// May fetch instructions from the segment.
    pub execute: bool,
}

impl AccessMode {
    /// Full private access.
    pub const RW: AccessMode = AccessMode {
        read: true,
        write: true,
        execute: false,
    };
    /// A pure (shared) procedure: executable, not writable.
    pub const RX: AccessMode = AccessMode {
        read: true,
        write: false,
        execute: true,
    };

    /// True if `self` permits everything `other` permits.
    #[must_use]
    pub(crate) fn covers(self, other: AccessMode) -> bool {
        (!other.read || self.read)
            && (!other.write || self.write)
            && (!other.execute || self.execute)
    }
}

/// The kind of access a program attempts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessType {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Execute,
}

impl AccessType {
    fn label(self) -> &'static str {
        match self {
            AccessType::Read => "read",
            AccessType::Write => "write",
            AccessType::Execute => "execute",
        }
    }

    fn permitted_by(self, mode: AccessMode) -> bool {
        match self {
            AccessType::Read => mode.read,
            AccessType::Write => mode.write,
            AccessType::Execute => mode.execute,
        }
    }
}

/// Sharing statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct SharingStats {
    /// Capability checks performed.
    pub checks: u64,
    /// Accesses refused by protection.
    pub protection_violations: u64,
    /// Words that private copies would have required beyond the shared
    /// residency (updated on grant).
    pub words_saved_by_sharing: Words,
}

/// A capability-checked sharing layer over a segment store.
#[derive(Debug)]
pub struct SharedSegments {
    store: SegmentStore,
    /// Segment -> (owner program, declared size).
    published: HashMap<SegId, (u32, Words)>,
    /// (program, segment) -> granted mode.
    grants: HashMap<(u32, SegId), AccessMode>,
    stats: SharingStats,
}

impl SharedSegments {
    /// Wraps a segment store.
    #[must_use]
    pub fn new(store: SegmentStore) -> SharedSegments {
        SharedSegments {
            store,
            published: HashMap::new(),
            grants: HashMap::new(),
            stats: SharingStats::default(),
        }
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> SharingStats {
        self.stats
    }

    /// The underlying store, for residency queries.
    #[must_use]
    pub fn store(&self) -> &SegmentStore {
        &self.store
    }

    /// Publishes a new segment owned by `owner` with full rights.
    ///
    /// # Errors
    ///
    /// Propagates the store's declaration errors.
    pub fn publish(
        &mut self,
        owner: u32,
        seg: SegId,
        size: Words,
        owner_mode: AccessMode,
    ) -> Result<(), CoreError> {
        self.store.define(seg, size)?;
        self.published.insert(seg, (owner, size));
        self.grants.insert((owner, seg), owner_mode);
        Ok(())
    }

    /// Grants `mode` on `seg` to `to`. Only the owner may grant, and
    /// only rights the owner itself holds.
    ///
    /// # Errors
    ///
    /// * [`AccessFault::UnknownSegment`] if unpublished;
    /// * [`AccessFault::ProtectionViolation`] if `by` is not the owner
    ///   or tries to grant rights it lacks.
    pub fn grant(
        &mut self,
        by: u32,
        to: u32,
        seg: SegId,
        mode: AccessMode,
    ) -> Result<(), CoreError> {
        let &(owner, size) = self
            .published
            .get(&seg)
            .ok_or(AccessFault::UnknownSegment { seg })?;
        if by != owner {
            return Err(AccessFault::ProtectionViolation {
                seg,
                attempted: "grant",
            }
            .into());
        }
        let owner_mode = self.grants[&(owner, seg)];
        if !owner_mode.covers(mode) {
            return Err(AccessFault::ProtectionViolation {
                seg,
                attempted: "grant beyond own rights",
            }
            .into());
        }
        if self.grants.insert((to, seg), mode).is_none() && to != owner {
            // A new sharer: one more private copy avoided.
            self.stats.words_saved_by_sharing += size;
        }
        Ok(())
    }

    /// An access by `program`: the capability is checked, then the
    /// (single, shared) resident copy is touched.
    ///
    /// # Errors
    ///
    /// * [`AccessFault::ProtectionViolation`] if the capability is
    ///   absent or insufficient (counted);
    /// * the store's bounds/fetch errors otherwise.
    pub fn access(
        &mut self,
        program: u32,
        seg: SegId,
        offset: Words,
        kind: AccessType,
    ) -> Result<TouchReport, CoreError> {
        self.stats.checks += 1;
        let mode = self.grants.get(&(program, seg)).copied();
        match mode {
            Some(m) if kind.permitted_by(m) => {
                self.store.touch(seg, offset, kind == AccessType::Write)
            }
            _ => {
                self.stats.protection_violations += 1;
                Err(AccessFault::ProtectionViolation {
                    seg,
                    attempted: kind.label(),
                }
                .into())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RO: AccessMode = AccessMode {
        read: true,
        write: false,
        execute: false,
    };
    use crate::store::{SegReplacement, StoreBackend};
    use dsa_freelist::freelist::{FreeListAllocator, Placement};

    fn shared(capacity: Words) -> SharedSegments {
        SharedSegments::new(SegmentStore::new(
            StoreBackend::FreeList(FreeListAllocator::new(capacity, Placement::BestFit)),
            SegReplacement::Cyclic,
            u64::MAX,
        ))
    }

    #[test]
    fn publish_grant_access() {
        let mut s = shared(2000);
        s.publish(1, SegId(0), 500, AccessMode::RW).unwrap();
        s.grant(1, 2, SegId(0), RO).unwrap();
        // Owner writes, sharer reads.
        assert!(s.access(1, SegId(0), 10, AccessType::Write).is_ok());
        assert!(s.access(2, SegId(0), 10, AccessType::Read).is_ok());
        assert_eq!(s.stats().words_saved_by_sharing, 500);
    }

    #[test]
    fn write_through_ro_capability_is_trapped() {
        let mut s = shared(2000);
        s.publish(1, SegId(0), 500, AccessMode::RW).unwrap();
        s.grant(1, 2, SegId(0), RO).unwrap();
        let err = s.access(2, SegId(0), 10, AccessType::Write).unwrap_err();
        assert!(matches!(
            err,
            CoreError::Access(AccessFault::ProtectionViolation {
                attempted: "write",
                ..
            })
        ));
        assert_eq!(s.stats().protection_violations, 1);
    }

    #[test]
    fn no_capability_means_no_access() {
        let mut s = shared(2000);
        s.publish(1, SegId(0), 500, AccessMode::RW).unwrap();
        assert!(s.access(3, SegId(0), 0, AccessType::Read).is_err());
    }

    #[test]
    fn only_owner_grants_and_only_within_own_rights() {
        let mut s = shared(2000);
        s.publish(1, SegId(0), 500, AccessMode::RX).unwrap();
        assert!(matches!(
            s.grant(2, 3, SegId(0), RO),
            Err(CoreError::Access(AccessFault::ProtectionViolation { .. }))
        ));
        // Owner holds RX, cannot grant write.
        assert!(s.grant(1, 3, SegId(0), AccessMode::RW).is_err());
        assert!(s.grant(1, 3, SegId(0), AccessMode::RX).is_ok());
    }

    #[test]
    fn one_resident_copy_serves_all_sharers() {
        let mut s = shared(2000);
        s.publish(1, SegId(0), 600, AccessMode::RX).unwrap();
        for p in 2..=5 {
            s.grant(1, p, SegId(0), AccessMode::RX).unwrap();
        }
        for p in 1..=5 {
            s.access(p, SegId(0), 7, AccessType::Execute).unwrap();
        }
        assert_eq!(s.store().resident_words(), 600, "one copy, five users");
        assert_eq!(
            s.store().stats().seg_faults,
            1,
            "only the first access fetched"
        );
        assert_eq!(s.stats().words_saved_by_sharing, 4 * 600);
    }

    #[test]
    fn covers_is_a_partial_order() {
        assert!(AccessMode::RW.covers(RO));
        assert!(!RO.covers(AccessMode::RW));
        assert!(AccessMode::RX.covers(RO));
        assert!(!RO.covers(AccessMode::RX));
        let all = AccessMode {
            read: true,
            write: true,
            execute: true,
        };
        for m in [RO, AccessMode::RW, AccessMode::RX] {
            assert!(all.covers(m));
            assert!(m.covers(m));
        }
    }
}
