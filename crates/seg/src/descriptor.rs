//! B5000 descriptors and the Program Reference Table.
//!
//! Appendix A.3: "Each program in the system has associated with it a
//! Program Reference Table (PRT). ... Every segment of the program is
//! represented by an entry in this table. This entry gives the base
//! address and extent of the segment, and an indication of whether the
//! segment is currently in working storage."

use dsa_core::error::AccessFault;
use dsa_core::ids::{PhysAddr, SegId, Words};

/// One PRT entry: base, extent, presence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Descriptor {
    /// Base address in working storage, meaningful when `present`.
    pub base: PhysAddr,
    /// The segment's extent in words (the limit checked on access).
    pub limit: Words,
    /// Whether the segment is currently in working storage.
    pub present: bool,
}

impl Descriptor {
    /// A descriptor for a segment of `limit` words, not yet in working
    /// storage.
    #[must_use]
    pub(crate) fn absent(limit: Words) -> Descriptor {
        Descriptor {
            base: PhysAddr(0),
            limit,
            present: false,
        }
    }

    /// Marks the segment present at `base`.
    pub fn place(&mut self, base: PhysAddr) {
        self.base = base;
        self.present = true;
    }
}

/// A Program Reference Table: the per-program table of descriptors,
/// addressed by segment id. In the B5000 "the segment name is part of an
/// instruction and cannot be manipulated" — reflected here by `SegId`
/// being an opaque index the program cannot do arithmetic on.
#[derive(Clone, Debug, Default)]
pub struct Prt {
    entries: Vec<Option<Descriptor>>,
}

impl Prt {
    /// Creates an empty PRT.
    #[must_use]
    pub fn new() -> Prt {
        Prt::default()
    }

    /// Declares segment `seg` with extent `limit` (absent until placed).
    pub fn declare(&mut self, seg: SegId, limit: Words) {
        let idx = seg.0 as usize;
        if idx >= self.entries.len() {
            self.entries.resize(idx + 1, None);
        }
        self.entries[idx] = Some(Descriptor::absent(limit));
    }

    /// The descriptor of `seg`, if declared.
    #[must_use]
    pub fn get(&self, seg: SegId) -> Option<&Descriptor> {
        self.entries.get(seg.0 as usize).and_then(Option::as_ref)
    }

    /// Mutable access to the descriptor of `seg`.
    pub fn get_mut(&mut self, seg: SegId) -> Option<&mut Descriptor> {
        self.entries
            .get_mut(seg.0 as usize)
            .and_then(Option::as_mut)
    }

    /// Resolves `(seg, offset)` to an absolute address, enforcing the
    /// limit automatically — segmentation advantage (iii), "the checking
    /// of illegal subscripting can be performed automatically".
    ///
    /// # Errors
    ///
    /// * [`AccessFault::UnknownSegment`] if `seg` is not declared;
    /// * [`AccessFault::BoundsViolation`] if `offset >= limit`;
    /// * [`AccessFault::MissingSegment`] if the segment is declared but
    ///   not in working storage (the trap that triggers a segment
    ///   fetch).
    pub fn resolve(&self, seg: SegId, offset: Words) -> Result<PhysAddr, AccessFault> {
        let d = self.get(seg).ok_or(AccessFault::UnknownSegment { seg })?;
        if offset >= d.limit {
            return Err(AccessFault::BoundsViolation {
                seg,
                offset,
                limit: d.limit,
            });
        }
        if !d.present {
            return Err(AccessFault::MissingSegment { seg });
        }
        Ok(d.base.offset(offset))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_place_resolve() {
        let mut prt = Prt::new();
        prt.declare(SegId(2), 100);
        assert!(matches!(
            prt.resolve(SegId(2), 5),
            Err(AccessFault::MissingSegment { seg: SegId(2) })
        ));
        prt.get_mut(SegId(2)).unwrap().place(PhysAddr(400));
        assert_eq!(prt.resolve(SegId(2), 5).unwrap(), PhysAddr(405));
    }

    #[test]
    fn bounds_checked_before_presence() {
        let mut prt = Prt::new();
        prt.declare(SegId(0), 10);
        // An illegal subscript is intercepted even while absent.
        assert!(matches!(
            prt.resolve(SegId(0), 10),
            Err(AccessFault::BoundsViolation { limit: 10, .. })
        ));
    }

    #[test]
    fn unknown_segments_fault() {
        let prt = Prt::new();
        assert!(matches!(
            prt.resolve(SegId(3), 0),
            Err(AccessFault::UnknownSegment { seg: SegId(3) })
        ));
    }
}
