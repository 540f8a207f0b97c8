//! Rice University codewords.
//!
//! Appendix A.4: "codewords are used to provide a compact
//! characterization of individual program or data segments, and are thus
//! approximately analogous to the descriptors, or PRT elements, used in
//! the B5000 system. Probably the major difference between codewords and
//! descriptors is that codewords contain an index register address. When
//! the codeword is used to access a segment, the contents of the
//! specified index register are automatically added to the segment base
//! address given in the codewords. The equivalent operation on the B5000
//! would have to be programmed explicitly."

use dsa_core::error::AccessFault;
use dsa_core::ids::{PhysAddr, SegId, Words};

/// The machine's index registers (the Rice machine let any storage word
/// serve; eight architectural registers suffice for our simulations).
#[derive(Clone, Debug, Default)]
pub struct IndexRegisters {
    regs: [u64; 8],
}

impl IndexRegisters {
    /// Creates zeroed registers.
    #[must_use]
    pub fn new() -> IndexRegisters {
        IndexRegisters::default()
    }

    /// Sets register `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= 8`.
    pub fn set(&mut self, r: u8, value: u64) {
        self.regs[r as usize] = value;
    }

    /// Reads register `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= 8`.
    #[must_use]
    pub(crate) fn get(&self, r: u8) -> u64 {
        self.regs[r as usize]
    }
}

/// A codeword: descriptor plus automatic index register.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Codeword {
    /// The segment this codeword characterizes.
    pub seg: SegId,
    /// Base address in working storage, meaningful when `present`.
    pub base: PhysAddr,
    /// Extent in words.
    pub limit: Words,
    /// Whether the segment is in working storage.
    pub present: bool,
    /// Index register automatically added on access, if any.
    pub index_register: Option<u8>,
}

impl Codeword {
    /// A codeword for an absent segment.
    #[must_use]
    pub fn absent(seg: SegId, limit: Words) -> Codeword {
        Codeword {
            seg,
            base: PhysAddr(0),
            limit,
            present: false,
            index_register: None,
        }
    }

    /// Attaches an index register.
    #[must_use]
    pub fn with_index(mut self, r: u8) -> Codeword {
        self.index_register = Some(r);
        self
    }

    /// Resolves an access at `offset`, automatically adding the indexed
    /// register's contents first (the Rice hardware's contribution; "the
    /// equivalent operation on the B5000 would have to be programmed
    /// explicitly").
    ///
    /// # Errors
    ///
    /// * [`AccessFault::BoundsViolation`] if the effective offset
    ///   exceeds the limit;
    /// * [`AccessFault::MissingSegment`] if the segment is absent.
    pub fn resolve(&self, offset: Words, regs: &IndexRegisters) -> Result<PhysAddr, AccessFault> {
        let effective = offset + self.index_register.map_or(0, |r| regs.get(r));
        if effective >= self.limit {
            return Err(AccessFault::BoundsViolation {
                seg: self.seg,
                offset: effective,
                limit: self.limit,
            });
        }
        if !self.present {
            return Err(AccessFault::MissingSegment { seg: self.seg });
        }
        Ok(self.base.offset(effective))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_without_index_register() {
        let mut cw = Codeword::absent(SegId(1), 50);
        cw.base = PhysAddr(100);
        cw.present = true;
        let regs = IndexRegisters::new();
        assert_eq!(cw.resolve(7, &regs).unwrap(), PhysAddr(107));
    }

    #[test]
    fn index_register_is_added_automatically() {
        let mut cw = Codeword::absent(SegId(1), 50).with_index(3);
        cw.base = PhysAddr(100);
        cw.present = true;
        let mut regs = IndexRegisters::new();
        regs.set(3, 10);
        assert_eq!(cw.resolve(7, &regs).unwrap(), PhysAddr(117));
        regs.set(3, 0);
        assert_eq!(cw.resolve(7, &regs).unwrap(), PhysAddr(107));
    }

    #[test]
    fn effective_offset_is_bounds_checked() {
        let mut cw = Codeword::absent(SegId(2), 20).with_index(0);
        cw.present = true;
        let mut regs = IndexRegisters::new();
        regs.set(0, 15);
        // 6 + 15 = 21 >= 20.
        assert!(matches!(
            cw.resolve(6, &regs),
            Err(AccessFault::BoundsViolation {
                offset: 21,
                limit: 20,
                ..
            })
        ));
        assert!(cw.resolve(4, &regs).is_ok());
    }

    #[test]
    fn absent_segment_traps_after_bounds() {
        let cw = Codeword::absent(SegId(3), 10);
        let regs = IndexRegisters::new();
        assert!(matches!(
            cw.resolve(5, &regs),
            Err(AccessFault::MissingSegment { seg: SegId(3) })
        ));
        assert!(matches!(
            cw.resolve(10, &regs),
            Err(AccessFault::BoundsViolation { .. })
        ));
    }
}
