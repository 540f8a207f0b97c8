//! Address mapping devices.
//!
//! "The information stored in a computer is in general accessed using
//! numerical addresses" — and everything this paper studies lives in the
//! path between a *name* and the *absolute address* it resolves to. This
//! crate implements that path for every mechanism the paper describes:
//!
//! * [`relocation::IdentityMap`] — names *are* absolute addresses (early
//!   machines; the IBM 7094's linear name space);
//! * [`relocation::RelocationLimit`] — the relocation-register /
//!   limit-register pair;
//! * [`block_map::BlockMap`] — Figure 2's "simple mapping scheme": the
//!   most significant bits of the name index a table of block addresses,
//!   giving artificial contiguity (Figure 1);
//! * [`associative::FrameAssociativeMap`] — the ATLAS scheme: one
//!   associative register per page frame performs the mapping directly;
//! * [`two_level::TwoLevelMap`] — Figure 4's segment-table → page-table
//!   scheme (MULTICS, 360/67), with an optional associative memory
//!   ([`associative::AssocMemory`]) holding recently used page locations
//!   to cut the mapping overhead (special hardware facility (vi)).
//!
//! Every device implements [`AddressMap`]: translation yields an
//! absolute address or an [`AccessFault`], *plus* the machine time the
//! translation consumed — the paper's recurring concern that mapping
//! complexity "can possibly cause a significant increase in the time
//! taken to address storage".

pub mod associative;
pub mod block_map;
pub mod cost;
pub mod relocation;
pub mod two_level;

use dsa_core::clock::Cycles;
use dsa_core::error::AccessFault;
use dsa_core::ids::{Name, PhysAddr};
use dsa_probe::{EventKind, Probe, Stamp};

pub use associative::{AssocMemory, AssocPolicy, FrameAssociativeMap};
pub use block_map::BlockMap;
pub use cost::{MapCosts, MapStats};
pub use relocation::RelocationLimit;
pub use two_level::TwoLevelMap;

/// The result of one translation: the outcome and its cost.
#[derive(Clone, Copy, Debug)]
pub struct Translation {
    /// The absolute address, or the fault the hardware trapped.
    pub outcome: Result<PhysAddr, AccessFault>,
    /// Machine time consumed by the addressing mechanism itself
    /// (excluding the storage access the address is for).
    pub cost: Cycles,
}

impl Translation {
    /// Convenience constructor for a successful translation.
    #[must_use]
    pub(crate) fn ok(addr: PhysAddr, cost: Cycles) -> Translation {
        Translation {
            outcome: Ok(addr),
            cost,
        }
    }

    /// Convenience constructor for a trapped fault.
    #[must_use]
    pub(crate) fn fault(f: AccessFault, cost: Cycles) -> Translation {
        Translation {
            outcome: Err(f),
            cost,
        }
    }

    /// The absolute address, panicking on fault (test helper).
    ///
    /// # Panics
    ///
    /// Panics if the translation faulted.
    // Documented panicking test helper; callers wanting the fault use
    // `outcome` directly.
    #[allow(clippy::expect_used)]
    #[must_use]
    pub fn unwrap_addr(self) -> PhysAddr {
        self.outcome.expect("translation faulted")
    }
}

/// A device in the addressing path.
pub trait AddressMap {
    /// Translates `name` to an absolute address, charging the mapping
    /// cost.
    fn translate(&mut self, name: Name) -> Translation;

    /// [`AddressMap::translate`] with event emission: one `MapLookup`
    /// per lookup, `hit` iff the translation resolved to an address
    /// (a missing page or an invalid name is a miss — the deflection
    /// the paper's trapping hardware exists to catch).
    fn translate_probed<P: Probe + ?Sized>(
        &mut self,
        name: Name,
        at: Stamp,
        probe: &mut P,
    ) -> Translation
    where
        Self: Sized,
    {
        let t = self.translate(name);
        probe.emit(
            EventKind::MapLookup {
                hit: t.outcome.is_ok(),
            },
            at,
        );
        t
    }

    /// Cumulative statistics for the device.
    fn stats(&self) -> &MapStats;

    /// A short label for experiment tables.
    fn label(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translation_helpers() {
        let t = Translation::ok(PhysAddr(9), Cycles::from_nanos(100));
        assert_eq!(t.unwrap_addr(), PhysAddr(9));
        let f = Translation::fault(
            AccessFault::MissingPage {
                page: dsa_core::ids::PageNo(1),
            },
            Cycles::ZERO,
        );
        assert!(f.outcome.is_err());
    }

    #[test]
    #[should_panic(expected = "translation faulted")]
    fn unwrap_addr_panics_on_fault() {
        let _ = Translation::fault(
            AccessFault::MissingPage {
                page: dsa_core::ids::PageNo(1),
            },
            Cycles::ZERO,
        )
        .unwrap_addr();
    }
}
