//! Identity addressing and the relocation/limit register pair.
//!
//! "The next level in sophistication is obtained in many systems by
//! providing a relocation register, limit register pair. All name
//! representations are checked against the contents of the limit
//! register and then have the contents of the relocation register added
//! to them" — §Storage Addressing.

use dsa_core::error::AccessFault;
use dsa_core::ids::{Name, PhysAddr, Words};

use crate::cost::{MapCosts, MapStats};
use crate::{AddressMap, Translation};

/// Names are used directly as absolute addresses, checked only against
/// the physical extent.
#[derive(Clone, Debug)]
pub struct IdentityMap {
    extent: Words,
    costs: MapCosts,
    stats: MapStats,
}

impl IdentityMap {
    /// Creates an identity map over `extent` words of storage.
    #[must_use]
    pub fn new(extent: Words, costs: MapCosts) -> IdentityMap {
        IdentityMap {
            extent,
            costs,
            stats: MapStats::default(),
        }
    }
}

impl AddressMap for IdentityMap {
    fn translate(&mut self, name: Name) -> Translation {
        self.stats.translations += 1;
        let cost = self.costs.register_op; // the bounds check
        self.stats.cycles += cost;
        if name.value() < self.extent {
            Translation::ok(PhysAddr(name.value()), cost)
        } else {
            self.stats.faults += 1;
            Translation::fault(
                AccessFault::InvalidName {
                    name,
                    extent: self.extent,
                },
                cost,
            )
        }
    }

    fn stats(&self) -> &MapStats {
        &self.stats
    }

    fn label(&self) -> &'static str {
        "identity"
    }
}

/// The relocation-register / limit-register pair: a linear name space of
/// `limit` names starting at an arbitrary base address.
#[derive(Clone, Debug)]
pub struct RelocationLimit {
    base: PhysAddr,
    limit: Words,
    costs: MapCosts,
    stats: MapStats,
}

impl RelocationLimit {
    /// Creates a pair mapping names `0..limit` onto addresses
    /// `base..base+limit`.
    #[must_use]
    pub fn new(base: PhysAddr, limit: Words, costs: MapCosts) -> RelocationLimit {
        RelocationLimit {
            base,
            limit,
            costs,
            stats: MapStats::default(),
        }
    }
}

impl AddressMap for RelocationLimit {
    fn translate(&mut self, name: Name) -> Translation {
        self.stats.translations += 1;
        // Limit check plus relocation add: two register operations.
        let cost = self.costs.register_op * 2;
        self.stats.cycles += cost;
        if name.value() < self.limit {
            Translation::ok(self.base.offset(name.value()), cost)
        } else {
            self.stats.faults += 1;
            Translation::fault(
                AccessFault::InvalidName {
                    name,
                    extent: self.limit,
                },
                cost,
            )
        }
    }

    fn stats(&self) -> &MapStats {
        &self.stats
    }

    fn label(&self) -> &'static str {
        "relocation+limit"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_core::clock::Cycles;

    fn costs() -> MapCosts {
        MapCosts::for_core_cycle(Cycles::from_micros(1))
    }

    #[test]
    fn identity_passes_names_through() {
        let mut m = IdentityMap::new(100, costs());
        assert_eq!(m.translate(Name(42)).unwrap_addr(), PhysAddr(42));
        assert!(m.translate(Name(100)).outcome.is_err());
        assert_eq!(m.stats().translations, 2);
        assert_eq!(m.stats().faults, 1);
    }

    #[test]
    fn relocation_adds_base_after_limit_check() {
        let mut m = RelocationLimit::new(PhysAddr(1000), 50, costs());
        assert_eq!(m.translate(Name(0)).unwrap_addr(), PhysAddr(1000));
        assert_eq!(m.translate(Name(49)).unwrap_addr(), PhysAddr(1049));
        let t = m.translate(Name(50));
        assert!(matches!(
            t.outcome,
            Err(AccessFault::InvalidName { extent: 50, .. })
        ));
    }

    #[test]
    fn costs_are_charged() {
        let mut m = RelocationLimit::new(PhysAddr(0), 10, costs());
        let t = m.translate(Name(1));
        assert_eq!(t.cost, Cycles::from_nanos(200));
        assert_eq!(m.stats().cycles, Cycles::from_nanos(200));
        let mut id = IdentityMap::new(10, costs());
        assert!(id.translate(Name(1)).cost < t.cost);
    }

    #[test]
    fn labels() {
        assert_eq!(IdentityMap::new(1, costs()).label(), "identity");
        assert_eq!(
            RelocationLimit::new(PhysAddr(0), 1, costs()).label(),
            "relocation+limit"
        );
    }
}
