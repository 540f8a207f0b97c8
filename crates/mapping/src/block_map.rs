//! The single-level block map of Figure 2.
//!
//! "The mapping is usually based on the use of a group of the most
//! significant bits of the name. A set of separate blocks of locations,
//! whose absolute addresses are contiguous, can then be made to
//! correspond to a single set of contiguous names" — §Artificial
//! Contiguity, Figures 1 and 2.
//!
//! A [`BlockMap`] divides the name space into power-of-two blocks; the
//! high bits of a name index a *table of block addresses*, the low bits
//! are the offset within the block. An unmapped entry traps (special
//! hardware facility (v)) — this single device therefore provides both
//! artificial contiguity and the hook demand paging hangs on.

use dsa_core::error::AccessFault;
use dsa_core::ids::{FrameNo, Name, PageNo, PhysAddr, Words};

use crate::cost::{MapCosts, MapStats};
use crate::{AddressMap, Translation};

/// Figure 2's table-of-block-addresses mapping device.
#[derive(Clone, Debug)]
pub struct BlockMap {
    block_bits: u32,
    table: Vec<Option<PhysAddr>>,
    costs: MapCosts,
    stats: MapStats,
}

impl BlockMap {
    /// Creates a map over a name space of `blocks << block_bits` names,
    /// with all entries unmapped.
    ///
    /// # Panics
    ///
    /// Panics if `block_bits` is not in `1..=32` or `blocks` is zero.
    #[must_use]
    pub fn new(blocks: usize, block_bits: u32, costs: MapCosts) -> BlockMap {
        assert!((1..=32).contains(&block_bits), "block_bits out of range");
        assert!(blocks > 0, "need at least one block");
        BlockMap {
            block_bits,
            table: vec![None; blocks],
            costs,
            stats: MapStats::default(),
        }
    }

    /// The block size in words.
    #[must_use]
    pub fn block_size(&self) -> Words {
        1u64 << self.block_bits
    }

    /// The extent of the name space this map provides.
    #[must_use]
    pub(crate) fn name_extent(&self) -> Words {
        self.table.len() as u64 * self.block_size()
    }

    /// Splits a name into `(block index, offset)`.
    #[must_use]
    pub fn split(&self, name: Name) -> (u64, u64) {
        (
            name.value() >> self.block_bits,
            name.value() & (self.block_size() - 1),
        )
    }

    /// Maps block `index` to the physical block starting at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of table range (a configuration error,
    /// not a program fault).
    pub fn map_block(&mut self, index: u64, base: PhysAddr) {
        self.table[index as usize] = Some(base);
    }

    /// Unmaps block `index`; subsequent references trap.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of table range.
    pub fn unmap_block(&mut self, index: u64) {
        self.table[index as usize] = None;
    }

    /// Every mapped block, as a page in the frame its base begins.
    pub fn mappings(&self) -> impl Iterator<Item = (PageNo, FrameNo)> + '_ {
        let block_size = self.block_size();
        (0u64..).zip(&self.table).filter_map(move |(index, base)| {
            base.map(|base| (PageNo(index), FrameNo(base.value() / block_size)))
        })
    }
}

impl AddressMap for BlockMap {
    fn translate(&mut self, name: Name) -> Translation {
        self.stats.translations += 1;
        // One reference to the table of block addresses.
        let cost = self.costs.table_ref;
        self.stats.table_refs += 1;
        self.stats.cycles += cost;
        let (block, offset) = self.split(name);
        match self.table.get(block as usize) {
            Some(Some(base)) => Translation::ok(base.offset(offset), cost),
            Some(None) => {
                self.stats.faults += 1;
                Translation::fault(
                    AccessFault::MissingPage {
                        page: PageNo(block),
                    },
                    cost,
                )
            }
            None => {
                self.stats.faults += 1;
                Translation::fault(
                    AccessFault::InvalidName {
                        name,
                        extent: self.name_extent(),
                    },
                    cost,
                )
            }
        }
    }

    fn stats(&self) -> &MapStats {
        &self.stats
    }

    fn label(&self) -> &'static str {
        "block map"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_core::clock::Cycles;

    fn map() -> BlockMap {
        // 4 blocks of 16 words: names 0..64.
        BlockMap::new(4, 4, MapCosts::for_core_cycle(Cycles::from_micros(1)))
    }

    #[test]
    fn split_uses_high_bits() {
        let m = map();
        assert_eq!(m.split(Name(0)), (0, 0));
        assert_eq!(m.split(Name(15)), (0, 15));
        assert_eq!(m.split(Name(16)), (1, 0));
        assert_eq!(m.split(Name(63)), (3, 15));
        assert_eq!(m.block_size(), 16);
        assert_eq!(m.name_extent(), 64);
    }

    #[test]
    fn scattered_blocks_form_contiguous_names() {
        let mut m = map();
        // Physically scattered, even out of order.
        m.map_block(0, PhysAddr(400));
        m.map_block(1, PhysAddr(112));
        m.map_block(2, PhysAddr(256));
        m.map_block(3, PhysAddr(0));
        // Names 15 and 16 are contiguous, though addresses are not.
        let a15 = m.translate(Name(15)).unwrap_addr();
        let a16 = m.translate(Name(16)).unwrap_addr();
        assert_eq!(a15, PhysAddr(415));
        assert_eq!(a16, PhysAddr(112));
        assert_eq!(m.translate(Name(63)).unwrap_addr(), PhysAddr(15));
    }

    #[test]
    fn unmapped_block_traps_missing_page() {
        let mut m = map();
        m.map_block(0, PhysAddr(0));
        let t = m.translate(Name(20));
        assert!(matches!(
            t.outcome,
            Err(AccessFault::MissingPage { page: PageNo(1) })
        ));
        assert_eq!(m.stats().faults, 1);
    }

    #[test]
    fn out_of_extent_name_is_invalid() {
        let mut m = map();
        let t = m.translate(Name(64));
        assert!(matches!(
            t.outcome,
            Err(AccessFault::InvalidName { extent: 64, .. })
        ));
    }

    #[test]
    fn remap_moves_the_block_invisibly() {
        let mut m = map();
        m.map_block(2, PhysAddr(100));
        assert_eq!(m.translate(Name(33)).unwrap_addr(), PhysAddr(101));
        m.map_block(2, PhysAddr(500)); // page moved to a different frame
        assert_eq!(m.translate(Name(33)).unwrap_addr(), PhysAddr(501));
    }

    #[test]
    fn unmap_clears_one_block() {
        let mut m = map();
        m.map_block(0, PhysAddr(0));
        m.map_block(1, PhysAddr(16));
        m.unmap_block(0);
        assert!(m.translate(Name(0)).outcome.is_err());
        assert_eq!(m.translate(Name(16)).unwrap_addr(), PhysAddr(16));
    }

    #[test]
    fn every_translation_costs_one_table_ref() {
        let mut m = map();
        m.map_block(0, PhysAddr(0));
        for i in 0..10 {
            m.translate(Name(i % 16));
        }
        assert_eq!(m.stats().table_refs, 10);
        assert_eq!(m.stats().cycles, Cycles::from_micros(10));
    }
}
