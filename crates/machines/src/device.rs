//! The mapping device as the paged backend sees it.
//!
//! The paper keeps the mapping device apart from the name space in
//! front of it and the allocator behind it; [`MapDevice`] is that seam.
//! It is implemented directly on the three devices of `dsa-mapping`, so
//! a machine is generic over its device and a touch meets no `match` on
//! which one it has. The provided methods describe a flat device
//! (ATLAS's page-address registers, the M44's mapping store): one run of
//! names, whatever segment it is handed. The two-level map overrides
//! them all; it checks the segment's limit, which is why per-object
//! names ([`crate::paged::PerObject`]) exist over it alone.

use dsa_core::error::AccessFault;
use dsa_core::ids::{FrameNo, Name, PageNo, PhysAddr, SegId, Words};
use dsa_mapping::{AddressMap, BlockMap, FrameAssociativeMap, Translation, TwoLevelMap};
use dsa_probe::{EventKind, Probe, Stamp};

/// What the paged backend asks of the hardware between a name and its
/// frame.
pub trait MapDevice: AddressMap + Send {
    /// Whether a bare page number in a program's advice names a page:
    /// true where page numbers are the high bits of the one run of
    /// names, false where a page means nothing without its segment.
    const PAGES_ARE_NAMES: bool = true;

    /// Words per page.
    fn page_size(&self) -> Words;

    /// Readies the device for names `0..extent` laid out by the machine
    /// in one run (machine segment 0), or faults if it cannot hold them.
    fn open(&mut self, _extent: Words) -> Result<(), AccessFault> {
        Ok(())
    }

    /// The paging engine's number for page `index` of machine segment
    /// `seg`.
    fn page(&self, _seg: SegId, index: u64) -> PageNo {
        PageNo(index)
    }

    /// Translates `offset` within machine segment `seg` and emits the
    /// touch's one `MapLookup` where this device's lookup ends: a flat
    /// device knows the outcome only once the search time is spent.
    #[inline]
    fn lookup<P: Probe + ?Sized>(
        &mut self,
        _seg: SegId,
        offset: Words,
        at: Stamp,
        probe: &mut P,
    ) -> Translation {
        let t = self.translate(Name(offset));
        let hit = t.outcome.is_ok();
        probe.emit(
            EventKind::MapLookup { hit },
            Stamp::at(at.cycles + t.cost, at.vtime),
        );
        t
    }

    /// Records that `page` now occupies `frame`, or faults if the
    /// device has no entry for `page`.
    fn load(&mut self, page: PageNo, frame: FrameNo) -> Result<(), AccessFault>;

    /// Forgets that `page` occupied `frame`.
    fn unload(&mut self, page: PageNo, frame: FrameNo);

    /// Every page the device maps, with the frame it maps it to.
    fn mapped(&self) -> Vec<(PageNo, FrameNo)>;
}

impl MapDevice for FrameAssociativeMap {
    fn page_size(&self) -> Words {
        FrameAssociativeMap::page_size(self)
    }

    fn load(&mut self, page: PageNo, frame: FrameNo) -> Result<(), AccessFault> {
        FrameAssociativeMap::load(self, frame, page);
        Ok(())
    }

    fn unload(&mut self, _page: PageNo, frame: FrameNo) {
        FrameAssociativeMap::unload(self, frame);
    }

    fn mapped(&self) -> Vec<(PageNo, FrameNo)> {
        self.mappings().collect()
    }
}

impl MapDevice for BlockMap {
    fn page_size(&self) -> Words {
        self.block_size()
    }

    fn load(&mut self, page: PageNo, frame: FrameNo) -> Result<(), AccessFault> {
        self.map_block(page.0, PhysAddr(frame.0 * self.block_size()));
        Ok(())
    }

    fn unload(&mut self, page: PageNo, _frame: FrameNo) {
        self.unmap_block(page.0);
    }

    fn mapped(&self) -> Vec<(PageNo, FrameNo)> {
        self.mappings().collect()
    }
}

impl MapDevice for TwoLevelMap {
    const PAGES_ARE_NAMES: bool = false;

    fn page_size(&self) -> Words {
        TwoLevelMap::page_size(self)
    }

    fn open(&mut self, extent: Words) -> Result<(), AccessFault> {
        self.create_segment(SegId(0), extent)
    }

    fn page(&self, seg: SegId, index: u64) -> PageNo {
        self.global_page(seg, index)
    }

    /// The segment and page tables are walked with the trap wired in:
    /// the lookup is traced as it starts.
    #[inline]
    fn lookup<P: Probe + ?Sized>(
        &mut self,
        seg: SegId,
        offset: Words,
        at: Stamp,
        probe: &mut P,
    ) -> Translation {
        self.translate_pair_probed(seg, offset, at, probe)
    }

    fn load(&mut self, page: PageNo, frame: FrameNo) -> Result<(), AccessFault> {
        let (seg, index) = TwoLevelMap::decode_page(page);
        self.map_page(seg, index, frame)
    }

    /// The evicted page's segment may have been deleted since.
    fn unload(&mut self, page: PageNo, _frame: FrameNo) {
        let (seg, index) = TwoLevelMap::decode_page(page);
        let _ = self.unmap_page(seg, index);
    }

    fn mapped(&self) -> Vec<(PageNo, FrameNo)> {
        self.mappings().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_core::clock::Cycles;
    use dsa_mapping::{AssocPolicy, MapCosts};
    use dsa_probe::NullProbe;

    /// Page 2 loaded into frame 5 through the trait alone resolves to
    /// frame 5, and misses once unloaded. `FrameAssociativeMap`'s own
    /// `load` / `unload` take the frame first; a forwarding call that
    /// lost its inherent target to the trait method, or swapped the
    /// two, fails here.
    fn load_resolve_unload<D: MapDevice>(mut device: D) {
        let (seg, frame) = (SegId(0), FrameNo(5));
        device.open(1 << 12).unwrap();
        let page = device.page(seg, 2);
        let size = device.page_size();
        let offset = 2 * size + 3;
        device.load(page, frame).unwrap();
        let hit = device.lookup(seg, offset, Stamp::vtime(0), &mut NullProbe);
        assert_eq!(hit.outcome.ok(), Some(PhysAddr(frame.0 * size + 3)));
        device.unload(page, frame);
        let miss = device.lookup(seg, offset, Stamp::vtime(1), &mut NullProbe);
        assert!(miss.outcome.is_err());
    }

    #[test]
    fn each_device_maps_a_page_to_its_frame_through_the_trait() {
        let costs = MapCosts::for_core_cycle(Cycles::from_micros(1));
        load_resolve_unload(FrameAssociativeMap::new(8, 9, 1 << 12, costs));
        load_resolve_unload(BlockMap::new(8, 9, costs));
        load_resolve_unload(TwoLevelMap::new(4, 1 << 12, 9, 8, AssocPolicy::Lru, costs));
    }
}
