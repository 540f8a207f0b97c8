//! The two-level mapping scheme of Figure 4.
//!
//! "Name contiguity within segments is provided by a mapping mechanism
//! using two levels of indirect addressing, through a segment table and
//! a set of page tables. ... A small associative memory is used to
//! contain the locations of recently accessed pages in order to reduce
//! the overhead caused by the mapping process" — Appendix A.6; the same
//! basic form, with an eight-word associative memory, appears in the
//! 360/67 (A.7).
//!
//! A [`TwoLevelMap`] resolves `(segment, offset)` pairs: the segment
//! table yields the segment's limit (bounds are checked automatically —
//! special hardware facility (ii)) and its page table; the page table
//! yields the frame. An [`AssocMemory`] in front short-circuits both
//! table references on a hit.

use dsa_core::clock::Cycles;
use dsa_core::error::AccessFault;
use dsa_core::ids::{FrameNo, Name, PageNo, PhysAddr, SegId, Words};
use dsa_probe::{EventKind, Probe, Stamp};

use crate::associative::{AssocMemory, AssocPolicy};
use crate::cost::{MapCosts, MapStats};
use crate::{AddressMap, Translation};

/// One segment's descriptor in the segment table.
#[derive(Clone, Debug)]
pub(crate) struct SegmentEntry {
    /// The segment's current extent in words (the limit checked on
    /// every access).
    pub limit: Words,
    /// Frame of each page of the segment; `None` = not in working
    /// storage.
    pub page_table: Vec<Option<FrameNo>>,
}

/// Figure 4's segment-table → page-table mapping device.
#[derive(Clone, Debug)]
pub struct TwoLevelMap {
    page_bits: u32,
    max_segments: u32,
    max_segment_extent: Words,
    segments: Vec<Option<SegmentEntry>>,
    tlb: AssocMemory,
    costs: MapCosts,
    stats: MapStats,
}

impl TwoLevelMap {
    /// Creates the map.
    ///
    /// * `max_segments` — size of the segment table;
    /// * `max_segment_extent` — maximum words per segment;
    /// * `page_bits` — page size is `1 << page_bits` words;
    /// * `tlb_entries`, `tlb_policy` — the associative memory (0 entries
    ///   models its absence).
    ///
    /// # Panics
    ///
    /// Panics if `max_segments` is zero or `page_bits` not in `1..=32`.
    #[must_use]
    pub fn new(
        max_segments: u32,
        max_segment_extent: Words,
        page_bits: u32,
        tlb_entries: usize,
        tlb_policy: AssocPolicy,
        costs: MapCosts,
    ) -> TwoLevelMap {
        assert!(max_segments > 0, "need at least one segment");
        assert!((1..=32).contains(&page_bits), "page_bits out of range");
        TwoLevelMap {
            page_bits,
            max_segments,
            max_segment_extent,
            segments: vec![None; max_segments as usize],
            tlb: AssocMemory::new(tlb_entries, tlb_policy),
            costs,
            stats: MapStats::default(),
        }
    }

    /// Page size in words.
    #[must_use]
    pub fn page_size(&self) -> Words {
        1u64 << self.page_bits
    }

    /// Number of pages needed for a segment of `limit` words.
    #[must_use]
    pub fn pages_for(&self, limit: Words) -> u64 {
        limit.div_ceil(self.page_size())
    }

    /// A globally unique page number for `(seg, page index)`, used in
    /// [`AccessFault::MissingPage`] so fault handlers can locate the
    /// page.
    #[must_use]
    pub fn global_page(&self, seg: SegId, index: u64) -> PageNo {
        PageNo((u64::from(seg.0) << 32) | index)
    }

    /// Decodes a global page number back to `(seg, page index)`.
    #[must_use]
    pub fn decode_page(page: PageNo) -> (SegId, u64) {
        (SegId((page.0 >> 32) as u32), page.0 & 0xFFFF_FFFF)
    }

    /// Creates (or re-creates) segment `seg` with extent `limit`; all
    /// its pages start non-resident.
    ///
    /// # Errors
    ///
    /// Returns [`AccessFault::UnknownSegment`] if `seg` exceeds the
    /// segment table, or [`AccessFault::BoundsViolation`] if `limit`
    /// exceeds the maximum segment extent.
    pub fn create_segment(&mut self, seg: SegId, limit: Words) -> Result<(), AccessFault> {
        if seg.0 >= self.max_segments {
            return Err(AccessFault::UnknownSegment { seg });
        }
        if limit > self.max_segment_extent {
            return Err(AccessFault::BoundsViolation {
                seg,
                offset: limit,
                limit: self.max_segment_extent,
            });
        }
        let pages = self.pages_for(limit) as usize;
        self.segments[seg.0 as usize] = Some(SegmentEntry {
            limit,
            page_table: vec![None; pages],
        });
        self.invalidate_segment_tlb(seg);
        Ok(())
    }

    /// Removes segment `seg`.
    pub fn delete_segment(&mut self, seg: SegId) {
        if let Some(slot) = self.segments.get_mut(seg.0 as usize) {
            *slot = None;
        }
        self.invalidate_segment_tlb(seg);
    }

    /// Changes segment `seg`'s extent; existing page mappings within the
    /// new extent are preserved (a grown segment keeps its resident
    /// pages, a shrunk one drops the tail).
    ///
    /// # Errors
    ///
    /// Returns [`AccessFault::UnknownSegment`] if the segment does not
    /// exist, or [`AccessFault::BoundsViolation`] if the new limit
    /// exceeds the maximum extent.
    pub fn resize_segment(&mut self, seg: SegId, limit: Words) -> Result<(), AccessFault> {
        if limit > self.max_segment_extent {
            return Err(AccessFault::BoundsViolation {
                seg,
                offset: limit,
                limit: self.max_segment_extent,
            });
        }
        let pages = self.pages_for(limit) as usize;
        let entry = self
            .segments
            .get_mut(seg.0 as usize)
            .and_then(Option::as_mut)
            .ok_or(AccessFault::UnknownSegment { seg })?;
        entry.limit = limit;
        entry.page_table.resize(pages, None);
        self.invalidate_segment_tlb(seg);
        Ok(())
    }

    /// Declares that page `index` of `seg` now resides in `frame`.
    ///
    /// # Errors
    ///
    /// Returns [`AccessFault::UnknownSegment`] if the segment does not
    /// exist, or [`AccessFault::MissingPage`] if `index` exceeds its
    /// page table.
    pub fn map_page(&mut self, seg: SegId, index: u64, frame: FrameNo) -> Result<(), AccessFault> {
        let global = self.global_page(seg, index);
        let entry = self
            .segments
            .get_mut(seg.0 as usize)
            .and_then(Option::as_mut)
            .ok_or(AccessFault::UnknownSegment { seg })?;
        let slot = entry
            .page_table
            .get_mut(index as usize)
            .ok_or(AccessFault::MissingPage { page: global })?;
        *slot = Some(frame);
        Ok(())
    }

    /// Removes the residence of page `index` of `seg` (and its TLB
    /// entry, which would otherwise translate stale).
    ///
    /// # Errors
    ///
    /// Returns [`AccessFault::UnknownSegment`] or
    /// [`AccessFault::MissingPage`] as for [`TwoLevelMap::map_page`].
    pub fn unmap_page(&mut self, seg: SegId, index: u64) -> Result<(), AccessFault> {
        let global = self.global_page(seg, index);
        let entry = self
            .segments
            .get_mut(seg.0 as usize)
            .and_then(Option::as_mut)
            .ok_or(AccessFault::UnknownSegment { seg })?;
        let slot = entry
            .page_table
            .get_mut(index as usize)
            .ok_or(AccessFault::MissingPage { page: global })?;
        *slot = None;
        self.tlb.invalidate(global.0);
        Ok(())
    }

    /// The segment's current limit, if it exists.
    #[must_use]
    pub fn segment_limit(&self, seg: SegId) -> Option<Words> {
        self.segments
            .get(seg.0 as usize)
            .and_then(Option::as_ref)
            .map(|e| e.limit)
    }

    /// Translates an explicit `(segment, offset)` pair — the native
    /// operation of a segmented name space.
    pub fn translate_pair(&mut self, seg: SegId, offset: Words) -> Translation {
        self.stats.translations += 1;
        let mut cost = Cycles::ZERO;
        // The associative memory is searched first (if present).
        let page_index = offset >> self.page_bits;
        let global = self.global_page(seg, page_index);
        cost += self.costs.assoc_search;
        let tlb_hit = self.tlb.lookup(global.0);
        if let Some(frame) = tlb_hit {
            self.stats.assoc_hits += 1;
            // The limit check still happens (it is part of the hardware
            // path), but costs only a register comparison.
            cost += self.costs.register_op;
            let limit = self.segment_limit(seg).unwrap_or(0);
            if offset >= limit {
                self.stats.faults += 1;
                self.stats.cycles += cost;
                return Translation::fault(
                    AccessFault::BoundsViolation { seg, offset, limit },
                    cost,
                );
            }
            let in_page = offset & (self.page_size() - 1);
            self.stats.cycles += cost;
            return Translation::ok(PhysAddr(frame * self.page_size() + in_page), cost);
        }
        self.stats.assoc_misses += 1;
        // Segment-table reference.
        cost += self.costs.table_ref;
        self.stats.table_refs += 1;
        let Some(entry) = self.segments.get(seg.0 as usize).and_then(Option::as_ref) else {
            self.stats.faults += 1;
            self.stats.cycles += cost;
            return Translation::fault(AccessFault::UnknownSegment { seg }, cost);
        };
        if offset >= entry.limit {
            let limit = entry.limit;
            self.stats.faults += 1;
            self.stats.cycles += cost;
            return Translation::fault(AccessFault::BoundsViolation { seg, offset, limit }, cost);
        }
        // Page-table reference.
        cost += self.costs.table_ref;
        self.stats.table_refs += 1;
        match entry.page_table.get(page_index as usize).copied().flatten() {
            Some(frame) => {
                self.tlb.insert(global.0, frame.0);
                let in_page = offset & (self.page_size() - 1);
                self.stats.cycles += cost;
                Translation::ok(PhysAddr(frame.0 * self.page_size() + in_page), cost)
            }
            None => {
                self.stats.faults += 1;
                self.stats.cycles += cost;
                Translation::fault(AccessFault::MissingPage { page: global }, cost)
            }
        }
    }

    /// [`TwoLevelMap::translate_pair`] with event emission: one
    /// `MapLookup` per lookup, `hit` iff the pair resolved to an
    /// address (bounds violations, unknown segments and missing pages
    /// are misses — the traps the mapping hardware exists to spring).
    pub fn translate_pair_probed<P: Probe + ?Sized>(
        &mut self,
        seg: SegId,
        offset: Words,
        at: Stamp,
        probe: &mut P,
    ) -> Translation {
        let t = self.translate_pair(seg, offset);
        probe.emit(
            EventKind::MapLookup {
                hit: t.outcome.is_ok(),
            },
            at,
        );
        t
    }

    /// Hit ratio of the associative memory so far.
    #[must_use]
    pub fn tlb_hit_ratio(&self) -> f64 {
        self.stats.assoc_hit_ratio()
    }

    /// Every resident page of every segment, with its frame.
    pub fn mappings(&self) -> impl Iterator<Item = (PageNo, FrameNo)> + '_ {
        (0u32..).zip(&self.segments).flat_map(move |(seg, entry)| {
            let table = entry.as_ref().map_or(&[][..], |e| &e.page_table[..]);
            (0u64..).zip(table).filter_map(move |(index, frame)| {
                frame.map(|frame| (self.global_page(SegId(seg), index), frame))
            })
        })
    }

    /// Checks the associative memory in front of the tables
    /// ([`AssocMemory::check_invariants`]).
    ///
    /// # Panics
    ///
    /// Panics if its keys, index and age list disagree.
    pub fn check_invariants(&self) {
        self.tlb.check_invariants();
    }

    fn invalidate_segment_tlb(&mut self, seg: SegId) {
        // Global page keys of this segment share the high 32 bits.
        let prefix = u64::from(seg.0) << 32;
        self.tlb
            .invalidate_where(|k| k & 0xFFFF_FFFF_0000_0000 == prefix);
    }
}

impl AddressMap for TwoLevelMap {
    /// Translates a packed name whose most significant bits (above the
    /// per-segment extent) carry the segment number — the 360/67 and
    /// MULTICS convention of placing "a sequence of bits at the most
    /// significant end of the address representation" for the segment.
    fn translate(&mut self, name: Name) -> Translation {
        let offset_bits = self
            .max_segment_extent
            .next_power_of_two()
            .trailing_zeros()
            .max(1) as u64;
        let seg = SegId((name.value() >> offset_bits) as u32);
        let offset = name.value() & ((1u64 << offset_bits) - 1);
        self.translate_pair(seg, offset)
    }

    fn stats(&self) -> &MapStats {
        &self.stats
    }

    fn label(&self) -> &'static str {
        "two-level (seg+page)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The frame holding page `index` of `seg`, if resident.
    fn frame_of(m: &TwoLevelMap, seg: SegId, index: u64) -> Option<FrameNo> {
        let entry = m.segments.get(seg.0 as usize)?.as_ref()?;
        entry.page_table.get(index as usize).copied().flatten()
    }

    fn map(tlb: usize) -> TwoLevelMap {
        // 8 segments, 256-word max extent, 16-word pages.
        TwoLevelMap::new(
            8,
            256,
            4,
            tlb,
            AssocPolicy::Lru,
            MapCosts::for_core_cycle(Cycles::from_micros(1)),
        )
    }

    #[test]
    fn create_map_translate() {
        let mut m = map(4);
        m.create_segment(SegId(2), 100).unwrap();
        m.map_page(SegId(2), 0, FrameNo(5)).unwrap();
        let t = m.translate_pair(SegId(2), 7);
        assert_eq!(t.unwrap_addr(), PhysAddr(5 * 16 + 7));
    }

    #[test]
    fn unknown_segment_faults() {
        let mut m = map(4);
        let t = m.translate_pair(SegId(3), 0);
        assert!(matches!(
            t.outcome,
            Err(AccessFault::UnknownSegment { seg: SegId(3) })
        ));
    }

    #[test]
    fn bounds_are_checked_automatically() {
        let mut m = map(4);
        m.create_segment(SegId(0), 50).unwrap();
        m.map_page(SegId(0), 3, FrameNo(1)).unwrap();
        let t = m.translate_pair(SegId(0), 50);
        assert!(matches!(
            t.outcome,
            Err(AccessFault::BoundsViolation {
                offset: 50,
                limit: 50,
                ..
            })
        ));
    }

    #[test]
    fn missing_page_faults_with_global_number() {
        let mut m = map(4);
        m.create_segment(SegId(1), 64).unwrap();
        let t = m.translate_pair(SegId(1), 20); // page 1 not mapped
        match t.outcome {
            Err(AccessFault::MissingPage { page }) => {
                assert_eq!(TwoLevelMap::decode_page(page), (SegId(1), 1));
            }
            other => panic!("expected missing page, got {other:?}"),
        }
    }

    #[test]
    fn tlb_hit_skips_table_refs() {
        let mut m = map(4);
        m.create_segment(SegId(0), 64).unwrap();
        m.map_page(SegId(0), 0, FrameNo(9)).unwrap();
        let miss = m.translate_pair(SegId(0), 1);
        let hit = m.translate_pair(SegId(0), 2);
        assert!(
            hit.cost < miss.cost,
            "hit {:?} !< miss {:?}",
            hit.cost,
            miss.cost
        );
        assert_eq!(m.stats().assoc_hits, 1);
        assert_eq!(m.stats().assoc_misses, 1);
        assert_eq!(m.stats().table_refs, 2);
    }

    #[test]
    fn without_tlb_every_ref_walks_tables() {
        let mut m = map(0);
        m.create_segment(SegId(0), 64).unwrap();
        m.map_page(SegId(0), 0, FrameNo(9)).unwrap();
        m.translate_pair(SegId(0), 1);
        m.translate_pair(SegId(0), 2);
        assert_eq!(m.stats().table_refs, 4);
        assert_eq!(m.stats().assoc_hits, 0);
    }

    #[test]
    fn tlb_hit_still_enforces_bounds() {
        let mut m = map(4);
        m.create_segment(SegId(0), 40).unwrap();
        m.map_page(SegId(0), 2, FrameNo(1)).unwrap();
        assert!(m.translate_pair(SegId(0), 35).outcome.is_ok()); // loads TLB for page 2
                                                                 // Shrink below 35: page-2 TLB entry is invalidated by resize.
        m.resize_segment(SegId(0), 33).unwrap();
        let t = m.translate_pair(SegId(0), 35);
        assert!(
            matches!(t.outcome, Err(AccessFault::BoundsViolation { .. })),
            "{t:?}"
        );
    }

    #[test]
    fn unmap_invalidates_tlb() {
        let mut m = map(4);
        m.create_segment(SegId(0), 64).unwrap();
        m.map_page(SegId(0), 0, FrameNo(3)).unwrap();
        m.translate_pair(SegId(0), 0); // TLB now holds (s0,p0)->f3
        m.unmap_page(SegId(0), 0).unwrap();
        let t = m.translate_pair(SegId(0), 0);
        assert!(
            matches!(t.outcome, Err(AccessFault::MissingPage { .. })),
            "stale TLB entry used"
        );
    }

    #[test]
    fn delete_segment_invalidates_tlb() {
        let mut m = map(4);
        m.create_segment(SegId(0), 64).unwrap();
        m.map_page(SegId(0), 0, FrameNo(3)).unwrap();
        m.translate_pair(SegId(0), 0);
        m.delete_segment(SegId(0));
        let t = m.translate_pair(SegId(0), 0);
        assert!(
            matches!(t.outcome, Err(AccessFault::UnknownSegment { .. })),
            "{t:?}"
        );
    }

    #[test]
    fn resize_grows_and_shrinks_page_table() {
        let mut m = map(4);
        m.create_segment(SegId(0), 32).unwrap(); // 2 pages
        m.map_page(SegId(0), 1, FrameNo(7)).unwrap();
        m.resize_segment(SegId(0), 64).unwrap(); // 4 pages
        assert_eq!(
            frame_of(&m, SegId(0), 1),
            Some(FrameNo(7)),
            "grow keeps pages"
        );
        assert!(m.map_page(SegId(0), 3, FrameNo(8)).is_ok());
        m.resize_segment(SegId(0), 16).unwrap(); // 1 page
        assert_eq!(frame_of(&m, SegId(0), 1), None, "shrink drops tail");
        assert_eq!(m.segment_limit(SegId(0)), Some(16));
    }

    #[test]
    fn create_rejects_oversize_and_out_of_table() {
        let mut m = map(4);
        assert!(m.create_segment(SegId(0), 257).is_err());
        assert!(m.create_segment(SegId(8), 10).is_err());
        assert!(
            m.resize_segment(SegId(0), 10).is_err(),
            "resize of nonexistent segment"
        );
    }

    #[test]
    fn packed_names_split_on_extent_bits() {
        let mut m = map(4);
        m.create_segment(SegId(1), 256).unwrap();
        m.map_page(SegId(1), 0, FrameNo(0)).unwrap();
        // offset_bits = 8 for a 256-word extent: name = seg<<8 | offset.
        let t = m.translate(Name((1 << 8) | 5));
        assert_eq!(t.unwrap_addr(), PhysAddr(5));
    }

    #[test]
    fn pages_for_rounds_up() {
        let m = map(0);
        assert_eq!(m.pages_for(0), 0);
        assert_eq!(m.pages_for(1), 1);
        assert_eq!(m.pages_for(16), 1);
        assert_eq!(m.pages_for(17), 2);
    }

    #[test]
    fn hit_ratio_reported() {
        let mut m = map(8);
        m.create_segment(SegId(0), 64).unwrap();
        m.map_page(SegId(0), 0, FrameNo(0)).unwrap();
        for _ in 0..10 {
            m.translate_pair(SegId(0), 3);
        }
        assert!((m.tlb_hit_ratio() - 0.9).abs() < 1e-9);
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;

    #[test]
    fn packed_name_with_out_of_table_segment_bits() {
        let mut m = TwoLevelMap::new(
            4,
            256,
            4,
            0,
            AssocPolicy::Lru,
            MapCosts::for_core_cycle(Cycles::from_micros(1)),
        );
        // offset_bits = 8; segment field = 9 exceeds the 4-entry table.
        let t = m.translate(Name((9u64 << 8) | 3));
        assert!(matches!(
            t.outcome,
            Err(AccessFault::UnknownSegment { seg: SegId(9) })
        ));
    }

    #[test]
    fn zero_length_segment_has_no_valid_offset() {
        let mut m = TwoLevelMap::new(4, 256, 4, 0, AssocPolicy::Lru, MapCosts::default());
        m.create_segment(SegId(0), 0)
            .expect("empty segments are declarable");
        assert!(matches!(
            m.translate_pair(SegId(0), 0).outcome,
            Err(AccessFault::BoundsViolation { limit: 0, .. })
        ));
        assert_eq!(m.pages_for(0), 0);
    }
}

#[cfg(test)]
mod probe_tests {
    use super::*;
    use dsa_probe::{CountingProbe, Stamp};

    #[test]
    fn probed_pair_translation_traces_hits_and_misses() {
        let costs = MapCosts::for_core_cycle(Cycles::from_micros(1));
        let mut m = TwoLevelMap::new(4, 64, 4, 8, AssocPolicy::Lru, costs);
        m.create_segment(SegId(0), 64).expect("fits");
        m.map_page(SegId(0), 0, FrameNo(3)).expect("page");
        let mut probe = CountingProbe::new();
        let ok = m.translate_pair_probed(SegId(0), 5, Stamp::vtime(0), &mut probe);
        assert!(ok.outcome.is_ok());
        // Missing page, unknown segment, bounds violation: all misses.
        m.translate_pair_probed(SegId(0), 17, Stamp::vtime(1), &mut probe);
        m.translate_pair_probed(SegId(3), 0, Stamp::vtime(2), &mut probe);
        m.translate_pair_probed(SegId(0), 900, Stamp::vtime(3), &mut probe);
        assert_eq!(probe.map_lookups, 4);
        assert_eq!(probe.map_hits, 1);
        assert_eq!(probe.map_misses, 3);
    }
}
