//! Fundamental identifier and quantity types.
//!
//! The paper is careful to distinguish the *name* used by a program to
//! specify an informational item from the *address* used by the computer
//! system to access the location in which the item is stored. We keep the
//! same distinction at the type level: [`Name`] values flow into mapping
//! devices, [`PhysAddr`] values come out, and the two cannot be confused.
//!
//! All quantities are measured in *words*, the natural unit of a
//! 1960s-era machine; [`Words`] is a plain `u64` alias used for extents
//! and capacities.

use core::fmt;
use core::hash::{BuildHasherDefault, Hasher};
use std::collections::{HashMap, HashSet};

/// A storage extent or capacity, in words.
pub type Words = u64;

/// One widening multiply and a fold per key: the hasher for maps keyed
/// by the id newtypes below. Ids are small dense integers chosen by the
/// simulator itself, so the flood resistance of std's SipHash buys
/// nothing, and a fixed function keeps runs identical from a seed.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        // Folding the 128-bit product brings the key's high bits down
        // into the bucket index and its low bits up into the tag.
        let m = u128::from(self.0 ^ v) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed by an id newtype, hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of an id newtype, hashed by [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// A name in a program's name space.
///
/// For a linear name space this is simply an integer in `0..n`. For a
/// segmented name space the name is the pair *(segment, item within
/// segment)*; such pairs are carried as [`crate::access::Access`] fields
/// rather than packed into a single `Name`, except where a machine (IBM
/// 360/67, MULTICS) explicitly packs the segment number into the most
/// significant bits of a linear name — see `dsa-mapping`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Name(pub u64);

impl Name {
    /// Returns the raw integer value of the name.
    #[must_use]
    pub const fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name({:#x})", self.0)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for Name {
    fn from(v: u64) -> Self {
        Name(v)
    }
}

/// An absolute address of a physical working-storage location.
///
/// Produced only by mapping devices (or used directly on systems without
/// artificial contiguity).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

impl PhysAddr {
    /// Returns the raw address value.
    #[must_use]
    pub const fn value(self) -> u64 {
        self.0
    }

    /// Offsets the address by `delta` words.
    #[must_use]
    pub const fn offset(self, delta: u64) -> PhysAddr {
        PhysAddr(self.0 + delta)
    }
}

impl fmt::Debug for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PhysAddr({:#x})", self.0)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for PhysAddr {
    fn from(v: u64) -> Self {
        PhysAddr(v)
    }
}

/// A page number within a name space (a "page" is the set of items that
/// fit within a page frame).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct PageNo(pub u64);

impl fmt::Display for PageNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u64> for PageNo {
    fn from(v: u64) -> Self {
        PageNo(v)
    }
}

/// A page-frame number within physical working storage.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct FrameNo(pub u64);

impl FrameNo {
    /// Returns the frame number as a `usize` index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FrameNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

impl From<u64> for FrameNo {
    fn from(v: u64) -> Self {
        FrameNo(v)
    }
}

/// An internal segment identifier.
///
/// Machines with a *linearly* segmented name space expose segment numbers
/// to programs directly; machines with a *symbolically* segmented name
/// space hide them behind a dictionary (see `dsa-seg::names`). Either way
/// the allocator works in terms of `SegId`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SegId(pub u32);

impl fmt::Display for SegId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl From<u32> for SegId {
    fn from(v: u32) -> Self {
        SegId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phys_addr_offset() {
        let a = PhysAddr(40);
        assert_eq!(a.offset(2), PhysAddr(42));
    }

    #[test]
    fn names_and_addresses_are_distinct_types() {
        // A compile-time property, but we at least check the display
        // forms differ so logs cannot be misread.
        assert_eq!(Name(16).to_string(), "0x10");
        assert_eq!(PageNo(16).to_string(), "p16");
        assert_eq!(FrameNo(16).to_string(), "f16");
    }

    #[test]
    fn conversions_from_raw() {
        assert_eq!(Name::from(7).value(), 7);
        assert_eq!(PhysAddr::from(7).value(), 7);
        assert_eq!(FrameNo::from(3).index(), 3);
        assert_eq!(SegId::from(3), SegId(3));
    }

    #[test]
    fn id_maps_behave_as_maps_on_dense_and_strided_keys() {
        // Dense ids, and ids that differ only in their high bits (the
        // case a bare multiply would send to one bucket chain).
        for stride in [1u64, 1 << 20, 1 << 40] {
            let mut m: IdMap<PageNo, FrameNo> = IdMap::default();
            for i in 0..2000 {
                assert_eq!(m.insert(PageNo(i * stride), FrameNo(i)), None);
            }
            assert_eq!(m.len(), 2000);
            for i in 0..2000 {
                assert_eq!(m.get(&PageNo(i * stride)), Some(&FrameNo(i)));
            }
            assert_eq!(m.remove(&PageNo(7 * stride)), Some(FrameNo(7)));
            assert_eq!(m.get(&PageNo(7 * stride)), None);
        }
        let mut by_seg: IdMap<SegId, u32> = IdMap::default();
        by_seg.insert(SegId(3), 30);
        assert_eq!(by_seg.get(&SegId(3)), Some(&30));
    }

    #[test]
    fn id_hasher_spreads_dense_and_strided_keys() {
        use core::hash::Hash;
        let hash = |p: PageNo| {
            let mut h = IdHasher::default();
            p.hash(&mut h);
            h.finish()
        };
        // hashbrown indexes buckets by the low bits and tags entries by
        // the top seven: both must vary whichever bits the keys vary in.
        for stride in [1u64, 1 << 20, 1 << 40] {
            let (mut low, mut top) = ([false; 128], [false; 128]);
            for i in 0..1024 {
                let h = hash(PageNo(i * stride));
                low[(h & 0x7f) as usize] = true;
                top[(h >> 57) as usize] = true;
            }
            for seen in [low, top] {
                let hit = seen.iter().filter(|&&s| s).count();
                assert!(hit > 100, "stride {stride}: {hit} of 128 values");
            }
        }
    }

    #[test]
    fn ordering_follows_raw_values() {
        assert!(Name(1) < Name(2));
        assert!(PageNo(1) < PageNo(2));
        assert!(FrameNo(0) < FrameNo(1));
    }
}
