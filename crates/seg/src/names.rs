//! Segment-name allocation: symbolic versus linear dictionaries.
//!
//! §Name Space draws a subtle but consequential distinction: in a
//! *symbolically* segmented name space "the segments are in no sense
//! ordered ... This lack of ordering means that there is no name
//! contiguity to cause the sort of problems that are present in the task
//! of allocating and reallocating addresses. Thus one does not need to
//! search a dictionary for a group of available contiguous segment
//! names, and more importantly, one does not have to reallocate names
//! when the dictionary has become fragmented ... A symbolically
//! segmented name space consequently involves far less bookkeeping than
//! a linearly segmented name space."
//!
//! Experiment E10 makes the claim measurable: [`SymbolicDict`] and
//! [`LinearSegDict`] both serve attach/detach streams of programs
//! needing blocks of segment names; the linear dictionary must find
//! *contiguous* number ranges (each program's segments are numbered
//! consecutively, as when segment numbers occupy fixed high-order
//! address bits) and must renumber live programs when its number space
//! fragments.
#![allow(clippy::disallowed_types, reason = "E10's models, off the touch path")]

use std::collections::{BTreeMap, HashMap};

use dsa_core::ids::SegId;

/// Bookkeeping counters common to both dictionary kinds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameStats {
    /// Dictionary operations performed (searches, insertions,
    /// removals, renumberings — each touched entry counts one).
    pub bookkeeping_ops: u64,
    /// Segment names *reallocated* (renumbered) because the dictionary
    /// fragmented; always zero for the symbolic dictionary.
    pub names_reallocated: u64,
    /// Attach requests refused for lack of name space.
    pub failures: u64,
}

/// A symbolically segmented dictionary: unordered names, no contiguity.
#[derive(Clone, Debug, Default)]
pub struct SymbolicDict {
    capacity: u32,
    next_seg: u32,
    /// Program -> its segments' ids.
    programs: HashMap<u32, Vec<SegId>>,
    live: u32,
    stats: NameStats,
}

impl SymbolicDict {
    /// Creates a dictionary able to hold `capacity` segment names in
    /// total (bounded only by table storage, not by an address field).
    #[must_use]
    pub fn new(capacity: u32) -> SymbolicDict {
        SymbolicDict {
            capacity,
            ..SymbolicDict::default()
        }
    }

    /// Registers `count` segments for `program`. Each insertion is one
    /// bookkeeping operation; no search for contiguity is ever needed.
    ///
    /// Returns the assigned ids, or `None` (counting a failure) if the
    /// dictionary is full.
    pub fn attach(&mut self, program: u32, count: u32) -> Option<Vec<SegId>> {
        if self.live + count > self.capacity {
            self.stats.failures += 1;
            return None;
        }
        let ids: Vec<SegId> = (0..count)
            .map(|_| {
                // Ids are arbitrary and never reused in order; nothing
                // depends on their values.
                let id = SegId(self.next_seg);
                self.next_seg = self.next_seg.wrapping_add(1);
                self.stats.bookkeeping_ops += 1;
                id
            })
            .collect();
        self.live += count;
        self.programs.insert(program, ids.clone());
        Some(ids)
    }

    /// Removes `program`'s segments.
    pub fn detach(&mut self, program: u32) {
        if let Some(ids) = self.programs.remove(&program) {
            self.live -= ids.len() as u32;
            self.stats.bookkeeping_ops += ids.len() as u64;
        }
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> NameStats {
        self.stats
    }
}

/// A linearly segmented dictionary: segment numbers are drawn from
/// `0..capacity` and each program needs a *contiguous* range.
#[derive(Clone, Debug)]
pub struct LinearSegDict {
    capacity: u32,
    /// Free number ranges: start -> length.
    free: BTreeMap<u32, u32>,
    /// Program -> (start, length).
    programs: HashMap<u32, (u32, u32)>,
    stats: NameStats,
}

impl LinearSegDict {
    /// Creates a dictionary over segment numbers `0..capacity`.
    #[must_use]
    pub fn new(capacity: u32) -> LinearSegDict {
        let mut free = BTreeMap::new();
        if capacity > 0 {
            free.insert(0, capacity);
        }
        LinearSegDict {
            capacity,
            free,
            programs: HashMap::new(),
            stats: NameStats::default(),
        }
    }

    fn total_free(&self) -> u32 {
        self.free.values().sum()
    }

    fn first_fit(&mut self, count: u32) -> Option<u32> {
        for (&start, &len) in &self.free {
            self.stats.bookkeeping_ops += 1; // the dictionary search
            if len >= count {
                self.free.remove(&start);
                if len > count {
                    self.free.insert(start + count, len - count);
                }
                return Some(start);
            }
        }
        None
    }

    fn release(&mut self, start: u32, len: u32) {
        // Coalesce with neighbours.
        let mut start = start;
        let mut len = len;
        if let Some((&p, &pl)) = self.free.range(..start).next_back() {
            if p + pl == start {
                self.free.remove(&p);
                start = p;
                len += pl;
            }
        }
        if let Some((&s, &sl)) = self.free.range(start + len..).next() {
            if start + len == s {
                self.free.remove(&s);
                len += sl;
            }
        }
        self.free.insert(start, len);
    }

    /// Assigns a contiguous range of `count` segment numbers to
    /// `program`.
    ///
    /// If no contiguous range exists but enough numbers are free in
    /// total, the dictionary is *renumbered*: every live program's range
    /// is slid down (each moved name counts as a reallocation — on a
    /// real machine every stored reference to those segment numbers
    /// would have to be found and updated). Returns the range start, or
    /// `None` (a failure) if the numbers simply do not exist.
    pub fn attach(&mut self, program: u32, count: u32) -> Option<u32> {
        if let Some(start) = self.first_fit(count) {
            // Entering the names costs the same as in the symbolic
            // dictionary; the search probes above are the extra price.
            self.stats.bookkeeping_ops += u64::from(count);
            self.programs.insert(program, (start, count));
            return Some(start);
        }
        if self.total_free() < count {
            self.stats.failures += 1;
            return None;
        }
        // Fragmented: renumber (compact) the dictionary.
        self.renumber();
        // Invariant: total_free() >= count was checked above, and
        // renumber() makes all free numbers contiguous.
        #[allow(clippy::expect_used)]
        let start = self
            .first_fit(count)
            .expect("compaction freed a contiguous range");
        self.stats.bookkeeping_ops += u64::from(count);
        self.programs.insert(program, (start, count));
        Some(start)
    }

    /// Releases `program`'s range.
    pub fn detach(&mut self, program: u32) {
        if let Some((start, len)) = self.programs.remove(&program) {
            self.stats.bookkeeping_ops += u64::from(len);
            self.release(start, len);
        }
    }

    /// Slides all live ranges down to pack the number space.
    fn renumber(&mut self) {
        let mut by_start: Vec<(u32, u32, u32)> = self
            .programs
            .iter()
            .map(|(&p, &(s, l))| (s, l, p))
            .collect();
        by_start.sort_unstable();
        let mut cursor = 0u32;
        for (start, len, prog) in by_start {
            if start != cursor {
                self.programs.insert(prog, (cursor, len));
                self.stats.names_reallocated += u64::from(len);
                self.stats.bookkeeping_ops += u64::from(len);
            }
            cursor += len;
        }
        self.free.clear();
        if cursor < self.capacity {
            self.free.insert(cursor, self.capacity - cursor);
        }
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> NameStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbolic_never_fails_until_full_and_never_reallocates() {
        let mut d = SymbolicDict::new(10);
        let a = d.attach(1, 4).unwrap();
        assert_eq!(a.len(), 4);
        d.attach(2, 4).unwrap();
        d.detach(1);
        // 6 free names, NOT contiguous in any sense — irrelevant here.
        assert!(d.attach(3, 6).is_some());
        assert_eq!(d.stats().names_reallocated, 0);
        assert_eq!(d.stats().failures, 0);
        assert!(d.attach(4, 1).is_none(), "capacity exhausted");
        assert_eq!(d.stats().failures, 1);
    }

    #[test]
    fn linear_allocates_contiguous_ranges() {
        let mut d = LinearSegDict::new(16);
        assert_eq!(d.attach(1, 4), Some(0));
        assert_eq!(d.attach(2, 4), Some(4));
    }

    #[test]
    fn linear_fragmentation_forces_renumbering() {
        let mut d = LinearSegDict::new(12);
        d.attach(1, 4).unwrap(); // [0,4)
        d.attach(2, 4).unwrap(); // [4,8)
        d.attach(3, 4).unwrap(); // [8,12)
        d.detach(1);
        d.detach(3);
        // 8 numbers free but split 4+4: a 6-range needs renumbering.
        let start = d.attach(4, 6).unwrap();
        assert_eq!(start, 4, "after compaction program 2 sits at 0..4");
        assert_eq!(
            d.stats().names_reallocated,
            4,
            "program 2's four names moved"
        );
    }

    #[test]
    fn linear_fails_when_numbers_truly_exhausted() {
        let mut d = LinearSegDict::new(8);
        d.attach(1, 8).unwrap();
        assert_eq!(d.attach(2, 1), None);
        assert_eq!(d.stats().failures, 1);
    }

    #[test]
    fn linear_detach_coalesces_ranges() {
        let mut d = LinearSegDict::new(12);
        d.attach(1, 4).unwrap();
        d.attach(2, 4).unwrap();
        d.attach(3, 4).unwrap();
        d.detach(2);
        d.detach(1);
        // [0,8) coalesced: an 8-range fits without renumbering.
        let before = d.stats().names_reallocated;
        assert_eq!(d.attach(4, 8), Some(0));
        assert_eq!(d.stats().names_reallocated, before);
    }

    #[test]
    fn symbolic_bookkeeping_is_cheaper_under_churn() {
        let mut sym = SymbolicDict::new(64);
        let mut lin = LinearSegDict::new(64);
        // Churn: attach 8 programs of 8, detach odd ones, attach sizes
        // that need renumbering on the linear side.
        for p in 0..8 {
            sym.attach(p, 8);
            lin.attach(p, 8);
        }
        for p in [1u32, 3, 5, 7] {
            sym.detach(p);
            lin.detach(p);
        }
        for (i, p) in (8..10u32).enumerate() {
            sym.attach(p, 12 + i as u32);
            lin.attach(p, 12 + i as u32);
        }
        assert_eq!(sym.stats().names_reallocated, 0);
        assert!(lin.stats().names_reallocated > 0);
        assert!(
            lin.stats().bookkeeping_ops > sym.stats().bookkeeping_ops,
            "linear {} !> symbolic {}",
            lin.stats().bookkeeping_ops,
            sym.stats().bookkeeping_ops
        );
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;

    #[test]
    fn detach_of_unknown_program_is_a_noop() {
        let mut sym = SymbolicDict::new(8);
        sym.detach(99);
        assert_eq!(sym.stats().bookkeeping_ops, 0);
        let mut lin = LinearSegDict::new(8);
        lin.detach(99);
        assert_eq!(lin.stats().bookkeeping_ops, 0);
    }

    #[test]
    fn zero_capacity_linear_dict_refuses_everything() {
        let mut d = LinearSegDict::new(0);
        assert_eq!(d.attach(1, 1), None);
        assert_eq!(d.stats().failures, 1);
    }

    #[test]
    fn reattach_after_full_detach_reuses_numbers() {
        let mut d = LinearSegDict::new(8);
        assert_eq!(d.attach(1, 8), Some(0));
        d.detach(1);
        assert_eq!(d.attach(2, 8), Some(0), "the whole space coalesced back");
    }
}
