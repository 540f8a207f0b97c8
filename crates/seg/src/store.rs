//! A segment-level virtual memory.
//!
//! On the B5000 "the segment is used directly as the unit of allocation.
//! Each segment is fetched when reference is first made to information
//! in the segment" (A.3); the Rice machine works the same way over its
//! inactive-block chain, with "a replacement algorithm, which takes into
//! account whether a copy of a segment exists in backing storage and
//! whether or not a segment has been used since it was last considered
//! for replacement, ... applied iteratively until a block of sufficient
//! size is released" (A.4).
//!
//! [`SegmentStore`] is that engine: segments are declared, fetched on
//! first touch, placed by a variable-unit allocator (free-list with any
//! placement policy, or the Rice chain), evicted by a cyclic or
//! Rice-iterative strategy, and bounds-checked on every access.

use dsa_core::advice::{Advice, AdviceUnit};
use dsa_core::error::{AccessFault, AllocError, CoreError};
use dsa_core::ids::{IdMap, PhysAddr, SegId, Words};
use dsa_freelist::compaction;
use dsa_freelist::freelist::FreeListAllocator;
use dsa_freelist::rice::RiceAllocator;
use dsa_probe::{DegradationStep, EventKind, NullProbe, Probe, Stamp};

/// Which variable-unit allocator places segments.
#[derive(Debug)]
pub enum StoreBackend {
    /// An address-ordered free list with the given placement policy.
    FreeList(FreeListAllocator),
    /// The Rice inactive-block chain.
    Rice(RiceAllocator),
}

impl StoreBackend {
    fn alloc(&mut self, id: u64, size: Words) -> Result<PhysAddr, AllocError> {
        match self {
            StoreBackend::FreeList(a) => a.alloc(id, size),
            StoreBackend::Rice(a) => a.alloc(id, size, id),
        }
    }

    fn free(&mut self, id: u64) -> Result<(), AllocError> {
        match self {
            StoreBackend::FreeList(a) => a.free(id),
            StoreBackend::Rice(a) => a.free(id),
        }
    }

    fn lookup(&self, id: u64) -> Option<(PhysAddr, Words)> {
        match self {
            StoreBackend::FreeList(a) => a.lookup(id),
            StoreBackend::Rice(a) => a.lookup(id),
        }
    }

    /// Largest single allocation the backend could satisfy right now.
    fn largest_free(&self) -> Words {
        match self {
            StoreBackend::FreeList(a) => a.largest_free(),
            StoreBackend::Rice(a) => a.largest_free(),
        }
    }
}

/// Segment replacement strategy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SegReplacement {
    /// Essentially cyclical selection among resident segments — the
    /// strategy the B5000 developers found effective (A.3).
    Cyclic,
    /// The Rice criteria (A.4): prefer segments unused since last
    /// considered; among those, prefer ones with a valid backing copy
    /// (no write-back needed). Use marks are cleared as segments are
    /// considered.
    RiceIterative,
}

/// Per-segment state.
#[derive(Clone, Copy, Debug)]
struct SegState {
    size: Words,
    resident: bool,
    /// Used since last replacement consideration.
    used: bool,
    /// Written since last fetch (backing copy stale).
    dirty: bool,
    /// A copy exists in backing storage at all (false until first
    /// eviction writes one, true after any fetch).
    has_backing_copy: bool,
    pinned: bool,
}

/// Cumulative statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct SegStats {
    /// Accesses attempted (including faulting ones).
    pub accesses: u64,
    /// Segment fetches (fetch-on-first-reference faults).
    pub seg_faults: u64,
    /// Words fetched from backing storage.
    pub fetched_words: u64,
    /// Segments evicted.
    pub evictions: u64,
    /// Words written back on eviction of dirty segments.
    pub writeback_words: u64,
    /// Bounds violations intercepted.
    pub bounds_violations: u64,
    /// Accesses that failed because working storage could not hold the
    /// segment even after iterative replacement.
    pub capacity_failures: u64,
    /// Degradation rungs climbed under storage pressure (coalesce,
    /// compact, evict-victims) when the ladder is enabled. Mirrors the
    /// `DegradationStep` events this store emits, one for one.
    pub degradation_steps: u64,
}

/// What one touch did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TouchReport {
    /// The access faulted and the segment was fetched.
    pub fetched: bool,
    /// Words brought in by this touch (segment size if fetched).
    pub fetched_words: Words,
    /// Segments evicted to make room.
    pub evictions: u32,
    /// Words written back by those evictions.
    pub writeback_words: Words,
    /// The absolute address the access resolved to.
    pub addr: PhysAddr,
}

/// The segment-level virtual memory.
#[derive(Debug)]
pub struct SegmentStore {
    backend: StoreBackend,
    policy: SegReplacement,
    segs: IdMap<SegId, SegState>,
    /// Rotation order for cyclic / iterative consideration.
    rotation: Vec<SegId>,
    hand: usize,
    /// Maximum size a single segment may have (1024 on the B5000).
    max_segment: Words,
    /// Climb the graceful-degradation ladder (coalesce → compact →
    /// evict) before declaring a fetch out of storage.
    degrade: bool,
    stats: SegStats,
}

impl SegmentStore {
    /// Creates a store. `max_segment` bounds individual segments (the
    /// B5000's 1024-word limit; use `u64::MAX` for no limit).
    #[must_use]
    pub fn new(backend: StoreBackend, policy: SegReplacement, max_segment: Words) -> SegmentStore {
        SegmentStore {
            backend,
            policy,
            segs: IdMap::default(),
            rotation: Vec::new(),
            hand: 0,
            max_segment,
            degrade: false,
            stats: SegStats::default(),
        }
    }

    /// Enables the graceful-degradation ladder: when a fetch cannot be
    /// placed outright, the cheapest recovery runs first — coalescing
    /// adjacent free blocks (the Rice chain's deferred combining),
    /// then compacting working storage (free list), and only then
    /// evicting victims. Each rung taken emits a `DegradationStep`
    /// event and counts in [`SegStats::degradation_steps`].
    pub fn enable_degradation(&mut self) {
        self.degrade = true;
    }

    /// Drops every segment pin, returning how many were released. The
    /// shed-load rung of a machine's degradation ladder calls this to
    /// surrender advisory claims when a demand would otherwise fail.
    pub fn unpin_all(&mut self) -> usize {
        let mut n = 0;
        for st in self.segs.values_mut() {
            if st.pinned {
                st.pinned = false;
                n += 1;
            }
        }
        n
    }

    /// The largest segment the store will hold — where a compiler in
    /// front of it must split a larger declaration.
    #[must_use]
    pub fn max_segment(&self) -> Words {
        self.max_segment
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> &SegStats {
        &self.stats
    }

    /// Words of resident segments.
    #[must_use]
    pub fn resident_words(&self) -> Words {
        self.segs
            .values()
            .filter(|s| s.resident)
            .map(|s| s.size)
            .sum()
    }

    /// Declares segment `seg` with extent `size` (a dynamic segment
    /// coming into existence). It is not fetched until touched.
    ///
    /// # Errors
    ///
    /// * [`AllocError::RequestTooLarge`] if `size` exceeds the
    ///   per-segment maximum;
    /// * [`AllocError::AlreadyAllocated`] if `seg` exists;
    /// * [`AllocError::ZeroSize`] for an empty segment.
    pub fn define(&mut self, seg: SegId, size: Words) -> Result<(), CoreError> {
        if size == 0 {
            return Err(AllocError::ZeroSize.into());
        }
        if size > self.max_segment {
            return Err(AllocError::RequestTooLarge {
                requested: size,
                max: self.max_segment,
            }
            .into());
        }
        if self.segs.contains_key(&seg) {
            return Err(AllocError::AlreadyAllocated.into());
        }
        self.segs.insert(
            seg,
            SegState {
                size,
                resident: false,
                used: false,
                dirty: false,
                // A fresh dynamic segment has no meaningful contents to
                // fetch; its "fetch" still occupies storage but moves no
                // words. We model it as having a (zero) backing copy.
                has_backing_copy: true,
                pinned: false,
            },
        );
        Ok(())
    }

    /// Deletes segment `seg` (a dynamic segment ceasing to exist).
    ///
    /// # Errors
    ///
    /// Returns [`AccessFault::UnknownSegment`] if it does not exist.
    // Internal invariant: a resident segment always has a backing
    // allocation; user-visible failures return typed errors above.
    #[allow(clippy::expect_used)]
    pub fn delete(&mut self, seg: SegId) -> Result<(), CoreError> {
        let state = self
            .segs
            .remove(&seg)
            .ok_or(AccessFault::UnknownSegment { seg })?;
        if state.resident {
            self.backend
                .free(u64::from(seg.0))
                .expect("resident segment is allocated");
            self.rotation.retain(|&s| s != seg);
        }
        Ok(())
    }

    /// Picks an eviction victim, or `None` if nothing is evictable.
    // Internal invariant: the rotation lists resident segments only.
    #[allow(clippy::expect_used)]
    fn pick_victim(&mut self) -> Option<SegId> {
        if self.rotation.is_empty() {
            return None;
        }
        let n = self.rotation.len();
        match self.policy {
            SegReplacement::Cyclic => {
                for _ in 0..n {
                    self.hand %= self.rotation.len();
                    let seg = self.rotation[self.hand];
                    self.hand += 1;
                    if !self.segs[&seg].pinned {
                        return Some(seg);
                    }
                }
                None
            }
            SegReplacement::RiceIterative => {
                // Two sweeps: first pass prefers unused+clean, clearing
                // use marks as it considers; a page unused and with a
                // valid backing copy is free to drop.
                let mut best: Option<(u8, SegId)> = None;
                for _ in 0..n {
                    self.hand %= self.rotation.len();
                    let seg = self.rotation[self.hand];
                    self.hand += 1;
                    let st = self.segs.get_mut(&seg).expect("rotation is resident");
                    if st.pinned {
                        continue;
                    }
                    let class = (u8::from(st.used) << 1) | u8::from(st.dirty);
                    st.used = false; // considered: clear the use mark
                    if class == 0 {
                        return Some(seg);
                    }
                    if best.is_none_or(|(c, _)| class < c) {
                        best = Some((class, seg));
                    }
                }
                best.map(|(_, s)| s)
            }
        }
    }

    // Internal invariants: callers pass a victim from `pick_victim`,
    // which only yields resident (hence allocated) segments.
    #[allow(clippy::expect_used)]
    fn evict_probed<P: Probe + ?Sized>(&mut self, seg: SegId, at: Stamp, probe: &mut P) -> Words {
        let st = self.segs.get_mut(&seg).expect("victim exists");
        debug_assert!(st.resident);
        let size = st.size;
        st.resident = false;
        let mut writeback = 0;
        if st.dirty || !st.has_backing_copy {
            writeback = st.size;
            st.has_backing_copy = true;
            st.dirty = false;
        }
        self.backend
            .free(u64::from(seg.0))
            .expect("resident segment is allocated");
        self.rotation.retain(|&s| s != seg);
        self.stats.evictions += 1;
        self.stats.writeback_words += writeback;
        probe.emit(
            EventKind::Evict {
                dirty: writeback > 0,
                words: size,
            },
            at,
        );
        writeback
    }

    // Internal invariant: every caller verifies `seg` is declared.
    #[allow(clippy::expect_used)]
    fn fetch_probed<P: Probe + ?Sized>(
        &mut self,
        seg: SegId,
        at: Stamp,
        probe: &mut P,
    ) -> Result<(u32, Words), CoreError> {
        let size = self.segs[&seg].size;
        let mut evictions = 0u32;
        let mut writeback = 0;
        // Each degradation rung fires at most once per fetch; without
        // the ladder the loop goes straight to eviction, as the B5000
        // and Rice machines did.
        let mut may_coalesce = self.degrade;
        let mut may_compact = self.degrade;
        let mut entered_eviction = false;
        loop {
            // The Rice allocator combines adjacent inactive blocks
            // itself when a placement fails (deferred coalescing); watch
            // its merge counter so that recovery is recorded as the
            // ladder's first rung. (The free list coalesces on every
            // free, so it has no cheaper rung than compaction.)
            let combined_before = match &self.backend {
                StoreBackend::Rice(a) if may_coalesce => a.stats().blocks_combined,
                _ => 0,
            };
            let placed = self.backend.alloc(u64::from(seg.0), size);
            if may_coalesce {
                if let StoreBackend::Rice(a) = &self.backend {
                    if a.stats().blocks_combined > combined_before {
                        may_coalesce = false;
                        self.stats.degradation_steps += 1;
                        probe.emit(
                            EventKind::DegradationStep {
                                step: DegradationStep::Coalesce,
                            },
                            at,
                        );
                    }
                }
            }
            match placed {
                Ok(_addr) => break,
                Err(AllocError::OutOfStorage { .. }) => {
                    if may_compact {
                        may_compact = false;
                        if let StoreBackend::FreeList(a) = &mut self.backend {
                            // Compaction can only help when free words
                            // are split across holes.
                            if a.hole_count() > 1 && a.free_words() >= size {
                                // Segments are looked up on every touch,
                                // so no addresses need forwarding here.
                                compaction::compact_probed(a, |_, _, _, _| {}, at, probe);
                                self.stats.degradation_steps += 1;
                                probe.emit(
                                    EventKind::DegradationStep {
                                        step: DegradationStep::Compact,
                                    },
                                    at,
                                );
                                continue;
                            }
                        }
                    }
                    if self.degrade && !entered_eviction {
                        entered_eviction = true;
                        self.stats.degradation_steps += 1;
                        probe.emit(
                            EventKind::DegradationStep {
                                step: DegradationStep::EvictVictims,
                            },
                            at,
                        );
                    }
                    let Some(victim) = self.pick_victim() else {
                        self.stats.capacity_failures += 1;
                        return Err(AllocError::OutOfStorage {
                            requested: size,
                            // Report what is honestly available *after*
                            // every permitted recovery ran, so callers
                            // (and their users) can size a retry.
                            largest_free: self.backend.largest_free(),
                        }
                        .into());
                    };
                    writeback += self.evict_probed(victim, at, probe);
                    evictions += 1;
                }
                Err(e) => return Err(e.into()),
            }
        }
        let st = self.segs.get_mut(&seg).expect("declared");
        st.resident = true;
        st.used = true;
        st.dirty = false;
        self.rotation.push(seg);
        self.stats.seg_faults += 1;
        self.stats.fetched_words += size;
        Ok((evictions, writeback))
    }

    /// Touches item `offset` of segment `seg`.
    ///
    /// # Errors
    ///
    /// * [`AccessFault::UnknownSegment`] for undeclared segments;
    /// * [`AccessFault::BoundsViolation`] for illegal subscripts
    ///   (intercepted automatically, and counted);
    /// * [`AllocError::OutOfStorage`] if the segment cannot be made
    ///   resident.
    pub fn touch(
        &mut self,
        seg: SegId,
        offset: Words,
        write: bool,
    ) -> Result<TouchReport, CoreError> {
        self.touch_probed(seg, offset, write, Stamp::vtime(0), &mut NullProbe)
    }

    /// [`SegmentStore::touch`] with event emission: a demand fetch emits
    /// `Fault` (before any evictions it forces), and each victim emits
    /// `Evict { dirty, words }` — dirty when the eviction wrote back.
    ///
    /// # Errors
    ///
    /// As [`SegmentStore::touch`].
    // Internal invariants: declaration is checked first, and a
    // successful fetch leaves the segment resident and allocated;
    // user-visible failures return typed errors above.
    #[allow(clippy::expect_used)]
    #[inline]
    pub fn touch_probed<P: Probe + ?Sized>(
        &mut self,
        seg: SegId,
        offset: Words,
        write: bool,
        at: Stamp,
        probe: &mut P,
    ) -> Result<TouchReport, CoreError> {
        self.stats.accesses += 1;
        let st = self
            .segs
            .get_mut(&seg)
            .ok_or(AccessFault::UnknownSegment { seg })?;
        let size = st.size;
        if offset >= size {
            self.stats.bounds_violations += 1;
            return Err(AccessFault::BoundsViolation {
                seg,
                offset,
                limit: size,
            }
            .into());
        }
        let mut report = TouchReport::default();
        if st.resident {
            st.used = true;
            st.dirty |= write;
        } else {
            // `Fault` is recorded only once the fetch succeeds: a touch
            // that dies of capacity failure is an error, not a serviced
            // fault (its victims' `Evict` events still precede it at the
            // same stamp).
            let (evictions, writeback) = self.fetch_probed(seg, at, probe)?;
            probe.emit(EventKind::Fault, at);
            report.fetched = true;
            report.fetched_words = size;
            report.evictions = evictions;
            report.writeback_words = writeback;
            // The fetch left it used and clean.
            self.segs.get_mut(&seg).expect("declared").dirty = write;
        }
        // Asked of the backend on every touch: compaction moves blocks.
        let (base, _) = self
            .backend
            .lookup(u64::from(seg.0))
            .expect("resident segment is allocated");
        report.addr = base.offset(offset);
        Ok(report)
    }

    /// Applies a segment-granular advisory directive (page advice is
    /// ignored here), with event emission: a successful `WillNeed`
    /// prefetch emits `Prefetch { words }` (not `Fault` — the
    /// program did not wait); `Release` evictions emit `Evict`.
    pub fn advise_probed<P: Probe + ?Sized>(&mut self, advice: Advice, at: Stamp, probe: &mut P) {
        let AdviceUnit::Segment(seg) = advice.unit() else {
            return;
        };
        match advice {
            Advice::WillNeed(_) => {
                // Fetch if possible; failure to prefetch is not an error.
                if let Some(&SegState { size, .. }) = self.segs.get(&seg).filter(|s| !s.resident) {
                    if self.fetch_probed(seg, at, probe).is_ok() {
                        probe.emit(EventKind::Prefetch { words: size }, at);
                    }
                }
            }
            Advice::WontNeed(_) => {
                if let Some(st) = self.segs.get_mut(&seg) {
                    st.used = false;
                }
            }
            Advice::Pin(_) => {
                if let Some(st) = self.segs.get_mut(&seg) {
                    st.pinned = true;
                }
            }
            Advice::Unpin(_) => {
                if let Some(st) = self.segs.get_mut(&seg) {
                    st.pinned = false;
                }
            }
            Advice::Release(_) => {
                if let Some(st) = self.segs.get_mut(&seg).filter(|s| s.resident) {
                    st.pinned = false;
                    self.evict_probed(seg, at, probe);
                }
            }
        }
    }

    /// Verifies internal invariants.
    ///
    /// # Panics
    ///
    /// Panics if residency bookkeeping disagrees with the allocator or
    /// the rotation list.
    pub fn check_invariants(&self) {
        for (&seg, st) in &self.segs {
            let allocated = self.backend.lookup(u64::from(seg.0)).is_some();
            assert_eq!(st.resident, allocated, "residency mismatch for {seg}");
            assert_eq!(
                st.resident,
                self.rotation.contains(&seg),
                "rotation mismatch for {seg}"
            );
        }
        for &seg in &self.rotation {
            assert!(self.segs.contains_key(&seg), "rotation holds deleted {seg}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resident_count(s: &SegmentStore) -> usize {
        s.segs.values().filter(|st| st.resident).count()
    }
    use dsa_freelist::freelist::Placement;

    fn b5000_store(capacity: Words) -> SegmentStore {
        SegmentStore::new(
            StoreBackend::FreeList(FreeListAllocator::new(capacity, Placement::BestFit)),
            SegReplacement::Cyclic,
            1024,
        )
    }

    fn rice_store(capacity: Words) -> SegmentStore {
        SegmentStore::new(
            StoreBackend::Rice(RiceAllocator::new(capacity)),
            SegReplacement::RiceIterative,
            u64::MAX,
        )
    }

    #[test]
    fn fetch_on_first_reference() {
        let mut s = b5000_store(1000);
        s.define(SegId(0), 100).unwrap();
        let r1 = s.touch(SegId(0), 5, false).unwrap();
        assert!(r1.fetched);
        assert_eq!(r1.fetched_words, 100);
        let r2 = s.touch(SegId(0), 6, false).unwrap();
        assert!(!r2.fetched, "second touch must not re-fetch");
        assert_eq!(s.stats().seg_faults, 1);
        s.check_invariants();
    }

    #[test]
    fn bounds_violations_are_intercepted_and_counted() {
        let mut s = b5000_store(1000);
        s.define(SegId(0), 10).unwrap();
        let err = s.touch(SegId(0), 10, false).unwrap_err();
        assert!(matches!(
            err,
            CoreError::Access(AccessFault::BoundsViolation {
                offset: 10,
                limit: 10,
                ..
            })
        ));
        assert_eq!(s.stats().bounds_violations, 1);
        // The trap came before any fetch: nothing was brought in for it.
        assert_eq!((s.stats().seg_faults, s.stats().fetched_words), (0, 0));
        assert_eq!(resident_count(&s), 0);
        // A segment nobody declared is an access and nothing else.
        assert!(matches!(
            s.touch(SegId(9), 0, true),
            Err(CoreError::Access(AccessFault::UnknownSegment { .. }))
        ));
        assert_eq!(s.stats().accesses, 2);
        assert_eq!((s.stats().bounds_violations, s.stats().seg_faults), (1, 0));
    }

    #[test]
    fn b5000_segment_size_limit_enforced() {
        let mut s = b5000_store(10_000);
        assert!(matches!(
            s.define(SegId(0), 1025),
            Err(CoreError::Alloc(AllocError::RequestTooLarge {
                max: 1024,
                ..
            }))
        ));
        assert!(s.define(SegId(0), 1024).is_ok());
    }

    #[test]
    fn eviction_makes_room_cyclically() {
        let mut s = b5000_store(250);
        for i in 0..3 {
            s.define(SegId(i), 100).unwrap();
        }
        s.touch(SegId(0), 0, false).unwrap();
        s.touch(SegId(1), 0, false).unwrap();
        // Third segment does not fit: the cyclic hand evicts seg 0.
        let r = s.touch(SegId(2), 0, false).unwrap();
        assert!(r.fetched);
        assert_eq!(r.evictions, 1);
        assert_eq!(resident_count(&s), 2);
        // Touch seg 0 again: refetched, seg 1 evicted (cyclic order).
        let r = s.touch(SegId(0), 0, false).unwrap();
        assert!(r.fetched);
        s.check_invariants();
    }

    #[test]
    fn dirty_segments_write_back_on_eviction() {
        let mut s = b5000_store(250);
        s.define(SegId(0), 100).unwrap();
        s.define(SegId(1), 100).unwrap();
        s.define(SegId(2), 100).unwrap();
        s.touch(SegId(0), 0, true).unwrap(); // dirty
        s.touch(SegId(1), 0, false).unwrap(); // clean
        let r = s.touch(SegId(2), 0, false).unwrap();
        // Cyclic evicts seg 0 (dirty): 100 words written back.
        assert_eq!(r.writeback_words, 100);
        assert_eq!(s.stats().writeback_words, 100);
    }

    #[test]
    fn rice_iterative_prefers_unused_clean() {
        let mut s = rice_store(350);
        for i in 0..3 {
            s.define(SegId(i), 100).unwrap();
        }
        s.touch(SegId(0), 0, true).unwrap(); // will be dirty
        s.touch(SegId(1), 0, false).unwrap();
        s.touch(SegId(2), 0, false).unwrap();
        // Mark 0 and 2 used recently; 1 unused (cleared by advice).
        s.advise_probed(
            Advice::WontNeed(AdviceUnit::Segment(SegId(1))),
            Stamp::vtime(0),
            &mut NullProbe,
        );
        s.define(SegId(3), 100).unwrap();
        let r = s.touch(SegId(3), 0, false).unwrap();
        assert!(r.fetched);
        // Seg 1 (unused, clean) must be the victim; no write-back.
        assert_eq!(r.writeback_words, 0);
        assert_eq!(resident_count(&s), 3);
        assert!(
            s.touch(SegId(1), 0, false).unwrap().fetched,
            "seg 1 was evicted"
        );
        s.check_invariants();
    }

    #[test]
    fn iterative_replacement_evicts_until_block_fits() {
        let mut s = b5000_store(300);
        for i in 0..3 {
            s.define(SegId(i), 100).unwrap();
            s.touch(SegId(i), 0, false).unwrap();
        }
        // A 250-word segment needs at least two evictions (and
        // compaction is unavailable, so it may need all three).
        s.define(SegId(9), 250).unwrap();
        let r = s.touch(SegId(9), 0, false).unwrap();
        assert!(r.evictions >= 2, "evictions {}", r.evictions);
        assert!(s.resident_words() >= 250);
        s.check_invariants();
    }

    #[test]
    fn capacity_failure_when_nothing_evictable() {
        let mut s = b5000_store(100);
        s.define(SegId(0), 80).unwrap();
        s.touch(SegId(0), 0, false).unwrap();
        s.advise_probed(
            Advice::Pin(AdviceUnit::Segment(SegId(0))),
            Stamp::vtime(0),
            &mut NullProbe,
        );
        s.define(SegId(1), 50).unwrap();
        let err = s.touch(SegId(1), 0, false).unwrap_err();
        assert!(matches!(
            err,
            CoreError::Alloc(AllocError::OutOfStorage { .. })
        ));
        assert_eq!(s.stats().capacity_failures, 1);
    }

    #[test]
    fn pinned_segments_survive_pressure() {
        let mut s = b5000_store(250);
        s.define(SegId(0), 100).unwrap();
        s.touch(SegId(0), 0, false).unwrap();
        s.advise_probed(
            Advice::Pin(AdviceUnit::Segment(SegId(0))),
            Stamp::vtime(0),
            &mut NullProbe,
        );
        s.define(SegId(1), 100).unwrap();
        s.touch(SegId(1), 0, false).unwrap();
        s.define(SegId(2), 100).unwrap();
        s.touch(SegId(2), 0, false).unwrap(); // must evict seg 1
        assert!(
            !s.touch(SegId(0), 1, false).unwrap().fetched,
            "pinned stayed"
        );
        s.check_invariants();
    }

    #[test]
    fn delete_frees_storage() {
        let mut s = b5000_store(200);
        s.define(SegId(0), 150).unwrap();
        s.touch(SegId(0), 0, false).unwrap();
        s.delete(SegId(0)).unwrap();
        s.define(SegId(1), 180).unwrap();
        assert!(s.touch(SegId(1), 0, false).is_ok());
        assert!(matches!(
            s.touch(SegId(0), 0, false),
            Err(CoreError::Access(AccessFault::UnknownSegment { .. }))
        ));
        s.check_invariants();
    }

    #[test]
    fn will_need_prefetches_segment() {
        let mut s = b5000_store(500);
        s.define(SegId(0), 100).unwrap();
        s.advise_probed(
            Advice::WillNeed(AdviceUnit::Segment(SegId(0))),
            Stamp::vtime(0),
            &mut NullProbe,
        );
        let r = s.touch(SegId(0), 0, false).unwrap();
        assert!(!r.fetched, "prefetched by advice");
        s.check_invariants();
    }

    #[test]
    fn release_evicts_segment() {
        let mut s = b5000_store(500);
        s.define(SegId(0), 100).unwrap();
        s.touch(SegId(0), 0, false).unwrap();
        s.advise_probed(
            Advice::Release(AdviceUnit::Segment(SegId(0))),
            Stamp::vtime(0),
            &mut NullProbe,
        );
        assert_eq!(resident_count(&s), 0);
        assert!(s.touch(SegId(0), 0, false).unwrap().fetched);
        s.check_invariants();
    }

    #[test]
    fn out_of_storage_reports_honest_largest_free() {
        // Regression: this used to hardcode `largest_free: 0`.
        let mut s = b5000_store(100);
        s.define(SegId(0), 40).unwrap();
        s.touch(SegId(0), 0, false).unwrap();
        s.advise_probed(
            Advice::Pin(AdviceUnit::Segment(SegId(0))),
            Stamp::vtime(0),
            &mut NullProbe,
        );
        s.define(SegId(1), 30).unwrap();
        s.touch(SegId(1), 0, false).unwrap();
        s.advise_probed(
            Advice::Pin(AdviceUnit::Segment(SegId(1))),
            Stamp::vtime(0),
            &mut NullProbe,
        );
        s.define(SegId(2), 50).unwrap();
        let err = s.touch(SegId(2), 0, false).unwrap_err();
        match err {
            CoreError::Alloc(AllocError::OutOfStorage {
                requested,
                largest_free,
            }) => {
                assert_eq!(requested, 50);
                assert_eq!(largest_free, 30, "the 30-word tail hole is free");
            }
            other => panic!("expected OutOfStorage, got {other:?}"),
        }
    }

    #[test]
    fn degradation_compacts_before_evicting() {
        // Fragmented free list: 30 words at [30,60) + 10 at [90,100).
        let mut s = b5000_store(100);
        s.enable_degradation();
        for i in 0..3 {
            s.define(SegId(i), 30).unwrap();
            s.touch(SegId(i), 0, false).unwrap();
        }
        s.advise_probed(
            Advice::Pin(AdviceUnit::Segment(SegId(0))),
            Stamp::vtime(0),
            &mut NullProbe,
        );
        s.advise_probed(
            Advice::Pin(AdviceUnit::Segment(SegId(2))),
            Stamp::vtime(0),
            &mut NullProbe,
        );
        s.advise_probed(
            Advice::Release(AdviceUnit::Segment(SegId(1))),
            Stamp::vtime(0),
            &mut NullProbe,
        );
        assert_eq!(s.touch(SegId(2), 5, false).unwrap().addr, PhysAddr(65));
        let evictions_before = s.stats().evictions;
        // 40 words fit only after compaction slides seg 2 down.
        s.define(SegId(3), 40).unwrap();
        let r = s.touch(SegId(3), 0, false).unwrap();
        assert!(r.fetched);
        assert_eq!(r.evictions, 0, "compaction made room without victims");
        assert_eq!(s.stats().evictions, evictions_before);
        assert_eq!(s.stats().degradation_steps, 1);
        assert!(s.touch(SegId(0), 0, false).is_ok());
        // A resident touch reports where the block is now, not where
        // it was fetched to.
        let moved = s.touch(SegId(2), 5, false).unwrap();
        assert_eq!((moved.fetched, moved.addr), (false, PhysAddr(35)));
        s.check_invariants();
    }

    #[test]
    fn degradation_coalesces_the_rice_chain_before_evicting() {
        let mut s = rice_store(100);
        s.enable_degradation();
        for i in 0..3 {
            s.define(SegId(i), 30).unwrap();
            s.touch(SegId(i), 0, false).unwrap();
        }
        // Free two adjacent blocks; the chain holds them separately.
        s.advise_probed(
            Advice::Release(AdviceUnit::Segment(SegId(0))),
            Stamp::vtime(0),
            &mut NullProbe,
        );
        s.advise_probed(
            Advice::Release(AdviceUnit::Segment(SegId(1))),
            Stamp::vtime(0),
            &mut NullProbe,
        );
        s.advise_probed(
            Advice::Pin(AdviceUnit::Segment(SegId(2))),
            Stamp::vtime(0),
            &mut NullProbe,
        );
        s.define(SegId(3), 50).unwrap();
        let r = s.touch(SegId(3), 0, false).unwrap();
        assert!(r.fetched);
        assert_eq!(r.evictions, 0, "coalescing made room without victims");
        assert_eq!(s.stats().degradation_steps, 1);
        s.check_invariants();
    }

    #[test]
    fn degradation_falls_through_to_eviction() {
        let mut s = b5000_store(100);
        s.enable_degradation();
        s.define(SegId(0), 60).unwrap();
        s.touch(SegId(0), 0, false).unwrap();
        s.define(SegId(1), 60).unwrap();
        let r = s.touch(SegId(1), 0, false).unwrap();
        assert_eq!(r.evictions, 1, "nothing to compact; eviction rung runs");
        assert_eq!(
            s.stats().degradation_steps,
            1,
            "entering the eviction rung counts once per fetch"
        );
        s.check_invariants();
    }

    #[test]
    fn unpin_all_releases_segment_pins() {
        let mut s = b5000_store(100);
        s.define(SegId(0), 80).unwrap();
        s.touch(SegId(0), 0, false).unwrap();
        s.advise_probed(
            Advice::Pin(AdviceUnit::Segment(SegId(0))),
            Stamp::vtime(0),
            &mut NullProbe,
        );
        s.define(SegId(1), 50).unwrap();
        assert!(s.touch(SegId(1), 0, false).is_err(), "pinned blocks demand");
        assert_eq!(s.unpin_all(), 1);
        assert!(s.touch(SegId(1), 0, false).is_ok());
        s.check_invariants();
    }

    #[test]
    fn define_validates() {
        let mut s = b5000_store(100);
        assert!(matches!(
            s.define(SegId(0), 0),
            Err(CoreError::Alloc(AllocError::ZeroSize))
        ));
        s.define(SegId(0), 10).unwrap();
        assert!(matches!(
            s.define(SegId(0), 10),
            Err(CoreError::Alloc(AllocError::AlreadyAllocated))
        ));
        assert!(matches!(
            s.delete(SegId(5)),
            Err(CoreError::Access(AccessFault::UnknownSegment { .. }))
        ));
    }
}

#[cfg(test)]
mod probe_tests {
    use super::*;
    use dsa_core::ids::SegId;
    use dsa_freelist::freelist::Placement;
    use dsa_probe::CountingProbe;

    #[test]
    fn touch_traces_faults_and_evictions_matching_stats() {
        let mut store = SegmentStore::new(
            StoreBackend::FreeList(FreeListAllocator::new(100, Placement::FirstFit)),
            SegReplacement::Cyclic,
            u64::MAX,
        );
        let mut probe = CountingProbe::new();
        let at = Stamp::vtime(0);
        for i in 0..4 {
            store.define(SegId(i), 40).unwrap();
        }
        // Two fit; the third and fourth each force an eviction. Writes
        // dirty the victims so later evictions write back.
        for i in 0..4u32 {
            store
                .touch_probed(SegId(i), 0, true, at, &mut probe)
                .unwrap();
        }
        let stats = *store.stats();
        assert_eq!(probe.faults, stats.seg_faults);
        assert_eq!(probe.evictions, stats.evictions);
        assert!(probe.evictions >= 2);
        assert_eq!(
            probe.evicted_words,
            stats.evictions * 40,
            "every victim carries its extent"
        );
        store.check_invariants();
    }

    #[test]
    fn advice_traces_prefetch_and_release() {
        let mut store = SegmentStore::new(
            StoreBackend::FreeList(FreeListAllocator::new(100, Placement::FirstFit)),
            SegReplacement::Cyclic,
            u64::MAX,
        );
        let mut probe = CountingProbe::new();
        let at = Stamp::vtime(0);
        store.define(SegId(1), 30).unwrap();
        store.advise_probed(
            Advice::WillNeed(AdviceUnit::Segment(SegId(1))),
            at,
            &mut probe,
        );
        assert_eq!(probe.prefetches, 1);
        assert_eq!(probe.prefetched_words, 30);
        assert_eq!(probe.faults, 0, "a prefetch is not a fault");
        store.advise_probed(
            Advice::Release(AdviceUnit::Segment(SegId(1))),
            at,
            &mut probe,
        );
        assert_eq!(probe.evictions, 1);
    }
}
