//! The segment backend: B5000, Rice, B8500, and the favoured design.
//!
//! On these machines the segment is the unit of allocation: fetched
//! whole on first reference, placed by a variable-unit allocator,
//! bounds-checked on every access through its descriptor (B5000/B8500
//! PRT entries) or codeword (Rice). The B5000 limits segments to 1024
//! words; "by virtue of the way the compiler implements multidimensional
//! arrays" a programmer may still declare larger objects, which the
//! compiler splits — the backend performs the same split, at the largest
//! segment its store will place.

use dsa_core::advice::{Advice, AdviceUnit};
use dsa_core::clock::Cycles;
use dsa_core::error::{AccessFault, AllocError, CoreError};
use dsa_core::ids::{IdMap, SegId, Words};
use dsa_core::taxonomy::SystemCharacteristics;
use dsa_mapping::associative::AssocMemory;
use dsa_mapping::cost::MapCosts;
use dsa_probe::{EventKind, Probe};
use dsa_seg::store::SegmentStore;
use dsa_storage::level::LevelSpec;

use crate::driver::{Backend, Composed, Cx};

/// Segments placed whole by a [`SegmentStore`], reached through
/// descriptors.
pub struct Segments {
    store: SegmentStore,
    costs: MapCosts,
    /// Optional descriptor cache (the B8500's 44-word thin-film
    /// associative memory retaining recently used PRT elements).
    descriptor_cache: Option<AssocMemory>,
    /// User segment -> (chunk ids, user-declared size).
    split_map: IdMap<SegId, (Vec<SegId>, Words)>,
    next_internal: u32,
}

impl Composed<Segments> {
    /// Assembles a segment-allocated machine: the store with its
    /// placement and replacement strategies, what a descriptor reference
    /// costs, the descriptor cache if the machine has one, and the
    /// level segments are fetched from. Whether advice is taken is read
    /// from `chars`; declarations are split at the store's ceiling.
    #[must_use]
    pub fn segmented(
        name: &'static str,
        chars: SystemCharacteristics,
        store: SegmentStore,
        costs: MapCosts,
        descriptor_cache: Option<AssocMemory>,
        backing: LevelSpec,
    ) -> Composed<Segments> {
        let backend = Segments {
            store,
            costs,
            descriptor_cache,
            split_map: IdMap::default(),
            next_internal: 0,
        };
        Composed::new(name, chars, backing, backend)
    }
}

impl Segments {
    /// The descriptor-access cost for one touch of `chunk`, consulting
    /// the descriptor cache if the machine has one, and whether the
    /// lookup counts as a hit: on a cached machine, that the descriptor
    /// was in the associative memory; without a cache every PRT
    /// reference resolves directly.
    fn descriptor(&mut self, chunk: SegId) -> (Cycles, bool) {
        match &mut self.descriptor_cache {
            Some(cache) => {
                if cache.lookup(u64::from(chunk.0)).is_some() {
                    (self.costs.assoc_search, true)
                } else {
                    cache.insert(u64::from(chunk.0), 0);
                    (self.costs.assoc_search + self.costs.table_ref, false)
                }
            }
            // A PRT reference in core.
            None => (self.costs.table_ref, true),
        }
    }

    fn forget(&mut self, seg: SegId) -> Option<Words> {
        let (chunks, size) = self.split_map.remove(&seg)?;
        for chunk in chunks {
            let _ = self.store.delete(chunk);
        }
        Some(size)
    }
}

impl Backend for Segments {
    /// Whether the subscript is out of the user's bounds, and otherwise
    /// the chunk it falls in (if that chunk was ever placed) and the
    /// offset within it.
    type Target = (bool, Option<SegId>, Words);
    type Demand = (SegId, Words);

    const RESTARTS_TIME: bool = true;
    const COUNTS_EXHAUSTION: bool = true;

    /// Always declared, chunk by chunk; a chunk the store has no room
    /// for is counted and its touches fail.
    fn define(&mut self, seg: SegId, size: Words, failed: &mut u64) -> Result<bool, CoreError> {
        let mut chunks = Vec::new();
        let mut remaining = size;
        while remaining > 0 {
            let chunk_size = remaining.min(self.store.max_segment());
            let id = SegId(self.next_internal);
            self.next_internal += 1;
            match self.store.define(id, chunk_size) {
                Ok(()) => chunks.push(id),
                Err(CoreError::Alloc(AllocError::OutOfStorage { .. })) => {
                    *failed += 1;
                    break;
                }
                Err(e) => return Err(e),
            }
            remaining -= chunk_size;
        }
        self.split_map.insert(seg, (chunks, size));
        Ok(true)
    }

    /// Dynamic segments: re-declare at the new size.
    fn resize(&mut self, seg: SegId, size: Words, failed: &mut u64) -> Result<(), CoreError> {
        self.forget(seg);
        self.define(seg, size, failed).map(|_| ())
    }

    fn delete<P: Probe + ?Sized>(&mut self, seg: SegId, _cx: &mut Cx<'_, P>) -> Option<Words> {
        self.forget(seg).filter(|&freed| freed > 0)
    }

    #[inline]
    fn locate(&self, seg: SegId, offset: Words) -> Option<Self::Target> {
        let (chunks, user_size) = self.split_map.get(&seg)?;
        let split_at = self.store.max_segment();
        let chunk = chunks.get((offset / split_at) as usize).copied();
        Some((offset >= *user_size, chunk, offset % split_at))
    }

    #[inline]
    fn address<P: Probe + ?Sized>(
        &mut self,
        (wild, chunk, within): Self::Target,
        _write: bool,
        cx: &mut Cx<'_, P>,
    ) -> Result<Option<Self::Demand>, CoreError> {
        if wild {
            // The illegal-subscript interception the paper lists as
            // segmentation advantage (iii): the *user's* declared bound
            // is enforced by the chunk bounds.
            cx.report.bounds_caught += 1;
            cx.emit(EventKind::BoundsTrap);
            return Ok(None);
        }
        let Some(chunk) = chunk else {
            // The chunk was never defined (alloc failure at define
            // time).
            cx.report.alloc_failures += 1;
            return Ok(None);
        };
        let (cost, hit) = self.descriptor(chunk);
        cx.report.map_time += cost;
        cx.emit(EventKind::MapLookup { hit });
        cx.clock += cost;
        Ok(Some((chunk, within)))
    }

    /// The store's touch is hit and fetch in one; a fetch emits `Fault`
    /// and per-victim `Evict`, and the transfer events are the machine's.
    fn demand<P: Probe + ?Sized>(
        &mut self,
        (chunk, within): Self::Demand,
        write: bool,
        cx: &mut Cx<'_, P>,
    ) -> Result<(), CoreError> {
        match self
            .store
            .touch_probed(chunk, within, write, cx.at(), cx.probe)
        {
            Ok(r) if r.fetched => {
                cx.emit(EventKind::FetchStart {
                    words: r.fetched_words,
                });
                if r.writeback_words > 0 {
                    cx.charge_writeback(r.writeback_words);
                }
                cx.report.faults += 1;
                cx.charge_fetch(r.fetched_words);
            }
            Ok(_) => {}
            Err(CoreError::Access(AccessFault::BoundsViolation { .. })) => {
                cx.report.bounds_caught += 1;
                cx.emit(EventKind::BoundsTrap);
            }
            Err(e) => return Err(e),
        }
        Ok(())
    }

    /// Only segment advice is meaningful; the user's segment is lowered
    /// onto its chunks.
    fn advise<P: Probe + ?Sized>(&mut self, advice: Advice, cx: &mut Cx<'_, P>) {
        let AdviceUnit::Segment(seg) = advice.unit() else {
            return;
        };
        let Some((chunks, _)) = self.split_map.get(&seg) else {
            return;
        };
        for &chunk in chunks {
            cx.note_advice();
            let before = *self.store.stats();
            let lowered = advice.with_unit(AdviceUnit::Segment(chunk));
            self.store.advise_probed(lowered, cx.at(), cx.probe);
            // Evictions forced by a will-need fetch (and any release
            // write-back) must be charged like the demand-path ones.
            let wrote = self.store.stats().writeback_words - before.writeback_words;
            if wrote > 0 {
                cx.charge_writeback(wrote);
            }
            let brought = self.store.stats().fetched_words - before.fetched_words;
            if brought > 0 {
                cx.report.prefetches += 1;
                cx.emit(EventKind::FetchStart { words: brought });
                cx.charge_fetch(brought);
            }
        }
    }

    fn unpin_all(&mut self) {
        self.store.unpin_all();
    }

    fn degradation_steps(&self) -> u64 {
        self.store.stats().degradation_steps
    }

    /// The store's own ladder (coalesce, compact, evict) comes before
    /// shed-load, so injected storage pressure is survived rather than
    /// surfaced.
    fn arm_recovery(&mut self) {
        self.store.enable_degradation();
    }

    fn check_invariants(&self) {
        self.store.check_invariants();
    }
}
