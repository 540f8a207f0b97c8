//! Property-based tests on the paging engine and replacement policies.

use std::collections::{HashMap, VecDeque};

use dsa::core::ids::PageNo;
use dsa::paging::paged::PagedMemory;
use dsa::paging::replacement::ws::working_set_sim;
use dsa::paging::{
    AtlasLearning, ClassRandomRepl, ClockRepl, Eligible, FifoRepl, LfuRepl, LruRepl, MinRepl,
    RandomRepl, Replacer,
};
use proptest::prelude::*;

fn arb_trace() -> impl Strategy<Value = Vec<PageNo>> {
    prop::collection::vec(0u64..24, 1..600).prop_map(|v| v.into_iter().map(PageNo).collect())
}

fn all_policies(trace: &[PageNo]) -> Vec<Box<dyn Replacer>> {
    vec![
        Box::new(LruRepl::new()),
        Box::new(FifoRepl::new()),
        Box::new(ClockRepl::new()),
        Box::new(RandomRepl::new(9)),
        Box::new(ClassRandomRepl::new(9, 4)),
        Box::new(AtlasLearning::new()),
        Box::new(MinRepl::new(trace)),
    ]
}

fn faults(frames: usize, trace: &[PageNo], policy: Box<dyn Replacer>) -> u64 {
    let mut mem = PagedMemory::new(frames, policy);
    let stats = mem.run_pages(trace).expect("no pinning");
    mem.check_invariants();
    stats.faults
}

fn distinct(trace: &[PageNo]) -> u64 {
    let mut v: Vec<u64> = trace.iter().map(|p| p.0).collect();
    v.sort_unstable();
    v.dedup();
    v.len() as u64
}

proptest! {
    /// MIN is a lower bound for every realizable policy on every trace
    /// — the defining property of Belady's optimum.
    #[test]
    fn min_is_optimal(trace in arb_trace(), frames in 1usize..16) {
        let min_faults = faults(frames, &trace, Box::new(MinRepl::new(&trace)));
        for policy in all_policies(&trace) {
            if policy.name() == "MIN (Belady)" {
                continue;
            }
            let name = policy.name();
            let f = faults(frames, &trace, policy);
            prop_assert!(
                f >= min_faults,
                "{name} took {f} faults, below MIN's {min_faults}"
            );
        }
    }

    /// Every policy faults at least once per distinct page (cold
    /// misses), and never more than once per reference.
    #[test]
    fn fault_counts_are_bounded(trace in arb_trace(), frames in 1usize..16) {
        let d = distinct(&trace);
        for policy in all_policies(&trace) {
            let name = policy.name();
            let f = faults(frames, &trace, policy);
            prop_assert!(f >= d, "{name}: {f} faults < {d} distinct pages");
            prop_assert!(f <= trace.len() as u64, "{name}");
        }
    }

    /// LRU has the stack (inclusion) property: more frames never means
    /// more faults. (FIFO famously lacks this — Belady's anomaly.)
    #[test]
    fn lru_inclusion_property(trace in arb_trace(), frames in 1usize..12) {
        let small = faults(frames, &trace, Box::new(LruRepl::new()));
        let large = faults(frames + 1, &trace, Box::new(LruRepl::new()));
        prop_assert!(large <= small, "LRU faulted more with more frames: {large} > {small}");
    }

    /// MIN also has the inclusion property.
    #[test]
    fn min_inclusion_property(trace in arb_trace(), frames in 1usize..12) {
        let small = faults(frames, &trace, Box::new(MinRepl::new(&trace)));
        let large = faults(frames + 1, &trace, Box::new(MinRepl::new(&trace)));
        prop_assert!(large <= small);
    }

    /// When the whole page universe fits in core, every policy takes
    /// exactly the cold misses.
    #[test]
    fn ample_storage_means_cold_misses_only(trace in arb_trace()) {
        let d = distinct(&trace);
        for policy in all_policies(&trace) {
            let name = policy.name();
            let f = faults(24, &trace, policy);
            prop_assert_eq!(f, d, "{} with ample frames", name);
        }
    }

    /// The working-set simulator agrees with a direct recomputation of
    /// residency, and its fault count is monotone in the window.
    #[test]
    fn working_set_window_monotone(trace in arb_trace(), tau in 1u64..50) {
        let small = working_set_sim(&trace, tau);
        let large = working_set_sim(&trace, tau + 10);
        prop_assert!(large.faults <= small.faults);
        prop_assert!(small.references == trace.len() as u64);
        prop_assert!(small.mean_resident <= small.peak_resident as f64 + 1e-9);
    }

    /// The working-set simulator equals the window written out
    /// literally: a queue of the last `tau` references and a
    /// multiplicity per page, the set being the pages the queue holds.
    /// `tau` is shorter than the trace, so references do expire, and
    /// universes this small bring pages back exactly `tau` and
    /// `tau ± 1` references after their last use — the edges where
    /// "faults", "joins the set" and "leaves the set" must agree.
    #[test]
    fn working_set_sim_matches_the_window_model(
        draws in prop::collection::vec(0u64..60, 2..200),
        universe in 2u64..6,
        tau_draw in 0u64..200,
    ) {
        let trace: Vec<PageNo> = draws.iter().map(|d| PageNo(d % universe)).collect();
        let tau = 1 + tau_draw % (trace.len() as u64 - 1);
        let mut last_use: HashMap<PageNo, u64> = HashMap::new();
        let mut window: VecDeque<(u64, PageNo)> = VecDeque::new();
        let mut in_window: HashMap<PageNo, u32> = HashMap::new();
        let (mut faults, mut resident_sum, mut peak) = (0u64, 0u64, 0usize);
        for (i, &page) in trace.iter().enumerate() {
            let now = i as u64;
            let resident = matches!(last_use.get(&page), Some(&t) if now - t <= tau);
            if !resident {
                faults += 1;
            }
            last_use.insert(page, now);
            window.push_back((now, page));
            *in_window.entry(page).or_insert(0) += 1;
            while let Some(&(t, p)) = window.front() {
                if now - t < tau {
                    break;
                }
                window.pop_front();
                let count = in_window.get_mut(&p).expect("queued page is counted");
                *count -= 1;
                if *count == 0 {
                    in_window.remove(&p);
                }
            }
            resident_sum += in_window.len() as u64;
            peak = peak.max(in_window.len());
        }
        let report = working_set_sim(&trace, tau);
        prop_assert_eq!(report.references, trace.len() as u64);
        prop_assert_eq!(report.faults, faults);
        prop_assert_eq!(report.peak_resident, peak);
        prop_assert_eq!(
            report.mean_resident.to_bits(),
            (resident_sum as f64 / trace.len() as f64).to_bits()
        );
    }

    /// The vacant-reserve variant keeps a frame free after every touch
    /// and never beats the plain variant by more than the cold-miss
    /// bound allows (sanity of the ATLAS discipline).
    #[test]
    fn vacant_reserve_invariant(trace in arb_trace()) {
        let frames = 8;
        let mut mem = PagedMemory::new(frames, Box::new(AtlasLearning::new()))
            .with_vacant_reserve();
        for (i, &p) in trace.iter().enumerate() {
            mem.touch(p, false, i as u64).expect("no pinning");
            prop_assert!(mem.resident_count() < frames, "a frame must stay vacant");
        }
        mem.check_invariants();
    }
}

mod victim_parity {
    use super::*;
    use dsa::core::advice::{Advice, AdviceUnit};
    use dsa::core::clock::VirtualTime;
    use dsa::core::ids::FrameNo;
    use dsa::paging::sensors::Sensors;
    use dsa::probe::{NullProbe, Stamp};
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex};

    /// What `victim` was handed before the view: every eligible frame,
    /// ascending, in a list built for the fault. The models below
    /// choose from it with the policy bodies of that time, verbatim.
    fn listed(eligible: Eligible<'_>) -> Vec<FrameNo> {
        eligible.iter().collect()
    }

    /// Wraps a policy and records every victim it chooses, so two
    /// policies' full eviction sequences can be compared.
    struct Recording {
        inner: Box<dyn Replacer>,
        victims: Arc<Mutex<Vec<FrameNo>>>,
    }

    impl Replacer for Recording {
        fn loaded(&mut self, frame: FrameNo, page: PageNo, now: VirtualTime) {
            self.inner.loaded(frame, page, now);
        }

        fn touched(&mut self, frame: FrameNo, page: PageNo, now: VirtualTime, write: bool) {
            self.inner.touched(frame, page, now, write);
        }

        fn victim(
            &mut self,
            eligible: Eligible<'_>,
            sensors: &mut Sensors,
            now: VirtualTime,
        ) -> FrameNo {
            let v = self.inner.victim(eligible, sensors, now);
            self.victims.lock().unwrap().push(v);
            v
        }

        fn evicted(&mut self, frame: FrameNo) {
            self.inner.evicted(frame);
        }

        fn hint_idle(&mut self, frame: FrameNo) {
            self.inner.hint_idle(frame);
        }

        fn name(&self) -> &'static str {
            self.inner.name()
        }
    }

    /// The pre-index LRU: a plain scan for the minimum stamp (first
    /// minimum wins, `min_by_key` semantics).
    #[derive(Default)]
    struct ScanLru {
        last_use: HashMap<FrameNo, VirtualTime>,
    }

    impl Replacer for ScanLru {
        fn loaded(&mut self, frame: FrameNo, _page: PageNo, now: VirtualTime) {
            self.last_use.insert(frame, now);
        }

        fn touched(&mut self, frame: FrameNo, _page: PageNo, now: VirtualTime, _write: bool) {
            self.last_use.insert(frame, now);
        }

        fn victim(
            &mut self,
            eligible: Eligible<'_>,
            _sensors: &mut Sensors,
            _now: VirtualTime,
        ) -> FrameNo {
            *listed(eligible)
                .iter()
                .min_by_key(|f| self.last_use.get(f).copied().unwrap_or(0))
                .expect("eligible is never empty")
        }

        fn evicted(&mut self, frame: FrameNo) {
            self.last_use.remove(&frame);
        }

        fn name(&self) -> &'static str {
            "scan-LRU"
        }
    }

    /// The pre-index MIN: recompute every eligible frame's next use at
    /// victim time (last maximum wins, `max_by_key` semantics).
    struct ScanMin {
        uses: HashMap<PageNo, Vec<VirtualTime>>,
        resident: HashMap<FrameNo, PageNo>,
    }

    impl ScanMin {
        fn new(trace: &[PageNo]) -> ScanMin {
            let mut uses: HashMap<PageNo, Vec<VirtualTime>> = HashMap::new();
            for (i, &p) in trace.iter().enumerate() {
                uses.entry(p).or_default().push(i as VirtualTime);
            }
            ScanMin {
                uses,
                resident: HashMap::new(),
            }
        }

        fn next_use(&self, page: PageNo, now: VirtualTime) -> Option<VirtualTime> {
            let positions = self.uses.get(&page)?;
            let idx = positions.partition_point(|&t| t <= now);
            positions.get(idx).copied()
        }
    }

    impl Replacer for ScanMin {
        fn loaded(&mut self, frame: FrameNo, page: PageNo, _now: VirtualTime) {
            self.resident.insert(frame, page);
        }

        fn victim(
            &mut self,
            eligible: Eligible<'_>,
            _sensors: &mut Sensors,
            now: VirtualTime,
        ) -> FrameNo {
            *listed(eligible)
                .iter()
                .max_by_key(|f| {
                    let page = self.resident.get(f).copied().unwrap_or(PageNo(u64::MAX));
                    self.next_use(page, now).unwrap_or(VirtualTime::MAX)
                })
                .expect("eligible is never empty")
        }

        fn evicted(&mut self, frame: FrameNo) {
            self.resident.remove(&frame);
        }

        fn name(&self) -> &'static str {
            "scan-MIN"
        }
    }

    /// Runs `trace` under `policy` with victim recording; returns
    /// (faults, victim sequence).
    fn recorded_run(
        frames: usize,
        trace: &[PageNo],
        policy: Box<dyn Replacer>,
    ) -> (u64, Vec<FrameNo>) {
        let victims = Arc::new(Mutex::new(Vec::new()));
        let recorder = Recording {
            inner: policy,
            victims: Arc::clone(&victims),
        };
        let mut mem = PagedMemory::new(frames, Box::new(recorder));
        let stats = mem.run_pages(trace).expect("no pinning");
        let seq = victims.lock().unwrap().clone();
        (stats.faults, seq)
    }

    /// The pre-table LFU: counts in a `HashMap` keyed by frame (first
    /// minimum wins).
    struct MapLfu {
        counts: HashMap<FrameNo, u64>,
        age_every: u32,
        decisions: u32,
    }

    impl Replacer for MapLfu {
        fn loaded(&mut self, frame: FrameNo, _page: PageNo, _now: VirtualTime) {
            self.counts.insert(frame, 1);
        }

        fn touched(&mut self, frame: FrameNo, _page: PageNo, _now: VirtualTime, _write: bool) {
            *self.counts.entry(frame).or_insert(0) += 1;
        }

        fn victim(
            &mut self,
            eligible: Eligible<'_>,
            _sensors: &mut Sensors,
            _now: VirtualTime,
        ) -> FrameNo {
            let victim = *listed(eligible)
                .iter()
                .min_by_key(|f| self.counts.get(f).copied().unwrap_or(0))
                .expect("eligible is never empty");
            self.decisions += 1;
            if self.age_every > 0 && self.decisions >= self.age_every {
                self.decisions = 0;
                self.counts.values_mut().for_each(|c| *c /= 2);
            }
            victim
        }

        fn evicted(&mut self, frame: FrameNo) {
            self.counts.remove(&frame);
        }

        fn hint_idle(&mut self, frame: FrameNo) {
            self.counts.insert(frame, 0);
        }

        fn name(&self) -> &'static str {
            "map-LFU"
        }
    }

    /// The pre-table ATLAS learning program: one history map keyed by
    /// page and updated on every use, a frame-keyed residency map, and
    /// the two cases as two passes (last maximum wins in each).
    struct MapAtlas {
        history: HashMap<PageNo, (VirtualTime, VirtualTime)>,
        resident: HashMap<FrameNo, PageNo>,
        slack: VirtualTime,
    }

    impl MapAtlas {
        fn note_use(&mut self, page: PageNo, now: VirtualTime) {
            let (last_use, prev_gap) = self.history.entry(page).or_insert((now, 0));
            let gap = now.saturating_sub(*last_use);
            if gap > 0 {
                *prev_gap = gap;
            }
            *last_use = now;
        }
    }

    impl Replacer for MapAtlas {
        fn loaded(&mut self, frame: FrameNo, page: PageNo, now: VirtualTime) {
            self.resident.insert(frame, page);
            self.note_use(page, now);
        }

        fn touched(&mut self, _frame: FrameNo, page: PageNo, now: VirtualTime, _write: bool) {
            self.note_use(page, now);
        }

        fn victim(
            &mut self,
            eligible: Eligible<'_>,
            _sensors: &mut Sensors,
            now: VirtualTime,
        ) -> FrameNo {
            let eligible = listed(eligible);
            let state = |f: &FrameNo| {
                let page = self.resident.get(f);
                let (last_use, prev_gap) = page
                    .and_then(|p| self.history.get(p))
                    .copied()
                    .unwrap_or((0, 0));
                (now.saturating_sub(last_use), prev_gap)
            };
            let out_of_use = eligible
                .iter()
                .filter(|f| {
                    let (t, period) = state(f);
                    t > period + self.slack
                })
                .max_by_key(|f| {
                    let (t, period) = state(f);
                    t - period
                });
            let last_required = eligible.iter().max_by_key(|f| {
                let (t, period) = state(f);
                period.saturating_sub(t)
            });
            *out_of_use
                .or(last_required)
                .expect("eligible is never empty")
        }

        fn evicted(&mut self, frame: FrameNo) {
            self.resident.remove(&frame);
        }

        fn name(&self) -> &'static str {
            "map-ATLAS"
        }
    }

    /// MIN as shipped before the view: next uses cached at every load
    /// and touch, the farthest `(next use, frame)` taken while every
    /// cached frame is eligible, the recomputing scan otherwise. (Off
    /// the replay contract a cached next use can be stale, so the scan
    /// alone is not the model here.)
    struct CachedMin {
        scan: ScanMin,
        cached: HashMap<FrameNo, VirtualTime>,
    }

    impl CachedMin {
        fn recache(&mut self, frame: FrameNo, page: PageNo, now: VirtualTime) {
            let next = self.scan.next_use(page, now).unwrap_or(VirtualTime::MAX);
            self.cached.insert(frame, next);
        }
    }

    impl Replacer for CachedMin {
        fn loaded(&mut self, frame: FrameNo, page: PageNo, now: VirtualTime) {
            self.scan.loaded(frame, page, now);
            self.recache(frame, page, now);
        }

        fn touched(&mut self, frame: FrameNo, page: PageNo, now: VirtualTime, _write: bool) {
            self.recache(frame, page, now);
        }

        fn victim(
            &mut self,
            eligible: Eligible<'_>,
            sensors: &mut Sensors,
            now: VirtualTime,
        ) -> FrameNo {
            if eligible.len() == self.cached.len() {
                let farthest = self.cached.iter().map(|(&f, &next)| (next, f)).max();
                return farthest.expect("eligible is never empty").1;
            }
            self.scan.victim(eligible, sensors, now)
        }

        fn evicted(&mut self, frame: FrameNo) {
            self.scan.evicted(frame);
            self.cached.remove(&frame);
        }

        fn name(&self) -> &'static str {
            "cached-MIN"
        }
    }

    /// FIFO over the list: the queue is searched for the first entry the
    /// list holds.
    #[derive(Default)]
    struct ListFifo {
        queue: VecDeque<FrameNo>,
    }

    impl Replacer for ListFifo {
        fn loaded(&mut self, frame: FrameNo, _page: PageNo, _now: VirtualTime) {
            self.queue.push_back(frame);
        }

        fn victim(
            &mut self,
            eligible: Eligible<'_>,
            _sensors: &mut Sensors,
            _now: VirtualTime,
        ) -> FrameNo {
            let eligible = listed(eligible);
            let pos = self
                .queue
                .iter()
                .position(|f| eligible.contains(f))
                .expect("some eligible frame must be in the load queue");
            self.queue[pos]
        }

        fn evicted(&mut self, frame: FrameNo) {
            if let Some(pos) = self.queue.iter().position(|&f| f == frame) {
                self.queue.remove(pos);
            }
        }

        fn name(&self) -> &'static str {
            "list-FIFO"
        }
    }

    /// Clock over the list, told its frame count at construction.
    struct ListClock {
        frames: usize,
        hand: usize,
    }

    impl Replacer for ListClock {
        fn loaded(&mut self, _frame: FrameNo, _page: PageNo, _now: VirtualTime) {}

        fn victim(
            &mut self,
            eligible: Eligible<'_>,
            sensors: &mut Sensors,
            _now: VirtualTime,
        ) -> FrameNo {
            let eligible = listed(eligible);
            for _ in 0..2 * self.frames {
                let f = FrameNo(self.hand as u64);
                self.hand = (self.hand + 1) % self.frames;
                if !eligible.contains(&f) {
                    continue;
                }
                if sensors.used(f) {
                    sensors.reset_use(f);
                } else {
                    return f;
                }
            }
            *eligible
                .iter()
                .find(|f| f.index() >= self.hand)
                .unwrap_or(&eligible[0])
        }

        fn name(&self) -> &'static str {
            "list-Clock"
        }
    }

    /// The crate-private xorshift the randomized policies draw from.
    struct TinyRng(u64);

    impl TinyRng {
        fn below(&mut self, n: usize) -> usize {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            (x % n as u64) as usize
        }
    }

    /// Random over the list: one draw indexes it.
    struct ListRandom {
        rng: TinyRng,
    }

    impl Replacer for ListRandom {
        fn loaded(&mut self, _frame: FrameNo, _page: PageNo, _now: VirtualTime) {}

        fn victim(
            &mut self,
            eligible: Eligible<'_>,
            _sensors: &mut Sensors,
            _now: VirtualTime,
        ) -> FrameNo {
            let eligible = listed(eligible);
            eligible[self.rng.below(eligible.len())]
        }

        fn name(&self) -> &'static str {
            "list-Random"
        }
    }

    /// Class-random over the list: the best class is found in one pass
    /// and collected in a second, and one draw indexes the collection.
    struct ListClassRandom {
        rng: TinyRng,
        decisions_per_sweep: u32,
        decisions: u32,
    }

    impl Replacer for ListClassRandom {
        fn loaded(&mut self, _frame: FrameNo, _page: PageNo, _now: VirtualTime) {}

        fn victim(
            &mut self,
            eligible: Eligible<'_>,
            sensors: &mut Sensors,
            _now: VirtualTime,
        ) -> FrameNo {
            let eligible = listed(eligible);
            let class_of = |s: &Sensors, f: FrameNo| -> u8 {
                (u8::from(s.used(f)) << 1) | u8::from(s.modified(f))
            };
            let best = eligible
                .iter()
                .map(|&f| class_of(sensors, f))
                .min()
                .expect("eligible is never empty");
            let candidates: Vec<FrameNo> = eligible
                .iter()
                .copied()
                .filter(|&f| class_of(sensors, f) == best)
                .collect();
            let victim = candidates[self.rng.below(candidates.len())];
            self.decisions += 1;
            if self.decisions >= self.decisions_per_sweep {
                self.decisions = 0;
                sensors.reset_all_use();
            }
            victim
        }

        fn name(&self) -> &'static str {
            "list-class-random"
        }
    }

    /// One step of a scripted run: `(kind, page, flag, tick)`. Most
    /// kinds are touches (`flag` = write); the rest are the five advice
    /// directives and `retire_frame`. Reference time advances by `tick`
    /// — 0 or 1 — so stamps repeat.
    type Step = (u8, u64, bool, bool);

    fn arb_script() -> impl Strategy<Value = Vec<Step>> {
        prop::collection::vec((0u8..20, 0u64..24, any::<bool>(), any::<bool>()), 1..500)
    }

    /// Everything observable about a scripted run.
    struct Observed {
        /// Per step: what a touch returned (`None` = refused, all
        /// pinned), what advice loaded and evicted, whether a frame
        /// retired.
        steps: Vec<String>,
        victims: Vec<FrameNo>,
        /// Faults, evictions, dirty evictions, prefetches, useful
        /// prefetches, advised evictions.
        stats: [u64; 6],
    }

    fn scripted_run(
        frames: usize,
        reserve: bool,
        script: &[Step],
        policy: Box<dyn Replacer>,
    ) -> Observed {
        let victims = Arc::new(Mutex::new(Vec::new()));
        let recorder = Recording {
            inner: policy,
            victims: Arc::clone(&victims),
        };
        let mut mem = PagedMemory::new(frames, Box::new(recorder));
        if reserve {
            mem = mem.with_vacant_reserve();
        }
        let mut now = 0;
        let mut steps = Vec::new();
        for &(kind, page, flag, tick) in script {
            let unit = AdviceUnit::Page(PageNo(page));
            let advice = match kind {
                0..=12 => {
                    steps.push(format!("{:?}", mem.touch(PageNo(page), flag, now).ok()));
                    None
                }
                13 => Some(Advice::Pin(unit)),
                14 => Some(Advice::Unpin(unit)),
                15 | 16 => Some(Advice::WontNeed(unit)),
                17 => Some(Advice::WillNeed(unit)),
                18 => Some(Advice::Release(unit)),
                _ => {
                    let frame = FrameNo(page % frames as u64);
                    steps.push(format!("retired {}", mem.retire_frame(frame)));
                    None
                }
            };
            if let Some(advice) = advice {
                let out = mem.advise_probed(advice, Stamp::vtime(now), &mut NullProbe);
                steps.push(format!("{:?} {:?}", out.loaded, out.evicted));
            }
            mem.check_invariants();
            now += u64::from(tick);
        }
        let seq = victims.lock().unwrap().clone();
        let s = mem.stats();
        Observed {
            steps,
            victims: seq,
            stats: [
                s.faults,
                s.evictions,
                s.dirty_evictions,
                s.prefetches,
                s.useful_prefetches,
                s.advised_evictions,
            ],
        }
    }

    proptest! {
        /// Every policy, answering from its own order against the
        /// engine's view, chooses victim for victim what its model
        /// chooses from the materialized list — hashed state for LRU,
        /// LFU and ATLAS, the policy's previous `victim` body for the
        /// rest — under repeated stamps, pins, `hint_idle`, releases,
        /// retired frames and the vacant reserve; and so
        /// every touch, load, eviction and statistic agrees.
        #[test]
        fn dense_policies_match_their_hashed_models(
            script in arb_script(),
            frames in 1usize..12,
            reserve in any::<bool>(),
            age_every in 0u32..6,
            slack in 0u64..4,
            seed in 0u64..64,
            sweep in 1u32..6,
        ) {
            let future: Vec<PageNo> = script.iter().map(|step| PageNo(step.1)).collect();
            let pairs: [(Box<dyn Replacer>, Box<dyn Replacer>); 8] = [
                (Box::new(LruRepl::new()), Box::new(ScanLru::default())),
                (
                    Box::new(LfuRepl::with_aging(age_every)),
                    Box::new(MapLfu { counts: HashMap::new(), age_every, decisions: 0 }),
                ),
                (
                    Box::new(AtlasLearning::with_slack(slack)),
                    Box::new(MapAtlas {
                        history: HashMap::new(),
                        resident: HashMap::new(),
                        slack,
                    }),
                ),
                (
                    Box::new(MinRepl::new(&future)),
                    Box::new(CachedMin { scan: ScanMin::new(&future), cached: HashMap::new() }),
                ),
                (Box::new(FifoRepl::new()), Box::new(ListFifo::default())),
                (
                    Box::new(ClockRepl::new()),
                    Box::new(ListClock { frames, hand: 0 }),
                ),
                (
                    Box::new(RandomRepl::new(seed)),
                    Box::new(ListRandom { rng: TinyRng(seed | 1) }),
                ),
                (
                    Box::new(ClassRandomRepl::new(seed, sweep)),
                    Box::new(ListClassRandom {
                        rng: TinyRng(seed | 1),
                        decisions_per_sweep: sweep,
                        decisions: 0,
                    }),
                ),
            ];
            for (dense, hashed) in pairs {
                let name = dense.name();
                let got = scripted_run(frames, reserve, &script, dense);
                let want = scripted_run(frames, reserve, &script, hashed);
                let agree = got.steps.iter().zip(&want.steps).take_while(|(g, w)| g == w).count();
                prop_assert!(
                    agree == script.len(),
                    "{}: step {} {:?} gave {}, the model {}",
                    name, agree, script[agree], got.steps[agree], want.steps[agree]
                );
                prop_assert_eq!(&got.victims, &want.victims, "{}: victims", name);
                prop_assert_eq!(got.stats, want.stats, "{}: statistics", name);
            }
        }

        /// The indexed LRU chooses the same victim at every eviction as
        /// the plain scan it replaced.
        #[test]
        fn indexed_lru_matches_scan(trace in arb_trace(), frames in 1usize..12) {
            let (f_idx, v_idx) =
                recorded_run(frames, &trace, Box::new(LruRepl::new()));
            let (f_scan, v_scan) =
                recorded_run(frames, &trace, Box::new(ScanLru::default()));
            prop_assert_eq!(f_idx, f_scan);
            prop_assert_eq!(v_idx, v_scan);
        }

        /// The indexed MIN (cached next uses) chooses the same victim
        /// at every eviction as the recompute-on-demand scan.
        #[test]
        fn indexed_min_matches_scan(trace in arb_trace(), frames in 1usize..12) {
            let (f_idx, v_idx) =
                recorded_run(frames, &trace, Box::new(MinRepl::new(&trace)));
            let (f_scan, v_scan) =
                recorded_run(frames, &trace, Box::new(ScanMin::new(&trace)));
            prop_assert_eq!(f_idx, f_scan);
            prop_assert_eq!(v_idx, v_scan);
        }
    }
}
