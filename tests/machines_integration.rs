//! Cross-crate integration tests: the seven machines end-to-end.

use dsa::core::access::{AccessKind, ProgramOp};
use dsa::core::ids::SegId;
use dsa::core::taxonomy::{AllocationUnit, NameSpaceKind, PredictiveInfo, SystemCharacteristics};
use dsa::faults::FaultConfig;
use dsa::freelist::freelist::{FreeListAllocator, Placement};
use dsa::machines::device::MapDevice;
use dsa::machines::driver::Backend;
use dsa::machines::paged::{NameLayout, OneExtent, Paged, PerObject};
use dsa::machines::{
    all_machines, atlas, b5000, favoured, m44_44x, multics, rice, Composed, Machine, MachineReport,
};
use dsa::mapping::{
    AssocMemory, AssocPolicy, BlockMap, FrameAssociativeMap, MapCosts, TwoLevelMap,
};
use dsa::paging::paged::PagedMemory;
use dsa::paging::replacement::lru::LruRepl;
use dsa::probe::{CountingProbe, Event, EventKind, Probe};
use dsa::seg::store::{SegReplacement, SegmentStore, StoreBackend};
use dsa::storage::level::presets::atlas_drum;
use dsa::trace::allocstream::SizeDist;
use dsa::trace::{ProgramCfg, Rng64};

fn survey_cfg() -> ProgramCfg {
    ProgramCfg {
        segments: 32,
        seg_sizes: SizeDist::Exponential {
            mean: 600.0,
            cap: 3000,
        },
        touches: 10_000,
        phase_set: 5,
        phase_len: 400,
        write_fraction: 0.3,
        resize_prob: 0.05,
        advice_accuracy: None,
        wild_touch_prob: 0.001,
        ..ProgramCfg::default()
    }
}

#[test]
fn runs_are_deterministic_per_machine() {
    let program = survey_cfg().generate(&mut Rng64::new(77));
    let factories: [fn() -> Box<dyn Machine>; 2] = [|| Box::new(atlas()), || Box::new(m44_44x())];
    for factory in factories {
        let r1 = {
            let mut m = factory();
            m.run(&program.ops).unwrap()
        };
        let r2 = {
            let mut m = factory();
            m.run(&program.ops).unwrap()
        };
        assert_eq!(r1.faults, r2.faults, "{}", r1.machine);
        assert_eq!(r1.fetched_words, r2.fetched_words);
        assert_eq!(r1.map_time, r2.map_time);
        assert_eq!(r1.bounds_caught, r2.bounds_caught);
    }
}

/// Nothing a machine reports or emits may depend on how its tables
/// happen to be laid out in the host's memory: every preset, built
/// twice, must tell the same story twice — on a program that resizes,
/// subscripts wildly, advises, deletes everything and then declares
/// the same segment numbers again.
#[test]
fn every_preset_repeats_exactly() {
    let mut cfg = survey_cfg();
    cfg.touches = 4_000;
    cfg.wild_touch_prob = 0.01;
    cfg.advice_accuracy = Some(0.8);
    let mut ops = cfg.generate(&mut Rng64::new(81)).ops;
    ops.extend(cfg.generate(&mut Rng64::new(82)).ops);
    let presets = || {
        let mut machines = all_machines();
        machines.push(Box::new(favoured()));
        machines
    };
    for (mut first, mut second) in presets().into_iter().zip(presets()) {
        let (mut seen_first, mut seen_second) = (CountingProbe::new(), CountingProbe::new());
        let a = first.run_probed(&ops, &mut seen_first).unwrap();
        let b = second.run_probed(&ops, &mut seen_second).unwrap();
        assert!(a.touches > 0 && a.faults > 0, "{}: {a:?}", first.name());
        // `Debug` prints every field, the recovery report included.
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(seen_first, seen_second, "{}", first.name());
    }
}

#[test]
fn every_wild_touch_is_accounted_for_exactly_once() {
    let mut cfg = survey_cfg();
    cfg.wild_touch_prob = 0.01;
    cfg.resize_prob = 0.0; // keep declared sizes stable for the count
    let program = cfg.generate(&mut Rng64::new(78));
    let wild = wild_touches(&program.ops);
    assert!(wild > 0, "workload must contain wild touches");
    for mut m in all_machines() {
        let r = m.run(&program.ops).unwrap();
        assert_eq!(
            r.bounds_caught + r.wild_undetected,
            wild,
            "{}: wild touches must be either caught or counted as missed",
            m.name()
        );
    }
}

#[test]
fn fetch_traffic_is_conserved() {
    // Words fetched must be at least the words of distinct information
    // touched, and writebacks can never exceed what was fetched plus
    // what was written in place.
    let program = survey_cfg().generate(&mut Rng64::new(79));
    for mut m in all_machines() {
        let r = m.run(&program.ops).unwrap();
        assert!(r.fetched_words > 0, "{}", m.name());
        assert!(
            r.writeback_words <= r.fetched_words,
            "{}: wrote back {} but fetched only {}",
            m.name(),
            r.writeback_words,
            r.fetched_words
        );
        assert!(r.faults <= r.touches, "{}", m.name());
    }
}

#[test]
fn segmented_machines_honour_dynamic_segments() {
    // Define, grow, touch the grown region, shrink, watch the bounds
    // check move.
    let ops = vec![
        ProgramOp::Define {
            seg: SegId(0),
            size: 100,
        },
        ProgramOp::Touch {
            seg: SegId(0),
            offset: 99,
            kind: AccessKind::Write,
        },
        ProgramOp::Resize {
            seg: SegId(0),
            size: 300,
        },
        ProgramOp::Touch {
            seg: SegId(0),
            offset: 299,
            kind: AccessKind::Read,
        },
        ProgramOp::Resize {
            seg: SegId(0),
            size: 50,
        },
        ProgramOp::Touch {
            seg: SegId(0),
            offset: 299,
            kind: AccessKind::Read,
        }, // now wild
        ProgramOp::Delete { seg: SegId(0) },
    ];
    for mut m in [
        Box::new(b5000()) as Box<dyn Machine>,
        Box::new(rice()),
        Box::new(multics()),
    ] {
        let r = m.run(&ops).unwrap();
        assert_eq!(r.touches, 3, "{}", m.name());
        assert_eq!(
            r.bounds_caught,
            1,
            "{}: shrink must move the limit",
            m.name()
        );
    }
}

#[test]
fn repeated_touches_of_one_segment_fault_once() {
    let mut ops = vec![ProgramOp::Define {
        seg: SegId(0),
        size: 400,
    }];
    for i in 0..100 {
        ops.push(ProgramOp::Touch {
            seg: SegId(0),
            offset: i * 4 % 400,
            kind: AccessKind::Read,
        });
    }
    for mut m in all_machines() {
        let r = m.run(&ops).unwrap();
        // One segment fetch (segmented) or one fault per touched page
        // (paged, 400 words <= 1 or 2 pages); never more than 2.
        assert!(r.faults <= 2, "{}: {} faults", m.name(), r.faults);
    }
}

#[test]
fn characteristics_are_all_distinct_points() {
    // The seven machines occupy distinct points of the design space —
    // that is the appendix's reason to exist.
    let machines = all_machines();
    for i in 0..machines.len() {
        for j in (i + 1)..machines.len() {
            let a = machines[i].characteristics();
            let b = machines[j].characteristics();
            // B5000 and B8500 share a classification (the B8500 differs
            // in hardware, not in the four axes); everyone else differs.
            let same_ok = (machines[i].name().contains("B5000")
                && machines[j].name().contains("B8500"))
                || (machines[i].name().contains("B8500") && machines[j].name().contains("B5000"));
            if !same_ok {
                // The full description includes extents and page sizes,
                // which separate e.g. the B5000 (1024-word segments)
                // from the Rice machine (core-sized segments).
                assert_ne!(
                    a.describe(),
                    b.describe(),
                    "{} vs {}",
                    machines[i].name(),
                    machines[j].name()
                );
            }
        }
    }
}

#[test]
fn advice_changes_m44_but_not_atlas() {
    let mut cfg = survey_cfg();
    cfg.segments = 48;
    cfg.seg_sizes = SizeDist::Exponential {
        mean: 9_000.0,
        cap: 30_000,
    };
    cfg.advice_accuracy = Some(1.0);
    let advised = cfg.generate(&mut Rng64::new(80));
    cfg.advice_accuracy = None;
    let silent = cfg.generate(&mut Rng64::new(80));

    let with = m44_44x().run(&advised.ops).unwrap();
    let without = m44_44x().run(&silent.ops).unwrap();
    assert!(with.advice_ops > 0);
    assert!(
        with.fetched_words != without.fetched_words || with.faults != without.faults,
        "advice must change the M44's behaviour"
    );

    // This run's vacant reserve evicts pages the faults that fetched
    // them had just loaded: no register may outlive its page.
    let mut a = atlas();
    let advice_ops: u64 = run_checked(&mut a, &advised.ops)
        .iter()
        .map(|r| r.advice_ops)
        .sum();
    assert_eq!(advice_ops, 0, "ATLAS must ignore advice");
}

/// Runs `ops` one at a time through `m`, checking its books after each.
fn run_checked<B: Backend>(m: &mut Composed<B>, ops: &[ProgramOp]) -> Vec<MachineReport> {
    ops.iter()
        .map(|op| {
            let r = m.run(std::slice::from_ref(op)).unwrap();
            m.check_invariants();
            r
        })
        .collect()
}

#[test]
fn atlas_registers_follow_the_engine_through_bad_frames() {
    let program = survey_cfg().generate(&mut Rng64::new(81));
    let mut m = atlas().with_fault_injection(5, FaultConfig::off().with_bad_frames(0.05));
    let quarantined: u64 = run_checked(&mut m, &program.ops)
        .iter()
        .map(|r| r.recovery.frames_quarantined)
        .sum();
    assert!(quarantined > 0, "no frame was ever quarantined");
}

/// The touches of `ops` beyond their segment's declared size (no resizes).
fn wild_touches(ops: &[ProgramOp]) -> u64 {
    let mut sizes = std::collections::HashMap::new();
    let mut wild = 0;
    for op in ops {
        match *op {
            ProgramOp::Define { seg, size } => drop(sizes.insert(seg, size)),
            ProgramOp::Touch { seg, offset, .. } => wild += u64::from(offset >= sizes[&seg]),
            _ => {}
        }
    }
    wild
}

/// The survey program with wild subscripts and advice but no resizes.
fn wild_advised_program(seed: u64) -> Vec<ProgramOp> {
    let mut cfg = survey_cfg();
    cfg.wild_touch_prob = 0.01;
    cfg.resize_prob = 0.0;
    cfg.advice_accuracy = Some(0.8);
    cfg.generate(&mut Rng64::new(seed)).ops
}

/// The points of layout x device the types refuse, and why:
/// `PerObject: NameLayout<D>` holds for the two-level map alone.
const EMPTY: [(&str, &str); 2] = [
    ("per object / frame-associative", NO_LIMIT),
    ("per object / mapping store", NO_LIMIT),
];
const NO_LIMIT: &str = "per-object names over a flat device: no per-segment limit to check";

/// What must hold at every point of the design space, built in 1967 or not.
fn exercise<B: Backend>(mut m: Composed<B>) -> &'static str {
    let ops = wild_advised_program(83);
    let (chars, at) = (m.characteristics(), m.name());
    let r = m.run(&ops).unwrap_or_else(|e| panic!("{at}: {e}"));
    m.check_invariants();
    assert!(r.touches > 0 && r.fetched_words > 0, "{at}: {r:?}");
    assert!(r.writeback_words <= r.fetched_words, "{at}: {r:?}");
    assert!(r.faults <= r.touches, "{at}: {r:?}");
    let wild = wild_touches(&ops);
    assert_eq!(r.bounds_caught + r.wild_undetected, wild, "{at}: {r:?}");
    let advised = chars.predictive != PredictiveInfo::None;
    assert_eq!(r.advice_ops > 0, advised, "{at}: {r:?}");
    at
}

/// The four axes as `like` states them, but for the predictive one.
fn point(mut like: SystemCharacteristics, advice: bool) -> SystemCharacteristics {
    like.predictive = [PredictiveInfo::None, PredictiveInfo::Advisory][usize::from(advice)];
    like
}

/// A paged point: `L` lays out the M44's names if `device` is flat and
/// MULTICS's if not, in 1024-word pages either way.
fn paged<L: NameLayout<D>, D: MapDevice>(
    at: &'static str,
    device: D,
    advice: bool,
) -> &'static str {
    let like = [multics().characteristics(), m44_44x().characteristics()];
    let chars = point(like[usize::from(D::PAGES_ARE_NAMES)].clone(), advice);
    let memory = PagedMemory::new(32, Box::new(LruRepl::new()));
    let m = Composed::<Paged<L, D>>::paged(at, chars, device, memory, atlas_drum());
    exercise(m)
}

fn segmented(at: &'static str, cache: Option<AssocMemory>, advice: bool) -> &'static str {
    let words = FreeListAllocator::new(16_384, Placement::BestFit);
    let store = SegmentStore::new(StoreBackend::FreeList(words), SegReplacement::Cyclic, 1024);
    let chars = point(b5000().characteristics(), advice);
    let m = Composed::segmented(at, chars, store, MapCosts::default(), cache, atlas_drum());
    exercise(m)
}

/// The independence claim, enumerated: every combination of the axes
/// the driver takes as parameters — name layout x mapping device and,
/// for whole segments, descriptor cache or none, each with and without
/// advice — runs the common workload or is in `EMPTY` with its reason.
#[test]
fn every_point_of_the_axes_runs_or_names_why_it_is_empty() {
    let associative = || FrameAssociativeMap::new(32, 10, 2 << 20, MapCosts::default());
    let store = || BlockMap::new(2048, 10, MapCosts::default());
    let two_level =
        || TwoLevelMap::new(4096, 262_144, 10, 8, AssocPolicy::Lru, MapCosts::default());
    let cache = || Some(AssocMemory::new(8, AssocPolicy::Lru));
    for advice in [false, true] {
        let ran = [
            paged::<OneExtent, _>("one extent / frame-associative", associative(), advice),
            paged::<OneExtent, _>("one extent / mapping store", store(), advice),
            paged::<OneExtent, _>("one extent / two-level", two_level(), advice),
            paged::<PerObject, _>("per object / two-level", two_level(), advice),
            segmented("segments / descriptors in core", None, advice),
            segmented("segments / descriptor cache", cache(), advice),
        ];
        assert_eq!(ran.len() + EMPTY.len(), 2 * 3 + 2, "{ran:?} {EMPTY:?}");
    }
}

/// The words of every fetch a run makes.
struct Fetches(Vec<u64>);

impl Probe for Fetches {
    fn record(&mut self, event: &Event) {
        if let EventKind::FetchDone { words } = event.kind {
            self.0.push(words);
        }
    }
}

/// `characteristics()` is held to what the machine does, axis by axis.
#[test]
fn characteristics_say_what_the_machine_does() {
    let ops = wild_advised_program(84);
    let mut silent = ops.clone();
    silent.retain(|op| !matches!(op, ProgramOp::Advise { .. }));
    let presets = || {
        all_machines()
            .into_iter()
            .chain([Box::new(favoured()) as _])
    };
    for (mut advised, mut unadvised) in presets().zip(presets()) {
        let (chars, name) = (advised.characteristics(), advised.name());
        let mut fetched = Fetches(Vec::new());
        let r = advised.run_probed(&ops, &mut fetched).unwrap();
        let same = format!("{r:?}") == format!("{:?}", unadvised.run(&silent).unwrap());
        assert_eq!(same, chars.predictive == PredictiveInfo::None, "{name}");
        // Of the segmented presets only the 360/67 packs its objects into one segment.
        let segmented = !matches!(chars.name_space, NameSpaceKind::Linear { .. });
        let a_segment_each = segmented && name != "IBM 360/67";
        assert_eq!(r.wild_undetected == 0, a_segment_each, "{name}: {r:?}");
        // A fetch is one page of a stated size, or one object whole (cut at the ceiling).
        let is_a_unit = |words: &u64| match (&chars.unit, &chars.name_space) {
            (AllocationUnit::Uniform { page_size }, _) => words == page_size,
            (AllocationUnit::MultiSize { sizes }, _) => sizes.contains(words),
            (_, NameSpaceKind::SymbolicallySegmented { max_segment_extent }) => {
                let max = *max_segment_extent;
                let whole = |size: u64| [size.min(max), size % max].contains(words);
                (ops.iter()).any(|op| matches!(*op, ProgramOp::Define { size, .. } if whole(size)))
            }
            other => panic!("{name}: no preset allocates {other:?}"),
        };
        assert!(fetched.0.iter().all(is_a_unit), "{name}: {r:?}");
    }
}
