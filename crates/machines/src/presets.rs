//! The seven machines, with the appendix's published parameters.

use dsa_core::clock::Cycles;
use dsa_core::ids::Words;
use dsa_core::taxonomy::{
    AllocationUnit, Contiguity, NameSpaceKind, PredictiveInfo, SystemCharacteristics,
};
use dsa_freelist::freelist::{FreeListAllocator, Placement};
use dsa_freelist::rice::RiceAllocator;
use dsa_mapping::associative::{AssocMemory, AssocPolicy, FrameAssociativeMap};
use dsa_mapping::block_map::BlockMap;
use dsa_mapping::cost::MapCosts;
use dsa_mapping::two_level::TwoLevelMap;
use dsa_paging::paged::PagedMemory;
use dsa_paging::replacement::atlas::AtlasLearning;
use dsa_paging::replacement::nru::ClassRandomRepl;
use dsa_seg::store::{SegReplacement, SegmentStore, StoreBackend};
use dsa_storage::level::presets as levels;

use crate::driver::Composed;
use crate::paged::{OneExtent, Paged, PerObject};
use crate::report::Machine;
use crate::segments::Segments;

/// Ferranti ATLAS (A.1): 16K-word core + 98K-word drum, 512-word pages,
/// frame-associative mapping, the learning-program replacement strategy
/// with one frame kept vacant. The first demand-paging machine.
#[must_use]
pub fn atlas() -> Composed<Paged<OneExtent, FrameAssociativeMap>> {
    let core = levels::atlas_core();
    let page_size: Words = 512;
    let frames = (core.capacity / page_size) as usize; // 32
    let name_extent: Words = 1 << 20; // the one-level store's large linear space
    let costs = MapCosts::for_core_cycle(core.latency);
    Composed::paged(
        "Ferranti ATLAS",
        SystemCharacteristics {
            name_space: NameSpaceKind::Linear {
                extent: name_extent,
            },
            predictive: PredictiveInfo::None,
            contiguity: Contiguity::Artificial,
            unit: AllocationUnit::Uniform { page_size },
        },
        FrameAssociativeMap::new(frames, 9, name_extent, costs),
        PagedMemory::new(frames, Box::new(AtlasLearning::new())).with_vacant_reserve(),
        levels::atlas_drum(),
    )
}

/// IBM M44/44X (A.2): ~200K words of 8 µs core, IBM 1301 disk backing,
/// 2M-word virtual name space per 44X, mapping store, class-based random
/// replacement, and the two advice instructions.
#[must_use]
pub fn m44_44x() -> Composed<Paged<OneExtent, BlockMap>> {
    let core = levels::m44_core();
    let page_size: Words = 1024; // "may be varied at system start-up"
    let frames = (core.capacity / page_size) as usize; // 195
    let name_extent: Words = 2 * 1024 * 1024; // "approximately two million words"
    let costs = MapCosts::for_core_cycle(core.latency);
    Composed::paged(
        "IBM M44/44X",
        SystemCharacteristics {
            name_space: NameSpaceKind::Linear {
                extent: name_extent,
            },
            predictive: PredictiveInfo::Advisory,
            contiguity: Contiguity::Artificial,
            unit: AllocationUnit::Uniform { page_size },
        },
        BlockMap::new((name_extent / page_size) as usize, 10, costs),
        PagedMemory::new(frames, Box::new(ClassRandomRepl::new(44, 8))),
        levels::ibm1301_disk(),
    )
}

/// Burroughs B5000 (A.3): symbolically segmented, segments of at most
/// 1024 words allocated directly (best-fit — "choosing the smallest
/// available block of sufficient size"), cyclic replacement, fetch on
/// first reference.
#[must_use]
pub fn b5000() -> Composed<Segments> {
    let core = levels::b5000_core();
    let costs = MapCosts::for_core_cycle(core.latency);
    Composed::segmented(
        "Burroughs B5000",
        SystemCharacteristics {
            name_space: NameSpaceKind::SymbolicallySegmented {
                max_segment_extent: 1024,
            },
            predictive: PredictiveInfo::None,
            contiguity: Contiguity::Physical,
            unit: AllocationUnit::Variable,
        },
        SegmentStore::new(
            StoreBackend::FreeList(FreeListAllocator::new(core.capacity, Placement::BestFit)),
            SegReplacement::Cyclic,
            1024,
        ),
        costs,
        None,
        levels::b5000_drum(),
    )
}

/// Rice University Computer (A.4): codeword-characterized segments,
/// sequential placement with the inactive-block chain, deferred
/// combining, the iterative replacement algorithm — and only magnetic
/// tape behind working storage.
#[must_use]
pub fn rice() -> Composed<Segments> {
    let core = levels::rice_core();
    let costs = MapCosts::for_core_cycle(core.latency);
    Composed::segmented(
        "Rice University Computer",
        SystemCharacteristics {
            name_space: NameSpaceKind::SymbolicallySegmented {
                max_segment_extent: core.capacity,
            },
            predictive: PredictiveInfo::None,
            contiguity: Contiguity::Physical,
            unit: AllocationUnit::Variable,
        },
        SegmentStore::new(
            StoreBackend::Rice(RiceAllocator::new(core.capacity)),
            SegReplacement::RiceIterative,
            core.capacity,
        ),
        costs,
        None,
        levels::tape(),
    )
}

/// Burroughs B8500 (A.5): the B5000 scheme with a 44-word thin-film
/// associative memory retaining recently used PRT elements, on a much
/// faster and larger machine.
#[must_use]
pub fn b8500() -> Composed<Segments> {
    let costs = MapCosts::for_core_cycle(Cycles::from_nanos(500));
    Composed::segmented(
        "Burroughs B8500",
        SystemCharacteristics {
            name_space: NameSpaceKind::SymbolicallySegmented {
                max_segment_extent: 1024,
            },
            predictive: PredictiveInfo::None,
            contiguity: Contiguity::Physical,
            unit: AllocationUnit::Variable,
        },
        SegmentStore::new(
            StoreBackend::FreeList(FreeListAllocator::new(65_536, Placement::BestFit)),
            SegReplacement::Cyclic,
            1024,
        ),
        costs,
        Some(AssocMemory::new(44, AssocPolicy::Lru)),
        levels::b5000_drum(),
    )
}

/// MULTICS / GE 645 (A.6): the "small but useful" configuration — 128K
/// words of core, drum behind it; a linearly segmented name space used
/// symbolically; Figure 4 mapping with a small associative memory;
/// paged allocation; keep/fetch/release advice.
///
/// The machine is simulated with uniform 1024-word pages; the 64-word
/// small-page refinement is treated analytically in experiments E6/E11
/// (`dsa_freelist::frag::dual_size_waste`).
///
/// # Panics
///
/// Never panics; the configuration is statically valid.
#[must_use]
pub fn multics() -> Composed<Paged<PerObject, TwoLevelMap>> {
    let core = levels::ge645_core();
    let page_size: Words = 1024;
    let frames = (core.capacity / page_size) as usize; // 128
    let costs = MapCosts::for_core_cycle(core.latency);
    Composed::paged(
        "MULTICS (GE 645)",
        SystemCharacteristics {
            name_space: NameSpaceKind::LinearlySegmented {
                max_segments: 4096,
                max_segment_extent: 262_144, // 256K words
            },
            predictive: PredictiveInfo::Advisory,
            contiguity: Contiguity::Artificial,
            unit: AllocationUnit::MultiSize {
                sizes: vec![64, 1024],
            },
        },
        TwoLevelMap::new(4096, 262_144, 10, 16, AssocPolicy::Lru, costs),
        PagedMemory::new(frames, Box::new(ClassRandomRepl::new(645, 8))),
        levels::ge645_drum(),
    )
}

/// IBM System/360 Model 67 (A.7): 24-bit addressing — 16 segments of a
/// million bytes; two-level mapping with an 8-entry associative memory;
/// 4096-byte (1024-word) pages; independent programs packed into one
/// segment, so segmentation conveys no structure.
///
/// # Panics
///
/// Never panics; the configuration is statically valid.
#[must_use]
pub fn model67() -> Composed<Paged<OneExtent, TwoLevelMap>> {
    let core = levels::model67_core();
    let page_size: Words = 1024;
    let frames = (core.capacity / page_size) as usize; // 192
    let seg_extent: Words = 262_144; // 1M bytes in 32-bit words
    let costs = MapCosts::for_core_cycle(core.latency);
    Composed::paged(
        "IBM 360/67",
        SystemCharacteristics {
            name_space: NameSpaceKind::LinearlySegmented {
                max_segments: 16,
                max_segment_extent: seg_extent,
            },
            predictive: PredictiveInfo::None,
            contiguity: Contiguity::Artificial,
            unit: AllocationUnit::Uniform { page_size },
        },
        TwoLevelMap::new(16, seg_extent, 10, 8, AssocPolicy::Lru, costs),
        PagedMemory::new(frames, Box::new(ClassRandomRepl::new(67, 8))),
        levels::model67_drum(),
    )
}

/// All seven machines, in appendix order.
#[must_use]
pub fn all_machines() -> Vec<Box<dyn Machine>> {
    (0..machine_count()).map(machine_by_index).collect()
}

/// Number of appendix machines ([`machine_by_index`]'s domain).
#[must_use]
pub const fn machine_count() -> usize {
    7
}

/// Constructs appendix machine `index` (0-based, appendix order). Lets
/// a parallel sweep build each worker's machine on the worker itself
/// instead of shipping one pre-built list across threads.
///
/// # Panics
///
/// Panics if `index >= machine_count()`.
#[must_use]
pub fn machine_by_index(index: usize) -> Box<dyn Machine> {
    match index {
        0 => Box::new(atlas()),
        1 => Box::new(m44_44x()),
        2 => Box::new(b5000()),
        3 => Box::new(rice()),
        4 => Box::new(b8500()),
        5 => Box::new(multics()),
        6 => Box::new(model67()),
        _ => panic!("machine index {index} out of range"),
    }
}

/// The authors' own favoured combination (end of §Basic
/// Characteristics): "(i) a symbolically segmented name space; (ii)
/// provisions for accepting predictions about future use of segments;
/// (iii) artificial contiguity used if it is essential, to provide
/// large segments, but with use of the mapping device avoided in
/// accessing small segments; and (iv) nonuniform units of allocation,
/// corresponding closely to the size of small segments, but with large
/// segments if allowed, allocated using a set of separate blocks."
///
/// No 1967 machine built this point; our components compose it
/// directly: symbolic segments allocated request-sized, large segments
/// chunked into separate 4096-word blocks (the per-segment chunk map is
/// the "mapping device used only if essential"), a descriptor cache so
/// small-segment access avoids the table walk, and the full advisory
/// repertoire.
#[must_use]
pub fn favoured() -> Composed<Segments> {
    let costs = MapCosts::for_core_cycle(Cycles::from_micros(1));
    Composed::segmented(
        "Favoured (Randell-Kuehner)",
        SystemCharacteristics {
            name_space: NameSpaceKind::SymbolicallySegmented {
                max_segment_extent: u64::MAX,
            },
            predictive: PredictiveInfo::Advisory,
            contiguity: Contiguity::Artificial,
            unit: AllocationUnit::Variable,
        },
        SegmentStore::new(
            StoreBackend::FreeList(FreeListAllocator::new(49_152, Placement::BestFit)),
            SegReplacement::RiceIterative,
            4096,
        ),
        costs,
        Some(AssocMemory::new(44, AssocPolicy::Lru)),
        levels::ge645_drum(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_core::access::{AccessKind, ProgramOp};
    use dsa_core::ids::SegId;
    use dsa_trace::program::ProgramCfg;
    use dsa_trace::rng::Rng64;

    fn tiny_program() -> Vec<ProgramOp> {
        vec![
            ProgramOp::Define {
                seg: SegId(0),
                size: 600,
            },
            ProgramOp::Define {
                seg: SegId(1),
                size: 1500,
            },
            ProgramOp::Touch {
                seg: SegId(0),
                offset: 10,
                kind: AccessKind::Read,
            },
            ProgramOp::Touch {
                seg: SegId(0),
                offset: 11,
                kind: AccessKind::Write,
            },
            ProgramOp::Touch {
                seg: SegId(1),
                offset: 1400,
                kind: AccessKind::Read,
            },
            ProgramOp::Touch {
                seg: SegId(1),
                offset: 2000,
                kind: AccessKind::Read,
            }, // wild
            ProgramOp::Delete { seg: SegId(0) },
            ProgramOp::Delete { seg: SegId(1) },
        ]
    }

    #[test]
    fn every_machine_runs_the_tiny_program() {
        for mut m in all_machines() {
            let r = m
                .run(&tiny_program())
                .unwrap_or_else(|_| panic!("{}", m.name()));
            assert_eq!(r.touches, 4, "{}", m.name());
            assert!(r.faults >= 1, "{} took no faults", m.name());
            assert!(
                r.bounds_caught + r.wild_undetected == 1,
                "{}: wild touch must be caught or counted as undetected",
                m.name()
            );
        }
    }

    #[test]
    fn segmented_machines_catch_the_wild_touch() {
        for mut m in [
            Box::new(b5000()) as Box<dyn Machine>,
            Box::new(rice()),
            Box::new(b8500()),
        ] {
            let r = m.run(&tiny_program()).unwrap();
            assert_eq!(r.bounds_caught, 1, "{}", m.name());
            assert_eq!(r.wild_undetected, 0, "{}", m.name());
        }
    }

    #[test]
    fn linear_machines_miss_the_wild_touch() {
        for mut m in [Box::new(atlas()) as Box<dyn Machine>, Box::new(m44_44x())] {
            let r = m.run(&tiny_program()).unwrap();
            assert_eq!(r.wild_undetected, 1, "{}", m.name());
            assert_eq!(r.bounds_caught, 0, "{}", m.name());
        }
    }

    #[test]
    fn multics_catches_but_model67_misses() {
        let r = multics().run(&tiny_program()).unwrap();
        assert_eq!(
            r.bounds_caught, 1,
            "MULTICS per-object segments check bounds"
        );
        let r = model67().run(&tiny_program()).unwrap();
        assert_eq!(r.wild_undetected, 1, "the packed 360/67 segment cannot");
    }

    #[test]
    fn characteristics_match_the_survey() {
        let a = atlas();
        assert!(matches!(
            a.characteristics().name_space,
            NameSpaceKind::Linear { .. }
        ));
        assert_eq!(a.characteristics().predictive, PredictiveInfo::None);
        let m = m44_44x();
        assert_eq!(m.characteristics().predictive, PredictiveInfo::Advisory);
        let b = b5000();
        assert_eq!(b.characteristics().unit, AllocationUnit::Variable);
        assert_eq!(b.characteristics().contiguity, Contiguity::Physical);
        let mu = multics();
        assert!(matches!(
            mu.characteristics().unit,
            AllocationUnit::MultiSize { .. }
        ));
    }

    #[test]
    fn synthetic_program_runs_everywhere() {
        let mut rng = Rng64::new(9);
        let cfg = ProgramCfg {
            segments: 12,
            touches: 3000,
            ..ProgramCfg::default()
        };
        let program = cfg.generate(&mut rng);
        for mut m in all_machines() {
            let r = m
                .run(&program.ops)
                .unwrap_or_else(|_| panic!("{}", m.name()));
            assert_eq!(r.touches, 3000, "{}", m.name());
            assert!(r.faults > 0, "{}", m.name());
            assert!(r.fetched_words > 0, "{}", m.name());
        }
    }

    #[test]
    fn advice_machines_act_on_advice() {
        let mut rng = Rng64::new(10);
        let cfg = ProgramCfg {
            segments: 12,
            touches: 2000,
            advice_accuracy: Some(1.0),
            ..ProgramCfg::default()
        };
        let program = cfg.generate(&mut rng);
        let r = m44_44x().run(&program.ops).unwrap();
        assert!(r.advice_ops > 0, "M44 must act on advice");
        let r = multics().run(&program.ops).unwrap();
        assert!(r.advice_ops > 0, "MULTICS must act on advice");
        let r = atlas().run(&program.ops).unwrap();
        assert_eq!(r.advice_ops, 0, "ATLAS accepts no predictive information");
    }

    #[test]
    fn favoured_design_combines_the_virtues() {
        let mut rng = Rng64::new(12);
        let mut cfg = ProgramCfg {
            segments: 16,
            touches: 4000,
            advice_accuracy: Some(1.0),
            ..ProgramCfg::default()
        };
        cfg.wild_touch_prob = 0.01;
        let program = cfg.generate(&mut rng);
        let mut m = favoured();
        let r = m.run(&program.ops).unwrap();
        // Symbolic segmentation: every wild touch caught.
        assert_eq!(r.wild_undetected, 0);
        assert!(r.bounds_caught > 0);
        // Advisory: directives are honoured.
        assert!(r.advice_ops > 0);
        // Descriptor cache: mapping overhead in the associative range,
        // far below a raw table walk on a 1 us core.
        assert!(
            r.mean_map_overhead_nanos() < 1000.0,
            "{}",
            r.mean_map_overhead_nanos()
        );
        // Large segments work despite variable allocation.
        let chars = m.characteristics();
        assert!(matches!(
            chars.name_space,
            NameSpaceKind::SymbolicallySegmented {
                max_segment_extent: u64::MAX
            }
        ));
    }

    #[test]
    fn b5000_ignores_advice_but_favoured_acts() {
        let mut rng = Rng64::new(13);
        let cfg = ProgramCfg {
            segments: 12,
            touches: 2000,
            advice_accuracy: Some(1.0),
            ..ProgramCfg::default()
        };
        let program = cfg.generate(&mut rng);
        let r5 = b5000().run(&program.ops).unwrap();
        assert_eq!(r5.advice_ops, 0, "the real B5000 accepted no predictions");
        let rf = favoured().run(&program.ops).unwrap();
        assert!(rf.advice_ops > 0);
    }

    #[test]
    fn b8500_mapping_is_cheaper_than_b5000() {
        let mut rng = Rng64::new(11);
        let program = ProgramCfg {
            segments: 10,
            touches: 4000,
            ..ProgramCfg::default()
        }
        .generate(&mut rng);
        let r5000 = b5000().run(&program.ops).unwrap();
        let r8500 = b8500().run(&program.ops).unwrap();
        assert!(
            r8500.mean_map_overhead_nanos() < r5000.mean_map_overhead_nanos(),
            "associative memory must cut descriptor-access overhead: {} vs {}",
            r8500.mean_map_overhead_nanos(),
            r5000.mean_map_overhead_nanos()
        );
    }
}
