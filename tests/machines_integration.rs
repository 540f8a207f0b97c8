//! Cross-crate integration tests: the seven machines end-to-end.

use dsa::core::access::{AccessKind, ProgramOp};
use dsa::core::ids::SegId;
use dsa::machines::{all_machines, atlas, b5000, favoured, m44_44x, multics, rice, Machine};
use dsa::probe::CountingProbe;
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
        compute_between: 2,
    }
}

#[test]
fn runs_are_deterministic_per_machine() {
    let program = survey_cfg().generate(&mut Rng64::new(77));
    for factory in [atlas, m44_44x] {
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
    // Count the wild touches in the stream itself.
    let mut sizes = std::collections::HashMap::new();
    let mut wild = 0u64;
    for op in &program.ops {
        match *op {
            ProgramOp::Define { seg, size } => {
                sizes.insert(seg, size);
            }
            ProgramOp::Touch { seg, offset, .. } if offset >= sizes[&seg] => {
                wild += 1;
            }
            _ => {}
        }
    }
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

    let a_with = atlas().run(&advised.ops).unwrap();
    assert_eq!(a_with.advice_ops, 0, "ATLAS must ignore advice");
}
