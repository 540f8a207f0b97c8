//! E9 — the appendix survey, measured.
//!
//! One phase-structured program runs on all seven machines; the output
//! is the appendix as a table: each machine's position on the four
//! characteristic axes, then what actually happened — faults, traffic,
//! addressing overhead, bounds interception.

use crate::workloads::survey_program_cfg;
use dsa_exec::SimGrid;
use dsa_machines::presets::{favoured, machine_by_index, machine_count};
use dsa_machines::report::Machine;
use dsa_metrics::table::Table;
use dsa_trace::rng::Rng64;

use crate::{Args, Failure, Report};

pub(super) fn run(args: &Args, rep: &mut Report) -> Result<(), Failure> {
    outln!(rep, "E9: the seven appendix machines under one workload\n");
    let mut rng = Rng64::new(9);
    let mut cfg = survey_program_cfg();
    cfg.wild_touch_prob = 0.002;
    let program = cfg.generate(&mut rng);
    outln!(rep,
        "workload: {} segments, {} declared words, {} touches (0.2% wild)\n",
        cfg.segments,
        program.total_declared_words(),
        program.touch_count()
    );

    let mut chars = Table::new(&["machine", "name space", "predictive", "contiguity", "unit"])
        .with_title("the four characteristics (paper's classification)");
    let mut results = Table::new(&[
        "machine",
        "faults",
        "fault rate",
        "words in",
        "words out",
        "ns/touch map",
        "bounds caught",
        "wild missed",
        "fetch wait",
    ])
    .with_title("measured on the survey workload");
    // Each machine runs the shared workload independently: the seven
    // appendix presets plus the authors' favoured combination. Machines
    // are built inside their cell (they are stateful), then both rows
    // are returned together and emitted in grid order.
    let grid = SimGrid::new((0..=machine_count()).collect::<Vec<_>>());
    for (chars_row, results_row) in grid.run(args.jobs(), |_, &i| {
        let mut m: Box<dyn Machine> = if i < machine_count() {
            machine_by_index(i)
        } else {
            Box::new(favoured())
        };
        let c = m.characteristics();
        let chars_row = vec![
            m.name().to_owned(),
            c.name_space.label().to_owned(),
            c.predictive.label().to_owned(),
            c.contiguity.label().to_owned(),
            c.unit.label().to_owned(),
        ];
        let r = m
            .run(&program.ops)
            .expect("survey workload runs everywhere");
        let results_row = vec![
            m.name().to_owned(),
            r.faults.to_string(),
            format!("{:.4}", r.fault_rate()),
            r.fetched_words.to_string(),
            r.writeback_words.to_string(),
            format!("{:.0}", r.mean_map_overhead_nanos()),
            r.bounds_caught.to_string(),
            r.wild_undetected.to_string(),
            r.fetch_time.to_string(),
        ];
        (chars_row, results_row)
    }) {
        chars.row_owned(chars_row);
        results.row_owned(results_row);
    }
    outln!(rep, "{chars}");
    rep.table("survey", results);
    outln!(rep,
        "things to see: the segmented machines (B5000, Rice, B8500,\n\
         MULTICS) intercept every wild subscript while the linear and\n\
         packed-segment machines let them through; the Rice machine pays\n\
         its tape latency on every segment fault; the B8500's associative\n\
         memory undercuts the B5000's descriptor-access overhead; the big\n\
         cores (M44, 360/67, MULTICS) fault only on first touch. the\n\
         eighth row is the combination the authors themselves favoured —\n\
         no 1967 machine built it, but the components compose it: symbolic\n\
         segments with full bounds interception, advice accepted, cheap\n\
         cached descriptor access, and large segments in separate blocks."
    );
    Ok(())
}
