//! E13 — segmentation advantage (iii): automatic interception of
//! illegal subscripts.
//!
//! "Each array used by a program can be specified to be a separate
//! segment in order that attempted violations of the array bounds can be
//! intercepted." A name space that carries per-object structure traps a
//! wild subscript at the limit check (special hardware facility (ii));
//! a linear name space lets it land in the neighbouring object's names.
//! We inject a known rate of wild touches and watch each machine's
//! interception rate, and price the check itself.

use crate::workloads::survey_program_cfg;
use dsa_exec::SimGrid;
use dsa_machines::presets::{machine_by_index, machine_count};
use dsa_metrics::table::Table;
use dsa_trace::rng::Rng64;

use crate::{Args, Failure, Report};

pub(super) fn run(args: &Args, rep: &mut Report) -> Result<(), Failure> {
    let mut cfg = survey_program_cfg();
    cfg.wild_touch_prob = 0.01; // 1% of touches are illegal subscripts
    cfg.touches = 20_000;
    let program = cfg.generate(&mut Rng64::new(13));
    let wild_expected: u64 = (program.touch_count() as f64 * 0.01).round() as u64;

    let mut t = Table::new(&[
        "machine",
        "wild caught",
        "wild missed",
        "interception",
        "ns/touch map cost",
    ])
    .with_title(&format!(
        "~{wild_expected} wild touches injected among {} touches",
        program.touch_count()
    ));
    // One independent cell per machine, built inside its cell.
    let grid = SimGrid::new((0..machine_count()).collect::<Vec<_>>());
    for row in grid.run(args.jobs(), |_, &i| {
        let mut m = machine_by_index(i);
        let r = m.run(&program.ops).expect("workload runs everywhere");
        let wild_total = r.bounds_caught + r.wild_undetected;
        let interception = if wild_total == 0 {
            0.0
        } else {
            r.bounds_caught as f64 / wild_total as f64
        };
        vec![
            m.name().to_owned(),
            r.bounds_caught.to_string(),
            r.wild_undetected.to_string(),
            format!("{:.0}%", interception * 100.0),
            format!("{:.0}", r.mean_map_overhead_nanos()),
        ]
    }) {
        t.row_owned(row);
    }
    rep.table("bounds", t);
    Ok(())
}
