//! The "authoritarian compiler": whole-program advice planning.
//!
//! The paper trusts compiler-supplied predictions more than user ones —
//! "but only if it is known that all programs written for the computer
//! system will use such compilers" (the ACSI-MATIC program-description
//! model). This example takes a raw program, lets the
//! [`dsa::trace::AdvicePlanner`] analyse it exactly, and runs raw vs
//! planned on the M44/44X — the machine that actually shipped advice
//! instructions nobody used.
//!
//! ```text
//! cargo run --release --example compiler_advice
//! ```

use dsa::machines::{m44_44x, Machine};
use dsa::metrics::Table;
use dsa::trace::allocstream::SizeDist;
use dsa::trace::{AdvicePlanner, PlannerCfg, ProgramCfg, Rng64};

fn main() {
    let mut rng = Rng64::new(1967);
    let raw = ProgramCfg {
        segments: 48,
        seg_sizes: SizeDist::Exponential {
            mean: 8_000.0,
            cap: 12_000,
        },
        touches: 30_000,
        phase_set: 4,
        phase_len: 500,
        write_fraction: 0.3,
        resize_prob: 0.0,
        advice_accuracy: None,
        wild_touch_prob: 0.0,
        ..ProgramCfg::default()
    }
    .generate(&mut rng);

    let mut t = Table::new(&[
        "lead (ops)",
        "faults",
        "fault rate",
        "prefetches (useful)",
        "fetched words",
    ])
    .with_title("M44/44X: raw program vs compiler-planned advice, by fetch lead time");

    let base = m44_44x().run(&raw.ops).expect("well-formed");
    t.row_owned(vec![
        "no advice".into(),
        base.faults.to_string(),
        format!("{:.4}", base.fault_rate()),
        "0 (0)".into(),
        base.fetched_words.to_string(),
    ]);
    for lead in [5usize, 40, 150, 400] {
        let planner = AdvicePlanner::new(PlannerCfg {
            lead,
            episode_gap: 300,
        });
        let planned = planner.plan(&raw.ops);
        let r = m44_44x().run(&planned).expect("well-formed");
        t.row_owned(vec![
            lead.to_string(),
            r.faults.to_string(),
            format!("{:.4}", r.fault_rate()),
            format!("{} ({})", r.prefetches, r.useful_prefetches),
            r.fetched_words.to_string(),
        ]);
    }
    println!("{t}");
    println!(
        "the planner knows the whole future, yet its value still hinges on\n\
         lead time: too short and the fetch has no head start, too long and\n\
         the prefetched pages are evicted before their episode arrives —\n\
         exactly why the paper warns that even trustworthy predictions are\n\
         'related to the overall situation as regards storage utilization'."
    );
}
