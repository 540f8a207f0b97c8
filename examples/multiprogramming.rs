//! Multiprogramming rescues demand paging (Figure 3's escape hatch).
//!
//! One faulty program on a drum-backed store leaves the processor idle
//! almost all the time; stacking programs overlaps their page waits.
//! This example sweeps the degree of multiprogramming and prints CPU
//! utilization and the per-job space-time split.
//!
//! ```text
//! cargo run --release --example multiprogramming
//! ```

use dsa::core::clock::Cycles;
use dsa::metrics::Table;
use dsa::probe::NullProbe;
use dsa::sched::{AdmissionPolicy, EventSim, LoadControlCfg, SimConfig, TenantSpec, TraceSpec};
use dsa::trace::refstring::RefStringCfg;
use dsa::trace::Rng64;

fn main() {
    let cfg = SimConfig {
        instr_time: Cycles::from_micros(10),
        fetch_time: Cycles::from_millis(8), // a drum
        page_size: 512,
        quantum_refs: 100,
        fetch_channels: None,
    };
    let mut t = Table::new(&[
        "jobs",
        "cpu utilization",
        "makespan",
        "active %",
        "waiting %",
        "ready-idle %",
    ])
    .with_title("drum-backed demand paging, 10 us/ref, 8 ms/fetch");
    for jobs in [1usize, 2, 3, 4, 6, 8, 12] {
        // Each job runs under LRU in 24 frames of its own.
        let specs: Vec<TenantSpec> = (0..jobs)
            .map(|i| {
                let trace = RefStringCfg::LruStack {
                    pages: 64,
                    theta: 1.2,
                }
                .generate_pages(15_000, &mut Rng64::new(500 + i as u64));
                TenantSpec::new(i as u32, TraceSpec::Pages(trace), 24)
            })
            .collect();
        let r = EventSim::new(
            cfg,
            24 * jobs,
            AdmissionPolicy::Fixed,
            LoadControlCfg::default(),
            specs,
        )
        .run(&mut NullProbe)
        .expect("compact sets cannot fail");
        let st = r.space_time;
        let total = st.total().max(1) as f64;
        t.row_owned(vec![
            jobs.to_string(),
            format!("{:.1}%", r.cpu_utilization() * 100.0),
            r.makespan.to_string(),
            format!("{:.1}%", st.active_word_nanos as f64 / total * 100.0),
            format!("{:.1}%", st.waiting_word_nanos as f64 / total * 100.0),
            format!("{:.1}%", st.ready_idle_word_nanos as f64 / total * 100.0),
        ]);
    }
    println!("{t}");
    println!(
        "each job's own space-time stays wait-dominated (the drum is what\n\
         it is), but the processor's idle gaps fill in as jobs are added —\n\
         'the time spent on fetching pages can normally be overlapped with\n\
         the execution of other programs'."
    );
}
