//! E2 — Figure 3: the space-time product under demand paging.
//!
//! A single demand-paged program alternately executes and waits for
//! pages; while it waits it still occupies working storage, so its
//! space-time product grows with the page-fetch time. Multiprogramming
//! does not shrink any one program's space-time product, but it
//! overlaps the waits so the *processor* stays busy — the paper's
//! resolution of the Figure 3 danger ("demand paging however can be
//! quite effective ... when the time taken to fetch a page is very
//! small", and overlap "will certainly be the case when ... a
//! sufficient reserve of programs can be kept in working storage").

use dsa_core::clock::Cycles;
use dsa_exec::SimGrid;
use dsa_metrics::table::Table;
use dsa_probe::NullProbe;
use dsa_sched::{
    AdmissionPolicy, EventReport, EventSim, LoadControlCfg, SimConfig, TenantSpec, TraceSpec,
};
use dsa_trace::refstring::RefStringCfg;
use dsa_trace::rng::Rng64;

use crate::{Args, Failure, Report};

/// Frames per job.
const FRAMES: usize = 32;

fn job_trace(seed: u64) -> Vec<dsa_core::ids::PageNo> {
    let cfg = RefStringCfg::LruStack {
        pages: 64,
        theta: 1.4,
    };
    cfg.generate_pages(20_000, &mut Rng64::new(seed))
}

/// Runs the mix: `jobs` programs, each under LRU in its own `FRAMES`
/// frames.
fn simulate(fetch: Cycles, jobs: usize, channels: Option<usize>) -> EventReport {
    let cfg = SimConfig {
        instr_time: Cycles::from_micros(10),
        fetch_time: fetch,
        page_size: 512,
        quantum_refs: 100,
        fetch_channels: channels,
    };
    let specs = (0..jobs)
        .map(|i| {
            let trace = TraceSpec::Pages(job_trace(100 + i as u64));
            TenantSpec::new(i as u32, trace, FRAMES)
        })
        .collect();
    let lc = LoadControlCfg::default();
    EventSim::new(cfg, FRAMES * jobs, AdmissionPolicy::Fixed, lc, specs)
        .run(&mut NullProbe)
        .expect("compact sets cannot fail")
}

pub(super) fn run(args: &Args, rep: &mut Report) -> Result<(), Failure> {
    let workers = args.jobs();
    outln!(rep, "E2: storage utilization with demand paging (Figure 3)\n");
    let devices = [
        ("fast store (20 us)", Cycles::from_micros(20)),
        ("drum (8 ms)", Cycles::from_millis(8)),
        ("disk (165 ms)", Cycles::from_millis(165)),
    ];

    let mut t = Table::new(&[
        "backing store",
        "jobs",
        "cpu util",
        "wait share of space-time",
        "space-time/job (word-ms)",
    ])
    .with_title("64-page program, 32 frames, LRU, 10 us/ref");
    // One multiprogramming-level sweep per backing store; every level
    // is an independent simulation.
    let levels = [1usize, 2, 4, 8];
    for (name, fetch) in devices {
        let reports = SimGrid::new(levels.to_vec()).run(workers, |_, &jobs| simulate(fetch, jobs, None));
        for (&jobs, r) in levels.iter().zip(reports) {
            let st = r.space_time;
            t.row_owned(vec![
                name.to_owned(),
                jobs.to_string(),
                format!("{:.1}%", r.cpu_utilization() * 100.0),
                format!("{:.1}%", st.waiting_fraction() * 100.0),
                format!("{:.1}", st.total_word_millis() / jobs as f64),
            ]);
        }
    }
    rep.table("space_time", t);

    // The fine print of the overlap argument: it assumes "extra page
    // transmission" capacity. With one drum channel the fetches queue
    // and multiprogramming's rescue saturates early.
    let mut t = Table::new(&["channels", "cpu util (8 jobs)", "wait share"])
        .with_title("drum, 8 jobs, limited transfer channels");
    let grid = SimGrid::new(vec![
        ("1", Some(1)),
        ("2", Some(2)),
        ("4", Some(4)),
        ("ample", None),
    ]);
    for row in grid.run(workers, |_, &(label, channels)| {
        let r = simulate(Cycles::from_millis(8), 8, channels);
        vec![
            label.to_owned(),
            format!("{:.1}%", r.cpu_utilization() * 100.0),
            format!("{:.1}%", r.space_time.waiting_fraction() * 100.0),
        ]
    }) {
        t.row_owned(row);
    }
    rep.table("channel_limits", t);
    outln!(rep,
        "reading the table: with a slow backing store a lone program's\n\
         space-time is almost all wait (Figure 3's shaded area) and the\n\
         processor idles; adding programs overlaps the waits and restores\n\
         processor utilization, while a very fast store makes even the\n\
         lone program's wait share small."
    );
    Ok(())
}
