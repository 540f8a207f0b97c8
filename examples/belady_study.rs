//! A pocket Belady study: replacement policies head-to-head.
//!
//! Belady's 1966 study — the paper's reference \[1\] for everything
//! about replacement — compared realizable policies against the offline
//! optimum on abstracted reference strings. This example reruns that
//! comparison on a locality-bearing trace and prints the fault-rate
//! curve against core size.
//!
//! ```text
//! cargo run --release --example belady_study
//! ```

use dsa::metrics::Table;
use dsa::paging::paged::PagedMemory;
use dsa::paging::replacement::ws::working_set_sim;
use dsa::paging::{AtlasLearning, ClockRepl, FifoRepl, LruRepl, MinRepl, Replacer};
use dsa::trace::refstring::RefStringCfg;
use dsa::trace::Rng64;

fn main() {
    let cfg = RefStringCfg::LruStack {
        pages: 50,
        theta: 1.0,
    };
    let trace = cfg.generate_pages(40_000, &mut Rng64::new(1966));
    let frame_counts = [5usize, 10, 15, 20, 25, 30, 40];

    let mut t = Table::new(&["policy", "5", "10", "15", "20", "25", "30", "40"])
        .with_title("fault rate vs frames, 50-page program with LRU-stack locality");
    let names = ["MIN (offline)", "LRU", "Clock", "FIFO", "ATLAS learning"];
    let mut rows: Vec<Vec<String>> = names.iter().map(|n| vec![(*n).to_string()]).collect();
    for &frames in &frame_counts {
        let policies: Vec<Box<dyn Replacer>> = vec![
            Box::new(MinRepl::new(&trace)),
            Box::new(LruRepl::new()),
            Box::new(ClockRepl::new()),
            Box::new(FifoRepl::new()),
            Box::new(AtlasLearning::new()),
        ];
        for (i, p) in policies.into_iter().enumerate() {
            let mut mem = PagedMemory::new(frames, p);
            let rate = mem.run_pages(&trace).expect("no pinning").fault_rate();
            rows[i].push(format!("{rate:.3}"));
        }
    }
    for row in rows {
        t.row_owned(row);
    }
    println!("{t}");

    // The working-set counterpoint: instead of fixing frames, fix the
    // window and let residency float.
    let mut t = Table::new(&["window tau", "fault rate", "mean resident", "peak"])
        .with_title("working-set policy on the same trace");
    for tau in [10u64, 30, 100, 300, 1000] {
        let r = working_set_sim(&trace, tau);
        t.row_owned(vec![
            tau.to_string(),
            format!("{:.3}", r.fault_rate()),
            format!("{:.1}", r.mean_resident),
            r.peak_resident.to_string(),
        ]);
    }
    println!("{t}");
    println!(
        "MIN is the floor no realizable policy touches; LRU and Clock sit a\n\
         steady margin above it; FIFO trails; the working-set rows show the\n\
         other way to spend storage — buy fault rate with a longer window."
    );
}
