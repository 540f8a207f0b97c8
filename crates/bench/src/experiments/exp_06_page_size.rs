//! E6 — §Uniformity of Unit of Storage Allocation: paging obscures
//! fragmentation, and the page size is a genuine dilemma.
//!
//! Two measurements:
//!
//! 1. **Space**: for a realistic population of request sizes, the words
//!    lost *inside* pages (internal fragmentation) plus the words the
//!    page tables occupy, across page sizes — the paper's "if it is too
//!    small, there will be an unacceptable amount of overhead. If it is
//!    too large, too much space will be wasted". The MULTICS 64+1024
//!    mix is included (conclusion (v) and A.6).
//! 2. **Faults**: the same word-granular reference string evaluated on
//!    a fixed 16K-word working storage at each page size — large pages
//!    waste capacity on words never touched; tiny pages multiply the
//!    table and fetch count. One string is generated once; each page
//!    size regroups it with `to_page_trace` and gets its exact LRU
//!    fault count from a single `dsa-stackdist` pass instead of a
//!    machine replay (parity is property-tested in
//!    `tests/properties_stackdist.rs`).

use dsa_core::ids::Words;
use dsa_exec::SimGrid;
use dsa_freelist::frag::{dual_size_waste, paged_overhead};
use dsa_metrics::sparkline::labelled_sparkline;
use dsa_metrics::table::Table;
use dsa_paging::page_size::{frames_for, to_page_trace};
use dsa_stackdist::lru_success;
use dsa_trace::allocstream::SizeDist;
use dsa_trace::rng::{Rng64, Zipf};

use crate::{Args, Failure, Report};

pub(super) fn run(args: &Args, rep: &mut Report) -> Result<(), Failure> {
    outln!(rep, "E6: the page-size dilemma (paging obscures fragmentation)\n");

    // Part 1: space overhead across page sizes.
    let mut rng = Rng64::new(6);
    let dist = SizeDist::Exponential {
        mean: 900.0,
        cap: 16_000,
    };
    let requests: Vec<Words> = (0..2_000).map(|_| dist.sample(&mut rng)).collect();
    let total: Words = requests.iter().sum();
    let mut t = Table::new(&[
        "page size",
        "pages",
        "in-page waste",
        "table words",
        "total overhead",
        "% of data",
    ])
    .with_title(&format!(
        "2000 requests, exponential mean 900 words ({total} data words), 1-word table entries"
    ));
    for page in [16u64, 64, 256, 512, 1024, 4096, 16_384] {
        let o = paged_overhead(&requests, page, 1);
        t.row_owned(vec![
            page.to_string(),
            o.pages.to_string(),
            o.internal_waste.to_string(),
            o.table_words.to_string(),
            o.total().to_string(),
            format!("{:.1}%", o.total() as f64 / total as f64 * 100.0),
        ]);
    }
    // The MULTICS mix: bulk in 1024s, tail in 64s.
    let mut waste = 0;
    let mut pages = 0u64;
    for &r in &requests {
        waste += dual_size_waste(r, 64, 1024);
        let bulk = r / 1024;
        let tail = r - bulk * 1024;
        pages += bulk + tail.div_ceil(64).max(u64::from(tail > 0));
    }
    t.row_owned(vec![
        "64+1024 (MULTICS)".to_owned(),
        pages.to_string(),
        waste.to_string(),
        pages.to_string(),
        (waste + pages).to_string(),
        format!("{:.1}%", (waste + pages) as f64 / total as f64 * 100.0),
    ]);
    rep.table("space_overhead", t);

    // Part 2: fault behaviour across page sizes at fixed working
    // storage. The workload scans objects sequentially — 2000 objects of
    // 600 words; each "visit" picks an object with Zipf locality and
    // reads a 100-word run — so page size trades spatial prefetch
    // against frames squandered on unreferenced words.
    let mut rng = Rng64::new(66);
    let n_objects = 2_000u64;
    let object_words = 600u64;
    let objects = Zipf::new(n_objects, 1.0);
    let mut scaled: Vec<dsa_core::access::Access> = Vec::new();
    while scaled.len() < 120_000 {
        let obj = objects.sample(&mut rng);
        let start = rng.below(object_words - 100);
        let base = obj * object_words + start;
        for w in 0..100 {
            scaled.push(dsa_core::access::Access::read(base + w));
        }
    }
    let memory: Words = 16_384;
    // An 8 ms drum latency plus 4 us per word transferred.
    let drum_latency_ns = 8_000_000u64;
    let word_ns = 4_000u64;
    let mut t = Table::new(&[
        "page size",
        "frames",
        "fault rate",
        "faults",
        "total fetch time",
    ])
    .with_title("sequential 100-word runs over 2000 objects, 16K-word storage, LRU, drum timing");
    let mut curve: Vec<f64> = Vec::new();
    let grid = SimGrid::new(vec![16u64, 64, 128, 256, 512, 1024, 2048, 4096]);
    for (fetch_ms, row) in grid.run(args.jobs(), |_, &page| {
        let trace = to_page_trace(&scaled, page);
        let frames = frames_for(memory, page);
        let success = lru_success(&trace);
        let faults = success.faults(frames);
        let fetch_ms = faults as f64 * (drum_latency_ns + word_ns * page) as f64 / 1e6;
        (
            fetch_ms,
            vec![
                page.to_string(),
                frames.to_string(),
                format!("{:.4}", success.fault_rate(frames)),
                faults.to_string(),
                format!("{fetch_ms:.0} ms"),
            ],
        )
    }) {
        curve.push(fetch_ms);
        t.row_owned(row);
    }
    rep.table("fault_behaviour", t);
    outln!(rep,
        "{}\n",
        labelled_sparkline("fetch time vs page size", &curve)
    );
    outln!(rep,
        "space: overhead is U-shaped — table words dominate at tiny pages,\n\
         in-page waste at huge ones; the MULTICS two-size mix undercuts\n\
         every uniform size. time: with working storage fixed, total fetch\n\
         time is U-shaped too — tiny pages pay the drum latency once per\n\
         few dozen words of a sequential run, huge pages squander frames\n\
         on unreferenced words until the working set no longer fits."
    );
    Ok(())
}
