//! E11 — Appendix A.6: the MULTICS two page sizes.
//!
//! "Unlike the B5000 system, the segment is not the unit of allocation.
//! Instead allocation is performed by a variant of the standard paging
//! technique, since in fact two different page sizes (64 and 1024 words)
//! are used. Thus, at the cost of somewhat added complexity to the
//! placement and replacement strategies, the loss in storage utilization
//! caused by fragmentation occurring within pages can be reduced."
//!
//! For segment populations of different shapes, we compare in-page waste
//! and management complexity (page-table entries to be placed and
//! replaced) for uniform 64, uniform 1024, and the 64+1024 mix.

use dsa_core::ids::Words;
use dsa_exec::SimGrid;
use dsa_freelist::frag::{dual_size_waste, internal_waste};
use dsa_metrics::table::Table;
use dsa_trace::allocstream::SizeDist;
use dsa_trace::rng::Rng64;

use crate::{Args, Failure, Report};

fn mix_pages(r: Words, small: Words, large: Words) -> u64 {
    let bulk = r / large;
    let tail = r - bulk * large;
    bulk + tail.div_ceil(small)
}

pub(super) fn run(args: &Args, rep: &mut Report) -> Result<(), Failure> {
    let populations: Vec<(&str, SizeDist)> = vec![
        (
            "small segments (exp mean 200)",
            SizeDist::Exponential {
                mean: 200.0,
                cap: 4096,
            },
        ),
        (
            "medium segments (exp mean 1500)",
            SizeDist::Exponential {
                mean: 1500.0,
                cap: 20_000,
            },
        ),
        (
            "large segments (exp mean 8000)",
            SizeDist::Exponential {
                mean: 8000.0,
                cap: 100_000,
            },
        ),
    ];
    // Each segment population is an independent cell: sample it from the
    // fixed seed, tally all three schemes, return the finished table.
    let grid = SimGrid::new(populations);
    for (pi, table) in grid
        .run(args.jobs(), |_, (name, dist)| {
            let mut rng = Rng64::new(11);
            let segments: Vec<Words> = (0..3_000).map(|_| dist.sample(&mut rng)).collect();
            let data: Words = segments.iter().sum();
            let mut t = Table::new(&[
                "scheme",
                "in-page waste",
                "waste % of data",
                "page-table entries",
            ])
            .with_title(&format!("{name}: 3000 segments, {data} data words"));
            let w64: Words = segments.iter().map(|&s| internal_waste(s, 64)).sum();
            let p64: u64 = segments.iter().map(|&s| s.div_ceil(64)).sum();
            let w1024: Words = segments.iter().map(|&s| internal_waste(s, 1024)).sum();
            let p1024: u64 = segments.iter().map(|&s| s.div_ceil(1024)).sum();
            let wmix: Words = segments.iter().map(|&s| dual_size_waste(s, 64, 1024)).sum();
            let pmix: u64 = segments.iter().map(|&s| mix_pages(s, 64, 1024)).sum();
            for (scheme, waste, pages) in [
                ("uniform 64", w64, p64),
                ("uniform 1024", w1024, p1024),
                ("64 + 1024 mix", wmix, pmix),
            ] {
                t.row_owned(vec![
                    scheme.to_owned(),
                    waste.to_string(),
                    format!("{:.2}%", waste as f64 / data as f64 * 100.0),
                    pages.to_string(),
                ]);
            }
            t
        })
        .into_iter()
        .enumerate()
    {
        rep.table(&format!("population_{pi}"), table);
    }
    Ok(())
}
