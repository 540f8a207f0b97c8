//! E3 — Figure 4 + special hardware facility (vi): the associative
//! memory's effect on two-level mapping overhead.
//!
//! "Many computers have special hardware for the purpose of reducing the
//! average time taken to determine the current location of an item of
//! information. The most obvious example of such a device is a small
//! associative memory in which recently-used segment and/or page
//! locations are kept. If it were not for such mechanisms, the cost in
//! extra addressing time caused by the provision of, say, segmentation
//! and artificial name contiguity, would often be unacceptable."
//!
//! We walk a locality-bearing reference string through a Figure 4
//! segment+page map at associative-memory sizes 0 (absent), 1, 4, 8
//! (the 360/67), 16, and 44 (the B8500), on a 1 µs core.

use dsa_core::clock::Cycles;
use dsa_core::ids::{FrameNo, SegId};
use dsa_exec::SimGrid;
use dsa_mapping::associative::AssocPolicy;
use dsa_mapping::cost::MapCosts;
use dsa_mapping::two_level::TwoLevelMap;
use dsa_mapping::AddressMap;
use dsa_metrics::table::Table;
use dsa_trace::refstring::RefStringCfg;
use dsa_trace::rng::Rng64;

use crate::{Args, Failure, Report};

const SEGS: u32 = 8;
const SEG_EXTENT: u64 = 8192;
const PAGE_BITS: u32 = 10; // 1024-word pages

fn build(tlb: usize, policy: AssocPolicy) -> TwoLevelMap {
    let costs = MapCosts::for_core_cycle(Cycles::from_micros(1));
    let mut m = TwoLevelMap::new(SEGS, SEG_EXTENT, PAGE_BITS, tlb, policy, costs);
    for s in 0..SEGS {
        m.create_segment(SegId(s), SEG_EXTENT).expect("fits");
        for p in 0..(SEG_EXTENT >> PAGE_BITS) {
            m.map_page(SegId(s), p, FrameNo(u64::from(s) * 8 + p))
                .expect("declared");
        }
    }
    m
}

pub(super) fn run(args: &Args, rep: &mut Report) -> Result<(), Failure> {
    outln!(rep, "E3: two-level mapping overhead vs associative-memory size (Figure 4)\n");

    // Word-granular accesses with locality: an LRU-stack model over the
    // 64 (seg, page) pairs, each reference landing at a random offset.
    let mut rng = Rng64::new(3);
    let pages = RefStringCfg::LruStack {
        pages: 64,
        theta: 1.1,
    }
    .generate_pages(200_000, &mut rng);
    let accesses: Vec<(SegId, u64)> = pages
        .iter()
        .map(|p| {
            let seg = SegId((p.0 / 8) as u32);
            let page = p.0 % 8;
            let offset = (page << PAGE_BITS) | rng.below(1 << PAGE_BITS);
            (seg, offset)
        })
        .collect();

    let mut t = Table::new(&[
        "assoc size",
        "policy",
        "hit ratio",
        "ns/access",
        "slowdown vs none -> gain",
    ])
    .with_title("1 us core: table walk costs 2 us, associative search 0.2 us");
    // Each associative-memory configuration walks the shared access
    // string independently; the "gain" column needs the size-0 row's
    // result, so rows are formatted after the fan-out.
    let grid = SimGrid::new(vec![
        (0usize, AssocPolicy::Lru),
        (1, AssocPolicy::Lru),
        (4, AssocPolicy::Lru),
        (8, AssocPolicy::Lru),
        (8, AssocPolicy::Fifo),
        (16, AssocPolicy::Lru),
        (44, AssocPolicy::Lru),
    ]);
    let measured = grid.run(args.jobs(), |_, &(n, pol)| {
        let mut m = build(n, pol);
        for &(seg, off) in &accesses {
            let tr = m.translate_pair(seg, off);
            assert!(tr.outcome.is_ok(), "fully mapped");
        }
        (m.tlb_hit_ratio(), m.stats().mean_overhead_nanos())
    });
    let mut baseline = 0.0f64;
    for (&(n, pol), &(hits, ns)) in grid.cells().iter().zip(&measured) {
        if n == 0 {
            baseline = ns;
        }
        t.row_owned(vec![
            n.to_string(),
            format!("{pol:?}"),
            format!("{:.1}%", hits * 100.0),
            format!("{ns:.0}"),
            format!("{:.2}x cheaper", baseline / ns),
        ]);
    }
    rep.table("mapping_overhead", t);
    outln!(rep,
        "without the associative memory every access pays two table\n\
         references (segment table + page table); eight entries already\n\
         capture most of the locality, which is why the 360/67 shipped\n\
         with exactly eight."
    );
    Ok(())
}
