//! E15 — segmentation advantage (ii): segments as the unit of
//! information protection and sharing.
//!
//! "Segments form a very convenient unit for purposes of information
//! protection and sharing, between programs." Two measurements:
//!
//! 1. **Sharing**: N programs all use one library of pure procedures.
//!    With shared segments a single resident copy serves everyone; the
//!    no-sharing alternative loads one copy per program. We sweep N and
//!    report resident words, fetch traffic and fault counts.
//! 2. **Protection**: the same capability machinery rejects writes
//!    through read-only grants and all access without a grant — at zero
//!    added addressing cost (the check rides the descriptor access).

use dsa_core::ids::{SegId, Words};
use dsa_exec::SimGrid;
use dsa_freelist::freelist::{FreeListAllocator, Placement};
use dsa_metrics::table::Table;
use dsa_seg::sharing::{AccessMode, AccessType, SharedSegments};
use dsa_seg::store::{SegReplacement, SegmentStore, StoreBackend};
use dsa_trace::rng::Rng64;

use crate::{Args, Failure, Report};

const CORE: Words = 24_000;
const LIB_SEGS: u32 = 6;
const LIB_SEG_WORDS: Words = 800;
const PRIVATE_WORDS: Words = 400;
const TOUCHES_PER_PROGRAM: usize = 2_000;

fn store() -> SegmentStore {
    SegmentStore::new(
        StoreBackend::FreeList(FreeListAllocator::new(CORE, Placement::BestFit)),
        SegReplacement::Cyclic,
        1024,
    )
}

/// Runs N programs over a shared library (if `share`) plus private data
/// segments; returns (peak resident words, fetched words, seg faults).
fn simulate(programs: u32, share: bool, rng: &mut Rng64) -> (Words, Words, u64) {
    let mut s = SharedSegments::new(store());
    // The library: published once by program 0 and either granted to
    // everyone (sharing) or replicated per program (no sharing).
    let lib_of = |prog: u32, k: u32| -> SegId {
        if share {
            SegId(k)
        } else {
            SegId(prog * LIB_SEGS + k)
        }
    };
    if share {
        for k in 0..LIB_SEGS {
            s.publish(0, SegId(k), LIB_SEG_WORDS, AccessMode::RX)
                .expect("fits");
            for p in 1..programs {
                s.grant(0, p, SegId(k), AccessMode::RX)
                    .expect("owner grants");
            }
        }
    } else {
        for p in 0..programs {
            for k in 0..LIB_SEGS {
                s.publish(p, lib_of(p, k), LIB_SEG_WORDS, AccessMode::RX)
                    .expect("fits");
            }
        }
    }
    // Private data, one segment per program.
    let data_base = 10_000u32;
    for p in 0..programs {
        s.publish(p, SegId(data_base + p), PRIVATE_WORDS, AccessMode::RW)
            .expect("fits");
    }
    // Interleaved execution: each step one program touches library code
    // then its data.
    let mut peak = 0;
    for i in 0..(TOUCHES_PER_PROGRAM * programs as usize) {
        let p = (i % programs as usize) as u32;
        let k = rng.below(u64::from(LIB_SEGS)) as u32;
        s.access(
            p,
            lib_of(p, k),
            rng.below(LIB_SEG_WORDS),
            AccessType::Execute,
        )
        .expect("granted");
        s.access(
            p,
            SegId(data_base + p),
            rng.below(PRIVATE_WORDS),
            AccessType::Write,
        )
        .expect("own data");
        peak = peak.max(s.store().resident_words());
    }
    let st = s.store().stats();
    (peak, st.fetched_words, st.seg_faults)
}

pub(super) fn run(args: &Args, rep: &mut Report) -> Result<(), Failure> {
    outln!(rep, "E15: segments as the unit of protection and sharing\n");
    let mut t = Table::new(&[
        "programs",
        "resident (shared)",
        "resident (copies)",
        "fetched (shared)",
        "fetched (copies)",
        "faults (shared)",
        "faults (copies)",
    ])
    .with_title(&format!(
        "{LIB_SEGS} library segments x {LIB_SEG_WORDS} words + {PRIVATE_WORDS}-word private data, {CORE}-word core"
    ));
    // Each program count runs both regimes from the same fixed seed —
    // an independent cell.
    let grid = SimGrid::new(vec![1u32, 2, 4, 8, 16]);
    for row in grid.run(args.jobs(), |_, &programs| {
        let (rs, fs, qs) = simulate(programs, true, &mut Rng64::new(15));
        let (rc, fc, qc) = simulate(programs, false, &mut Rng64::new(15));
        vec![
            programs.to_string(),
            rs.to_string(),
            rc.to_string(),
            fs.to_string(),
            fc.to_string(),
            qs.to_string(),
            qc.to_string(),
        ]
    }) {
        t.row_owned(row);
    }
    rep.table("sharing", t);

    // Protection: a hostile program probes the library and others' data.
    let mut s = SharedSegments::new(store());
    s.publish(0, SegId(0), 500, AccessMode::RX).expect("fits");
    s.grant(0, 1, SegId(0), AccessMode::RX)
        .expect("owner grants");
    s.publish(0, SegId(1), 300, AccessMode::RW).expect("fits");
    let mut rng = Rng64::new(16);
    let mut refused = 0;
    for _ in 0..1000 {
        // Program 1 tries to write the shared code and read 0's data.
        if s.access(1, SegId(0), rng.below(500), AccessType::Write)
            .is_err()
        {
            refused += 1;
        }
        if s.access(1, SegId(1), rng.below(300), AccessType::Read)
            .is_err()
        {
            refused += 1;
        }
    }
    outln!(rep,
        "protection: {refused}/2000 hostile accesses refused \
         ({} capability checks, {} violations recorded)",
        s.stats().checks,
        s.stats().protection_violations
    );
    rep.metrics.counter(
        "hostile_refused_total",
        "Hostile accesses the capability checks refused",
        &[],
        refused,
    );
    rep.metrics.counter(
        "capability_checks_total",
        "Capability checks performed",
        &[],
        s.stats().checks,
    );
    outln!(rep,
        "\nsharing keeps one resident copy of the library no matter how many\n\
         programs execute it: resident words and fetch traffic stay flat\n\
         while the per-copy alternative grows linearly until it no longer\n\
         fits in core and starts thrashing — and the same per-segment\n\
         capability that enables the sharing refuses every hostile access."
    );
    Ok(())
}
