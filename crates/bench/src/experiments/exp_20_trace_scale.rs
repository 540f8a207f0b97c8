//! E20 — trace scale: streamed references in constant memory
//! (extension).
//!
//! The materializing generators cap every experiment at whatever `Vec`
//! fits in core; this binary is the existence proof that the streaming
//! path removes the cap. One seedable reference stream
//! (`dsa_trace::stream`) is cloned twice and drained once each through
//!
//! * a demand-paged LRU machine ([`PagedMemory::run_pages_iter`]) —
//!   O(frames) state, and
//! * the streaming Mattson engine
//!   ([`dsa_stackdist::streaming::StreamingLru`]) — O(distinct pages)
//!   state,
//!
//! so peak memory is a function of the page universe alone, never of
//! `--refs`. The two consumers then cross-check each other exactly:
//! the machine's fault count must equal the success function evaluated
//! at the machine's frame count — the streamed version of the
//! simulator/stack-distance parity the property tests pin.
//!
//! The run reports its own peak RSS (`VmHWM` from `/proc/self/status`)
//! on stderr and, under `--max-rss-mb N`, **fails** if the high-water
//! mark exceeds it — CI's constant-memory assertion. Stdout holds only
//! the deterministic fault counts and curve, pinned by the golden
//! gauntlet at `--refs 200000`.

use dsa_metrics::table::Table;
use dsa_paging::replacement::lru::LruRepl;
use dsa_paging::PagedMemory;
use dsa_stackdist::streaming::StreamingLru;
use dsa_trace::refstring::RefStringCfg;

use crate::cli::FlagSpec;
use crate::{Args, Failure, Report};

/// The `--refs N` flag: how many references to stream (default 10⁷).
pub(super) const REFS: FlagSpec = FlagSpec {
    name: "--refs",
    value: Some("N"),
    help: "references to stream through the machine and the curve (default: 10000000)",
};

/// The `--max-rss-mb N` flag: fail if peak RSS exceeds N MB.
pub(super) const MAX_RSS_MB: FlagSpec = FlagSpec {
    name: "--max-rss-mb",
    value: Some("N"),
    help: "exit 1 if peak RSS (VmHWM) exceeds N MB — the constant-memory assertion",
};

/// The workload: hot/cold at a fixed page universe, so distinct pages
/// (and thus every consumer's state) are bounded regardless of length.
const HOT: u64 = 256;
const COLD: u64 = 16_128;
const PAGES: u64 = HOT + COLD;
const FRAMES: usize = 512;

/// Peak resident set size in KB from `/proc/self/status` (`VmHWM`),
/// `None` where the proc filesystem is absent.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

pub(super) fn run(args: &Args, rep: &mut Report) -> Result<(), Failure> {
    let refs = args.count(REFS).unwrap_or(10_000_000);
    let max_rss_mb = args.count(MAX_RSS_MB);
    let mut t = Table::new(&["references", "pages", "hot pages", "frames"]).with_title(
        "a hot/cold stream, never materialized, through an LRU machine and the streaming \
         Mattson engine",
    );
    t.row_owned(vec![
        refs.to_string(),
        PAGES.to_string(),
        HOT.to_string(),
        FRAMES.to_string(),
    ]);
    rep.table("stream", t);

    let cfg = RefStringCfg::HotCold {
        hot: HOT,
        cold: COLD,
        p_hot: 0.85,
    };
    let stream = cfg.stream(0.0, 0x20_5CA1E).pages();

    // Consumer 1: the demand-paged machine, O(frames) state.
    let mut machine = PagedMemory::new(FRAMES, Box::new(LruRepl::new()));
    let stats = machine
        .run_pages_iter(stream.clone().take(refs))
        .expect("no pinning, so no core errors");
    machine.check_invariants();

    // Consumer 2: the streaming stack-distance curve, O(pages) state.
    let mut curve = StreamingLru::new();
    for p in stream.take(refs) {
        curve.record(p);
    }
    let success = curve.success();

    // The cross-check: two independent streamed consumers, one truth.
    assert_eq!(
        stats.faults,
        success.faults(FRAMES),
        "machine faults must equal the success function at {FRAMES} frames"
    );
    assert_eq!(stats.references, success.references());

    let mut t = Table::new(&["frames", "faults", "fault rate"])
        .with_title("streamed LRU success function (exact, from one pass)");
    for frames in [64usize, 128, 256, FRAMES, 1024, PAGES as usize] {
        t.row_owned(vec![
            frames.to_string(),
            success.faults(frames).to_string(),
            format!("{:.6}", success.fault_rate(frames)),
        ]);
    }
    rep.table("streamed_curve", t);

    let mut t = Table::new(&[
        "frames",
        "machine faults",
        "curve faults",
        "distinct pages",
        "compulsory faults",
    ])
    .with_title("the two consumers, cross-checked");
    t.row_owned(vec![
        FRAMES.to_string(),
        stats.faults.to_string(),
        success.faults(FRAMES).to_string(),
        curve.distinct_pages().to_string(),
        success.compulsory().to_string(),
    ]);
    rep.table("cross_check", t);

    // The host's numbers go to stderr, so stdout stays the pinned,
    // deterministic accounting.
    match peak_rss_kb() {
        Some(kb) => {
            eprintln!("peak RSS (VmHWM): {} MB", kb / 1024);
            if let Some(limit) = max_rss_mb {
                if kb > limit as u64 * 1024 {
                    return Err(Failure {
                        code: 1,
                        message: format!(
                            "peak RSS {kb} KB exceeds --max-rss-mb {limit} — streaming is \
                             not constant-memory"
                        ),
                    });
                }
                eprintln!("within --max-rss-mb {limit}: constant-memory assertion holds");
            }
        }
        None => {
            eprintln!("peak RSS: unavailable (no /proc/self/status on this host)");
            if max_rss_mb.is_some() {
                return Err(Failure {
                    code: 1,
                    message: "--max-rss-mb requires /proc/self/status".to_owned(),
                });
            }
        }
    }
    Ok(())
}
