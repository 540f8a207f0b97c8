//! The golden-output gauntlet: twenty-one experiment binaries, plus
//! exp_19's `--chaos` section, pinned stdout, byte-for-byte.
//!
//! Two invariants at once:
//!
//! * **Determinism across parallelism** — `--jobs 1` and `--jobs 4`
//!   must produce identical bytes. The engine merges grid cells in grid
//!   order, so the jobs width is not allowed to leak into the output.
//! * **Determinism across commits** — the output must match the file
//!   under `tests/golden/`, so a behavioural drift in any machine,
//!   policy, or trace generator fails CI with a diff instead of
//!   silently rewriting the numbers the paper reproduction reports.
//!
//! Changing an experiment's output on purpose is fine — regenerate the
//! file (`./target/debug/<bin> --jobs 1 <extra args from GAUNTLET> >
//! tests/golden/<bin>.txt`; the chaos section's is
//! `exp_19_overload_chaos.txt`, run with `--chaos`) and commit it so
//! the diff is reviewable.
//!
//! A second test holds the list complete: every binary under
//! `crates/bench/src/bin/` is in `GAUNTLET` or in `UNPINNED` with its
//! reason, so a new one cannot arrive unpinned quietly.
//!
//! The binaries live in `dsa-bench`, a different package; `common`
//! builds them on first use and fails loudly (not skips) if that fails.

mod common;

use std::path::PathBuf;
use std::process::Command;

/// The gauntlet: fast (under ~1 s each in a debug build, except
/// `exp_04` at several seconds — it replays every policy at every
/// size) and fully deterministic, including every printed column. Each
/// entry carries the extra arguments its golden file was generated with
/// (most need none; `exp_20` and `exp_22` pin a short stream and a small
/// population so the gauntlet stays fast).
const GAUNTLET: [(&str, &[&str]); 21] = [
    ("exp_01_artificial_contiguity", &[]),
    ("exp_02_space_time", &[]),
    ("exp_03_mapping_overhead", &[]),
    ("exp_04_replacement", &[]),
    ("exp_05_placement", &[]),
    ("exp_06_faults", &[]),
    ("exp_06_page_size", &[]),
    ("exp_07_compaction", &[]),
    ("exp_08_advice", &[]),
    ("exp_09_machine_survey", &[]),
    ("exp_10_name_spaces", &[]),
    ("exp_11_multics_dual", &[]),
    ("exp_12_atlas_learning", &[]),
    ("exp_13_bounds", &[]),
    ("exp_14_promotion", &[]),
    ("exp_15_sharing", &[]),
    ("exp_16_load_control", &[]),
    ("exp_17_drum_queueing", &[]),
    ("exp_19_overload", &[]),
    ("exp_20_trace_scale", &["--refs", "200000"]),
    ("exp_22_tenant_sweep", &["--tenants", "1000"]),
];

/// The experiment binaries the gauntlet leaves out, each with its
/// reason. Pinning one takes splitting its stdout first.
const UNPINNED: [(&str, &str); 2] = [
    ("exp_18_concurrency", "wall-clock Mops/s columns on stdout"),
    ("exp_21_global_alloc", "wall-clock ns/op columns on stdout"),
];

fn run(bin: &str, jobs: &str, extra: &[&str]) -> String {
    let path = common::bin_path(bin);
    let out = Command::new(&path)
        .args(["--jobs", jobs])
        .args(extra)
        .output()
        .unwrap_or_else(|e| panic!("spawning {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} --jobs {jobs} exited with {:?}; stderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("experiment output is UTF-8")
}

/// First differing line, for a readable failure message.
fn first_diff(a: &str, b: &str) -> String {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!(
                "first difference at line {}:\n  got:  {la}\n  want: {lb}",
                i + 1
            );
        }
    }
    format!(
        "line counts differ: got {} lines, want {}",
        a.lines().count(),
        b.lines().count()
    )
}

/// Runs `bin` with `extra` at `--jobs 1` and `--jobs 4` and holds both
/// outputs to `tests/golden/<golden>.txt`.
fn assert_golden(bin: &str, golden: &str, extra: &[&str]) {
    let golden_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{golden}.txt"));
    let want = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", golden_path.display()));
    let seq = run(bin, "1", extra);
    assert!(
        seq == want,
        "{bin} {extra:?} --jobs 1 drifted from tests/golden/{golden}.txt — {}\n\
         (if the change is intentional, regenerate the golden file)",
        first_diff(&seq, &want)
    );
    let par = run(bin, "4", extra);
    assert!(
        par == seq,
        "{bin} {extra:?}: --jobs 4 output differs from --jobs 1 — parallel merge \
         leaked scheduling into the output; {}",
        first_diff(&par, &seq)
    );
}

#[test]
fn golden_outputs_match_at_every_jobs_width() {
    for (bin, extra) in GAUNTLET {
        assert_golden(bin, bin, extra);
    }
}

/// The `--chaos` section injects faults under live multithreaded
/// traffic; its schedule is a pure function of (seed, stream), so it
/// is pinned like any table.
#[test]
fn chaos_section_matches_at_every_jobs_width() {
    assert_golden("exp_19_overload", "exp_19_overload_chaos", &["--chaos"]);
}

/// A binary added under `crates/bench/src/bin/` is pinned here or
/// named in `UNPINNED` with its reason — never neither, never both.
#[test]
fn every_experiment_binary_is_pinned_or_says_why() {
    let bin_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("crates/bench/src/bin");
    let mut stems: Vec<String> = std::fs::read_dir(&bin_dir)
        .unwrap_or_else(|e| panic!("listing {}: {e}", bin_dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
        .map(|path| {
            let stem = path.file_stem().expect("a .rs file has a stem");
            stem.to_str().expect("UTF-8 file name").to_owned()
        })
        .collect();
    stems.sort();
    let mut accounted: Vec<&str> = GAUNTLET
        .iter()
        .map(|&(bin, _)| bin)
        .chain(UNPINNED.iter().map(|&(bin, _)| bin))
        .collect();
    accounted.sort_unstable();
    assert_eq!(
        stems, accounted,
        "crates/bench/src/bin/*.rs (left) must be exactly GAUNTLET plus UNPINNED (right)"
    );
}
