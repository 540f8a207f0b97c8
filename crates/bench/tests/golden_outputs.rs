//! The golden-output gauntlet: all 23 experiments, plus exp_19's
//! `--chaos` section, run in-process and held to their rendered
//! reports (the heading and every table) under `tests/golden/`, byte
//! for byte.
//!
//! Two invariants at once:
//!
//! * **Determinism across parallelism** — `--jobs 1` and `--jobs 4`
//!   must produce identical bytes. The engine merges grid cells in grid
//!   order, so the jobs width is not allowed to leak into the output.
//!   An experiment that does not read `--jobs` runs once.
//! * **Determinism across commits** — the output must match the file
//!   under `tests/golden/`, so a behavioural drift in any machine,
//!   policy, or trace generator fails CI with a diff instead of
//!   silently rewriting the numbers the paper reproduction reports.
//!
//! Each experiment is its own test, so libtest runs them side by side.
//! Changing an experiment's output on purpose is fine — regenerate
//! every golden file in-process with `cargo test -p dsa-bench --test
//! golden_outputs -- --ignored regenerate` and commit them, so the diff
//! is reviewable.
//!
//! A last test holds the lists complete: the registry, `GAUNTLET` and
//! the binaries under `src/bin/` name the same experiments.

mod common;

use common::{first_diff, golden, golden_path, run};
use dsa_bench::{experiment, Report, EXPERIMENTS};

/// Holds experiment `name`, run with `extra`, to
/// `tests/golden/<golden>.txt` at `--jobs 1` and `--jobs 4` (once, when
/// it does not read `--jobs`), then checks its claims.
fn assert_golden(name: &str, golden_name: &str, extra: &[&str]) {
    let want = golden(&format!("{golden_name}.txt"));
    let (seq, widths) = sequential(name, extra);
    let got = seq.to_string();
    assert!(
        got == want,
        "{name} {extra:?} {widths:?} drifted from tests/golden/{golden_name}.txt — {}\n\
         (if the change is intentional, regenerate the golden file)",
        first_diff(&got, &want)
    );
    if !widths.is_empty() {
        let par = run(name, &[&["--jobs", "4"], extra].concat()).to_string();
        assert!(
            par == got,
            "{name} {extra:?}: --jobs 4 output differs from --jobs 1 — parallel merge \
             leaked scheduling into the output; {}",
            first_diff(&par, &got)
        );
    }
    claims(name, &seq);
}

/// `name` run with `extra` at `--jobs 1`, or as given when it does not
/// read `--jobs`, and the width arguments used.
fn sequential(name: &str, extra: &[&str]) -> (Report, &'static [&'static str]) {
    let reads_jobs = experiment(name).flags.iter().any(|f| f.name == "--jobs");
    let widths: &[&str] = if reads_jobs { &["--jobs", "1"] } else { &[] };
    (run(name, &[widths, extra].concat()), widths)
}

/// Column `col` of table `name` in `report`, parsed as numbers.
fn column(report: &Report, name: &str, col: usize) -> Vec<f64> {
    let table = report.table_named(name).expect("the table is registered");
    let cell = |row: &Vec<String>| row[col].parse().expect("a number");
    table.rows().iter().map(cell).collect()
}

/// The paper's claims an experiment's tables must show, read as data.
fn claims(name: &str, report: &Report) {
    let falls = |xs: &[f64]| xs.windows(2).all(|w| w[1] < w[0]);
    if name == "exp_18_concurrency" {
        // Sharding divides the placement search: each doubling of the
        // shards shortens the mean first-fit search, and the books
        // reconcile at every shard count.
        let search = column(report, "striped_sweep", 5);
        assert!(
            falls(&search),
            "mean search {search:?} must fall with shards"
        );
        let sweep = report.table_named("striped_sweep").expect("the sweep");
        assert!(sweep.rows().iter().all(|row| row[6] == "exact"), "books");
    }
    if name == "exp_21_global_alloc" {
        // A deeper magazine meets the depot less often, at every
        // doubling of depth.
        let exchanges = column(report, "depth_sweep", 1);
        assert!(
            falls(&exchanges),
            "depot exchanges {exchanges:?} must fall with depth"
        );
    }
    if name == "exp_04_replacement" {
        // MIN is the offline optimum: no policy faults less than it, on
        // any trace, at any core size.
        for trace in (0..).map_while(|i| report.table_named(&format!("trace_{i}"))) {
            let rates = |row: &Vec<String>| -> Vec<f64> {
                let sizes = &row[1..row.len() - 1];
                sizes.iter().map(|c| c.parse().expect("a rate")).collect()
            };
            let min = rates(&trace.rows()[0]);
            for row in trace.rows() {
                let r = rates(row);
                assert!(
                    min.iter().zip(&r).all(|(m, x)| m <= x),
                    "{} beats MIN in {:?}",
                    row[0],
                    trace.title()
                );
            }
        }
    }
}

macro_rules! gauntlet {
    ($($name:ident [$($arg:literal),*],)*) => {
        /// The gauntlet, each entry with the extra arguments its golden
        /// file was generated with (most need none; `exp_20`, `exp_21`
        /// and `exp_22` pin a short stream, short churn and a small
        /// population so the gauntlet stays fast).
        const GAUNTLET: &[(&str, &[&str])] = &[$((stringify!($name), &[$($arg),*])),*];

        $(
            #[test]
            fn $name() {
                assert_golden(stringify!($name), stringify!($name), &[$($arg),*]);
            }
        )*
    };
}

gauntlet! {
    exp_01_artificial_contiguity [],
    exp_02_space_time [],
    exp_03_mapping_overhead [],
    exp_04_replacement [],
    exp_05_placement [],
    exp_06_faults [],
    exp_06_page_size [],
    exp_07_compaction [],
    exp_08_advice [],
    exp_09_machine_survey [],
    exp_10_name_spaces [],
    exp_11_multics_dual [],
    exp_12_atlas_learning [],
    exp_13_bounds [],
    exp_14_promotion [],
    exp_15_sharing [],
    exp_16_load_control [],
    exp_17_drum_queueing [],
    exp_18_concurrency [],
    exp_19_overload [],
    exp_20_trace_scale ["--refs", "200000"],
    exp_21_global_alloc ["--ops", "200000"],
    exp_22_tenant_sweep ["--tenants", "1000"],
}

/// The `--chaos` section injects faults under live multithreaded
/// traffic; its schedule is a pure function of (seed, stream), so it
/// is pinned like any table.
#[test]
fn chaos_section_matches_at_every_jobs_width() {
    assert_golden("exp_19_overload", "exp_19_overload_chaos", &["--chaos"]);
}

/// Rewrites every golden file from an in-process run.
#[test]
#[ignore = "rewrites tests/golden/; run it on purpose"]
fn regenerate() {
    let chaos = ("exp_19_overload", "exp_19_overload_chaos", &["--chaos"][..]);
    let pinned = GAUNTLET.iter().map(|&(name, extra)| (name, name, extra));
    for (name, golden_name, extra) in pinned.chain([chaos]) {
        let path = golden_path(&format!("{golden_name}.txt"));
        std::fs::write(&path, sequential(name, extra).0.to_string())
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    }
}

/// Every experiment is pinned here, and the registry and the binaries
/// under `src/bin/` name the same experiments.
#[test]
fn every_experiment_binary_is_pinned() {
    let bin_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin");
    let mut stems: Vec<String> = std::fs::read_dir(bin_dir)
        .unwrap_or_else(|e| panic!("listing {bin_dir}: {e}"))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
        .map(|path| {
            let stem = path.file_stem().expect("a .rs file has a stem");
            stem.to_str().expect("UTF-8 file name").to_owned()
        })
        .collect();
    stems.sort();
    let mut pinned: Vec<&str> = GAUNTLET.iter().map(|&(name, _)| name).collect();
    pinned.sort_unstable();
    let mut registered: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    registered.sort_unstable();
    assert_eq!(
        registered, pinned,
        "the registry (left) must be exactly GAUNTLET (right)"
    );
    assert_eq!(
        stems, registered,
        "src/bin/*.rs (left) must be exactly the registry (right)"
    );
}
