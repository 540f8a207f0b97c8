//! The telemetry exporter gauntlet: pinned Prometheus bytes, jobs-width
//! determinism for the JSON export, and the universal-flags contract.
//!
//! Three invariants:
//!
//! * **Pinned rendering** — `exp_01 --jobs 1 --metrics-out x.prom`
//!   must reproduce `tests/golden/exp_01_metrics.prom` byte for byte,
//!   so neither the experiment's numbers nor the exposition-format
//!   renderer can drift silently; in that file and in exp_19's, every
//!   metric family's lines form one group, as the format requires.
//!   Regenerate on purpose with
//!   `./target/debug/exp_01_artificial_contiguity --jobs 1
//!   --metrics-out tests/golden/exp_01_metrics.prom` and commit the
//!   diff.
//! * **Jobs-width determinism** — the JSON export at `--jobs 1` and
//!   `--jobs 4` must be identical bytes: the metrics ride the same
//!   grid-ordered merge as stdout, so parallelism may not leak in.
//! * **Universal flags, and no flag a binary ignores** — every
//!   experiment binary's `--help` must mention `--jobs` and
//!   `--metrics-out` (the registry in `dsa_exec::cli::standard_flags`
//!   is only honest if every binary routes through it), and only the
//!   binaries that read `--flight-recorder` may accept it.
//!
//! Like the golden-output gauntlet, the binaries come from `common`,
//! which builds them on first use and fails loudly if that fails.

mod common;

use std::path::PathBuf;
use std::process::Command;

use common::{bin_dir, bin_path};

/// Every experiment binary in `dsa-bench` — kept in sync by the loud
/// failure below if one is missing, and by code review if one is added
/// without being listed here.
const ALL_BINARIES: [&str; 23] = [
    "exp_01_artificial_contiguity",
    "exp_02_space_time",
    "exp_03_mapping_overhead",
    "exp_04_replacement",
    "exp_05_placement",
    "exp_06_faults",
    "exp_06_page_size",
    "exp_07_compaction",
    "exp_08_advice",
    "exp_09_machine_survey",
    "exp_10_name_spaces",
    "exp_11_multics_dual",
    "exp_12_atlas_learning",
    "exp_13_bounds",
    "exp_14_promotion",
    "exp_15_sharing",
    "exp_16_load_control",
    "exp_17_drum_queueing",
    "exp_18_concurrency",
    "exp_19_overload",
    "exp_20_trace_scale",
    "exp_21_global_alloc",
    "exp_22_tenant_sweep",
];

/// The binaries that read `--flight-recorder` (each dumps a postmortem).
const FLIGHT_RECORDING: [&str; 3] = ["exp_06_faults", "exp_18_concurrency", "exp_19_overload"];

/// Runs `bin` with `args`, asserts success, returns nothing — the
/// interesting output is whatever `--metrics-out` wrote.
fn run(bin: &str, args: &[&str]) {
    let out = Command::new(bin_path(bin))
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawning {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} {args:?} exited with {:?}; stderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A scratch path under the target dir (kept out of the source tree),
/// unique per test so parallel tests don't collide.
fn scratch(name: &str) -> PathBuf {
    let dir = bin_dir().join("telemetry-test-scratch");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(name)
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

/// Panics unless every metric family's lines in `text` form one
/// contiguous group. A histogram's `_bucket`, `_sum` and `_count`
/// samples belong to the family its `# TYPE` line declares.
fn assert_families_contiguous(what: &str, text: &str) {
    let mut histograms: Vec<&str> = Vec::new();
    let mut groups: Vec<&str> = Vec::new();
    for line in text.lines() {
        let family = match line
            .strip_prefix("# HELP ")
            .or(line.strip_prefix("# TYPE "))
        {
            Some(rest) => {
                let (name, kind) = rest.split_once(' ').unwrap_or((rest, ""));
                if line.starts_with("# TYPE") && kind == "histogram" {
                    histograms.push(name);
                }
                name
            }
            None => {
                let name = line.split(['{', ' ']).next().unwrap_or(line);
                ["_bucket", "_sum", "_count"]
                    .iter()
                    .find_map(|suffix| name.strip_suffix(suffix))
                    .filter(|base| histograms.contains(base))
                    .unwrap_or(name)
            }
        };
        if groups.last() != Some(&family) {
            assert!(
                !groups.contains(&family),
                "{what}: the lines of metric family {family} are split into more than one group"
            );
            groups.push(family);
        }
    }
}

#[test]
fn exp_01_prometheus_export_matches_golden() {
    let golden_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/exp_01_metrics.prom");
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", golden_path.display()));
    let out = scratch("exp_01.prom");
    run(
        "exp_01_artificial_contiguity",
        &[
            "--jobs",
            "1",
            "--metrics-out",
            out.to_str().expect("utf-8 path"),
        ],
    );
    let got = std::fs::read_to_string(&out).expect("metrics file written");
    assert_families_contiguous("tests/golden/exp_01_metrics.prom", &golden);
    assert_families_contiguous("exp_01 --metrics-out", &got);
    assert!(
        got == golden,
        "exp_01 Prometheus export drifted from tests/golden/exp_01_metrics.prom — {}\n\
         (if the change is intentional, regenerate the golden file)",
        first_diff(&got, &golden)
    );
}

#[test]
fn exp_01_json_export_is_identical_across_jobs_widths() {
    let seq = scratch("exp_01_j1.json");
    let par = scratch("exp_01_j4.json");
    run(
        "exp_01_artificial_contiguity",
        &[
            "--jobs",
            "1",
            "--metrics-out",
            seq.to_str().expect("utf-8 path"),
        ],
    );
    run(
        "exp_01_artificial_contiguity",
        &[
            "--jobs",
            "4",
            "--metrics-out",
            par.to_str().expect("utf-8 path"),
        ],
    );
    let a = std::fs::read_to_string(&seq).expect("jobs-1 metrics written");
    let b = std::fs::read_to_string(&par).expect("jobs-4 metrics written");
    assert!(
        !a.is_empty() && a.trim_start().starts_with('{'),
        "expected a JSON document, got:\n{a}"
    );
    assert!(
        a == b,
        "exp_01 --metrics-out JSON differs between --jobs 1 and --jobs 4 — \
         parallel merge leaked scheduling into the metrics; {}",
        first_diff(&a, &b)
    );
}

/// The overload experiment's export carries the multi-tenant series —
/// per-tenant quota/occupancy gauges, shed and quota-denial counters,
/// the per-shard quarantine gauge, and the guard's admission/shed
/// totals — in pinned tenant order. A drift in any of them (or in the
/// exposition renderer) fails here with a diff.
#[test]
fn exp_19_tenant_series_match_golden() {
    let golden_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/exp_19_metrics.prom");
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", golden_path.display()));
    for series in [
        "tenant_quota_words",
        "tenant_in_use_words",
        "tenant_shed_total",
        "tenant_quota_denials_total",
        "shard_quarantined",
        "admission_rejects_total",
        "tenant_sheds_granted_total",
    ] {
        assert!(
            golden.contains(series),
            "tests/golden/exp_19_metrics.prom lost the {series} series — \
             the multi-tenant export contract broke"
        );
    }
    let out = scratch("exp_19.prom");
    run(
        "exp_19_overload",
        &[
            "--jobs",
            "1",
            "--metrics-out",
            out.to_str().expect("utf-8 path"),
        ],
    );
    let got = std::fs::read_to_string(&out).expect("metrics file written");
    assert_families_contiguous("tests/golden/exp_19_metrics.prom", &golden);
    assert_families_contiguous("exp_19 --metrics-out", &got);
    assert!(
        got == golden,
        "exp_19 Prometheus export drifted from tests/golden/exp_19_metrics.prom — {}\n\
         (if the change is intentional, regenerate the golden file)",
        first_diff(&got, &golden)
    );
}

#[test]
fn every_binary_advertises_the_universal_telemetry_flags() {
    for bin in ALL_BINARIES {
        let out = Command::new(bin_path(bin))
            .arg("--help")
            .output()
            .unwrap_or_else(|e| panic!("spawning {bin}: {e}"));
        assert!(
            out.status.success(),
            "{bin} --help exited with {:?}",
            out.status.code()
        );
        let help = String::from_utf8(out.stdout).expect("usage is UTF-8");
        for flag in ["--metrics-out", "--jobs"] {
            assert!(
                help.contains(flag),
                "{bin} --help does not mention {flag} — it must route through \
                 dsa_exec::cli::enforce_standard_flags; help was:\n{help}"
            );
        }
        let reads = FLIGHT_RECORDING.contains(&bin);
        assert_eq!(
            help.contains("--flight-recorder"),
            reads,
            "{bin} --help and whether {bin} reads --flight-recorder disagree; help was:\n{help}"
        );
        if !reads {
            let out = Command::new(bin_path(bin))
                .args(["--flight-recorder", "8"])
                .output()
                .unwrap_or_else(|e| panic!("spawning {bin}: {e}"));
            assert_eq!(
                out.status.code(),
                Some(2),
                "{bin} accepted --flight-recorder 8, a flag it never reads"
            );
        }
    }
}
