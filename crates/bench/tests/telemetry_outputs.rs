//! The process edge and the telemetry exports.
//!
//! In-process, like the golden gauntlet:
//!
//! * **Pinned rendering** — exp_01's and exp_19's metrics at `--jobs 1`
//!   must render `tests/golden/exp_01_metrics.prom` and
//!   `exp_19_metrics.prom` byte for byte, so neither the experiments'
//!   numbers nor the exposition-format renderer can drift silently; in
//!   both, and in exp_16's, every metric family's lines form one group
//!   and no series repeats, as the format requires.
//! * **Jobs-width determinism** — exp_01's JSON export at `--jobs 1`
//!   and `--jobs 4` must be identical bytes: the metrics ride the same
//!   grid-ordered merge as stdout, so parallelism may not leak in.
//!
//! Through the binaries (`CARGO_BIN_EXE_*`), fed by the registry:
//!
//! * every binary's `--help` lists exactly the flags its experiment
//!   reads, plus the universal `--metrics-out`, and a flag it does not
//!   read exits 2;
//! * `--metrics-out` writes the bytes the in-process render gives;
//! * a `Failure` exits with its code and message: exp_20 past
//!   `--max-rss-mb`.

mod common;

use std::path::PathBuf;
use std::process::{Command, Output};

use common::{first_diff, golden, run};
use dsa_bench::{FlagSpec, EXPERIMENTS};

/// The binary of experiment `name`, run with `args`; every binary sits
/// beside exp_01's.
fn spawn(name: &str, args: &[&str]) -> Output {
    let bin =
        PathBuf::from(env!("CARGO_BIN_EXE_exp_01_artificial_contiguity")).with_file_name(name);
    Command::new(&bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawning {}: {e}", bin.display()))
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

/// Panics if a series (a name and its labels) appears twice in `text`:
/// Prometheus refuses the whole exposition.
fn assert_series_distinct(what: &str, text: &str) {
    let mut series: Vec<&str> = (text.lines())
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.rsplit_once(' ').map_or(l, |(s, _)| s))
        .collect();
    series.sort_unstable();
    let repeated: Vec<&[&str]> = series.windows(2).filter(|w| w[0] == w[1]).collect();
    assert!(repeated.is_empty(), "{what}: repeated series {repeated:?}");
}

/// Holds `name`'s Prometheus rendering at `--jobs 1` to
/// `tests/golden/<file>`.
fn assert_prometheus_golden(name: &str, file: &str) -> String {
    let golden = golden(file);
    let got = run(name, &["--jobs", "1"]).metrics.render_prometheus();
    assert_families_contiguous(file, &golden);
    assert_families_contiguous(name, &got);
    assert_series_distinct(file, &golden);
    assert!(
        got == golden,
        "{name} Prometheus export drifted from tests/golden/{file} — {}\n\
         (if the change is intentional, regenerate the golden file)",
        first_diff(&got, &golden)
    );
    golden
}

/// exp_16's load-control table repeats each job count once per policy:
/// the policy must label its rows too.
#[test]
fn exp_16_exports_each_series_once() {
    let text = run("exp_16_load_control", &[]).metrics.render_prometheus();
    assert_families_contiguous("exp_16_load_control", &text);
    assert_series_distinct("exp_16_load_control", &text);
    assert!(text.contains("policy=\"integrated\""), "{text}");
}

#[test]
fn exp_01_prometheus_export_matches_golden() {
    assert_prometheus_golden("exp_01_artificial_contiguity", "exp_01_metrics.prom");
}

#[test]
fn exp_01_json_export_is_identical_across_jobs_widths() {
    let json = |jobs| {
        run("exp_01_artificial_contiguity", &["--jobs", jobs])
            .metrics
            .render_json()
    };
    let (a, b) = (json("1"), json("4"));
    assert!(
        a.trim_start().starts_with('{'),
        "expected a JSON document, got:\n{a}"
    );
    assert!(
        a == b,
        "exp_01 JSON metrics differ between --jobs 1 and --jobs 4 — \
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
    let golden = assert_prometheus_golden("exp_19_overload", "exp_19_metrics.prom");
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
}

/// The flags in `help`'s first line, e.g. `[--jobs N]` as `--jobs`.
fn listed(help: &str) -> Vec<&str> {
    let first = help.lines().next().unwrap_or("");
    first
        .split('[')
        .skip(1)
        .map(|f| f.split([' ', ']']).next().unwrap_or(f))
        .collect()
}

/// `--help` lists exactly what an experiment reads, plus the universal
/// `--metrics-out`; `--jobs` is listed if and only if it is read.
#[test]
fn every_binary_advertises_the_universal_telemetry_flags() {
    for exp in EXPERIMENTS {
        let out = spawn(exp.name, &["--help"]);
        assert!(
            out.status.success(),
            "{} --help: {:?}",
            exp.name,
            out.status
        );
        let help = String::from_utf8(out.stdout).expect("usage is UTF-8");
        let want: Vec<&str> = exp.flags.iter().map(|f| f.name).collect();
        assert_eq!(listed(&help), want, "{} --help:\n{help}", exp.name);
        assert!(want.contains(&"--metrics-out"), "{}", exp.name);
    }
}

/// Every flag some experiment reads is refused, with exit 2 and the
/// usage, by each experiment that does not read it.
#[test]
fn an_unread_flag_exits_2() {
    let mut all: Vec<FlagSpec> = Vec::new();
    for f in EXPERIMENTS.iter().flat_map(|e| e.flags) {
        if all.iter().all(|g| g.name != f.name) {
            all.push(*f);
        }
    }
    for exp in EXPERIMENTS {
        for flag in all
            .iter()
            .filter(|f| exp.flags.iter().all(|g| g.name != f.name))
        {
            let arg = if flag.value.is_some() {
                format!("{}=1", flag.name)
            } else {
                flag.name.to_owned()
            };
            let out = spawn(exp.name, &[&arg]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{} accepted {arg}", exp.name);
            assert!(
                stderr.starts_with(&format!(
                    "unrecognized argument: {arg}\nusage: {}",
                    exp.name
                )),
                "{} {arg}: {stderr}",
                exp.name
            );
        }
    }
}

/// What the binary writes to `--metrics-out` is the in-process render,
/// in both formats.
#[test]
fn metrics_out_writes_the_in_process_render() {
    let name = "exp_01_artificial_contiguity";
    let metrics = run(name, &["--jobs", "1"]).metrics;
    for (file, want) in [
        ("exp_01.prom", metrics.render_prometheus()),
        ("exp_01.json", metrics.render_json()),
    ] {
        let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(file);
        let path_arg = path.to_str().expect("UTF-8 path");
        let out = spawn(name, &["--jobs", "1", "--metrics-out", path_arg]);
        assert!(out.status.success(), "{name}: {:?}", out.status);
        let got = std::fs::read_to_string(&path).expect("metrics file written");
        assert!(got == want, "{file}: {}", first_diff(&got, &want));
    }
}

/// exp_20's constant-memory check is a `Failure`: exit 1, and its
/// message on stderr.
#[test]
fn exp_20_exits_1_past_its_rss_ceiling() {
    let out = spawn(
        "exp_20_trace_scale",
        &["--refs", "1000", "--max-rss-mb", "1"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("exceeds --max-rss-mb 1 — streaming is not constant-memory"),
        "{stderr}"
    );
}
