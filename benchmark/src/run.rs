//! One measurement of one workload in this process: set-up (several
//! times), the timed window, the correctness gate, and the report.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use crate::layers;
use crate::metrics::{Decl, Fields, LayerValues, END_TO_END, FAIL_RATIO, MODEL_COST, PER_LAYER};
use crate::spans::{self, Tracer};
use crate::stats;
use crate::sys;
use crate::workloads::{self, Outcome, Traced, Workload};

/// Set-ups per run; `setup_s` is their median. Each is input
/// generation, construction, and [`WARM_UPS`] untimed iterations.
const SETUPS: usize = layers::HEAPS;
const WARM_UPS: usize = 3;

/// The quantile of the iteration times (and of the iterations' CPU
/// times) the two host-time metrics are taken at. On a shared host,
/// other tenants only ever add time, in bursts of about a second that
/// cover anything from a tenth to more than half of a ten-second
/// window; over ten runs the tenth percentile spread half as wide as
/// the median did (README, "Steadiness"). The median and a high
/// percentile are printed beside it.
const QUIET_QUANTILE: f64 = 0.10;

/// Share of `--seconds` a traced run spends iterating (every other
/// iteration traced); the rest is left to the isolation passes.
const TRACED_SHARE: f64 = 0.8;

/// Digests pinned for the tuning seed and the held-out seed.
const EXPECTED: [(u64, &str); 2] = [
    (1967, include_str!("../expected/seed-1967.txt")),
    (7691, include_str!("../expected/seed-7691.txt")),
];

/// The digest pinned for `workload` at `seed`, if that seed is pinned:
/// lines of `<workload> <digest> <field>=<value>…`.
fn expected_digest(workload: &str, seed: u64) -> Option<(&'static str, &'static str)> {
    let (_, file) = EXPECTED.iter().find(|(s, _)| *s == seed)?;
    file.lines().find_map(|line| {
        let mut words = line.splitn(3, ' ');
        (words.next() == Some(workload)).then(|| {
            (
                words.next().unwrap_or(""),
                words.next().unwrap_or("").trim(),
            )
        })
    })
}

fn render_fields(fields: &Fields) -> String {
    let mut out = String::new();
    for (name, value) in &fields.0 {
        let _ = write!(out, " {name}={value}");
    }
    out.trim_start().to_owned()
}

/// The benchmark's own directory, where the trace files go: where
/// cargo says the manifest is now, else where it was at build time.
fn benchmark_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

struct Timed {
    first: Outcome,
    last: Outcome,
    attempted: u64,
    failed: u64,
    /// Seconds per iteration, untraced and traced.
    plain_s: Vec<f64>,
    traced_s: Vec<f64>,
    /// Process CPU nanoseconds per untraced iteration, all threads.
    cpu_ns: Vec<f64>,
}

/// Iterates until `seconds` have passed, at least once (twice when
/// tracing, so both kinds of iteration have a sample).
fn timed_window(w: &mut dyn Workload, tracer: &mut Tracer, seconds: f64, trace: bool) -> Timed {
    let mut timed = Timed {
        first: Outcome::default(),
        last: Outcome::default(),
        attempted: 0,
        failed: 0,
        plain_s: Vec::new(),
        traced_s: Vec::new(),
        cpu_ns: Vec::new(),
    };
    let mut reference: Option<u64> = None;
    let window = Instant::now();
    loop {
        let n = timed.plain_s.len() + timed.traced_s.len();
        let enough = if trace { n >= 2 } else { n >= 1 };
        if enough && window.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let tracing = trace && n % 2 == 0;
        tracer.record(tracing);
        tracer.next_iteration();
        let cpu_before = sys::process_cpu_ns();
        let start = Instant::now();
        let open = tracer.enter("harness.iteration");
        let outcome = w.iterate(tracer);
        tracer.exit(open, outcome.ops);
        let took = start.elapsed().as_secs_f64();
        if tracing {
            timed.traced_s.push(took);
        } else {
            timed.plain_s.push(took);
            timed
                .cpu_ns
                .push((sys::process_cpu_ns() - cpu_before) as f64);
        }
        timed.attempted += outcome.ops;
        timed.failed += outcome.forbidden;
        // Every iteration does the same work, so its counts must equal
        // the first iteration's, field for field.
        let digest = outcome.fields.digest();
        if *reference.get_or_insert(digest) != digest {
            timed.failed += outcome.ops;
        }
        if n == 0 {
            timed.first = outcome.clone();
        }
        timed.last = outcome;
    }
    tracer.record(false);
    timed
}

/// The sample at [`QUIET_QUANTILE`].
fn quiet(samples: &[f64]) -> f64 {
    stats::quantile(&stats::sorted(samples), QUIET_QUANTILE)
}

fn metric_line(out: &mut String, workload: &str, decl: &Decl, value: f64) {
    let _ = writeln!(out, "metric {workload} {} {value} {}", decl.name, decl.unit);
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&Decl, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (decl, value)) in metrics.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            decl.name,
            decl.unit
        );
    }
    out.push_str("}}");
    out
}

/// Measures `workload` and prints the report; the last line of
/// standard output is the result object. Returns whether every output
/// was correct.
pub fn measure(workload: &str, seed: u64, seconds: f64, trace: bool) -> bool {
    sys::pin_allocator_thresholds();
    let mut tracer = Tracer::new();
    let mut failed_late = 0;

    // Set-up, several times; the last one is measured.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut current: Option<Box<dyn Workload>> = None;
    for rep in 0..SETUPS {
        if let Some(mut previous) = current.take() {
            failed_late += previous.finish();
        }
        let start = Instant::now();
        let mut fresh = workloads::setup(workload, seed, rep).expect("the name was checked");
        for _ in 0..WARM_UPS {
            fresh.iterate(&mut tracer);
        }
        setup_s.push(start.elapsed().as_secs_f64());
        current = Some(fresh);
    }
    let mut w = current.expect("at least one set-up");

    let share = if trace { TRACED_SHARE } else { 1.0 };
    let mut timed = timed_window(w.as_mut(), &mut tracer, seconds * share, trace);

    // The correctness gate: cross-checks, reconciliation, pinned digest.
    tracer.record(trace);
    let crossed = w.cross_check(&mut tracer);
    tracer.record(false);
    if crossed > 0 {
        eprintln!("{workload}: {crossed} cross-check(s) failed");
        timed.failed += timed.last.ops;
    }
    failed_late += w.finish();
    timed.failed += failed_late;
    let digest = format!("{:016x}", timed.first.fields.digest());
    if let Some((expected, fields)) = expected_digest(workload, seed) {
        if expected != digest {
            eprintln!(
                "{workload}: digest {digest} is not the {expected} pinned for seed {seed}\n  \
                 pinned: {fields}\n  now:    {}",
                render_fields(&timed.first.fields)
            );
            timed.failed = timed.attempted;
        }
    }
    let failed = timed.failed.min(timed.attempted);
    let correct = failed == 0;

    let mut report = String::new();
    let iterations = timed.plain_s.len() + timed.traced_s.len();
    let _ = writeln!(
        report,
        "workload {workload} seed {seed} trace {} jobs {} iterations {iterations} \
         ops_per_iteration {}",
        u8::from(trace),
        layers::jobs(),
        timed.first.ops
    );
    let ops = timed.first.ops as f64;
    let model_cost = timed.first.model_cost_per_op();

    let result = if trace {
        let totals = spans::totals(tracer.spans());
        let traced = Traced {
            totals: &totals,
            iterations: timed.traced_s.len() as u64,
        };
        let mut values = LayerValues::default();
        w.layers(&traced, &timed.last, &mut values);
        let (p50, hi, _) = stats::median_and_high(&timed.traced_s);
        values.set("harness.iterations", timed.traced_s.len() as f64);
        values.set("harness.iter_ms_p50", p50 * 1e3);
        values.set("harness.iter_ms_hi", hi * 1e3);
        values.set("harness.spans", tracer.spans().len() as f64);
        values.set(
            "harness.trace_overhead_ratio",
            quiet(&timed.plain_s) / quiet(&timed.traced_s),
        );
        values.set("harness.jobs", layers::jobs() as f64);
        values.set(MODEL_COST.name, model_cost);

        let path = benchmark_dir().join("out");
        let file = path.join(format!("trace-{workload}.json"));
        let written = std::fs::create_dir_all(&path).and_then(|()| {
            std::fs::write(&file, spans::render_json(workload, seed, tracer.spans()))
        });
        match written {
            Ok(()) => {
                let _ = writeln!(report, "trace {workload} {}", file.display());
            }
            Err(e) => eprintln!("{workload}: could not write {}: {e}", file.display()),
        }
        let metrics: Vec<(&Decl, f64)> =
            PER_LAYER.iter().map(|d| (d, values.get(d.name))).collect();
        for (decl, value) in &metrics {
            metric_line(&mut report, workload, decl, *value);
        }
        json_line(correct, timed.attempted, failed, &metrics)
    } else {
        let (median_s, high_s, percentile) = stats::median_and_high(&timed.plain_s);
        let values = [
            ops / quiet(&timed.plain_s),
            quiet(&timed.cpu_ns) / ops,
            sys::peak_rss_mib(),
            stats::median(&setup_s),
        ];
        let metrics: Vec<(&Decl, f64)> = END_TO_END.iter().map(|e| &e.decl).zip(values).collect();
        for (decl, value) in &metrics {
            metric_line(&mut report, workload, decl, *value);
        }
        metric_line(
            &mut report,
            workload,
            &FAIL_RATIO,
            failed as f64 / timed.attempted as f64,
        );
        metric_line(&mut report, workload, &MODEL_COST, model_cost);
        let _ = writeln!(
            report,
            "note {workload} of n={iterations} iteration times: ops_per_s at the median {} op/s, \
             at p{percentile} {} op/s; set-ups {setup_s:?} s",
            ops / median_s,
            ops / high_s
        );
        json_line(correct, timed.attempted, failed, &metrics)
    };
    let _ = writeln!(
        report,
        "digest {workload} {seed} {digest} {}",
        render_fields(&timed.first.fields)
    );
    print!("{report}");
    println!("{result}");
    correct
}
