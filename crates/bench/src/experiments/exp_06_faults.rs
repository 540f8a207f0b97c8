//! E6b — degradation curves under injected storage faults.
//!
//! The paper's systems lean on "special hardware facilities" that trap
//! what software cannot foresee: transfer errors on the drum channel,
//! frames whose storage has gone bad, exhaustion the allocator must
//! survive. This experiment injects exactly those failures at
//! controlled rates into three machines — one per mapping family — and
//! measures what graceful recovery costs: throughput and fault-service
//! latency versus injected transfer-error rate, plus what the recovery
//! machinery did (retries, quarantines, degradation rungs).
//!
//! Every run is checked for exact reconciliation: the `RecoveryReport`
//! the machine returns must match, count for count, the
//! `FaultInjected`/`RetryAttempt`/`FrameQuarantined`/`DegradationStep`
//! events the probe observed.

use crate::workloads::survey_program_cfg;
use dsa_core::access::ProgramOp;
use dsa_core::clock::Cycles;
use dsa_exec::{product2, SimGrid};
use dsa_faults::FaultConfig;
use dsa_machines::presets::{atlas, b5000, multics};
use dsa_machines::MachineReport;
use dsa_metrics::table::Table;
use dsa_probe::CountingProbe;
use dsa_telemetry::{FlightRecorder, TelemetryProbe};
use dsa_trace::rng::Rng64;

use crate::cli::FLIGHT_RECORDER;
use crate::{Args, Failure, Report};

/// The injected failure mix at a given transfer-error rate: bad frames
/// at a tenth of the rate, channel stalls at the rate itself.
fn config_at(rate: f64) -> FaultConfig {
    if rate == 0.0 {
        FaultConfig::off()
    } else {
        FaultConfig::transfer_errors(rate)
            .with_bad_frames(rate / 10.0)
            .with_channel_delays(rate, Cycles::from_micros(20))
    }
}

/// Asserts that the recovery report and the probe's totals are two
/// views of one execution.
fn assert_reconciles(name: &str, rate: f64, r: &MachineReport, c: &CountingProbe) {
    let rec = &r.recovery;
    let pairs: [(&str, u64, u64); 9] = [
        ("faults_injected", c.faults_injected, rec.faults_injected),
        (
            "transfer_errors",
            c.transfer_errors_injected,
            rec.transfer_errors,
        ),
        ("bad_frames", c.bad_frames_injected, rec.bad_frames),
        (
            "channel_delays",
            c.channel_delays_injected,
            rec.channel_delays,
        ),
        (
            "forced_alloc_failures",
            c.alloc_failures_injected,
            rec.forced_alloc_failures,
        ),
        ("retry_attempts", c.retry_attempts, rec.retry_attempts),
        (
            "frames_quarantined",
            c.frames_quarantined,
            rec.frames_quarantined,
        ),
        (
            "degradation_steps",
            c.degradation_steps,
            rec.degradation_steps,
        ),
        ("shed_loads", c.shed_loads, rec.shed_loads),
    ];
    for (field, probe_total, report_total) in pairs {
        assert_eq!(
            probe_total, report_total,
            "{name} @ rate {rate}: probe/report disagree on {field}"
        );
    }
    assert_eq!(c.touches, r.touches, "{name} @ rate {rate}: touches");
    assert_eq!(c.faults, r.faults, "{name} @ rate {rate}: faults");
}

fn run_one(name: &str, rate: f64, ops: &[ProgramOp]) -> Vec<String> {
    let seed = 6;
    let mut probe = TelemetryProbe::new();
    let report = match name {
        "ATLAS" => atlas()
            .with_fault_injection(seed, config_at(rate))
            .run_with(ops, &mut probe),
        "B5000" => b5000()
            .with_fault_injection(seed, config_at(rate))
            .run_with(ops, &mut probe),
        "MULTICS" => multics()
            .with_fault_injection(seed, config_at(rate))
            .run_with(ops, &mut probe),
        other => unreachable!("unknown preset {other}"),
    };
    let r = report.unwrap_or_else(|e| panic!("{name} @ rate {rate}: {e}"));
    assert_reconciles(name, rate, &r, &probe.counters());

    // Throughput: touches per millisecond of machine-busy time (fetch
    // waits plus addressing); the denominator is what faults inflate.
    let busy_ns = (r.fetch_time + r.map_time).as_nanos().max(1);
    let throughput = r.touches as f64 * 1e6 / busy_ns as f64;
    let service = probe.fetch_latency();
    vec![
        name.to_owned(),
        format!("{rate:.0e}"),
        r.touches.to_string(),
        r.faults.to_string(),
        r.recovery.transfer_errors.to_string(),
        r.recovery.retry_attempts.to_string(),
        r.recovery.frames_quarantined.to_string(),
        r.recovery.degradation_steps.to_string(),
        r.alloc_failures.to_string(),
        format!("{throughput:.1}"),
        service.quantile(0.5).to_string(),
        service.quantile(0.95).to_string(),
    ]
}

pub(super) fn run(args: &Args, rep: &mut Report) -> Result<(), Failure> {
    let mut rng = Rng64::new(6);
    let program = survey_program_cfg().generate(&mut rng);
    let mut t = Table::new(&["touches", "transfer errors", "bad frames", "channel stalls"])
        .with_title("workload, and the fault mix at transfer-error rate r");
    t.row_owned(vec![
        program.touch_count().to_string(),
        "r".to_owned(),
        "r/10".to_owned(),
        "r (20 us)".to_owned(),
    ]);
    rep.table("workload", t);

    let mut results = Table::new(&[
        "machine",
        "rate",
        "touches",
        "faults",
        "xfer errs",
        "retries",
        "quarantined",
        "degradations",
        "alloc fails",
        "touches/ms busy",
        "svc p50 ns",
        "svc p95 ns",
    ])
    .with_title("degradation curves (one row per machine x error rate)");

    // Each (machine, rate) pair is an independent injected run; the
    // per-cell fault RNG is seeded inside run_one, so cells are pure.
    let grid = SimGrid::new(product2(
        &["ATLAS", "B5000", "MULTICS"],
        &[0.0, 1e-4, 1e-3, 1e-2],
    ));
    for row in grid.run(args.jobs(), |_, &(name, rate)| {
        run_one(name, rate, &program.ops)
    }) {
        results.row_owned(row);
    }
    rep.table("degradation", results);

    // Postmortem demonstration: with `--flight-recorder N`, replay the
    // worst injected cell with a recorder handle teed into the probe
    // and dump the tail of the event stream — exactly what a
    // production fault report would attach.
    if let Some(slots) = args.count(FLIGHT_RECORDER) {
        let recorder = FlightRecorder::new(slots);
        let mut probe = TelemetryProbe::new();
        let mut sink = dsa_probe::Tee(&mut probe, recorder.handle());
        let report = atlas()
            .with_fault_injection(6, config_at(1e-2))
            .run_with(&program.ops, &mut sink)
            .expect("degrades gracefully but completes");
        assert!(report.recovery.faults_injected > 0, "1e-2 always injects");
        let mut t = Table::new(&["machine", "rate", "faults injected"])
            .with_title("the replayed run, a flight recorder teed into its probe");
        t.row_owned(vec![
            "ATLAS".to_owned(),
            "1e-2".to_owned(),
            report.recovery.faults_injected.to_string(),
        ]);
        rep.table("replay", t);
        let title = format!("postmortem (flight recorder, {slots} slots per thread)");
        rep.table("postmortem", recorder.postmortem(16).with_title(&title));
    }
    Ok(())
}
