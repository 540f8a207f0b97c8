//! A probed machine run: the ATLAS preset with a [`TelemetryProbe`]
//! attached, printing the fault-latency distributions the end-of-run
//! report cannot show.
//!
//! The `MachineReport` says *how many* faults a run took; the probe's
//! event stream says how long each one stalled the program and how far
//! apart they fell in reference time — the dynamics behind the paper's
//! space-time cost of a fetch.
//!
//! ```text
//! cargo run --release --example probed_run
//! ```

use dsa::machines::presets::atlas;
use dsa::machines::Machine;
use dsa::metrics::histogram::Histogram;
use dsa::telemetry::TelemetryProbe;
use dsa::trace::program::ProgramCfg;
use dsa::trace::rng::Rng64;

fn print_histogram(title: &str, unit: &str, h: &Histogram) {
    println!("{title} (n={}, mean={:.0}{unit})", h.count(), h.mean());
    if h.count() == 0 {
        println!("  (empty)");
        return;
    }
    let peak = h
        .nonempty_buckets()
        .map(|(_, c)| c)
        .max()
        .unwrap_or(1)
        .max(1);
    for (low, count) in h.nonempty_buckets() {
        let bar = "#".repeat((count * 40 / peak).max(1) as usize);
        println!("  >= {low:>10}{unit}  {count:>6}  {bar}");
    }
    if h.overflow() > 0 {
        println!("  (+{} beyond the last bucket)", h.overflow());
    }
    println!();
}

fn main() {
    let mut rng = Rng64::new(1967);
    let program = ProgramCfg {
        segments: 24,
        touches: 20_000,
        advice_accuracy: Some(0.7),
        ..ProgramCfg::default()
    }
    .generate(&mut rng);

    let mut machine = atlas();
    let mut probe = TelemetryProbe::new();
    let report = machine
        .run_probed(&program.ops, &mut probe)
        .expect("program runs");

    println!(
        "probed run: {} on {} touches — {} faults, {} words fetched\n",
        machine.name(),
        report.touches,
        report.faults,
        report.fetched_words
    );

    let (service, gaps) = (probe.fetch_latency(), probe.inter_fault_gap());
    print_histogram("fault service latency", "ns", service);
    print_histogram("inter-fault distance", " refs", gaps);

    println!(
        "digest: faults: n={} p50={}ns p95={}ns | inter-fault p50={} refs",
        service.count(),
        service.quantile(0.5),
        service.quantile(0.95),
        gaps.quantile(0.5),
    );
}
