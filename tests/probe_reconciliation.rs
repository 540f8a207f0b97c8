//! The probe stream and the machine report are two views of one
//! execution: for every appendix machine, the `CountingProbe` totals
//! must equal the corresponding `MachineReport` fields exactly — and so
//! must the `TelemetryProbe`'s, which reaches its counters by another
//! path. `run_probed` asks a dynamic sink whether it is enabled once
//! per run: a disabled sink must never be called, an enabled one must
//! see exactly the stream a statically dispatched `run_with` sees.

use dsa::machines::presets::{
    all_machines, atlas, b5000, b8500, favoured, m44_44x, model67, multics, rice,
};
use dsa::machines::{Machine, MachineReport};
use dsa::probe::{CountingProbe, Event, Probe};
use dsa::telemetry::TelemetryProbe;
use dsa::trace::program::ProgramCfg;
use dsa::trace::rng::Rng64;

fn workload() -> Vec<dsa::core::access::ProgramOp> {
    let mut rng = Rng64::new(7);
    let mut cfg = ProgramCfg {
        segments: 12,
        touches: 3000,
        advice_accuracy: Some(1.0),
        ..ProgramCfg::default()
    };
    cfg.wild_touch_prob = 0.02;
    cfg.generate(&mut rng).ops
}

fn machines() -> Vec<Box<dyn Machine>> {
    let mut v = all_machines();
    v.push(Box::new(favoured()));
    v
}

/// The fields a counting sink and a report both keep must agree.
fn assert_reconciled(probe: &CountingProbe, report: &MachineReport, name: &str) {
    assert_eq!(probe.touches, report.touches, "{name}: touches");
    assert_eq!(probe.faults, report.faults, "{name}: faults");
    assert_eq!(
        probe.fetched_words, report.fetched_words,
        "{name}: fetched words"
    );
    assert_eq!(
        probe.writeback_words, report.writeback_words,
        "{name}: writeback words"
    );
    assert_eq!(probe.advice, report.advice_ops, "{name}: advice ops");
    assert_eq!(
        probe.bounds_traps, report.bounds_caught,
        "{name}: bounds traps"
    );
    assert_eq!(probe.prefetches, report.prefetches, "{name}: prefetches");
    assert_eq!(
        probe.fetch_starts, probe.fetches,
        "{name}: every FetchStart pairs with a FetchDone"
    );
    assert!(probe.map_lookups > 0, "{name}: map lookups were traced");
}

#[test]
fn counting_probe_reconciles_with_every_machine_report() {
    let ops = workload();
    for mut m in machines() {
        let mut probe = CountingProbe::new();
        let report = m
            .run_probed(&ops, &mut probe)
            .unwrap_or_else(|_| panic!("{}", m.name()));
        assert_reconciled(&probe, &report, m.name());
    }
}

#[test]
fn telemetry_probe_reconciles_with_every_machine_report() {
    let ops = workload();
    for (mut counted, mut watched) in machines().into_iter().zip(machines()) {
        let name = counted.name();
        let mut counting = CountingProbe::new();
        counted.run_probed(&ops, &mut counting).unwrap();
        let mut telemetry = TelemetryProbe::new();
        let report = watched.run_probed(&ops, &mut telemetry).unwrap();
        assert_reconciled(&telemetry.counters(), &report, name);
        // Not only the reconciled fields: the whole table.
        assert_eq!(telemetry.counters(), counting, "{name}");
        assert_eq!(
            telemetry.fetch_latency().count(),
            counting.fetches,
            "{name}: one latency sample per completed fetch"
        );
    }
}

/// A sink that keeps what it is handed and says whether it wants any.
struct Collector {
    enabled: bool,
    seen: Vec<Event>,
}

impl Collector {
    fn new(enabled: bool) -> Collector {
        Collector {
            enabled,
            seen: Vec::new(),
        }
    }
}

impl Probe for Collector {
    fn record(&mut self, event: &Event) {
        self.seen.push(*event);
    }

    fn is_enabled(&self) -> bool {
        self.enabled
    }
}

#[test]
fn a_disabled_dynamic_sink_is_never_called() {
    let ops = workload();
    for (mut plain, mut probed) in machines().into_iter().zip(machines()) {
        let unwatched = plain.run(&ops).unwrap();
        let mut sink = Collector::new(false);
        let sink_dyn: &mut dyn Probe = &mut sink;
        let report = probed.run_probed(&ops, sink_dyn).unwrap();
        assert!(sink.seen.is_empty(), "{}: record was called", plain.name());
        assert_eq!(format!("{report:?}"), format!("{unwatched:?}"));
    }
}

#[test]
fn an_enabled_dynamic_sink_sees_the_static_stream() {
    let ops = workload();
    macro_rules! streams_agree {
        ($($preset:ident),*) => {$({
            let mut fixed = Collector::new(true);
            let a = $preset().run_with(&ops, &mut fixed).unwrap();
            let mut dynamic = Collector::new(true);
            let sink_dyn: &mut dyn Probe = &mut dynamic;
            let b = $preset().run_probed(&ops, sink_dyn).unwrap();
            assert!(!fixed.seen.is_empty(), stringify!($preset));
            assert_eq!(fixed.seen, dynamic.seen, stringify!($preset));
            assert_eq!(format!("{a:?}"), format!("{b:?}"), stringify!($preset));
        })*};
    }
    streams_agree!(atlas, m44_44x, b5000, rice, b8500, multics, model67, favoured);
}

#[test]
fn probing_does_not_perturb_any_machine() {
    let ops = workload();
    for (mut plain, mut probed) in machines().into_iter().zip(machines()) {
        let a = plain.run(&ops).unwrap();
        let mut probe = CountingProbe::new();
        let b = probed.run_probed(&ops, &mut probe).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{}", plain.name());
    }
}
