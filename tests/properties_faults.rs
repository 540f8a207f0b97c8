//! Properties of the fault-injection and recovery subsystem.
//!
//! Three guarantees, checked across machines and fault schedules:
//! no storage is lost or duplicated by recovery (every machine's
//! internal invariants hold after a faulty run and every transfer
//! completes), runs are bit-identical given the same seed, and the
//! probe-reconciliation contract of the tracing layer survives the
//! injector being armed.

use dsa::core::access::ProgramOp;
use dsa::core::clock::Cycles;
use dsa::faults::FaultConfig;
use dsa::machines::presets::{atlas, b5000, multics};
use dsa::machines::MachineReport;
use dsa::probe::CountingProbe;
use dsa::trace::allocstream::SizeDist;
use dsa::trace::program::ProgramCfg;
use dsa::trace::rng::Rng64;
use proptest::prelude::*;

/// A workload heavy enough to overflow every preset's working storage:
/// faults (and therefore transfers, the injector's hazard sites) must
/// actually occur for these properties to bite.
fn workload() -> Vec<ProgramOp> {
    let mut rng = Rng64::new(7);
    let cfg = ProgramCfg {
        segments: 48,
        seg_sizes: SizeDist::Exponential {
            mean: 700.0,
            cap: 4000,
        },
        touches: 10_000,
        phase_set: 6,
        phase_len: 500,
        advice_accuracy: Some(1.0),
        wild_touch_prob: 0.02,
        ..ProgramCfg::default()
    };
    cfg.generate(&mut rng).ops
}

/// Fault schedules from quiet to hostile; recovery must hold under all.
fn schedules() -> Vec<FaultConfig> {
    vec![
        FaultConfig::off(),
        FaultConfig::transfer_errors(0.01),
        FaultConfig::transfer_errors(0.05),
        FaultConfig::transfer_errors(0.02)
            .with_bad_frames(0.02)
            .with_channel_delays(0.05, Cycles::from_micros(20)),
        FaultConfig {
            alloc_fail_rate: 0.02,
            ..FaultConfig::transfer_errors(0.05)
                .with_bad_frames(0.01)
                .with_channel_delays(0.02, Cycles::from_micros(5))
        },
    ]
}

fn assert_same_report(a: &MachineReport, b: &MachineReport, ctx: &str) {
    assert_eq!(a.touches, b.touches, "{ctx}: touches");
    assert_eq!(a.faults, b.faults, "{ctx}: faults");
    assert_eq!(a.fetched_words, b.fetched_words, "{ctx}: fetched words");
    assert_eq!(
        a.writeback_words, b.writeback_words,
        "{ctx}: writeback words"
    );
    assert_eq!(a.fetch_time, b.fetch_time, "{ctx}: fetch time");
    assert_eq!(a.map_time, b.map_time, "{ctx}: map time");
    assert_eq!(a.bounds_caught, b.bounds_caught, "{ctx}: bounds");
    assert_eq!(a.wild_undetected, b.wild_undetected, "{ctx}: wild");
    assert_eq!(a.advice_ops, b.advice_ops, "{ctx}: advice");
    assert_eq!(a.prefetches, b.prefetches, "{ctx}: prefetches");
    assert_eq!(a.alloc_failures, b.alloc_failures, "{ctx}: alloc failures");
    assert_eq!(a.recovery, b.recovery, "{ctx}: recovery report");
}

/// Runs every preset under `config` with `seed`, returning
/// (name, report, probe totals) per machine and asserting the
/// machine's internal invariants afterwards.
fn run_all(
    seed: u64,
    config: FaultConfig,
    ops: &[ProgramOp],
) -> Vec<(&'static str, MachineReport, CountingProbe)> {
    let mut out = Vec::new();

    let mut m = atlas().with_fault_injection(seed, config);
    let mut probe = CountingProbe::new();
    let r = m.run_with(ops, &mut probe).expect("atlas survives faults");
    m.check_invariants();
    out.push(("ATLAS", r, probe));

    let mut m = b5000().with_fault_injection(seed, config);
    let mut probe = CountingProbe::new();
    let r = m.run_with(ops, &mut probe).expect("b5000 survives faults");
    m.check_invariants();
    out.push(("B5000", r, probe));

    let mut m = multics().with_fault_injection(seed, config);
    let mut probe = CountingProbe::new();
    let r = m
        .run_with(ops, &mut probe)
        .expect("multics survives faults");
    m.check_invariants();
    out.push(("MULTICS", r, probe));

    out
}

#[test]
fn no_storage_lost_or_duplicated_under_any_fault_schedule() {
    let ops = workload();
    for (i, config) in schedules().into_iter().enumerate() {
        // run_all asserts each machine's internal invariants: frame
        // partitions (resident + free + quarantined == all), segment
        // residency, and allocator bookkeeping all still balance.
        for (name, report, probe) in run_all(41 + i as u64, config, &ops) {
            // Every transfer that started completed — retries re-wait
            // but never abandon a fetch half-done.
            assert_eq!(
                probe.fetch_starts, probe.fetches,
                "schedule {i}, {name}: FetchStart/FetchDone pairing"
            );
            // Words entered working storage exactly as often as the
            // report claims; none vanished into a failed transfer.
            assert_eq!(
                probe.fetched_words, report.fetched_words,
                "schedule {i}, {name}: fetched words"
            );
            assert_eq!(
                probe.writeback_words, report.writeback_words,
                "schedule {i}, {name}: writeback words"
            );
            assert_eq!(
                probe.touches, report.touches,
                "schedule {i}, {name}: every touch serviced"
            );
        }
    }
}

#[test]
fn runs_are_bit_identical_given_the_same_seed() {
    let ops = workload();
    for (i, config) in schedules().into_iter().enumerate() {
        let first = run_all(97, config, &ops);
        let second = run_all(97, config, &ops);
        for ((name, a, _), (_, b, _)) in first.iter().zip(second.iter()) {
            assert_same_report(a, b, &format!("schedule {i}, {name}"));
        }
    }
}

#[test]
fn different_seeds_draw_different_fault_schedules() {
    let ops = workload();
    let config = FaultConfig::transfer_errors(0.05).with_bad_frames(0.02);
    let a = run_all(1, config, &ops);
    let b = run_all(2, config, &ops);
    let differs = a
        .iter()
        .zip(b.iter())
        .any(|((_, ra, _), (_, rb, _))| ra.recovery != rb.recovery);
    assert!(differs, "two seeds injected identical fault schedules");
}

#[test]
fn probe_reconciliation_holds_with_the_injector_attached() {
    let ops = workload();
    for (i, config) in schedules().into_iter().enumerate() {
        for (name, report, probe) in run_all(7 + i as u64, config, &ops) {
            let ctx = format!("schedule {i}, {name}");
            // The tracing layer's original contract.
            assert_eq!(probe.touches, report.touches, "{ctx}: touches");
            assert_eq!(probe.faults, report.faults, "{ctx}: faults");
            assert_eq!(
                probe.bounds_traps, report.bounds_caught,
                "{ctx}: bounds traps"
            );
            assert_eq!(probe.advice, report.advice_ops, "{ctx}: advice ops");
            assert_eq!(probe.prefetches, report.prefetches, "{ctx}: prefetches");
            // The recovery extension: every fault, retry, quarantine,
            // and degradation the report counts was traced, and vice
            // versa.
            let rec = &report.recovery;
            assert_eq!(
                probe.faults_injected, rec.faults_injected,
                "{ctx}: faults injected"
            );
            assert_eq!(
                probe.transfer_errors_injected, rec.transfer_errors,
                "{ctx}: transfer errors"
            );
            assert_eq!(
                probe.bad_frames_injected, rec.bad_frames,
                "{ctx}: bad frames"
            );
            assert_eq!(
                probe.channel_delays_injected, rec.channel_delays,
                "{ctx}: channel delays"
            );
            assert_eq!(
                probe.alloc_failures_injected, rec.forced_alloc_failures,
                "{ctx}: forced alloc failures"
            );
            assert_eq!(
                probe.retry_attempts, rec.retry_attempts,
                "{ctx}: retry attempts"
            );
            assert_eq!(
                probe.frames_quarantined, rec.frames_quarantined,
                "{ctx}: quarantined frames"
            );
            assert_eq!(
                probe.degradation_steps, rec.degradation_steps,
                "{ctx}: degradation steps"
            );
            assert_eq!(probe.shed_loads, rec.shed_loads, "{ctx}: shed loads");
        }
    }
}

#[test]
fn hostile_schedules_actually_exercise_the_recovery_paths() {
    let ops = workload();
    let config = FaultConfig {
        alloc_fail_rate: 0.02,
        ..FaultConfig::transfer_errors(0.05)
            .with_bad_frames(0.02)
            .with_channel_delays(0.05, Cycles::from_micros(20))
    };
    let results = run_all(13, config, &ops);
    let total: u64 = results
        .iter()
        .map(|(_, r, _)| r.recovery.faults_injected)
        .sum();
    assert!(total > 0, "the hostile schedule injected nothing");
    let retried: u64 = results
        .iter()
        .map(|(_, r, _)| r.recovery.retry_attempts)
        .sum();
    assert!(retried > 0, "no transfer was ever retried");
    // The paged machines saw bad frames at 2% of ~hundreds of fetches.
    let quarantined: u64 = results
        .iter()
        .map(|(_, r, _)| r.recovery.frames_quarantined)
        .sum();
    assert!(quarantined > 0, "no frame was ever quarantined");
}

/// One stream's full decision schedule, byte-encoded: every roll the
/// worker makes, in call order. Two runs with the same (seed, stream)
/// must produce identical bytes no matter how streams are packed onto
/// threads.
fn stream_schedule(worker: &mut dsa::faults::WorkerInjector<'_>, rolls: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(rolls * 4);
    for _ in 0..rolls {
        out.push(match worker.channel_delay() {
            Some(_) => 1,
            None => 0,
        });
        out.push(u8::from(worker.alloc_failure()));
        if worker.shard_corruption() {
            out.push(1);
            out.push(worker.corruption_target(8) as u8);
        } else {
            out.push(0);
        }
    }
    out
}

proptest! {
    /// The thread-safe injector is deterministic *per stream*: running
    /// the same 8 streams on 1, 2, or 8 worker threads yields
    /// byte-identical fault schedules for every stream and an identical
    /// end-of-run `RecoveryReport`, for any seed.
    #[test]
    fn sync_injector_schedule_is_identical_at_1_2_and_8_threads(seed in any::<u64>()) {
        use std::sync::Mutex;
        use dsa::faults::SyncFaultInjector;
        const STREAMS: usize = 8;
        const ROLLS: usize = 200;
        let config = FaultConfig {
            alloc_fail_rate: 0.05,
            ..FaultConfig::off().with_channel_delays(0.04, Cycles::from_micros(10))
        };
        let mut baseline: Option<(Vec<Vec<u8>>, dsa::faults::RecoveryReport)> = None;
        for threads in [1usize, 2, 8] {
            let inj = SyncFaultInjector::new(seed, config);
            let schedules: Vec<Mutex<Vec<u8>>> =
                (0..STREAMS).map(|_| Mutex::new(Vec::new())).collect();
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let inj = &inj;
                    let schedules = &schedules;
                    scope.spawn(move || {
                        // Streams are packed round-robin onto threads:
                        // every width covers the same stream set.
                        for s in (t..STREAMS).step_by(threads) {
                            let mut worker = inj.worker(s as u64);
                            *schedules[s].lock().unwrap() =
                                stream_schedule(&mut worker, ROLLS);
                        }
                    });
                }
            });
            let got: Vec<Vec<u8>> = schedules
                .into_iter()
                .map(|m| m.into_inner().unwrap())
                .collect();
            let report = inj.report();
            match &baseline {
                None => baseline = Some((got, report)),
                Some((want_sched, want_report)) => {
                    prop_assert_eq!(
                        &got, want_sched,
                        "fault schedule changed with thread count {}", threads
                    );
                    prop_assert_eq!(
                        &report, want_report,
                        "RecoveryReport changed with thread count {}", threads
                    );
                }
            }
        }
    }
}
