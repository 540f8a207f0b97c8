//! Always-on telemetry overhead: what the flight recorder and the
//! atomic histograms cost on the hot paths they watch.
//!
//! One group, `telemetry_arena_churn`: a single-threaded alloc/free
//! churn loop over a 4-shard `ShardedArena`, the allocation service's
//! hot path, swept over the probe variants. (What watching costs a
//! *machine driver* is the benchmark's business: `machine_survey_observed`
//! against `machine_survey`, `telemetry.overhead_ratio`,
//! `telemetry.ns_per_event`.)
//!
//! Variants: `null` (the `NullProbe` baseline the spine const-folds),
//! `flight` (lock-free per-thread ring, 6 relaxed stores per event),
//! `histograms` (the `TelemetryProbe` distribution set: shared counters
//! plus relaxed `fetch_add` into atomic histogram buckets), and
//! `flight+histograms` (both teed). The acceptance budget is
//! histograms-on churn within 15% of the null baseline.

use criterion::{criterion_group, criterion_main, Criterion};
use dsa_arena::ShardedArena;
use dsa_freelist::Placement;
use dsa_probe::{NullProbe, Probe, Stamp, Tee};
use dsa_telemetry::{FlightRecorder, TelemetryProbe};
use dsa_trace::rng::Rng64;

/// One churn op against the arena: alloc under a fresh id or free a
/// random live one.
enum Op {
    Alloc { id: u64, words: u64 },
    Free { id: u64 },
}

/// Bounded-live-set churn (same shape as the arena_churn bench), small
/// enough that one iteration is a few thousand locked operations.
fn churn_ops(n: usize) -> Vec<Op> {
    let mut rng = Rng64::new(0x7E1E);
    let mut live: Vec<u64> = Vec::new();
    let mut next = 0u64;
    let mut out = Vec::with_capacity(n + 300);
    for _ in 0..n {
        let grow = live.len() < 16 || (live.len() < 256 && rng.next_u64() % 100 < 55);
        if grow {
            let id = next;
            next += 1;
            out.push(Op::Alloc {
                id,
                words: 8 + rng.next_u64() % 120,
            });
            live.push(id);
        } else {
            let i = (rng.next_u64() as usize) % live.len();
            out.push(Op::Free {
                id: live.swap_remove(i),
            });
        }
    }
    for id in live {
        out.push(Op::Free { id });
    }
    out
}

/// Replays the churn against a fresh arena through `probe`; returns the
/// success count so the optimizer keeps the loop.
fn drive_arena<P: Probe>(ops: &[Op], mut probe: P) -> u64 {
    let arena = ShardedArena::new(4, 1 << 16, Placement::FirstFit);
    let mut ok = 0u64;
    for (vt, op) in ops.iter().enumerate() {
        let at = Stamp::vtime(vt as u64);
        let done = match *op {
            Op::Alloc { id, words } => arena.alloc_probed(id, words, at, &mut probe).is_ok(),
            Op::Free { id } => arena.free_probed(id, at, &mut probe).is_ok(),
        };
        ok += u64::from(done);
    }
    ok
}

fn arena_churn(c: &mut Criterion) {
    let ops = churn_ops(4_000);
    let recorder = FlightRecorder::new(1024);
    let telemetry = TelemetryProbe::default();
    let mut g = c.benchmark_group("telemetry_arena_churn");
    g.bench_function("null", |b| b.iter(|| drive_arena(&ops, NullProbe)));
    g.bench_function("flight", |b| {
        b.iter(|| drive_arena(&ops, recorder.handle()))
    });
    g.bench_function("histograms", |b| b.iter(|| drive_arena(&ops, &telemetry)));
    g.bench_function("flight+histograms", |b| {
        b.iter(|| drive_arena(&ops, Tee(&telemetry, recorder.handle())))
    });
    g.finish();
}

criterion_group!(
    name = telemetry;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = arena_churn
);
criterion_main!(telemetry);
