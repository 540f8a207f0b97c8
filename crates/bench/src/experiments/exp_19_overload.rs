//! E19 — overload and recovery in the concurrent allocation service
//! (extension).
//!
//! The paper's machines degrade gracefully on one thread; this
//! experiment asks the same of the *service*. A tenant grid offers more
//! storage than the striped arena holds — tenants × offered load, with
//! priorities striped across tenants — once with the service bare and
//! once behind the `OverloadGuard`. Without admission control the
//! arena fills and every class fails alike (collapse: the highest
//! priority is exactly as dead as the lowest). With the guard, low
//! classes are refused at the door past the occupancy watermarks and
//! the degradation ladder (retry → coalesce → compact-and-steal → shed
//! lowest-priority tenants) keeps serving the top class — graceful
//! saturation, measured per class.
//!
//! Every grid cell is a deterministic single-threaded replay, so the
//! whole table is byte-identical at any `--jobs` width (the flag fans
//! the *cells*, never the traffic). The multithreaded sections print
//! only verdicts — books that reconcile exactly are the same words at
//! any interleaving — and `--chaos` adds deterministic fault injection:
//! forced allocation failures, channel delays, and shard corruption
//! that is quarantined and healed under live traffic, with a fault
//! schedule that is a pure function of (seed, stream).

use dsa_arena::{ArenaService, OverloadGuard, Priority};
use dsa_exec::{par_map, product2};
use dsa_faults::{FaultConfig, SyncFaultInjector};
use dsa_metrics::table::Table;
use dsa_telemetry::FlightRecorder;
use dsa_trace::rng::Rng64;

use crate::cli::{CHAOS, FLIGHT_RECORDER};
use crate::report::yes;
use crate::workloads::{churn, drive, Churn};
use crate::{Args, Failure, Report};

/// The striped arena of the grid cells and the multithreaded sections:
/// shards, and words per shard.
const SHARDS: u32 = 4;
const SHARD_WORDS: u64 = 4096;
/// The arena's capacity in words.
const CAPACITY: u64 = SHARDS as u64 * SHARD_WORDS;
/// Offered load per cell, as words requested: past twice the capacity,
/// so every cell runs deep into overload.
const OFFERED: u64 = CAPACITY * 22 / 10;

/// The multithreaded sections' streams (the chaos section's are 4000
/// requests long).
const MT_CHURN: Churn = Churn {
    seed: 0xE19_C0DE,
    ops: 5000,
    live: 8..96,
    words: 56,
};

/// The priority a tenant index allocates at: striped Low / Normal /
/// High so every class is present (from three tenants up) and the
/// per-class fates are comparable across cells.
fn tenant_priority(i: u32) -> Priority {
    match i % 3 {
        0 => Priority::Low,
        1 => Priority::Normal,
        _ => Priority::High,
    }
}

fn class_index(p: Priority) -> usize {
    match p {
        Priority::Low => 0,
        Priority::Normal => 1,
        Priority::High => 2,
    }
}

/// One cell's outcome, per priority class.
struct CellOut {
    attempts: [u64; 3],
    ok: [u64; 3],
    quota_denials: u64,
    admission_rejects: u64,
    sheds: u64,
}

/// Builds the cell's service: low/normal tenants get quotas of
/// 1.2 × C ∕ t (oversubscribing the arena, so storage — not the quota —
/// is the binding constraint), while high-priority tenants are surge
/// clients with 3 × C ∕ t: more than the watermarks can ever clear, so
/// serving them forces the guard all the way down the ladder to the
/// shed rung. Guarded or bare.
fn cell_service(tenants: u32, guarded: bool) -> ArenaService {
    let mut svc = ArenaService::striped(SHARDS, SHARD_WORDS);
    if guarded {
        svc = svc.with_overload(1024);
    }
    for i in 0..tenants {
        let p = tenant_priority(i);
        let quota = match p {
            Priority::High => CAPACITY * 30 / (10 * u64::from(tenants)),
            _ => CAPACITY * 12 / (10 * u64::from(tenants)),
        };
        svc.register_tenant(i, p, quota);
    }
    svc
}

/// Drives one grid cell: tenants take turns offering blocks, each
/// working toward a live set of 1.1 × C ∕ t words — individually under
/// quota, but summed to 110% of the arena, so the binding constraint is
/// the storage itself and the cell runs in perpetual mild overload.
/// Tenants free their own oldest blocks to stay at their target, which
/// keeps churn (and fragmentation for the coalesce/compact rungs) in
/// the hole pattern. Single-threaded and seeded per cell — a pure
/// function of the coordinates.
fn drive_cell(svc: &ArenaService, tenants: u32) -> CellOut {
    let mut rng = Rng64::new(0xE19_0000 + u64::from(tenants));
    let mut live: Vec<Vec<(u64, u64)>> = vec![Vec::new(); tenants as usize];
    let mut live_words: Vec<u64> = vec![0; tenants as usize];
    let target_for = |t: u32| match tenant_priority(t) {
        Priority::High => CAPACITY * 28 / (10 * u64::from(tenants)),
        _ => CAPACITY * 11 / (10 * u64::from(tenants)),
    };
    let mut next_id = 0u64;
    let mut offered = 0u64;
    let mut out = CellOut {
        attempts: [0; 3],
        ok: [0; 3],
        quota_denials: 0,
        admission_rejects: 0,
        sheds: 0,
    };
    'offer: loop {
        for t in 0..tenants {
            if offered >= OFFERED {
                break 'offer;
            }
            let slot = t as usize;
            let words = 16 + rng.next_u64() % 48;
            // Stay at the target live set: free own blocks (random
            // members, so holes scatter) until the new block would fit.
            while live_words[slot] + words > target_for(t) && !live[slot].is_empty() {
                let i = (rng.next_u64() as usize) % live[slot].len();
                let (id, freed) = live[slot].swap_remove(i);
                live_words[slot] -= freed;
                let _ = svc.free(id);
            }
            offered += words;
            let cls = class_index(tenant_priority(t));
            out.attempts[cls] += 1;
            let id = next_id;
            next_id += 1;
            if svc.alloc(id, words, t).is_ok() {
                out.ok[cls] += 1;
                live[slot].push((id, words));
                live_words[slot] += words;
            }
        }
    }
    svc.check_reconciliation();
    for occ in svc.tenant_occupancy() {
        out.quota_denials += occ.quota_denials;
        out.sheds += occ.shed;
    }
    out.admission_rejects = svc.guard().map_or(0, OverloadGuard::admission_rejects);
    out
}

fn pct(ok: u64, attempts: u64) -> String {
    if attempts == 0 {
        "-".to_owned()
    } else {
        format!("{:.1}%", ok as f64 * 100.0 / attempts as f64)
    }
}

/// A guarded 4-tenant service for the multithreaded sections.
fn mt_service(tenants: u32) -> ArenaService {
    let mut svc = ArenaService::striped(SHARDS, SHARD_WORDS).with_overload(64);
    for i in 0..tenants {
        svc.register_tenant(i, tenant_priority(i), CAPACITY / 3);
    }
    svc
}

pub(super) fn run(args: &Args, rep: &mut Report) -> Result<(), Failure> {
    let chaos = args.switch(CHAOS);
    let jobs = args.jobs();
    let mut t = Table::new(&["shards", "shard words", "capacity", "offered", "load"]).with_title(
        "the arena, and what every cell offers it (t tenants striped low/normal/high; \
         quotas 1.2 x C/t, high surge clients 3 x C/t)",
    );
    t.row_owned(vec![
        SHARDS.to_string(),
        SHARD_WORDS.to_string(),
        CAPACITY.to_string(),
        OFFERED.to_string(),
        format!("{:.1}x", OFFERED as f64 / CAPACITY as f64),
    ]);
    rep.table("arena", t);

    // Part 1: the tenant grid, bare vs guarded.
    let cells: Vec<(u32, bool)> = product2(&[2u32, 4, 8, 16], &[false, true]);
    let outs = par_map(jobs, &cells, |_, &(tenants, guarded)| {
        let svc = cell_service(tenants, guarded);
        drive_cell(&svc, tenants)
    });
    let mut t = Table::new(&[
        "tenants",
        "mode",
        "attempts",
        "ok",
        "adm rejects",
        "quota denials",
        "sheds",
        "low ok",
        "top ok",
        "books",
    ])
    .with_title("offered load 2.2x capacity, per-class fates");
    for (&(tenants, guarded), out) in cells.iter().zip(&outs) {
        let attempts: u64 = out.attempts.iter().sum();
        let ok: u64 = out.ok.iter().sum();
        // The top class present: High from three tenants up, else the
        // best of what the stripe produced.
        let top = (0..3).rev().find(|&c| out.attempts[c] > 0).unwrap_or(0);
        t.row_owned(vec![
            tenants.to_string(),
            if guarded { "guarded" } else { "bare" }.to_owned(),
            attempts.to_string(),
            ok.to_string(),
            out.admission_rejects.to_string(),
            out.quota_denials.to_string(),
            out.sheds.to_string(),
            pct(out.ok[0], out.attempts[0]),
            pct(out.ok[top], out.attempts[top]),
            "exact".to_owned(),
        ]);
    }
    rep.table("overload_grid", t);

    // Part 2: a shed postmortem. A tiny guarded arena is filled by a
    // low-priority tenant until admission closes, then one high-priority
    // request arrives that only the ladder can serve. The flight
    // recorder rides the door and shows the ladder's actual steps.
    let slots = args.count(FLIGHT_RECORDER).unwrap_or(64);
    let recorder = FlightRecorder::new(slots);
    let mut handle = recorder.handle();
    let (shards, shard_words, high_words) = (2, 512, 160);
    let mut showcase = ArenaService::striped(shards, shard_words).with_overload(64);
    let (low, high) = (0, 1);
    showcase.register_tenant(low, Priority::Low, 1024);
    showcase.register_tenant(high, Priority::High, 1024);
    let mut id = 0u64;
    while showcase
        .alloc_probed(id, 48, low, None, &mut handle)
        .is_ok()
    {
        id += 1;
    }
    let verdict = match showcase.alloc_probed(1 << 20, high_words, high, None, &mut handle) {
        Ok(_) => "served".to_owned(),
        Err(error) => format!("failed ({error})"),
    };
    showcase.check_reconciliation();
    let mut t = Table::new(&["shards", "shard words", "low allocs", "high words", "high alloc"])
        .with_title("shed: a low-priority tenant fills the arena, then one high-priority alloc");
    t.row_owned(vec![
        shards.to_string(),
        shard_words.to_string(),
        id.to_string(),
        high_words.to_string(),
        verdict,
    ]);
    rep.table("shed", t);
    let title = format!("shed postmortem (flight recorder, {slots} slots per thread)");
    rep.table("postmortem", recorder.postmortem(14).with_title(&title));
    showcase.export_into(&mut rep.metrics);

    // Part 3: multithreaded reconciliation. Four workers (fixed — the
    // `--jobs` flag fans grid cells, never this traffic) churn one
    // guarded service as four tenants; only interleaving-independent
    // verdicts are printed.
    let workers = 4;
    let svc = mt_service(workers);
    drive(&MT_CHURN.streams(u64::from(workers)), |w, stream| {
        churn(&svc, w as u32, stream.iter().copied(), None)
    });
    svc.check_reconciliation();
    let drained = svc.occupied() == 0;
    let quotas_zero = svc.tenant_occupancy().iter().all(|o| o.in_use == 0);
    let mut t = Table::new(&["workers", "books", "arena drained", "quotas at zero"])
        .with_title(&format!(
            "multithreaded reconciliation ({workers} workers, guarded, one tenant each)"
        ));
    t.row_owned(vec![
        workers.to_string(),
        "exact".to_owned(),
        yes(drained).to_owned(),
        yes(quotas_zero).to_owned(),
    ]);
    rep.table("reconciliation", t);

    // Part 4 (--chaos): the same churn under deterministic fault
    // injection. The injector's schedule is a pure function of (seed,
    // stream) — rolled unconditionally per request — so the totals
    // below are byte-identical at any thread count and any --jobs.
    if chaos {
        let mut t = Table::new(&[
            "workers",
            "faults",
            "forced fails",
            "delays",
            "corruptions",
            "healed",
            "books",
            "drained",
        ])
        .with_title("fault schedule deterministic per stream; verdicts only");
        for &workers in &[1u64, 2, 8] {
            let svc = mt_service(8);
            let inj = SyncFaultInjector::new(
                0x19C4A05,
                FaultConfig {
                    alloc_fail_rate: 0.01,
                    channel_delay_rate: 0.005,
                    channel_delay: dsa_core::clock::Cycles::from_micros(20),
                    shard_corruption_rate: 0.002,
                    ..FaultConfig::default()
                },
            );
            let streams = Churn { ops: 4000, ..MT_CHURN }.streams(workers);
            drive(&streams, |w, stream| {
                let mut worker = inj.worker(w as u64);
                churn(&svc, w as u32, stream.iter().copied(), Some(&mut worker))
            });
            let report = inj.report();
            svc.check_reconciliation();
            let healed = svc.arena().quarantined_count() == 0;
            t.row_owned(vec![
                workers.to_string(),
                report.faults_injected.to_string(),
                report.forced_alloc_failures.to_string(),
                report.channel_delays.to_string(),
                report.shard_corruptions.to_string(),
                if healed { "all" } else { "SOME LEFT" }.to_owned(),
                "exact".to_owned(),
                yes(svc.occupied() == 0).to_owned(),
            ]);
        }
        rep.table("chaos_verdicts", t);
    }
    Ok(())
}
