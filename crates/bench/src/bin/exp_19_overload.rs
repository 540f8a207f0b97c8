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
use dsa_exec::{cli, par_map, product2};
use dsa_faults::{FaultConfig, SyncFaultInjector, WorkerInjector};
use dsa_metrics::table::Table;
use dsa_probe::NullProbe;
use dsa_telemetry::{FlightRecorder, TelemetrySnapshot};
use dsa_trace::rng::Rng64;

/// Words per shard; the shard *count* comes from `--shards`
/// (default 4, the golden configuration), derived once in `main` and
/// threaded everywhere as [`Geometry`].
const SHARD_WORDS: u64 = 4096;

/// Striped-arena geometry for the grid cells — the one place capacity
/// and offered load derive from the shard count.
#[derive(Clone, Copy)]
struct Geometry {
    shards: u32,
    shard_words: u64,
}

impl Geometry {
    fn capacity(self) -> u64 {
        u64::from(self.shards) * self.shard_words
    }

    /// Offered load per cell, as words requested: past twice the
    /// capacity, so every cell runs deep into overload.
    fn offered_target(self) -> u64 {
        self.capacity() * 22 / 10
    }
}

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
fn cell_service(geo: Geometry, tenants: u32, guarded: bool) -> ArenaService {
    let mut svc = ArenaService::striped(geo.shards, geo.shard_words);
    if guarded {
        svc = svc.with_overload(1024);
    }
    for i in 0..tenants {
        let p = tenant_priority(i);
        let quota = match p {
            Priority::High => geo.capacity() * 30 / (10 * u64::from(tenants)),
            _ => geo.capacity() * 12 / (10 * u64::from(tenants)),
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
fn drive_cell(svc: &ArenaService, geo: Geometry, tenants: u32) -> CellOut {
    let mut rng = Rng64::new(0xE19_0000 + u64::from(tenants));
    let mut live: Vec<Vec<(u64, u64)>> = vec![Vec::new(); tenants as usize];
    let mut live_words: Vec<u64> = vec![0; tenants as usize];
    let target_for = |t: u32| match tenant_priority(t) {
        Priority::High => geo.capacity() * 28 / (10 * u64::from(tenants)),
        _ => geo.capacity() * 11 / (10 * u64::from(tenants)),
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
            if offered >= geo.offered_target() {
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

/// One request of a churn stream.
#[derive(Clone, Copy)]
enum Op {
    Alloc { id: u64, words: u64 },
    Free { id: u64 },
}

/// A deterministic churn stream for the multithreaded sections: grow a
/// bounded live set, free random members, drain at the end.
/// Pre-generated, so a worker's requests (and with `--chaos` its
/// injector rolls) never depend on what other workers did.
fn churn_stream(worker: u64, ops: usize) -> Vec<Op> {
    let mut rng = Rng64::new(0xE19_C0DE + worker);
    let mut live: Vec<u64> = Vec::new();
    let mut next = 0u64;
    let mut out = Vec::with_capacity(ops + 128);
    for _ in 0..ops {
        let grow = live.len() < 8 || (live.len() < 96 && rng.next_u64() % 100 < 55);
        if grow {
            let id = (worker << 40) | next;
            next += 1;
            out.push(Op::Alloc {
                id,
                words: 8 + rng.next_u64() % 56,
            });
            live.push(id);
        } else {
            let i = (rng.next_u64() as usize) % live.len();
            out.push(Op::Free {
                id: live.swap_remove(i),
            });
        }
    }
    // Drain everything the stream ever allocated — frees of ids whose
    // alloc failed (or that the ladder shed) answer UnknownUnit,
    // harmlessly.
    out.extend(live.into_iter().map(|id| Op::Free { id }));
    out
}

/// Pushes `stream` through the service as `tenant`, rolling `chaos`'s
/// hazards on every request when given.
fn churn(
    svc: &ArenaService,
    tenant: u32,
    stream: &[Op],
    mut chaos: Option<&mut WorkerInjector<'_>>,
) {
    for &op in stream {
        let _ = match op {
            Op::Alloc { id, words } => svc
                .alloc_probed(id, words, tenant, chaos.as_deref_mut(), &mut NullProbe)
                .map(drop),
            Op::Free { id } => svc.free_probed(id, chaos.as_deref_mut(), &mut NullProbe),
        };
    }
}

/// A guarded 4-tenant service for the multithreaded sections.
fn mt_service(geo: Geometry, tenants: u32) -> ArenaService {
    let mut svc = ArenaService::striped(geo.shards, geo.shard_words).with_overload(64);
    for i in 0..tenants {
        svc.register_tenant(i, tenant_priority(i), geo.capacity() / 3);
    }
    svc
}

fn yes(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "NO"
    }
}

fn main() {
    cli::enforce_standard_flags(
        "exp_19_overload",
        &[cli::FLIGHT_RECORDER, cli::CHAOS, cli::SHARDS],
    );
    let chaos = cli::switch_from_env(cli::CHAOS);
    let jobs = cli::jobs_from_env();
    let geo = Geometry {
        shards: cli::count_flag_from_env(cli::SHARDS).unwrap_or(4) as u32,
        shard_words: SHARD_WORDS,
    };
    let (shards, shard_words, capacity, offered) = (
        geo.shards,
        geo.shard_words,
        geo.capacity(),
        geo.offered_target(),
    );
    let mut metrics = TelemetrySnapshot::new("exp_19_overload");
    println!("E19: overload-hardened service — collapse vs graceful saturation\n");
    println!(
        "striped arena: {shards} shards x {shard_words} words = {capacity} words; every cell \
         offers {offered} words\n(2.2x capacity) from t tenants with priorities striped \
         low/normal/high and\nquotas of 1.2 x C/t (low/normal, live target 1.1 x C/t) — except \
         the high\nclass, surge clients at 3 x C/t whose appetite only the shed rung can\n\
         clear; cells are single-threaded deterministic replays (no high tenant\n\
         exists below three tenants)\n"
    );

    // Part 1: the tenant grid, bare vs guarded.
    let cells: Vec<(u32, bool)> = product2(&[2u32, 4, 8, 16], &[false, true]);
    let outs = par_map(jobs, &cells, |_, &(tenants, guarded)| {
        let svc = cell_service(geo, tenants, guarded);
        drive_cell(&svc, geo, tenants)
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
    println!("{t}");
    metrics.table("overload_grid", &t);
    println!(
        "bare: past the fill the arena answers Exhausted to every class alike —\n\
         the top class collapses with the bottom. guarded: low and normal are\n\
         refused at the watermarks and the shed rung evicts low-priority blocks,\n\
         so the top class keeps landing while the books stay exact.\n"
    );

    // Part 2: a shed postmortem. A tiny guarded arena is filled by a
    // low-priority tenant until admission closes, then one high-priority
    // request arrives that only the ladder can serve. The flight
    // recorder rides the door and shows the ladder's actual steps.
    let recorder =
        dsa_bench::metrics::flight_recorder_from_env().unwrap_or_else(|| FlightRecorder::new(64));
    let mut handle = recorder.handle();
    let mut showcase = ArenaService::striped(2, 512).with_overload(64);
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
    let verdict = match showcase.alloc_probed(1 << 20, 160, high, None, &mut handle) {
        Ok(_) => "served — the ladder shed low-priority blocks".to_owned(),
        Err(error) => format!("failed ({error})"),
    };
    showcase.check_reconciliation();
    println!("shed postmortem: low tenant fills 2x512 words, then one 160-word high alloc");
    println!("high-priority alloc: {verdict}");
    println!("{}", recorder.postmortem(14));
    showcase.export_into(&mut metrics);

    // Part 3: multithreaded reconciliation. Four workers (fixed — the
    // `--jobs` flag fans grid cells, never this traffic) churn one
    // guarded service as four tenants; only interleaving-independent
    // verdicts are printed.
    let svc = mt_service(geo, 4);
    let streams: Vec<Vec<Op>> = (0..4u64).map(|w| churn_stream(w, 5000)).collect();
    std::thread::scope(|scope| {
        for (w, stream) in streams.iter().enumerate() {
            let svc = &svc;
            scope.spawn(move || churn(svc, w as u32, stream, None));
        }
    });
    svc.check_reconciliation();
    let drained = svc.occupied() == 0;
    let quotas_zero = svc.tenant_occupancy().iter().all(|o| o.in_use == 0);
    println!("## multithreaded reconciliation (4 workers, guarded, one tenant each)");
    println!("books reconcile exactly after concurrent churn: yes");
    println!("arena drained to zero: {}", yes(drained));
    println!(
        "every tenant's quota occupancy returned to zero: {}\n",
        yes(quotas_zero)
    );

    // Part 4 (--chaos): the same churn under deterministic fault
    // injection. The injector's schedule is a pure function of (seed,
    // stream) — rolled unconditionally per request — so the totals
    // below are byte-identical at any thread count and any --jobs.
    if chaos {
        println!("## chaos injection (forced failures, delays, shard corruption)");
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
            let svc = mt_service(geo, 8);
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
            let streams: Vec<Vec<Op>> = (0..workers).map(|w| churn_stream(w, 4000)).collect();
            std::thread::scope(|scope| {
                for (w, stream) in streams.iter().enumerate() {
                    let inj = &inj;
                    let svc = &svc;
                    scope.spawn(move || {
                        let mut worker = inj.worker(w as u64);
                        churn(svc, w as u32, stream, Some(&mut worker));
                    });
                }
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
        println!("{t}");
        metrics.table("chaos_verdicts", &t);
        println!(
            "every corruption was quarantined, rebuilt from the live-allocation\n\
             book, audited and readmitted under traffic; the books reconcile\n\
             exactly through all of it.\n"
        );
    }
    dsa_bench::metrics::emit(&metrics);
}
