//! The DSA heap as the process allocator: install [`GlobalDsa`] with
//! `#[global_allocator]` and let ordinary `Vec`/`String`/`HashMap`
//! code churn through it — size-class slabs under per-thread magazine
//! caches, with the system allocator handling reentrant frames and
//! whatever lives outside the region.
//!
//! ```text
//! cargo run --release --example global_alloc
//! ```
//!
//! The run churns standard-library collections at 1, 2, and 8 threads
//! and reconciles the heap's books after every phase: the telemetry
//! ledger (backend ops only) must equal backend-live words exactly,
//! with magazine- and depot-parked blocks counted as live — so the
//! identity holds without quiescing anything.

use std::collections::HashMap;

use dsa::alloc::{GlobalDsa, HeapConfig};
use dsa::trace::Rng64;

#[global_allocator]
static ALLOC: GlobalDsa = GlobalDsa::new(HeapConfig::DEFAULT);

/// One thread's worth of ordinary allocation traffic: growing vectors,
/// short strings, a map that rehashes, and random drops — the shapes a
/// real mutator hands a general-purpose allocator.
fn churn(seed: u64, ops: usize) -> usize {
    let mut rng = Rng64::new(seed);
    let mut vecs: Vec<Vec<u8>> = Vec::new();
    let mut map: HashMap<u64, String> = HashMap::new();
    let mut retained = 0usize;
    for i in 0..ops {
        match rng.below(4) {
            0 => {
                let n = rng.range(1, 4096) as usize;
                vecs.push(vec![0xA5; n]);
            }
            1 => {
                if !vecs.is_empty() {
                    let i = rng.below(vecs.len() as u64) as usize;
                    retained += vecs.swap_remove(i).len();
                }
            }
            2 => {
                let k = rng.next_u64();
                map.insert(k % 512, format!("object {k} at op {i}"));
            }
            _ => {
                let k = rng.next_u64() % 512;
                if let Some(s) = map.remove(&k) {
                    retained += s.len();
                }
            }
        }
    }
    retained + vecs.iter().map(Vec::len).sum::<usize>() + map.len()
}

fn phase(threads: usize, ops: usize) {
    let total: usize = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| s.spawn(move || churn(0xD5A + t as u64, ops)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .sum()
    });
    // Worker caches flushed on thread exit; park the main thread's too
    // before reading the books (reconciliation would hold either way —
    // parked blocks are backend-live — but the stats read cleaner).
    ALLOC.flush_current_thread();
    ALLOC.heap().flush_depots();
    ALLOC.heap().check_reconciliation();
    let s = ALLOC.stats();
    println!(
        "{threads} thread(s) x {ops} ops (checksum {total}): books reconciled\n\
         cumulative: {} magazine allocs, {} depot exchanges, {} large allocs,\n\
         {} system-path allocs ({} live), {} bad frees",
        s.magazine_allocs,
        s.depot_exchanges,
        s.large_allocs,
        s.system_allocs,
        s.system_allocs.saturating_sub(s.system_frees),
        s.bad_frees
    );
}

fn main() {
    println!("global allocator: dsa-alloc (slab classes + per-thread magazines)\n");
    for threads in [1usize, 2, 8] {
        phase(threads, 200_000);
    }
    let s = ALLOC.heap().stats();
    assert_eq!(s.bad_frees, 0, "every free must route to its home path");
    println!("\nall phases reconciled: the ledger identity held at 1, 2, and 8 threads");
}
