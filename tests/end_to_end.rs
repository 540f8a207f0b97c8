//! End-to-end data-integrity and accounting tests across crates.

use dsa::core::clock::Cycles;
use dsa::core::ids::{Name, PhysAddr};
use dsa::freelist::compaction::compact;
use dsa::freelist::freelist::{FreeListAllocator, Placement};
use dsa::mapping::{AddressMap, BlockMap, MapCosts};
use dsa::probe::NullProbe;
use dsa::sched::{AdmissionPolicy, EventSim, LoadControlCfg, SimConfig, TenantSpec, TraceSpec};
use dsa::seg::store::{SegReplacement, SegmentStore, StoreBackend};
use dsa::storage::CoreMemory;
use dsa::trace::refstring::RefStringCfg;
use dsa::trace::Rng64;

/// Compaction with a real memory and a block map on top: programs keep
/// addressing their data through stable names while the bytes move —
/// the paper's relocatability argument made concrete.
#[test]
fn compaction_moves_data_without_breaking_names() {
    let mut mem = CoreMemory::new(4096);
    let mut alloc = FreeListAllocator::new(4096, Placement::FirstFit);

    // Allocate blocks and fill each with a signature.
    let sizes = [300u64, 200, 400, 100, 250, 350];
    for (id, &size) in sizes.iter().enumerate() {
        let addr = alloc.alloc(id as u64, size).expect("fits");
        for k in 0..size {
            mem.write(addr.offset(k), (id as u64) << 32 | k)
                .expect("in range");
        }
    }
    // Free alternating blocks to fragment.
    for id in [1u64, 3] {
        alloc.free(id).expect("live");
    }

    // Compact, applying every move to the memory (in ascending order —
    // safe even when ranges overlap).
    compact(&mut alloc, |_, old, new, len| {
        mem.move_block(old, new, len).expect("valid move");
    });
    alloc.check_invariants();

    // Survivors read back intact through their (new) addresses.
    for &id in &[0u64, 2, 4, 5] {
        let (addr, size) = alloc.lookup(id).expect("live");
        for k in 0..size {
            assert_eq!(
                mem.read(addr.offset(k)).expect("in range"),
                id << 32 | k,
                "block {id} corrupted at offset {k}"
            );
        }
    }
}

/// The same, one level up: a block map rewired after compaction keeps
/// *names* stable while addresses move.
#[test]
fn names_survive_block_relocation() {
    let costs = MapCosts::for_core_cycle(Cycles::from_micros(1));
    let mut map = BlockMap::new(4, 4, costs); // 4 blocks of 16 words
    let mut mem = CoreMemory::new(256);
    // Blocks initially scattered high.
    for (i, base) in [(0u64, 160u64), (1, 96), (2, 208), (3, 48)] {
        map.map_block(i, PhysAddr(base));
    }
    for n in 0..64u64 {
        let addr = map.translate(Name(n)).outcome.expect("mapped");
        mem.write(addr, n + 500).expect("in range");
    }
    // "Compact": move all blocks to the bottom, updating only the map.
    for (i, new_base) in [(0u64, 0u64), (1, 16), (2, 32), (3, 48)] {
        let old = map.translate(Name(i * 16)).outcome.expect("mapped");
        if old.value() != new_base {
            mem.move_block(old, PhysAddr(new_base), 16)
                .expect("valid move");
            map.map_block(i, PhysAddr(new_base));
        }
    }
    for n in 0..64u64 {
        let addr = map.translate(Name(n)).outcome.expect("mapped");
        assert_eq!(mem.read(addr).expect("in range"), n + 500);
        assert!(addr.value() < 64, "data now packed at the bottom");
    }
}

/// Scheduler accounting: CPU-busy time equals executed references times
/// the instruction time, and every job executes its whole trace.
#[test]
fn scheduler_conserves_work() {
    let cfg = SimConfig {
        instr_time: Cycles::from_micros(7),
        fetch_time: Cycles::from_millis(2),
        page_size: 256,
        quantum_refs: 13,
        fetch_channels: None,
    };
    let lens = [500usize, 1200, 333];
    let specs: Vec<TenantSpec> = lens
        .iter()
        .enumerate()
        .map(|(i, &len)| {
            let trace = RefStringCfg::LruStack {
                pages: 20,
                theta: 1.0,
            }
            .generate_pages(len, &mut Rng64::new(i as u64));
            TenantSpec::new(i as u32, TraceSpec::Pages(trace), 8)
        })
        .collect();
    let lc = LoadControlCfg::default();
    let r = EventSim::new(cfg, 24, AdmissionPolicy::Fixed, lc, specs)
        .run(&mut NullProbe)
        .expect("compact sets cannot fail");
    let total_refs: u64 = lens.iter().map(|&l| l as u64).sum();
    for (i, job) in r.tenants.iter().enumerate() {
        assert_eq!(
            job.references, lens[i] as u64,
            "job {i} must finish its trace"
        );
        assert!(job.finished_at <= r.makespan);
    }
    assert_eq!(r.cpu_busy, cfg.instr_time * total_refs);
    assert!(r.cpu_utilization() <= 1.0 + 1e-12);
}

/// Segment store + backing traffic: every fetched word is either still
/// resident or was written back / discarded; resident words never
/// exceed capacity.
#[test]
fn segment_store_traffic_accounting() {
    let mut store = SegmentStore::new(
        StoreBackend::FreeList(FreeListAllocator::new(2000, Placement::BestFit)),
        SegReplacement::Cyclic,
        1024,
    );
    let mut rng = Rng64::new(99);
    for s in 0..12u32 {
        store
            .define(dsa::core::ids::SegId(s), 100 + u64::from(s) * 50)
            .expect("declared");
    }
    for i in 0..2000u64 {
        let seg = dsa::core::ids::SegId((rng.below(12)) as u32);
        let offset = rng.below(100);
        let write = i % 3 == 0;
        store
            .touch(seg, offset, write)
            .expect("within bounds and evictable");
        assert!(store.resident_words() <= 2000);
        if i % 100 == 0 {
            store.check_invariants();
        }
    }
    let stats = store.stats();
    assert!(stats.seg_faults > 0);
    assert!(stats.writeback_words <= stats.fetched_words);
    assert_eq!(stats.bounds_violations, 0);
}

/// Knuth's fifty-percent rule: at first-fit equilibrium with rare exact
/// fits, the hole count settles near half the number of live blocks.
/// The rule postdates the paper by one year (Knuth 1968) but describes
/// exactly the steady state the paper's placement discussion assumes.
#[test]
fn fifty_percent_rule_holds_at_equilibrium() {
    use dsa::trace::allocstream::{AllocStreamCfg, SizeDist};
    use dsa::trace::Rng64;

    let cfg = AllocStreamCfg {
        // Continuous sizes make exact fits rare, as the rule requires.
        sizes: SizeDist::Uniform { lo: 40, hi: 160 },
        mean_lifetime: 400.0,
        target_live_words: 45_000, // ~69% load: comfortably allocatable
    };
    let events = cfg.generate(60_000, &mut Rng64::new(50));
    let mut a = FreeListAllocator::new(65_536, Placement::FirstFit);
    let mut live = 0i64;
    let mut ratio_samples: Vec<f64> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        match *e {
            dsa::core::access::AllocEvent::Alloc(r) => {
                if a.alloc(r.id, r.size).is_ok() {
                    live += 1;
                }
            }
            dsa::core::access::AllocEvent::Free { id } => {
                if a.free(id).is_ok() {
                    live -= 1;
                }
            }
        }
        // Sample after warm-up.
        if i > 20_000 && i % 128 == 0 && live > 0 {
            ratio_samples.push(a.hole_count() as f64 / live as f64);
        }
    }
    let mean = ratio_samples.iter().sum::<f64>() / ratio_samples.len() as f64;
    assert!(
        (0.3..0.7).contains(&mean),
        "hole/block ratio {mean:.3} strays far from Knuth's 1/2"
    );
}

/// Multi-level fetch: a three-level hierarchy's break-even analysis is
/// internally consistent — promoting through an intermediate level never
/// beats the direct cost model it is built from.
#[test]
fn hierarchy_break_even_consistency() {
    use dsa::storage::{Hierarchy, LevelKind, LevelSpec};
    let mk = |name: &str, ns: u64, cap: u64| LevelSpec {
        name: name.into(),
        kind: LevelKind::Core,
        capacity: cap,
        latency: Cycles::from_nanos(ns),
        word_time: Cycles::from_nanos(ns),
    };
    let h = Hierarchy::new(vec![
        mk("scratch", 200, 1 << 10),
        mk("main", 2_000, 1 << 17),
        mk("slow", 8_000, 1 << 20),
    ])
    .expect("ordered");
    for words in [8u64, 64, 512] {
        let direct = h.break_even_uses(2, 0, words).expect("faster");
        let hop1 = h.break_even_uses(2, 1, words).expect("faster");
        let hop2 = h.break_even_uses(1, 0, words).expect("faster");
        // The wider the speed gap, the fewer uses needed.
        assert!(
            direct <= hop1,
            "{words} words: direct {direct} > partial {hop1}"
        );
        assert!(direct <= hop2 + hop1, "triangle sanity for {words} words");
    }
}

/// §Storage Addressing: "The ability to relocate (i.e. move) information
/// requires knowledge of the whereabouts of any actual physical storage
/// addresses ... The most convenient solution is to insure that there
/// are no such stored absolute addresses." This test shows both sides:
/// a linked structure holding *absolute* addresses is silently corrupted
/// by compaction, while the same structure holding *names* (resolved
/// through a base register) survives the move untouched.
#[test]
fn stored_absolute_addresses_break_under_relocation() {
    use dsa::mapping::RelocationLimit;

    let mut mem = CoreMemory::new(512);
    let mut alloc = FreeListAllocator::new(512, Placement::FirstFit);

    // A filler block, then a 5-node list; each node: [payload, link].
    alloc.alloc(0, 100).expect("fits");
    let list = alloc.alloc(1, 10).expect("fits");
    let base = list.value();
    for node in 0..5u64 {
        let at = base + node * 2;
        mem.write(PhysAddr(at), 700 + node).expect("in range");
        // Version A interpretation: absolute address of the next node.
        // Version B interpretation: name (offset) of the next node.
        let next_abs = if node < 4 { at + 2 } else { 0 };
        mem.write(PhysAddr(at + 1), next_abs).expect("in range");
    }

    // Free the filler and compact: the list slides from 100 to 0.
    alloc.free(0).expect("live");
    compact(&mut alloc, |_, old, new, len| {
        mem.move_block(old, new, len).expect("valid move");
    });
    let (new_base, _) = alloc.lookup(1).expect("live");
    assert_eq!(new_base.value(), 0, "the list moved");

    // Version A: chase the stored absolute addresses. The first node is
    // found via the allocator, but its link still points at 102 — now
    // free storage, promptly reused by the next allocation.
    let stale_link = mem.read(new_base.offset(1)).expect("in range");
    assert_eq!(stale_link, 102, "the stored absolute address did not move");
    let reused = alloc.alloc(2, 300).expect("compaction freed one big hole");
    for i in 0..300 {
        mem.write(reused.offset(i), 0xDEAD).expect("in range");
    }
    let misread = mem.read(PhysAddr(stale_link)).expect("in range");
    assert_eq!(
        misread, 0xDEAD,
        "the stale pointer now reads another block's words"
    );

    // Version B: the same words interpreted as *names*, resolved through
    // a relocation register the allocator updated. Every hop lands.
    let mut reg = RelocationLimit::new(new_base, 10, MapCosts::default());
    let mut name = 0u64;
    for node in 0..5u64 {
        let payload_addr = reg.translate(Name(name)).outcome.expect("in bounds");
        assert_eq!(mem.read(payload_addr).expect("in range"), 700 + node);
        let link_addr = reg.translate(Name(name + 1)).outcome.expect("in bounds");
        // Reinterpret the link as a name: offset within the block.
        let stored = mem.read(link_addr).expect("in range");
        name = stored.saturating_sub(100); // names were offsets + old base
        if node == 4 {
            break;
        }
    }
}
