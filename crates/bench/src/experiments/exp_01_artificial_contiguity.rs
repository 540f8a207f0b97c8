//! E1 — Figures 1 & 2: artificial name contiguity via a block map.
//!
//! Demonstrates that a table-of-block-addresses mapping (Figure 2) makes
//! a set of scattered physical blocks behave as one contiguous run of
//! names (Figure 1): address arithmetic walks straight across block
//! boundaries, data written through names reads back intact even after
//! blocks are moved, and the price is one mapping-table reference per
//! access — compared against the cheaper addressing mechanisms.

use dsa_core::ids::{Name, PhysAddr};
use dsa_exec::SimGrid;
use dsa_mapping::block_map::BlockMap;
use dsa_mapping::cost::MapCosts;
use dsa_mapping::relocation::{IdentityMap, RelocationLimit};
use dsa_mapping::AddressMap;
use dsa_metrics::table::Table;
use dsa_storage::memory::CoreMemory;
use dsa_trace::rng::Rng64;

use crate::{Args, Failure, Report};

pub(super) fn run(args: &Args, rep: &mut Report) -> Result<(), Failure> {
    let jobs = args.jobs();

    // A 64-name space of four 16-word blocks over a 256-word memory,
    // with the blocks deliberately scattered and out of order.
    let costs = MapCosts::for_core_cycle(dsa_core::clock::Cycles::from_micros(2));
    let mut map = BlockMap::new(4, 4, costs);
    let bases = [192u64, 32, 128, 64];
    for (i, &b) in bases.iter().enumerate() {
        map.map_block(i as u64, PhysAddr(b));
    }
    let mut mem = CoreMemory::new(256);

    // Write a recognizable sequence through *names* 0..64.
    for n in 0..64u64 {
        let t = map.translate(Name(n));
        mem.write(t.unwrap_addr(), 1000 + n).unwrap();
    }

    let mut t = Table::new(&["name", "block", "physical addr"])
        .with_title("name contiguity without address contiguity (block boundaries at 16)");
    for n in [0u64, 15, 16, 31, 32, 47, 48, 63] {
        let (block, _) = map.split(Name(n));
        let addr = map.translate(Name(n)).unwrap_addr();
        t.row_owned(vec![
            n.to_string(),
            block.to_string(),
            addr.value().to_string(),
        ]);
    }
    rep.table("contiguity", t);

    // Address arithmetic across a block boundary.
    let a15 = map.translate(Name(15)).unwrap_addr().value();
    let a16 = map.translate(Name(16)).unwrap_addr().value();
    let mut t = Table::new(&["names", "address 15", "address 16", "gap"])
        .with_title("contiguous names across a block boundary");
    t.row_owned(vec![
        "15,16".to_owned(),
        a15.to_string(),
        a16.to_string(),
        a16.abs_diff(a15 + 1).to_string(),
    ]);
    rep.table("boundary", t);

    // Every name reads back what was written; then block 1 moves to a
    // new frame (relocation invisible to names) and every name still
    // does.
    let read_back = |map: &mut BlockMap, mem: &CoreMemory| {
        (0..64u64)
            .filter(|&n| {
                let addr = map.translate(Name(n)).unwrap_addr();
                mem.read(addr).unwrap() == 1000 + n
            })
            .count()
    };
    assert_eq!(read_back(&mut map, &mem), 64);
    let (from, to) = (32, 0);
    mem.move_block(PhysAddr(from), PhysAddr(to), 16).unwrap();
    map.map_block(1, PhysAddr(to));
    let after = read_back(&mut map, &mem);
    assert_eq!(after, 64);
    let mut t = Table::new(&["block", "from", "to", "names read back"])
        .with_title("a block moved under its names");
    t.row_owned(vec![
        "1".to_owned(),
        from.to_string(),
        to.to_string(),
        format!("{after}/64"),
    ]);
    rep.table("relocation", t);

    // The cost side: mean addressing overhead per access for each
    // mechanism on the same random access pattern.
    let mut rng = Rng64::new(1);
    let names: Vec<Name> = (0..100_000).map(|_| Name(rng.below(64))).collect();
    let mut t = Table::new(&["mechanism", "ns/access", "faults"])
        .with_title("addressing overhead (2 us core)");
    // Each device is an independent cell; the block map carries the
    // translation statistics it accumulated in the demonstration above,
    // so the devices move into the grid rather than being rebuilt.
    let identity = IdentityMap::new(64, costs);
    let reloc = RelocationLimit::new(PhysAddr(100), 64, costs);
    let grid = SimGrid::new(vec![
        std::sync::Mutex::new(Box::new(identity) as Box<dyn AddressMap + Send>),
        std::sync::Mutex::new(Box::new(reloc) as Box<dyn AddressMap + Send>),
        std::sync::Mutex::new(Box::new(map) as Box<dyn AddressMap + Send>),
    ]);
    for row in grid.run(jobs, |_, cell| {
        let mut d = cell.lock().expect("cell is never contended");
        for &n in &names {
            let _ = d.translate(n);
        }
        let s = d.stats();
        vec![
            d.label().to_owned(),
            format!("{:.0}", s.mean_overhead_nanos()),
            s.faults.to_string(),
        ]
    }) {
        t.row_owned(row);
    }
    rep.table("addressing_overhead", t);
    Ok(())
}
