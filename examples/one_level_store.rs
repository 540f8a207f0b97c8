//! A miniature ATLAS-style one-level store, assembled by hand.
//!
//! The components the paper's machines are made of, wired together at
//! the lowest level: a [`CoreMemory`] with real word contents, a
//! [`FrameAssociativeMap`] providing artificial contiguity, a
//! [`PagedMemory`] running the ATLAS learning strategy, and a simulated
//! drum. A program writes and reads a data set four times the size of
//! core, and every word comes back intact — the essence of "virtual
//! storage".
//!
//! ```text
//! cargo run --release --example one_level_store
//! ```

use dsa::core::clock::Cycles;
use dsa::core::error::AccessFault;
use dsa::core::ids::{Name, PageNo, PhysAddr};
use dsa::mapping::{AddressMap, FrameAssociativeMap, MapCosts};
use dsa::paging::paged::{EvictedPage, PagedMemory, TouchOutcome};
use dsa::paging::replacement::atlas::AtlasLearning;
use dsa::storage::level::LevelSpec;
use dsa::storage::presets;
use dsa::storage::CoreMemory;
use std::collections::HashMap;

const PAGE_BITS: u32 = 5; // 32-word pages, to keep the tour readable
const PAGE: u64 = 1 << PAGE_BITS;
const FRAMES: usize = 8; // 256 words of "core"
const NAME_EXTENT: u64 = 1024; // a 4x-core virtual space

/// The backing drum: page-sized slabs by page number.
struct Drum {
    slabs: HashMap<PageNo, Vec<u64>>,
    transfers: u64,
    busy: Cycles,
}

/// Writes a victim's words out to the drum and clears its register.
fn write_out(
    e: EvictedPage,
    core: &CoreMemory,
    drum: &mut Drum,
    map: &mut FrameAssociativeMap,
    spec: &LevelSpec,
) {
    let slab = core.snapshot(PhysAddr(e.frame.0 * PAGE), PAGE);
    drum.slabs.insert(e.page, slab);
    drum.transfers += 1;
    drum.busy += spec.transfer_time(PAGE);
    map.unload(e.frame);
}

fn main() {
    let costs = MapCosts::for_core_cycle(Cycles::from_micros(2));
    let mut map = FrameAssociativeMap::new(FRAMES, PAGE_BITS, NAME_EXTENT, costs);
    let mut core = CoreMemory::new(FRAMES as u64 * PAGE);
    let mut mem = PagedMemory::new(FRAMES, Box::new(AtlasLearning::new())).with_vacant_reserve();
    let mut drum = Drum {
        slabs: HashMap::new(),
        transfers: 0,
        busy: Cycles::ZERO,
    };
    let drum_spec = presets::atlas_drum();

    // One access through the full machinery: translate; on a page trap,
    // write the victim back to the drum, read the wanted page in, remap,
    // retry.
    let access = |name: Name,
                  write: Option<u64>,
                  map: &mut FrameAssociativeMap,
                  core: &mut CoreMemory,
                  mem: &mut PagedMemory,
                  drum: &mut Drum,
                  now: u64|
     -> u64 {
        loop {
            let t = map.translate(name);
            match t.outcome {
                Ok(addr) => {
                    mem.touch(PageNo(name.value() >> PAGE_BITS), write.is_some(), now)
                        .expect("resident");
                    if let Some(v) = write {
                        core.write(addr, v).expect("mapped address in range");
                        return v;
                    }
                    return core.read(addr).expect("mapped address in range");
                }
                Err(AccessFault::MissingPage { page }) => {
                    let outcome = mem.touch(page, write.is_some(), now).expect("frames exist");
                    let TouchOutcome::Fault {
                        frame,
                        evicted,
                        reserve,
                    } = outcome
                    else {
                        unreachable!("map and memory agree on residency");
                    };
                    let frame_base = PhysAddr(frame.0 * PAGE);
                    if let Some(e) = evicted {
                        write_out(e, core, drum, map, &drum_spec);
                    }
                    // Read the wanted page in (zero-filled if new).
                    let slab = drum
                        .slabs
                        .remove(&page)
                        .unwrap_or_else(|| vec![0; PAGE as usize]);
                    for (i, w) in slab.iter().enumerate() {
                        core.write(frame_base.offset(i as u64), *w)
                            .expect("in range");
                    }
                    drum.transfers += 1;
                    drum.busy += drum_spec.transfer_time(PAGE);
                    map.load(frame, page);
                    // The vacant reserve evicts after the load, and may
                    // take the very page just read in.
                    if let Some(e) = reserve {
                        write_out(e, core, drum, map, &drum_spec);
                    }
                }
                Err(f) => panic!("unexpected fault: {f}"),
            }
        }
    };

    // Fill the whole 1024-word virtual space with name*7, then read it
    // all back — through 256 words of core.
    let mut now = 0u64;
    for n in 0..NAME_EXTENT {
        access(
            Name(n),
            Some(n * 7),
            &mut map,
            &mut core,
            &mut mem,
            &mut drum,
            now,
        );
        now += 1;
    }
    let mut errors = 0;
    for n in 0..NAME_EXTENT {
        let v = access(Name(n), None, &mut map, &mut core, &mut mem, &mut drum, now);
        now += 1;
        if v != n * 7 {
            errors += 1;
        }
    }

    println!(
        "one-level store: {NAME_EXTENT} virtual words over {} core words",
        FRAMES as u64 * PAGE
    );
    println!("data integrity:  {errors} mismatches across the full read-back");
    println!(
        "paging activity: {} faults, {} drum transfers, {} of drum time",
        mem.stats().faults,
        drum.transfers,
        drum.busy
    );
    println!(
        "mapping:         {} translations, {} page traps through the associative registers",
        map.stats().translations,
        map.stats().faults
    );
    assert_eq!(errors, 0);
    println!("\nevery name behaved like a real location — the extent of physical");
    println!("working storage was successfully disguised (a 'virtual storage system').");
}
