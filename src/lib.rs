//! Dynamic storage allocation systems — an executable reproduction of
//! B. Randell & C. J. Kuehner, *Dynamic Storage Allocation Systems*
//! (ACM Symposium on Operating System Principles, Gatlinburg, 1967;
//! CACM 11(5), 1968).
//!
//! This facade crate re-exports the whole workspace under one name:
//!
//! * [`alloc`] — a *real* allocator built from the same primitives: a
//!   size-class slab heap, Bonwick-style per-thread magazine caches,
//!   and a [`std::alloc::GlobalAlloc`] backend installable with
//!   `#[global_allocator]`, benchmarked against the system allocator;
//! * [`arena`] — the concurrent allocation service: lock-free
//!   fixed-size slabs (uniform units), a sharded variable-size arena
//!   over the free-list allocators, and a multi-tenant,
//!   overload-hardened front over that arena;
//! * [`core`] — the four-axis taxonomy, shared types, faults, advice;
//! * [`storage`] — simulated storage levels, hierarchies, memory,
//!   packing channels;
//! * [`mapping`] — addressing mechanisms: relocation registers, block
//!   maps, the ATLAS frame-associative map, two-level segment+page maps
//!   with associative memories;
//! * [`exec`] — the deterministic parallel simulation engine: grid
//!   fan-out over scoped threads, merged in grid order so any `--jobs`
//!   width reproduces the sequential output byte for byte;
//! * [`faults`] — deterministic fault injection (transfer errors, bad
//!   frames, channel delays, forced allocation failures) and recovery
//!   policies: bounded retry, frame quarantine, graceful degradation;
//! * [`freelist`] — variable-unit allocation: placement policies, the
//!   Rice inactive-block chain, the buddy system, compaction;
//! * [`paging`] — uniform-unit allocation: demand paging and
//!   replacement policies (FIFO, LRU, Clock, Random, the ATLAS learning
//!   program, Belady's MIN, M44 class-random, working set);
//! * [`seg`] — segmentation: descriptors, codewords, dynamic segments,
//!   symbolic and linear name dictionaries;
//! * [`sched`] — multiprogramming, page-wait overlap, space-time
//!   products;
//! * [`stackdist`] — one-pass Mattson stack-distance evaluation: exact
//!   LRU and MIN fault counts for every memory size from one traversal;
//! * [`machines`] — the seven appendix machines as runnable presets;
//! * [`trace`] — deterministic synthetic workloads;
//! * [`metrics`] — histograms, space-time meters, tables, sparklines;
//! * [`probe`] — structured event tracing: the probe sink trait, the
//!   event vocabulary, and ready-made sinks (counting, JSONL
//!   recording);
//! * [`telemetry`] — always-on production telemetry over the probe
//!   spine: a counters-plus-distributions sink, a lock-free flight
//!   recorder, fragmentation heatmap sampling, and a Prometheus/JSON
//!   exporter.
//!
//! # Quickstart
//!
//! ```
//! use dsa::machines::{atlas, Machine};
//! use dsa::trace::{ProgramCfg, Rng64};
//!
//! let mut rng = Rng64::new(1);
//! let program = ProgramCfg::default().generate(&mut rng);
//! let mut machine = atlas();
//! let report = machine.run(&program.ops).unwrap();
//! assert!(report.touches > 0);
//! ```

pub use dsa_alloc as alloc;
pub use dsa_arena as arena;
pub use dsa_core as core;
pub use dsa_exec as exec;
pub use dsa_faults as faults;
pub use dsa_freelist as freelist;
pub use dsa_machines as machines;
pub use dsa_mapping as mapping;
pub use dsa_metrics as metrics;
pub use dsa_paging as paging;
pub use dsa_probe as probe;
pub use dsa_sched as sched;
pub use dsa_seg as seg;
pub use dsa_stackdist as stackdist;
pub use dsa_storage as storage;
pub use dsa_telemetry as telemetry;
pub use dsa_trace as trace;
