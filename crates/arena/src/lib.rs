//! The concurrent allocation service: the taxonomy, made to serve
//! traffic.
//!
//! Everything else in this workspace allocates on one thread, because
//! the paper's machines did. This crate is the front-end that turns
//! those allocators into a *service*: many worker threads submitting
//! allocation and release traffic at once, with throughput that scales
//! with the storage's parallel structure.
//!
//! The design follows the paper's §Uniformity axis — the choice it
//! calls "the most basic" — because that axis decides what concurrency
//! is even possible:
//!
//! * **Uniform unit of allocation** → no placement search exists, so
//!   nothing needs a lock: [`FixedSlab`] is a lock-free free-stack of
//!   unit indices with a version-tagged head, giving concurrent
//!   alloc/free in constant time in the style of Blelloch & Wei
//!   (*Concurrent Fixed-Size Allocation and Free in Constant Time*).
//! * **Variable unit of allocation** → placement is a stateful search,
//!   so concurrency comes from *sharding*: [`ShardedArena`] stripes
//!   storage across `N` independent [`FreeListAllocator`] shards (any
//!   placement policy), each behind its own lock, with deterministic
//!   home-shard hashing, overflow stealing, and a typed
//!   [`ArenaError::Exhausted`] that reports every shard's honest
//!   `largest_free`.
//!
//! Those two are the cores. `dsa-alloc`'s `DsaHeap` is the
//! `GlobalAlloc` front over both; [`ArenaService`] is tenancy over
//! [`ShardedArena`] alone. Its door mirrors the arena's —
//! `alloc_probed` / `free_probed` from any number of threads, every
//! operation counted in one atomic [`SharedProbe`] sink so the books
//! balance exactly at any thread count.
//!
//! The service is overload-hardened: allocations are charged to tenant
//! ids with priorities and word quotas metered exactly by the atomic
//! `TenantTable`; an optional [`OverloadGuard`] refuses admission by
//! priority past its occupancy watermarks and walks a degradation
//! ladder (retry → coalesce → global compaction → shed lowest-priority
//! tenants) before a typed error escapes; shards whose free lists are
//! found corrupt are quarantined, rebuilt from the live-allocation
//! book, audited, and readmitted — all under live traffic (a
//! `WorkerInjector` passed to the door injects exactly these failures
//! deterministically).
//!
//! [`FreeListAllocator`]: dsa_freelist::FreeListAllocator
//! [`SharedProbe`]: dsa_probe::SharedProbe

pub mod overload;
pub mod service;
pub mod slab;
pub mod striped;
pub mod telemetry;
pub mod tenant;

pub use overload::OverloadGuard;
pub use service::ArenaService;
pub use slab::{FixedSlab, SlabStats, SlabUnit};
pub use striped::{ArenaError, ArenaSnapshot, ShardFullness, ShardSnapshot, ShardedArena};
pub use telemetry::ServiceTelemetry;
pub use tenant::{Priority, TenantOccupancy};
