//! A real allocator built from the workspace's concurrent primitives.
//!
//! Every other crate in this workspace *simulates* dynamic storage
//! allocation: addresses are words in an imaginary core store, and the
//! experiments measure policies against each other. This crate closes
//! the loop and runs the same machinery as an actual Rust heap:
//!
//! 1. **Size-class heap** ([`DsaHeap`]) — a jemalloc-style ladder from
//!    the shared [`dsa_core::sizeclass`] geometry, 8..=32768 bytes. Up
//!    to 2048 bytes each class is a lock-free
//!    [`dsa_arena::FixedSlab`] over pages carved from a backing
//!    [`dsa_arena::ShardedArena`]: an allocation is a single
//!    tagged-CAS pop, a free a single push. The classes above have no
//!    slab; each block is one arena block of exactly the class size.
//! 2. **Per-thread magazine caches** ([`ThreadCache`]) — Bonwick's
//!    two-magazine scheme: each thread holds a *loaded* and a
//!    *previous* magazine per class, so the common alloc/free path
//!    touches no shared state at all. When both run dry (or full) the
//!    thread trades a magazine with a per-class depot, by pointer,
//!    through a lock-free array of slots: one atomic swap or
//!    compare-exchange each way, amortized over a whole magazine of
//!    operations. Every class rides them, the slabless ones included.
//! 3. **Sharded large path** — requests past the ladder go through the
//!    [`dsa_arena::ShardedArena`] proper (first-fit shards, overflow
//!    stealing, quick lists), each block named by the address handed
//!    out: one shard lock each way, and no book but the shard's own.
//!
//! [`GlobalDsa`] packages the three layers behind
//! [`core::alloc::GlobalAlloc`], so the whole thing can be installed
//! with `#[global_allocator]`; the `nightly` feature additionally
//! implements the unstable `core::alloc::Allocator` trait. The heap's
//! own bookkeeping (shard books, hole tables, magazines)
//! routes to [`std::alloc::System`] through a reentrancy guard, which
//! is what makes self-hosting safe.
//!
//! Telemetry is not bolted on: every backend operation (slab pop/push,
//! arena alloc/free) flows through the crate's
//! [`dsa_telemetry::TelemetryProbe`], and
//! [`DsaHeap::check_reconciliation`] proves the probe's ledger equals
//! the heap's — the same books-must-balance discipline the simulators
//! enforce, now over real memory.

#![cfg_attr(feature = "nightly", feature(allocator_api))]

mod global;
mod heap;
mod magazine;

pub use global::GlobalDsa;
pub use heap::{DsaHeap, HeapConfig, HeapStats};
pub use magazine::{ThreadCache, DEPOT_MAX_FULL, MAG_MAX};
