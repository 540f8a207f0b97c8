//! A real allocator built from the workspace's concurrent primitives.
//!
//! Every other crate in this workspace *simulates* dynamic storage
//! allocation: addresses are words in an imaginary core store, and the
//! experiments measure policies against each other. This crate closes
//! the loop and runs the same machinery as an actual Rust heap:
//!
//! 1. **Size-class heap** ([`DsaHeap`]) — a jemalloc-style ladder from
//!    the shared [`dsa_core::sizeclass`] geometry, 8..=32768 bytes, over
//!    one [`dsa_arena::ShardedArena`] region (first-fit shards, overflow
//!    stealing, quick lists). A block of a class is one arena block of
//!    exactly the class size, named by the address handed out: one
//!    shard lock each way, and no book but the shard's own.
//! 2. **Per-thread magazine caches** ([`ThreadCache`]) — Bonwick's
//!    two-magazine scheme: each thread holds a *loaded* and a
//!    *previous* magazine per class, so the common alloc/free path
//!    touches no shared state at all. When both run dry (or full) the
//!    thread trades a magazine with a per-class depot, by pointer,
//!    through a lock-free array of slots: one atomic swap or
//!    compare-exchange each way, amortized over a whole magazine of
//!    operations. A magazine miss takes one arena block of the class
//!    size; an overflow or a flush returns a magazine's blocks to the
//!    arena in one batch.
//! 3. **The large path** — requests past the ladder, or aligned past a
//!    word, go to the arena and straight back, never parked.
//!
//! [`GlobalDsa`] packages the three layers behind
//! [`core::alloc::GlobalAlloc`], so the whole thing can be installed
//! with `#[global_allocator]`. The heap's own bookkeeping (shard
//! books, hole tables, magazines) routes to [`std::alloc::System`]
//! through a reentrancy guard, which is what makes self-hosting safe.
//!
//! The books are not bolted on: every backend operation (an arena
//! alloc or free) is counted, in operations and in words, on the
//! heap's own counters ([`HeapStats`]), and
//! [`DsaHeap::check_reconciliation`] proves that ledger equals what the
//! arena holds live — the same books-must-balance discipline the
//! simulators enforce, now over real memory.

mod global;
mod heap;
mod magazine;

pub use global::GlobalDsa;
pub use heap::{DsaHeap, HeapConfig, HeapStats};
pub use magazine::{ThreadCache, DEPOT_MAX_FULL, MAG_MAX};
