//! One-pass Mattson stack-distance evaluation.
//!
//! Belady-style studies — fault rate as a function of core size, the
//! curves of §Replacement Strategies — naively cost one full trace
//! replay per `(policy, frame count)` cell. For *stack algorithms* the
//! whole size axis collapses into a single traversal: a policy has the
//! **inclusion property** when the memory content at `C` frames is
//! always a subset of the content at `C + 1` frames, so the resident
//! sets at every size form a single nested *stack* and each reference
//! has one well-defined **stack distance** — the smallest memory size at
//! which it would have hit. A reference faults at `C` frames iff its
//! distance exceeds `C`, so the histogram of distances *is* the entire
//! faults-vs-size curve (Mattson, Gecsei, Slutz & Traiger 1970).
//!
//! Two exact engines:
//!
//! * [`streaming::StreamingLru`] — LRU distance is the number of
//!   distinct pages touched since the previous reference to the same
//!   page, computed in O(log distinct pages) per reference as a rank in
//!   a [`fenwick::Fenwick`] bitmap over reference stamps (one bit a
//!   stamp, a tree of per-word counts above the bits) that compaction
//!   keeps as small as the page universe. It takes any
//!   page iterator, so traces too long to materialize stream through
//!   it; [`lru::lru_distances`] is the same engine over a slice,
//!   keeping every distance;
//! * [`opt::opt_distances`] — Belady's MIN/OPT is also a stack
//!   algorithm (priority = next use time, precomputed by
//!   [`dsa_paging::replacement::min::next_use_times`]); the stack is
//!   repaired top-down by priority on every reference. It stays
//!   batch-only, since its priorities need a backward pass.
//!
//! Which of this workspace's policies qualify: LRU and MIN do. FIFO and
//! Clock do **not** (no inclusion — Belady's anomaly, reproduced in the
//! `dsa-paging` tests, is the proof by counterexample), Random and
//! class-random are stochastic, the ATLAS learning program's period
//! estimates depend on its own eviction history, and aged LFU's
//! periodic halving ties its frequency ranks to fault timing. Those
//! policies keep their one-run-per-size sweeps.
//!
//! The result of a pass is a [`success::StackDistances`] (per-reference
//! distances, so fault *positions* at any size can be replayed into
//! probes) and its [`success::SuccessFunction`] — exact fault counts
//! for **all** frame counts simultaneously. Parity with the
//! `PagedMemory` simulator, fault count for fault count at every size,
//! is property-tested in `tests/properties_stackdist.rs`.

pub mod fenwick;
pub mod lru;
pub mod opt;
pub mod streaming;
pub mod success;

pub use fenwick::Fenwick;
pub use lru::{lru_distances, lru_success};
pub use opt::{opt_distances, opt_success};
pub use streaming::StreamingLru;
pub use success::{StackDistances, SuccessFunction, INFINITE};
