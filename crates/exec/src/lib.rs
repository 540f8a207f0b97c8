//! The deterministic parallel simulation engine.
//!
//! Every experiment in this workspace is a *grid* of independent
//! simulation runs — preset × policy × page size × seed — and every
//! cell of the grid is a pure function of its coordinates: the
//! simulators share no mutable state and draw all randomness from
//! per-cell seeded generators. That independence is the whole license
//! for parallelism, and this crate is deliberately nothing more than
//! that license made executable:
//!
//! * [`pool::par_map`] fans the cells of a grid across
//!   `--jobs` worker threads ([`std::thread::scope`], no external
//!   dependencies) via an atomic work-stealing index, then merges the
//!   results *in grid order* — so the output of a run is a pure
//!   function of the grid, never of the scheduling. `--jobs 1` executes
//!   inline on the calling thread: the exact sequential program we had
//!   before the engine existed.
//! * [`grid::SimGrid`] names the grid itself, with cartesian-product
//!   builders for the common axes.
//! * [`cli::jobs_from_env`] gives every `exp_*` binary the same
//!   `--jobs N` flag (default: all hardware threads).
//!
//! What is *not* parallelized matters as much: a single simulated
//! machine is always stepped by one thread, because virtual time is a
//! serial dependency. The engine only ever runs *different* machines
//! (or the same machine under different parameters) side by side.

pub mod cli;
pub mod grid;
pub mod pool;

pub use cli::jobs_from_env;
pub use grid::{product2, SimGrid};
pub use pool::par_map;
