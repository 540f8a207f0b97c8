//! Synthetic workload generation.
//!
//! The paper's strategies are evaluated (following Belady \[1\], whom it
//! cites) on abstracted *reference strings* and *allocation request
//! streams* rather than on recordings of particular 1967 programs. This
//! crate generates such workloads deterministically:
//!
//! * [`rng::Rng64`] — a small, self-contained xoshiro256++ PRNG so every
//!   experiment is exactly reproducible from a seed, independent of any
//!   external crate's stream stability;
//! * [`refstring`] — reference-string models: independent references,
//!   the LRU-stack-distance model, working-set phases, sequential
//!   sweeps, and the loop-structured patterns the ATLAS learning program
//!   was designed for;
//! * [`allocstream`] — allocation/free event streams with controllable
//!   size distributions, lifetimes, and steady-state load factor;
//! * [`program`] — segment-structured programs (`dsa_core::ProgramOp`
//!   streams) that every appendix machine can execute, with knobs for
//!   advice accuracy and bounds-violation injection;
//! * [`planner`] — the "authoritarian compiler": exact whole-program
//!   advice planning in the ACSI-MATIC program-description tradition,
//!   the upper bound on what predictive information can be worth;
//! * [`stream`] — seedable, resumable, constant-memory iterator
//!   equivalents of the materializing generators, under an exact-replay
//!   contract (same seed ⇒ byte-identical sequence, at any scale).

pub mod allocstream;
pub mod planner;
pub mod program;
pub mod refstring;
pub mod rng;
pub mod stream;

pub use allocstream::AllocStreamCfg;
pub use planner::{AdvicePlanner, PlannerCfg};
pub use program::{ProgramCfg, SyntheticProgram};
pub use refstring::RefStringCfg;
pub use rng::Rng64;
pub use stream::RefStream;
