//! The seven appendix machines, composed and runnable.
//!
//! "This brief survey of relevant aspects of several computer systems is
//! intended to illustrate the many combinations of functional
//! capability, underlying strategies, and special hardware facilities
//! that have been chosen by system designers" — Appendix. Each preset
//! here assembles the workspace's components into one of those
//! combinations, with the appendix's published parameters, behind a
//! common [`Machine`] interface that executes machine-independent
//! [`dsa_core::access::ProgramOp`] workloads. Experiment E9 runs one workload
//! across all seven and prints the survey as a measured table.
//!
//! Every preset is one [`Composed`] machine: the interpreter in
//! [`driver`] is written once, and what the appendix varies is a type
//! parameter or an axis of the preset's characteristics (advice is taken
//! iff `predictive` is not `None`).
//!
//! | Preset | Name space | Backend | Name layout | Mapping device | Unit | Replacement |
//! |---|---|---|---|---|---|---|
//! | [`atlas`] | linear | [`Paged`](paged::Paged) | [`OneExtent`](paged::OneExtent) | `FrameAssociativeMap` | 512-word pages | learning program, vacant reserve |
//! | [`m44_44x`] | linear | `Paged` | `OneExtent` | `BlockMap` (mapping store) | 1024-word pages | class-random; advice instructions |
//! | [`b5000`] | symbolically segmented | [`Segments`](segments::Segments) | — | PRT descriptors | variable (seg ≤ 1024) | cyclic |
//! | [`rice`] | segmented (codewords) | `Segments` | — | codewords | variable (chain) | Rice iterative |
//! | `b8500` | symbolically segmented | `Segments` | — | PRT + 44-word associative memory | variable | cyclic |
//! | [`multics`] | linearly segmented (used symbolically) | `Paged` | [`PerObject`](paged::PerObject) | `TwoLevelMap` + associative | 64/1024-word pages | class-random; advice |
//! | `model67` | linearly segmented | `Paged` | `OneExtent` (packed) | `TwoLevelMap` + 8-entry associative | 1024-word pages | class-random |
//! | [`favoured`] | symbolically segmented | `Segments` | — | descriptors + associative memory | variable, 4096-word chunks | Rice iterative; advice |

pub mod device;
pub mod driver;
mod faults_rt;
pub mod paged;
pub mod presets;
pub mod report;
pub mod segments;

pub use driver::Composed;
pub use presets::{all_machines, atlas, b5000, favoured, m44_44x, multics, rice};
pub use report::{Machine, MachineReport};
