//! Simulated physical storage: levels, hierarchies, memory, channels.
//!
//! The paper's conclusion (ii): "the choice of a suitable storage
//! allocation system is strongly dependent on the characteristics of the
//! various storage levels, and their interconnections, provided by the
//! computer system on which it is implemented." This crate supplies
//! those characteristics as data:
//!
//! * [`level::LevelSpec`] — capacity and timing of one storage level,
//!   with presets for every device named in the appendix (ATLAS core and
//!   drum, the M44's 8 µs core and IBM 1301 disk, the GE 645 complement,
//!   the 360/67 core and drum, tape);
//! * [`hierarchy::Hierarchy`] — ordered levels with transfer-cost and
//!   promotion break-even queries;
//! * [`memory::CoreMemory`] — a word-addressable store with real
//!   contents, for experiments that must verify data survives remapping
//!   and compaction;
//! * [`channel::PackingChannel`] — the autonomous storage-to-storage
//!   packing channel of special hardware facility (iii), priced against
//!   a programmed copy loop;
//! * [`drum::SectorDrum`] — a rotation-aware paging drum with FIFO and
//!   shortest-latency-first queue service, behind the flat fetch
//!   latencies the other crates assume (experiment E17).

pub mod channel;
pub mod drum;
pub mod hierarchy;
pub mod level;
pub mod memory;

pub use hierarchy::Hierarchy;
pub use level::{presets, LevelKind, LevelSpec};
pub use memory::CoreMemory;
