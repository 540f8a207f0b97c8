//! Segmentation.
//!
//! "The segment represents a convenient high level notation for creating
//! a meaningful structuring of the information used by a program" —
//! §Name Space. This crate implements the segment machinery of the
//! paper's machines:
//!
//! * [`descriptor`] — B5000 descriptors and the Program Reference Table
//!   (A.3): per-segment base/limit/presence, consulted on every access;
//! * [`codeword`] — Rice codewords (A.4): descriptors that additionally
//!   name an index register whose contents are added automatically on
//!   access;
//! * [`names`] — segment *name* allocation: the symbolically segmented
//!   dictionary (B5000) that never fragments, versus the linearly
//!   segmented dictionary (360/67 style) that needs contiguous number
//!   ranges and hence suffers exactly the fragmentation/reallocation
//!   problems of any linear space (experiment E10);
//! * [`store`] — a segment-level virtual memory: segments are the unit
//!   of fetch and replacement (fetch on first reference, as on the
//!   B5000 and Rice machines), placed in working storage by a
//!   variable-unit allocator, with cyclic (B5000) or Rice-iterative
//!   replacement, automatic bounds checking (special hardware facility
//!   (ii)), and segment-granular advice;
//! * [`sharing`] — segmentation advantage (ii): segments as the unit of
//!   information protection and sharing, with capability-checked access
//!   and one resident copy per shared segment.

pub mod codeword;
pub mod descriptor;
pub mod names;
pub mod sharing;
pub mod store;

pub use codeword::{Codeword, IndexRegisters};
pub use descriptor::{Descriptor, Prt};
pub use names::NameStats;
pub use sharing::SharingStats;
pub use store::{SegStats, TouchReport};
