//! Variable-unit storage allocation.
//!
//! "If the size of the unit of allocation is varied in order to suit the
//! needs of the information to be stored, the problem of storage
//! fragmentation becomes directly apparent" — §Uniformity of Unit of
//! Storage Allocation. This crate contains everything the paper says
//! about that regime:
//!
//! * [`freelist::FreeListAllocator`] — an address-ordered free list with
//!   immediate coalescing and the placement strategies of §Placement
//!   Strategies: first-fit, next-fit, **best-fit** ("place the
//!   information in the smallest space which is sufficient to contain
//!   it"), worst-fit (as a control), and **two-ends** ("place large
//!   blocks of information starting at one end of storage and small
//!   blocks starting at the other");
//! * [`rice::RiceAllocator`] — the Appendix A.4 scheme: sequential
//!   initial placement, an explicit chain of inactive blocks searched
//!   first-fit, deferred coalescing by combining adjacent inactive
//!   blocks only when a search fails;
//! * [`buddy::BuddyAllocator`] — the binary buddy system, a classic
//!   uniform-ish compromise, as an ablation baseline;
//! * [`segregated::SegregatedAllocator`] — per-size-class free lists,
//!   the search-free endpoint of the paper's "number of different
//!   allocation units" consideration;
//! * [`compaction`] — "to move information around in storage so as to
//!   remove any unused spaces" (§Uniformity, course (ii)), with
//!   move-cost accounting for experiment E7;
//! * [`frag`] — fragmentation measures, including the *internal*
//!   fragmentation of paged allocation that the paper insists paging
//!   merely obscures (conclusion (v), experiment E6).

pub mod buddy;
pub mod compaction;
pub mod frag;
pub mod freelist;
pub mod rice;
pub mod segregated;

pub use buddy::BuddyAllocator;
pub use compaction::{compact, CompactionReport};
pub use freelist::{FreeListAllocator, Placement};
pub use rice::RiceAllocator;
pub use segregated::SegregatedAllocator;
