//! Uniform-unit allocation: demand paging and replacement strategies.
//!
//! "Storage can be allocated in blocks of equal size, which we call
//! 'page frames', a 'page' being the set of informational items that can
//! fit within a page frame. ... One of the great virtues of such systems
//! is their simplicity, since a page can be placed in any available page
//! frame" — §Uniformity of Unit of Storage Allocation.
//!
//! * [`paged::PagedMemory`] — the demand-paging engine: page table,
//!   frame pool, fault servicing, pinning and advice, and the ATLAS
//!   "keep one frame vacant" option;
//! * [`sensors::Sensors`] — the use/modify recording hardware of special
//!   facility (iv), interrogated by replacement strategies;
//! * [`replacement`] — the strategies themselves: FIFO, LRU, Clock,
//!   Random, the M44's class-based random selection, the ATLAS learning
//!   program, Belady's MIN (the offline optimum, as the yardstick his
//!   study \[1\] used), and a working-set simulator;
//! * [`page_size`] — helpers for page-size sweeps (experiment E6).

pub mod compact;
pub mod page_size;
pub mod paged;
pub mod replacement;
pub mod sensors;

pub use compact::CompactLru;
pub use paged::{AdviceOutcome, PagedMemory, PagingStats};
pub use replacement::{
    atlas::AtlasLearning, clock::ClockRepl, fifo::FifoRepl, lfu::LfuRepl, lru::LruRepl,
    min::MinRepl, nru::ClassRandomRepl, random::RandomRepl, Eligible, Replacer,
};
pub use sensors::Sensors;
