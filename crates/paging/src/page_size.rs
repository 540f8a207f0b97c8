//! Page-size sweep helpers (experiment E6).
//!
//! "One of the problems of designing a system based on a uniform unit of
//! allocation is choosing the size of the unit. If it is too small,
//! there will be an unacceptable amount of overhead. If it is too large,
//! too much space will be wasted" — §Uniformity of Unit of Storage
//! Allocation. These helpers turn a *word-granular* reference string
//! into the page-granular strings a [`crate::paged::PagedMemory`] of a
//! given page size sees, so the same workload can be replayed across
//! page sizes with working storage held constant.

use dsa_core::access::Access;
use dsa_core::ids::{PageNo, Words};

/// Maps a word name to its page under `page_size`.
///
/// # Panics
///
/// Panics (in debug builds) if `page_size` is zero.
#[must_use]
pub(crate) fn page_of(word: u64, page_size: Words) -> PageNo {
    debug_assert!(page_size > 0);
    PageNo(word / page_size)
}

/// Projects a word-granular access string to page granularity.
#[must_use]
pub fn to_page_trace(accesses: &[Access], page_size: Words) -> Vec<PageNo> {
    accesses
        .iter()
        .map(|a| page_of(a.name.value(), page_size))
        .collect()
}

/// Number of frames a working storage of `memory_words` provides at
/// `page_size` (rounded down; at least 1).
#[must_use]
pub fn frames_for(memory_words: Words, page_size: Words) -> usize {
    ((memory_words / page_size).max(1)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_of_divides() {
        assert_eq!(page_of(0, 512), PageNo(0));
        assert_eq!(page_of(511, 512), PageNo(0));
        assert_eq!(page_of(512, 512), PageNo(1));
        assert_eq!(page_of(1535, 512), PageNo(2));
    }

    #[test]
    fn trace_projection() {
        let trace = vec![
            Access::read(0u64),
            Access::read(100u64),
            Access::read(300u64),
        ];
        assert_eq!(
            to_page_trace(&trace, 256),
            vec![PageNo(0), PageNo(0), PageNo(1)]
        );
        assert_eq!(
            to_page_trace(&trace, 64),
            vec![PageNo(0), PageNo(1), PageNo(4)]
        );
    }

    #[test]
    fn frames_for_rounds_down_but_never_zero() {
        assert_eq!(frames_for(16_384, 512), 32);
        assert_eq!(frames_for(1000, 512), 1);
        assert_eq!(frames_for(100, 512), 1);
    }
}
