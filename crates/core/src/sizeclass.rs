//! Size-class geometry, shared by every allocator that segregates by
//! size.
//!
//! Two allocators in this workspace round requests into size classes:
//! the segregated-fit simulator (`dsa-freelist`'s `SegregatedAllocator`)
//! and the real slab heap (`dsa-alloc`). Before this module each carried
//! its own copy of the class math; now the geometry lives here, once,
//! and the parity property tests exercise a single definition.
//!
//! Two geometries are provided:
//!
//! * [`power_of_two_classes`] — the doubling ladder the segregated-fit
//!   simulator rounds requests into;
//! * [`SizeClasses`] — a jemalloc-style ladder with four classes per
//!   doubling, the spacing a production heap uses to cap internal
//!   fragmentation at ~20% while keeping the class count small.

use crate::ids::Words;

/// The doubling ladder `min, 2·min, 4·min, …` up to and including the
/// first class `>= max` — the rounding geometry of the segregated-fit
/// discipline.
///
/// `min` is clamped to at least 1. The returned classes are strictly
/// ascending and non-empty.
#[must_use]
pub fn power_of_two_classes(min: Words, max: Words) -> Vec<Words> {
    let mut classes = Vec::new();
    let mut c = min.max(1);
    while c < max {
        classes.push(c);
        c *= 2;
    }
    classes.push(c);
    classes
}

/// How many size classes subdivide each power-of-two doubling in the
/// jemalloc-style ladder, once sizes are large enough to subdivide.
pub(crate) const CLASSES_PER_DOUBLING: Words = 4;

/// A jemalloc-style size-class ladder: quantum-spaced classes up to
/// `8 × quantum`, then `CLASSES_PER_DOUBLING` classes per doubling.
///
/// For the default heap geometry (`quantum = 8`, `max = 2048`) the
/// ladder is
///
/// ```text
/// 8 16 24 32 40 48 56 64            (quantum spacing)
/// 80 96 112 128                     (4 per doubling)
/// 160 192 224 256
/// 320 384 448 512
/// 640 768 896 1024
/// 1280 1536 1792 2048
/// ```
///
/// — 28 classes, worst-case internal fragmentation just under 25% and
/// typically ~12%. Lookup is O(1) via a quantum-granular table.
///
/// # Examples
///
/// ```
/// use dsa_core::sizeclass::SizeClasses;
///
/// let ladder = SizeClasses::jemalloc(8, 2048);
/// assert_eq!(ladder.count(), 28);
/// let c = ladder.class_of(100).unwrap();
/// assert_eq!(ladder.classes()[c], 112);
/// assert_eq!(ladder.class_of(2049), None);
/// ```
#[derive(Clone, Debug)]
pub struct SizeClasses {
    /// Class sizes, strictly ascending; all multiples of the quantum.
    classes: Vec<Words>,
    /// `lut[(size + quantum - 1) / quantum]` = class index of `size`.
    /// Entry 0 (size 0) aliases the smallest class.
    lut: Vec<u8>,
    /// `log2(quantum)`: the quantum is a power of two, so the lookup
    /// shifts instead of dividing.
    quantum_shift: u32,
    max: Words,
}

impl SizeClasses {
    /// Builds the ladder from `quantum` (smallest class and spacing
    /// grain) up to and including `max`.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is not a positive power of two, if `max` is
    /// not a multiple of `quantum` at least `8 × quantum`, or if the
    /// ladder would exceed 256 classes (the lookup table holds `u8`
    /// indices).
    #[must_use]
    pub fn jemalloc(quantum: Words, max: Words) -> SizeClasses {
        assert!(
            quantum > 0 && quantum.is_power_of_two(),
            "quantum must be a positive power of two"
        );
        assert!(
            max >= 8 * quantum && max % quantum == 0 && max.is_power_of_two(),
            "max must be a power-of-two multiple of the quantum, at least 8x"
        );
        let mut classes = Vec::new();
        // Quantum spacing up to 8 * quantum...
        let mut c = quantum;
        while c <= (8 * quantum).min(max) {
            classes.push(c);
            c += quantum;
        }
        // ...then CLASSES_PER_DOUBLING classes per doubling.
        let mut base = 8 * quantum;
        while base < max {
            let step = base / CLASSES_PER_DOUBLING;
            for k in 1..=CLASSES_PER_DOUBLING {
                let size = base + k * step;
                if size <= max {
                    classes.push(size);
                }
            }
            base *= 2;
        }
        assert!(classes.len() <= 256, "ladder too tall for a u8 table");
        // The quantum-granular lookup table: class of the i-th quantum.
        let slots = (max / quantum) as usize + 1;
        let mut lut = vec![0u8; slots];
        let mut class = 0usize;
        for (i, slot) in lut.iter_mut().enumerate().skip(1) {
            let size = i as Words * quantum;
            while classes[class] < size {
                class += 1;
            }
            #[allow(clippy::cast_possible_truncation)] // <= 256 classes
            {
                *slot = class as u8;
            }
        }
        SizeClasses {
            classes,
            lut,
            quantum_shift: quantum.trailing_zeros(),
            max,
        }
    }

    /// Number of classes in the ladder.
    #[must_use]
    pub fn count(&self) -> usize {
        self.classes.len()
    }

    /// The class sizes, strictly ascending.
    #[must_use]
    pub fn classes(&self) -> &[Words] {
        &self.classes
    }

    /// The smallest class holding `size`, or `None` past the ladder.
    /// O(1): one table read. A zero-size request maps to the smallest
    /// class.
    #[must_use]
    pub fn class_of(&self, size: Words) -> Option<usize> {
        if size > self.max {
            return None;
        }
        // `size <= max`, so adding `quantum - 1` cannot overflow.
        let slot = (size + (1 << self.quantum_shift) - 1) >> self.quantum_shift;
        Some(self.lut[slot as usize] as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_of_two_ladder_doubles_to_max() {
        assert_eq!(
            power_of_two_classes(8, 512),
            vec![8, 16, 32, 64, 128, 256, 512]
        );
        assert_eq!(power_of_two_classes(0, 4), vec![1, 2, 4]);
        assert_eq!(power_of_two_classes(16, 16), vec![16]);
        // max not on the ladder: first class >= max terminates it.
        assert_eq!(power_of_two_classes(8, 100), vec![8, 16, 32, 64, 128]);
    }

    #[test]
    fn jemalloc_ladder_default_geometry() {
        let l = SizeClasses::jemalloc(8, 2048);
        assert_eq!(
            l.classes(),
            &[
                8, 16, 24, 32, 40, 48, 56, 64, 80, 96, 112, 128, 160, 192, 224, 256, 320, 384, 448,
                512, 640, 768, 896, 1024, 1280, 1536, 1792, 2048
            ]
        );
        assert_eq!(l.count(), 28);
    }

    #[test]
    fn class_of_rounds_up_to_the_smallest_adequate_class() {
        let l = SizeClasses::jemalloc(8, 2048);
        for size in 1..=2048u64 {
            let c = l.class_of(size).unwrap();
            assert!(l.classes()[c] >= size, "class too small for {size}");
            if c > 0 {
                assert!(l.classes()[c - 1] < size, "class not minimal for {size}");
            }
        }
        assert_eq!(l.class_of(2049), None);
        assert_eq!(l.class_of(0), Some(0));
    }

    #[test]
    fn the_shifted_lookup_reads_the_div_ceil_slot() {
        for (quantum, max) in [(1, 8), (2, 64), (8, 2048), (16, 4096), (64, 8192)] {
            let l = SizeClasses::jemalloc(quantum, max);
            for size in 0..=max {
                let slot = size.div_ceil(quantum) as usize;
                assert_eq!(
                    l.class_of(size),
                    Some(l.lut[slot] as usize),
                    "{quantum}: {size}"
                );
            }
            assert_eq!(l.class_of(max + 1), None);
        }
    }

    #[test]
    fn internal_fragmentation_is_bounded() {
        let l = SizeClasses::jemalloc(8, 2048);
        for size in 65..=2048u64 {
            let rounded = l.classes()[l.class_of(size).unwrap()];
            // Above the quantum-spaced run the spacing is base/4, so
            // waste < 25% of the request.
            assert!(
                (rounded - size) * 4 < rounded,
                "waste too high at {size}: rounded {rounded}"
            );
        }
    }

    #[test]
    fn quantum_16_ladder_holds_its_invariants() {
        let l = SizeClasses::jemalloc(16, 4096);
        assert!(l.classes().windows(2).all(|w| w[0] < w[1]));
        assert_eq!(l.classes()[0], 16);
        assert_eq!(*l.classes().last().unwrap(), 4096);
        for size in (16..=4096u64).step_by(16) {
            let c = l.class_of(size).unwrap();
            assert!(l.classes()[c] >= size);
        }
    }
}
