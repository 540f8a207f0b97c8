//! Storage levels and their timing.
//!
//! "The choice of suitable strategies will depend highly upon the
//! environment in which they are to be used and in particular the
//! characteristics of the various storage levels and their
//! interconnections" — conclusion (ii) of the paper. A [`LevelSpec`]
//! captures exactly those characteristics: capacity, access latency, and
//! per-word transfer time. The presets carry the parameters the paper's
//! appendix publishes for each machine.

use core::fmt;

use dsa_core::clock::Cycles;
use dsa_core::ids::Words;

/// The technology class of a storage level (used only for labeling).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LevelKind {
    /// Directly addressable working storage (core, thin film).
    Core,
    /// Rotating drum backing storage.
    Drum,
    /// Disk file backing storage.
    Disk,
    /// Magnetic tape (the Rice machine's only backing store).
    Tape,
}

impl fmt::Display for LevelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LevelKind::Core => "core",
            LevelKind::Drum => "drum",
            LevelKind::Disk => "disk",
            LevelKind::Tape => "tape",
        })
    }
}

/// Capacity and timing of one storage level.
#[derive(Clone, Debug)]
pub struct LevelSpec {
    /// Human-readable name (e.g. `"ATLAS core"`).
    pub name: String,
    /// Technology class.
    pub kind: LevelKind,
    /// Capacity in words.
    pub capacity: Words,
    /// Latency to begin a transfer (cycle time for core; average
    /// rotational latency for a drum; average seek + rotational latency
    /// for a disk; average positioning time for tape).
    pub latency: Cycles,
    /// Time to move one word once the transfer has begun.
    pub word_time: Cycles,
}

impl LevelSpec {
    /// Time to transfer a block of `words` to or from this level:
    /// `latency + words * word_time`.
    #[must_use]
    pub fn transfer_time(&self, words: Words) -> Cycles {
        self.latency + self.word_time * words
    }

    /// Time for one direct word access (only meaningful for
    /// [`LevelKind::Core`] levels, which the processor addresses
    /// directly).
    #[must_use]
    pub fn access_time(&self) -> Cycles {
        self.latency
    }

    /// True if the processor can address this level directly.
    #[must_use]
    pub(crate) fn directly_addressable(&self) -> bool {
        self.kind == LevelKind::Core
    }
}

impl fmt::Display for LevelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}): {} words, latency {}, {}/word",
            self.name, self.kind, self.capacity, self.latency, self.word_time
        )
    }
}

/// Preset levels with the parameters published in the paper's appendix
/// (and the primary sources it cites). Latencies are rounded to
/// historically plausible values; the experiments depend on their
/// *ratios*, which are faithful.
pub mod presets {
    use super::{LevelKind, LevelSpec};
    use dsa_core::clock::Cycles;

    /// ATLAS core storage: 16,384 words, ~2 µs cycle (A.1).
    #[must_use]
    pub fn atlas_core() -> LevelSpec {
        LevelSpec {
            name: "ATLAS core".into(),
            kind: LevelKind::Core,
            capacity: 16_384,
            latency: Cycles::from_micros(2),
            word_time: Cycles::from_micros(2),
        }
    }

    /// ATLAS drum: 98,304 words; ~6 ms average rotational latency,
    /// ~2 ms to move a 512-word page (A.1; Kilburn et al.).
    #[must_use]
    pub fn atlas_drum() -> LevelSpec {
        LevelSpec {
            name: "ATLAS drum".into(),
            kind: LevelKind::Drum,
            capacity: 98_304,
            latency: Cycles::from_micros(6_000),
            word_time: Cycles::from_nanos(4_000),
        }
    }

    /// M44 core: ~200,000 words of 8 µs core (A.2).
    #[must_use]
    pub fn m44_core() -> LevelSpec {
        LevelSpec {
            name: "M44 core".into(),
            kind: LevelKind::Core,
            capacity: 200_000,
            latency: Cycles::from_micros(8),
            word_time: Cycles::from_micros(8),
        }
    }

    /// IBM 1301 disk file: 9 million words; ~165 ms average access
    /// (seek + rotation), ~90 kword/s transfer (A.2).
    #[must_use]
    pub fn ibm1301_disk() -> LevelSpec {
        LevelSpec {
            name: "IBM 1301 disk".into(),
            kind: LevelKind::Disk,
            capacity: 9_000_000,
            latency: Cycles::from_millis(165),
            word_time: Cycles::from_micros(11),
        }
    }

    /// B5000 core: 24,000 words is "a typical size for working storage".
    #[must_use]
    pub fn b5000_core() -> LevelSpec {
        LevelSpec {
            name: "B5000 core".into(),
            kind: LevelKind::Core,
            capacity: 24_000,
            latency: Cycles::from_micros(6),
            word_time: Cycles::from_micros(6),
        }
    }

    /// B5000 drum backing storage.
    #[must_use]
    pub fn b5000_drum() -> LevelSpec {
        LevelSpec {
            name: "B5000 drum".into(),
            kind: LevelKind::Drum,
            capacity: 32_768,
            latency: Cycles::from_micros(8_500),
            word_time: Cycles::from_micros(4),
        }
    }

    /// Rice University Computer core (the only processor-addressable
    /// store; A.4 notes the sole backing storage was magnetic tape).
    #[must_use]
    pub fn rice_core() -> LevelSpec {
        LevelSpec {
            name: "Rice core".into(),
            kind: LevelKind::Core,
            capacity: 32_768,
            latency: Cycles::from_micros(5),
            word_time: Cycles::from_micros(5),
        }
    }

    /// Magnetic tape: effectively unbounded capacity, ~3 s average
    /// positioning.
    #[must_use]
    pub fn tape() -> LevelSpec {
        LevelSpec {
            name: "magnetic tape".into(),
            kind: LevelKind::Tape,
            capacity: 50_000_000,
            latency: Cycles::from_millis(3_000),
            word_time: Cycles::from_micros(40),
        }
    }

    /// GE 645 core for the "small but useful" MULTICS configuration:
    /// 128K words (A.6).
    #[must_use]
    pub fn ge645_core() -> LevelSpec {
        LevelSpec {
            name: "GE645 core".into(),
            kind: LevelKind::Core,
            capacity: 131_072,
            latency: Cycles::from_micros(1),
            word_time: Cycles::from_micros(1),
        }
    }

    /// GE 645 drum: 4 million words (A.6).
    #[must_use]
    pub fn ge645_drum() -> LevelSpec {
        LevelSpec {
            name: "GE645 drum".into(),
            kind: LevelKind::Drum,
            capacity: 4_000_000,
            latency: Cycles::from_micros(4_000),
            word_time: Cycles::from_nanos(2_000),
        }
    }

    /// 360/67 core: three modules of 256K bytes = 192K 32-bit words
    /// total (A.7).
    #[must_use]
    pub fn model67_core() -> LevelSpec {
        LevelSpec {
            name: "360/67 core".into(),
            kind: LevelKind::Core,
            capacity: 196_608,
            latency: Cycles::from_nanos(750),
            word_time: Cycles::from_nanos(750),
        }
    }

    /// 360/67 drum: 4 million bytes = 1M words (A.7).
    #[must_use]
    pub fn model67_drum() -> LevelSpec {
        LevelSpec {
            name: "360/67 drum".into(),
            kind: LevelKind::Drum,
            capacity: 1_048_576,
            latency: Cycles::from_micros(4_300),
            word_time: Cycles::from_nanos(1_300),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::presets::*;

    #[test]
    fn transfer_time_is_affine() {
        let d = atlas_drum();
        let t0 = d.transfer_time(0);
        let t512 = d.transfer_time(512);
        assert_eq!(t0, d.latency);
        assert_eq!(t512 - t0, d.word_time * 512);
    }

    #[test]
    fn atlas_page_fetch_is_milliseconds() {
        // A 512-word ATLAS drum page: ~6 ms latency + ~2 ms transfer.
        let t = atlas_drum().transfer_time(512);
        let ms = t.as_millis_f64();
        assert!((7.0..10.0).contains(&ms), "{ms} ms");
    }

    #[test]
    fn disk_is_much_slower_than_drum() {
        let drum = atlas_drum().transfer_time(512);
        let disk = ibm1301_disk().transfer_time(512);
        assert!(disk.as_nanos() > 10 * drum.as_nanos());
    }

    #[test]
    fn only_core_is_directly_addressable() {
        assert!(atlas_core().directly_addressable());
        assert!(m44_core().directly_addressable());
        assert!(!atlas_drum().directly_addressable());
        assert!(!ibm1301_disk().directly_addressable());
        assert!(!tape().directly_addressable());
    }

    #[test]
    fn m44_virtual_space_exceeds_core_tenfold() {
        // The paper: M44 name space is ~2M words, "ten times the actual
        // extent of physical working storage".
        assert!(m44_core().capacity * 10 <= 2_097_152);
    }

    #[test]
    fn display_contains_name_and_kind() {
        let s = ge645_drum().to_string();
        assert!(s.contains("GE645 drum") && s.contains("drum"), "{s}");
    }

    #[test]
    fn capacities_ordered_within_hierarchies() {
        assert!(atlas_core().capacity < atlas_drum().capacity);
        assert!(ge645_core().capacity < ge645_drum().capacity);
        assert!(model67_core().capacity < model67_drum().capacity);
    }
}
