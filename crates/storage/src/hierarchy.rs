//! Multi-level storage hierarchies.
//!
//! A [`Hierarchy`] is an ordered list of [`LevelSpec`]s, fastest first.
//! Level 0 is working storage; deeper levels hold what working storage
//! cannot. The type answers the timing questions the strategies ask:
//! what does it cost to fetch a block from level *k*, and — for the
//! multi-level fetch question of the paper's "additional complexity in
//! fetch strategies" paragraph (experiment E14) — above what reuse
//! frequency does promoting an item to a faster level pay for itself?

use core::fmt;

use dsa_core::clock::Cycles;
use dsa_core::error::CoreError;
use dsa_core::ids::Words;

use crate::level::LevelSpec;

/// An ordered storage hierarchy, fastest level first.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    levels: Vec<LevelSpec>,
}

impl Hierarchy {
    /// Builds a hierarchy from levels ordered fastest first.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] if no level is given, if the
    /// first level is not directly addressable, or if access latencies
    /// are not non-decreasing with depth.
    pub fn new(levels: Vec<LevelSpec>) -> Result<Hierarchy, CoreError> {
        if levels.is_empty() {
            return Err(CoreError::BadConfig("hierarchy needs at least one level"));
        }
        if !levels[0].directly_addressable() {
            return Err(CoreError::BadConfig(
                "level 0 must be directly addressable working storage",
            ));
        }
        for pair in levels.windows(2) {
            if pair[0].latency > pair[1].latency {
                return Err(CoreError::BadConfig("levels must be ordered fastest first"));
            }
        }
        Ok(Hierarchy { levels })
    }

    /// All levels, fastest first.
    #[must_use]
    pub fn levels(&self) -> &[LevelSpec] {
        &self.levels
    }

    /// Cost of moving a block of `words` between level `from` and level
    /// `to` (symmetric: the slower side dominates; both devices are
    /// occupied, so the time is the max of the two transfer times).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn transfer(&self, from: usize, to: usize, words: Words) -> Cycles {
        let a = self.levels[from].transfer_time(words);
        let b = self.levels[to].transfer_time(words);
        if a > b {
            a
        } else {
            b
        }
    }

    /// The minimum number of times an item (block of `words`) must be
    /// used, after promotion from level `k` to level `j` (with `j < k`),
    /// for the promotion to pay for itself: each use saves the access
    /// gap between the levels, while the promotion costs one transfer.
    ///
    /// Returns `None` if level `j` is not faster per access than level
    /// `k` (promotion can never pay).
    #[must_use]
    pub fn break_even_uses(&self, k: usize, j: usize, words: Words) -> Option<u64> {
        let slow = &self.levels[k];
        let fast = &self.levels[j];
        let saving_per_use = slow
            .access_time()
            .saturating_sub(fast.access_time())
            .as_nanos();
        if saving_per_use == 0 {
            return None;
        }
        let cost = self.transfer(j, k, words).as_nanos();
        Some(cost.div_ceil(saving_per_use))
    }
}

impl fmt::Display for Hierarchy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, l) in self.levels.iter().enumerate() {
            writeln!(f, "L{i}: {l}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::presets::*;
    use crate::level::{LevelKind, LevelSpec};

    fn atlas() -> Hierarchy {
        Hierarchy::new(vec![atlas_core(), atlas_drum()]).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(Hierarchy::new(vec![]).is_err());
        assert!(
            Hierarchy::new(vec![atlas_drum()]).is_err(),
            "drum cannot be level 0"
        );
        assert!(
            Hierarchy::new(vec![m44_core(), atlas_core()]).is_err(),
            "slower core cannot precede faster backing level ordering check"
        );
        assert!(atlas().levels.len() == 2);
    }

    #[test]
    fn transfer_is_dominated_by_slow_side() {
        let h = atlas();
        assert_eq!(h.transfer(0, 1, 512), atlas_drum().transfer_time(512));
        assert_eq!(h.transfer(1, 0, 512), h.transfer(0, 1, 512));
    }

    #[test]
    fn break_even_uses_sane() {
        // Two core levels: 1 us vs 8 us access; moving 64 words costs
        // ~8 us-dominated transfer; each use saves 7 us.
        let fast = LevelSpec {
            name: "fast core".into(),
            kind: LevelKind::Core,
            capacity: 1024,
            latency: dsa_core::clock::Cycles::from_micros(1),
            word_time: dsa_core::clock::Cycles::from_micros(1),
        };
        let h = Hierarchy::new(vec![fast, m44_core()]).unwrap();
        let n = h.break_even_uses(1, 0, 64).unwrap();
        // Transfer = max(64us, 8+512us) = 520us; saving = 7us/use.
        assert_eq!(n, 75);
        // Promotion to an equally slow level never pays.
        assert!(h.break_even_uses(1, 1, 64).is_none());
    }

    #[test]
    fn working_is_level_zero() {
        assert_eq!(atlas().levels[0].name, "ATLAS core");
    }

    #[test]
    fn display_lists_levels_in_order() {
        let s = atlas().to_string();
        let core_pos = s.find("ATLAS core").unwrap();
        let drum_pos = s.find("ATLAS drum").unwrap();
        assert!(core_pos < drum_pos);
    }
}
