//! Mapping cost parameters and statistics.

use core::fmt;

use dsa_core::clock::Cycles;

/// Timing parameters of the addressing hardware.
///
/// Every mapping device is built from two primitive operations: a
/// reference to mapping information held in (fast) storage, and a
/// parallel search of an associative memory. The paper's worry — "the
/// cost in extra addressing time caused by the provision of, say,
/// segmentation and artificial name contiguity, would often be
/// unacceptable" were it not for associative memories — is a statement
/// about the ratio of these two numbers to the core cycle time.
#[derive(Clone, Copy, Debug)]
pub struct MapCosts {
    /// One reference to a mapping table held in core (or a dedicated
    /// mapping store).
    pub table_ref: Cycles,
    /// One search of the associative memory, regardless of size (the
    /// match is parallel).
    pub assoc_search: Cycles,
    /// Register-only work (adding a relocation register, checking a
    /// limit): charged per translation that uses it.
    pub register_op: Cycles,
}

impl MapCosts {
    /// Costs scaled to a machine whose core cycle time is `cycle`:
    /// table references cost a full cycle, associative search a fifth of
    /// one, register operations a tenth.
    #[must_use]
    pub fn for_core_cycle(cycle: Cycles) -> MapCosts {
        MapCosts {
            table_ref: cycle,
            assoc_search: Cycles::from_nanos((cycle.as_nanos() / 5).max(1)),
            register_op: Cycles::from_nanos((cycle.as_nanos() / 10).max(1)),
        }
    }
}

impl Default for MapCosts {
    fn default() -> Self {
        MapCosts::for_core_cycle(Cycles::from_micros(1))
    }
}

/// Cumulative statistics for a mapping device.
#[derive(Clone, Copy, Debug, Default)]
pub struct MapStats {
    /// Translations attempted.
    pub translations: u64,
    /// Translations that trapped a fault.
    pub faults: u64,
    /// Total machine time spent in the addressing mechanism.
    pub cycles: Cycles,
    /// Associative-memory hits (zero for devices without one).
    pub assoc_hits: u64,
    /// Associative-memory misses.
    pub assoc_misses: u64,
    /// References made to mapping tables in storage.
    pub table_refs: u64,
}

impl MapStats {
    /// Mean addressing overhead per translation, in nanoseconds.
    #[must_use]
    pub fn mean_overhead_nanos(&self) -> f64 {
        if self.translations == 0 {
            0.0
        } else {
            self.cycles.as_nanos() as f64 / self.translations as f64
        }
    }

    /// Associative-memory hit ratio, or 0 when it was never consulted.
    #[must_use]
    pub(crate) fn assoc_hit_ratio(&self) -> f64 {
        let total = self.assoc_hits + self.assoc_misses;
        if total == 0 {
            0.0
        } else {
            self.assoc_hits as f64 / total as f64
        }
    }
}

impl fmt::Display for MapStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} translations, {} faults, {:.0}ns/ref overhead, assoc hit {:.1}%",
            self.translations,
            self.faults,
            self.mean_overhead_nanos(),
            self.assoc_hit_ratio() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_costs_preserve_ratios() {
        let c = MapCosts::for_core_cycle(Cycles::from_micros(2));
        assert_eq!(c.table_ref, Cycles::from_micros(2));
        assert_eq!(c.assoc_search, Cycles::from_nanos(400));
        assert_eq!(c.register_op, Cycles::from_nanos(200));
    }

    #[test]
    fn tiny_cycles_never_round_to_zero() {
        let c = MapCosts::for_core_cycle(Cycles::from_nanos(3));
        assert!(c.assoc_search.as_nanos() >= 1);
        assert!(c.register_op.as_nanos() >= 1);
    }

    #[test]
    fn stats_ratios() {
        let mut s = MapStats::default();
        assert_eq!(s.mean_overhead_nanos(), 0.0);
        assert_eq!(s.assoc_hit_ratio(), 0.0);
        s.translations = 4;
        s.cycles = Cycles::from_nanos(400);
        s.assoc_hits = 3;
        s.assoc_misses = 1;
        assert_eq!(s.mean_overhead_nanos(), 100.0);
        assert_eq!(s.assoc_hit_ratio(), 0.75);
    }

    #[test]
    fn display_is_compact() {
        let s = MapStats {
            translations: 10,
            faults: 1,
            cycles: Cycles::from_nanos(1000),
            assoc_hits: 5,
            assoc_misses: 5,
            table_refs: 7,
        };
        let txt = s.to_string();
        assert!(txt.contains("10 translations"), "{txt}");
        assert!(txt.contains("50.0%"), "{txt}");
    }
}
