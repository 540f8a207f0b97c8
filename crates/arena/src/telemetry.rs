//! Always-on service telemetry: distributions per shard and per size
//! class.
//!
//! The service-wide [`TelemetryProbe`] already answers "what does the
//! traffic look like overall"; production triage needs one level finer
//! on both of the service's natural axes:
//!
//! * **per shard** — a stripe whose search lengths are growing is
//!   fragmenting (or absorbing everyone's steals) while its neighbours
//!   stay healthy;
//! * **per size class** — first-fit may place small requests instantly
//!   while large ones crawl the whole list; a single global histogram
//!   averages that signal away.
//!
//! Everything here is an [`AtomicHistogram`] bumped with relaxed
//! fetch-adds on the allocation path — always on, no locks, exact merge
//! into `dsa-metrics` histograms at read time.

use dsa_core::ids::Words;
use dsa_metrics::histogram::geometry;
use dsa_metrics::Histogram;
use dsa_telemetry::{AtomicHistogram, TelemetryProbe, TelemetrySnapshot};

/// Power-of-two request-size classes tracked separately: class *c*
/// covers sizes `[2^c, 2^(c+1))`, with the last class absorbing
/// everything larger.
pub(crate) const SIZE_CLASSES: usize = 16;

/// The size class of a request (`floor(log2(words))`, clamped).
#[must_use]
pub(crate) fn size_class(words: Words) -> usize {
    if words < 2 {
        0
    } else {
        (63 - words.leading_zeros() as usize).min(SIZE_CLASSES - 1)
    }
}

/// The always-on telemetry of one [`ArenaService`]: the global
/// [`TelemetryProbe`] plus per-shard and per-size-class distributions.
///
/// [`ArenaService`]: crate::ArenaService
#[derive(Debug)]
pub struct ServiceTelemetry {
    probe: TelemetryProbe,
    shard_alloc_words: Vec<AtomicHistogram>,
    shard_search: Vec<AtomicHistogram>,
    class_search: Vec<AtomicHistogram>,
}

impl ServiceTelemetry {
    /// Telemetry for a service of `shards` stripes.
    #[must_use]
    pub(crate) fn new(shards: u32) -> ServiceTelemetry {
        ServiceTelemetry {
            probe: TelemetryProbe::new(),
            shard_alloc_words: (0..shards)
                .map(|_| AtomicHistogram::new(geometry::ALLOC_WORDS))
                .collect(),
            shard_search: (0..shards)
                .map(|_| AtomicHistogram::new(geometry::SEARCH_LEN))
                .collect(),
            class_search: (0..SIZE_CLASSES)
                .map(|_| AtomicHistogram::new(geometry::SEARCH_LEN))
                .collect(),
        }
    }

    /// The service-wide always-on sink (counters + global
    /// distributions); the service passes this as the probe on every
    /// arena operation.
    #[must_use]
    pub(crate) fn probe(&self) -> &TelemetryProbe {
        &self.probe
    }

    /// Number of shards tracked.
    #[must_use]
    pub(crate) fn shard_count(&self) -> usize {
        self.shard_alloc_words.len()
    }

    /// Records one successful allocation into the per-shard and
    /// per-class distributions (the global ones were fed by the probe
    /// on the emission path).
    pub(crate) fn record_alloc(&self, shard: u32, words: Words, searched: u64) {
        if let Some(h) = self.shard_alloc_words.get(shard as usize) {
            h.record(words);
        }
        if let Some(h) = self.shard_search.get(shard as usize) {
            h.record(searched);
        }
        self.class_search[size_class(words)].record(searched);
    }

    /// Frozen allocation-size distribution of one shard.
    #[must_use]
    pub fn shard_alloc_words(&self, shard: u32) -> Histogram {
        self.shard_alloc_words[shard as usize].snapshot()
    }

    /// Frozen hole-search-length distribution of one shard.
    #[must_use]
    pub fn shard_search(&self, shard: u32) -> Histogram {
        self.shard_search[shard as usize].snapshot()
    }

    /// Frozen hole-search-length distribution of one size class.
    #[must_use]
    pub(crate) fn class_search(&self, class: usize) -> Histogram {
        self.class_search[class].snapshot()
    }

    /// Registers the whole telemetry surface into an exporter snapshot:
    /// the probe's counters and global distributions, plus the
    /// per-shard and (non-empty) per-class distributions, labelled.
    pub fn export_into(&self, snap: &mut TelemetrySnapshot) {
        snap.counting_probe(&self.probe.counters(), &[]);
        snap.histogram(
            "alloc_words",
            "Allocation-request size in words",
            &[],
            &self.probe.alloc_words(),
        );
        snap.histogram(
            "search_len",
            "Free-list entries examined per allocation",
            &[],
            &self.probe.search_len(),
        );
        for s in 0..self.shard_count() {
            let shard = s.to_string();
            snap.histogram(
                "shard_alloc_words",
                "Allocation-request size in words, by shard",
                &[("shard", &shard)],
                &self.shard_alloc_words(s as u32),
            );
            snap.histogram(
                "shard_search_len",
                "Free-list entries examined per allocation, by shard",
                &[("shard", &shard)],
                &self.shard_search(s as u32),
            );
        }
        for c in 0..SIZE_CLASSES {
            let h = self.class_search(c);
            if h.count() == 0 {
                continue;
            }
            let class = (1u64 << c).to_string();
            snap.histogram(
                "class_search_len",
                "Free-list entries examined per allocation, by size class lower bound",
                &[("class_low", &class)],
                &h,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_classes_cover_the_range() {
        assert_eq!(size_class(0), 0);
        assert_eq!(size_class(1), 0);
        assert_eq!(size_class(2), 1);
        assert_eq!(size_class(3), 1);
        assert_eq!(size_class(1024), 10);
        assert_eq!(size_class(u64::MAX), SIZE_CLASSES - 1);
    }

    #[test]
    fn per_shard_and_per_class_record_independently() {
        let t = ServiceTelemetry::new(4);
        t.record_alloc(0, 8, 2);
        t.record_alloc(0, 8, 4);
        t.record_alloc(3, 1000, 30);
        assert_eq!(t.shard_alloc_words(0).count(), 2);
        assert_eq!(t.shard_search(0).sum(), 6);
        assert_eq!(t.shard_alloc_words(1).count(), 0);
        assert_eq!(t.shard_alloc_words(3).count(), 1);
        assert_eq!(t.class_search(size_class(8)).count(), 2);
        assert_eq!(t.class_search(size_class(1000)).count(), 1);
    }

    #[test]
    fn out_of_range_shard_is_ignored() {
        let t = ServiceTelemetry::new(1);
        // A defensive no-op rather than a panic on the hot path.
        t.record_alloc(7, 16, 1);
        assert_eq!(t.shard_alloc_words(0).count(), 0);
        assert_eq!(t.class_search(size_class(16)).count(), 1);
    }

    #[test]
    fn export_registers_labelled_series() {
        let t = ServiceTelemetry::new(2);
        t.record_alloc(1, 64, 5);
        let mut snap = TelemetrySnapshot::new("dsa");
        t.export_into(&mut snap);
        let text = snap.render_prometheus();
        assert!(
            text.contains("dsa_shard_search_len_count{shard=\"1\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("dsa_class_search_len_count{class_low=\"64\"} 1"),
            "{text}"
        );
        // Empty classes are not exported.
        assert!(!text.contains("class_low=\"2\""), "{text}");
    }
}
