//! Fragmentation heatmaps: the shape of the heap, over time.
//!
//! Scalar fragmentation numbers (free fraction, largest hole) say *how
//! much* storage is wasted; a production incident usually turns on
//! *where* — checkerboarding at the low addresses, a pinned block
//! marooned mid-heap, free storage pooling at the top. A [`HeatFrame`]
//! is one compact answer: the address space cut into fixed-width
//! buckets, each scored by its occupied fraction, plus the scalars
//! (largest free hole, hole count, free words) for the trend lines.
//!
//! [`HeatmapSampler`] collects frames every K virtual-time units and
//! tabulates them one sparkline row per frame via
//! `dsa_metrics::sparkline()` — a terminal-friendly heatmap where time
//! runs down the page and address runs across it.

use dsa_core::ids::Words;
use dsa_metrics::sparkline::sparkline;
use dsa_metrics::Table;

/// One snapshot of the heap's shape at a point in virtual time.
#[derive(Clone, Debug)]
pub struct HeatFrame {
    /// Reference time of the snapshot.
    pub vtime: u64,
    /// Occupied fraction (`0.0` all free, `1.0` all allocated) per
    /// fixed-width address bucket, low addresses first.
    pub occupancy: Vec<f64>,
    /// Size of the largest free hole, in words.
    pub largest_free: Words,
    /// Number of free holes.
    pub hole_count: usize,
    /// Total free words.
    pub free_words: Words,
    /// Arena capacity, in words.
    pub capacity: Words,
}

impl HeatFrame {
    /// Captures a frame from an address-ordered `(address, size)` hole
    /// iterator over an arena of `capacity` words, cut into `buckets`
    /// equal-width address buckets. Holes spanning bucket boundaries
    /// are apportioned exactly.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero.
    #[must_use]
    pub fn capture(
        vtime: u64,
        capacity: Words,
        holes: impl Iterator<Item = (u64, Words)>,
        buckets: usize,
    ) -> HeatFrame {
        assert!(buckets > 0, "a heat frame needs at least one bucket");
        // Ceil division so bucket_width * buckets >= capacity.
        let bucket_width = capacity.div_ceil(buckets as u64).max(1);
        let mut free_per_bucket = vec![0u64; buckets];
        let mut largest_free = 0;
        let mut hole_count = 0;
        let mut free_words = 0;
        for (addr, size) in holes {
            largest_free = largest_free.max(size);
            hole_count += 1;
            free_words += size;
            // Walk the buckets the hole overlaps, crediting each with
            // its exact share.
            let mut a = addr;
            let end = addr + size;
            while a < end {
                let b = (a / bucket_width) as usize;
                if b >= buckets {
                    break;
                }
                let bucket_end = (b as u64 + 1) * bucket_width;
                let credit = end.min(bucket_end) - a;
                free_per_bucket[b] += credit;
                a = bucket_end;
            }
        }
        let occupancy = free_per_bucket
            .iter()
            .enumerate()
            .map(|(b, &free)| {
                let start = b as u64 * bucket_width;
                let span = capacity.saturating_sub(start).min(bucket_width);
                if span == 0 {
                    0.0
                } else {
                    1.0 - free as f64 / span as f64
                }
            })
            .collect();
        HeatFrame {
            vtime,
            occupancy,
            largest_free,
            hole_count,
            free_words,
            capacity,
        }
    }

    /// Fraction of capacity currently occupied.
    #[must_use]
    pub fn occupied_fraction(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            1.0 - self.free_words as f64 / self.capacity as f64
        }
    }

    /// The frame's occupancy as one sparkline (low addresses left).
    #[must_use]
    pub(crate) fn sparkline(&self) -> String {
        sparkline(&self.occupancy)
    }
}

/// Collects [`HeatFrame`]s every `every` virtual-time units and
/// tabulates them as a heatmap — one row per frame, time running down
/// the page.
///
/// The sampler is pull-based so it borrows nothing: callers ask
/// [`HeatmapSampler::due`] inside their drive loop and capture a frame
/// themselves when it answers yes.
///
/// # Examples
///
/// ```
/// use dsa_telemetry::{HeatFrame, HeatmapSampler};
///
/// let mut sampler = HeatmapSampler::new(100, 16);
/// for vt in 0..250u64 {
///     if sampler.due(vt) {
///         // Normally captured from a live allocator's holes().
///         sampler.push(HeatFrame::capture(vt, 1024, std::iter::empty(), 16));
///     }
/// }
/// assert_eq!(sampler.table().rows().len(), 3); // vt = 0, 100, 200
/// ```
#[derive(Clone, Debug)]
pub struct HeatmapSampler {
    every: u64,
    buckets: usize,
    next_due: u64,
    frames: Vec<HeatFrame>,
}

impl HeatmapSampler {
    /// A sampler that wants one frame every `every` virtual-time units,
    /// with `buckets` address buckets per frame.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero or `buckets` is zero.
    #[must_use]
    pub fn new(every: u64, buckets: usize) -> HeatmapSampler {
        assert!(every > 0, "sampling interval must be positive");
        assert!(buckets > 0, "a heat frame needs at least one bucket");
        HeatmapSampler {
            every,
            buckets,
            next_due: 0,
            frames: Vec::new(),
        }
    }

    /// Address buckets per frame — pass this to [`HeatFrame::capture`].
    #[must_use]
    pub fn buckets(&self) -> usize {
        self.buckets
    }

    /// Whether a frame is due at reference time `vtime`.
    #[must_use]
    pub fn due(&self, vtime: u64) -> bool {
        vtime >= self.next_due
    }

    /// Accepts a captured frame and schedules the next one `every`
    /// units after it.
    pub fn push(&mut self, frame: HeatFrame) {
        self.next_due = frame.vtime.saturating_add(self.every);
        self.frames.push(frame);
    }

    /// The collected frames as a heatmap table, one row per frame: its
    /// occupancy sparkline (low addresses left, █ fully occupied) and
    /// its scalars.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut t = Table::new(&["vt", "occupancy", "occupied", "holes", "largest free"]);
        for f in &self.frames {
            t.row_owned(vec![
                f.vtime.to_string(),
                f.sparkline(),
                format!("{:.1}%", f.occupied_fraction() * 100.0),
                f.hole_count.to_string(),
                f.largest_free.to_string(),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_freelist::{FreeListAllocator, Placement};

    #[test]
    fn empty_heap_is_fully_free() {
        let f = HeatFrame::capture(0, 1000, [(0u64, 1000u64)].into_iter(), 10);
        assert_eq!(f.hole_count, 1);
        assert_eq!(f.free_words, 1000);
        assert_eq!(f.largest_free, 1000);
        assert!(f.occupancy.iter().all(|&o| o.abs() < 1e-12), "{f:?}");
        assert!(f.occupied_fraction().abs() < 1e-12);
    }

    #[test]
    fn full_heap_is_fully_occupied() {
        let f = HeatFrame::capture(5, 1000, std::iter::empty(), 10);
        assert!(f.occupancy.iter().all(|&o| (o - 1.0).abs() < 1e-12));
        assert!((f.occupied_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn boundary_spanning_hole_is_apportioned_exactly() {
        // Capacity 100, 4 buckets of 25; one hole [20, 60) spans three.
        let f = HeatFrame::capture(0, 100, [(20u64, 40u64)].into_iter(), 4);
        assert!((f.occupancy[0] - 0.8).abs() < 1e-12, "{:?}", f.occupancy);
        assert!((f.occupancy[1] - 0.0).abs() < 1e-12);
        assert!((f.occupancy[2] - 0.6).abs() < 1e-12);
        assert!((f.occupancy[3] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn captures_from_a_live_freelist() {
        let mut alloc = FreeListAllocator::new(1024, Placement::FirstFit);
        alloc.alloc(1, 256).expect("fits");
        alloc.alloc(2, 256).expect("fits");
        alloc.free(1).expect("live");
        let f = HeatFrame::capture(7, 1024, alloc.holes(), 8);
        assert_eq!(f.capacity, 1024);
        assert_eq!(f.free_words, 768);
        assert_eq!(f.hole_count, 2);
        // First two buckets (the freed 256-word block) read free.
        assert!(f.occupancy[0].abs() < 1e-12, "{:?}", f.occupancy);
        assert!((f.occupancy[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampler_paces_by_virtual_time() {
        let mut s = HeatmapSampler::new(50, 4);
        let mut sampled = Vec::new();
        for vt in 0..175u64 {
            if s.due(vt) {
                s.push(HeatFrame::capture(vt, 64, std::iter::empty(), 4));
                sampled.push(vt);
            }
        }
        assert_eq!(sampled, vec![0, 50, 100, 150]);
        assert_eq!(s.table().rows().len(), 4);
    }

    #[test]
    fn table_has_one_row_per_frame() {
        let mut s = HeatmapSampler::new(10, 4);
        s.push(HeatFrame::capture(0, 64, std::iter::empty(), 4));
        s.push(HeatFrame::capture(10, 64, [(0u64, 64u64)].into_iter(), 4));
        let t = s.table();
        assert_eq!(t.rows().len(), 2, "{t}");
        assert_eq!(t.rows()[0][2], "100.0%", "{t}");
        assert_eq!(t.rows()[1][2], "0.0%", "{t}");
    }
}
