//! A sector-aware paging drum.
//!
//! Every fetch-time number in the paper hides a rotating device: the
//! ATLAS drum's "average rotational latency" is an average over where
//! the head happens to be when the request arrives. This module models
//! the rotation explicitly — a drum whose surface is divided into
//! page-sized sectors passing under fixed heads — and the two classic
//! ways to serve a queue of page requests:
//!
//! * [`DrumDiscipline::Fifo`] — serve requests in arrival order; each
//!   pays its own rotational delay;
//! * [`DrumDiscipline::Sltf`] — *shortest latency time first*: always
//!   serve the queued request whose sector arrives under the heads
//!   soonest. With enough queued work the drum streams sector after
//!   sector and the effective latency collapses toward zero — the
//!   "extra page transmission" that makes heavy multiprogramming
//!   feasible.
//!
//! This is an extension beyond the paper's text (drum scheduling was
//! formalized shortly after, most famously by Denning), included
//! because experiments E2/E16 price fetches with a flat latency; E17
//! shows how much of that latency a smarter drum queue removes.

use dsa_core::clock::Cycles;
use dsa_core::ids::Words;

/// The service discipline for the request queue.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DrumDiscipline {
    /// First-in, first-out.
    Fifo,
    /// Shortest latency time first (serve the sector arriving soonest).
    Sltf,
}

/// A rotating drum with fixed heads and page-sized sectors.
#[derive(Clone, Debug)]
pub struct SectorDrum {
    sectors: u64,
    rev_time: Cycles,
    words_per_sector: Words,
}

impl SectorDrum {
    /// Creates a drum with `sectors` page sectors per revolution, a full
    /// revolution taking `rev_time`.
    ///
    /// # Panics
    ///
    /// Panics if `sectors` is zero or `rev_time` is zero.
    #[must_use]
    pub(crate) fn new(sectors: u64, rev_time: Cycles, words_per_sector: Words) -> SectorDrum {
        assert!(sectors > 0, "need at least one sector");
        assert!(rev_time.as_nanos() > 0, "the drum must rotate");
        SectorDrum {
            sectors,
            rev_time,
            words_per_sector,
        }
    }

    /// The ATLAS drum, approximately: 12 ms revolution, 16 sectors of
    /// 512 words.
    #[must_use]
    pub fn atlas() -> SectorDrum {
        SectorDrum::new(16, Cycles::from_millis(12), 512)
    }

    /// Time for one sector to pass under the heads.
    #[must_use]
    pub fn sector_time(&self) -> Cycles {
        Cycles::from_nanos(self.rev_time.as_nanos() / self.sectors)
    }

    /// Words in one sector.
    #[must_use]
    pub fn words_per_sector(&self) -> Words {
        self.words_per_sector
    }

    /// Number of sectors per revolution.
    #[must_use]
    pub fn sectors(&self) -> u64 {
        self.sectors
    }

    /// The sector under the heads at instant `now`.
    #[must_use]
    pub fn position(&self, now: Cycles) -> u64 {
        (now.as_nanos() / self.sector_time().as_nanos()) % self.sectors
    }

    /// The delay from `now` until `sector` begins passing under the
    /// heads (zero if it is just arriving).
    #[must_use]
    pub fn rotational_delay(&self, now: Cycles, sector: u64) -> Cycles {
        debug_assert!(sector < self.sectors);
        let st = self.sector_time().as_nanos();
        let now_ns = now.as_nanos();
        let sector_start = sector * st;
        let in_rev = now_ns % self.rev_time.as_nanos();
        let delay = if sector_start >= in_rev {
            sector_start - in_rev
        } else {
            self.rev_time.as_nanos() - in_rev + sector_start
        };
        Cycles::from_nanos(delay)
    }

    /// Serves a queue of sector requests, all present at `start`,
    /// returning each request's completion instant (in input order) and
    /// the makespan. A transfer occupies exactly its sector's passage
    /// time.
    #[must_use]
    pub fn service(
        &self,
        requests: &[u64],
        start: Cycles,
        discipline: DrumDiscipline,
    ) -> (Vec<Cycles>, Cycles) {
        let mut completion = vec![Cycles::ZERO; requests.len()];
        let mut pending: Vec<usize> = (0..requests.len()).collect();
        let mut now = start;
        while !pending.is_empty() {
            // Invariant: the loop condition guarantees `pending` holds at
            // least one request for min_by_key to select.
            #[allow(clippy::expect_used)]
            let pick = match discipline {
                DrumDiscipline::Fifo => 0,
                DrumDiscipline::Sltf => pending
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &req)| self.rotational_delay(now, requests[req]).as_nanos())
                    .map(|(i, _)| i)
                    .expect("pending is non-empty"),
            };
            let req = pending.remove(pick);
            let delay = self.rotational_delay(now, requests[req]);
            now = now + delay + self.sector_time();
            completion[req] = now;
        }
        (completion, now - start)
    }

    /// Mean wait per request for a queue served from `start`.
    #[must_use]
    pub fn mean_wait(&self, requests: &[u64], start: Cycles, discipline: DrumDiscipline) -> Cycles {
        if requests.is_empty() {
            return Cycles::ZERO;
        }
        let (completions, _) = self.service(requests, start, discipline);
        let total: u64 = completions
            .iter()
            .map(|c| c.as_nanos() - start.as_nanos())
            .sum();
        Cycles::from_nanos(total / requests.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drum() -> SectorDrum {
        // 8 sectors, 8 ms revolution: 1 ms per sector.
        SectorDrum::new(8, Cycles::from_millis(8), 512)
    }

    #[test]
    fn position_advances_with_time() {
        let d = drum();
        assert_eq!(d.position(Cycles::ZERO), 0);
        assert_eq!(d.position(Cycles::from_millis(1)), 1);
        assert_eq!(d.position(Cycles::from_millis(7)), 7);
        assert_eq!(
            d.position(Cycles::from_millis(8)),
            0,
            "wraps each revolution"
        );
    }

    #[test]
    fn rotational_delay_wraps_correctly() {
        let d = drum();
        // At t=0 the head is at sector 0: sector 3 arrives in 3 ms.
        assert_eq!(d.rotational_delay(Cycles::ZERO, 3), Cycles::from_millis(3));
        // At t=5ms, sector 3 has passed: wait 8 - 5 + 3 = 6 ms.
        assert_eq!(
            d.rotational_delay(Cycles::from_millis(5), 3),
            Cycles::from_millis(6)
        );
        // The current sector is just arriving: zero delay.
        assert_eq!(d.rotational_delay(Cycles::from_millis(2), 2), Cycles::ZERO);
    }

    #[test]
    fn single_request_same_under_both_disciplines() {
        let d = drum();
        let (f, mf) = d.service(&[5], Cycles::ZERO, DrumDiscipline::Fifo);
        let (s, ms) = d.service(&[5], Cycles::ZERO, DrumDiscipline::Sltf);
        assert_eq!(f, s);
        assert_eq!(mf, ms);
        // 5 ms delay + 1 ms transfer.
        assert_eq!(f[0], Cycles::from_millis(6));
    }

    #[test]
    fn sltf_streams_a_full_queue_in_one_revolution() {
        let d = drum();
        // One request per sector, adversarially ordered for FIFO.
        let reqs: Vec<u64> = vec![7, 6, 5, 4, 3, 2, 1, 0];
        let (_, fifo) = d.service(&reqs, Cycles::ZERO, DrumDiscipline::Fifo);
        let (_, sltf) = d.service(&reqs, Cycles::ZERO, DrumDiscipline::Sltf);
        // SLTF reads them in rotational order: exactly one revolution.
        assert_eq!(sltf, Cycles::from_millis(8));
        // FIFO pays almost a full revolution per request.
        assert!(
            fifo.as_nanos() >= 7 * sltf.as_nanos() / 2,
            "{fifo} vs {sltf}"
        );
    }

    #[test]
    fn sltf_never_loses_to_fifo_on_makespan() {
        let d = drum();
        // A deterministic pseudo-random batch.
        let reqs: Vec<u64> = (0..20).map(|i: u64| (i * 5 + 3) % 8).collect();
        let (_, fifo) = d.service(&reqs, Cycles::from_micros(123), DrumDiscipline::Fifo);
        let (_, sltf) = d.service(&reqs, Cycles::from_micros(123), DrumDiscipline::Sltf);
        assert!(sltf <= fifo);
    }

    #[test]
    fn every_request_completes_exactly_once() {
        let d = drum();
        let reqs = [1u64, 1, 3, 3, 3, 0];
        let (completions, makespan) = d.service(&reqs, Cycles::ZERO, DrumDiscipline::Sltf);
        assert_eq!(completions.len(), reqs.len());
        let max = completions.iter().map(|c| c.as_nanos()).max().unwrap();
        assert_eq!(makespan.as_nanos(), max);
        for c in &completions {
            assert!(c.as_nanos() > 0);
        }
    }

    #[test]
    fn atlas_preset_matches_published_scale() {
        let d = SectorDrum::atlas();
        assert_eq!(d.words_per_sector(), 512);
        // Mean rotational latency ~6 ms: half a revolution.
        assert_eq!(d.sector_time() * (d.sectors() / 2), Cycles::from_millis(6));
    }

    #[test]
    fn mean_wait_empty_queue_is_zero() {
        assert_eq!(
            drum().mean_wait(&[], Cycles::ZERO, DrumDiscipline::Fifo),
            Cycles::ZERO
        );
    }
}
