//! Shared workload builders for the experiments: the survey program,
//! and the churn streams and the driver that push requests through the
//! concurrent service (E18, E19).

use std::ops::Range;

use dsa_arena::ArenaService;
use dsa_faults::WorkerInjector;
use dsa_probe::NullProbe;
use dsa_trace::allocstream::SizeDist;
use dsa_trace::program::ProgramCfg;
use dsa_trace::rng::Rng64;

/// The standard survey program used by experiment E9: large enough to
/// pressure every machine's working storage.
#[must_use]
pub fn survey_program_cfg() -> ProgramCfg {
    ProgramCfg {
        segments: 48,
        seg_sizes: SizeDist::Exponential {
            mean: 700.0,
            cap: 4000,
        },
        touches: 30_000,
        phase_set: 6,
        phase_len: 500,
        write_fraction: 0.3,
        resize_prob: 0.05,
        advice_accuracy: None,
        wild_touch_prob: 0.0,
        ..ProgramCfg::default()
    }
}

/// Bits of a churn stream's ids below its worker's namespace.
pub(crate) const LOCAL_BITS: u32 = 40;

/// One request of a churn stream.
#[derive(Clone, Copy)]
pub(crate) enum Op {
    Alloc { id: u64, words: u64 },
    Free { id: u64 },
}

/// The shape of a deterministic churn stream: grow a bounded live set,
/// free random members, drain at the end. Pre-generated, so a worker's
/// requests (and any injector rolls) never depend on what other workers
/// did.
pub(crate) struct Churn {
    /// Worker `w`'s stream is seeded with `seed + w`.
    pub(crate) seed: u64,
    /// Requests before the drain.
    pub(crate) ops: usize,
    /// Below `live.start` blocks a stream always grows; below
    /// `live.end` it grows 55% of the time; at `live.end` it frees.
    pub(crate) live: Range<usize>,
    /// A block is `8 + (0..words)` words.
    pub(crate) words: u64,
}

impl Churn {
    /// Worker `worker`'s stream. Ids are namespaced by worker (the
    /// worker in the bits from [`LOCAL_BITS`] up) so streams never
    /// collide, and count up from 0 inside it.
    pub(crate) fn stream(&self, worker: u64) -> Vec<Op> {
        let mut rng = Rng64::new(self.seed + worker);
        let mut live: Vec<u64> = Vec::new();
        let mut next = 0u64;
        let mut out = Vec::with_capacity(self.ops + self.live.end);
        for _ in 0..self.ops {
            let grow = live.len() < self.live.start
                || (live.len() < self.live.end && rng.next_u64() % 100 < 55);
            if grow {
                let id = (worker << LOCAL_BITS) | next;
                next += 1;
                out.push(Op::Alloc {
                    id,
                    words: 8 + rng.next_u64() % self.words,
                });
                live.push(id);
            } else {
                let i = (rng.next_u64() as usize) % live.len();
                out.push(Op::Free {
                    id: live.swap_remove(i),
                });
            }
        }
        // Drain everything the stream ever allocated — frees of ids whose
        // alloc failed (or that a ladder shed) answer UnknownUnit,
        // harmlessly.
        out.extend(live.into_iter().map(|id| Op::Free { id }));
        out
    }

    /// The streams of workers `0..workers`.
    pub(crate) fn streams(&self, workers: u64) -> Vec<Vec<Op>> {
        (0..workers).map(|w| self.stream(w)).collect()
    }
}

/// Answer tallies of a run of requests, for reconciliation against a
/// shared sink's books.
#[derive(Default)]
pub(crate) struct Tally {
    pub(crate) allocs: u64,
    pub(crate) alloc_words: u64,
    pub(crate) frees: u64,
    pub(crate) failed: u64,
}

impl Tally {
    pub(crate) fn record(&mut self, op: Op, ok: bool) {
        match (op, ok) {
            (Op::Alloc { words, .. }, true) => {
                self.allocs += 1;
                self.alloc_words += words;
            }
            (Op::Free { .. }, true) => self.frees += 1,
            (_, false) => self.failed += 1,
        }
    }

    pub(crate) fn add(mut self, other: Tally) -> Tally {
        self.allocs += other.allocs;
        self.alloc_words += other.alloc_words;
        self.frees += other.frees;
        self.failed += other.failed;
        self
    }
}

/// Pushes `ops` through the service as `tenant`, rolling `chaos`'s
/// hazards on every request when given, and tallies the answers.
pub(crate) fn churn(
    svc: &ArenaService,
    tenant: u32,
    ops: impl IntoIterator<Item = Op>,
    mut chaos: Option<&mut WorkerInjector<'_>>,
) -> Tally {
    let mut tally = Tally::default();
    for op in ops {
        let ok = match op {
            Op::Alloc { id, words } => svc
                .alloc_probed(id, words, tenant, chaos.as_deref_mut(), &mut NullProbe)
                .is_ok(),
            Op::Free { id } => svc
                .free_probed(id, chaos.as_deref_mut(), &mut NullProbe)
                .is_ok(),
        };
        tally.record(op, ok);
    }
    tally
}

/// Runs `work` on every stream, each on its own scoped thread with the
/// stream's index, and returns what each returned, in stream order.
pub(crate) fn drive<T: Send>(
    streams: &[Vec<Op>],
    work: impl Fn(usize, &[Op]) -> T + Sync,
) -> Vec<T> {
    std::thread::scope(|scope| {
        let work = &work;
        let workers: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(i, stream)| scope.spawn(move || work(i, stream)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_trace::rng::Rng64;

    #[test]
    fn survey_program_is_reproducible_and_sized() {
        let cfg = survey_program_cfg();
        let a = cfg.generate(&mut Rng64::new(9));
        let b = cfg.generate(&mut Rng64::new(9));
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.touch_count(), cfg.touches);
        // Large enough to pressure the smallest appendix core (16K).
        assert!(a.total_declared_words() > 16_384);
    }
}
