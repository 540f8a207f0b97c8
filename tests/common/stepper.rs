//! The reference stepper: the multiprogrammed machine written the
//! obvious way — one reference at a time, a full paging engine and a
//! space-time meter per job, a heap of pending fetches. The oracle
//! `properties_sched.rs` holds `dsa::sched::EventSim` to; nothing ships it.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use dsa::core::clock::Cycles;
use dsa::core::ids::PageNo;
use dsa::metrics::spacetime::{Phase, SpaceTimeMeter, SpaceTimeReport};
use dsa::paging::paged::PagedMemory;
use dsa::paging::replacement::Replacer;
use dsa::sched::SimConfig;

/// One job of the mix: a trace, and frames of its own under `replacer`.
pub struct Job {
    pub trace: Vec<PageNo>,
    pub frames: usize,
    pub replacer: Box<dyn Replacer>,
}

#[derive(Default)]
pub struct JobOutcome {
    pub references: u64,
    pub faults: u64,
    pub finished_at: Cycles,
    pub space_time: SpaceTimeReport,
}

pub struct Outcome {
    pub jobs: Vec<JobOutcome>,
    pub cpu_busy: Cycles,
    pub makespan: Cycles,
}

struct JobState {
    trace: Vec<PageNo>,
    memory: PagedMemory,
    meter: SpaceTimeMeter,
    /// `references` doubles as the position in the trace.
    out: JobOutcome,
}

impl JobState {
    /// Declares the job in `phase` from `now`, at its current occupancy.
    fn enter(&mut self, phase: Phase, now: Cycles, cfg: &SimConfig) {
        let words = self.memory.resident_count() as u64 * cfg.page_size;
        self.meter.record(now, words, phase);
    }
}

/// Moves every job whose fetch completed by `clock` to the ready queue.
fn wake(
    blocked: &mut BinaryHeap<Reverse<(u64, usize)>>,
    ready: &mut VecDeque<usize>,
    jobs: &mut [JobState],
    clock: Cycles,
    cfg: &SimConfig,
) {
    while let Some(&Reverse((_, j))) = blocked.peek().filter(|w| w.0 .0 <= clock.as_nanos()) {
        blocked.pop();
        jobs[j].enter(Phase::ReadyIdle, clock, cfg);
        ready.push_back(j);
    }
}

/// Runs all jobs to completion: one processor, a round-robin ready
/// queue, and page fetches overlapped with other jobs' execution.
pub fn run(cfg: SimConfig, specs: Vec<Job>) -> Outcome {
    let mut jobs: Vec<JobState> = specs
        .into_iter()
        .map(|s| JobState {
            trace: s.trace,
            memory: PagedMemory::new(s.frames.max(1), s.replacer),
            meter: SpaceTimeMeter::new(),
            out: JobOutcome::default(),
        })
        .collect();
    let (mut clock, mut cpu_busy) = (Cycles::ZERO, Cycles::ZERO);
    let mut ready: VecDeque<usize> = (0..jobs.len())
        .filter(|&i| !jobs[i].trace.is_empty())
        .collect();
    // Jobs whose page fetch completes at the keyed instant.
    let mut blocked: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    // Next-free instants of the transfer channels (empty = ample).
    let mut channels: Vec<u64> = vec![0; cfg.fetch_channels.unwrap_or(0)];
    loop {
        let Some(i) = ready.pop_front() else {
            // Nothing is ready: advance to the next fetch completion.
            let Some(&Reverse((next, _))) = blocked.peek() else {
                break; // all jobs finished
            };
            clock = Cycles::from_nanos(next);
            wake(&mut blocked, &mut ready, &mut jobs, clock, &cfg);
            continue;
        };
        jobs[i].enter(Phase::Active, clock, &cfg);
        let mut faulted = false;
        for _ in 0..cfg.quantum_refs {
            let job = &mut jobs[i];
            let at = job.out.references;
            let Some(&page) = job.trace.get(at as usize) else {
                break;
            };
            let outcome = job.memory.touch(page, false, at).expect("no pinning");
            if outcome.is_fault() {
                job.out.faults += 1;
                // The faulting reference re-executes once the page
                // arrives; occupancy already includes the incoming
                // page's frame.
                job.enter(Phase::AwaitingFetch, clock, &cfg);
                // The fetch starts when the least-loaded channel frees.
                let start = match channels.iter_mut().min() {
                    Some(slot) => {
                        let start = (*slot).max(clock.as_nanos());
                        *slot = start + cfg.fetch_time.as_nanos();
                        Cycles::from_nanos(start)
                    }
                    None => clock,
                };
                blocked.push(Reverse(((start + cfg.fetch_time).as_nanos(), i)));
                faulted = true;
                break;
            }
            clock += cfg.instr_time;
            cpu_busy += cfg.instr_time;
            job.out.references += 1;
        }
        wake(&mut blocked, &mut ready, &mut jobs, clock, &cfg);
        let job = &mut jobs[i];
        if faulted {
            continue;
        }
        if job.out.references >= job.trace.len() as u64 {
            job.meter.finish(clock);
            job.out.finished_at = clock;
            job.out.space_time = job.meter.report();
        } else {
            job.enter(Phase::ReadyIdle, clock, &cfg);
            ready.push_back(i);
        }
    }

    Outcome {
        jobs: jobs.into_iter().map(|j| j.out).collect(),
        cpu_busy,
        makespan: clock,
    }
}
