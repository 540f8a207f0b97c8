//! The storage-packing channel.
//!
//! Special hardware facility (iii) of the paper: "the need to speed up
//! the process of storage packing to reduce fragmentation is sometimes
//! catered for by fast autonomous storage to storage channel
//! operations." A [`PackingChannel`] models such a channel: block moves
//! cost a fixed setup plus a per-word time, and an autonomous channel
//! can overlap with processor execution, so only the setup steals CPU
//! time. The alternative — a programmed word-by-word copy loop — charges
//! the full move to the CPU. Experiment E7 uses both to price
//! compaction.

use dsa_core::clock::Cycles;
use dsa_core::ids::Words;

/// How block moves are performed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum MoveEngine {
    /// A programmed copy loop: every word costs CPU time.
    ProgrammedLoop {
        /// CPU time per word moved (load + store + loop control).
        per_word: Cycles,
    },
    /// An autonomous storage-to-storage channel: the CPU pays only the
    /// setup; the channel moves words in parallel with execution.
    AutonomousChannel {
        /// CPU time to set up one channel operation.
        setup: Cycles,
        /// Channel time per word (occupies the channel, not the CPU).
        per_word: Cycles,
    },
}

/// A block-move engine.
#[derive(Clone, Debug)]
pub struct PackingChannel {
    engine: MoveEngine,
}

impl PackingChannel {
    /// Creates a channel with the given engine.
    #[must_use]
    pub(crate) fn new(engine: MoveEngine) -> PackingChannel {
        PackingChannel { engine }
    }

    /// A programmed-loop engine with a typical 3-cycle-per-word loop on
    /// a `cycle`-time core.
    #[must_use]
    pub fn programmed(cycle: Cycles) -> PackingChannel {
        PackingChannel::new(MoveEngine::ProgrammedLoop {
            per_word: cycle * 3,
        })
    }

    /// An autonomous channel on a `cycle`-time core: one-word-per-cycle
    /// streaming after a 20-cycle setup.
    #[must_use]
    pub fn autonomous(cycle: Cycles) -> PackingChannel {
        PackingChannel::new(MoveEngine::AutonomousChannel {
            setup: cycle * 20,
            per_word: cycle,
        })
    }

    /// The `(cpu, channel)` time a move of `len` words takes.
    pub fn charge_move(&mut self, len: Words) -> (Cycles, Cycles) {
        match self.engine {
            MoveEngine::ProgrammedLoop { per_word } => (per_word * len, Cycles::ZERO),
            MoveEngine::AutonomousChannel { setup, per_word } => (setup, per_word * len),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn programmed_loop_charges_cpu_per_word() {
        let mut ch = PackingChannel::programmed(Cycles::from_micros(2));
        let (cpu, chan) = ch.charge_move(100);
        assert_eq!(cpu, Cycles::from_micros(600));
        assert_eq!(chan, Cycles::ZERO);
    }

    #[test]
    fn autonomous_channel_offloads_cpu() {
        let mut ch = PackingChannel::autonomous(Cycles::from_micros(2));
        let (cpu, chan) = ch.charge_move(100);
        assert_eq!(cpu, Cycles::from_micros(40)); // setup only
        assert_eq!(chan, Cycles::from_micros(200));
    }

    #[test]
    fn autonomous_beats_programmed_for_large_moves_only() {
        let cycle = Cycles::from_micros(2);
        let mut prog = PackingChannel::programmed(cycle);
        let mut auto = PackingChannel::autonomous(cycle);
        // Tiny move: setup dominates.
        assert!(prog.charge_move(5).0 < auto.charge_move(5).0);
        // Large move: channel wins on CPU time by a wide margin.
        assert!(prog.charge_move(1000).0 > auto.charge_move(1000).0 * 10);
    }
}
