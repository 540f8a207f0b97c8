//! The parameters of the simulated machine.

use dsa_core::clock::Cycles;
use dsa_core::ids::Words;

/// Simulator parameters.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Machine time per reference while executing.
    pub instr_time: Cycles,
    /// Time to fetch one page from backing storage (page transfers are
    /// assumed to proceed in parallel with execution and with each
    /// other — a drum with ample channel capacity; queueing at the
    /// device is out of scope, as in the paper's discussion).
    pub fetch_time: Cycles,
    /// Page size in words (used only to express occupancy in words).
    pub page_size: Words,
    /// References per scheduling quantum (round robin, as on the M44).
    pub quantum_refs: u32,
    /// Number of page-transfer channels; `None` models ample channel
    /// capacity (every fetch proceeds immediately), `Some(k)` makes
    /// fetches queue for one of `k` channels — the device contention the
    /// paper's "unless extra page transmission is introduced" hints at.
    pub fetch_channels: Option<usize>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            instr_time: Cycles::from_micros(10),
            fetch_time: Cycles::from_millis(8),
            page_size: 512,
            quantum_refs: 50,
            fetch_channels: None,
        }
    }
}
