//! First-in, first-out replacement.

use std::collections::VecDeque;

use dsa_core::clock::VirtualTime;
use dsa_core::ids::{FrameNo, PageNo};

use crate::replacement::{Eligible, Replacer};
use crate::sensors::Sensors;

/// Evicts the page that has been resident longest, regardless of use.
#[derive(Clone, Debug, Default)]
pub struct FifoRepl {
    queue: VecDeque<FrameNo>,
}

impl FifoRepl {
    /// Creates the policy.
    #[must_use]
    pub fn new() -> FifoRepl {
        FifoRepl::default()
    }
}

impl Replacer for FifoRepl {
    fn loaded(&mut self, frame: FrameNo, _page: PageNo, _now: VirtualTime) {
        self.queue.push_back(frame);
    }

    // Invariant: the trait contract guarantees `eligible` is never
    // empty, so the selection below always yields a frame.
    #[allow(clippy::expect_used)]
    fn victim(
        &mut self,
        eligible: Eligible<'_>,
        _sensors: &mut Sensors,
        _now: VirtualTime,
    ) -> FrameNo {
        // The oldest-loaded eligible frame.
        let mut oldest_first = self.queue.iter().copied();
        oldest_first
            .find(|&f| eligible.contains(f))
            .expect("some eligible frame must be in the load queue")
    }

    fn evicted(&mut self, frame: FrameNo) {
        if let Some(pos) = self.queue.iter().position(|&f| f == frame) {
            self.queue.remove(pos);
        }
    }

    fn name(&self) -> &'static str {
        "FIFO"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::testing::Frames;

    #[test]
    fn evicts_in_load_order() {
        let mut r = FifoRepl::new();
        let mut s = Sensors::new(3);
        r.loaded(FrameNo(0), PageNo(10), 0);
        r.loaded(FrameNo(1), PageNo(11), 1);
        r.loaded(FrameNo(2), PageNo(12), 2);
        // Touching must not matter.
        r.touched(FrameNo(0), PageNo(10), 3, false);
        assert_eq!(r.victim(Frames::all(3).view(), &mut s, 4), FrameNo(0));
        r.evicted(FrameNo(0));
        let frames = Frames::all(3).vacate(0);
        assert_eq!(r.victim(frames.view(), &mut s, 5), FrameNo(1));
    }

    #[test]
    fn respects_eligibility() {
        let mut r = FifoRepl::new();
        let mut s = Sensors::new(3);
        r.loaded(FrameNo(0), PageNo(10), 0);
        r.loaded(FrameNo(1), PageNo(11), 1);
        // Frame 0 pinned (not eligible): the next oldest is chosen.
        assert_eq!(
            r.victim(Frames::only(2, &[1]).view(), &mut s, 2),
            FrameNo(1)
        );
    }

    #[test]
    fn reload_moves_to_back() {
        let mut r = FifoRepl::new();
        let mut s = Sensors::new(2);
        r.loaded(FrameNo(0), PageNo(10), 0);
        r.loaded(FrameNo(1), PageNo(11), 1);
        r.evicted(FrameNo(0));
        r.loaded(FrameNo(0), PageNo(12), 2); // reused frame, new page
        assert_eq!(r.victim(Frames::all(2).view(), &mut s, 3), FrameNo(1));
    }
}
