//! Use and modify sensors.
//!
//! Special hardware facility (iv): "sensors which record the fact of
//! usage or of modifications of the information constituting a page or a
//! segment. Such sensors can then be interrogated in order to guide the
//! actions of a replacement strategy." The 360/67 provides "automatic
//! recording of the fact of use or of modification of the contents of
//! each page frame" (A.7).
//!
//! [`Sensors`] keeps one use bit and one modify bit per frame. The use
//! bits are typically reset periodically (or on inspection, as the Clock
//! strategy does); the modify bit is cleared only when a frame's
//! contents are (re)loaded, since it records whether the copy in backing
//! storage is stale.

use dsa_core::ids::FrameNo;

/// Per-frame use/modify recording hardware.
#[derive(Clone, Debug)]
pub struct Sensors {
    used: Vec<bool>,
    modified: Vec<bool>,
}

impl Sensors {
    /// Creates sensors for `frames` page frames, all clear.
    #[must_use]
    pub(crate) fn new(frames: usize) -> Sensors {
        Sensors {
            used: vec![false; frames],
            modified: vec![false; frames],
        }
    }

    /// Records an access to `frame` (setting the modify bit too when
    /// `write`).
    ///
    /// # Panics
    ///
    /// Panics if `frame` is out of range.
    pub(crate) fn touch(&mut self, frame: FrameNo, write: bool) {
        self.used[frame.index()] = true;
        if write {
            self.modified[frame.index()] = true;
        }
    }

    /// The use bit of `frame`.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is out of range.
    #[must_use]
    pub fn used(&self, frame: FrameNo) -> bool {
        self.used[frame.index()]
    }

    /// The modify bit of `frame`.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is out of range.
    #[must_use]
    pub fn modified(&self, frame: FrameNo) -> bool {
        self.modified[frame.index()]
    }

    /// Clears the use bit of `frame` (the Clock strategy's second
    /// chance; periodic scans).
    ///
    /// # Panics
    ///
    /// Panics if `frame` is out of range.
    pub fn reset_use(&mut self, frame: FrameNo) {
        self.used[frame.index()] = false;
    }

    /// Clears all use bits (a periodic reference-bit sweep).
    pub fn reset_all_use(&mut self) {
        self.used.iter_mut().for_each(|b| *b = false);
    }

    /// Clears both bits of `frame` — called when new information is
    /// loaded into it.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is out of range.
    pub(crate) fn clear(&mut self, frame: FrameNo) {
        self.used[frame.index()] = false;
        self.modified[frame.index()] = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_start_clear() {
        let s = Sensors::new(4);
        for i in 0..4 {
            assert!(!s.used(FrameNo(i)));
            assert!(!s.modified(FrameNo(i)));
        }
    }

    #[test]
    fn touch_sets_bits() {
        let mut s = Sensors::new(2);
        s.touch(FrameNo(0), false);
        assert!(s.used(FrameNo(0)));
        assert!(!s.modified(FrameNo(0)));
        s.touch(FrameNo(0), true);
        assert!(s.modified(FrameNo(0)));
        assert!(!s.used(FrameNo(1)));
    }

    #[test]
    fn reset_use_keeps_modify() {
        let mut s = Sensors::new(1);
        s.touch(FrameNo(0), true);
        s.reset_use(FrameNo(0));
        assert!(!s.used(FrameNo(0)));
        assert!(s.modified(FrameNo(0)), "modify bit must survive use resets");
    }

    #[test]
    fn reset_all_use_sweeps() {
        let mut s = Sensors::new(3);
        for i in 0..3 {
            s.touch(FrameNo(i), false);
        }
        s.reset_all_use();
        for i in 0..3 {
            assert!(!s.used(FrameNo(i)));
        }
    }

    #[test]
    fn clear_on_load_resets_both() {
        let mut s = Sensors::new(1);
        s.touch(FrameNo(0), true);
        s.clear(FrameNo(0));
        assert!(!s.used(FrameNo(0)));
        assert!(!s.modified(FrameNo(0)));
    }
}
