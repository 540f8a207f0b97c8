//! Word-addressable simulated memory.
//!
//! A [`CoreMemory`] holds actual word contents so that experiments and
//! property tests can verify *data* behaviour, not just bookkeeping:
//! that a block map really does present scattered blocks as one
//! contiguous name range (E1), and that compaction moves information
//! without corrupting it (E7).

use dsa_core::error::{AccessFault, CoreError};
use dsa_core::ids::{PhysAddr, Words};

/// A flat, word-addressable memory with bounds checking.
#[derive(Clone, Debug)]
pub struct CoreMemory {
    words: Vec<u64>,
}

impl CoreMemory {
    /// Creates a zeroed memory of `capacity` words.
    #[must_use]
    pub fn new(capacity: Words) -> CoreMemory {
        CoreMemory {
            words: vec![0; capacity as usize],
        }
    }

    /// Capacity in words.
    #[must_use]
    pub(crate) fn capacity(&self) -> Words {
        self.words.len() as Words
    }

    /// Reads the word at `addr`.
    ///
    /// # Errors
    ///
    /// Returns an [`AccessFault::InvalidName`] (wrapped) if `addr` is
    /// beyond capacity.
    pub fn read(&self, addr: PhysAddr) -> Result<u64, CoreError> {
        self.words
            .get(addr.value() as usize)
            .copied()
            .ok_or_else(|| {
                AccessFault::InvalidName {
                    name: dsa_core::ids::Name(addr.value()),
                    extent: self.capacity(),
                }
                .into()
            })
    }

    /// Writes `value` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns an [`AccessFault::InvalidName`] (wrapped) if `addr` is
    /// beyond capacity.
    pub fn write(&mut self, addr: PhysAddr, value: u64) -> Result<(), CoreError> {
        let cap = self.capacity();
        match self.words.get_mut(addr.value() as usize) {
            Some(w) => {
                *w = value;
                Ok(())
            }
            None => Err(AccessFault::InvalidName {
                name: dsa_core::ids::Name(addr.value()),
                extent: cap,
            }
            .into()),
        }
    }

    /// Copies `len` words from `src` to `dst` (overlapping moves behave
    /// like `memmove`). This is the operation the paper's "storage
    /// packing" hardware channel performs autonomously.
    ///
    /// # Errors
    ///
    /// Returns a bounds fault if either range exceeds capacity.
    pub fn move_block(
        &mut self,
        src: PhysAddr,
        dst: PhysAddr,
        len: Words,
    ) -> Result<(), CoreError> {
        let cap = self.capacity();
        let (s, d, n) = (src.value(), dst.value(), len);
        if s + n > cap || d + n > cap {
            return Err(AccessFault::InvalidName {
                name: dsa_core::ids::Name(s.max(d) + n),
                extent: cap,
            }
            .into());
        }
        self.words
            .copy_within(s as usize..(s + n) as usize, d as usize);
        Ok(())
    }

    /// Returns the slice of `len` words starting at `addr`, for
    /// verification in tests.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds capacity (test helper).
    #[must_use]
    pub fn snapshot(&self, addr: PhysAddr, len: Words) -> Vec<u64> {
        self.words[addr.value() as usize..(addr.value() + len) as usize].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let mut m = CoreMemory::new(64);
        m.write(PhysAddr(10), 0xDEAD).unwrap();
        assert_eq!(m.read(PhysAddr(10)).unwrap(), 0xDEAD);
        assert_eq!(m.read(PhysAddr(11)).unwrap(), 0);
    }

    #[test]
    fn bounds_are_enforced() {
        let mut m = CoreMemory::new(8);
        assert!(m.read(PhysAddr(8)).is_err());
        assert!(m.write(PhysAddr(9), 1).is_err());
        assert!(m.move_block(PhysAddr(4), PhysAddr(6), 4).is_err());
        // Boundary-exact operations succeed.
        assert!(m.move_block(PhysAddr(4), PhysAddr(0), 4).is_ok());
    }

    #[test]
    fn move_block_copies_contents() {
        let mut m = CoreMemory::new(32);
        for i in 0..8u64 {
            m.write(PhysAddr(i), 100 + i).unwrap();
        }
        m.move_block(PhysAddr(0), PhysAddr(16), 8).unwrap();
        assert_eq!(m.snapshot(PhysAddr(16), 8), (100..108).collect::<Vec<_>>());
    }

    #[test]
    fn overlapping_move_is_memmove() {
        let mut m = CoreMemory::new(16);
        for i in 0..8u64 {
            m.write(PhysAddr(i), i).unwrap();
        }
        // Slide down by 2 with overlap (the compaction direction).
        m.move_block(PhysAddr(2), PhysAddr(0), 6).unwrap();
        assert_eq!(m.snapshot(PhysAddr(0), 6), vec![2, 3, 4, 5, 6, 7]);
        // Slide up by 2 with overlap.
        let mut m2 = CoreMemory::new(16);
        for i in 0..8u64 {
            m2.write(PhysAddr(i), i).unwrap();
        }
        m2.move_block(PhysAddr(0), PhysAddr(2), 6).unwrap();
        assert_eq!(m2.snapshot(PhysAddr(2), 6), vec![0, 1, 2, 3, 4, 5]);
    }
}
