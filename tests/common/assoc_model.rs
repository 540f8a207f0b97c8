//! The reference associative memory: entries in one `VecDeque` in
//! age order, oldest first, the way `AssocMemory` was written before
//! it kept its keys in a flat array with the order threaded through the
//! slots. A hit under LRU, a re-insert and an invalidation each remove
//! from the middle and shift what follows. The oracle
//! `properties_mapping.rs` holds the shipped structure to; nothing
//! ships it.

use dsa::mapping::associative::AssocPolicy;
use std::collections::VecDeque;

pub struct AssocModel {
    capacity: usize,
    policy: AssocPolicy,
    entries: VecDeque<(u64, u64)>,
}

impl AssocModel {
    pub fn new(capacity: usize, policy: AssocPolicy) -> AssocModel {
        AssocModel {
            capacity,
            policy,
            entries: VecDeque::new(),
        }
    }

    fn position(&self, key: u64) -> Option<usize> {
        self.entries.iter().position(|&(k, _)| k == key)
    }

    pub fn lookup(&mut self, key: u64) -> Option<u64> {
        let i = self.position(key)?;
        let entry = self.entries[i];
        if self.policy == AssocPolicy::Lru {
            self.entries.remove(i);
            self.entries.push_back(entry);
        }
        Some(entry.1)
    }

    pub fn insert(&mut self, key: u64, value: u64) {
        if self.capacity == 0 {
            return;
        }
        if let Some(i) = self.position(key) {
            self.entries.remove(i);
        } else if self.entries.len() >= self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back((key, value));
    }

    pub fn invalidate(&mut self, key: u64) {
        if let Some(i) = self.position(key) {
            self.entries.remove(i);
        }
    }

    /// The resident keys, sorted (the shipped structure promises no
    /// order).
    pub fn keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.entries.iter().map(|&(k, _)| k).collect();
        keys.sort_unstable();
        keys
    }
}
