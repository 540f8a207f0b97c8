//! The working-set policy (variable allocation).
//!
//! Unlike the fixed-allocation policies, the working-set discipline
//! varies how much storage a program holds: a page stays resident only
//! while it has been referenced within the last `tau` references. It is
//! the natural formalization of the paper's observation that "if the
//! program has started using information from a particular segment, it
//! is likely, in a short time, to need to use other information in that
//! segment" — recency defines the set worth keeping. The simulator
//! reports both the fault count and the *mean resident-set size*, since
//! the policy trades one against the other (the space-time product
//! again).

use dsa_core::clock::VirtualTime;
use dsa_core::ids::{IdMap, PageNo};

/// Results of a working-set simulation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WsReport {
    /// References processed.
    pub references: u64,
    /// Page faults taken (first touches included).
    pub faults: u64,
    /// Mean resident-set size, sampled after every reference.
    pub mean_resident: f64,
    /// Largest resident set observed.
    pub peak_resident: usize,
}

impl WsReport {
    /// Faults per reference.
    #[must_use]
    pub fn fault_rate(&self) -> f64 {
        if self.references == 0 {
            0.0
        } else {
            self.faults as f64 / self.references as f64
        }
    }
}

/// Simulates the working-set policy with window `tau` over a
/// page-granular reference string.
///
/// A page is resident at time `t` iff it was referenced in
/// `(t - tau, t]`; a reference to a non-resident page faults.
///
/// # Panics
///
/// Panics if `tau` is zero.
#[must_use]
pub fn working_set_sim(trace: &[PageNo], tau: VirtualTime) -> WsReport {
    assert!(tau > 0, "window must be positive");
    let mut last_use: IdMap<PageNo, VirtualTime> = IdMap::default();
    // The window is `trace[now - tau + 1..=now]` itself; `size` counts
    // its distinct pages, i.e. those whose last use lies inside it.
    let mut size = 0usize;
    let mut faults = 0u64;
    let mut resident_sum = 0u64;
    let mut peak = 0usize;
    for (i, &page) in trace.iter().enumerate() {
        let now = i as VirtualTime;
        // A page joins the set exactly when its reference faults: a
        // last use at most `tau` back was still inside the window the
        // previous reference left behind.
        if !matches!(last_use.insert(page, now), Some(t) if now - t <= tau) {
            faults += 1;
            size += 1;
        }
        // One reference leaves per step, and takes its page with it
        // iff nothing has touched the page since.
        if let Some(old) = now.checked_sub(tau) {
            if last_use.get(&trace[old as usize]) == Some(&old) {
                size -= 1;
            }
        }
        resident_sum += size as u64;
        peak = peak.max(size);
    }
    WsReport {
        references: trace.len() as u64,
        faults,
        mean_resident: if trace.is_empty() {
            0.0
        } else {
            resident_sum as f64 / trace.len() as f64
        },
        peak_resident: peak,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pages(xs: &[u64]) -> Vec<PageNo> {
        xs.iter().map(|&x| PageNo(x)).collect()
    }

    #[test]
    fn empty_trace() {
        let r = working_set_sim(&[], 4);
        assert_eq!(r.faults, 0);
        assert_eq!(r.references, 0);
        assert_eq!(r.fault_rate(), 0.0);
    }

    #[test]
    fn first_touches_fault() {
        let r = working_set_sim(&pages(&[1, 2, 3]), 10);
        assert_eq!(r.faults, 3);
        assert_eq!(r.peak_resident, 3);
    }

    #[test]
    fn rereference_within_window_hits() {
        let r = working_set_sim(&pages(&[1, 2, 1, 2, 1, 2]), 4);
        assert_eq!(r.faults, 2, "only the two first touches fault");
    }

    #[test]
    fn page_expires_after_window() {
        // tau=2: page 1 at t=0, untouched at t=1,2; at t=3 it has been
        // 3 > tau references since use -> fault.
        let r = working_set_sim(&pages(&[1, 2, 3, 1]), 2);
        assert_eq!(r.faults, 4);
    }

    #[test]
    fn window_bounds_resident_set() {
        // A cyclic sweep over 10 pages with tau=3 keeps at most 3
        // resident.
        let trace: Vec<PageNo> = (0..100u64).map(|i| PageNo(i % 10)).collect();
        let r = working_set_sim(&trace, 3);
        assert!(r.peak_resident <= 3, "peak {}", r.peak_resident);
        assert_eq!(r.faults, 100, "every reference misses under a short window");
    }

    #[test]
    fn larger_window_fewer_faults_more_space() {
        let trace: Vec<PageNo> = (0..300u64).map(|i| PageNo(i % 7)).collect();
        let small = working_set_sim(&trace, 3);
        let large = working_set_sim(&trace, 10);
        assert!(large.faults < small.faults);
        assert!(large.mean_resident > small.mean_resident);
        // tau=10 covers the whole 7-page loop: only cold faults remain.
        assert_eq!(large.faults, 7);
    }

    #[test]
    fn mean_resident_is_between_one_and_peak() {
        let trace = pages(&[1, 1, 1, 2, 2, 2]);
        let r = working_set_sim(&trace, 2);
        assert!(r.mean_resident >= 1.0);
        assert!(r.mean_resident <= r.peak_resident as f64);
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        let _ = working_set_sim(&[PageNo(1)], 0);
    }

    #[test]
    fn single_reference_trace() {
        let r = working_set_sim(&[PageNo(9)], 5);
        assert_eq!(r.faults, 1);
        assert_eq!(r.peak_resident, 1);
        assert_eq!(r.mean_resident, 1.0);
    }
}
