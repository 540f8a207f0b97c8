//! The work-stealing fan-out.
//!
//! A grid of independent cells is distributed to workers through one
//! [`AtomicUsize`] cursor: each worker claims the next unclaimed index,
//! computes that cell, and keeps its `(index, result)` pairs locally
//! until the scope joins. Claiming by index (rather than chunking up
//! front) is what makes the pool self-balancing — a worker stuck on an
//! expensive cell simply claims fewer cells — and keeping results
//! keyed by index is what makes it deterministic: the merged vector is
//! in grid order no matter which worker computed what, so downstream
//! formatting is bit-identical to the sequential run.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of hardware threads available to this process, with a floor
/// of one: the default width of a grid.
#[must_use]
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Applies `f` to every element of `items`, using up to `jobs` worker
/// threads, and returns the results in input order.
///
/// `f` receives `(index, &item)`; cells must be independent of each
/// other (they run concurrently and in no particular order). With
/// `jobs <= 1` (or fewer than two items) everything runs inline on the
/// calling thread — byte-for-byte the sequential program, with no
/// threads spawned.
///
/// # Panics
///
/// Propagates the first panic raised by `f` on any worker.
pub fn par_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if jobs <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let workers = jobs.min(items.len());
    let cursor = AtomicUsize::new(0);
    let mut buckets: Vec<Vec<(usize, R)>> = Vec::with_capacity(workers);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut claimed = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        claimed.push((i, f(i, item)));
                    }
                    claimed
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(claimed) => buckets.push(claimed),
                // Surface a worker's panic on the caller, like the
                // sequential path would.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    // Merge in grid order: every index was claimed exactly once.
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    for (i, r) in buckets.into_iter().flatten() {
        slots[i] = Some(r);
    }
    let merged: Vec<R> = slots.into_iter().flatten().collect();
    assert_eq!(merged.len(), items.len(), "every cell computed once");
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_are_in_input_order_at_any_width() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let got = par_map(jobs, &items, |_, &x| x * x);
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn index_matches_item_position() {
        let items: Vec<u64> = (100..200).collect();
        let got = par_map(4, &items, |i, &x| (i as u64, x));
        for (i, &(gi, gx)) in got.iter().enumerate() {
            assert_eq!(gi, i as u64);
            assert_eq!(gx, items[i]);
        }
    }

    #[test]
    fn every_cell_runs_exactly_once() {
        let ran = AtomicU64::new(0);
        let items: Vec<u32> = (0..1000).collect();
        let _ = par_map(8, &items, |_, _| ran.fetch_add(1, Ordering::Relaxed));
        assert_eq!(ran.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn empty_and_singleton_grids() {
        let none: Vec<u8> = vec![];
        assert!(par_map(8, &none, |_, &x| x).is_empty());
        assert_eq!(par_map(8, &[7u8], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn uneven_cell_costs_still_merge_in_order() {
        // Early cells are the slow ones: a chunked scheduler would give
        // them all to worker 0; the stealing cursor rebalances.
        let items: Vec<u64> = (0..32).collect();
        let got = par_map(4, &items, |_, &x| {
            if x < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x
        });
        assert_eq!(got, items);
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u64> = (0..64).collect();
        let r = std::panic::catch_unwind(|| {
            par_map(4, &items, |_, &x| {
                assert!(x != 40, "boom");
                x
            })
        });
        assert!(r.is_err());
    }

    #[test]
    fn available_jobs_is_positive() {
        assert!(available_jobs() >= 1);
    }
}
