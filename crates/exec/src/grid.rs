//! The simulation grid: the unit of fan-out.
//!
//! A [`SimGrid`] is an ordered list of cells, each one the coordinates
//! of an independent simulation run. The order *is* the contract: rows
//! of every experiment table are emitted in grid order, so a grid run
//! at any `--jobs` width produces identical output.

use crate::pool::par_map;

/// An ordered grid of independent simulation cells.
#[derive(Clone, Debug)]
pub struct SimGrid<T> {
    cells: Vec<T>,
}

impl<T> SimGrid<T> {
    /// Wraps an ordered cell list.
    #[must_use]
    pub fn new(cells: Vec<T>) -> SimGrid<T> {
        SimGrid { cells }
    }

    /// The cells, in grid order.
    #[must_use]
    pub fn cells(&self) -> &[T] {
        &self.cells
    }

    /// Runs `f` on every cell across `jobs` workers and returns results
    /// in grid order (see [`par_map`]).
    pub fn run<R, F>(&self, jobs: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        par_map(jobs, &self.cells, f)
    }
}

/// Cartesian product of two axes, first axis outermost — the order of
/// the classic nested sweep loop.
#[must_use]
pub fn product2<A: Clone, B: Clone>(a: &[A], b: &[B]) -> Vec<(A, B)> {
    let mut cells = Vec::with_capacity(a.len() * b.len());
    for x in a {
        for y in b {
            cells.push((x.clone(), y.clone()));
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn products_enumerate_in_nested_loop_order() {
        let p = product2(&[0, 1], &['a', 'b', 'c']);
        assert_eq!(
            p,
            vec![(0, 'a'), (0, 'b'), (0, 'c'), (1, 'a'), (1, 'b'), (1, 'c')]
        );
    }

    #[test]
    fn grid_run_matches_sequential_map() {
        let grid = SimGrid::new(product2(&[1u64, 2, 3], &[10u64, 20]));
        let seq: Vec<u64> = grid.cells().iter().map(|&(a, b)| a * b).collect();
        for jobs in [1, 2, 8] {
            assert_eq!(grid.run(jobs, |_, &(a, b)| a * b), seq, "jobs={jobs}");
        }
    }
}
