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

    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the grid has no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
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

/// Cartesian product of three axes, first axis outermost.
#[must_use]
pub fn product3<A: Clone, B: Clone, C: Clone>(a: &[A], b: &[B], c: &[C]) -> Vec<(A, B, C)> {
    let mut cells = Vec::with_capacity(a.len() * b.len() * c.len());
    for x in a {
        for y in b {
            for z in c {
                cells.push((x.clone(), y.clone(), z.clone()));
            }
        }
    }
    cells
}

/// Cartesian product of four axes (preset × policy × page size × seed),
/// first axis outermost.
#[must_use]
pub fn product4<A: Clone, B: Clone, C: Clone, D: Clone>(
    a: &[A],
    b: &[B],
    c: &[C],
    d: &[D],
) -> Vec<(A, B, C, D)> {
    let mut cells = Vec::with_capacity(a.len() * b.len() * c.len() * d.len());
    for x in a {
        for y in b {
            for z in c {
                for w in d {
                    cells.push((x.clone(), y.clone(), z.clone(), w.clone()));
                }
            }
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
        let q = product3(&[0, 1], &[10], &['x', 'y']);
        assert_eq!(
            q,
            vec![(0, 10, 'x'), (0, 10, 'y'), (1, 10, 'x'), (1, 10, 'y')]
        );
        let r = product4(&[1], &[2], &[3, 4], &[5]);
        assert_eq!(r, vec![(1, 2, 3, 5), (1, 2, 4, 5)]);
    }

    #[test]
    fn grid_run_matches_sequential_map() {
        let grid = SimGrid::new(product2(&[1u64, 2, 3], &[10u64, 20]));
        let seq: Vec<u64> = grid.cells().iter().map(|&(a, b)| a * b).collect();
        for jobs in [1, 2, 8] {
            assert_eq!(grid.run(jobs, |_, &(a, b)| a * b), seq, "jobs={jobs}");
        }
        assert_eq!(grid.len(), 6);
        assert!(!grid.is_empty());
    }
}
