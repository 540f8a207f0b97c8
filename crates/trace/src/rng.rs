//! A small deterministic PRNG.
//!
//! Experiments must be exactly reproducible from a printed seed, across
//! crate versions and platforms, so we carry our own generator rather
//! than depending on an external crate's stream stability. The generator
//! is xoshiro256++ (Blackman & Vigna), seeded through SplitMix64 — the
//! standard recipe — plus the handful of distributions the workload
//! models need.

/// Deterministic xoshiro256++ generator with distribution helpers.
///
/// # Examples
///
/// ```
/// use dsa_trace::rng::Rng64;
///
/// let mut a = Rng64::new(42);
/// let mut b = Rng64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Clone, Debug)]
pub struct Rng64 {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The top 53 bits of a raw draw as a uniform `f64` in `[0, 1)`.
fn unit_f64(raw: u64) -> f64 {
    (raw >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A Zipf sampler over ranks `[0, n)` with exponent `theta` (> 0): the
/// inverse CDF of `H(x) = ∫ t^-theta dt`, the continuous approximation
/// of the harmonic sum. Rank `k` owns the cell `[k + 0.5, k + 1.5)`, and
/// a draw `u` selects the cell where `H(x) − H(0.5)` crosses `u` times
/// the total. The cell tops are tabulated once, so a draw is one `f64`
/// and one binary search, and no `powf`; DESIGN.md ("Dense state on the
/// per-reference path") shows the rank is exactly the bisection's.
#[derive(Clone, Debug)]
pub struct Zipf {
    /// `tops[k]` = `H(k + 1.5) − H(0.5)`; the last is the total.
    tops: Vec<f64>,
}

impl Zipf {
    /// Tabulates the cell tops of ranks `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n > 0, "a Zipf law over no ranks");
        let e = 1.0 - theta;
        let log = (theta - 1.0).abs() < 1e-9;
        let h = |x: f64| if log { x.ln() } else { (x.powf(e) - 1.0) / e };
        let h0 = h(0.5);
        Zipf {
            tops: (1..=n).map(|k| h(k as f64 + 0.5) - h0).collect(),
        }
    }

    /// One Zipf-distributed rank in `[0, n)`, from exactly one draw.
    pub fn sample(&self, rng: &mut Rng64) -> u64 {
        self.rank(rng.f64())
    }

    /// The rank the uniform draw `u` selects: the first cell whose top
    /// reaches `u` times the total. The clamp keeps a target past the
    /// total in the last cell.
    fn rank(&self, u: f64) -> u64 {
        let last = self.tops.len() - 1;
        let target = u * self.tops[last];
        self.tops.partition_point(|&top| top < target).min(last) as u64
    }
}

impl Rng64 {
    /// Creates a generator from a seed. Any seed (including 0) is valid.
    #[must_use]
    pub fn new(seed: u64) -> Rng64 {
        let mut sm = seed;
        Rng64 {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, n)`. Uses Lemire's unbiased method.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Lemire's multiply-shift rejection method.
        loop {
            let x = self.next_u64();
            let m = u128::from(x) * u128::from(n);
            let low = m as u64;
            if low >= n.wrapping_neg() % n {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform value in `[lo, hi]` inclusive.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        lo + self.below(hi - lo + 1)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub(crate) fn f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponentially distributed value with the given mean (> 0),
    /// truncated to at least `1.0`.
    pub(crate) fn exponential(&mut self, mean: f64) -> f64 {
        let u = 1.0 - self.f64(); // in (0, 1]
        (-u.ln() * mean).max(1.0)
    }

    /// Fisher–Yates shuffle.
    pub(crate) fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub(crate) fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "pick from empty slice");
        &xs[self.below(xs.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Rng64::new(7);
        let mut b = Rng64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng64::new(8);
        assert_ne!(Rng64::new(7).next_u64(), c.next_u64());
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = Rng64::new(1);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = r.below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = Rng64::new(2);
        let n = 10u64;
        let trials = 100_000;
        let mut counts = vec![0u64; n as usize];
        for _ in 0..trials {
            counts[r.below(n) as usize] += 1;
        }
        let expect = trials as f64 / n as f64;
        for &c in &counts {
            assert!(
                (c as f64 - expect).abs() < expect * 0.1,
                "bucket count {c} deviates from {expect}"
            );
        }
    }

    #[test]
    fn range_inclusive() {
        let mut r = Rng64::new(3);
        for _ in 0..1000 {
            let v = r.range(5, 9);
            assert!((5..=9).contains(&v));
        }
        assert_eq!(r.range(4, 4), 4);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng64::new(4);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = Rng64::new(5);
        let mean = 50.0;
        let n = 50_000;
        let total: f64 = (0..n).map(|_| r.exponential(mean)).sum();
        let got = total / n as f64;
        assert!((got - mean).abs() < mean * 0.05, "mean {got}");
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let mut r = Rng64::new(7);
        let n = 100u64;
        let zipf = Zipf::new(n, 1.0);
        let mut counts = vec![0u64; n as usize];
        for _ in 0..100_000 {
            let v = zipf.sample(&mut r);
            assert!(v < n);
            counts[v as usize] += 1;
        }
        // Rank 0 must dominate rank 9 roughly 10:1 under theta=1.
        let ratio = counts[0] as f64 / counts[9].max(1) as f64;
        assert!(ratio > 5.0 && ratio < 20.0, "zipf ratio {ratio}");
    }

    /// The bisection as first written — all 64 halvings, `h(0.5)`
    /// recomputed inside the loop — retained as the oracle for the
    /// tabulated sampler.
    fn zipf_rank_64_steps(u: f64, n: u64, theta: f64) -> u64 {
        let h = |x: f64| -> f64 {
            if (theta - 1.0).abs() < 1e-9 {
                x.ln()
            } else {
                (x.powf(1.0 - theta) - 1.0) / (1.0 - theta)
            }
        };
        let total = h(n as f64 + 0.5) - h(0.5);
        let target = u * total;
        let (mut lo, mut hi) = (0.5f64, n as f64 + 0.5);
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if h(mid) - h(0.5) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (lo.round() as u64).clamp(1, n) - 1
    }

    proptest! {
        /// The first cell top reaching the target is the cell the
        /// bisection rounds into, at either end of the unit interval
        /// and on both sides of the `theta == 1` switch.
        #[test]
        fn zipf_table_equals_the_64_step_bisection(
            n in 1u64..4097,
            theta in prop_oneof![
                0.05f64..3.0,
                0.999f64..1.001,
                (0usize..5).prop_map(|i| [1.0, 1.0 - 1e-9, 1.0 + 1e-9, 1.0 - 2e-9, 1.0 + 2e-9][i]),
            ],
            raws in prop::collection::vec(any::<u64>(), 64..65),
        ) {
            // Raw draws at and next to both ends, and at every cell
            // boundary scale, besides the random ones; then the closed
            // top of the unit interval and one step past it, which only
            // the final clamp keeps in the last cell; then draws whose
            // target is exactly a cell top, where `<` and `<=` part.
            let zipf = Zipf::new(n, theta);
            let edges = [0, 1, 1 << 11, (1 << 11) - 1, u64::MAX, u64::MAX - (1 << 11), 1 << 63];
            let draws = edges.into_iter().chain(raws).map(unit_f64);
            let total = zipf.tops[zipf.tops.len() - 1];
            let ties = [0, zipf.tops.len() / 2].into_iter().filter_map(|k| {
                let u = zipf.tops[k] / total;
                [u, f64::from_bits(u.to_bits() - 1), f64::from_bits(u.to_bits() + 1)]
                    .into_iter()
                    .find(|&u| u * total == zipf.tops[k])
            });
            for u in draws.chain([1.0, 1.0 + f64::EPSILON]).chain(ties) {
                prop_assert_eq!(
                    zipf.rank(u),
                    zipf_rank_64_steps(u, n, theta),
                    "n={} theta={} u={:e}", n, theta, u
                );
            }
        }
    }

    #[test]
    fn zipf_draws_exactly_one_value() {
        let (mut a, mut b) = (Rng64::new(12), Rng64::new(12));
        let rank = Zipf::new(600, 0.9).sample(&mut a);
        assert_eq!(rank, zipf_rank_64_steps(b.f64(), 600, 0.9));
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng64::new(8);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng64::new(10);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }
}
