//! One-line sparkline rendering for experiment curves.
//!
//! A heatmap row (E18's fragmentation frames) is a curve over the
//! address space; a sparkline lets its shape be read at a glance in a
//! plain terminal table cell.

/// Renders `values` as a one-line bar sparkline using eighth-block
/// characters, scaled to the data range.
///
/// Empty input renders to an empty string; a constant series renders at
/// mid height.
///
/// # Examples
///
/// ```
/// use dsa_metrics::sparkline::sparkline;
///
/// let s = sparkline(&[1.0, 2.0, 4.0, 8.0, 4.0, 2.0, 1.0]);
/// assert_eq!(s.chars().count(), 7);
/// ```
#[must_use]
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let span = hi - lo;
    values
        .iter()
        .map(|&v| {
            let idx = if span <= f64::EPSILON {
                3
            } else {
                (((v - lo) / span) * 7.0).round() as usize
            };
            BARS[idx.min(7)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_matches_input() {
        assert_eq!(sparkline(&[]).chars().count(), 0);
        assert_eq!(sparkline(&[1.0]).chars().count(), 1);
        assert_eq!(sparkline(&[0.0, 1.0, 2.0]).chars().count(), 3);
    }

    #[test]
    fn extremes_hit_the_end_bars() {
        let s: Vec<char> = sparkline(&[0.0, 10.0]).chars().collect();
        assert_eq!(s[0], '▁');
        assert_eq!(s[1], '█');
    }

    #[test]
    fn constant_series_is_flat_mid() {
        let s: Vec<char> = sparkline(&[5.0, 5.0, 5.0]).chars().collect();
        assert!(s.iter().all(|&c| c == s[0]));
        assert_eq!(s[0], '▄');
    }

    #[test]
    fn u_shape_reads_as_u() {
        let s: Vec<char> = sparkline(&[9.0, 4.0, 1.0, 4.0, 9.0]).chars().collect();
        assert_eq!(s[0], '█');
        assert_eq!(s[2], '▁');
        assert_eq!(s[4], '█');
        assert!(s[1] < s[0] && s[1] > s[2]);
    }

    #[test]
    fn monotone_series_is_monotone() {
        let s: Vec<char> = sparkline(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
            .chars()
            .collect();
        for w in s.windows(2) {
            assert!(w[0] <= w[1], "{s:?}");
        }
    }
}
