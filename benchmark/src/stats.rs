//! Order statistics for timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a spread computed here matches the one a
//! reader recomputes from the per-run values with the standard library.

/// Median, first and third quartile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Quartiles {
    /// Quartiles of `values` (any order). A single value is its own
    /// median and quartiles; panics on an empty sample.
    pub fn of(values: &[f64]) -> Quartiles {
        assert!(!values.is_empty(), "quartiles of an empty sample");
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
        let n = v.len();
        if n == 1 {
            return Quartiles {
                n,
                q1: v[0],
                median: v[0],
                q3: v[0],
            };
        }
        let cut = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Quartiles {
            n,
            q1: cut(1),
            median: cut(2),
            q3: cut(3),
        }
    }

    /// Interquartile distance as a share of the median — the run-to-run
    /// spread a regression bound is judged against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The median alone.
pub fn median(values: &[f64]) -> f64 {
    Quartiles::of(values).median
}

/// Nearest-rank percentile `q` in `[0, 1]` of a sample (any order).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let rank = (q.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&v);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = Quartiles::of(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((Quartiles::of(&v).spread() - 1.0).abs() < 1e-12);
        assert_eq!(Quartiles::of(&[4.0]).spread(), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }
}
