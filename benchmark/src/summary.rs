//! Mean, median, min and max of a handful of samples.

/// A timing with its noise floor. With five samples there is nothing
/// beyond the median to call a tail percentile, so none is reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub mean: f64,
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// # Panics
    ///
    /// Panics on an empty or NaN-containing sample set: every metric the
    /// harness reports has at least one finite sample.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "no samples");
        let mut v = samples.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        Summary {
            mean: v.iter().sum::<f64>() / n as f64,
            median,
            min: v[0],
            max: v[n - 1],
            n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_even_and_single() {
        let s = Summary::of(&[3.0, 1.0, 2.0, 6.0, 8.0]);
        assert_eq!(
            (s.mean, s.median, s.min, s.max, s.n),
            (4.0, 3.0, 1.0, 8.0, 5)
        );
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(
            (s.mean, s.median, s.min, s.max, s.n),
            (2.5, 2.5, 1.0, 4.0, 4)
        );
        let s = Summary::of(&[7.5]);
        assert_eq!(
            (s.mean, s.median, s.min, s.max, s.n),
            (7.5, 7.5, 7.5, 7.5, 1)
        );
    }

    #[test]
    fn median_ignores_one_outlier_and_mean_does_not() {
        let s = Summary::of(&[2.0, 2.1, 50.0, 1.9, 2.05]);
        assert_eq!(s.median, 2.05);
        assert!(s.mean > 11.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_is_a_bug() {
        Summary::of(&[]);
    }
}
