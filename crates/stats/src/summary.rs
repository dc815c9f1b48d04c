//! Five-number summaries of floating-point samples.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Summary statistics of a sample of `f64` observations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Median (nearest rank).
    pub median: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarizes a sample. Returns `None` for an empty sample.
    #[must_use]
    pub fn of(sample: &[f64]) -> Option<Summary> {
        if sample.is_empty() {
            return None;
        }
        let n = sample.len();
        let mean = sample.iter().sum::<f64>() / n as f64;
        let var = sample.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let mut sorted = sample.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
        Some(Summary {
            n,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            median: sorted[n / 2],
            max: sorted[n - 1],
        })
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} sd={:.3} min={:.3} med={:.3} max={:.3}",
            self.n, self.mean, self.std_dev, self.min, self.median, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.median, 3.0); // nearest-rank at index n/2
        assert!((s.std_dev - (1.25f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_sample_is_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn constant_sample_has_zero_spread() {
        let s = Summary::of(&[7.0; 10]).unwrap();
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, s.max);
    }
}
