//! Distribution summaries for per-phase timing measurements.
//!
//! The observability layer in `logicsim-sim` records the duration of
//! every engine phase (START fan-out, evaluation, message exchange,
//! DONE collection, barrier wait) into per-worker ring buffers. A
//! [`PhaseSummary`] condenses one phase's merged [`Histogram`] into the
//! handful of numbers the calibration bridge and `lsim trace`
//! consume: count, total, mean, and the p50/p95/p99 tail.
//!
//! Values are unit-agnostic `u64`s; the simulator records nanoseconds.

use crate::histogram::Histogram;
use serde::{Deserialize, Serialize};

/// Five-number condensation of one phase's duration distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseSummary {
    /// Number of samples observed.
    pub count: u64,
    /// Sum of all samples (same unit as the samples, e.g. ns).
    pub total: u64,
    /// Arithmetic mean of the samples.
    pub mean: f64,
    /// Median (nearest-rank p50).
    pub p50: u64,
    /// 95th percentile (nearest rank).
    pub p95: u64,
    /// 99th percentile (nearest rank).
    pub p99: u64,
    /// Largest sample.
    pub max: u64,
}

impl PhaseSummary {
    /// Summarizes a histogram of phase durations; `None` when empty.
    #[must_use]
    pub fn from_histogram(h: &Histogram) -> Option<PhaseSummary> {
        if h.is_empty() {
            return None;
        }
        let total: u64 = h.iter().map(|(v, c)| v * c).sum();
        Some(PhaseSummary {
            count: h.len(),
            total,
            mean: h.mean(),
            p50: h.quantile(0.5).expect("non-empty"),
            p95: h.quantile(0.95).expect("non-empty"),
            p99: h.quantile(0.99).expect("non-empty"),
            max: h.max().expect("non-empty"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_uniform_stream() {
        let h: Histogram = (1..=100u64).collect();
        let s = PhaseSummary::from_histogram(&h).expect("non-empty");
        assert_eq!(s.count, 100);
        assert_eq!(s.total, 5050);
        assert!((s.mean - 50.5).abs() < 1e-12);
        assert_eq!(s.p50, 50);
        assert_eq!(s.p95, 95);
        assert_eq!(s.p99, 99);
        assert_eq!(s.max, 100);
    }

    #[test]
    fn summary_of_empty_is_none() {
        assert_eq!(PhaseSummary::from_histogram(&Histogram::new()), None);
    }

    #[test]
    fn summary_survives_merge_order() {
        let mut a: Histogram = [5u64, 5, 80].into_iter().collect();
        let b: Histogram = [1u64, 80, 80].into_iter().collect();
        let mut c = b.clone();
        c.merge(&a);
        a.merge(&b);
        assert_eq!(
            PhaseSummary::from_histogram(&a),
            PhaseSummary::from_histogram(&c)
        );
    }
}
