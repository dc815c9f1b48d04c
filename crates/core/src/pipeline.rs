//! The pipelined-evaluator timing model (paper Eq. 7-9).

/// Time for an `L`-stage pipeline with single-operation latency `t_e`
/// to complete `n` operations (Eq. 7):
///
/// ```text
/// t_n = (t_e / L) * (n + L - 1)
/// ```
///
/// The n-th operation waits for the `n-1` ahead of it to clear the first
/// stage, then traverses all `L` stages. With `L = 1` this reduces to
/// `n * t_e` (no pipelining). `n` may be fractional: the model divides
/// `E` evaluations evenly over busy ticks and processors.
///
/// # Panics
///
/// Panics if `stages == 0` or `n` or `t_e` is negative/non-finite.
#[must_use]
pub fn pipeline_time(t_e: f64, stages: u32, n: f64) -> f64 {
    assert!(stages >= 1, "a pipeline has at least one stage");
    assert!(t_e.is_finite() && t_e >= 0.0, "t_e must be >= 0, got {t_e}");
    assert!(n.is_finite() && n >= 0.0, "n must be >= 0, got {n}");
    let l = f64::from(stages);
    (t_e / l) * (n + l - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unpipelined_reduces_to_serial() {
        // Eq. 8 note: L = 1 reduces Eq. 7 to n * t_e (Eq. 2).
        assert!((pipeline_time(10.0, 1, 7.0) - 70.0).abs() < 1e-12);
    }

    #[test]
    fn single_operation_pays_full_latency() {
        // n = 1: (t_e/L)(1 + L - 1) = t_e regardless of depth.
        for l in [1, 2, 5, 8] {
            assert!((pipeline_time(10.0, l, 1.0) - 10.0).abs() < 1e-12);
        }
    }

    #[test]
    fn deep_pipeline_approaches_rate_limit() {
        // Large n: time/op -> t_e / L.
        let t = pipeline_time(10.0, 5, 1e6);
        assert!((t / 1e6 - 2.0).abs() < 1e-4);
    }

    #[test]
    fn fill_drain_overhead_is_l_minus_1_stages() {
        // t_n - n*(t_e/L) = (L-1) * t_e/L.
        let t = pipeline_time(10.0, 5, 100.0);
        assert!((t - (100.0 * 2.0 + 4.0 * 2.0)).abs() < 1e-12);
    }

    #[test]
    fn zero_operations_cost_only_drain() {
        // n = 0 gives (L-1) stage times; the model never calls this with
        // n = 0 on a busy tick, but the formula is well defined.
        assert!((pipeline_time(10.0, 5, 0.0) - 8.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn zero_stages_rejected() {
        let _ = pipeline_time(1.0, 0, 1.0);
    }
}
