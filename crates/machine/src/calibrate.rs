//! Calibrating the analytical model from *measured* machine parameters.
//!
//! The paper's Eq. 1-10 model takes the machine parameters `tS`, `tD`,
//! `tE`, `tM` as design constants (Table 3). The `obs` instrumentation
//! in `logicsim-sim` measures the same quantities live on the thread
//! -parallel engine: per-tick START fan-out and DONE collection cost,
//! per-evaluation and per-message wall time, and barrier skew. This
//! module feeds those measurements back into the model, producing a
//! *calibrated* prediction that can be compared side by side with the
//! paper-constant prediction and the actual measured run time.
//!
//! All inputs are plain numbers: the glue that extracts a
//! [`MeasuredParams`] from an `ObsReport` is `logicsim::measure::
//! measured_params` in the root crate, which every job's measurement
//! calls; no feature gates it.

use logicsim_core::params::{MachineDesign, SECONDS_PER_SYNC};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Paper reference value for `t_E` on the software analog, in syncs
/// (VAX 11/750 at 400 us per evaluation).
pub const PAPER_T_EVAL_SYNCS: f64 = 4_000.0;

/// Paper reference value for `t_M`, in syncs (Table 3's nominal 3).
pub const PAPER_T_MSG_SYNCS: f64 = 3.0;

/// One sync in nanoseconds (the paper's 100 ns reference).
pub const PAPER_SYNC_NS: f64 = SECONDS_PER_SYNC * 1e9;

/// Machine parameters measured from a live run of the thread-parallel
/// engine, in wall-clock nanoseconds, ready to be fed back into the
/// Eq. 1-10 model.
///
/// Per-tick costs (`t_start_ns`, `t_done_ns`, `barrier_ns`) are means
/// over *executed* ticks (idle ticks the engines fast-forward over pay
/// nothing, matching the engines' actual sync cost rather than the
/// paper's per-simulated-tick accounting). Per-item costs are means
/// over the items of their phase.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeasuredParams {
    /// Worker threads the measured run used (the model's `P`).
    pub workers: u32,
    /// Ticks the engine actually executed (busy ticks; `B` analog).
    pub executed_ticks: u64,
    /// Mean START fan-out cost per executed tick (`tS`), ns.
    pub t_start_ns: f64,
    /// Mean DONE collection cost per executed tick (`tD`), ns.
    pub t_done_ns: f64,
    /// Mean barrier-wait (skew) cost per executed tick, ns. The paper
    /// folds this into `tD`; we keep it separate because it is the
    /// part that grows with load imbalance.
    pub barrier_ns: f64,
    /// Mean cost of one component evaluation (`tE`), ns.
    pub t_eval_ns: f64,
    /// Mean cost of one fanout message (`tM`), ns.
    pub t_msg_ns: f64,
    /// Total evaluations in the measured window (`E` analog).
    pub evaluations: u64,
    /// Total infinite-processor messages in the window (`M_inf`).
    pub messages: u64,
}

impl MeasuredParams {
    /// The measured synchronization cost per executed tick
    /// (`t_SYNC = tS + tD` plus barrier skew), ns.
    #[must_use]
    pub fn t_sync_ns(&self) -> f64 {
        self.t_start_ns + self.t_done_ns + self.barrier_ns
    }

    /// The measured parameters expressed as a [`MachineDesign`] in the
    /// model's sync units (`t_sync = 1`), so they can be dropped into
    /// any Eq. 1-16 evaluator. Degenerate measurements (no ticks, zero
    /// durations) are clamped to tiny positive values rather than
    /// violating `MachineDesign`'s positivity contract.
    #[must_use]
    pub fn calibrated_design(&self) -> MachineDesign {
        let sync = self.t_sync_ns().max(f64::MIN_POSITIVE);
        MachineDesign::new(
            self.workers.max(1),
            1,
            1.0,
            (self.t_eval_ns / sync).max(1e-9),
            (self.t_msg_ns / sync).max(1e-9),
            1.0,
        )
    }

    /// Eq. 10 evaluated with arbitrary time constants, in ns:
    /// `R = ticks*t_sync + max(beta*E*t_eval/P, M*t_msg)`.
    fn prediction_ns(&self, t_sync: f64, t_eval: f64, t_msg: f64, beta: f64) -> f64 {
        let p = f64::from(self.workers.max(1));
        let ticks = self.executed_ticks as f64;
        let eval = beta * self.evaluations as f64 * t_eval / p;
        let comm = if self.workers > 1 {
            self.messages as f64 * t_msg
        } else {
            0.0
        };
        ticks * t_sync + eval.max(comm)
    }

    /// Calibrated Eq. 10 prediction of the run's wall time, in ns,
    /// using the measured `t_SYNC`, `tE`, and `tM`.
    ///
    /// # Panics
    ///
    /// Panics if `beta < 1` (by definition `1 <= beta <= P`).
    #[must_use]
    pub fn predict_runtime_ns(&self, beta: f64) -> f64 {
        assert!(beta >= 1.0, "beta is at least 1, got {beta}");
        self.prediction_ns(self.t_sync_ns(), self.t_eval_ns, self.t_msg_ns, beta)
    }

    /// Eq. 10 prediction with the *paper's* software-analog constants
    /// (`t_SYNC` = 100 ns, `tE` = 4000 syncs, `tM` = 3 syncs), in ns.
    /// On a modern host this is off by orders of magnitude — which is
    /// exactly what the three-way comparison is meant to show.
    ///
    /// # Panics
    ///
    /// Panics if `beta < 1`.
    #[must_use]
    pub fn paper_prediction_ns(&self, beta: f64) -> f64 {
        assert!(beta >= 1.0, "beta is at least 1, got {beta}");
        self.prediction_ns(
            PAPER_SYNC_NS,
            PAPER_T_EVAL_SYNCS * PAPER_SYNC_NS,
            PAPER_T_MSG_SYNCS * PAPER_SYNC_NS,
            beta,
        )
    }

    /// The processor count where the calibrated evaluation and
    /// communication terms cross (the Eq. 16 analog evaluated with
    /// measured constants): `P* = beta * E * tE / (M * tM)`. Beyond
    /// `P*` more processors stop helping because the (serialized)
    /// message traffic dominates. Returns `f64::INFINITY` when the
    /// measured run produced no message cost.
    ///
    /// # Panics
    ///
    /// Panics if `beta < 1`.
    #[must_use]
    pub fn crossover_processors(&self, beta: f64) -> f64 {
        assert!(beta >= 1.0, "beta is at least 1, got {beta}");
        let comm = self.messages as f64 * self.t_msg_ns;
        if comm <= 0.0 {
            return f64::INFINITY;
        }
        beta * self.evaluations as f64 * self.t_eval_ns / comm
    }

    /// Signed relative error of a prediction against a measured wall
    /// time: `(predicted - measured) / measured`.
    #[must_use]
    pub fn relative_error(predicted_ns: f64, measured_ns: f64) -> f64 {
        if measured_ns == 0.0 {
            0.0
        } else {
            (predicted_ns - measured_ns) / measured_ns
        }
    }
}

impl fmt::Display for MeasuredParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "P={} tS={:.0}ns tD={:.0}ns barrier={:.0}ns tE={:.0}ns tM={:.0}ns over {} ticks / {} evals / {} msgs",
            self.workers,
            self.t_start_ns,
            self.t_done_ns,
            self.barrier_ns,
            self.t_eval_ns,
            self.t_msg_ns,
            self.executed_ticks,
            self.evaluations,
            self.messages
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MeasuredParams {
        MeasuredParams {
            workers: 4,
            executed_ticks: 1_000,
            t_start_ns: 200.0,
            t_done_ns: 300.0,
            barrier_ns: 500.0,
            t_eval_ns: 50.0,
            t_msg_ns: 10.0,
            evaluations: 40_000,
            messages: 100_000,
        }
    }

    #[test]
    fn sync_is_start_plus_done_plus_barrier() {
        assert!((sample().t_sync_ns() - 1_000.0).abs() < 1e-12);
    }

    #[test]
    fn calibrated_design_is_in_sync_units() {
        let d = sample().calibrated_design();
        assert_eq!(d.processors, 4);
        assert!((d.t_eval - 0.05).abs() < 1e-12);
        assert!((d.t_msg - 0.01).abs() < 1e-12);
        assert!((d.t_sync - 1.0).abs() < 1e-12);
    }

    #[test]
    fn prediction_picks_max_of_eval_and_comm() {
        let m = sample();
        // eval = 1*40000*50/4 = 5e5; comm = 1e5*10 = 1e6; sync = 1e6.
        let r = m.predict_runtime_ns(1.0);
        assert!((r - (1e6 + 1e6)).abs() < 1e-6, "r = {r}");
    }

    #[test]
    fn single_worker_pays_no_comm() {
        let mut m = sample();
        m.workers = 1;
        // eval = 40000*50 = 2e6 > comm (suppressed); sync = 1e6.
        let r = m.predict_runtime_ns(1.0);
        assert!((r - 3e6).abs() < 1e-6, "r = {r}");
    }

    #[test]
    fn paper_prediction_uses_reference_constants() {
        let m = sample();
        // eval = 40000*4000*100/4 = 4e9 dominates comm = 1e5*300 = 3e7.
        let r = m.paper_prediction_ns(1.0);
        let expected = 1_000.0 * 100.0 + 4e9;
        assert!((r - expected).abs() / expected < 1e-12, "r = {r}");
    }

    #[test]
    fn crossover_matches_hand_calculation() {
        let m = sample();
        // beta*E*tE / (M*tM) = 40000*50 / 1e6 = 2.
        assert!((m.crossover_processors(1.0) - 2.0).abs() < 1e-12);
        let mut quiet = m;
        quiet.messages = 0;
        assert!(quiet.crossover_processors(1.0).is_infinite());
    }

    #[test]
    fn degenerate_measurements_still_yield_a_design() {
        let m = MeasuredParams {
            workers: 0,
            executed_ticks: 0,
            t_start_ns: 0.0,
            t_done_ns: 0.0,
            barrier_ns: 0.0,
            t_eval_ns: 0.0,
            t_msg_ns: 0.0,
            evaluations: 0,
            messages: 0,
        };
        let d = m.calibrated_design();
        assert_eq!(d.processors, 1);
        assert!(d.t_eval > 0.0 && d.t_msg > 0.0);
    }

    #[test]
    fn relative_error_is_signed() {
        assert!((MeasuredParams::relative_error(110.0, 100.0) - 0.1).abs() < 1e-12);
        assert!((MeasuredParams::relative_error(90.0, 100.0) + 0.1).abs() < 1e-12);
        assert_eq!(MeasuredParams::relative_error(5.0, 0.0), 0.0);
    }

    #[test]
    fn display_mentions_all_parameters() {
        let s = sample().to_string();
        for needle in ["P=4", "tS=", "tD=", "barrier=", "tE=", "tM="] {
            assert!(s.contains(needle), "missing {needle} in {s}");
        }
    }
}
