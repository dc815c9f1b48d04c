//! Machine parameters (the paper's Table 3 design variables).
//!
//! All times are expressed in **syncs**, the paper's time unit: one sync
//! is one synchronization interval `t_SYNC = t_S + t_D`, assumed to be
//! 100 ns on the reference hardware. The base machine (a VAX 11/750
//! running a conventional simulator) evaluates one event in
//! `t_E,B = 4000` syncs = 400 us, i.e. 2,500 events/second.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Duration of one sync in seconds (100 ns), used to convert model
/// output into absolute events/second figures.
pub const SECONDS_PER_SYNC: f64 = 100e-9;

/// Design parameters of a special-purpose machine in the modeled class.
///
/// ```
/// use logicsim_core::{BaseMachine, MachineDesign};
/// let base = BaseMachine::vax_11_750();
/// // 10 processors, 5-stage pipelines, one bus, 100x specialization:
/// let d = MachineDesign::new(10, 5, 1.0, base.t_eval / 100.0, 3.0, 1.0);
/// assert_eq!(d.h_factor(&base), 100.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MachineDesign {
    /// Number of slave processors `P` (event/function evaluators).
    pub processors: u32,
    /// Pipeline stages `L` per evaluator (1 = no pipelining; the paper
    /// bounds practical depth at about 5-6 stages \[AB83\]).
    pub pipeline_depth: u32,
    /// Communication-network width `W`: average number of messages in
    /// flight concurrently at peak load (1 per time-shared bus).
    pub comm_width: f64,
    /// Time for one event/function evaluation `t_E`, in syncs.
    pub t_eval: f64,
    /// Time to transmit one event message `t_M`, in syncs.
    pub t_msg: f64,
    /// Synchronization time `t_SYNC = t_S + t_D` per simulated tick, in
    /// syncs (1.0 by the paper's normalization).
    pub t_sync: f64,
}

impl MachineDesign {
    /// Creates a design.
    ///
    /// # Panics
    ///
    /// Panics if `processors` or `pipeline_depth` is zero, or any time
    /// or width is non-positive or non-finite.
    #[must_use]
    pub fn new(
        processors: u32,
        pipeline_depth: u32,
        comm_width: f64,
        t_eval: f64,
        t_msg: f64,
        t_sync: f64,
    ) -> MachineDesign {
        assert!(processors >= 1, "need at least one processor");
        assert!(pipeline_depth >= 1, "pipeline depth is at least 1");
        for (name, v) in [
            ("comm_width", comm_width),
            ("t_eval", t_eval),
            ("t_msg", t_msg),
            ("t_sync", t_sync),
        ] {
            assert!(v.is_finite() && v > 0.0, "{name} must be positive, got {v}");
        }
        MachineDesign {
            processors,
            pipeline_depth,
            comm_width,
            t_eval,
            t_msg,
            t_sync,
        }
    }

    /// The functional-specialization/technology speed-up `H` of this
    /// design relative to a base machine (paper Eq. 13:
    /// `H = t_E,B / t_E,S`).
    #[must_use]
    pub fn h_factor(&self, base: &BaseMachine) -> f64 {
        base.t_eval / self.t_eval
    }
}

impl fmt::Display for MachineDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "P={} L={} W={} tE={} tM={} tSYNC={}",
            self.processors,
            self.pipeline_depth,
            self.comm_width,
            self.t_eval,
            self.t_msg,
            self.t_sync
        )
    }
}

/// The unenhanced base machine speed-ups are quoted against (Eq. 12).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BaseMachine {
    /// Time for one event/function evaluation on the base machine, in
    /// syncs.
    pub t_eval: f64,
}

impl BaseMachine {
    /// Creates a base machine.
    ///
    /// # Panics
    ///
    /// Panics if `t_eval` is not positive and finite.
    #[must_use]
    pub fn new(t_eval: f64) -> BaseMachine {
        assert!(
            t_eval.is_finite() && t_eval > 0.0,
            "t_eval must be positive, got {t_eval}"
        );
        BaseMachine { t_eval }
    }

    /// The paper's reference: a VAX 11/750 at 400 us per evaluation
    /// (4,000 syncs; about 2,500 events/second).
    #[must_use]
    pub fn vax_11_750() -> BaseMachine {
        BaseMachine::new(4_000.0)
    }

    /// Base-machine evaluation rate in events per second.
    #[must_use]
    pub fn events_per_second(&self) -> f64 {
        1.0 / (self.t_eval * SECONDS_PER_SYNC)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vax_reference_speed() {
        let vax = BaseMachine::vax_11_750();
        assert!((vax.events_per_second() - 2_500.0).abs() < 1e-9);
    }

    #[test]
    fn h_factor_matches_eq13() {
        let base = BaseMachine::vax_11_750();
        let d = MachineDesign::new(4, 5, 1.0, 40.0, 3.0, 1.0);
        assert!((d.h_factor(&base) - 100.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_rejected() {
        let _ = MachineDesign::new(0, 1, 1.0, 1.0, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn nonpositive_time_rejected() {
        let _ = MachineDesign::new(1, 1, 1.0, 0.0, 1.0, 1.0);
    }
}
