//! Architecture variants beyond the paper's `UI/GC` analysis.
//!
//! The paper's taxonomy (Table 2) admits event-based time advance (EI)
//! and non-constant synchronization, and its final section announces
//! "simple performance models of other architectures" as work in
//! progress. This module supplies the immediate neighbors of the
//! analyzed class:
//!
//! * **Event-increment (EI/GC)** — the master advances the clock to the
//!   next scheduled event time instead of visiting every tick, so idle
//!   ticks cost nothing: `R = B*(tSYNC + ...)`. For workloads like the
//!   stop watch (99% idle) this removes nearly all synchronization
//!   overhead.
//! * **Synchronization-cost models** — the paper assumes
//!   `tSYNC = tS + tD` constant in `P`; real DONE collection is a
//!   daisy chain (linear in `P`) or a combining tree (logarithmic).

use crate::params::MachineDesign;
use crate::runtime::{comm_time, eval_time, RunTime};
use logicsim_stats::Workload;
use serde::{Deserialize, Serialize};

/// How START/DONE cost scales with the processor count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SyncModel {
    /// The paper's assumption: constant `tSYNC` (a broadcast wire and a
    /// wired-AND DONE line).
    Constant,
    /// Daisy-chained DONE: `tSYNC = tS + tD * P`.
    Linear,
    /// Tree-combined DONE: `tSYNC = tS + tD * ceil(log2 P)`.
    Logarithmic,
}

impl SyncModel {
    /// The effective per-tick synchronization time for a design whose
    /// `t_sync` field holds the paper's constant `tS + tD` (split
    /// evenly between `tS` and `tD`).
    #[must_use]
    pub fn t_sync(&self, design: &MachineDesign) -> f64 {
        let half = design.t_sync / 2.0;
        let p = f64::from(design.processors);
        match self {
            SyncModel::Constant => design.t_sync,
            SyncModel::Linear => half + half * p,
            SyncModel::Logarithmic => half + half * p.log2().ceil().max(1.0),
        }
    }
}

/// Run time of the event-increment (EI/GC) variant: idle ticks are
/// skipped by advancing the clock directly to the next event time.
///
/// # Panics
///
/// Panics if `beta < 1`.
#[must_use]
pub fn run_time_event_increment(
    workload: &Workload,
    design: &MachineDesign,
    beta: f64,
    sync: SyncModel,
) -> RunTime {
    let eval = eval_time(workload, design, beta);
    let comm = comm_time(workload, design);
    let t_sync = sync.t_sync(design);
    let sync_total = workload.busy_ticks * t_sync;
    RunTime {
        total: sync_total + eval.max(comm),
        eval,
        comm,
        sync: sync_total,
    }
}

/// Run time of the paper's unit-increment machine under a non-constant
/// synchronization model (idle ticks still cost one sync each).
///
/// # Panics
///
/// Panics if `beta < 1`.
#[must_use]
pub fn run_time_unit_increment(
    workload: &Workload,
    design: &MachineDesign,
    beta: f64,
    sync: SyncModel,
) -> RunTime {
    let eval = eval_time(workload, design, beta);
    let comm = comm_time(workload, design);
    let t_sync = sync.t_sync(design);
    let sync_total = workload.total_ticks() * t_sync;
    RunTime {
        total: sync_total + eval.max(comm),
        eval,
        comm,
        sync: sync_total,
    }
}

/// The advantage of event-based time advance: `R_UI / R_EI` for the
/// same design. Grows with the idle fraction and with the sync cost.
#[must_use]
pub fn ei_advantage(
    workload: &Workload,
    design: &MachineDesign,
    beta: f64,
    sync: SyncModel,
) -> f64 {
    run_time_unit_increment(workload, design, beta, sync).total
        / run_time_event_increment(workload, design, beta, sync).total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_data::{average_workload_table8, five_circuits};
    use crate::params::BaseMachine;

    fn design(p: u32, l: u32, w: f64, h: f64) -> MachineDesign {
        let base = BaseMachine::vax_11_750();
        MachineDesign::new(p, l, w, base.t_eval / h, 3.0, 1.0)
    }

    #[test]
    fn sync_models_order_correctly() {
        let d = design(16, 5, 1.0, 10.0);
        let c = SyncModel::Constant.t_sync(&d);
        let log = SyncModel::Logarithmic.t_sync(&d);
        let lin = SyncModel::Linear.t_sync(&d);
        assert!(c < log && log < lin, "{c} {log} {lin}");
        assert!((c - 1.0).abs() < 1e-12);
        assert!((log - 0.5 - 0.5 * 4.0).abs() < 1e-12);
        assert!((lin - 0.5 - 0.5 * 16.0).abs() < 1e-12);
    }

    #[test]
    fn ui_with_constant_sync_matches_eq10() {
        let w = average_workload_table8();
        let d = design(10, 5, 1.0, 100.0);
        let via_variant = run_time_unit_increment(&w, &d, 1.0, SyncModel::Constant);
        let via_eq10 = crate::runtime::run_time(&w, &d, 1.0);
        assert!((via_variant.total - via_eq10.total).abs() < 1e-6);
    }

    #[test]
    fn ei_skips_idle_sync() {
        let w = average_workload_table8();
        let d = design(10, 5, 1.0, 100.0);
        let ui = run_time_unit_increment(&w, &d, 1.0, SyncModel::Constant);
        let ei = run_time_event_increment(&w, &d, 1.0, SyncModel::Constant);
        assert!((ui.sync / ei.sync - w.total_ticks() / w.busy_ticks).abs() < 1e-9);
        assert!(ei.total < ui.total);
    }

    #[test]
    fn ei_advantage_largest_for_stopwatch() {
        // The stop watch is idle 99% of the time; the EI machine gains
        // the most there (the paper's footnote about its oversized
        // clock period is exactly an argument for EI advance). Use an
        // uncontended network so synchronization — the thing EI
        // removes — is actually visible.
        let base = BaseMachine::vax_11_750();
        let d = MachineDesign::new(50, 5, 1_000.0, base.t_eval / 1_000.0, 0.01, 1.0);
        let mut best: Option<(&str, f64)> = None;
        for c in five_circuits() {
            let adv = ei_advantage(&c.workload, &d, 1.0, SyncModel::Constant);
            if best.is_none_or(|(_, b)| adv > b) {
                best = Some((c.name, adv));
            }
        }
        assert_eq!(best.expect("five circuits").0, "Stop Watch");
    }

    #[test]
    fn linear_sync_erodes_large_p_designs() {
        // With daisy-chained DONE, adding processors eventually hurts.
        let w = average_workload_table8();
        let base = BaseMachine::vax_11_750();
        let s = |p: u32| {
            let d = MachineDesign::new(p, 5, 3.0, base.t_eval / 100.0, 3.0, 1.0);
            let rt = run_time_unit_increment(&w, &d, 1.0, SyncModel::Linear);
            w.events * base.t_eval / rt.total
        };
        // Speed-up must eventually decrease in P under linear sync.
        assert!(s(400) < s(50), "S(400)={} S(50)={}", s(400), s(50));
    }

    #[test]
    fn ei_advantage_at_least_one() {
        let w = average_workload_table8();
        for p in [1u32, 10, 50] {
            let d = design(p, 1, 1.0, 10.0);
            assert!(ei_advantage(&w, &d, 1.0, SyncModel::Constant) >= 1.0);
        }
    }
}
