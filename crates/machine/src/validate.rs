//! Validation of the analytical model against the machine simulator.

use crate::config::MachineConfig;
use crate::report::MachineReport;
use crate::sim::MachineSim;
use logicsim_core::runtime::run_time;
use logicsim_core::speedup::base_run_time;
use logicsim_core::{BaseMachine, Workload};
use logicsim_partition::{measured_beta, Partition};
use logicsim_sim::TickTrace;
use std::fmt;

/// A *real* parallel execution measurement (the thread-parallel
/// `ParSimulator` timed against the serial engine on the same stimulus
/// window), attachable to a [`ValidationResult`] as a third column next
/// to the analytical model and the cycle-level machine simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredExecution {
    /// Worker threads the measured run used.
    pub workers: u32,
    /// Wall-clock speed-up over the serial engine on the same window.
    pub speedup: f64,
    /// Measured events per wall-clock second of the parallel run.
    pub events_per_second: f64,
}

/// Side-by-side model prediction and machine measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationResult {
    /// Model-predicted run time (Eq. 10), in syncs.
    pub model_runtime: f64,
    /// Machine-simulated run time, in syncs.
    pub machine_runtime: f64,
    /// Model speed-up over the base machine.
    pub model_speedup: f64,
    /// Measured speed-up over the base machine.
    pub machine_speedup: f64,
    /// The measured load-imbalance factor fed to the model.
    pub beta: f64,
    /// The machine report the comparison came from.
    pub report: MachineReport,
    /// A real thread-parallel execution measurement, when one was taken
    /// (host-dependent, so never produced by the pure-model paths).
    pub measured: Option<MeasuredExecution>,
}

impl ValidationResult {
    /// Signed relative error of the model: `(model - machine) / machine`
    /// (negative when the model is optimistic, which its assumptions —
    /// full overlap, even tick loading — make typical).
    #[must_use]
    pub fn relative_error(&self) -> f64 {
        if self.machine_runtime == 0.0 {
            0.0
        } else {
            (self.model_runtime - self.machine_runtime) / self.machine_runtime
        }
    }

    /// Attaches a real execution measurement (builder style).
    #[must_use]
    pub fn with_measured(mut self, measured: MeasuredExecution) -> ValidationResult {
        self.measured = Some(measured);
        self
    }
}

impl fmt::Display for ValidationResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "model R_P={:.0} vs machine R_P={:.0} ({:+.1}%), S_P {:.0} vs {:.0}, beta={:.2}",
            self.model_runtime,
            self.machine_runtime,
            self.relative_error() * 100.0,
            self.model_speedup,
            self.machine_speedup,
            self.beta
        )?;
        if let Some(m) = &self.measured {
            write!(
                f,
                ", measured {:.2}x @P={} ({:.0} ev/s)",
                m.speedup, m.workers, m.events_per_second
            )?;
        }
        Ok(())
    }
}

/// Runs the machine simulator over a trace and compares it against the
/// analytical model evaluated on the same aggregate workload, using the
/// *measured* load-imbalance `beta` of the (trace, partition) pair.
#[must_use]
pub fn validate_against_model(
    config: &MachineConfig,
    trace: &TickTrace,
    partition: &Partition,
    base: &BaseMachine,
) -> ValidationResult {
    let report = MachineSim::new(config).run(trace, partition);
    let (workload, beta) = model_inputs(config, trace, partition);
    let design = config.as_model_design();
    let model_rt = run_time(&workload, &design, beta).total;
    let rb = base_run_time(&workload, base);
    ValidationResult {
        model_runtime: model_rt,
        machine_runtime: report.total_cycles,
        model_speedup: rb / model_rt,
        machine_speedup: rb / report.total_cycles,
        beta,
        report,
        measured: None,
    }
}

/// What the model reads from a trace: its aggregate workload, and the
/// measured load-imbalance `beta` of the (trace, partition) pair, capped
/// at the processor count.
fn model_inputs(
    config: &MachineConfig,
    trace: &TickTrace,
    partition: &Partition,
) -> (Workload, f64) {
    let workload = Workload::new(
        trace.busy_ticks() as f64,
        trace.idle_ticks() as f64,
        trace.total_events() as f64,
        trace.total_messages_inf() as f64,
    );
    let beta = measured_beta(trace, partition).min(f64::from(config.processors));
    (workload, beta)
}

/// Three-way comparison: mean-value model (Eq. 10), distribution-aware
/// model (per-tick loads), and the machine simulator, on the same
/// trace. The distribution model must land between the other two on
/// workloads whose only model violation is uneven tick loading.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreeWayComparison {
    /// Mean-value (Eq. 10) run time.
    pub mean_value: f64,
    /// Distribution-aware run time.
    pub distribution: f64,
    /// Machine-simulated run time.
    pub machine: f64,
}

/// Evaluates all three run-time estimates for a trace.
#[must_use]
pub fn compare_three_way(
    config: &MachineConfig,
    trace: &TickTrace,
    partition: &Partition,
) -> ThreeWayComparison {
    use logicsim_core::distribution::{run_time_distribution, TickLoad};
    let report = MachineSim::new(config).run(trace, partition);
    let (workload, beta) = model_inputs(config, trace, partition);
    let design = config.as_model_design();
    let loads: Vec<TickLoad> = trace
        .ticks
        .iter()
        .map(|t| TickLoad {
            events: t.events.len() as f64,
            messages_inf: t.events.iter().map(|e| e.fanout() as f64).sum(),
        })
        .collect();
    ThreeWayComparison {
        mean_value: run_time(&workload, &design, beta).total,
        distribution: run_time_distribution(&loads, trace.idle_ticks() as f64, &design, beta),
        machine: report.total_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkKind;
    use crate::sim::random_component_partition;
    use crate::synthetic::SyntheticWorkload;

    fn validate(
        p: u32,
        l: u32,
        width: u32,
        h: f64,
        tm: f64,
        w: &SyntheticWorkload,
        seed: u64,
    ) -> ValidationResult {
        let cfg = MachineConfig::paper_design(p, l, NetworkKind::BusSet { width }, h, tm);
        let trace = w.generate(seed);
        let part = random_component_partition(w.components, p, seed ^ 1);
        validate_against_model(&cfg, &trace, &part, &BaseMachine::vax_11_750())
    }

    #[test]
    fn model_is_accurate_on_even_eval_dominated_workloads() {
        // Heavy, even load; slow-ish processors; ample bus capacity:
        // every model assumption holds, so agreement should be tight.
        let w = SyntheticWorkload::uniform(40, 400, 128.0, 2.0, 8_000);
        let v = validate(4, 1, 3, 1.0, 2.0, &w, 21);
        assert!(
            v.relative_error().abs() < 0.05,
            "error {:.3}: {v}",
            v.relative_error()
        );
    }

    #[test]
    fn model_is_accurate_on_comm_dominated_workloads() {
        // Very fast processors saturating one bus: run time is message
        // volume * t_msg, which both sides agree on.
        let w = SyntheticWorkload::uniform(40, 100, 200.0, 2.0, 8_000);
        let v = validate(8, 5, 1, 1_000.0, 3.0, &w, 22);
        assert!(
            v.relative_error().abs() < 0.10,
            "error {:.3}: {v}",
            v.relative_error()
        );
        assert_eq!(
            v.report.bottleneck(),
            logicsim_core::runtime::Bottleneck::Communication
        );
    }

    #[test]
    fn model_is_optimistic_on_bursty_workloads() {
        // Bursty ticks break the "evenly distributed over busy ticks"
        // assumption; pipeline fill/drain and per-tick sync make the
        // machine slower than... actually bursty ticks with the same
        // mean make heavy ticks longer and light ticks shorter, which
        // hurts the machine only through pipeline end effects. The
        // dominant mismatch is partial comm overlap: messages cannot
        // start before their producing event retires, so a comm-heavy
        // tail extends every tick. The model must be optimistic here.
        let mut w = SyntheticWorkload::uniform(60, 0, 32.0, 2.0, 4_000);
        w.burstiness = 0.9;
        let v = validate(8, 5, 1, 100.0, 3.0, &w, 23);
        assert!(
            v.relative_error() < 0.02,
            "model should not be pessimistic: {v}"
        );
    }

    #[test]
    fn measured_beta_feeds_model_on_hotspot_workloads() {
        let mut w = SyntheticWorkload::uniform(50, 0, 64.0, 2.0, 2_000);
        w.hotspot = 0.8;
        let v = validate(8, 1, 3, 10.0, 2.0, &w, 24);
        assert!(v.beta > 1.3, "hotspot should skew beta, got {}", v.beta);
        // With measured beta the model stays in the right ballpark.
        assert!(
            v.relative_error().abs() < 0.35,
            "error {:.3}: {v}",
            v.relative_error()
        );
    }

    #[test]
    fn distribution_model_sits_between_mean_value_and_machine() {
        // Bursty ticks violate only the even-tick-load assumption, which
        // the distribution model repairs: mean-value <= distribution <=
        // machine (up to small slack for partial-overlap effects the
        // distribution model still idealizes).
        let mut w = SyntheticWorkload::uniform(60, 300, 64.0, 2.0, 4_000);
        w.burstiness = 0.9;
        let cfg = MachineConfig::paper_design(8, 5, NetworkKind::BusSet { width: 1 }, 100.0, 3.0);
        let trace = w.generate(31);
        let part = random_component_partition(w.components, 8, 32);
        let c = compare_three_way(&cfg, &trace, &part);
        assert!(
            c.mean_value <= c.distribution * 1.0001,
            "mean {} > dist {}",
            c.mean_value,
            c.distribution
        );
        assert!(
            c.distribution <= c.machine * 1.05,
            "dist {} > machine {}",
            c.distribution,
            c.machine
        );
        // And the distribution model is strictly better than the
        // mean-value model at predicting the machine here.
        let err_mean = (c.mean_value - c.machine).abs();
        let err_dist = (c.distribution - c.machine).abs();
        assert!(err_dist < err_mean, "dist {err_dist} vs mean {err_mean}");
    }

    #[test]
    fn measured_column_attaches_and_compares() {
        let w = SyntheticWorkload::uniform(30, 300, 100.0, 2.0, 5_000);
        let v = validate(4, 5, 2, 10.0, 3.0, &w, 26);
        assert!(v.measured.is_none());
        let half_model = v.model_speedup / 2.0;
        let v = v.with_measured(MeasuredExecution {
            workers: 4,
            speedup: half_model,
            events_per_second: 1e6,
        });
        let line = v.to_string();
        assert!(line.contains("measured") && line.contains("@P=4"), "{line}");
    }

    #[test]
    fn speedups_are_consistent_with_runtimes() {
        let w = SyntheticWorkload::uniform(30, 300, 100.0, 2.0, 5_000);
        let v = validate(4, 5, 2, 10.0, 3.0, &w, 25);
        assert!(v.model_speedup > 0.0 && v.machine_speedup > 0.0);
        // speedup ratio = inverse runtime ratio.
        let lhs = v.model_speedup / v.machine_speedup;
        let rhs = v.machine_runtime / v.model_runtime;
        assert!((lhs - rhs).abs() < 1e-9);
    }
}
