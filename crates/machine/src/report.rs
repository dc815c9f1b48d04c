//! Machine simulation reports.

use logicsim_core::runtime::Bottleneck;
use std::fmt;

/// Timing and utilization results of one machine simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineReport {
    /// Total machine time in syncs (the measured `R_P`).
    pub total_cycles: f64,
    /// Time spent in START/DONE synchronization.
    pub sync_cycles: f64,
    /// Aggregate time ticks spent waiting on evaluation (tick critical
    /// path was a slave pipeline).
    pub eval_bound_cycles: f64,
    /// Aggregate time ticks spent waiting on the network.
    pub comm_bound_cycles: f64,
    /// Simulated ticks executed (`B + I`).
    pub ticks: u64,
    /// Busy ticks (at least one event).
    pub busy_ticks: u64,
    /// Events evaluated.
    pub events: u64,
    /// Messages actually sent between processors (`M_P`).
    pub messages: u64,
    /// Aggregate slave busy time (for utilization: divide by
    /// `P * total_cycles`).
    pub slave_busy: f64,
    /// Busy time per slave (indexed by slave id); sums to
    /// [`MachineReport::slave_busy`].
    pub per_slave_busy: Vec<f64>,
    /// Aggregate network-channel busy time.
    pub network_busy: f64,
    /// Number of slave processors.
    pub processors: u32,
}

impl MachineReport {
    /// Mean slave utilization in `[0, 1]`.
    #[must_use]
    pub fn slave_utilization(&self) -> f64 {
        if self.total_cycles == 0.0 {
            0.0
        } else {
            self.slave_busy / (f64::from(self.processors) * self.total_cycles)
        }
    }

    /// Which resource dominated the run.
    #[must_use]
    pub fn bottleneck(&self) -> Bottleneck {
        if self.sync_cycles >= self.eval_bound_cycles.max(self.comm_bound_cycles) {
            Bottleneck::Synchronization
        } else if self.eval_bound_cycles >= self.comm_bound_cycles {
            Bottleneck::Evaluation
        } else {
            Bottleneck::Communication
        }
    }

    /// Measured speed-up over a base machine that takes `t_eval_base`
    /// syncs per event (Eq. 11 with the measured run time).
    #[must_use]
    pub fn speedup_over(&self, t_eval_base: f64) -> f64 {
        if self.total_cycles == 0.0 {
            0.0
        } else {
            self.events as f64 * t_eval_base / self.total_cycles
        }
    }
}

impl fmt::Display for MachineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "R_P={:.0} syncs over {} ticks ({} busy): E={} M_P={} bottleneck={} util={:.2}",
            self.total_cycles,
            self.ticks,
            self.busy_ticks,
            self.events,
            self.messages,
            self.bottleneck(),
            self.slave_utilization()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> MachineReport {
        MachineReport {
            total_cycles: 1_000.0,
            sync_cycles: 100.0,
            eval_bound_cycles: 700.0,
            comm_bound_cycles: 200.0,
            ticks: 100,
            busy_ticks: 40,
            events: 500,
            messages: 300,
            slave_busy: 2_000.0,
            per_slave_busy: vec![800.0, 600.0, 400.0, 200.0],
            network_busy: 600.0,
            processors: 4,
        }
    }

    #[test]
    fn derived_quantities() {
        let r = report();
        assert!((r.slave_utilization() - 0.5).abs() < 1e-12);
        assert_eq!(r.bottleneck(), Bottleneck::Evaluation);
        assert!((r.speedup_over(4_000.0) - 2_000.0).abs() < 1e-9);
        assert!(r.to_string().contains("bottleneck=evaluation"));
    }

    #[test]
    fn zero_guards() {
        let r = MachineReport {
            total_cycles: 0.0,
            ..report()
        };
        assert_eq!(r.slave_utilization(), 0.0);
        assert_eq!(r.speedup_over(4_000.0), 0.0);
    }
}
