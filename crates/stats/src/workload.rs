//! The `(B, I, E, M_inf)` workload tuple and its derived ratios.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A simulation workload in the paper's input variables (Table 3):
/// busy ticks `B`, idle ticks `I`, event count `E`, and message volume
/// `M_inf` (messages in the limit of one component per processor).
///
/// Counts are `f64` because the paper's Table 5 numbers are linear
/// rescalings of measured data (e.g. `X = 27.2` for the priority queue)
/// and need not be integral.
///
/// ```
/// use logicsim_stats::Workload;
/// let w = Workload::new(8_106.0, 51_894.0, 10_367_574.0, 21_771_905.0);
/// assert!((w.simultaneity() - 1_279.0).abs() < 1.0);   // N = E/B
/// assert!((w.average_fanout() - 2.1).abs() < 0.01);    // F = M/E
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Busy ticks: simulation time points with at least one event.
    pub busy_ticks: f64,
    /// Idle ticks: time points with no events (still cost a START/DONE
    /// cycle on the modeled machine).
    pub idle_ticks: f64,
    /// Event/function evaluations `E`.
    pub events: f64,
    /// Message volume `M_inf`.
    pub messages_inf: f64,
}

impl Workload {
    /// Creates a workload from raw counts.
    ///
    /// # Panics
    ///
    /// Panics if any count is negative or not finite.
    #[must_use]
    pub fn new(busy_ticks: f64, idle_ticks: f64, events: f64, messages_inf: f64) -> Workload {
        for (name, v) in [
            ("busy_ticks", busy_ticks),
            ("idle_ticks", idle_ticks),
            ("events", events),
            ("messages_inf", messages_inf),
        ] {
            assert!(
                v.is_finite() && v >= 0.0,
                "{name} must be finite and >= 0, got {v}"
            );
        }
        Workload {
            busy_ticks,
            idle_ticks,
            events,
            messages_inf,
        }
    }

    /// Total simulated ticks `B + I`.
    #[must_use]
    pub fn total_ticks(&self) -> f64 {
        self.busy_ticks + self.idle_ticks
    }

    /// Fraction of busy time points `B/(B+I)` (Table 6).
    #[must_use]
    pub fn busy_fraction(&self) -> f64 {
        let t = self.total_ticks();
        if t == 0.0 {
            0.0
        } else {
            self.busy_ticks / t
        }
    }

    /// Average event simultaneity `N = E/B`, the maximum useful degree
    /// of processor parallelism (Table 6 "Sim. Ev.").
    #[must_use]
    pub fn simultaneity(&self) -> f64 {
        if self.busy_ticks == 0.0 {
            0.0
        } else {
            self.events / self.busy_ticks
        }
    }

    /// Average fanout `F = M_inf / E` (Table 6 "Fan Out").
    #[must_use]
    pub fn average_fanout(&self) -> f64 {
        if self.events == 0.0 {
            0.0
        } else {
            self.messages_inf / self.events
        }
    }

    /// The paper's Table 5 normalization: linearly scale event and
    /// message counts to represent a circuit of `target_components`
    /// components, given the measured circuit had `measured_components`.
    ///
    /// Per the paper, only `E` and `M_inf` scale (event density per tick
    /// grows with circuit size); the tick counts `B`, `I` describe the
    /// same simulated interval.
    ///
    /// # Panics
    ///
    /// Panics if `measured_components == 0`.
    #[must_use]
    pub fn normalized_to(&self, measured_components: usize, target_components: usize) -> Workload {
        assert!(measured_components > 0, "component count must be positive");
        let x = target_components as f64 / measured_components as f64;
        Workload {
            busy_ticks: self.busy_ticks,
            idle_ticks: self.idle_ticks,
            events: self.events * x,
            messages_inf: self.messages_inf * x,
        }
    }

    /// The scale factor `X = target / measured` (Table 5 first column).
    #[must_use]
    pub fn scale_factor(measured_components: usize, target_components: usize) -> f64 {
        target_components as f64 / measured_components as f64
    }

    /// Derived Table 6 row for a circuit with `components` components.
    #[must_use]
    pub fn nature(&self, components: usize) -> NatureRow {
        NatureRow {
            busy_fraction: self.busy_fraction(),
            simultaneity: self.simultaneity(),
            activity: if components == 0 {
                0.0
            } else {
                self.simultaneity() / components as f64
            },
            fanout: self.average_fanout(),
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "B={:.0} I={:.0} E={:.3e} M_inf={:.3e} (N={:.1}, F={:.2})",
            self.busy_ticks,
            self.idle_ticks,
            self.events,
            self.messages_inf,
            self.simultaneity(),
            self.average_fanout()
        )
    }
}

/// Per-evaluator counters from an actual parallel run: how one worker
/// of a `P`-processor execution spent the `B + I` global ticks.
///
/// `busy_ticks + idle_ticks` equals the global tick count for every
/// worker (the barrier forces all of them through every tick), so the
/// busy fractions directly expose load imbalance — the quantity the
/// paper's `beta` (Section 5) summarizes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerLoad {
    /// Global ticks in which this worker applied, evaluated, or resolved
    /// at least one item.
    pub busy_ticks: u64,
    /// Global ticks in which this worker had no work (it still paid the
    /// barrier synchronization, the machine's START/DONE handshake).
    pub idle_ticks: u64,
    /// Component function evaluations performed by this worker.
    pub evaluations: u64,
    /// Switch-group resolutions performed by this worker.
    pub group_resolutions: u64,
    /// Messages this worker's events sent to components on *other*
    /// partitions (its contribution to `M_P`).
    pub messages_sent: u64,
}

impl WorkerLoad {
    /// Fraction of global ticks this worker was busy.
    #[must_use]
    pub fn busy_fraction(&self) -> f64 {
        let t = self.busy_ticks + self.idle_ticks;
        if t == 0 {
            0.0
        } else {
            self.busy_ticks as f64 / t as f64
        }
    }
}

/// Aggregate instrumentation of one parallel run: per-worker loads plus
/// the measured cross-partition message volume, ready to compare
/// against Eq. 6's random-partitioning prediction
/// `M_P = M_inf (1 - 1/P)`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParallelWorkload {
    /// One entry per evaluator worker. The master does no evaluation
    /// work of its own, as the paper's host only orchestrates.
    pub workers: Vec<WorkerLoad>,
    /// Messages whose source and destination components sit on
    /// *different* partitions (`M_P` measured).
    pub messages_crossing: u64,
    /// Messages between two *distinct assigned* components regardless
    /// of partition (the component-to-component `M_inf`, the
    /// denominator of Eq. 6; excludes traffic sourced at unpartitioned
    /// infrastructure such as primary inputs, and self-messages —
    /// feedback into the producing component — which stay
    /// processor-local under every assignment).
    pub messages_component: u64,
}

impl ParallelWorkload {
    /// Total evaluations across workers.
    #[must_use]
    pub fn total_evaluations(&self) -> u64 {
        self.workers.iter().map(|w| w.evaluations).sum()
    }
}

/// One row of the paper's Table 6: "The Nature of Logic Simulation".
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NatureRow {
    /// `B/(B+I)` — fraction of time points with scheduled events.
    pub busy_fraction: f64,
    /// `N = E/B` — average simultaneous events per busy tick.
    pub simultaneity: f64,
    /// `N / components` — average fraction of the circuit active per
    /// busy tick.
    pub activity: f64,
    /// `F = M_inf/E` — average fanout.
    pub fanout: f64,
}

impl fmt::Display for NatureRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "B/(B+I)={:.4} N={:.0} activity={:.4} F={:.1}",
            self.busy_fraction, self.simultaneity, self.activity, self.fanout
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's priority-queue row (Table 5): measured E=592,206 on a
    /// 3,680-component circuit scaled by X=27.2 to 16.1e6 events.
    #[test]
    fn table5_priority_queue_scaling() {
        let measured = Workload::new(10_620.0, 57_631.0, 592_206.0, 592_206.0 * 1.5);
        let scaled = measured.normalized_to(3_680, 100_000);
        let x = Workload::scale_factor(3_680, 100_000);
        assert!((x - 27.17).abs() < 0.01, "X={x}");
        assert!(
            (scaled.events / 1e6 - 16.1).abs() < 0.1,
            "E={}",
            scaled.events
        );
        assert_eq!(scaled.busy_ticks, 10_620.0);
    }

    #[test]
    fn derived_ratios_match_table6_priority_queue() {
        // Table 5 row: B=10,620 I=57,631 E=16.1e6 M=24.5e6.
        let w = Workload::new(10_620.0, 57_631.0, 16.1e6, 24.5e6);
        assert!((w.busy_fraction() - 0.1556).abs() < 0.001);
        assert!((w.simultaneity() - 1_516.0).abs() < 5.0);
        assert!((w.average_fanout() - 1.52).abs() < 0.02);
        let n = w.nature(100_000);
        assert!((n.activity - 0.015).abs() < 0.001);
    }

    #[test]
    fn zero_guards() {
        let w = Workload::new(0.0, 0.0, 0.0, 0.0);
        assert_eq!(w.busy_fraction(), 0.0);
        assert_eq!(w.simultaneity(), 0.0);
        assert_eq!(w.average_fanout(), 0.0);
        assert_eq!(w.nature(0).activity, 0.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn negative_counts_rejected() {
        let _ = Workload::new(-1.0, 0.0, 0.0, 0.0);
    }

    #[test]
    fn display_is_informative() {
        let w = Workload::new(10.0, 90.0, 100.0, 210.0);
        let s = w.to_string();
        assert!(s.contains("N=10.0") && s.contains("F=2.10"), "{s}");
    }
}
