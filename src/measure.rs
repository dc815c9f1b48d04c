//! End-to-end workload measurement, reproducing the paper's
//! methodology: "Random test vectors were applied to the circuits until
//! aggregate statistics ... remained stable and most components
//! experienced at least one output change."

use crate::job::{Job, JobSpec};
use logicsim_circuits::{Benchmark, BenchmarkInstance};
use logicsim_machine::MeasuredParams;
use logicsim_netlist::CircuitCharacteristics;
use logicsim_sim::{ObsReport, Phase, TickTrace};
use logicsim_stats::{NatureRow, Workload};
use serde::{Deserialize, Serialize};

/// Measurement-run options.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasureOptions {
    /// Warm-up ticks discarded before counting (flushes the power-up
    /// transient), expressed in vector periods of the benchmark.
    pub warmup_periods: u64,
    /// Measured window length in ticks.
    pub window_ticks: u64,
    /// Stimulus RNG seed.
    pub seed: u64,
    /// Collect the full [`TickTrace`] (needed for machine replay and
    /// partition studies).
    pub collect_trace: bool,
}

impl Default for MeasureOptions {
    fn default() -> MeasureOptions {
        MeasureOptions {
            warmup_periods: 24,
            window_ticks: 20_000,
            seed: 0x1987,
            collect_trace: false,
        }
    }
}

impl MeasureOptions {
    /// A fast configuration for tests and examples (short window).
    #[must_use]
    pub fn quick() -> MeasureOptions {
        MeasureOptions {
            warmup_periods: 8,
            window_ticks: 3_000,
            ..MeasureOptions::default()
        }
    }
}

/// The result of measuring one benchmark circuit.
#[derive(Debug, Clone)]
pub struct MeasuredCircuit {
    /// The paper's printed name for the benchmark.
    pub name: &'static str,
    /// Structural characteristics (our Table 4 row).
    pub characteristics: CircuitCharacteristics,
    /// Simulated component count (gates + switches).
    pub components: usize,
    /// Raw measured workload over the window.
    pub workload: Workload,
    /// Workload linearly normalized to 100,000 components (Table 5).
    pub normalized: Workload,
    /// Fraction of components that produced at least one event (the
    /// paper's coverage criterion).
    pub coverage: f64,
    /// The trace (empty unless requested).
    pub trace: TickTrace,
}

impl MeasuredCircuit {
    /// The Table 6 row at the normalized size.
    #[must_use]
    pub fn nature(&self) -> NatureRow {
        self.normalized.nature(100_000)
    }

    /// A serializable summary (everything except the trace), for
    /// writing measurement results to disk.
    #[must_use]
    pub fn summary(&self) -> MeasurementSummary {
        MeasurementSummary {
            name: self.name.to_string(),
            characteristics: self.characteristics.clone(),
            components: self.components,
            workload: self.workload,
            normalized: self.normalized,
            nature: self.nature(),
            coverage: self.coverage,
        }
    }
}

/// A JSON-friendly record of one circuit measurement: the inputs the
/// paper's model consumes plus the structural characteristics, without
/// the (large) trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeasurementSummary {
    /// Circuit name.
    pub name: String,
    /// Table 4 row.
    pub characteristics: CircuitCharacteristics,
    /// Simulated component count.
    pub components: usize,
    /// Raw measured workload.
    pub workload: Workload,
    /// Workload normalized to 100,000 components.
    pub normalized: Workload,
    /// Table 6 row at the normalized size.
    pub nature: NatureRow,
    /// Fraction of components that produced at least one event.
    pub coverage: f64,
}

/// Measures one benchmark end to end: build, warm up, measure.
#[must_use]
pub fn measure_benchmark(benchmark: Benchmark, options: &MeasureOptions) -> MeasuredCircuit {
    let instance = benchmark.build_default();
    measure_instance(benchmark.paper_name(), &instance, options)
}

/// Measures an already-built instance (for custom parameters): a
/// serial [`Job`] warmed up for whole vector periods.
#[must_use]
pub fn measure_instance(
    name: &'static str,
    instance: &BenchmarkInstance,
    options: &MeasureOptions,
) -> MeasuredCircuit {
    let netlist = &instance.netlist;
    let spec = JobSpec {
        warmup: options.warmup_periods * instance.vector_period.max(1),
        window: options.window_ticks,
        seed: options.seed,
        collect_trace: options.collect_trace,
        ..JobSpec::default()
    };
    let m = Job::new(netlist, &instance.stimulus, &spec)
        .expect("a benchmark passes the pre-flight and resolves its own stimulus")
        .run();
    let workload = m.workload();
    let components = netlist.num_simulated_components();
    MeasuredCircuit {
        name,
        characteristics: CircuitCharacteristics::measure(
            netlist,
            instance.technology,
            instance.clocking,
        ),
        components,
        normalized: workload.normalized_to(components, 100_000),
        workload,
        coverage: m.coverage,
        trace: m.trace,
    }
}

/// Distills the paper's machine parameters from an observation report:
/// per-executed-tick means for the synchronization phases (`tS` from
/// START, `tD` from DONE, barrier skew) and per-item means for `tE` (per
/// evaluation) and `tM` (per routed message). Every party does the
/// exchange for the nets it owns, so `tM` is CPU time per message summed
/// over the parties' lanes, not wall time; inbox-draining samples carry
/// `items == 0`, so their overhead amortizes across the real messages.
/// `executed_ticks` is lane 0's Apply count (party 0 applies in every
/// executed tick).
#[must_use]
pub fn measured_params(report: &ObsReport, workers: u32) -> MeasuredParams {
    let ticks = report.executed_ticks();
    let per_tick = |phase: Phase| {
        if ticks == 0 {
            0.0
        } else {
            report.total(phase).total_ns as f64 / ticks as f64
        }
    };
    let per_item = |phase: Phase| {
        let t = report.total(phase);
        if t.items == 0 {
            0.0
        } else {
            t.total_ns as f64 / t.items as f64
        }
    };
    MeasuredParams {
        workers,
        executed_ticks: ticks,
        t_start_ns: per_tick(Phase::Start),
        t_done_ns: per_tick(Phase::Done),
        barrier_ns: per_tick(Phase::Barrier),
        t_eval_ns: per_item(Phase::Eval),
        t_msg_ns: per_item(Phase::Exchange),
        evaluations: report.total(Phase::Eval).items,
        messages: report.total(Phase::Exchange).items,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_measurement_is_reproducible_and_busy() {
        let opts = MeasureOptions::quick();
        let m1 = measure_benchmark(Benchmark::StopWatch, &opts);
        let m2 = measure_benchmark(Benchmark::StopWatch, &opts);
        assert_eq!(m1.workload, m2.workload);
        assert!(m1.workload.events > 0.0, "no activity measured");
        assert_eq!(
            m1.workload.total_ticks() as u64,
            opts.window_ticks,
            "window covers exactly the requested ticks"
        );
    }

    #[test]
    fn trace_collection_matches_workload() {
        let opts = MeasureOptions {
            collect_trace: true,
            ..MeasureOptions::quick()
        };
        let m = measure_benchmark(Benchmark::CrossbarSwitch, &opts);
        assert_eq!(m.trace.total_events() as f64, m.workload.events);
        assert_eq!(m.trace.busy_ticks() as f64, m.workload.busy_ticks);
    }

    #[test]
    fn summary_round_trips_through_json() {
        let m = measure_benchmark(Benchmark::StopWatch, &MeasureOptions::quick());
        let s = m.summary();
        let json = serde_json::to_string_pretty(&s).expect("serializable");
        let back: MeasurementSummary = serde_json::from_str(&json).expect("parseable");
        // JSON float formatting may differ in the last ULP; compare the
        // exact fields and the floats with a tight tolerance.
        assert_eq!(back.name, s.name);
        assert_eq!(back.characteristics, s.characteristics);
        assert_eq!(back.workload, s.workload); // raw counts are integral
        assert!((back.normalized.events - s.normalized.events).abs() < 1e-6);
        assert!((back.coverage - s.coverage).abs() < 1e-12);
        assert!(json.contains("\"busy_ticks\""));
    }

    #[test]
    fn normalization_scales_events_only() {
        let m = measure_benchmark(Benchmark::AssocMem, &MeasureOptions::quick());
        let x = 100_000.0 / m.components as f64;
        assert!((m.normalized.events - m.workload.events * x).abs() < 1e-6);
        assert_eq!(m.normalized.busy_ticks, m.workload.busy_ticks);
    }
}
