//! The metric registry: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` lists exactly these (a unit test in
//! `report.rs` compares the two).

/// An end-to-end metric: what a user of the simulator sees.
#[derive(Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// A per-layer metric from the traced pass. No bound: counts are
/// compared exactly, times are single-shot and informational.
#[derive(Debug)]
pub struct PerLayer {
    /// `<layer module path>.<metric>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
}

/// Set-up: child start of file read → engine and stimulus ready to tick.
pub const SETUP_S: &str = "setup_s";
/// Committed events in the timed window ÷ window wall.
pub const EVENTS_PER_S: &str = "events_per_s";
/// Parent-measured wall from spawning the child to its exit.
pub const JOB_S: &str = "job_s";
/// The child's `VmHWM` just before exit.
pub const PEAK_RSS_MB: &str = "peak_rss_mb";
/// Runs that failed verification ÷ runs attempted. Printed by `all`;
/// in the one-run protocol it is `failed / attempted`, not a metric,
/// because it is 0 on every good run.
pub const VERIFY_FAIL_SHARE: &str = "verify_fail_share";

/// The end-to-end metrics of `BENCHMARK.json`, in report order.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: EVENTS_PER_S,
        unit: "events/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: JOB_S,
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: PEAK_RSS_MB,
        unit: "MiB",
        higher_is_better: false,
        bound: 0.08,
    },
];

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
    }
}

/// The per-layer metrics of `BENCHMARK.json`. A metric a workload does
/// not exercise (the bit-parallel counters on an event-driven workload,
/// say) reads 0 there.
pub const PER_LAYER: [PerLayer; 68] = [
    lower("netlist.text.parse_s", "s"),
    higher("netlist.text.parse_mb_per_s", "MB/s"),
    lower("netlist.text.bytes", "count"),
    lower("netlist.components", "count"),
    lower("netlist.nets", "count"),
    lower("netlist.memory_footprint_mb", "MiB"),
    lower("netlist.analyze.preflight_s", "s"),
    lower("netlist.analyze.levelize_s", "s"),
    lower("netlist.analyze.max_depth", "count"),
    lower("circuits.scaled.build_s", "s"),
    higher("circuits.scaled.components_per_s", "1/s"),
    lower("partition.multilevel.partition_s", "s"),
    lower("partition.multilevel.cut_nets", "count"),
    lower("partition.multilevel.imbalance", "ratio"),
    lower("sim.stimulus.build_s", "s"),
    lower("sim.stimulus.apply_ns_per_tick", "ns"),
    lower("sim.engine.construct_s", "s"),
    lower("sim.engine.apply_s", "s"),
    lower("sim.engine.resolve_s", "s"),
    lower("sim.engine.eval_s", "s"),
    lower("sim.engine.exchange_s", "s"),
    lower("sim.engine.done_s", "s"),
    lower("sim.engine.other_s", "s"),
    lower("sim.engine.events", "count"),
    lower("sim.engine.evaluations", "count"),
    lower("sim.engine.busy_ticks", "count"),
    lower("sim.engine.idle_ticks", "count"),
    lower("sim.engine.messages_inf", "count"),
    lower("sim.engine.event_list_peak", "count"),
    lower("sim.engine.ns_per_event", "ns"),
    lower("sim.engine.ns_per_tick", "ns"),
    lower("sim.par_engine.construct_s", "s"),
    lower("sim.par_engine.start_s", "s"),
    lower("sim.par_engine.apply_s", "s"),
    lower("sim.par_engine.resolve_s", "s"),
    lower("sim.par_engine.eval_s", "s"),
    lower("sim.par_engine.exchange_s", "s"),
    lower("sim.par_engine.done_s", "s"),
    lower("sim.par_engine.barrier_s", "s"),
    lower("sim.par_engine.other_s", "s"),
    lower("sim.par_engine.executed_ticks", "count"),
    lower("sim.par_engine.messages_crossing", "count"),
    lower("sim.par_engine.beta", "ratio"),
    higher("sim.par_engine.utilisation", "ratio"),
    lower("sim.par_engine.barrier_share", "ratio"),
    lower("sim.bitpar.compile_s", "s"),
    lower("sim.bitpar.ranks", "count"),
    higher("sim.bitpar.solver_cells", "count"),
    lower("sim.bitpar.fallback_components", "count"),
    lower("sim.bitpar.sweeps", "count"),
    lower("sim.bitpar.compiled_evals", "count"),
    lower("sim.bitpar.fallback_events", "count"),
    lower("sim.bitpar.unconverged_vectors", "count"),
    lower("sim.bitpar.ns_per_sweep", "ns"),
    lower("sim.bitpar.ns_per_eval", "ns"),
    lower("sim.bitpar.stimulus64_apply_s", "s"),
    lower("sim.obs.overhead_ratio", "ratio"),
    lower("sim.obs.ring_dropped", "count"),
    lower("sim.wheel.schedule_pop_ns", "ns"),
    lower("sim.solver.resolve_chain_ns", "ns"),
    lower("machine.calibrate.t_sync_ns", "ns"),
    lower("machine.calibrate.t_eval_ns", "ns"),
    lower("machine.calibrate.t_msg_ns", "ns"),
    lower("machine.calibrate.eq10_residual", "ratio"),
    lower("machine.static_cost.estimate_s", "s"),
    lower("machine.static_cost.eval_ratio", "ratio"),
    lower("driver.read_s", "s"),
    lower("driver.digest_s", "s"),
];

/// Per-layer metrics that are exact counts: identical on every run of
/// one `(workload, seed, window)`, and compared exactly by `selfcheck`.
pub fn is_count(name: &str) -> bool {
    PER_LAYER
        .iter()
        .any(|m| m.name == name && m.unit == "count")
        && name != "sim.obs.ring_dropped"
}

/// The rule `BENCHMARK.json` puts on names: starts with a letter or
/// digit, then at most 63 more of letters, digits, `_`, `.` and `-`.
#[cfg(test)]
pub fn is_valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_valid_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain([VERIFY_FAIL_SHARE])
            .collect();
        for (i, n) in names.iter().enumerate() {
            assert!(is_valid_name(n), "{n}");
            assert!(!names[..i].contains(n), "{n} listed twice");
        }
        assert!(!is_valid_name("-x") && !is_valid_name("a b") && !is_valid_name(""));
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let setup = END_TO_END.iter().find(|m| m.name == SETUP_S).unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }
}
