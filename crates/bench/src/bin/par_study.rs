//! Parallel-engine study: the thread-parallel `ParSimulator` measured
//! against the paper's model, sweeping `P` in {1, 2, 4, 8} over the
//! five benchmark circuits.
//!
//! The study measures the **statically optimized** circuits (the
//! `analyze::opt` rewrite every production run executes); each
//! circuit's header line prints the optimizer's component reduction.
//!
//! For each (circuit, P) cell the study runs the identical seeded
//! measurement window on the serial engine and on `ParSimulator` under
//! a random partition (the model's assumption) and under
//! Fiduccia-Mattheyses min-cut (the paper's "partitioning research in
//! progress"), then prints, side by side:
//!
//! * measured wall-clock speedup vs the serial engine, next to the
//!   model's Eq. 11 speed-up of the software-analog machine (`P`
//!   unpipelined processors, `H = 1`, `W = 1`, `t_M = 3`) and the
//!   Eq. 14 ideal / Eq. 15 communication bounds;
//! * measured cross-partition message volume `M_P`, next to the Eq. 6
//!   random-partitioning prediction `M_inf (1 - 1/P)` (over
//!   component-to-component traffic);
//! * the measured per-worker load-imbalance factor `beta`.
//!
//! Every parallel run's workload counters are asserted identical to the
//! serial engine's — the study doubles as a release-mode determinism
//! check. Wall-clock speedup is only meaningful when the host has at
//! least `P` cores; the header prints the host core count so the
//! numbers read honestly on any machine.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p logicsim-bench --bin par_study -- \
//!     [--quick] [--out <path>]
//! ```
//!
//! `--out` additionally writes the full table as JSON (schema
//! `logicsim-par-study-v2`; v2 added the measured machine parameters
//! and the calibrated Eq. 10 prediction per row).
//!
//! Exits with code 2 when `LSIM_THREADS` exceeds the host core count:
//! an oversubscribed study reports scheduling noise, not speedups.

use logicsim::circuits::{Benchmark, BenchmarkInstance};
use logicsim::core::bounds::{comm_bound_speedup, ideal_speedup};
use logicsim::core::partition_model::messages_approx;
use logicsim::core::speedup::speedup;
use logicsim::core::{BaseMachine, MachineDesign};
use logicsim::job::{EngineSpec, Job, JobSpec, Measured};
use logicsim::machine::MeasuredParams;
use logicsim::partition::{FiducciaMattheysesPartitioner, Partitioner, RandomPartitioner};
use logicsim::stats::imbalance::max_load_factor;
use logicsim_bench::report::{
    float, host_cores, metadata_v2, obj, refuse_oversubscription, text, uint,
};
use serde_json::Value;

const SEED: u64 = 0x1987;
const SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Measurement window in ticks (after the 8-vector-period warm-up).
fn window(quick: bool) -> u64 {
    if quick {
        1_500
    } else {
        6_000
    }
}

/// The study's job on `inst` under `engine`: warm up for 8 vector
/// periods, then the timed window.
fn run(inst: &BenchmarkInstance, win: u64, engine: EngineSpec<'_>) -> Measured {
    let spec = JobSpec {
        engine,
        warmup: 8 * inst.vector_period.max(1),
        window: win,
        seed: SEED,
        observe: matches!(engine, EngineSpec::Par { .. }),
        ..JobSpec::default()
    };
    let job = Job::new(&inst.netlist, &inst.stimulus, &spec);
    job.expect("stimulus resolves and pre-flight passes").run()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let win = window(quick);
    let base = BaseMachine::vax_11_750();

    // An oversubscribed harness produces sub-1 "speedups" that are pure
    // scheduling noise; refuse to dress those up as results.
    refuse_oversubscription("par_study");

    println!(
        "par_study: window {win} ticks, host cores = {} (wall speedup\n\
         beyond min(P, cores) is not physically possible here)\n",
        host_cores()
    );

    let mut rows: Vec<Value> = Vec::new();
    for bench in Benchmark::ALL {
        // The study measures the statically optimized circuits — the
        // graph a production run executes. Partitions are computed on
        // the optimized netlist directly.
        let (inst, opt) = bench.build_default().optimized();
        let serial = run(&inst, win, EngineSpec::Serial);
        let (c, w) = (&serial.counters, serial.workload());
        let serial_wall = serial.wall.as_secs_f64();
        println!(
            "== {} ==  serial: {:.1} kev/s over {} events (N = {:.1})",
            bench.paper_name(),
            c.events as f64 / serial_wall.max(1e-12) / 1e3,
            c.events,
            w.simultaneity()
        );
        println!(
            "optimizer: {} -> {} components ({} rewrites in {} passes)",
            opt.components_before,
            opt.components_after,
            opt.total_rewrites(),
            opt.passes
        );
        println!(
            "{:<3} {:<8} {:>8} {:>7} {:>7} {:>7} {:>8} {:>10} {:>10} {:>6} {:>6} {:>9} {:>7}",
            "P",
            "part",
            "wall_ms",
            "S_meas",
            "Eq.11",
            "Eq.14",
            "Eq.15",
            "M_P",
            "Eq.6",
            "ratio",
            "beta",
            "calib_ms",
            "c_err%"
        );
        let mut crossover: Option<f64> = None;
        for workers in SWEEP {
            let random = RandomPartitioner::new(SEED);
            let fm = FiducciaMattheysesPartitioner::new(SEED);
            let fm_act = FiducciaMattheysesPartitioner::new(SEED).with_activity_weights();
            let strategies: [&dyn Partitioner; 3] = [&random, &fm, &fm_act];
            for strategy in strategies {
                let part = strategy.partition(&inst.netlist, workers as u32);
                let assignment = part.as_slice();
                let par = run(
                    &inst,
                    win,
                    EngineSpec::Par {
                        workers,
                        assignment,
                    },
                );
                assert_eq!(
                    &par.counters,
                    c,
                    "{} P={workers} {}: parallel counters diverged from serial",
                    bench.paper_name(),
                    strategy.name()
                );
                let pw = par.parallel.expect("the parallel engine reports its loads");
                let (crossing, component_msgs) = (pw.messages_crossing, pw.messages_component);
                let loads: Vec<u64> = pw.workers.iter().map(|w| w.evaluations).collect();
                let beta = max_load_factor(&loads);
                let (wall_seconds, params) = (par.wall.as_secs_f64(), par.params);
                let s_meas = serial_wall / wall_seconds.max(1e-12);
                // The software-analog machine: P unpipelined evaluators
                // at base speed on one bus.
                let design = MachineDesign::new(workers as u32, 1, 1.0, base.t_eval, 3.0, 1.0);
                let eq11 = speedup(&w, &design, &base, beta);
                let eq14 = ideal_speedup(1.0, w.simultaneity().max(1e-9), 1, workers as u32);
                let eq15 = if workers == 1 || c.messages_inf == 0 {
                    f64::INFINITY
                } else {
                    comm_bound_speedup(&w, 1.0, base.t_eval, 3.0, workers as u32)
                };
                let eq6 = messages_approx(component_msgs as f64, workers as u32);
                let ratio = if eq6 == 0.0 {
                    0.0
                } else {
                    crossing as f64 / eq6
                };
                // Eq. 10 re-evaluated with the *measured* tS/tD/tE/tM
                // of this very run (the obs layer), vs. the stopwatch.
                let calib_ns = params.predict_runtime_ns(beta);
                let calib_err = MeasuredParams::relative_error(calib_ns, wall_seconds * 1e9);
                let row_crossover = params.crossover_processors(beta);
                if workers == 2 && strategy.name() == "random" {
                    crossover = Some(row_crossover);
                }
                println!(
                    "{:<3} {:<8} {:>8.2} {:>7.2} {:>7.1} {:>7.1} {:>8.1} {:>10} {:>10.0} {:>6.2} {:>6.2} {:>9.2} {:>+7.1}",
                    workers,
                    strategy.name(),
                    wall_seconds * 1e3,
                    s_meas,
                    eq11,
                    eq14,
                    eq15,
                    crossing,
                    eq6,
                    ratio,
                    beta,
                    calib_ns / 1e6,
                    calib_err * 100.0
                );
                rows.push(obj([
                    ("circuit", text(bench.paper_name())),
                    ("workers", uint(workers as u64)),
                    ("strategy", text(strategy.name())),
                    ("serial_wall_seconds", float(serial_wall)),
                    ("wall_seconds", float(wall_seconds)),
                    ("measured_speedup", float(s_meas)),
                    (
                        "serial_events_per_second",
                        float(c.events as f64 / serial_wall.max(1e-12)),
                    ),
                    (
                        "events_per_second",
                        float(c.events as f64 / wall_seconds.max(1e-12)),
                    ),
                    ("eq11_speedup", float(eq11)),
                    ("eq14_ideal", float(eq14)),
                    (
                        "eq15_comm_bound",
                        if eq15.is_finite() {
                            float(eq15)
                        } else {
                            Value::Null
                        },
                    ),
                    ("messages_crossing", uint(crossing)),
                    ("messages_component", uint(component_msgs)),
                    ("eq6_predicted", float(eq6)),
                    ("eq6_ratio", float(ratio)),
                    ("beta", float(beta)),
                    ("t_sync_ns", float(params.t_sync_ns())),
                    ("t_eval_ns", float(params.t_eval_ns)),
                    ("t_msg_ns", float(params.t_msg_ns)),
                    ("calibrated_runtime_ns", float(calib_ns)),
                    ("calibrated_error", float(calib_err)),
                    (
                        "calibrated_crossover_p",
                        if row_crossover.is_finite() {
                            float(row_crossover)
                        } else {
                            Value::Null
                        },
                    ),
                ]));
            }
        }
        if let Some(x) = crossover.filter(|x| x.is_finite()) {
            println!("calibrated crossover (P=2 random, Eq. 16 with measured tE/tM): P* = {x:.1}");
        }
        println!();
    }

    println!(
        "Reading: under random partitioning the M_P ratio should sit\n\
         near 1.0 (Eq. 6 is exact in expectation for C >> 1); FM falls\n\
         below it, and fm-act (FM balanced on static-activity weights)\n\
         should match or beat plain FM's M_P while evening out beta.\n\
         Measured wall speedup approaches the Eq. 11/14 model\n\
         numbers only when the host grants the threads real cores.\n\
         calib_ms re-evaluates Eq. 10 with the machine parameters the\n\
         obs layer measured in that same run; c_err% is its signed error\n\
         against the stopwatch."
    );

    if let Some(path) = out_path {
        let report = obj([
            ("schema", text("logicsim-par-study-v2")),
            ("quick", Value::Bool(quick)),
            ("window_ticks", uint(win)),
            ("metadata", metadata_v2()),
            ("rows", Value::Array(rows)),
        ]);
        let body = serde_json::to_string_pretty(&report).expect("serializable");
        std::fs::write(&path, body + "\n").unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("par_study: wrote {path}");
    }
}
