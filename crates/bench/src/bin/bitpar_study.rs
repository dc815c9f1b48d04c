//! Lane-throughput study for the bit-parallel compiled backend.
//!
//! Sweeps the lane count over {1, 8, 16, 32, 64} on every benchmark
//! circuit, racing each configuration against the serial event-driven
//! engine under the identical vector-synchronous quiescence protocol,
//! and prints a Markdown table: size of the compiled program, wall times,
//! scenario·events/second, and the aggregate scenario speedup
//! `lanes x serial_wall / bitpar_wall`. CI uploads the output as the
//! lane-throughput artifact of the `bitpar` job.
//!
//! With `--workers <N>` the study adds a multi-worker section per
//! circuit: one private 64-lane `BitParSim` per `par_map` worker, each
//! replaying a *disjoint* seed block (worker `w` covers the lanes
//! `[64w, 64w + 64)` of the global lane-seed sequence), so `W` workers
//! settle `64 W` independent scenarios per vector. The table sweeps
//! powers of two up to `N` and reports aggregate scenarios/second —
//! the throughput story for batch fault/corner campaigns, where the
//! bit-parallel backend's single-thread word-level parallelism and the
//! host's cores multiply.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p logicsim-bench --bin bitpar_study -- \
//!     [--quick] [--workers <N>] [--out <path>]
//! ```

use logicsim::circuits::Benchmark;
use logicsim::job::{EngineSpec, Job, JobSpec};
use logicsim::sim::{BitParSim, Stimulus64};
use logicsim_bench::parallel::par_map_with_workers;
use std::fmt::Write as _;
use std::time::Instant;

/// Lane counts swept per benchmark.
const LANE_SWEEP: [usize; 5] = [1, 8, 16, 32, 64];

fn vectors_for(bench: Benchmark, quick: bool) -> u64 {
    let full = match bench {
        Benchmark::StopWatch => 4_000,
        Benchmark::AssocMem => 512,
        Benchmark::PriorityQueue => 256,
        Benchmark::RtpChip => 512,
        Benchmark::CrossbarSwitch => 1_024,
    };
    if quick {
        (full / 8).max(32)
    } else {
        full
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "-".to_string());
    let max_workers = args
        .iter()
        .position(|a| a == "--workers")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok());

    let mut md = String::new();
    let _ = writeln!(md, "# Bit-parallel backend: lane-throughput study\n");
    let _ = writeln!(
        md,
        "Both engines run the vector-synchronous quiescence protocol \
         (seed 0x1987; serial replays lane 0). `speedup` is the \
         aggregate scenario speedup `lanes x serial_wall / bitpar_wall`.\n"
    );

    for bench in Benchmark::ALL {
        let vectors = vectors_for(bench, quick);
        let inst = bench.build_default();
        eprintln!(
            "bitpar_study: {} over {vectors} vectors ...",
            bench.paper_name()
        );

        // `vectors` settled vectors of `engine`, seeded from `seed`.
        let run = |engine, seed| {
            let spec = JobSpec {
                engine,
                window: vectors,
                seed,
                ..JobSpec::default()
            };
            let job = Job::new(&inst.netlist, &inst.stimulus, &spec);
            job.expect("stimulus resolves and pre-flight passes").run()
        };
        // Serial baseline (lane 0's stimulus).
        let serial = run(EngineSpec::Replay, Stimulus64::lane_seed(0x1987, 0));
        let serial_wall = serial.wall.as_secs_f64();
        let serial_events = serial.counters.events;

        let split = BitParSim::new(&inst.netlist, 1).expect("pre-flight");
        let st = split.stats();
        let _ = writeln!(
            md,
            "## {} — {} compiled gates + {} solver cells ({} switches, {} ranks)\n",
            bench.paper_name(),
            st.compiled_gates,
            st.solver_cells,
            st.compiled_switches,
            st.ranks
        );
        let _ = writeln!(
            md,
            "serial: {vectors} vectors, {serial_events} events, {:.3} ms\n",
            serial_wall * 1e3
        );
        let _ = writeln!(
            md,
            "| lanes | wall (ms) | evals/vec | scenario·events/s | speedup |\n\
             |---:|---:|---:|---:|---:|"
        );

        for lanes in LANE_SWEEP {
            let m = run(EngineSpec::BitPar { lanes }, 0x1987);
            let wall = m.wall.as_secs_f64();
            let stats = m.bitpar.expect("bit-parallel statistics");
            let _ = writeln!(
                md,
                "| {lanes} | {:.3} | {:.1} | {:.3e} | {:.2}x |",
                wall * 1e3,
                stats.compiled_evals as f64 / vectors as f64,
                lanes as f64 * serial_events as f64 / wall.max(1e-12),
                lanes as f64 * serial_wall / wall.max(1e-12),
            );
        }
        let _ = writeln!(md);

        // Multi-worker mode: W private 64-lane engines over disjoint
        // seed blocks, mapped onto W threads.
        if let Some(maxw) = max_workers {
            let _ = writeln!(
                md,
                "### multi-worker: one 64-lane engine per thread\n\n\
                 | workers | wall (ms) | scenarios | scenarios/s | scenario·events/s | scaling |\n\
                 |---:|---:|---:|---:|---:|---:|"
            );
            let mut base_wall = 0.0f64;
            let mut w = 1usize;
            while w <= maxw {
                let t0 = Instant::now();
                par_map_with_workers(w, (0..w).collect(), |worker| {
                    // Worker `w` replays lanes [64w, 64w + 64) of the
                    // global lane-seed sequence.
                    run(
                        EngineSpec::BitPar { lanes: 64 },
                        Stimulus64::lane_seed(0x1987, worker * 64),
                    );
                });
                let wall = t0.elapsed().as_secs_f64();
                if w == 1 {
                    base_wall = wall;
                }
                let scenarios = (w * 64) as u64 * vectors;
                let _ = writeln!(
                    md,
                    "| {w} | {:.3} | {scenarios} | {:.3e} | {:.3e} | {:.2}x |",
                    wall * 1e3,
                    scenarios as f64 / wall.max(1e-12),
                    (w * 64) as f64 * serial_events as f64 / wall.max(1e-12),
                    w as f64 * base_wall / wall.max(1e-12),
                );
                w *= 2;
            }
            let _ = writeln!(md);
        }
    }

    if out_path == "-" {
        println!("{md}");
    } else {
        std::fs::write(&out_path, md).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
        eprintln!("bitpar_study: wrote {out_path}");
    }
}
