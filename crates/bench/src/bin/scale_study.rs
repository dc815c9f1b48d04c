//! Million-component scale study: does locality-aware partitioning
//! keep beating the paper's Eq. 6 random-partitioning baseline when
//! the circuits grow three orders of magnitude past Table 4?
//!
//! For each benchmark family at each corpus scale this binary:
//!
//! 1. builds the tiled instance (`stopwatch@100k`-style), recording
//!    build wall time and the netlist's in-memory footprint — the
//!    arena/CSR build path is what makes the 1M-component corpus
//!    practical;
//! 2. computes static cut sizes for random, flat Fiduccia–Mattheyses,
//!    and multilevel partitions at `P` in {2, 4, 8, 16, 32, 64} over a
//!    single shared connectivity graph — the expected ordering is
//!    `multilevel <= flat FM <= random`, with the flat/multilevel gap
//!    widening as tiles multiply (a random initial bisection sees less
//!    and less of the global structure);
//! 3. replays a measured serial trace against the partitions and
//!    reports the *actual* message volume `M_P` next to Eq. 6's
//!    `M_inf (1 - 1/P)` prediction: the ratio is the communication
//!    reduction the paper anticipated from its partitioning research.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p logicsim-bench --bin scale_study -- \
//!     [--quick] [--out <path>]
//! ```
//!
//! `--quick` limits the sweep to the 10k scale with a short trace
//! window; the full run adds 100k. (The 1M build path is exercised by
//! the `scale-1m` workload of `benchmark/`.)
//!
//! Exits with code 2 when `LSIM_THREADS` exceeds the host core count:
//! an oversubscribed study reports scheduling noise, not measurements.

use logicsim::circuits::{scaled, Benchmark, ScaledParams};
use logicsim::core::partition_model::messages_approx;
use logicsim::measure_instance;
use logicsim::netlist::ConnectivityGraph;
use logicsim::partition::{
    cut_size_with, measured_messages, FiducciaMattheysesPartitioner, MultilevelPartitioner,
    Partitioner, RandomPartitioner,
};
use logicsim::MeasureOptions;
use logicsim_bench::report::refuse_oversubscription;
use std::fmt::Write as _;
use std::time::Instant;

/// Processor counts for the partition sweep (Eq. 6 comparison).
const P_SWEEP: [u32; 6] = [2, 4, 8, 16, 32, 64];

/// Wiring/partitioning seed for the whole study.
const SEED: u64 = 11;

fn human(scale: usize) -> String {
    if scale.is_multiple_of(1_000_000) && scale > 0 {
        format!("{}m", scale / 1_000_000)
    } else if scale.is_multiple_of(1_000) && scale > 0 {
        format!("{}k", scale / 1_000)
    } else {
        scale.to_string()
    }
}

fn main() {
    // The measured traces behind the M_P columns are wall-clock runs.
    refuse_oversubscription("scale_study");

    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let scales: &[usize] = if quick { &[10_000] } else { &[10_000, 100_000] };

    let mut md = String::new();
    let _ = writeln!(md, "# Scale study: partition quality vs Eq. 6\n");
    let _ = writeln!(
        md,
        "| family | scale | comps | nets | build ms | MiB | P | cut rand | cut FM | cut ML | M_P rand | M_P ML | M_P ML-act | Eq.6 | ML/Eq.6 | act/ML |"
    );
    let _ = writeln!(
        md,
        "|--------|-------|-------|------|----------|-----|---|----------|--------|--------|----------|--------|------------|------|---------|--------|"
    );

    for bench in Benchmark::ALL {
        for &scale in scales {
            let t0 = Instant::now();
            let inst = scaled::build(&ScaledParams {
                base: bench,
                target_components: scale,
                seed: scaled::DEFAULT_SEED,
            });
            let build_ms = t0.elapsed().as_secs_f64() * 1e3;
            let nl = &inst.netlist;
            let comps = nl.num_simulated_components();
            let mib = nl.memory_footprint() as f64 / (1024.0 * 1024.0);
            eprintln!(
                "scale_study: {}@{} — {comps} components built in {build_ms:.1} ms",
                bench.slug(),
                human(scale)
            );

            // One shared graph for every cut measurement.
            let graph = ConnectivityGraph::build(nl, 16);

            // A serial trace for the measured-M_P comparison. The
            // window only needs enough busy ticks for stable message
            // counts; it shrinks as the instances grow.
            let window = match scale {
                s if s > 50_000 => {
                    if quick {
                        400
                    } else {
                        1_000
                    }
                }
                _ => {
                    if quick {
                        1_000
                    } else {
                        3_000
                    }
                }
            };
            let mopts = MeasureOptions {
                warmup_periods: 2,
                window_ticks: window,
                seed: 0x1987,
                collect_trace: true,
            };
            let m = measure_instance(bench.paper_name(), &inst, &mopts);
            let m_inf = m.trace.total_messages_inf() as f64;

            for p in P_SWEEP {
                let rand_part = RandomPartitioner::new(SEED).partition(nl, p);
                let fm_part = FiducciaMattheysesPartitioner::new(SEED).partition(nl, p);
                let ml_part = MultilevelPartitioner::new(SEED).partition(nl, p);
                let act_part = MultilevelPartitioner::new(SEED)
                    .with_activity_weights()
                    .partition(nl, p);
                let cut_rand = cut_size_with(&graph, &rand_part);
                let cut_fm = cut_size_with(&graph, &fm_part);
                let cut_ml = cut_size_with(&graph, &ml_part);
                let m_rand = measured_messages(&m.trace, &rand_part);
                let m_ml = measured_messages(&m.trace, &ml_part);
                let m_act = measured_messages(&m.trace, &act_part);
                let eq6 = messages_approx(m_inf, p);
                let ratio = if eq6 > 0.0 { m_ml as f64 / eq6 } else { 0.0 };
                let act_ratio = if m_ml > 0 {
                    m_act as f64 / m_ml as f64
                } else {
                    0.0
                };
                let _ = writeln!(
                    md,
                    "| {} | {} | {} | {} | {:.1} | {:.1} | {} | {} | {} | {} | {} | {} | {} | {:.0} | {:.3} | {:.3} |",
                    bench.slug(),
                    human(scale),
                    comps,
                    nl.num_nets(),
                    build_ms,
                    mib,
                    p,
                    cut_rand,
                    cut_fm,
                    cut_ml,
                    m_rand,
                    m_ml,
                    m_act,
                    eq6,
                    ratio,
                    act_ratio,
                );
            }
        }
    }

    let _ = writeln!(
        md,
        "\nReading: `cut ML <= cut FM <= cut rand` is the static story; \
         `ML/Eq.6 < 1` is the dynamic one — the multilevel partitioner \
         moves less message volume than the model's random-partitioning \
         baseline `M_inf (1 - 1/P)` at every P, which is exactly the \
         improvement the paper's Eq. 6 conjecture left on the table. \
         `M_P ML-act` repeats the multilevel measurement with \
         static-activity vertex weights (balance on predicted event \
         load instead of component count); `act/ML <= 1` means the \
         re-weighting does not cost message volume."
    );

    print!("{md}");
    if let Some(path) = out_path {
        std::fs::write(&path, &md).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("scale_study: wrote {path}");
    }
}
