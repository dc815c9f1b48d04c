//! Shared harness for the table/figure regeneration binaries.
//!
//! Each binary regenerates one artifact of WUCS-86-19's evaluation:
//!
//! | binary        | artifact |
//! |---------------|----------|
//! | `table4`      | Table 4 — circuit characteristics |
//! | `table5`      | Table 5 — workloads normalized to 100k components |
//! | `table6`      | Table 6 — the nature of logic simulation |
//! | `table8`      | Table 8 — average workload |
//! | `table9`      | Table 9 — comparison of 36 designs |
//! | `figure2`     | Figure 2 — idealized speed-up bounds |
//! | `figures3to5` | Figures 3-5 — speed-up vs processors |
//! | `validate_model` | model vs machine-simulator (extension) |
//! | `partition_study` | partitioning heuristics vs Eq. 6 (extension) |
//! | `par_study`    | `ParSimulator` speedup + `M_P` vs Eq. 6/11/14/15 |
//! | `sensitivity`  | elasticities along N/F/busy-fraction/beta (abstract claim) |
//! | `variants_study` | EI time advance, sync-cost scaling |
//! | `scaling_study` | raw N and E vs built circuit size |
//! | `scale_study`  | partition cuts and `M_P` vs Eq. 6 at 10k/100k components |
//! | `bitpar_study` | lane throughput of `BitParSim` vs the event engine (`lanes = 1` is the event-driven-vs-levelized race) |
//!
//! Run with `cargo run --release -p logicsim-bench --bin <name>`.
//! Binaries that measure circuits accept `--quick` for a short window.

use logicsim::circuits::Benchmark;
use logicsim::{measure_benchmark, MeasureOptions, MeasuredCircuit};

pub mod parallel;
pub mod report;

/// Parses the common `--quick` flag from `std::env::args`.
#[must_use]
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Measurement options for the binaries: the full 20k-tick window, or
/// the quick 3k-tick window with `--quick`.
#[must_use]
pub fn measure_options(collect_trace: bool) -> MeasureOptions {
    let mut opts = if quick_mode() {
        MeasureOptions::quick()
    } else {
        MeasureOptions::default()
    };
    opts.collect_trace = collect_trace;
    opts
}

/// Measures all five benchmarks concurrently (one scoped thread per
/// circuit; `LSIM_THREADS=1` forces serial), printing progress to
/// stderr. Results are in `Benchmark::ALL` order and independent of the
/// thread count — each cell is a self-contained seeded measurement.
#[must_use]
pub fn measure_all(opts: &MeasureOptions) -> Vec<MeasuredCircuit> {
    parallel::par_map(Benchmark::ALL.to_vec(), |b| {
        eprintln!("measuring {} ...", b.paper_name());
        measure_benchmark(b, opts)
    })
}

/// Prints a section banner.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

/// Formats a float the way the paper prints millions ("15.1").
#[must_use]
pub fn millions(x: f64) -> String {
    format!("{:.1}", x / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn millions_formats() {
        assert_eq!(millions(15.1e6), "15.1");
        assert_eq!(millions(0.0), "0.0");
    }
}
