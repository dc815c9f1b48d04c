//! Regenerates the paper's Table 4: circuit characteristics.
//!
//! Prints the published row next to the row measured from our circuit
//! generators (the originals are unavailable; see DESIGN.md section 3).

use logicsim::circuits::Benchmark;
use logicsim::core::paper_data::five_circuits;
use logicsim_bench::banner;

fn main() {
    banner("Table 4: Circuit Characteristics (paper vs this reproduction)");
    println!(
        "{:<14} {:<6} {:<6} {:>18} {:>18} {:>18} {:>22}",
        "Circuit",
        "Tech.",
        "Type",
        "Switches (p/ours)",
        "Gates (p/ours)",
        "Total (p/ours)",
        "Approx.Trans (p/ours)"
    );
    let paper = five_circuits();
    let mut totals = (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for (bench, row) in Benchmark::ALL.iter().zip(&paper) {
        let inst = bench.build_default();
        let ours = inst.characteristics();
        println!(
            "{:<14} {:<6} {:<6} {:>8} /{:>8} {:>8} /{:>8} {:>8} /{:>8} {:>10} /{:>10}",
            row.name,
            row.technology,
            row.clocking,
            row.switches,
            ours.switches,
            row.gates,
            ours.gates,
            row.total_components(),
            ours.total,
            row.approx_transistors,
            ours.approx_transistors,
        );
        totals.0 += u64::from(row.switches);
        totals.1 += ours.switches as u64;
        totals.2 += u64::from(row.gates);
        totals.3 += ours.gates as u64;
        totals.4 += u64::from(row.approx_transistors);
        totals.5 += ours.approx_transistors;
    }
    println!(
        "{:<14} {:<6} {:<6} {:>8} /{:>8} {:>8} /{:>8} {:>8} /{:>8} {:>10} /{:>10}",
        "Average",
        "",
        "",
        totals.0 / 5,
        totals.1 / 5,
        totals.2 / 5,
        totals.3 / 5,
        (totals.0 + totals.2) / 5,
        (totals.1 + totals.3) / 5,
        totals.4 / 5,
        totals.5 / 5,
    );
}
