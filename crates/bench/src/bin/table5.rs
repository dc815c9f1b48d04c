//! Regenerates the paper's Table 5: model data normalized to 100,000
//! components, in both modes: the published numbers and the workloads
//! measured end-to-end from our circuit generators under random
//! vectors (`--quick` for a short measurement window).

use logicsim::core::paper_data::five_circuits;
use logicsim::core::Workload;
use logicsim_bench::{banner, measure_all, measure_options, millions};

fn main() {
    let measured = measure_all(&measure_options(false));
    banner("Table 5: Model Data Normalized to 100,000 Components");
    println!("--- as published ---");
    println!(
        "{:<14} {:>7} {:>9} {:>9} {:>13} {:>15}",
        "Circuit", "X", "B", "I", "E (millions)", "M_inf (millions)"
    );
    for c in five_circuits() {
        println!(
            "{:<14} {:>7.1} {:>9.0} {:>9.0} {:>13} {:>15}",
            c.name,
            c.scale_x,
            c.workload.busy_ticks,
            c.workload.idle_ticks,
            millions(c.workload.events),
            millions(c.workload.messages_inf),
        );
    }
    println!("--- measured from this reproduction's circuits ---");
    println!(
        "{:<14} {:>7} {:>9} {:>9} {:>13} {:>15}",
        "Circuit", "X", "B", "I", "E (millions)", "M_inf (millions)"
    );
    for m in &measured {
        println!(
            "{:<14} {:>7.1} {:>9.0} {:>9.0} {:>13} {:>15}",
            m.name,
            Workload::scale_factor(m.components, 100_000),
            m.normalized.busy_ticks,
            m.normalized.idle_ticks,
            millions(m.normalized.events),
            millions(m.normalized.messages_inf),
        );
    }
    println!(
        "\n(The measured window is {} ticks; the paper's runs covered\n\
         different absolute spans, so B/I/E magnitudes differ while the\n\
         ratios in Table 6 are the comparable quantities.)",
        measured[0].workload.total_ticks()
    );
}
