//! Traffic gate for the graph partitioners (release only, `--ignored`).
//!
//! The cut of the connectivity graph is a proxy. What a partition is
//! for is fewer messages between the parties (Eq. 6's `M_P`) and work
//! spread evenly over them (Eq. 10's `beta`), and a change to the graph
//! can lower the cut and move either of those the other way. So this
//! pins what `ml-act` partitions, the benchmark's partitioner, measure
//! on `ParSimulator`: `messages_crossing` and the busiest party's
//! evaluations over a fixed window (24 vector periods of warm-up, then
//! [`WINDOW`] ticks), on `rtp@10k` and `assoc_mem@10k` (the families
//! with supply rails), seeds `0x1987` and `0x2b` (wiring, partitioner
//! and stimulus seed alike, as in a benchmark job), P in {2, 4, 8}.
//! Every party's evaluations add up to the serial engine's, so the
//! busiest one gives per-party evaluation `beta` = busiest ÷ mean.
//!
//! A change that moves a partition moves these rows. On a mismatch the
//! test prints the computed table, with `beta`, in source form: re-pin
//! it, and report the moved rows beside the parent's as the change's
//! measure of traffic, not the cut. The rows were recorded when supply
//! rails stopped joining the components on them; EXPERIMENTS.md
//! ("Rails out of the graph") sets them beside the rows before. The
//! busiest-party column of the `rtp` rows was re-pinned, with
//! `messages_crossing` unmoved, when every switch group came to run in
//! the party of its coupling cluster's lowest-id switch: the switches
//! and gates that rule re-homes take their evaluations with them
//! (EXPERIMENTS.md, "Switch groups run whole in one party"). Every row
//! was re-pinned when coarsening came to contract heavy-edge clusters
//! instead of a heavy-edge matching: the `rtp` rows fell (770 → 3
//! messages at `0x1987`, P = 2), the `assoc_mem` rows moved both ways
//! (EXPERIMENTS.md, "Heavy-edge clusters", has both tables).

use logicsim_circuits::{scaled, Benchmark, ScaledParams};
use logicsim_partition::{MultilevelPartitioner, Partitioner};
use logicsim_sim::ParSimulator;

const SEEDS: [u64; 2] = [0x1987, 0x2b];
const PARTS: [u32; 3] = [2, 4, 8];
const FAMILIES: [Benchmark; 2] = [Benchmark::RtpChip, Benchmark::AssocMem];

/// Vector periods run before the measurements are reset, as in a
/// benchmark job.
const WARMUP_PERIODS: u64 = 24;

/// Ticks of the measured window.
const WINDOW: u64 = 10_000;

/// `(family, seed, P, messages_crossing, busiest party's evaluations)`.
#[rustfmt::skip]
const PINS: &[(&str, u64, u32, u64, u64)] = &[
    ("rtp", 0x1987, 2, 3, 556846), // beta 1.043
    ("rtp", 0x1987, 4, 3, 315804), // beta 1.183
    ("rtp", 0x1987, 8, 1639, 195291), // beta 1.463
    ("rtp", 0x2b, 2, 97, 552354), // beta 1.056
    ("rtp", 0x2b, 4, 97, 311340), // beta 1.190
    ("rtp", 0x2b, 8, 98, 188405), // beta 1.441
    ("assoc_mem", 0x1987, 2, 9835, 330382), // beta 1.209
    ("assoc_mem", 0x1987, 4, 11934, 206879), // beta 1.514
    ("assoc_mem", 0x1987, 8, 14991, 124050), // beta 1.816
    ("assoc_mem", 0x2b, 2, 4592, 159699), // beta 1.307
    ("assoc_mem", 0x2b, 4, 8276, 86422), // beta 1.414
    ("assoc_mem", 0x2b, 8, 9750, 50652), // beta 1.658
];

/// `(messages_crossing, evaluations per party)` of `ml-act` at `parts`
/// on `family@10k` wired, partitioned and stimulated from `seed`.
fn traffic(family: Benchmark, seed: u64, parts: u32) -> (u64, Vec<u64>) {
    let inst = scaled::build(&ScaledParams {
        base: family,
        target_components: 10_000,
        seed,
    });
    let nl = &inst.netlist;
    let partition = MultilevelPartitioner::new(seed)
        .with_activity_weights()
        .partition(nl, parts);
    let mut sim = ParSimulator::new(nl, partition.as_slice(), parts as usize).expect("pre-flight");
    let mut stim = inst.stimulus.build(nl, seed).expect("stimulus");
    let warm = WARMUP_PERIODS * inst.vector_period.max(1);
    let mut run = |sim: &mut ParSimulator<'_>, to: u64| {
        sim.run_with(to, |tick, frame| {
            stim.apply_with(tick, |net, level| frame.set(net, level));
        });
    };
    run(&mut sim, warm);
    sim.reset_measurements();
    run(&mut sim, warm + WINDOW);
    let evals = sim.worker_loads().iter().map(|l| l.evaluations).collect();
    (sim.messages_crossing(), evals)
}

#[test]
#[ignore = "release only: twelve parallel runs of 10k-component circuits"]
fn ml_act_traffic_at_10k_reproduces_its_pins() {
    let mut got = Vec::new();
    let mut table = Vec::new();
    for family in FAMILIES {
        for seed in SEEDS {
            for parts in PARTS {
                let (crossing, evals) = traffic(family, seed, parts);
                let busiest = evals.iter().copied().max().unwrap_or(0);
                let mean = evals.iter().sum::<u64>() as f64 / f64::from(parts);
                got.push((family.slug(), seed, parts, crossing, busiest));
                table.push(format!(
                    "    ({:?}, {seed:#x}, {parts}, {crossing}, {busiest}), // beta {:.3}",
                    family.slug(),
                    busiest as f64 / mean
                ));
            }
        }
    }
    println!("{}", table.join("\n"));
    assert!(
        got.iter().eq(PINS.iter()),
        "ml-act's traffic differs from the pinned table (computed table printed above)"
    );
}
