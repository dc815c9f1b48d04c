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
//! (EXPERIMENTS.md, "Switch groups run whole in one party").

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
    ("rtp", 0x1987, 2, 770, 587600), // beta 1.100
    ("rtp", 0x1987, 4, 771, 342663), // beta 1.283
    ("rtp", 0x1987, 8, 2944, 190178), // beta 1.424
    ("rtp", 0x2b, 2, 770, 565708), // beta 1.081
    ("rtp", 0x2b, 4, 7342, 315046), // beta 1.205
    ("rtp", 0x2b, 8, 7344, 200219), // beta 1.531
    ("assoc_mem", 0x1987, 2, 5705, 315965), // beta 1.157
    ("assoc_mem", 0x1987, 4, 11666, 189823), // beta 1.390
    ("assoc_mem", 0x1987, 8, 15717, 122409), // beta 1.792
    ("assoc_mem", 0x2b, 2, 4301, 162560), // beta 1.330
    ("assoc_mem", 0x2b, 4, 5424, 133523), // beta 2.185
    ("assoc_mem", 0x2b, 8, 8712, 69327), // beta 2.269
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
