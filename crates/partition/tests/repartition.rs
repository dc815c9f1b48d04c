//! Regression tests for the optimize-then-repartition choice.
//!
//! A caller that simulates the optimized netlist on the parallel engine
//! has a cut computed on the *original* graph; it either carries that
//! cut over with `Optimized::remap_assignment` or recomputes it on the
//! optimized graph. These tests pin both properties: the recomputed FM
//! cut is no worse than the remapped one on every switch-heavy paper
//! benchmark, and the engine produces bit-identical results either way.
//!
//! Both cuts come from a randomized heuristic, so "no worse" is asserted
//! on the sum over eight seeds, and each single seed is held to a bound:
//! seed by seed either cut comes out ahead (on Stop Watch in 7 of 16
//! seeds under the exhaustive pass loop and in 5 of 16 under the
//! stall-bounded one, by up to a third either way; EXPERIMENTS.md,
//! "Set-up path", lists every seed).

use logicsim_circuits::Benchmark;
use logicsim_netlist::analyze::opt;
use logicsim_partition::{cut_size, FiducciaMattheysesPartitioner, Partition, Partitioner};
use logicsim_sim::ParSimulator;

const PARTS: u32 = 4;
const SEED: u64 = 1987;

#[test]
fn rerun_fm_cut_is_no_worse_than_remapped_cut() {
    for bench in Benchmark::ALL {
        let inst = bench.build_default();
        let optimized = opt::optimize(&inst.netlist);
        if optimized.netlist.num_components() == inst.netlist.num_components() {
            // Nothing rewritten; both paths are the identical cut.
            continue;
        }
        let (mut remapped_sum, mut fresh_sum) = (0, 0);
        for seed in SEED..SEED + 8 {
            let original = FiducciaMattheysesPartitioner::new(seed).partition(&inst.netlist, PARTS);
            let remapped = optimized.remap_assignment(original.as_slice());
            let remapped_cut = cut_size(&optimized.netlist, &Partition::new(remapped, PARTS));
            let fresh =
                FiducciaMattheysesPartitioner::new(seed).partition(&optimized.netlist, PARTS);
            let fresh_cut = cut_size(&optimized.netlist, &fresh);
            assert!(
                fresh_cut * 2 <= remapped_cut * 3,
                "{} seed {seed}: re-run FM cut {fresh_cut} more than half again the remapped cut {remapped_cut}",
                bench.paper_name()
            );
            remapped_sum += remapped_cut;
            fresh_sum += fresh_cut;
        }
        assert!(
            fresh_sum <= remapped_sum,
            "{}: re-run FM cuts sum to {fresh_sum}, worse than the remapped cuts' {remapped_sum}",
            bench.paper_name()
        );
    }
}

#[test]
fn repartition_preserves_simulation_results() {
    let inst = Benchmark::StopWatch.build_default();
    let optimized = opt::optimize(&inst.netlist);

    let run = |assignment: &[u32]| {
        let mut stim = inst
            .stimulus
            .build(&optimized.netlist, SEED)
            .expect("benchmark stimulus resolves");
        let mut sim = ParSimulator::new(&optimized.netlist, assignment, 2).expect("pre-flight");
        for t in 0..2_000 {
            stim.apply_with(t, |net, level| sim.set_input(net, level));
            sim.run_until(t + 1);
        }
        inst.netlist
            .outputs()
            .iter()
            .map(|&o| sim.level(o))
            .collect::<Vec<_>>()
    };

    let fm = FiducciaMattheysesPartitioner::new(SEED);
    let remapped = run(&optimized.remap_assignment(fm.partition(&inst.netlist, PARTS).as_slice()));
    let repartitioned = run(fm.partition(&optimized.netlist, PARTS).as_slice());
    assert_eq!(
        remapped, repartitioned,
        "partition placement must never change simulated values"
    );
}
