//! Regression tests for the optimize-then-repartition choice.
//!
//! A caller that simulates the optimized netlist on the parallel engine
//! has a cut computed on the *original* graph; it either carries that
//! cut over with `Optimized::remap_assignment` or recomputes it on the
//! optimized graph. These tests pin both properties: the recomputed FM
//! cut is no worse than the remapped one on every switch-heavy paper
//! benchmark, and the engine produces bit-identical results either way.

use logicsim_circuits::Benchmark;
use logicsim_netlist::analyze::opt;
use logicsim_partition::{
    cut_size, fm_assignment, FiducciaMattheysesPartitioner, Partition, Partitioner,
};
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
        let original = FiducciaMattheysesPartitioner::new(SEED).partition(&inst.netlist, PARTS);
        let remapped = optimized.remap_assignment(original.as_slice());
        let remapped_cut = cut_size(&optimized.netlist, &Partition::new(remapped, PARTS));
        let fresh = fm_assignment(&optimized.netlist, PARTS, SEED);
        let fresh_cut = cut_size(&optimized.netlist, &Partition::new(fresh, PARTS));
        assert!(
            fresh_cut <= remapped_cut,
            "{}: re-run FM cut {fresh_cut} worse than remapped cut {remapped_cut}",
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

    let remapped = run(&optimized.remap_assignment(&fm_assignment(&inst.netlist, PARTS, SEED)));
    let repartitioned = run(&fm_assignment(&optimized.netlist, PARTS, SEED));
    assert_eq!(
        remapped, repartitioned,
        "partition placement must never change simulated values"
    );
}
