//! Proof-of-equivalence harness for the static netlist optimizer.
//!
//! For each benchmark circuit, the original and the optimized netlist
//! are driven with the identical random stimulus (seed 0x1987, 8
//! vector-period warm-up, 3000-tick window) and the per-tick levels of
//! every declared output net are folded into an FNV-1a digest. The
//! optimizer preserves net ids for inputs and outputs, so the same
//! `NetId`s are sampled on both sides; any divergence in any observed
//! net at any tick is a digest mismatch.
//!
//! The optimized run constructs the engines on [`optimize`]'s output —
//! as `par_study` and the model-validation harness do — on both the
//! serial `Simulator` and the `ParSimulator` at P ∈ {1, 2, 4}, with
//! the partition computed on the **original** graph and carried over by
//! `Optimized::remap_assignment`. The optimized netlist also runs on
//! `BitParSim`: 48 settled vectors at 64 lanes, every lane's output
//! trajectory equal to a serial replay of that lane on the original.
//! All rows run through the shared drivers in `tests/common`.
//!
//! A final test pins the headline claim of `lsim opt --report`: the
//! optimizer must find actual reductions on at least three of the five
//! paper benchmarks (it currently reduces all five).

#[macro_use]
mod common;

use common::Engine::{ParRandom, Serial};
use common::{lanes_match, window_rows, Fold, Window};
use logicsim::circuits::Benchmark;
use logicsim::netlist::analyze::opt::optimize;

/// Seed 0x1987, 8 warm-up vector periods, a 3000-tick window, every
/// output folded after every tick.
const WINDOW: Window = Window(8, 3_000, Fold::OutputsEveryTick);

/// The engines run on the optimized netlist, each against the serial
/// engine on the original.
const ENGINES: [common::Engine; 4] = [Serial, ParRandom(1), ParRandom(2), ParRandom(4)];

/// Original-vs-optimized equivalence on one benchmark: the tick window
/// on every engine, then 48 settled vectors on `BitParSim` at 64 lanes.
fn check(bench: Benchmark) {
    let inst = bench.build_default();
    let opt = optimize(&inst.netlist);
    window_rows(&inst, Some(&opt), &ENGINES, WINDOW);
    lanes_match(&inst, Some(&opt), &[64], 48);
}

rows! {
    stop_watch_optimized_is_equivalent => check(Benchmark::StopWatch);
    assoc_mem_optimized_is_equivalent => check(Benchmark::AssocMem);
    priority_queue_optimized_is_equivalent => check(Benchmark::PriorityQueue);
    rtp_chip_optimized_is_equivalent => check(Benchmark::RtpChip);
    crossbar_switch_optimized_is_equivalent => check(Benchmark::CrossbarSwitch);
}

#[test]
fn optimizer_reduces_most_benchmarks() {
    let mut reduced = 0;
    for bench in Benchmark::ALL {
        let (opt, report) = bench.build_default().optimized();
        assert_eq!(
            report.reduction(),
            opt.netlist
                .num_components()
                .abs_diff(report.components_before),
            "{}: report disagrees with the emitted netlist",
            bench.paper_name()
        );
        if report.reduction() > 0 {
            reduced += 1;
        }
    }
    assert!(
        reduced >= 3,
        "optimizer reduced only {reduced}/5 benchmarks; expected at least 3"
    );
}
