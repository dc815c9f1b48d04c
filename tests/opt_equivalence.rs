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
//! serial [`Simulator`] and the [`ParSimulator`] at P ∈ {1, 2, 4}, with
//! the partition computed on the **original** graph and carried over by
//! `Optimized::remap_assignment`.
//!
//! A final test pins the headline claim of `lsim opt --report`: the
//! optimizer must find actual reductions on at least three of the five
//! paper benchmarks (it currently reduces all five).

use logicsim::circuits::{Benchmark, BenchmarkInstance};
use logicsim::netlist::analyze::opt::optimize;
use logicsim::netlist::{Level, Netlist};
use logicsim::partition::{Partitioner, RandomPartitioner};
use logicsim::sim::stimulus::Stimulus;
use logicsim::sim::{ParSimulator, Simulator};

/// FNV-1a 64-bit over a byte slice, continuing from `h`.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// Encodes a level as one byte for digesting.
fn level_byte(l: Level) -> u8 {
    match l {
        Level::Zero => 0,
        Level::One => 1,
        Level::X => 2,
    }
}

/// Measurement window for one instance: warm-up end and run end.
fn window(inst: &BenchmarkInstance) -> (u64, u64) {
    let warmup = 8 * inst.vector_period.max(1);
    (warmup, warmup + 3_000)
}

/// Digests the observed-output waveform of a serial run of `netlist`
/// (the instance's own netlist or its optimized rewrite; net ids agree).
fn digest_serial(inst: &BenchmarkInstance, netlist: &Netlist) -> u64 {
    let mut stim = inst
        .stimulus
        .build(netlist, 0x1987)
        .expect("benchmark stimulus resolves");
    let mut sim = Simulator::new(netlist).expect("pre-flight");
    let (warmup, end) = window(inst);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for t in 0..end {
        stim.apply(&mut sim, t);
        sim.step();
        if t >= warmup {
            for &o in inst.netlist.outputs() {
                fnv1a(&mut h, &[level_byte(sim.level(o))]);
            }
        }
    }
    h
}

/// Digests the observed-output waveform of a parallel run of `netlist`
/// under `assignment` at `workers` evaluator threads.
fn digest_par(
    inst: &BenchmarkInstance,
    netlist: &Netlist,
    assignment: &[u32],
    workers: usize,
) -> u64 {
    let mut stim = inst
        .stimulus
        .build(netlist, 0x1987)
        .expect("benchmark stimulus resolves");
    let mut sim = ParSimulator::new(netlist, assignment, workers).expect("pre-flight");
    let (warmup, end) = window(inst);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    sim.run_with(warmup, |tick, frame| {
        stim.apply_with(tick, |net, level| frame.set(net, level));
    });
    for t in warmup..end {
        sim.run_with(t + 1, |tick, frame| {
            stim.apply_with(tick, |net, level| frame.set(net, level));
        });
        for &o in inst.netlist.outputs() {
            fnv1a(&mut h, &[level_byte(sim.level(o))]);
        }
    }
    h
}

/// Original-vs-optimized equivalence on one benchmark, serial plus the
/// parallel engine at P ∈ {1, 2, 4}.
fn check(bench: Benchmark) {
    let inst = bench.build_default();
    let opt = optimize(&inst.netlist);
    let reference = digest_serial(&inst, &inst.netlist);
    assert_eq!(
        digest_serial(&inst, &opt.netlist),
        reference,
        "{}: optimized serial run diverged on an observed output",
        bench.paper_name()
    );
    for workers in [1usize, 2, 4] {
        let part = RandomPartitioner::new(0x1987).partition(&inst.netlist, workers as u32);
        let assignment = opt.remap_assignment(part.as_slice());
        assert_eq!(
            digest_par(&inst, &opt.netlist, &assignment, workers),
            reference,
            "{}: optimized ParSimulator at P={workers} diverged on an observed output",
            bench.paper_name()
        );
    }
}

#[test]
fn stop_watch_optimized_is_equivalent() {
    check(Benchmark::StopWatch);
}

#[test]
fn assoc_mem_optimized_is_equivalent() {
    check(Benchmark::AssocMem);
}

#[test]
fn priority_queue_optimized_is_equivalent() {
    check(Benchmark::PriorityQueue);
}

#[test]
fn rtp_chip_optimized_is_equivalent() {
    check(Benchmark::RtpChip);
}

#[test]
fn crossbar_switch_optimized_is_equivalent() {
    check(Benchmark::CrossbarSwitch);
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
