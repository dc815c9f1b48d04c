//! Golden-digest equivalence for the tiled 10k corpus.
//!
//! A scaled instance is only a valid benchmark if every engine tells
//! the same story about it. For each family's `@10k` instance this
//! suite checks two protocols:
//!
//! * **Tick window** — the serial event-driven engine and the
//!   thread-parallel [`ParSimulator`] at `P` in {1, 2, 4} (under
//!   multilevel partitions, so the new partitioner is exercised on the
//!   simulation path, not just in cut-size studies) replay the same
//!   stimulus window; workload counters must match *exactly* and the
//!   final settled levels of every observable output must fold to the
//!   same FNV-1a digest.
//! * **Vector quiescence** — the serial engine replaying lane 0's
//!   stimulus and lane 0 of the bit-parallel compiled backend settle
//!   the same vectors; the sampled output trajectory must be
//!   bit-identical.
//!
//! * **64 lanes** — the two protocols above compare engines with each
//!   other, and the second reads lane 0 only. The bit-parallel engine's
//!   other 63 lanes are held to a number: 64 vectors at 64 lanes, every
//!   net folded lane by lane after every vector (net-major, the way
//!   `benchmark/src/job.rs::fold` folds outputs into `digest64`; every
//!   net, not the outputs, because 64 vectors after power-up most
//!   output lanes are still X — all 3 840 of Priority Q.). The pins
//!   were recorded on commit `4166d21`, whose sweep re-evaluated every
//!   member of a feedback cluster on every pass; a later sweep that
//!   skips work must land on the same numbers.
//!
//! Together these pin the 10k instances as cross-engine golden: any
//! generator change that perturbs simulated behavior (not just
//! structure) trips one of the digests.

use logicsim::circuits::{scaled, Benchmark, BenchmarkInstance, ScaledParams};
use logicsim::partition::multilevel_assignment;
use logicsim::sim::stimulus::run_with_stimulus;
use logicsim::sim::{BitParSim, ParSimulator, Simulator, Stimulus64};

/// FNV-1a 64-bit over a byte slice, continuing from `h`.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Stimulus window for the tick-protocol comparison.
const WINDOW: u64 = 200;

/// Settled vectors for the quiescence-protocol comparison.
const VECTORS: u64 = 6;

/// Tick budget per quiescence run.
const CAP: u64 = 50_000;

fn instance_10k(bench: Benchmark) -> BenchmarkInstance {
    let inst = scaled::build(&ScaledParams {
        base: bench,
        target_components: 10_000,
        seed: scaled::DEFAULT_SEED,
    });
    assert!(inst.netlist.num_simulated_components() >= 10_000);
    inst
}

/// Digest of every observable output's settled level.
fn output_digest(
    netlist: &logicsim::netlist::Netlist,
    level: impl Fn(logicsim::netlist::NetId) -> logicsim::netlist::Level,
) -> u64 {
    let mut h = FNV_OFFSET;
    for &out in netlist.outputs() {
        fnv1a(&mut h, &[level(out) as u8]);
    }
    h
}

/// Serial and parallel engines replay the same tick window; returns
/// (counters, output digest) per engine configuration.
fn tick_protocol_matches(bench: Benchmark) {
    let inst = instance_10k(bench);
    let nl = &inst.netlist;

    let mut stim = inst.stimulus.build(nl, 0x1987).expect("stimulus");
    let mut sim = Simulator::new(nl).expect("pre-flight");
    run_with_stimulus(&mut sim, &mut stim, WINDOW);
    let serial_counters = sim.counters().clone();
    let serial_digest = output_digest(nl, |net| sim.level(net));
    assert!(
        serial_counters.events > 0,
        "{bench:?}: window saw no events"
    );

    for workers in [1usize, 2, 4] {
        let assignment = multilevel_assignment(nl, workers as u32, 11);
        let mut pstim = inst.stimulus.build(nl, 0x1987).expect("stimulus");
        let mut psim = ParSimulator::new(nl, &assignment, workers).expect("pre-flight");
        psim.run_with(WINDOW, |tick, frame| {
            pstim.apply_with(tick, |net, level| frame.set(net, level));
        });
        assert_eq!(
            psim.counters(),
            &serial_counters,
            "{bench:?} P={workers}: parallel counters diverged"
        );
        let digest = output_digest(nl, |net| psim.level(net));
        assert_eq!(
            digest, serial_digest,
            "{bench:?} P={workers}: settled outputs diverged from serial"
        );
    }
}

/// Serial lane-0 replay and bit-parallel lane 0 settle the same
/// vectors; trajectories must fold to the same digest.
fn vector_protocol_matches(bench: Benchmark) {
    let inst = instance_10k(bench);
    let nl = &inst.netlist;

    let mut stim = inst
        .stimulus
        .build(nl, Stimulus64::lane_seed(0x1987, 0))
        .expect("stimulus");
    let mut sim = Simulator::new(nl).expect("pre-flight");
    let mut serial = FNV_OFFSET;
    for v in 0..VECTORS {
        stim.apply_with(v, |net, level| sim.set_input(net, level));
        let target = sim.now() + CAP;
        assert!(
            sim.run_to_quiescence(target) < target,
            "{bench:?}: serial v={v} did not settle"
        );
        fnv1a(&mut serial, &v.to_le_bytes());
        for &out in nl.outputs() {
            fnv1a(&mut serial, &[sim.level(out) as u8]);
        }
    }

    let mut stim64 = Stimulus64::new(&inst.stimulus, nl, 0x1987, 2).expect("stimulus");
    let mut bp = BitParSim::new(nl, 2).expect("pre-flight");
    let mut lane0 = FNV_OFFSET;
    for v in 0..VECTORS {
        stim64.apply_with(v, |net, plane| bp.set_input_plane(net, plane));
        assert!(bp.settle_vector(), "{bench:?}: bitpar v={v} did not settle");
        fnv1a(&mut lane0, &v.to_le_bytes());
        for &out in nl.outputs() {
            fnv1a(&mut lane0, &[bp.level(out, 0) as u8]);
        }
    }
    assert_eq!(
        lane0,
        serial,
        "{}@10k: bitpar lane 0 diverged from the event-driven engine",
        bench.paper_name()
    );
}

/// 64 vectors at 64 lanes fold to the pinned digest.
fn digest64_matches(bench: Benchmark, pinned: u64) {
    let inst = instance_10k(bench);
    let nl = &inst.netlist;
    let mut stim64 = Stimulus64::new(&inst.stimulus, nl, 0x1987, 64).expect("stimulus");
    let mut bp = BitParSim::new(nl, 64).expect("pre-flight");
    let mut digest = FNV_OFFSET;
    for v in 0..64 {
        stim64.apply_with(v, |net, plane| bp.set_input_plane(net, plane));
        assert!(bp.settle_vector(), "{bench:?}: bitpar v={v} did not settle");
        for net in (0..nl.num_nets() as u32).map(logicsim::netlist::NetId) {
            for lane in 0..64 {
                fnv1a(&mut digest, &[bp.level(net, lane) as u8]);
            }
        }
    }
    assert_eq!(
        digest,
        pinned,
        "{}@10k: 64-lane digest {digest:#018x} left its pin",
        bench.paper_name()
    );
}

macro_rules! golden {
    ($tick:ident, $vec:ident, $d64:ident, $bench:expr, $pinned:expr) => {
        #[test]
        fn $tick() {
            tick_protocol_matches($bench);
        }
        #[test]
        fn $vec() {
            vector_protocol_matches($bench);
        }
        #[test]
        fn $d64() {
            digest64_matches($bench, $pinned);
        }
    };
}

golden!(
    stopwatch_10k_tick_window_golden,
    stopwatch_10k_vector_quiescence_golden,
    stopwatch_10k_digest64_golden,
    Benchmark::StopWatch,
    0x9bd3_e0eb_3f2f_3325
);
golden!(
    assoc_mem_10k_tick_window_golden,
    assoc_mem_10k_vector_quiescence_golden,
    assoc_mem_10k_digest64_golden,
    Benchmark::AssocMem,
    0xa52d_4623_27fb_e1fb
);
golden!(
    priority_queue_10k_tick_window_golden,
    priority_queue_10k_vector_quiescence_golden,
    priority_queue_10k_digest64_golden,
    Benchmark::PriorityQueue,
    0x549d_7ca8_8a6d_6325
);
golden!(
    rtp_chip_10k_tick_window_golden,
    rtp_chip_10k_vector_quiescence_golden,
    rtp_chip_10k_digest64_golden,
    Benchmark::RtpChip,
    0xedfe_a823_c473_d525
);
golden!(
    crossbar_10k_tick_window_golden,
    crossbar_10k_vector_quiescence_golden,
    crossbar_10k_digest64_golden,
    Benchmark::CrossbarSwitch,
    0xa2fb_0b28_5087_97a5
);
