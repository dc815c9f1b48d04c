//! Differential proof for the bit-parallel compiled backend.
//!
//! Both engines are driven by the identical **vector-synchronous
//! quiescence protocol**: at vector `v`, compute every input's stimulus
//! level at role-tick `v`, apply it, run the engine until the circuit
//! is fully settled, then sample the primary outputs. For the 64-lane
//! [`BitParSim`] batch, lane `i` draws its stimulus from seed
//! `Stimulus64::lane_seed(0x1987, i)`; the serial event-driven
//! reference replays each lane with a scalar `RandomStimulus` built
//! from the same per-lane seed. Settled values of the settled output
//! trajectory are folded into one FNV-1a digest per lane, and every
//! lane must be **bit-identical** to its serial replay — on all five
//! paper benchmarks, the switch-heavy ones included, and on a
//! hand-built tristate bus (the one circuit here no benchmark family
//! contains).
//!
//! Every benchmark and the bus run at 64, 7 and 1 lanes (a full word, a
//! partial one, the degenerate one). Lane `i`'s stimulus does not
//! depend on the lane count, so one set of 64 serial replays serves all
//! three widths. The benchmark rows run through the shared
//! vector-quiescence driver in `tests/common`.

#[macro_use]
mod common;

use common::{lanes_match, settle};
use logicsim::circuits::Benchmark;
use logicsim::sim::{BitParSim, Simulator};

/// The lane counts of every row.
const LANES: [usize; 3] = [64, 7, 1];

/// 48 vectors, each fully settled before sampling.
fn check(bench: Benchmark) {
    lanes_match(&bench.build_default(), None, &LANES, 48);
}

rows! {
    stop_watch_lanes_match_event_engine => check(Benchmark::StopWatch);
    assoc_mem_lanes_match_event_engine => check(Benchmark::AssocMem);
    priority_queue_lanes_match_event_engine => check(Benchmark::PriorityQueue);
    rtp_chip_lanes_match_event_engine => check(Benchmark::RtpChip);
    crossbar_switch_lanes_match_event_engine => check(Benchmark::CrossbarSwitch);
}

/// The shape of the compiled program is part of the contract: the
/// switch-heavy benchmarks compile their channel groups into vectorized
/// solver cells, and the all-gate crossbar into gate ops.
#[test]
fn hybrid_split_matches_benchmark_structure() {
    for bench in Benchmark::ALL {
        let inst = bench.build_default();
        let st = BitParSim::new(&inst.netlist, 1)
            .expect("pre-flight")
            .stats();
        match bench {
            Benchmark::PriorityQueue => assert!(
                st.solver_cells > 0 && st.compiled_switches > 0,
                "priority queue is switch-heavy; cells must be populated: {st:?}"
            ),
            Benchmark::CrossbarSwitch => assert!(
                st.compiled_gates > 0,
                "crossbar is pure gates; compiled region must be populated"
            ),
            _ => {}
        }
    }
}

/// Differential proof for the topologies that used to run on an embedded
/// event engine (hence the name): a shared tristate bus feeding a pass
/// gate with a charge-storage node, read back by an inverter — one
/// solver cell whose sources are gated by the two live enables.
/// Stimulus covers 0/1/X per input per lane via an LCG, re-drawing one
/// input per vector: the program has no delays, and with two inputs
/// moving at once the event engine's own result on this bus depends on
/// the two tristate delays (DESIGN.md §15). Every lane must match the
/// serial event-driven engine on every settled vector.
#[test]
fn live_tristate_bus_exercises_fallback_and_matches() {
    use logicsim::netlist::{Delay, GateKind, Level, NetlistBuilder, Plane, SwitchKind};

    let mut b = NetlistBuilder::new("tribus");
    let d0 = b.input("d0");
    let d1 = b.input("d1");
    let en0 = b.input("en0");
    let en1 = b.input("en1");
    let c = b.input("c");
    let y = b.net("y");
    b.gate(GateKind::Tristate, &[d0, en0], y, Delay::uniform(1));
    b.gate(GateKind::Tristate, &[d1, en1], y, Delay::uniform(2));
    let z = b.net("z");
    b.switch(SwitchKind::Nmos, c, y, z);
    let q = b.net("q");
    b.gate(GateKind::Not, &[z], q, Delay::uniform(1));
    b.mark_output(y);
    b.mark_output(z);
    b.mark_output(q);
    let n = b.finish().expect("valid netlist");

    let inputs = [d0, d1, en0, en1, c];
    for lanes in LANES {
        let mut sim = BitParSim::new(&n, lanes).expect("pre-flight");
        let st = sim.stats();
        assert!(
            st.solver_cells >= 1,
            "bus tristates and switch compile into a cell: {st:?}"
        );
        let mut serial: Vec<Simulator<'_>> = (0..lanes)
            .map(|_| Simulator::new(&n).expect("pre-flight"))
            .collect();

        // Deterministic 0/1/X stimulus (plain LCG; no external RNG).
        let mut state = 0x1987_u64;
        let mut next_level = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            match (state >> 33) % 4 {
                0 => Level::Zero,
                1 | 2 => Level::One,
                _ => Level::X,
            }
        };
        for v in 0..120_usize {
            let net = inputs[v % inputs.len()];
            let mut plane = Plane::ALL_X;
            for (lane, sim) in serial.iter_mut().enumerate() {
                let lvl = next_level();
                plane = plane.with_lane(lane, lvl);
                sim.set_input(net, lvl);
            }
            sim.set_input_plane(net, plane);
            assert!(
                sim.settle_vector(),
                "{lanes} lanes: vector {v} did not settle"
            );
            for (lane, ssim) in serial.iter_mut().enumerate() {
                settle(ssim, &format!("lane {lane}/{lanes} v={v}"));
                for &out in n.outputs() {
                    assert_eq!(
                        sim.level(out, lane),
                        ssim.level(out),
                        "net {} lane {lane}/{lanes} vector {v}",
                        n.net_name(out)
                    );
                }
            }
        }
    }
}
