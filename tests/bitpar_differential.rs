//! Differential proof for the bit-parallel compiled backend.
//!
//! Both engines are driven by the identical **vector-synchronous
//! quiescence protocol**: at vector `v`, compute every input's stimulus
//! level at role-tick `v`, apply it, run the engine until the circuit
//! is fully settled, then sample the primary outputs. For the 64-lane
//! [`BitParSim`] batch, lane `i` draws its stimulus from seed
//! [`Stimulus64::lane_seed`]`(0x1987, i)`; the serial event-driven
//! reference replays each lane with a scalar [`RandomStimulus`] built
//! from the same per-lane seed. Settled values of the settled output
//! trajectory are folded into one FNV-1a digest per lane, and every
//! lane must be **bit-identical** to its serial replay — on all five
//! paper benchmarks, the switch-heavy ones included, and on a
//! hand-built tristate bus (the one circuit here no benchmark family
//! contains).
//!
//! Lane count defaults to 64 and can be overridden with the
//! `LSIM_BITPAR_LANES` environment variable (CI runs {1, 7, 64}).

use logicsim::circuits::Benchmark;
use logicsim::sim::{BitParSim, Simulator, Stimulus64};

/// FNV-1a 64-bit over a byte slice, continuing from `h`.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Vectors applied per benchmark (each fully settled before sampling).
const VECTORS: u64 = 48;

/// Tick budget per quiescence run (generous; the benchmarks settle in
/// well under this per vector).
const CAP: u64 = 50_000;

fn lanes_under_test() -> usize {
    match std::env::var("LSIM_BITPAR_LANES") {
        Ok(s) => {
            let n: usize = s
                .parse()
                .unwrap_or_else(|_| panic!("LSIM_BITPAR_LANES must be 1..=64, got `{s}`"));
            assert!((1..=64).contains(&n), "LSIM_BITPAR_LANES out of range");
            n
        }
        Err(_) => 64,
    }
}

/// Serial reference: the event-driven engine replaying one lane's
/// stimulus under the vector-synchronous quiescence protocol.
fn serial_lane_digest(bench: Benchmark, lane: usize) -> u64 {
    let inst = bench.build_default();
    let mut stim = inst
        .stimulus
        .build(&inst.netlist, Stimulus64::lane_seed(0x1987, lane))
        .expect("benchmark stimulus resolves");
    let mut sim = Simulator::new(&inst.netlist).expect("pre-flight");
    let mut h = FNV_OFFSET;
    for v in 0..VECTORS {
        stim.apply_with(v, |net, level| sim.set_input(net, level));
        let target = sim.now() + CAP;
        let end = sim.run_to_quiescence(target);
        assert!(
            end < target,
            "{bench:?} lane {lane}: no quiescence at v={v}"
        );
        fnv1a(&mut h, &v.to_le_bytes());
        for &out in inst.netlist.outputs() {
            fnv1a(&mut h, &[sim.level(out) as u8]);
        }
    }
    h
}

/// Batch run: all lanes at once on the bit-parallel backend; returns
/// one digest per lane plus the backend's stats.
fn bitpar_lane_digests(bench: Benchmark, lanes: usize) -> (Vec<u64>, logicsim::sim::BitParStats) {
    let inst = bench.build_default();
    let mut stim = Stimulus64::new(&inst.stimulus, &inst.netlist, 0x1987, lanes)
        .expect("benchmark stimulus resolves");
    let mut sim = BitParSim::new(&inst.netlist, lanes).expect("pre-flight");
    let mut digests = vec![FNV_OFFSET; lanes];
    for v in 0..VECTORS {
        stim.apply_with(v, |net, plane| sim.set_input_plane(net, plane));
        assert!(sim.settle_vector(), "{bench:?}: vector {v} did not settle");
        for (lane, h) in digests.iter_mut().enumerate() {
            fnv1a(h, &v.to_le_bytes());
            for &out in inst.netlist.outputs() {
                fnv1a(h, &[sim.level(out, lane) as u8]);
            }
        }
    }
    (digests, sim.stats())
}

fn check(bench: Benchmark) {
    let lanes = lanes_under_test();
    let (got, stats) = bitpar_lane_digests(bench, lanes);
    for (lane, &digest) in got.iter().enumerate() {
        let want = serial_lane_digest(bench, lane);
        assert_eq!(
            digest,
            want,
            "{}: lane {lane}/{lanes} diverged from the event-driven engine \
             (stats: {stats:?})",
            bench.paper_name()
        );
    }
    assert_eq!(stats.unconverged_vectors, 0, "{}", bench.paper_name());
}

#[test]
fn stop_watch_lanes_match_event_engine() {
    check(Benchmark::StopWatch);
}

#[test]
fn assoc_mem_lanes_match_event_engine() {
    check(Benchmark::AssocMem);
}

#[test]
fn priority_queue_lanes_match_event_engine() {
    check(Benchmark::PriorityQueue);
}

#[test]
fn rtp_chip_lanes_match_event_engine() {
    check(Benchmark::RtpChip);
}

#[test]
fn crossbar_switch_lanes_match_event_engine() {
    check(Benchmark::CrossbarSwitch);
}

/// The shape of the compiled program is part of the contract: every
/// component of every family compiles (there is nothing to fall back
/// to), the switch-heavy benchmarks compile their channel groups into
/// vectorized solver cells, and the all-gate crossbar into gate ops.
#[test]
fn hybrid_split_matches_benchmark_structure() {
    for bench in Benchmark::ALL {
        let inst = bench.build_default();
        let st = BitParSim::new(&inst.netlist, 1)
            .expect("pre-flight")
            .stats();
        assert_eq!(
            st.fallback_components,
            0,
            "{}: everything compiles: {st:?}",
            bench.paper_name()
        );
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

    let lanes = lanes_under_test();
    let inputs = [d0, d1, en0, en1, c];
    let mut sim = BitParSim::new(&n, lanes).expect("pre-flight");
    let st = sim.stats();
    assert!(
        st.solver_cells >= 1 && st.fallback_components == 0,
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
        assert!(sim.settle_vector(), "vector {v} did not settle");
        for (lane, ssim) in serial.iter_mut().enumerate() {
            let target = ssim.now() + CAP;
            assert!(ssim.run_to_quiescence(target) < target, "lane {lane} v={v}");
            for &out in n.outputs() {
                assert_eq!(
                    sim.level(out, lane),
                    ssim.level(out),
                    "net {} lane {lane} vector {v}",
                    n.net_name(out)
                );
            }
        }
    }
}
