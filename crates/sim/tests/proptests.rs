//! Property tests for the event-driven simulator: determinism and
//! agreement with direct combinational evaluation. (The event list's
//! own proptest against a binary heap, `wheel_equals_heap`, lives in
//! `src/wheel.rs`, where it can see how many buffers the wheel holds.)

use logicsim_netlist::{Delay, GateKind, Level, NetId, NetlistBuilder};
use logicsim_sim::{SimConfig, Simulator};
use proptest::prelude::*;

#[path = "common/cyclic.rs"]
mod cyclic;

/// A random combinational DAG over the given input count; returns the
/// netlist and, for each net in creation order, a closure-friendly
/// description to evaluate it directly.
#[derive(Debug, Clone)]
enum NodeDesc {
    Input(usize),
    Gate(GateKind, Vec<usize>),
}

fn build_random_dag(
    num_inputs: usize,
    ops: &[(u8, usize, usize)],
) -> (logicsim_netlist::Netlist, Vec<NodeDesc>, Vec<NetId>) {
    let mut b = NetlistBuilder::new("dag");
    let mut nets: Vec<NetId> = Vec::new();
    let mut descs: Vec<NodeDesc> = Vec::new();
    for i in 0..num_inputs {
        nets.push(b.input(format!("in{i}")));
        descs.push(NodeDesc::Input(i));
    }
    for &(kind_sel, x, y) in ops {
        let kind = [
            GateKind::And,
            GateKind::Or,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Not,
            GateKind::Buf,
        ][kind_sel as usize % 8];
        let a = x % nets.len();
        let c = y % nets.len();
        let out = b.fresh("w");
        let (inputs, desc) = if matches!(kind, GateKind::Not | GateKind::Buf) {
            (vec![nets[a]], NodeDesc::Gate(kind, vec![a]))
        } else {
            (vec![nets[a], nets[c]], NodeDesc::Gate(kind, vec![a, c]))
        };
        b.gate(kind, &inputs, out, Delay::uniform(1 + (x as u32 % 3)));
        nets.push(out);
        descs.push(desc);
    }
    let netlist = b.finish().expect("valid by construction");
    (netlist, descs, nets)
}

fn direct_eval(descs: &[NodeDesc], inputs: &[Level]) -> Vec<Level> {
    let mut values: Vec<Level> = Vec::with_capacity(descs.len());
    for d in descs {
        let v = match d {
            NodeDesc::Input(i) => inputs[*i],
            NodeDesc::Gate(kind, args) => {
                let levels: Vec<Level> = args.iter().map(|&a| values[a]).collect();
                kind.evaluate(&levels).level
            }
        };
        values.push(v);
    }
    values
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Event-driven simulation of a combinational DAG settles to the
    /// same values as direct topological evaluation, for every net.
    #[test]
    fn simulation_matches_direct_evaluation(
        ops in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 1..40),
        input_bits in any::<u16>(),
    ) {
        let num_inputs = 4;
        let (netlist, descs, nets) = build_random_dag(num_inputs, &ops);
        let inputs: Vec<Level> = (0..num_inputs)
            .map(|i| Level::from_bool(input_bits >> i & 1 == 1))
            .collect();
        let mut sim = Simulator::new(&netlist).expect("pre-flight");
        for (i, &l) in inputs.iter().enumerate() {
            let net = netlist.find_net(&format!("in{i}")).expect("input net");
            sim.set_input(net, l);
        }
        sim.run_to_quiescence(100_000);
        let expected = direct_eval(&descs, &inputs);
        for (net, want) in nets.iter().zip(&expected) {
            prop_assert_eq!(
                sim.level(*net),
                *want,
                "net {} disagrees", netlist.net_name(*net)
            );
        }
    }

    /// Same circuit, same stimulus, same seed: identical measurements
    /// (the reproducibility the whole measurement methodology rests on).
    #[test]
    fn simulation_is_deterministic(
        ops in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 1..24),
        flips in proptest::collection::vec((0usize..4, any::<bool>()), 1..20),
    ) {
        let (netlist, _, _) = build_random_dag(4, &ops);
        let run = || {
            let mut sim = Simulator::with_config(&netlist, SimConfig {
                collect_trace: true,
                ..SimConfig::default()
            }).expect("pre-flight");
            for (chunk, &(which, up)) in flips.iter().enumerate() {
                let net = netlist.find_net(&format!("in{which}")).expect("input");
                sim.set_input(net, Level::from_bool(up));
                sim.run_until((chunk as u64 + 1) * 7);
            }
            sim.run_to_quiescence(10_000);
            (sim.counters().clone(), sim.take_trace())
        };
        let (c1, t1) = run();
        let (c2, t2) = run();
        prop_assert_eq!(c1, c2);
        prop_assert_eq!(t1, t2);
    }

    /// Workload counter invariants hold on arbitrary runs: busy+idle =
    /// elapsed, events only on busy ticks, messages >= events cannot be
    /// violated downward below fanout-0 floor.
    #[test]
    fn counter_invariants(
        ops in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 1..24),
        flips in proptest::collection::vec((0usize..4, any::<bool>()), 1..12),
    ) {
        let (netlist, _, _) = build_random_dag(4, &ops);
        let mut sim = Simulator::with_config(&netlist, SimConfig {
            collect_trace: true,
            ..SimConfig::default()
        }).expect("pre-flight");
        for (chunk, &(which, up)) in flips.iter().enumerate() {
            let net = netlist.find_net(&format!("in{which}")).expect("input");
            sim.set_input(net, Level::from_bool(up));
            sim.run_until((chunk as u64 + 1) * 5);
        }
        sim.run_to_quiescence(10_000);
        let c = sim.counters();
        let t = sim.trace();
        prop_assert_eq!(c.total_ticks(), sim.now());
        prop_assert_eq!(t.busy_ticks(), c.busy_ticks);
        prop_assert_eq!(t.total_events(), c.events);
        prop_assert_eq!(t.total_messages_inf(), c.messages_inf);
        // Every trace tick holds at least one event, and ticks ascend.
        let mut prev = None;
        for tick in &t.ticks {
            prop_assert!(!tick.events.is_empty());
            if let Some(p) = prev {
                prop_assert!(tick.tick > p);
            }
            prev = Some(tick.tick);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The event-driven engine and the levelized bit-parallel engine (at
    /// one lane) are independent implementations; on combinational
    /// circuits they must agree on every quiescent net value.
    #[test]
    fn event_driven_agrees_with_compiled_mode(
        ops in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 1..40),
        input_bits in any::<u16>(),
    ) {
        use logicsim_netlist::Plane;
        use logicsim_sim::BitParSim;
        let num_inputs = 4;
        let (netlist, _, nets) = build_random_dag(num_inputs, &ops);
        let inputs: Vec<Level> = (0..num_inputs)
            .map(|i| Level::from_bool(input_bits >> i & 1 == 1))
            .collect();
        let mut event_sim = Simulator::new(&netlist).expect("pre-flight");
        let mut compiled = BitParSim::new(&netlist, 1).expect("pre-flight");
        for (i, &l) in inputs.iter().enumerate() {
            let net = netlist.find_net(&format!("in{i}")).expect("input net");
            event_sim.set_input(net, l);
            compiled.set_input_plane(net, Plane::splat(l));
        }
        event_sim.run_to_quiescence(100_000);
        prop_assert!(compiled.settle_vector());
        for &net in &nets {
            prop_assert_eq!(
                event_sim.level(net),
                compiled.level(net, 0),
                "net {} disagrees between engines", netlist.net_name(net)
            );
        }
    }

    /// The same two engines on *cyclic* circuits: latches from gates and
    /// from switches, pass-gate cells inside feedback paths, rings that
    /// cannot settle, tristate buses with and without a storage node
    /// behind them, gates fighting over a channel member, a supplied
    /// member. The wiring is [`cyclic::Wiring::Tame`] and one
    /// input changes per vector, so what a vector settles to does not
    /// depend on delays; the comparison ends at the first vector either
    /// engine fails to settle (an enabled ring), after which their
    /// states are no longer comparable.
    #[test]
    fn event_driven_agrees_with_compiled_mode_on_cyclic_circuits(
        elements in proptest::collection::vec(
            (any::<u8>(), any::<usize>(), any::<usize>(), any::<usize>(), any::<usize>()), 1..6),
        gates in proptest::collection::vec(
            (any::<u8>(), any::<usize>(), any::<usize>()), 0..16),
        first in any::<u8>(),
        flips in proptest::collection::vec(0usize..cyclic::INPUTS, 8..20),
    ) {
        use logicsim_netlist::Plane;
        use logicsim_sim::BitParSim;
        let c = cyclic::build(&elements, &gates, cyclic::Wiring::Tame);
        let mut event_sim = Simulator::new(&c.netlist).expect("pre-flight");
        let mut compiled = BitParSim::new(&c.netlist, 1).expect("pre-flight");
        let mut levels: Vec<bool> = (0..cyclic::INPUTS).map(|i| first >> i & 1 == 1).collect();
        // Vector 0 sets every input (from the all-X power-up state, where
        // there is nothing to race); each later vector flips one.
        let changes = std::iter::once(None).chain(flips.iter().map(|&i| Some(i)));
        for (v, change) in changes.enumerate() {
            let applied = match change {
                None => 0..cyclic::INPUTS,
                Some(i) => {
                    levels[i] = !levels[i];
                    i..i + 1
                }
            };
            for i in applied {
                let level = Level::from_bool(levels[i]);
                event_sim.set_input(c.inputs[i], level);
                compiled.set_input_plane(c.inputs[i], Plane::splat(level));
            }
            let cap = event_sim.now() + 10_000;
            let event_settled = event_sim.run_to_quiescence(cap) < cap;
            if !(compiled.settle_vector() && event_settled) {
                return;
            }
            for i in 0..c.netlist.num_nets() {
                let net = NetId(i as u32);
                prop_assert_eq!(
                    event_sim.level(net),
                    compiled.level(net, 0),
                    "v={}: net {} disagrees between engines", v, c.netlist.net_name(net)
                );
            }
        }
    }
}
