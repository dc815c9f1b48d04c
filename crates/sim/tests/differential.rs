//! Differential property tests for the data-oriented kernel.
//!
//! [`RefSim`] is an intentionally naive re-implementation of the
//! engine's pre-refactor semantics for gate-level circuits: `BTreeMap`
//! event queue keyed by tick, `BTreeMap`/`BTreeSet` per-tick worklists,
//! fresh allocations everywhere. It shares no code with the optimized
//! hot path (CSR arrays, epoch-stamped worklists), so any divergence in
//! iteration order, inertial cancellation, or counter accounting between
//! the two shows up as a mismatch in per-tick event counts, workload
//! counters, or quiescent net values on random DAGs under random input
//! flip schedules.

use logicsim_netlist::{
    CompId, ComponentRef, Delay, GateKind, Level, NetId, Netlist, NetlistBuilder, Signal,
    SwitchKind,
};
use logicsim_partition::{FiducciaMattheysesPartitioner, Partitioner};
use logicsim_sim::{ParSimulator, SimConfig, Simulator};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Deals gates and switches round-robin over `parts` partitions
/// (infrastructure components stay unassigned), guaranteeing that
/// multi-switch channel groups straddle partition boundaries.
fn round_robin_assignment(netlist: &Netlist, parts: u32) -> Vec<u32> {
    let mut next = 0u32;
    netlist
        .iter()
        .map(|(_, c)| {
            if matches!(c, ComponentRef::Gate { .. } | ComponentRef::Switch { .. }) {
                let p = next % parts;
                next += 1;
                p
            } else {
                u32::MAX
            }
        })
        .collect()
}

/// Reference event-driven simulator for gate-only netlists, written the
/// way the engine looked before the data-oriented rewrite.
struct RefSim<'a> {
    netlist: &'a Netlist,
    /// tick -> scheduled `(comp, drive, seq)` in scheduling order.
    queue: BTreeMap<u64, Vec<(CompId, Signal, u64)>>,
    now: u64,
    net_values: Vec<Signal>,
    comp_drive: Vec<Signal>,
    last_scheduled: Vec<Signal>,
    comp_out: Vec<Option<NetId>>,
    input_comp: BTreeMap<NetId, CompId>,
    pending_seq: Vec<Option<u64>>,
    seq_counter: u64,
    /// `(tick, events)` per busy tick.
    per_tick: Vec<(u64, u64)>,
    busy_ticks: u64,
    idle_ticks: u64,
    events: u64,
    messages_inf: u64,
}

impl<'a> RefSim<'a> {
    fn new(netlist: &'a Netlist) -> RefSim<'a> {
        let nc = netlist.num_components();
        let mut comp_out = vec![None; nc];
        let mut input_comp = BTreeMap::new();
        for (id, comp) in netlist.iter() {
            match comp {
                ComponentRef::Gate { output, .. } => comp_out[id.index()] = Some(output),
                ComponentRef::Input { net } => {
                    comp_out[id.index()] = Some(net);
                    input_comp.insert(net, id);
                }
                _ => panic!("RefSim handles gates and inputs only"),
            }
        }
        let mut sim = RefSim {
            netlist,
            queue: BTreeMap::new(),
            now: 0,
            net_values: vec![Signal::FLOATING; netlist.num_nets()],
            comp_drive: vec![Signal::FLOATING; nc],
            last_scheduled: vec![Signal::FLOATING; nc],
            comp_out,
            input_comp,
            pending_seq: vec![None; nc],
            seq_counter: 0,
            per_tick: Vec::new(),
            busy_ticks: 0,
            idle_ticks: 0,
            events: 0,
            messages_inf: 0,
        };
        sim.initialize();
        sim
    }

    /// Power-up relaxation, mirroring the engines' `relax_power_up` (128
    /// default rounds, no events counted).
    fn initialize(&mut self) {
        for round in 0..128 {
            let mut changed = false;
            for net_idx in 0..self.netlist.num_nets() {
                let v = self.external_drive(NetId(net_idx as u32));
                if self.net_values[net_idx] != v {
                    self.net_values[net_idx] = v;
                    changed = true;
                }
            }
            for (id, comp) in self.netlist.iter() {
                if let ComponentRef::Gate { kind, inputs, .. } = comp {
                    let levels: Vec<Level> = inputs
                        .iter()
                        .map(|&n| self.net_values[n.index()].level)
                        .collect();
                    let out = kind.evaluate(&levels);
                    if self.comp_drive[id.index()] != out {
                        self.comp_drive[id.index()] = out;
                        self.last_scheduled[id.index()] = out;
                        changed = true;
                    }
                }
            }
            if !changed && round > 0 {
                break;
            }
        }
    }

    fn external_drive(&self, net: NetId) -> Signal {
        let mut v = Signal::FLOATING;
        for &d in self.netlist.drivers(net) {
            v = v.resolve(self.comp_drive[d.index()]);
        }
        v
    }

    fn set_input(&mut self, net: NetId, level: Level) {
        let comp = self.input_comp[&net];
        let now = self.now;
        self.schedule_change(now, comp, Signal::strong(level));
    }

    fn schedule_change(&mut self, tick: u64, comp: CompId, drive: Signal) {
        if self.last_scheduled[comp.index()] == drive {
            return;
        }
        self.last_scheduled[comp.index()] = drive;
        if drive == self.comp_drive[comp.index()] {
            self.pending_seq[comp.index()] = None;
            return;
        }
        self.seq_counter += 1;
        let seq = self.seq_counter;
        self.pending_seq[comp.index()] = Some(seq);
        self.queue.entry(tick).or_default().push((comp, drive, seq));
    }

    fn step(&mut self) {
        let tick = self.now;
        let changes = self.queue.remove(&tick).unwrap_or_default();
        let mut affected: BTreeMap<NetId, CompId> = BTreeMap::new();
        for (comp, drive, seq) in changes {
            if self.pending_seq[comp.index()] != Some(seq) {
                continue;
            }
            self.pending_seq[comp.index()] = None;
            if self.comp_drive[comp.index()] == drive {
                continue;
            }
            self.comp_drive[comp.index()] = drive;
            if let Some(net) = self.comp_out[comp.index()] {
                affected.insert(net, comp);
            }
        }

        let mut changed_nets: Vec<NetId> = Vec::new();
        for &net in affected.keys() {
            let v = self.external_drive(net);
            if self.net_values[net.index()] != v {
                self.net_values[net.index()] = v;
                changed_nets.push(net);
            }
        }

        let mut events_this_tick = 0u64;
        if !changed_nets.is_empty() {
            let mut to_eval: BTreeSet<CompId> = BTreeSet::new();
            for &net in &changed_nets {
                self.events += 1;
                events_this_tick += 1;
                let fanout = self.netlist.fanout(net);
                self.messages_inf += fanout.len() as u64;
                to_eval.extend(fanout.iter().copied());
            }
            for comp in to_eval {
                if let ComponentRef::Gate {
                    kind,
                    inputs,
                    delay,
                    ..
                } = self.netlist.component(comp)
                {
                    let levels: Vec<Level> = inputs
                        .iter()
                        .map(|&n| self.net_values[n.index()].level)
                        .collect();
                    let out = kind.evaluate(&levels);
                    let d = u64::from(delay.for_transition(out.level));
                    self.schedule_change(tick + d, comp, out);
                }
            }
        }

        if events_this_tick > 0 {
            self.busy_ticks += 1;
            self.per_tick.push((tick, events_this_tick));
        } else {
            self.idle_ticks += 1;
        }
        self.now += 1;
    }
}

/// Random combinational DAG over four inputs (same shape as the
/// proptests suite uses).
fn build_random_dag(ops: &[(u8, usize, usize)]) -> Netlist {
    let mut b = NetlistBuilder::new("dag");
    let mut nets: Vec<NetId> = (0..4).map(|i| b.input(format!("in{i}"))).collect();
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
        let inputs = if matches!(kind, GateKind::Not | GateKind::Buf) {
            vec![nets[a]]
        } else {
            vec![nets[a], nets[c]]
        };
        b.gate(kind, &inputs, out, Delay::uniform(1 + (x as u32 % 3)));
        nets.push(out);
    }
    b.finish().expect("valid by construction")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The optimized engine and the BTree-based reference implementation
    /// agree on per-tick event counts, workload counters, and quiescent
    /// net values under random input flip schedules.
    #[test]
    fn optimized_engine_matches_reference_semantics(
        ops in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 1..40),
        flips in proptest::collection::vec((0usize..4, any::<bool>()), 1..16),
    ) {
        let netlist = build_random_dag(&ops);
        let mut sim = Simulator::with_config(&netlist, SimConfig {
            collect_trace: true,
            ..SimConfig::default()
        }).expect("pre-flight");
        let mut reference = RefSim::new(&netlist);

        for (chunk, &(which, up)) in flips.iter().enumerate() {
            let net = netlist.find_net(&format!("in{which}")).expect("input");
            let level = Level::from_bool(up);
            sim.set_input(net, level);
            reference.set_input(net, level);
            let until = (chunk as u64 + 1) * 7;
            while sim.now() < until {
                sim.step();
                reference.step();
            }
        }
        // Tail: run both to the same tick, long enough to quiesce
        // (delays are <= 3 and the DAG has <= 40 levels).
        let end = sim.now() + 200;
        while sim.now() < end {
            sim.step();
            reference.step();
        }
        prop_assert!(sim.counters().events == 0 || !reference.per_tick.is_empty());

        // Workload counters.
        let c = sim.counters();
        prop_assert_eq!(c.busy_ticks, reference.busy_ticks);
        prop_assert_eq!(c.idle_ticks, reference.idle_ticks);
        prop_assert_eq!(c.events, reference.events);
        prop_assert_eq!(c.messages_inf, reference.messages_inf);

        // Per-tick event counts (busy ticks in order).
        let sim_ticks: Vec<(u64, u64)> = sim
            .trace()
            .ticks
            .iter()
            .map(|t| (t.tick, t.events.len() as u64))
            .collect();
        prop_assert_eq!(sim_ticks, reference.per_tick.clone());

        // Quiescent values on every net.
        for i in 0..netlist.num_nets() {
            let net = NetId(i as u32);
            prop_assert_eq!(
                sim.signal(net),
                reference.net_values[i],
                "net {} disagrees", netlist.net_name(net)
            );
        }

        // The parallel engine under round-robin partitions must replay
        // the identical schedule: same counters, same trace (every
        // tick, every event, in order), same quiescent values.
        for workers in [2usize, 3] {
            let assignment = round_robin_assignment(&netlist, workers as u32);
            let mut par = ParSimulator::with_config(&netlist, &assignment, workers, SimConfig {
                collect_trace: true,
                ..SimConfig::default()
            }).expect("pre-flight");
            for (chunk, &(which, up)) in flips.iter().enumerate() {
                let net = netlist.find_net(&format!("in{which}")).expect("input");
                par.set_input(net, Level::from_bool(up));
                par.run_until((chunk as u64 + 1) * 7);
            }
            par.run_until(end);
            prop_assert_eq!(par.counters(), sim.counters(), "P={} counters", workers);
            prop_assert_eq!(par.trace(), sim.trace(), "P={} trace", workers);
            for i in 0..netlist.num_nets() {
                let net = NetId(i as u32);
                prop_assert_eq!(par.signal(net), sim.signal(net), "P={} net {}", workers, i);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The parallel engine under real Fiduccia–Mattheyses partitions —
    /// data-driven min-cut assignments rather than the synthetic
    /// round-robin deal above — still replays the serial schedule
    /// exactly at P in {2, 3}: same counters, same trace, same
    /// quiescent values, for arbitrary DAGs, flip schedules, and FM
    /// refinement seeds.
    #[test]
    fn fm_partitioned_engine_matches_serial(
        ops in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 4..40),
        flips in proptest::collection::vec((0usize..4, any::<bool>()), 1..12),
        fm_seed in any::<u64>(),
    ) {
        let netlist = build_random_dag(&ops);
        let cfg = || SimConfig {
            collect_trace: true,
            ..SimConfig::default()
        };
        let mut sim = Simulator::with_config(&netlist, cfg()).expect("pre-flight");
        let drive = |sim: &mut dyn FnMut(NetId, Level, u64)| {
            for (chunk, &(which, up)) in flips.iter().enumerate() {
                let net = netlist.find_net(&format!("in{which}")).expect("input");
                sim(net, Level::from_bool(up), (chunk as u64 + 1) * 7);
            }
        };
        drive(&mut |net, level, until| {
            sim.set_input(net, level);
            sim.run_until(until);
        });
        let end = sim.now() + 200;
        sim.run_until(end);

        for workers in [2usize, 3] {
            let part = FiducciaMattheysesPartitioner::new(fm_seed)
                .partition(&netlist, workers as u32);
            let mut par = ParSimulator::with_config(&netlist, part.as_slice(), workers, cfg())
                .expect("pre-flight");
            drive(&mut |net, level, until| {
                par.set_input(net, level);
                par.run_until(until);
            });
            par.run_until(end);
            prop_assert_eq!(par.counters(), sim.counters(), "FM P={} counters", workers);
            prop_assert_eq!(par.trace(), sim.trace(), "FM P={} trace", workers);
            for i in 0..netlist.num_nets() {
                let net = NetId(i as u32);
                prop_assert_eq!(par.signal(net), sim.signal(net), "FM P={} net {}", workers, i);
            }
        }
    }
}

/// One step of the straddling-bus input schedule (shared between the
/// round-robin and FM switch-cluster tests below).
enum Op {
    Set(NetId, Level),
    Run(u64),
}

/// A bus of pass-transistor multiplexers: every mux is a nontrivial
/// switch group (two switches coupled through a shared channel net),
/// exercising the parallel engine's coupled group-resolution path.
fn pt_bus() -> Netlist {
    let mut b = NetlistBuilder::new("pt-bus");
    let sel = b.input("sel");
    let sel_n = b.net("sel_n");
    b.gate(GateKind::Not, &[sel], sel_n, Delay::uniform(1));
    let mut outs = Vec::new();
    for i in 0..6 {
        let a = b.input(format!("a{i}"));
        let c = b.input(format!("b{i}"));
        let z = b.net(format!("z{i}"));
        b.switch(SwitchKind::Nmos, sel, a, z);
        b.switch(SwitchKind::Nmos, sel_n, c, z);
        let y = b.net(format!("y{i}"));
        b.gate(GateKind::Not, &[z], y, Delay::uniform(1 + (i as u32 % 2)));
        b.mark_output(y);
        outs.push(y);
    }
    b.finish().expect("valid")
}

/// The straddling-bus schedule: flips the select both ways and changes
/// the data lines while the opposite leg is conducting.
fn pt_bus_schedule(netlist: &Netlist) -> Vec<Op> {
    let net = |s: String| netlist.find_net(&s).expect("net");
    let mut schedule: Vec<Op> = Vec::new();
    for i in 0..6u32 {
        schedule.push(Op::Set(net(format!("a{i}")), Level::from_bool(i % 2 == 0)));
        schedule.push(Op::Set(net(format!("b{i}")), Level::from_bool(i % 2 == 1)));
    }
    schedule.push(Op::Set(net("sel".to_string()), Level::One));
    schedule.push(Op::Run(8));
    schedule.push(Op::Set(net("sel".to_string()), Level::Zero));
    for i in 0..6u32 {
        schedule.push(Op::Set(net(format!("a{i}")), Level::from_bool(i % 2 == 1)));
    }
    schedule.push(Op::Run(20));
    schedule.push(Op::Set(net("sel".to_string()), Level::One));
    schedule.push(Op::Run(32));
    schedule
}

/// Asserts the parallel run under `assignment` matches `serial` on
/// counters, full trace, and every net, and that coupled switch groups
/// were actually resolved along the way.
fn check_par_against_serial(
    netlist: &Netlist,
    assignment: &[u32],
    workers: usize,
    schedule: &[Op],
    serial: &Simulator,
    label: &str,
) {
    let cfg = SimConfig {
        collect_trace: true,
        ..SimConfig::default()
    };
    let mut par = ParSimulator::with_config(netlist, assignment, workers, cfg).expect("pre-flight");
    for op in schedule {
        match *op {
            Op::Set(net, level) => par.set_input(net, level),
            Op::Run(until) => par.run_until(until),
        }
    }
    assert_eq!(
        par.counters(),
        serial.counters(),
        "{label} P={workers} counters"
    );
    assert_eq!(par.trace(), serial.trace(), "{label} P={workers} trace");
    for i in 0..netlist.num_nets() {
        let net = NetId(i as u32);
        assert_eq!(
            par.signal(net),
            serial.signal(net),
            "{label} P={workers} net {}",
            netlist.net_name(net)
        );
    }
    assert!(
        par.counters().group_resolutions > 0,
        "{label} P={workers}: groups exercised"
    );
}

/// Runs the straddling-bus schedule serially (the reference run both
/// partition-strategy tests compare against).
fn pt_bus_serial<'a>(netlist: &'a Netlist, schedule: &[Op]) -> Simulator<'a> {
    let mut serial = Simulator::with_config(
        netlist,
        SimConfig {
            collect_trace: true,
            ..SimConfig::default()
        },
    )
    .expect("pre-flight");
    for op in schedule {
        match *op {
            Op::Set(net, level) => serial.set_input(net, level),
            Op::Run(until) => serial.run_until(until),
        }
    }
    serial
}

/// Every mux's two switches land on *different* partitions under
/// round-robin assignment, exercising the parallel engine's coupled
/// group-resolution path against the serial engine.
#[test]
fn parallel_engine_matches_serial_on_straddling_switch_groups() {
    let netlist = pt_bus();
    let schedule = pt_bus_schedule(&netlist);
    let serial = pt_bus_serial(&netlist, &schedule);
    for workers in [2usize, 3] {
        let assignment = round_robin_assignment(&netlist, workers as u32);
        check_par_against_serial(&netlist, &assignment, workers, &schedule, &serial, "rr");
    }
}

/// True when `assignment` places two switches that share a channel net
/// — members of one switch coupling cluster — on different partitions.
fn splits_switch_cluster(netlist: &Netlist, assignment: &[u32]) -> bool {
    let mut parts_by_net: BTreeMap<NetId, Vec<u32>> = BTreeMap::new();
    for (id, comp) in netlist.iter() {
        if let ComponentRef::Switch { a, b, .. } = comp {
            for net in [a, b] {
                parts_by_net
                    .entry(net)
                    .or_default()
                    .push(assignment[id.index()]);
            }
        }
    }
    parts_by_net
        .values()
        .any(|parts| parts.iter().any(|&p| p != parts[0]))
}

/// The same straddling-bus check, but with the partition produced by
/// the Fiduccia–Mattheyses refinement rather than a synthetic deal:
/// for each P, scan FM seeds until a refinement pass *moves* one
/// switch of a coupling cluster across the cut, then require the
/// parallel engine to still replay the serial schedule exactly on that
/// partition.
#[test]
fn fm_partition_splitting_switch_cluster_matches_serial() {
    let netlist = pt_bus();
    let schedule = pt_bus_schedule(&netlist);
    let serial = pt_bus_serial(&netlist, &schedule);
    for workers in [2usize, 3] {
        let split_seed = (0..64u64).find(|&seed| {
            let part = FiducciaMattheysesPartitioner::new(seed).partition(&netlist, workers as u32);
            splits_switch_cluster(&netlist, part.as_slice())
        });
        let Some(seed) = split_seed else {
            panic!("no FM seed in 0..64 splits a switch coupling cluster at P={workers}");
        };
        let part = FiducciaMattheysesPartitioner::new(seed).partition(&netlist, workers as u32);
        check_par_against_serial(&netlist, part.as_slice(), workers, &schedule, &serial, "fm");
    }
}
