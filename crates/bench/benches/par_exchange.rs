//! `ParSimulator`'s exchange, one tick at a time: who merges the affected
//! nets and fans their changes out.
//!
//! The delay-estimation half of `par_engine`'s differential unit tests.
//! The engine's loops are private and run on its shared containers, so
//! this bench carries both shapes of the exchange over plain vectors and
//! one captured tick, and checks that they agree before timing them:
//!
//! * `master_side` — the loops `Master::execute_tick` ran between the
//!   phases until the owner-computes exchange replaced them, kept here
//!   verbatim as the oracle: one thread merges every party's affected
//!   nets by maximum stamp through a `StampSet` and two per-net arrays,
//!   resolves them in ascending net order, walks every fanout list into
//!   a second `StampSet` with two `assignment[]` look-ups per message,
//!   sorts it and deals the components to their owners' inboxes.
//! * `owner_side` — what `party_apply`/`party_merge` (`merge_and_route`)
//!   and the head of `party_eval` do now: each party sorts the changes
//!   onto its own nets by `(net, stamp)`, resolves them, pushes every
//!   fanout component into the box of its owner, and each party then
//!   sorts and dedups its own inbox. The row times all `P + 1` parties
//!   one after the other on one thread — CPU time; in the engine the
//!   `P` threads run their shares side by side.
//!
//! The tick is the busiest of 2 000 warmed-up ticks of `rtp@10k` under
//! the partition the benchmark's `eval-par2` workload uses (multilevel,
//! activity-weighted, `P = 2`); before every iteration each net it names
//! is put back to a value its driver is about to change, so every
//! affected net is an event and fans out. The benchmark's traced
//! `sim.par_engine.exchange_s` and `lsim trace`'s `exchange us` line
//! time the engine's own loops.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use logicsim::circuits::{scaled, Benchmark, ScaledParams};
use logicsim::netlist::{CompId, Component, Csr, Level, NetId, Netlist, Signal};
use logicsim::partition::{MultilevelPartitioner, Partitioner};
use logicsim::sim::stimulus::run_with_stimulus;
use logicsim::sim::{SimConfig, Simulator};

const WORKERS: usize = 2;
const SEED: u64 = 0x1987;

/// `par_engine::Stamp`: serial sequence order of a schedule event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Stamp {
    tick: u64,
    pass: u32,
    rank: u32,
}

/// The epoch-stamped set the master-side loops used (the serial engine
/// has since replaced it with the sort-free `engine::OrderedSet`).
#[derive(Clone)]
struct StampSet {
    stamp: Vec<u32>,
    epoch: u32,
    items: Vec<u32>,
}

impl StampSet {
    fn with_capacity(n: usize) -> StampSet {
        StampSet {
            stamp: vec![0; n],
            epoch: 1,
            items: Vec::new(),
        }
    }

    fn insert(&mut self, id: u32) {
        let s = &mut self.stamp[id as usize];
        if *s != self.epoch {
            *s = self.epoch;
            self.items.push(id);
        }
    }

    fn contains(&self, id: u32) -> bool {
        self.stamp[id as usize] == self.epoch
    }

    fn clear(&mut self) {
        self.items.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    fn sorted(&mut self) -> &[u32] {
        self.items.sort_unstable();
        &self.items
    }
}

/// What both sides read: the netlist image, who owns what, and one
/// tick's Apply output per party.
struct Tick {
    netlist: Netlist,
    /// Per-net non-switch drivers (`Image::ext_drivers`).
    ext_drivers: Csr,
    /// Partition id per component (`u32::MAX` = unassigned).
    assignment: Vec<u32>,
    /// Owning party per component.
    owner: Vec<u32>,
    /// Owner of each net with drivers in several parties (`u32::MAX`:
    /// all of the net's drivers belong to one party, which merges it).
    shared_owner: Vec<u32>,
    /// `(net, comp, stamp)` per applying party.
    affected: Vec<Vec<(u32, u32, Stamp)>>,
}

/// What both sides write.
#[derive(Clone)]
struct State {
    net_values: Vec<Signal>,
    comp_drive: Vec<Signal>,
}

/// What one exchange produces; equal on both sides.
#[derive(Debug, Default, PartialEq, Eq)]
struct Outcome {
    /// `(net, cause)` in ascending net order.
    changed: Vec<(u32, u32)>,
    /// Components to evaluate per party, ascending.
    eval: Vec<Vec<u32>>,
    messages_inf: u64,
    component_msgs: u64,
    crossing: u64,
}

impl Tick {
    fn parties(&self) -> usize {
        WORKERS + 1
    }

    fn external_drive(&self, state: &State, net: u32) -> Signal {
        let mut v = Signal::FLOATING;
        for &d in self.ext_drivers.row(net as usize) {
            v = v.resolve(state.comp_drive[d as usize]);
        }
        v
    }
}

/// Scratch the master kept across ticks.
#[derive(Clone)]
struct MasterScratch {
    affected: StampSet,
    affected_cause: Vec<u32>,
    affected_stamp: Vec<Stamp>,
    to_eval: StampSet,
    changed_nets: Vec<(u32, u32)>,
}

/// The oracle: `Master::execute_tick`'s merge, route and distribution
/// loops as of the commit before the owner-computes exchange.
fn master_side(t: &Tick, state: &mut State, m: &mut MasterScratch) -> Outcome {
    let mut out = Outcome::default();
    // Merge affected nets; maximum stamp wins = serial
    // last-writer-wins application order.
    m.affected.clear();
    for affected in &t.affected {
        for &(net, comp, stamp) in affected {
            if !m.affected.contains(net) || stamp > m.affected_stamp[net as usize] {
                m.affected_cause[net as usize] = comp;
                m.affected_stamp[net as usize] = stamp;
            }
            m.affected.insert(net);
        }
    }
    // Route affected nets: ordinary nets are resolved by the master
    // right here (in ascending net order, as the serial engine does).
    m.changed_nets.clear();
    for &net_idx in m.affected.sorted() {
        let cause = m.affected_cause[net_idx as usize];
        let v = t.external_drive(state, net_idx);
        if state.net_values[net_idx as usize] != v {
            state.net_values[net_idx as usize] = v;
            m.changed_nets.push((net_idx, cause));
        }
    }
    // Record events in serial order; build the evaluation worklist;
    // count partition-crossing messages.
    m.to_eval.clear();
    for &(net, cause) in &m.changed_nets {
        let fanout = t.netlist.fanout(NetId(net));
        out.messages_inf += fanout.len() as u64;
        let pc = t.assignment[cause as usize];
        for &CompId(f) in fanout {
            m.to_eval.insert(f);
            let pf = t.assignment[f as usize];
            if pc != u32::MAX && pf != u32::MAX && cause != f {
                out.component_msgs += 1;
                if pc != pf {
                    out.crossing += 1;
                }
            }
        }
    }
    out.changed.clone_from(&m.changed_nets);
    // Evaluate fanout components in parallel, each by its owner in
    // ascending id order (= serial evaluation order).
    out.eval = vec![Vec::new(); t.parties()];
    for &ci in m.to_eval.sorted() {
        out.eval[t.owner[ci as usize] as usize].push(ci);
    }
    out
}

/// One party's scratch, and the boxes between parties.
#[derive(Clone)]
struct OwnerScratch {
    merged: Vec<Vec<(u32, u32, Stamp)>>,
    changed: Vec<Vec<(u32, u32)>>,
    /// `affected_mail[src][dst]`, `eval_mail[src][dst]`.
    affected_mail: Vec<Vec<Vec<(u32, u32, Stamp)>>>,
    eval_mail: Vec<Vec<Vec<u32>>>,
}

/// `par_engine::merge_and_route` for `party`, on `s.merged[party]`.
fn merge_and_route(
    t: &Tick,
    state: &mut State,
    s: &mut OwnerScratch,
    party: usize,
    out: &mut Outcome,
) {
    let first = s.changed[party].len();
    let merged = &mut s.merged[party];
    merged.sort_unstable_by_key(|&(net, _, stamp)| (net, stamp));
    for (i, &(net, comp, _)) in merged.iter().enumerate() {
        if merged.get(i + 1).is_some_and(|next| next.0 == net) {
            continue;
        }
        let v = t.external_drive(state, net);
        if state.net_values[net as usize] != v {
            state.net_values[net as usize] = v;
            s.changed[party].push((net, comp));
        }
    }
    for &(net, cause) in &s.changed[party][first..] {
        let fanout = t.netlist.fanout(NetId(net));
        out.messages_inf += fanout.len() as u64;
        let pc = t.assignment[cause as usize];
        for &CompId(f) in fanout {
            s.eval_mail[party][t.owner[f as usize] as usize].push(f);
            let pf = t.assignment[f as usize];
            if pc != u32::MAX && pf != u32::MAX && cause != f {
                out.component_msgs += 1;
                if pc != pf {
                    out.crossing += 1;
                }
            }
        }
    }
}

/// The owner-computes exchange, every party's share in turn: the tail
/// of Apply, Merge, and the head of Eval.
fn owner_side(t: &Tick, state: &mut State, s: &mut OwnerScratch) -> Outcome {
    let np = t.parties();
    let mut out = Outcome::default();
    for party in 0..np {
        s.changed[party].clear();
        s.merged[party].clear();
        for &(net, comp, stamp) in &t.affected[party] {
            match t.shared_owner[net as usize] {
                u32::MAX => s.merged[party].push((net, comp, stamp)),
                owner => s.affected_mail[party][owner as usize].push((net, comp, stamp)),
            }
        }
        merge_and_route(t, state, s, party, &mut out);
    }
    for party in 0..np {
        s.merged[party].clear();
        for src in 0..np {
            let inbox = std::mem::take(&mut s.affected_mail[src][party]);
            s.merged[party].extend_from_slice(&inbox);
            s.affected_mail[src][party] = inbox;
            s.affected_mail[src][party].clear();
        }
        merge_and_route(t, state, s, party, &mut out);
    }
    out.eval = vec![Vec::new(); np];
    for party in 0..np {
        let eval = &mut out.eval[party];
        for src in 0..np {
            eval.append(&mut s.eval_mail[src][party]);
        }
        eval.sort_unstable();
        eval.dedup();
    }
    out.changed = s.changed.concat();
    out.changed.sort_unstable();
    out
}

/// Builds `rtp@10k`, partitions it, and captures the busiest tick of a
/// warmed-up window from the serial engine's trace.
fn capture() -> (Tick, State) {
    let inst = scaled::build(&ScaledParams {
        base: Benchmark::RtpChip,
        target_components: 10_000,
        seed: SEED,
    });
    let netlist = inst.netlist;
    let config = SimConfig {
        collect_trace: true,
        ..SimConfig::default()
    };
    let mut sim = Simulator::with_config(&netlist, config).expect("pre-flight");
    let mut stim = inst
        .stimulus
        .build(&netlist, SEED)
        .expect("stimulus resolves");
    let warm = 24 * inst.vector_period.max(1);
    run_with_stimulus(&mut sim, &mut stim, warm);
    sim.reset_measurements();
    run_with_stimulus(&mut sim, &mut stim, warm + 2_000);
    let trace = sim.take_trace();
    drop(sim);
    let busiest = trace
        .ticks
        .iter()
        .max_by_key(|t| t.events.len())
        .expect("a busy tick");

    let assignment = MultilevelPartitioner::new(SEED)
        .with_activity_weights()
        .partition(&netlist, WORKERS as u32)
        .as_slice()
        .to_vec();
    let owner: Vec<u32> = netlist
        .components()
        .iter()
        .zip(&assignment)
        .map(|(c, &part)| match c {
            Component::Gate { .. } | Component::Switch { .. } if part != u32::MAX => {
                part % WORKERS as u32
            }
            _ => WORKERS as u32,
        })
        .collect();
    let nn = netlist.num_nets();
    let ext_drivers = Csr::from_rows((0..nn).map(|i| {
        netlist
            .drivers(NetId(i as u32))
            .iter()
            .filter(|&&d| !netlist.component(d).is_switch())
            .map(|c| c.0)
    }));
    let shared_owner: Vec<u32> = (0..nn)
        .map(|i| {
            let mut owners = ext_drivers.row(i).iter().map(|&d| owner[d as usize]);
            match owners.next() {
                Some(first) if owners.any(|o| o != first) => first,
                _ => u32::MAX,
            }
        })
        .collect();

    // One applied change per event a gate, input, pull or rail caused;
    // the nets switch groups settle belong to Resolve, not to this
    // exchange.
    let mut state = State {
        net_values: vec![Signal::FLOATING; nn],
        comp_drive: vec![Signal::FLOATING; netlist.num_components()],
    };
    let mut affected = vec![Vec::new(); WORKERS + 1];
    for e in &busiest.events {
        let Some(net) = (match netlist.component(CompId(e.source)) {
            Component::Gate { output, .. } => Some(*output),
            Component::Input { net }
            | Component::Pull { net, .. }
            | Component::Supply { net, .. } => Some(*net),
            Component::Switch { .. } => None,
        }) else {
            continue;
        };
        let stamp = Stamp {
            tick: busiest.tick,
            pass: 1,
            rank: e.source,
        };
        affected[owner[e.source as usize] as usize].push((net.0, e.source, stamp));
        state.comp_drive[e.source as usize] = Signal::strong(Level::One);
        state.net_values[net.index()] = Signal::strong(Level::Zero);
    }
    let tick = Tick {
        netlist,
        ext_drivers,
        assignment,
        owner,
        shared_owner,
        affected,
    };
    (tick, state)
}

fn par_exchange_benches(c: &mut Criterion) {
    let (tick, state) = capture();
    let np = tick.parties();
    let master = MasterScratch {
        affected: StampSet::with_capacity(tick.netlist.num_nets()),
        affected_cause: vec![0; tick.netlist.num_nets()],
        affected_stamp: vec![
            Stamp {
                tick: 0,
                pass: 0,
                rank: 0
            };
            tick.netlist.num_nets()
        ],
        to_eval: StampSet::with_capacity(tick.netlist.num_components()),
        changed_nets: Vec::new(),
    };
    let owner = OwnerScratch {
        merged: vec![Vec::new(); np],
        changed: vec![Vec::new(); np],
        affected_mail: vec![vec![Vec::new(); np]; np],
        eval_mail: vec![vec![Vec::new(); np]; np],
    };

    // The two sides must agree on every output before either is timed.
    let expected = master_side(&tick, &mut state.clone(), &mut master.clone());
    assert_eq!(
        owner_side(&tick, &mut state.clone(), &mut owner.clone()),
        expected
    );
    let applied: usize = tick.affected.iter().map(Vec::len).sum();
    assert_eq!(
        expected.changed.len(),
        applied,
        "every affected net is an event"
    );
    assert!(applied > 50 && expected.messages_inf > 100, "a busy tick");
    println!(
        "par_exchange: tick with {applied} events, {} fanout messages ({} crossing), eval inboxes {:?}",
        expected.messages_inf,
        expected.crossing,
        expected.eval.iter().map(Vec::len).collect::<Vec<_>>()
    );

    let mut group = c.benchmark_group("par_exchange/rtp10k_p2");
    group.throughput(Throughput::Elements(expected.messages_inf));
    // Scratch persists across ticks, as in the engine; only the net and
    // drive values are put back before every iteration.
    let (mut master, mut owner) = (master, owner);
    group.bench_function("master_side", |b| {
        b.iter_batched(
            || state.clone(),
            |mut state| master_side(&tick, &mut state, &mut master),
            BatchSize::LargeInput,
        );
    });
    group.bench_function("owner_side", |b| {
        b.iter_batched(
            || state.clone(),
            |mut state| owner_side(&tick, &mut state, &mut owner),
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

criterion_group!(benches, par_exchange_benches);
criterion_main!(benches);
