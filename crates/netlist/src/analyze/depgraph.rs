//! Component-level dependency graph, strongly connected components and
//! the one levelizer.
//!
//! Shared substrate for the cycle and levelization analyses: node `i`
//! below [`DepGraph::num_components`] is the component with [`CompId`]
//! `i`, and an edge `u -> v` means a net driven by `u` is read by `v`
//! (a signal change at `u` can cause an evaluation of `v`).
//!
//! # Hubs
//!
//! Joining every driver of a net to every reader of it costs k² edges
//! on a net with k switches on its channel: a supply rail under a
//! column of transistors, a bus of pass gates. So a net with **two or
//! more** kept switches on its channel enters the graph once, as a hub
//! node. Hubs are numbered after the components (ids from
//! `num_components` up, in ascending net order). Each kept driver of
//! the net has one edge to its hub, and the hub has one edge to each
//! kept reader. Every other net keeps its direct driver → reader edges.
//!
//! This is exact: the components' strongly connected components, which
//! of them are cyclic, and every longest path between them are what the
//! direct edges give. A switch both drives and reads its channel nets,
//! so two switches on one net already lie on one cycle through it. The
//! hub joins that cycle, and a path `u -> hub -> v` is the direct edge
//! `u -> v`. The one pair the direct edges leave out, a switch to
//! itself, is a path the switch already has through the other switch.
//! A net with exactly one switch keeps its direct edges, because a hub
//! there would put that switch on the false cycle `s -> hub -> s`.

use crate::component::{CompId, ComponentKind, NetId};
use crate::csr::{Csr, CsrFill};
use crate::netlist::Netlist;

/// Dependency graph over all components and the hubs of the nets that
/// two or more switches share (see the module docs).
pub(crate) struct DepGraph {
    /// Successors per node. Parallel edges are kept: one per pin that
    /// joins a driver to a reader, a driver to a hub or a hub to a
    /// reader.
    pub succ: Csr,
    /// The number of components. Node ids from here up are hubs.
    pub num_components: usize,
}

impl DepGraph {
    /// Builds the graph, keeping only edges where both endpoints pass
    /// `keep` (use `|_| true` for the full graph). Only kept switches
    /// count towards a hub.
    pub fn build(netlist: &Netlist, keep: impl Fn(CompId) -> bool) -> DepGraph {
        let num_components = netlist.num_components();
        let switches = switches_per_net(netlist, &keep);
        let hubs = switches.iter().filter(|&&on| on >= 2).count();
        // One walk sizes the rows, a second fills them.
        let mut lens = vec![0u32; num_components + hubs];
        for_each_edge(netlist, &keep, &switches, |from, _| {
            lens[from as usize] += 1;
        });
        let mut succ = CsrFill::with_row_lens(lens, 0);
        for_each_edge(netlist, &keep, &switches, |from, to| succ.push(from, to));
        DepGraph {
            succ: succ.finish(),
            num_components,
        }
    }

    /// Whether node `node` is a hub rather than a component.
    #[must_use]
    pub fn is_hub(&self, node: u32) -> bool {
        node as usize >= self.num_components
    }
}

/// Per net, how many kept switches have a channel end on it, up to 2:
/// one pass over the switches (a switch with both ends on one net
/// counts once there).
fn switches_per_net(netlist: &Netlist, keep: impl Fn(CompId) -> bool) -> Vec<u8> {
    let columns = netlist.columns();
    let mut switches = vec![0u8; netlist.num_nets()];
    for i in 0..columns.len() {
        if matches!(columns.kind(i), ComponentKind::Switch(_)) && keep(CompId(i as u32)) {
            let (a, b) = columns.channel(i);
            switches[a.index()] = (switches[a.index()] + 1).min(2);
            if b != a {
                switches[b.index()] = (switches[b.index()] + 1).min(2);
            }
        }
    }
    switches
}

/// Calls `edge(from, to)` for every edge between kept nodes, net by
/// net: a net with two or more `switches` on its channel through its
/// hub (the hubs numbered from `num_components` up, in net order),
/// every other net from each driver to each reader.
fn for_each_edge(
    netlist: &Netlist,
    keep: &impl Fn(CompId) -> bool,
    switches: &[u8],
    mut edge: impl FnMut(u32, u32),
) {
    let columns = netlist.columns();
    let drivers = netlist.driver_rows();
    let mut hub = netlist.num_components() as u32;
    for (net, &on) in switches.iter().enumerate() {
        let drivers = drivers.row(net).iter().filter(|&&d| keep(d));
        let readers = netlist.fanout(NetId(net as u32));
        if on >= 2 {
            for &d in drivers {
                edge(d.0, hub);
            }
            for &r in readers.iter().filter(|&&r| keep(r)) {
                edge(hub, r.0);
            }
            hub += 1;
            continue;
        }
        for &d in drivers {
            for &r in readers {
                // A switch reads the channel nets it drives; only a
                // gate reading its own output is a self-loop.
                let switch = || matches!(columns.kind(d.index()), ComponentKind::Switch(_));
                if keep(r) && (r != d || !switch()) {
                    edge(d.0, r.0);
                }
            }
        }
    }
}

/// Tarjan's strongly-connected-components algorithm, iteratively (deep
/// combinational chains would overflow a recursive version), over the
/// graph whose node `i` has the successors `succ.row(i)`.
///
/// Returns one row per component, in **reverse topological order** of
/// the condensation: a component appears before every component that
/// can reach it.
#[must_use]
pub(crate) fn strongly_connected_components(succ: &Csr) -> Csr {
    let n = succ.num_rows();
    const UNDISCOVERED: u32 = u32::MAX;
    let mut index = vec![UNDISCOVERED; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut call: Vec<(u32, usize)> = Vec::new();
    let mut next_index = 0u32;
    // At most one row per node, and every node in exactly one row.
    let mut components = Csr::with_capacity(n, n);

    for root in 0..n {
        if index[root] != UNDISCOVERED {
            continue;
        }
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root as u32);
        on_stack[root] = true;
        call.push((root as u32, 0));

        while let Some(frame) = call.last_mut() {
            let v = frame.0 as usize;
            if let Some(&w) = succ.row(v).get(frame.1) {
                frame.1 += 1;
                let w = w as usize;
                if index[w] == UNDISCOVERED {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w as u32);
                    on_stack[w] = true;
                    call.push((w as u32, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(parent) = call.last() {
                    let p = parent.0 as usize;
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    // The component is the stack from `v` up, top first.
                    let base = stack
                        .iter()
                        .rposition(|&w| w as usize == v)
                        .expect("SCC root on stack");
                    for &w in &stack[base..] {
                        on_stack[w as usize] = false;
                    }
                    components.push_row(stack.drain(base..).rev());
                }
            }
        }
    }
    components
}

/// Whether an SCC is a genuine cycle: more than one member, or a single
/// member with a self-loop.
#[must_use]
pub(crate) fn is_cyclic(succ: &Csr, component: &[u32]) -> bool {
    component.len() > 1 || succ.row(component[0] as usize).contains(&component[0])
}

/// Levelizes the graph whose node `i` has the successors `succ.row(i)`
/// (parallel edges allowed): longest paths over the condensation of its
/// strongly connected components, each SCC weighing `weight(members)`.
///
/// Returns `(sccs, rank, cyclic, order)`:
/// - `sccs`, the SCCs' members as the rows of a `Csr`, sinks first, as
///   Tarjan's algorithm emits them;
/// - per SCC, its `rank`: its own weight plus the largest rank of an
///   SCC with an edge into it (so a source SCC's rank is its weight);
/// - per SCC, whether it is `cyclic`: more than one member, or one with
///   a self-loop;
/// - `order`, every SCC once, in a topological order of the
///   condensation: Kahn's algorithm with a FIFO queue, seeded with the
///   source SCCs in row order. Under unit weights the queue pops in
///   nondecreasing rank, so the order is rank-major.
#[must_use]
pub fn levelize(
    succ: &Csr,
    weight: impl Fn(&[u32]) -> u32,
) -> (Csr, Vec<u32>, Vec<bool>, Vec<u32>) {
    let sccs = strongly_connected_components(succ);
    let num_scc = sccs.num_rows();
    let mut scc_of = vec![0u32; succ.num_rows()];
    for (s, members) in sccs.rows().enumerate() {
        for &m in members {
            scc_of[m as usize] = s as u32;
        }
    }
    let mut indegree = vec![0u32; num_scc];
    for (v, readers) in succ.rows().enumerate() {
        for &r in readers {
            let sr = scc_of[r as usize];
            if sr != scc_of[v] {
                indegree[sr as usize] += 1;
            }
        }
    }
    // An SCC's rank holds the largest rank feeding it until its turn.
    let mut rank = vec![0u32; num_scc];
    let mut cyclic = vec![false; num_scc];
    let mut order: Vec<u32> = (0..num_scc as u32)
        .filter(|&s| indegree[s as usize] == 0)
        .collect();
    let mut head = 0;
    while let Some(&s) = order.get(head) {
        head += 1;
        let members = sccs.row(s as usize);
        let r = rank[s as usize] + weight(members);
        rank[s as usize] = r;
        cyclic[s as usize] = is_cyclic(succ, members);
        for &m in members {
            for &v in succ.row(m as usize) {
                let sv = scc_of[v as usize];
                if sv != s {
                    rank[sv as usize] = rank[sv as usize].max(r);
                    let d = &mut indegree[sv as usize];
                    *d -= 1;
                    if *d == 0 {
                        order.push(sv);
                    }
                }
            }
        }
    }
    debug_assert_eq!(order.len(), num_scc, "the condensation is acyclic");
    (sccs, rank, cyclic, order)
}

/// The graph without hubs: every kept driver of a net joined to every
/// kept reader of it, so k² edges on a net under k switches. This is
/// what [`DepGraph::build`] built before hubs, kept as the oracle the
/// hub graph is held to on random circuits and on the corpus
/// (ROADMAP.md item 10 says what lets it go).
#[cfg(test)]
impl DepGraph {
    pub fn clique(netlist: &Netlist, keep: impl Fn(CompId) -> bool) -> DepGraph {
        let keep = &keep;
        let succ = Csr::bucket(netlist.num_components(), || {
            netlist
                .iter()
                .filter(move |&(id, _)| keep(id))
                .flat_map(move |(id, comp)| {
                    comp.drives()
                        .flat_map(move |net| netlist.fanout(net))
                        .filter(move |&&reader| keep(reader) && (reader != id || !comp.is_switch()))
                        .map(move |reader| (id.0, reader.0))
                })
        });
        DepGraph {
            succ,
            num_components: netlist.num_components(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{cycles, preflight, Levelization};
    use super::*;
    use crate::{Delay, GateKind, Level, NetlistBuilder, SwitchKind};
    use proptest::prelude::*;

    #[test]
    fn chain_has_only_trivial_sccs() {
        let mut b = NetlistBuilder::new("chain");
        let a = b.input("a");
        let y = b.net("y");
        let z = b.net("z");
        b.gate(GateKind::Not, &[a], y, Delay::default());
        b.gate(GateKind::Not, &[y], z, Delay::default());
        let n = b.finish().unwrap();
        let g = DepGraph::build(&n, |_| true);
        assert_eq!(g.succ.num_rows(), n.num_components(), "no hub on a chain");
        let sccs = strongly_connected_components(&g.succ);
        assert_eq!(sccs.num_rows(), n.num_components());
        assert!(sccs.rows().all(|c| !is_cyclic(&g.succ, c)));
    }

    #[test]
    fn latch_forms_one_scc() {
        let mut b = NetlistBuilder::new("latch");
        let s = b.input("s");
        let r = b.input("r");
        let q = b.net("q");
        let qn = b.net("qn");
        b.gate(GateKind::Nand, &[s, qn], q, Delay::default());
        b.gate(GateKind::Nand, &[r, q], qn, Delay::default());
        let n = b.finish().unwrap();
        let g = DepGraph::build(&n, |_| true);
        let sccs = strongly_connected_components(&g.succ);
        let cyclic: Vec<_> = sccs.rows().filter(|c| is_cyclic(&g.succ, c)).collect();
        assert_eq!(cyclic.len(), 1);
        assert_eq!(cyclic[0].len(), 2);
    }

    #[test]
    fn self_loop_detected() {
        let mut b = NetlistBuilder::new("osc");
        let y = b.net("y");
        let e = b.input("e");
        b.gate(GateKind::Nand, &[e, y], y, Delay::default());
        let n = b.finish().unwrap();
        let g = DepGraph::build(&n, |_| true);
        let sccs = strongly_connected_components(&g.succ);
        assert!(sccs.rows().any(|c| is_cyclic(&g.succ, c)));
    }

    #[test]
    fn reverse_topological_emission_order() {
        // a -> y -> z: the sink's SCC must be emitted before the
        // source's.
        let mut b = NetlistBuilder::new("chain");
        let a = b.input("a");
        let y = b.net("y");
        let z = b.net("z");
        b.gate(GateKind::Not, &[a], y, Delay::default());
        b.gate(GateKind::Not, &[y], z, Delay::default());
        let n = b.finish().unwrap();
        let g = DepGraph::build(&n, |_| true);
        let sccs = strongly_connected_components(&g.succ);
        let pos = |comp: u32| sccs.rows().position(|c| c.contains(&comp)).unwrap();
        // Component 2 (the z-driving gate) is downstream of component 1.
        assert!(pos(2) < pos(1));
    }

    /// The rank of every node: its SCC's.
    fn rank_of(sccs: &Csr, rank: &[u32]) -> Vec<u32> {
        let mut of = vec![u32::MAX; sccs.num_items()];
        for (members, &r) in sccs.rows().zip(rank) {
            for &v in members {
                of[v as usize] = r;
            }
        }
        of
    }

    #[test]
    fn ranked_nodes_outrank_their_ranked_predecessors() {
        // 0 -> 1 -> 3, 0 -> 2 -> 3, 1 -> 2, 3 -> 4, plus a lone node 5.
        let adj = Csr::from_rows([vec![1, 2], vec![2, 3], vec![3], vec![4], vec![], vec![]]);
        let (sccs, rank, cyclic, order) = levelize(&adj, |_| 1);
        assert!(cyclic.iter().all(|&c| !c));
        assert_eq!(sccs.num_rows(), adj.num_rows());
        let node_rank = rank_of(&sccs, &rank);
        for (v, readers) in adj.rows().enumerate() {
            for &r in readers {
                assert!(node_rank[v] < node_rank[r as usize], "{v} -> {r}");
            }
        }
        assert_eq!(
            node_rank,
            [1, 2, 3, 4, 5, 1],
            "longest path from a source, the node's own weight included"
        );
        let ordered: Vec<u32> = order.iter().map(|&s| rank[s as usize]).collect();
        assert!(ordered.windows(2).all(|w| w[0] <= w[1]), "rank-major");
    }

    #[test]
    fn cycles_become_groups_ranked_above_their_feeders() {
        // 0 -> 1 feeds the 2-cycle {2, 3} and the self-loop {4}; 5 reads
        // both clusters.
        let adj = Csr::from_rows([vec![1], vec![2, 4], vec![3], vec![2, 5], vec![4, 5], vec![]]);
        let (sccs, rank, cyclic, order) = levelize(&adj, |_| 1);
        assert_eq!(order.len(), sccs.num_rows(), "every SCC once");
        let cyclic = &cyclic;
        let of =
            |cyclic_rows: bool| (0..sccs.num_rows()).filter(move |&s| cyclic[s] == cyclic_rows);
        let mut groups: Vec<(u32, Vec<u32>)> = of(true)
            .map(|s| {
                let mut members = sccs.row(s).to_vec();
                members.sort_unstable();
                (rank[s], members)
            })
            .collect();
        groups.sort();
        assert_eq!(groups, [(3, vec![2, 3]), (3, vec![4])]);
        let mut ranked: Vec<u32> = of(false).map(|s| sccs.row(s)[0]).collect();
        ranked.sort_unstable();
        assert_eq!(ranked, [0, 1, 5]);
        let node_rank = rank_of(&sccs, &rank);
        assert!(
            node_rank[1] < node_rank[2] && node_rank[1] < node_rank[4],
            "feeder below"
        );
        assert!(
            node_rank[5] > node_rank[3] && node_rank[5] > node_rank[4],
            "reader above"
        );
    }

    /// Components that take no simulated time, as LS0001 keeps them.
    fn zero_time(netlist: &Netlist) -> impl Fn(CompId) -> bool + '_ {
        |id| cycles::is_zero_time(netlist.component(id))
    }

    /// `n`'s levelization (every net and component depth, cyclic flag
    /// and `max_depth`, hence the histogram) and LS0001 findings equal
    /// what the clique graph gives.
    fn assert_hubs_agree_with_cliques(n: &Netlist) {
        let oracle = Levelization::from_graph(n, &DepGraph::clique(n, |_| true));
        assert_eq!(Levelization::compute(n), oracle);
        let ls0001 = cycles::findings(n, &DepGraph::clique(n, zero_time(n)));
        assert_eq!(preflight(n), ls0001);
    }

    /// `k` switches from one rail to `k` nets of their own.
    fn rail_under(k: usize) -> Netlist {
        let mut b = NetlistBuilder::new("rail");
        let c = b.input("c");
        let vdd = b.net("vdd");
        b.supply(vdd, Level::One);
        for i in 0..k {
            let y = b.net(format!("y{i}"));
            b.switch(SwitchKind::Pmos, c, vdd, y);
        }
        b.finish().unwrap()
    }

    #[test]
    fn a_rail_under_k_switches_costs_edges_linear_in_k() {
        for k in [2, 200] {
            let n = rail_under(k);
            let g = DepGraph::build(&n, |_| true);
            // The rail's hub is the one node past the components.
            assert_eq!(g.succ.num_rows(), n.num_components() + 1);
            assert!(g.is_hub(n.num_components() as u32));
            // Into the hub: the supply and every switch. Out of it:
            // every switch. From the input: every switch.
            assert_eq!(g.succ.num_items(), 1 + 3 * k);
            // The clique joins every switch to every other.
            let clique = DepGraph::clique(&n, |_| true);
            assert_eq!(clique.succ.num_items(), k + k + k * (k - 1));
            assert_hubs_agree_with_cliques(&n);
        }
    }

    #[test]
    fn a_rail_under_one_switch_keeps_the_switch_acyclic() {
        let mut b = NetlistBuilder::new("one");
        let c = b.input("c");
        let vdd = b.net("vdd");
        let y = b.net("y");
        let z = b.net("z");
        b.supply(vdd, Level::One);
        let switch = b.switch(SwitchKind::Nmos, c, vdd, y);
        b.pull(y, Level::Zero);
        b.gate(GateKind::Not, &[y], z, Delay::default());
        let n = b.finish().unwrap();
        let g = DepGraph::build(&n, |_| true);
        assert_eq!(g.succ.num_rows(), n.num_components(), "no hub");
        let levels = Levelization::compute(&n);
        assert!(!levels.is_cyclic(switch));
        assert_eq!(levels.net_depth(z), 2);
        assert_hubs_agree_with_cliques(&n);
    }

    #[test]
    fn a_switch_with_both_ends_on_one_net_counts_once() {
        let mut b = NetlistBuilder::new("short");
        let c = b.input("c");
        let vdd = b.net("vdd");
        b.supply(vdd, Level::One);
        let switch = b.switch(SwitchKind::Nmos, c, vdd, vdd);
        let n = b.finish().unwrap();
        let g = DepGraph::build(&n, |_| true);
        assert_eq!(g.succ.num_rows(), n.num_components(), "no hub");
        assert!(!Levelization::compute(&n).is_cyclic(switch));
        assert_hubs_agree_with_cliques(&n);
    }

    /// A random circuit around shared switch nets: `switches` switches
    /// whose channel ends land on two supply rails and a few shared
    /// nets, one more rail under exactly one switch, pulls, a tristate
    /// bus, and gates (half of them zero-delay) that read the switch
    /// nets and drive some of them, closing loops through switches.
    fn random_circuit(rng: &mut TestRng, switches: usize) -> Netlist {
        let mut b = NetlistBuilder::new("hubs");
        let vdd = b.net("vdd");
        let gnd = b.net("gnd");
        let lone = b.net("lone");
        b.supply(vdd, Level::One);
        b.supply(gnd, Level::Zero);
        b.supply(lone, Level::Zero);
        let mut driven: Vec<NetId> = (0..3).map(|i| b.input(format!("i{i}"))).collect();
        driven.extend([vdd, gnd, lone]);
        let shared: Vec<NetId> = (0..rng.gen_range(1..=8usize))
            .map(|i| b.net(format!("s{i}")))
            .collect();
        let kind = |rng: &mut TestRng| {
            if rng.gen_bool(0.5) {
                SwitchKind::Nmos
            } else {
                SwitchKind::Pmos
            }
        };
        let pick = |rng: &mut TestRng, nets: &[NetId]| nets[rng.gen_range(0..nets.len())];
        let k = kind(rng);
        b.switch(k, driven[0], lone, shared[0]);
        let mut on_channel = vec![false; shared.len()];
        on_channel[0] = true;
        for _ in 0..switches {
            let a = if rng.gen_bool(0.4) {
                pick(rng, &[vdd, gnd])
            } else {
                pick(rng, &shared)
            };
            let end = rng.gen_range(0..shared.len());
            on_channel[end] = true;
            let end = shared[end];
            let control = if rng.gen_bool(0.7) {
                pick(rng, &driven)
            } else {
                pick(rng, &shared)
            };
            let k = kind(rng);
            b.switch(k, control, a, end);
        }
        // A shared net on no switch's channel gets a pull to drive it.
        for (&net, &on_channel) in shared.iter().zip(&on_channel) {
            if !on_channel || rng.gen_bool(0.3) {
                b.pull(net, Level::One);
            }
        }
        driven.extend(&shared);
        let bus = b.net("bus");
        for _ in 0..rng.gen_range(2..=3usize) {
            let (data, enable) = (pick(rng, &driven), pick(rng, &driven));
            b.gate(GateKind::Tristate, &[data, enable], bus, Delay::default());
        }
        driven.push(bus);
        let kinds = [GateKind::Not, GateKind::Nand, GateKind::Nor, GateKind::Xor];
        for g in 0..rng.gen_range(1..=10usize) {
            let kind = kinds[rng.gen_range(0..kinds.len())];
            let inputs: Vec<NetId> = (0..kind.arity().0).map(|_| pick(rng, &driven)).collect();
            let output = if rng.gen_bool(0.5) {
                pick(rng, &shared)
            } else {
                b.net(format!("g{g}"))
            };
            let delay = if rng.gen_bool(0.5) {
                Delay { rise: 0, fall: 0 }
            } else {
                Delay::uniform(1)
            };
            b.gate(kind, &inputs, output, delay);
            driven.push(output);
        }
        b.finish().unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn hubs_give_the_clique_graphs_depths_and_cycles(
            n in (2..=40usize).prop_perturb(|switches, mut rng| random_circuit(&mut rng, switches)),
        ) {
            assert_hubs_agree_with_cliques(&n);
        }
    }

    /// The five families at `target` components, tiled with `seed`. The
    /// circuits crate links its own build of this crate, so each netlist
    /// crosses over as JSON.
    fn assert_corpus_agrees(target: usize, seed: u64) {
        for base in logicsim_circuits::Benchmark::ALL {
            let params = logicsim_circuits::ScaledParams {
                base,
                target_components: target,
                seed,
            };
            let json =
                serde_json::to_string(&logicsim_circuits::scaled::build(&params).netlist).unwrap();
            let n: Netlist = serde_json::from_str(&json).unwrap();
            assert_hubs_agree_with_cliques(&n);
        }
    }

    #[test]
    fn hubs_level_the_corpus_as_the_clique_graph_does() {
        for seed in [0x1987, 0x2b] {
            assert_corpus_agrees(0, seed);
            assert_corpus_agrees(10_000, seed);
        }
    }

    #[test]
    #[ignore = "@100k: run in release"]
    fn hubs_level_the_corpus_at_100k_as_the_clique_graph_does() {
        for seed in [0x1987, 0x2b] {
            assert_corpus_agrees(100_000, seed);
        }
    }
}
