//! Structural analyses: channel-connected components and the
//! component-connectivity graph used by partitioners.

use crate::component::{CompId, ComponentRef, NetId};
use crate::csr::Csr;
use crate::netlist::Netlist;
use std::ops::Range;

/// Disjoint sets over `0..n` with path compression.
///
/// `union` attaches one root under the other without ranking, so which
/// member ends up as a set's root is unspecified; callers that number
/// sets do so by first member seen, never by root.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    /// `n` singleton sets.
    #[must_use]
    pub fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }

    /// The representative of `x`'s set.
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    pub fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = x;
        while self.parent[cur as usize] != root {
            cur = std::mem::replace(&mut self.parent[cur as usize], root);
        }
        root
    }

    /// Merges the sets of `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        self.parent[ra as usize] = rb;
    }
}

/// Channel-connected groups of nets.
///
/// Two nets belong to the same group when a bidirectional switch bridges
/// them. The switch-level solver must resolve each group as a unit
/// (conduction can carry a value either way), while nets connected only
/// through gates are evaluated independently. Only nets a switch channel
/// touches belong to a group: every other net's value is the plain join
/// of its drivers, and [`ChannelGroups::group_of`] gives it
/// [`ChannelGroups::NONE`]. A gate-only circuit has no groups, and what
/// is held is proportional to the switch-level part of a circuit, not to
/// its size. A group of one net is one some switch connects to itself.
///
/// Groups are numbered by their lowest member net; a group's members
/// ascend by net id, its switches by component id.
#[derive(Debug, Clone)]
pub struct ChannelGroups {
    /// For each net index, the id of its group, or [`ChannelGroups::NONE`].
    group_of: Vec<u32>,
    /// Member nets of every group.
    members: Csr<NetId>,
    /// Switches whose channels lie inside each group.
    switches: Csr<CompId>,
}

impl ChannelGroups {
    /// What [`ChannelGroups::group_of`] gives a net no switch channel
    /// touches.
    pub const NONE: u32 = u32::MAX;

    /// Computes the channel-connected groups of a netlist by union-find
    /// over switch channel terminals.
    #[must_use]
    pub fn compute(netlist: &Netlist) -> ChannelGroups {
        const NONE: u32 = ChannelGroups::NONE;
        /// A channel terminal not numbered yet.
        const UNSET: u32 = NONE - 1;
        let n = netlist.num_nets();
        let channels = || {
            netlist.iter().filter_map(|(id, comp)| match comp {
                ComponentRef::Switch { a, b, .. } => Some((id, a, b)),
                _ => None,
            })
        };
        let mut sets = UnionFind::new(n);
        let mut group_of = vec![NONE; n];
        for (_, a, b) in channels() {
            sets.union(a.0, b.0);
            group_of[a.index()] = UNSET;
            group_of[b.index()] = UNSET;
        }
        // Number groups in order of their lowest member net. Every net of
        // a set is a channel terminal, the root included. A root's slot
        // carries its group's id from the first member seen on; a root
        // that is not itself that first member is overwritten with the
        // same id when the scan reaches it.
        let mut num_groups = 0usize;
        for i in 0..n {
            if group_of[i] == NONE {
                continue;
            }
            let root = sets.find(i as u32) as usize;
            if group_of[root] == UNSET {
                group_of[root] = num_groups as u32;
                num_groups += 1;
            }
            group_of[i] = group_of[root];
        }
        drop(sets); // before the runs are allocated: keeps the peak down
        let grouped = || {
            (0u32..)
                .map(NetId)
                .zip(&group_of)
                .filter(|&(_, &g)| g != NONE)
                .map(|(net, &g)| (g, net))
        };
        let members = Csr::bucket(num_groups, grouped);
        let switches = Csr::bucket(num_groups, || {
            channels().map(|(id, a, _)| (group_of[a.index()], id))
        });
        ChannelGroups {
            group_of,
            members,
            switches,
        }
    }

    /// The group containing `net`, or [`ChannelGroups::NONE`] when no
    /// switch channel touches it.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    #[must_use]
    #[inline]
    pub fn group_of(&self, net: NetId) -> u32 {
        self.group_of[net.index()]
    }

    /// Whether `net` belongs to a group of more than one net — one whose
    /// value the switch-level solver, not its drivers alone, decides.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    #[must_use]
    #[inline]
    pub fn in_nontrivial_group(&self, net: NetId) -> bool {
        let g = self.group_of(net);
        g != ChannelGroups::NONE && self.is_nontrivial(g)
    }

    /// Number of groups.
    #[must_use]
    pub fn num_groups(&self) -> usize {
        self.members.num_rows()
    }

    /// Where a group's members sit in the flat member array (all groups'
    /// members, group by group). Side tables with one entry per member
    /// are indexed by these positions.
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    #[must_use]
    #[inline]
    pub fn member_range(&self, group: u32) -> Range<usize> {
        self.members.row_range(group as usize)
    }

    /// Number of member positions: the nets that belong to a group.
    #[must_use]
    pub fn num_members(&self) -> usize {
        self.members.num_items()
    }

    /// Where a group's switches sit in the flat switch array; the
    /// counterpart of [`ChannelGroups::member_range`] for side tables
    /// with one entry per switch.
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    #[must_use]
    #[inline]
    pub fn switch_range(&self, group: u32) -> Range<usize> {
        self.switches.row_range(group as usize)
    }

    /// Member nets of a group, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    #[must_use]
    #[inline]
    pub fn members(&self, group: u32) -> &[NetId] {
        self.members.row(group as usize)
    }

    /// Switches whose channels lie inside a group, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    #[must_use]
    #[inline]
    pub fn switches(&self, group: u32) -> &[CompId] {
        self.switches.row(group as usize)
    }

    /// Returns `true` when the group has more than one net, i.e. actually
    /// needs switch-level resolution.
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    #[must_use]
    #[inline]
    pub fn is_nontrivial(&self, group: u32) -> bool {
        self.members.row_len(group as usize) > 1
    }

    /// Heap bytes held: the per-net group map and the two runs.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.group_of.capacity() * std::mem::size_of::<u32>()
            + self.members.heap_bytes()
            + self.switches.heap_bytes()
    }
}

/// Undirected weighted graph over simulated components (gates and
/// switches), with edge weight = number of net connections between the
/// two components, supply rails not counted. This is the object
/// partitioners cut: an edge crossing a partition boundary becomes
/// inter-processor message traffic.
#[derive(Debug, Clone)]
pub struct ConnectivityGraph {
    /// Simulated components in netlist order.
    nodes: Vec<CompId>,
    /// Position of each component id in `nodes` (`u32::MAX` for
    /// non-simulated components).
    node_index: Vec<u32>,
    /// Node `i`'s `(neighbor, weight)` pairs, sorted by neighbor.
    adj: Csr<(u32, u32)>,
    /// Per-node partitioning weight, as the caller of
    /// [`ConnectivityGraph::build_weighted`] supplied it: what balanced
    /// partitioners count as processor load. [`ConnectivityGraph::build`]
    /// gives 1 to live components and 0 to dead ones (logic that cannot
    /// reach a primary output, per the LS0003 analysis); dead
    /// components are still nodes, they must be placed somewhere.
    weight: Vec<u32>,
}

impl ConnectivityGraph {
    /// Builds the graph from a netlist: for every net, the driving and
    /// reading simulated components are pairwise connected. Node
    /// weights are 1 for live components and 0 for dead ones.
    ///
    /// To avoid quadratic blowup on very-high-fanout nets (clocks,
    /// resets), fanout lists longer than `fanout_clique_limit` connect
    /// reader components to the driver only (a star instead of a clique),
    /// which is exactly the message pattern the machine sees. A clique
    /// net adds 1 to each pair on it; a star net adds 1 per (driver
    /// pin, reader pin) pair, so a gate that reads the net on two pins
    /// is joined to its driver twice.
    ///
    /// A rail — a net a `Supply` component drives — joins no pair: its
    /// value never changes, so it carries no message, however many
    /// switches both drive and read it.
    #[must_use]
    pub fn build(netlist: &Netlist, fanout_clique_limit: usize) -> ConnectivityGraph {
        let live = crate::analyze::live_components(netlist);
        let weights: Vec<u32> = live.iter().map(|&l| u32::from(l)).collect();
        ConnectivityGraph::build_weighted(netlist, fanout_clique_limit, &weights)
    }

    /// [`ConnectivityGraph::build`] with caller-supplied per-component
    /// partitioning weights (indexed by component id; entries for
    /// non-simulated components are ignored). The static activity
    /// analysis produces such weights so balanced partitioners equalize
    /// predicted *event load* rather than component count.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is shorter than the component table.
    #[must_use]
    pub fn build_weighted(
        netlist: &Netlist,
        fanout_clique_limit: usize,
        weights: &[u32],
    ) -> ConnectivityGraph {
        assert!(
            weights.len() >= netlist.num_components(),
            "need one weight per component"
        );
        let nodes: Vec<CompId> = netlist
            .iter()
            .filter(|(_, c)| c.is_gate() || c.is_switch())
            .map(|(id, _)| id)
            .collect();
        let mut node_index = vec![u32::MAX; netlist.num_components()];
        for (i, id) in nodes.iter().enumerate() {
            node_index[id.index()] = i as u32;
        }
        let weight: Vec<u32> = nodes.iter().map(|id| weights[id.index()]).collect();
        let mut rail = vec![false; netlist.num_nets()];
        for (_, c) in netlist.iter() {
            if let ComponentRef::Supply { net, .. } = c {
                rail[net.index()] = true;
            }
        }
        // Rows go in node by node, each gathered from the node's own
        // pins (see `RowScratch`), into an adjacency reserved at a bound
        // on its length: every net but a rail adds at most one item per
        // (member, other member) of a clique, two per (driver, reader)
        // of a star. Nothing edge-sized is held besides it. The pages of
        // the reserve that no row reaches are never written, so they
        // take no memory, and trimming the reserve hands them back.
        let bound: usize = (0..netlist.num_nets() as u32)
            .map(NetId)
            .filter(|net| !rail[net.index()])
            .map(|net| {
                let (d, r) = (netlist.drivers(net).len(), netlist.fanout(net).len());
                if r <= fanout_clique_limit {
                    (d + r) * (d + r).saturating_sub(1)
                } else {
                    2 * d * r
                }
            })
            .sum();
        let mut row = RowScratch::new(
            netlist,
            &node_index,
            &rail,
            nodes.len(),
            fanout_clique_limit,
        );
        let mut adj = Csr::with_capacity(nodes.len(), bound);
        for (n, &c) in (0u32..).zip(&nodes) {
            row.push_to(n, c, &mut adj);
        }
        adj.shrink_to_fit();
        ConnectivityGraph {
            nodes,
            node_index,
            adj,
            weight,
        }
    }

    /// Number of nodes (simulated components).
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The component at graph node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn component(&self, i: u32) -> CompId {
        self.nodes[i as usize]
    }

    /// The graph node for a component, if it is simulated.
    #[must_use]
    pub fn node_of(&self, comp: CompId) -> Option<u32> {
        match self.node_index.get(comp.index()) {
            Some(&i) if i != u32::MAX => Some(i),
            _ => None,
        }
    }

    /// Neighbors of node `i` as `(node, weight)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn neighbors(&self, i: u32) -> &[(u32, u32)] {
        self.adj.row(i as usize)
    }

    /// The whole adjacency: row `i` is [`ConnectivityGraph::neighbors`]
    /// of node `i`.
    #[must_use]
    pub fn adjacency(&self) -> &Csr<(u32, u32)> {
        &self.adj
    }

    /// The simulated components in node order: entry `i` is
    /// [`ConnectivityGraph::component`] of node `i`.
    #[must_use]
    pub fn components(&self) -> &[CompId] {
        &self.nodes
    }

    /// The graph taken apart without a copy: the components in node
    /// order, the adjacency and the node weights.
    #[must_use]
    pub fn into_parts(self) -> (Vec<CompId>, Csr<(u32, u32)>, Vec<u32>) {
        (self.nodes, self.adj, self.weight)
    }

    /// Partitioning weight of node `i`, as supplied to
    /// [`ConnectivityGraph::build_weighted`] (1 live, 0 dead under
    /// [`ConnectivityGraph::build`]).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn node_weight(&self, i: u32) -> u32 {
        self.weight[i as usize]
    }

    /// Sum of all node weights.
    #[must_use]
    pub fn total_node_weight(&self) -> u64 {
        self.weight.iter().map(|&w| u64::from(w)).sum()
    }
}

/// What [`ConnectivityGraph::build_weighted`] holds while it gathers
/// one node's row: a slot per node, of which only the row's
/// neighbours are nonzero, and the list of those neighbours.
///
/// A node's row comes from its own pins and the nets they reach, rails
/// left out. Per net, the weight added to the edge between the node and
/// another simulated component `m` is what the net-by-net pair walk
/// (kept in the tests as the oracle) gives the pair:
///
/// * a clique net (at most `clique_limit` reader pins) adds 1 for each
///   other component on it, however many pins join either to it;
/// * a star net adds one per (driver pin, reader pin) pair joining the
///   two: the node's driver pins times `m`'s reader pins, plus the
///   node's reader pins times `m`'s driver pins. The node's own pin
///   counts come from its run of pins on the net and `m`'s from
///   meeting it once per pin in the net's rows, so a star net costs
///   its drivers times its readers, as in the pair walk.
struct RowScratch<'a> {
    netlist: &'a Netlist,
    node_index: &'a [u32],
    /// Per net: whether a `Supply` drives it.
    rail: &'a [bool],
    clique_limit: usize,
    /// Per node: its edge weight to the row's node, and the clique net
    /// that last counted it (`NONE` for none). Both are reset for the
    /// row's neighbours once the row is taken, which leaves every slot
    /// clear.
    slots: Vec<Slot>,
    /// The row's neighbours in the order they were first reached.
    neighbors: Vec<u32>,
    /// The row's node's pins as `(net, is_read)`, sorted: one run per
    /// net, its driver pins first.
    pins: Vec<(u32, bool)>,
}

/// One node's entry in [`RowScratch`].
#[derive(Clone, Copy)]
struct Slot {
    weight: u32,
    counted_on: u32,
}

impl Slot {
    /// Adds `w` to the edge's weight; `true` if the edge is new to the
    /// row.
    #[inline]
    fn add(&mut self, w: u32) -> bool {
        let new = self.weight == 0;
        self.weight += w;
        new
    }
}

impl<'a> RowScratch<'a> {
    /// Not a node, not a net.
    const NONE: u32 = u32::MAX;
    const CLEAR: Slot = Slot {
        weight: 0,
        counted_on: Self::NONE,
    };

    fn new(
        netlist: &'a Netlist,
        node_index: &'a [u32],
        rail: &'a [bool],
        num_nodes: usize,
        clique_limit: usize,
    ) -> RowScratch<'a> {
        RowScratch {
            netlist,
            node_index,
            rail,
            clique_limit,
            slots: vec![Self::CLEAR; num_nodes],
            neighbors: Vec::new(),
            pins: Vec::new(),
        }
    }

    /// Accumulates the row of node `n`, component `comp`, into `slots`
    /// and `neighbors`.
    fn gather(&mut self, n: u32, comp: CompId) {
        let (netlist, node_index) = (self.netlist, self.node_index);
        let comp = netlist.component(comp);
        let others = |comps: &'a [CompId]| {
            comps.iter().filter_map(move |c| {
                let m = node_index[c.index()];
                (m != Self::NONE && m != n).then_some(m)
            })
        };
        let mut pins = std::mem::take(&mut self.pins);
        pins.clear();
        comp.for_each_driven(|net| pins.push((net.0, false)));
        comp.for_each_read(|net| pins.push((net.0, true)));
        pins.sort_unstable();
        for run in pins.chunk_by(|a, b| a.0 == b.0) {
            let net = NetId(run[0].0);
            if self.rail[net.index()] {
                continue;
            }
            let (drivers, readers) = (netlist.drivers(net), netlist.fanout(net));
            if readers.len() <= self.clique_limit {
                for m in others(drivers).chain(others(readers)) {
                    let slot = &mut self.slots[m as usize];
                    if slot.counted_on != net.0 {
                        slot.counted_on = net.0;
                        if slot.add(1) {
                            self.neighbors.push(m);
                        }
                    }
                }
            } else {
                let reads = run.iter().filter(|&&(_, is_read)| is_read).count() as u32;
                let drives = run.len() as u32 - reads;
                let mut add = |m: u32, w: u32| {
                    if self.slots[m as usize].add(w) {
                        self.neighbors.push(m);
                    }
                };
                if drives > 0 {
                    others(readers).for_each(|m| add(m, drives));
                }
                if reads > 0 {
                    others(drivers).for_each(|m| add(m, reads));
                }
            }
        }
        self.pins = pins;
    }

    /// Appends node `n`'s row, ascending by neighbour, to `adj`, and
    /// clears the slots it used.
    fn push_to(&mut self, n: u32, comp: CompId, adj: &mut Csr<(u32, u32)>) {
        self.gather(n, comp);
        self.neighbors.sort_unstable();
        adj.push_row(
            self.neighbors
                .iter()
                .map(|&m| (m, self.slots[m as usize].weight)),
        );
        for &m in &self.neighbors {
            self.slots[m as usize] = Self::CLEAR;
        }
        self.neighbors.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Component, Delay, GateKind, Level, NetlistBuilder, SwitchKind};
    use proptest::prelude::*;

    /// The adjacency as `build_weighted` made it before it went node by
    /// node, kept as the oracle of its rows and weights: every
    /// connection pushed net by net as a `lo << 32 | hi` key, all keys
    /// sorted, each run of equal keys one edge. A net with a `Supply`
    /// among its drivers is a rail and pushes nothing. It lives only
    /// here.
    fn pair_walk(netlist: &Netlist, fanout_clique_limit: usize) -> Csr<(u32, u32)> {
        let g = ConnectivityGraph::build(netlist, fanout_clique_limit);
        let node = |c: &CompId| g.node_of(*c);
        let mut pairs: Vec<u64> = Vec::new();
        let mut bump = |a: u32, b: u32| {
            if a != b {
                let (lo, hi) = (a.min(b), a.max(b));
                pairs.push((u64::from(lo) << 32) | u64::from(hi));
            }
        };
        for net in (0..netlist.num_nets() as u32).map(NetId) {
            let supplied = netlist
                .drivers(net)
                .iter()
                .any(|&c| matches!(netlist.component(c), ComponentRef::Supply { .. }));
            if supplied {
                continue;
            }
            let drivers: Vec<u32> = netlist.drivers(net).iter().filter_map(node).collect();
            let readers: Vec<u32> = netlist.fanout(net).iter().filter_map(node).collect();
            if readers.len() <= fanout_clique_limit {
                let mut all = [drivers, readers].concat();
                all.sort_unstable();
                all.dedup();
                for (i, &a) in all.iter().enumerate() {
                    for &b in &all[i + 1..] {
                        bump(a, b);
                    }
                }
            } else {
                for &d in &drivers {
                    for &r in &readers {
                        bump(d, r);
                    }
                }
            }
        }
        pairs.sort_unstable();
        Csr::bucket(g.num_nodes(), || {
            pairs.chunk_by(|a, b| a == b).flat_map(|run| {
                let (a, b) = ((run[0] >> 32) as u32, run[0] as u32);
                let w = run.len() as u32;
                [(a, (b, w)), (b, (a, w))]
            })
        })
    }

    /// One step of a random circuit: what to add, a pick of nets for
    /// its operands and an arity in 1..=4 (clamped to the kind's).
    type Op = (u8, Vec<usize>, u8);

    /// Runs `ops` on a builder. Reads draw from nets something already
    /// drives; a quarter of the draws go to `hub`, which so has more
    /// readers than small clique limits allow, and a gate's draws can
    /// repeat, so a gate can read one net on two pins. Gates and
    /// switches can drive a net that is driven already (a bus). A supply
    /// makes a rail of a fresh net, which later draws reach, or of one
    /// already driven (the hub among them). Some nets are marked outputs
    /// and the rest of the logic is dead.
    fn random_circuit(ops: &[Op]) -> Netlist {
        let mut b = NetlistBuilder::new("random");
        let hub = b.input("hub");
        let mut driven = vec![hub, b.input("i1")];
        for (step, (what, picks, arity)) in ops.iter().enumerate() {
            let pick = |k: usize| match picks[k] % 4 {
                0 => hub,
                _ => driven[picks[k] / 4 % driven.len()],
            };
            let fresh = b.net(format!("n{step}"));
            let comp = match what % 8 {
                0..=4 => {
                    let kind = GateKind::ALL[usize::from(*what) % GateKind::ALL.len()];
                    let (min, max) = kind.arity();
                    let n = usize::from(*arity).clamp(min, max.unwrap_or(4));
                    let output = if what % 16 >= 12 { pick(4) } else { fresh };
                    Component::Gate {
                        kind,
                        inputs: (0..n).map(pick).collect(),
                        output,
                        delay: Delay::uniform(1),
                    }
                }
                5 | 6 => Component::Switch {
                    kind: SwitchKind::Nmos,
                    control: pick(0),
                    a: if what % 16 >= 8 { pick(1) } else { fresh },
                    b: pick(2),
                },
                _ if what % 16 == 7 => Component::Pull {
                    net: pick(3),
                    level: Level::One,
                },
                _ => Component::Supply {
                    net: if picks[4] % 2 == 0 { fresh } else { pick(3) },
                    level: Level::Zero,
                },
            };
            if step % 7 == 0 {
                b.mark_output(pick(5));
            }
            driven.extend(comp.drives());
            b.add_component(comp);
        }
        b.finish().expect("valid by construction")
    }

    fn any_op() -> impl Strategy<Value = Op> {
        (
            any::<u8>(),
            proptest::collection::vec(any::<usize>(), 6..=6),
            1u8..=4,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The node-by-node build gives the pair walk's rows, neighbour
        /// order and weights, under clique limits that make most busy
        /// nets stars (0, 1, 2) or all of them cliques (16).
        #[test]
        fn rows_equal_the_pair_walk(ops in proptest::collection::vec(any_op(), 1..80)) {
            let netlist = random_circuit(&ops);
            for limit in [0, 1, 2, 16] {
                let g = ConnectivityGraph::build(&netlist, limit);
                prop_assert_eq!(g.adjacency(), &pair_walk(&netlist, limit), "limit {}", limit);
            }
        }
    }

    /// The cases the proptest draws only sometimes, each in one circuit:
    /// a gate reading one net on two pins, under a star and under a
    /// clique; a bus of two drivers; a switch on a net that is read; a
    /// dead component.
    #[test]
    fn rows_equal_the_pair_walk_on_the_named_cases() {
        let mut b = NetlistBuilder::new("cases");
        let a = b.input("a");
        let y = b.net("y");
        let bus = b.net("bus");
        let dead = b.net("dead");
        b.gate(GateKind::Not, &[a], y, Delay::default());
        let twice = b.gate(GateKind::And, &[y, y, a], bus, Delay::default());
        b.gate(GateKind::Tristate, &[a, y], bus, Delay::default());
        for i in 0..3 {
            let z = b.net(format!("z{i}"));
            b.gate(GateKind::Buf, &[y], z, Delay::default());
        }
        b.switch(SwitchKind::Nmos, a, bus, y);
        b.gate(GateKind::Buf, &[bus], dead, Delay::default());
        b.mark_output(bus);
        let n = b.finish().unwrap();
        for limit in [0, 1, 2, 16] {
            assert_eq!(
                ConnectivityGraph::build(&n, limit).adjacency(),
                &pair_walk(&n, limit),
                "limit {limit}"
            );
        }
        // y has seven reader pins: at limit 2 it is a star, and the gate
        // reading it twice is joined to its driver twice.
        let g = ConnectivityGraph::build(&n, 2);
        let (not, and) = (g.node_of(CompId(1)).unwrap(), g.node_of(twice).unwrap());
        assert!(g.neighbors(and).contains(&(not, 2)));
        assert_eq!(g.total_node_weight(), g.num_nodes() as u64 - 4);
    }

    /// Twenty switches from one rail to nets of their own, each with a
    /// control of its own and each net read by an inverter: the rail, both driven and read by every
    /// switch, joins no two of them under a star (limit 2) or a clique
    /// (limit 64), and each switch keeps the edges of its own nets.
    #[test]
    fn switches_on_one_rail_get_no_edge_through_it() {
        let k = 20;
        let mut b = NetlistBuilder::new("rail");
        let gnd = b.net("gnd");
        b.supply(gnd, Level::Zero);
        let switches: Vec<CompId> = (0..k)
            .map(|i| {
                let ctl = b.input(format!("c{i}"));
                let (x, y) = (b.net(format!("x{i}")), b.net(format!("y{i}")));
                b.gate(GateKind::Not, &[x], y, Delay::default());
                b.switch(SwitchKind::Nmos, ctl, gnd, x)
            })
            .collect();
        let n = b.finish().unwrap();
        for limit in [2, 64] {
            let g = ConnectivityGraph::build(&n, limit);
            assert_eq!(g.adjacency(), &pair_walk(&n, limit), "limit {limit}");
            for &s in &switches {
                let row = g.neighbors(g.node_of(s).unwrap());
                assert_eq!(row.len(), 1, "limit {limit}: only the inverter on its net");
                assert_eq!(g.component(row[0].0).0, s.0 - 1);
            }
            // Each inverter's edge to its switch, counted from both ends.
            assert_eq!(g.adjacency().num_items(), 2 * k);
        }
    }

    fn switch_chain(k: usize) -> Netlist {
        let mut b = NetlistBuilder::new("chain");
        let ctl = b.input("ctl");
        let mut prev = b.input("a0");
        for i in 1..=k {
            let next = b.net(format!("a{i}"));
            b.switch(SwitchKind::Nmos, ctl, prev, next);
            prev = next;
        }
        b.finish().unwrap()
    }

    #[test]
    fn switch_chain_is_one_group() {
        let n = switch_chain(4);
        let g = ChannelGroups::compute(&n);
        let first = n.find_net("a0").unwrap();
        let last = n.find_net("a4").unwrap();
        assert_eq!(g.group_of(first), g.group_of(last));
        let gid = g.group_of(first);
        assert_eq!(g.members(gid).len(), 5);
        assert_eq!(g.switches(gid).len(), 4);
        assert!(g.is_nontrivial(gid));
        // ctl is not channel-connected.
        assert_ne!(g.group_of(n.find_net("ctl").unwrap()), gid);
    }

    #[test]
    fn groups_are_numbered_by_lowest_member_and_runs_ascend() {
        // Two groups interleaved in net order: {p0, p1, p2} joined back
        // to front, and {q0, q1}; `loner` carries a switch onto itself.
        let mut b = NetlistBuilder::new("g");
        let ctl = b.input("ctl");
        let p0 = b.input("p0");
        let q0 = b.input("q0");
        let p1 = b.net("p1");
        let q1 = b.net("q1");
        let p2 = b.net("p2");
        let loner = b.input("loner");
        let s_p12 = b.switch(SwitchKind::Nmos, ctl, p2, p1);
        let s_q = b.switch(SwitchKind::Pmos, ctl, q1, q0);
        let s_p01 = b.switch(SwitchKind::Nmos, ctl, p1, p0);
        let s_self = b.switch(SwitchKind::Nmos, ctl, loner, loner);
        let n = b.finish().unwrap();
        let g = ChannelGroups::compute(&n);
        let ids: Vec<u32> = [ctl, p0, q0, p1, q1, p2, loner]
            .iter()
            .map(|&net| g.group_of(net))
            .collect();
        assert_eq!(ids, [ChannelGroups::NONE, 0, 1, 0, 1, 0, 2]);
        assert_eq!(g.num_groups(), 3);
        assert_eq!(g.num_members(), 6);
        assert_eq!(g.members(0), [p0, p1, p2]);
        assert_eq!(g.switches(0), [s_p12, s_p01]);
        assert_eq!(g.members(1), [q0, q1]);
        assert_eq!(g.switches(1), [s_q]);
        assert_eq!(g.members(2), [loner]);
        assert_eq!(g.switches(2), [s_self]);
        assert!(!g.is_nontrivial(2));
        assert!(g.in_nontrivial_group(q1) && !g.in_nontrivial_group(loner));
        assert!(!g.in_nontrivial_group(ctl));
        assert_eq!(g.member_range(1), 3..5);
        assert_eq!(g.switch_range(1), 2..3);
    }

    /// Nothing is grouped without a switch, so a gate-only circuit holds
    /// the per-net map and two empty runs.
    #[test]
    fn gate_only_circuit_has_no_groups() {
        let mut b = NetlistBuilder::new("g");
        let a = b.input("a");
        let y = b.net("y");
        b.gate(GateKind::Not, &[a], y, Delay::default());
        let n = b.finish().unwrap();
        let g = ChannelGroups::compute(&n);
        assert_eq!(g.num_groups(), 0);
        assert_eq!(g.num_members(), 0);
        assert_eq!([a, y].map(|net| g.group_of(net)), [ChannelGroups::NONE; 2]);
        assert_eq!(g.heap_bytes(), 4 * n.num_nets() + 2 * 4);
    }

    #[test]
    fn connectivity_graph_links_driver_to_readers() {
        let mut b = NetlistBuilder::new("g");
        let a = b.input("a");
        let y = b.net("y");
        let z1 = b.net("z1");
        let z2 = b.net("z2");
        let inv = b.gate(GateKind::Not, &[a], y, Delay::default());
        let g1 = b.gate(GateKind::Not, &[y], z1, Delay::default());
        let g2 = b.gate(GateKind::Not, &[y], z2, Delay::default());
        let n = b.finish().unwrap();
        let g = ConnectivityGraph::build(&n, 16);
        assert_eq!(g.num_nodes(), 3);
        let ni = g.node_of(inv).unwrap();
        let n1 = g.node_of(g1).unwrap();
        let n2 = g.node_of(g2).unwrap();
        let neigh: Vec<u32> = g.neighbors(ni).iter().map(|&(x, _)| x).collect();
        assert!(neigh.contains(&n1) && neigh.contains(&n2));
        // Clique mode also links the two sibling readers.
        assert!(g.neighbors(n1).iter().any(|&(x, _)| x == n2));
    }

    #[test]
    fn star_mode_skips_reader_clique() {
        let mut b = NetlistBuilder::new("g");
        let a = b.input("a");
        let y = b.net("y");
        b.gate(GateKind::Not, &[a], y, Delay::default());
        let mut readers = Vec::new();
        for i in 0..8 {
            let z = b.net(format!("z{i}"));
            readers.push(b.gate(GateKind::Not, &[y], z, Delay::default()));
        }
        let n = b.finish().unwrap();
        let g = ConnectivityGraph::build(&n, 4);
        let r0 = g.node_of(readers[0]).unwrap();
        let r1 = g.node_of(readers[1]).unwrap();
        assert!(!g.neighbors(r0).iter().any(|&(x, _)| x == r1));
    }

    #[test]
    fn dead_components_get_zero_weight() {
        let mut b = NetlistBuilder::new("g");
        let a = b.input("a");
        let y = b.net("y");
        let w = b.net("w");
        let live = b.gate(GateKind::Not, &[a], y, Delay::default());
        let dead = b.gate(GateKind::Buf, &[a], w, Delay::default());
        b.mark_output(y);
        let n = b.finish().unwrap();
        let g = ConnectivityGraph::build(&n, 16);
        assert_eq!(g.node_weight(g.node_of(live).unwrap()), 1);
        assert_eq!(g.node_weight(g.node_of(dead).unwrap()), 0);
        assert_eq!(g.total_node_weight(), 1);
    }

    #[test]
    fn all_weights_one_without_outputs() {
        let mut b = NetlistBuilder::new("g");
        let a = b.input("a");
        let y = b.net("y");
        b.gate(GateKind::Not, &[a], y, Delay::default());
        let n = b.finish().unwrap();
        let g = ConnectivityGraph::build(&n, 16);
        assert_eq!(g.total_node_weight(), g.num_nodes() as u64);
    }

    #[test]
    fn non_simulated_components_have_no_node() {
        let mut b = NetlistBuilder::new("g");
        let a = b.input("a");
        let y = b.net("y");
        b.gate(GateKind::Not, &[a], y, Delay::default());
        let n = b.finish().unwrap();
        let g = ConnectivityGraph::build(&n, 16);
        // Component 0 is the Input for `a`.
        assert_eq!(g.node_of(CompId(0)), None);
    }
}
