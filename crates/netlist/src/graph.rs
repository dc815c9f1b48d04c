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
/// two components. This is the object partitioners cut: an edge crossing
/// a partition boundary becomes inter-processor message traffic.
#[derive(Debug, Clone)]
pub struct ConnectivityGraph {
    /// Simulated components in netlist order.
    nodes: Vec<CompId>,
    /// Position of each component id in `nodes` (`u32::MAX` for
    /// non-simulated components).
    node_index: Vec<u32>,
    /// Node `i`'s `(neighbor, weight)` pairs, sorted by neighbor.
    adj: Csr<(u32, u32)>,
    /// Per-node partitioning weight: 1 for live components, 0 for dead
    /// ones (logic that cannot reach a primary output, per the LS0003
    /// analysis). Dead components are still nodes — they must be placed
    /// somewhere — but balanced partitioners should not count them
    /// toward processor load, since they never generate events that
    /// matter.
    weight: Vec<u32>,
}

impl ConnectivityGraph {
    /// Builds the graph from a netlist: for every net, the driving and
    /// reading simulated components are pairwise connected.
    ///
    /// To avoid quadratic blowup on very-high-fanout nets (clocks,
    /// resets), fanout lists longer than `fanout_clique_limit` connect
    /// reader components to the driver only (a star instead of a clique),
    /// which is exactly the message pattern the machine sees.
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
        // Edge accumulation without a hash map: push every connection as a
        // normalized `a << 32 | b` key, sort once, and count runs. This is
        // O(E log E) with contiguous allocations only, which at the
        // million-component scale replaces millions of hash probes and
        // per-bucket allocations.
        let mut pairs: Vec<u64> = Vec::new();
        let bump = |pairs: &mut Vec<u64>, a: u32, b: u32| {
            if a == b {
                return;
            }
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            pairs.push((u64::from(lo) << 32) | u64::from(hi));
        };
        let mut drivers: Vec<u32> = Vec::new();
        let mut readers: Vec<u32> = Vec::new();
        let mut all: Vec<u32> = Vec::new();
        for net_idx in 0..netlist.num_nets() {
            let net = NetId(net_idx as u32);
            let collect = |ids: &[CompId], out: &mut Vec<u32>| {
                out.clear();
                out.extend(
                    ids.iter()
                        .map(|c| node_index[c.index()])
                        .filter(|&i| i != u32::MAX),
                );
            };
            collect(netlist.drivers(net), &mut drivers);
            collect(netlist.fanout(net), &mut readers);
            if readers.len() <= fanout_clique_limit {
                // Clique over everything touching the net.
                all.clear();
                all.extend_from_slice(&drivers);
                all.extend_from_slice(&readers);
                all.sort_unstable();
                all.dedup();
                for i in 0..all.len() {
                    for j in (i + 1)..all.len() {
                        bump(&mut pairs, all[i], all[j]);
                    }
                }
            } else {
                // Star: driver to each reader.
                for &d in &drivers {
                    for &r in &readers {
                        bump(&mut pairs, d, r);
                    }
                }
            }
        }
        pairs.sort_unstable();
        // One run of equal keys is one edge, its length the weight. Runs
        // ascend by (lo, hi), so row `n` is handed its neighbors below
        // `n` (runs with hi == n) before those above (lo == n), each
        // ascending: `neighbors` comes out ordered by neighbor id.
        let adj = Csr::bucket(nodes.len(), || {
            pairs.chunk_by(|a, b| a == b).flat_map(|run| {
                let (a, b) = ((run[0] >> 32) as u32, (run[0] & 0xffff_ffff) as u32);
                let w = run.len() as u32;
                [(a, (b, w)), (b, (a, w))]
            })
        });
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

    /// Partitioning weight of node `i`: 1 when live, 0 when the LS0003
    /// analysis proved the component dead.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn node_weight(&self, i: u32) -> u32 {
        self.weight[i as usize]
    }

    /// Sum of all node weights (the number of live components).
    #[must_use]
    pub fn total_node_weight(&self) -> u64 {
        self.weight.iter().map(|&w| u64::from(w)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Delay, GateKind, NetlistBuilder, SwitchKind};

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
