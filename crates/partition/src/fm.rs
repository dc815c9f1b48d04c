//! Fiduccia-Mattheyses (FM) min-cut partitioning.
//!
//! FM refines a bisection by *moving* single vertices (instead of
//! Kernighan-Lin's pair swaps), maintaining per-vertex gains
//! incrementally, under a balance constraint. One pass moves a vertex
//! at most once and keeps the best prefix of its moves; passes repeat
//! until no improvement. This is the workhorse heuristic of real circuit
//! partitioners — exactly the "related research on the circuit
//! partitioning problem" the paper says is in progress.
//!
//! A pass costs what it changes, not what the graph holds: gains are
//! computed once per [`refine_passes`] call and carried from pass to
//! pass, only vertices on the cut are candidates, and a pass that has
//! stopped finding better prefixes ends (the `Refiner` has the details).
//! The kernel is shared: flat FM runs it on a random split, the
//! multilevel partitioner on every level of its hierarchy.

use crate::strategies::{recursive_bisection, Partitioner};
use crate::Partition;
use logicsim_netlist::{CompId, ConnectivityGraph, Csr, Netlist};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::borrow::Cow;
use std::collections::BinaryHeap;

/// Refinement passes per flat FM bisection.
pub const MAX_PASSES: u32 = 6;
/// Allowed imbalance of a flat FM bisection: each side holds at least
/// `floor(n/2) - BALANCE_SLACK` vertices (scaled by the heaviest vertex
/// when activity weighting is on).
pub const BALANCE_SLACK: u64 = 1;
/// A pass ends after this many consecutive moves that produced no new
/// best prefix. The moves past the best prefix are undone anyway; at
/// `rtp@100k` no multilevel pass of the exhaustive loop this replaced
/// kept a prefix longer than 194 moves above the 231-node level. With
/// candidates on the cut the value is not sensitive: the multilevel
/// cut at 100k is within 0.2 % between 64 and 4096 (EXPERIMENTS.md,
/// "Set-up path"); flat FM from a random split keeps prefixes of a
/// thousand moves and more, which is what the margin is for.
pub const STALL_MOVES: usize = 1024;

/// Recursive FM bisection to `parts` blocks.
#[derive(Debug, Clone)]
pub struct FiducciaMattheysesPartitioner {
    /// Seed for the initial splits.
    seed: u64,
    /// Balance on static-activity vertex weights instead of component
    /// counts (see [`crate::activity_graph`]).
    activity_weighted: bool,
}

impl FiducciaMattheysesPartitioner {
    /// Creates a count-balanced FM partitioner.
    #[must_use]
    pub fn new(seed: u64) -> FiducciaMattheysesPartitioner {
        FiducciaMattheysesPartitioner {
            seed,
            activity_weighted: false,
        }
    }

    /// Enables activity-weighted balance.
    #[must_use]
    pub fn with_activity_weights(mut self) -> FiducciaMattheysesPartitioner {
        self.activity_weighted = true;
        self
    }
}

/// A weighted undirected graph: what one FM pass works on, and the
/// representation every multilevel coarsening level shares. The
/// adjacency has [`ConnectivityGraph`]'s layout (`u32` offsets,
/// `(neighbor, weight)` pairs of `u32`); gains widen the weights to
/// `i64` where they are summed.
#[derive(Debug, Clone, Default)]
pub struct WorkGraph {
    /// Row `i`: node `i`'s `(neighbor, edge weight)` pairs. No self
    /// edges, a neighbor at most once per row.
    pub(crate) adj: Csr<(u32, u32)>,
    /// Vertex weights (what a bisection balances).
    pub(crate) vwgt: Vec<u64>,
}

impl WorkGraph {
    /// Number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.vwgt.len()
    }

    /// Weight of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn vertex_weight(&self, v: usize) -> u64 {
        self.vwgt[v]
    }

    /// Sum of all vertex weights.
    #[must_use]
    pub fn total_vwgt(&self) -> u64 {
        self.vwgt.iter().sum()
    }

    /// Vertex weight on each side of the bisection `side`.
    #[must_use]
    pub fn side_weights(&self, side: &[bool]) -> [u64; 2] {
        let mut weights = [0u64; 2];
        for (&s, &w) in side.iter().zip(&self.vwgt) {
            weights[usize::from(s)] += w;
        }
        weights
    }

    /// Node `v`'s `(neighbor, edge weight)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = (u32, i64)> + '_ {
        self.adj.row(v).iter().map(|&(nb, w)| (nb, i64::from(w)))
    }

    /// Total weight of the edges the bisection `side` cuts.
    #[must_use]
    pub fn cut_weight(&self, side: &[bool]) -> i64 {
        let crossing = |v: usize| {
            self.neighbors(v)
                .filter(move |&(nb, _)| side[nb as usize] != side[v])
                .map(|(_, w)| w)
        };
        // Every cut edge is seen from both of its ends.
        (0..self.num_nodes()).flat_map(crossing).sum::<i64>() / 2
    }

    /// The full connectivity graph as a `WorkGraph`, vertex weights
    /// from [`ConnectivityGraph::node_weight`], and beside it the
    /// components in node order. The adjacency is moved, not copied:
    /// the partitioners hold one.
    #[must_use]
    pub fn from_connectivity(graph: ConnectivityGraph) -> (WorkGraph, Vec<CompId>) {
        let (nodes, adj, weight) = graph.into_parts();
        let vwgt = weight.into_iter().map(u64::from).collect();
        (WorkGraph { adj, vwgt }, nodes)
    }

    /// The induced subgraph over `nodes` — distinct and ascending — with
    /// ids relabelled to positions; over every node that is the graph
    /// itself, not a copy (the root region of a recursive bisection is
    /// the largest graph the partitioner ever holds).
    pub(crate) fn subgraph(&self, nodes: &[u32], scratch: &mut Vec<u32>) -> Cow<'_, WorkGraph> {
        if nodes.len() == self.num_nodes() {
            return Cow::Borrowed(self);
        }
        scratch.clear();
        scratch.resize(self.num_nodes(), u32::MAX);
        for (i, &v) in nodes.iter().enumerate() {
            scratch[v as usize] = i as u32;
        }
        let mut adj = Csr::default();
        for &v in nodes {
            adj.push_row(self.adj.row(v as usize).iter().filter_map(|&(nb, w)| {
                let local = scratch[nb as usize];
                (local != u32::MAX).then_some((local, w))
            }));
        }
        Cow::Owned(WorkGraph {
            adj,
            vwgt: nodes.iter().map(|&v| self.vwgt[v as usize]).collect(),
        })
    }
}

#[cfg(test)]
impl WorkGraph {
    /// A graph over `vwgt.len()` nodes from `(a, b, weight)` triples
    /// with nodes taken modulo the node count; self edges are dropped,
    /// parallel edges merged.
    pub(crate) fn from_edges(edges: &[(u32, u32, u32)], vwgt: Vec<u64>) -> WorkGraph {
        let n = vwgt.len() as u32;
        let mut rows = vec![std::collections::BTreeMap::new(); n as usize];
        for &(a, b, w) in edges {
            let (a, b) = (a % n, b % n);
            if a != b {
                *rows[a as usize].entry(b).or_insert(0) += w;
                *rows[b as usize].entry(a).or_insert(0) += w;
            }
        }
        WorkGraph {
            adj: Csr::from_rows(rows),
            vwgt,
        }
    }
}

/// The candidates of both sides of a bisection: per side an indexed
/// binary max-heap of `(gain, vertex)` entries, and per vertex its slot
/// in its side's heap (4 bytes).
///
/// A parent's entry is above its children's, so the root holds the
/// highest gain, ties toward the largest index; entries are distinct,
/// since a vertex is in at most one heap, once. A gain that changes is
/// moved in place by one sift, and an entry leaves only with its vertex.
/// Reads pop nothing: [`Buckets::best`] lists a heap in descending order
/// by a best-first walk.
struct Buckets {
    heaps: [Vec<(i64, u32)>; 2],
    /// Per vertex, its index in its side's heap; [`Buckets::ABSENT`]
    /// when it is in neither.
    slot: Vec<u32>,
    /// [`Buckets::best`]'s scratch: the entries whose parent the walk
    /// has listed and which it has not, with their slots.
    frontier: BinaryHeap<(i64, u32, u32)>,
}

impl Buckets {
    const ABSENT: u32 = u32::MAX;

    /// The heaps of `entries[s]` over vertices `0..n`, each vertex at
    /// most once in all of `entries`.
    fn new(n: usize, entries: [Vec<(i64, u32)>; 2]) -> Buckets {
        let mut buckets = Buckets {
            heaps: entries,
            slot: vec![Buckets::ABSENT; n],
            frontier: BinaryHeap::new(),
        };
        for s in 0..2 {
            for (i, &(_, v)) in buckets.heaps[s].iter().enumerate() {
                buckets.slot[v as usize] = i as u32;
            }
            for i in (0..buckets.heaps[s].len() / 2).rev() {
                buckets.sift_down(s, i);
            }
        }
        buckets
    }

    fn contains(&self, v: u32) -> bool {
        self.slot[v as usize] != Buckets::ABSENT
    }

    /// Adds `(gain, v)` to side `s`; `v` must be in neither heap.
    fn insert(&mut self, s: usize, gain: i64, v: u32) {
        debug_assert!(!self.contains(v));
        self.heaps[s].push((gain, v));
        self.sift_up(s, self.heaps[s].len() - 1);
    }

    /// Gives `v`, which must be in side `s`'s heap, the gain `gain`.
    fn update(&mut self, s: usize, v: u32, gain: i64) {
        let i = self.slot[v as usize] as usize;
        let old = std::mem::replace(&mut self.heaps[s][i].0, gain);
        if gain > old {
            self.sift_up(s, i);
        } else {
            self.sift_down(s, i);
        }
    }

    /// Takes `v` out of side `s`'s heap, where it must be.
    fn remove(&mut self, s: usize, v: u32) {
        let i = std::mem::replace(&mut self.slot[v as usize], Buckets::ABSENT) as usize;
        let heap = &mut self.heaps[s];
        let last = heap.pop().expect("`v` is in the heap");
        if i < heap.len() {
            let removed = std::mem::replace(&mut heap[i], last);
            if last > removed {
                self.sift_up(s, i);
            } else {
                self.sift_down(s, i);
            }
        }
    }

    /// Moves the entry at slot `i` of side `s` up to where it belongs.
    fn sift_up(&mut self, s: usize, mut i: usize) {
        let heap = &mut self.heaps[s];
        let entry = heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if heap[parent] > entry {
                break;
            }
            heap[i] = heap[parent];
            self.slot[heap[i].1 as usize] = i as u32;
            i = parent;
        }
        heap[i] = entry;
        self.slot[entry.1 as usize] = i as u32;
    }

    /// Moves the entry at slot `i` of side `s` down to where it belongs.
    fn sift_down(&mut self, s: usize, mut i: usize) {
        let heap = &mut self.heaps[s];
        let entry = heap[i];
        loop {
            let left = 2 * i + 1;
            let Some(&left_entry) = heap.get(left) else {
                break;
            };
            let child = match heap.get(left + 1) {
                Some(&right_entry) if right_entry > left_entry => left + 1,
                _ => left,
            };
            if entry > heap[child] {
                break;
            }
            heap[i] = heap[child];
            self.slot[heap[i].1 as usize] = i as u32;
            i = child;
        }
        heap[i] = entry;
        self.slot[entry.1 as usize] = i as u32;
    }

    /// The first of side `s`'s top `limit` entries, in descending order,
    /// whose vertex `accept` takes. The walk lists an entry only after
    /// its parent, each time the highest of those whose parent it has
    /// listed; when it takes the root, that is all it reads.
    fn best(
        &mut self,
        s: usize,
        limit: usize,
        mut accept: impl FnMut(u32) -> bool,
    ) -> Option<(i64, u32)> {
        let heap = &self.heaps[s];
        let &(mut gain, mut v) = heap.first()?;
        let mut i = 0;
        self.frontier.clear();
        for _ in 0..limit {
            if accept(v) {
                return Some((gain, v));
            }
            for child in [2 * i + 1, 2 * i + 2] {
                if let Some(&(g, u)) = heap.get(child) {
                    self.frontier.push((g, u, child as u32));
                }
            }
            let (g, u, next) = self.frontier.pop()?;
            (gain, v, i) = (g, u, next as usize);
        }
        None
    }
}

#[cfg(test)]
impl Buckets {
    /// Side `s`'s entries in ascending order.
    fn sorted(&self, s: usize) -> Vec<(i64, u32)> {
        let mut entries = self.heaps[s].clone();
        entries.sort_unstable();
        entries
    }

    /// Whether every parent is above its children and the slots name
    /// exactly the entries' positions.
    fn is_consistent(&self) -> bool {
        let in_order = self
            .heaps
            .iter()
            .all(|heap| (1..heap.len()).all(|i| heap[(i - 1) / 2] > heap[i]));
        let members: usize = self.heaps.iter().map(Vec::len).sum();
        let slotted = self.slot.iter().filter(|&&i| i != Buckets::ABSENT).count();
        let slots_point_back = self.heaps.iter().all(|heap| {
            heap.iter()
                .enumerate()
                .all(|(i, &(_, v))| self.slot[v as usize] == i as u32)
        });
        in_order && members == slotted && slots_point_back
    }
}

/// The state one FM refinement of a bisection carries from move to move
/// and from pass to pass.
///
/// *Per call* (`O(m)`): the gain of every vertex — external minus
/// internal edge weight, what moving it would take off the cut — its
/// total incident edge weight, and the [`Buckets`]: per side a heap of
/// the vertices *on the cut*, those with an edge across it
/// (`gain > -incident`), built bottom-up in time linear in their number.
/// *Per move* (`O(deg · log c)`, `c` the candidates on a side): the
/// neighbors' gains, and for each unlocked one its entry sifted once in
/// place, or inserted or removed as it comes onto or off the cut; a
/// pick reads the two roots, and only walks further (at most 8 entries
/// a side) past balance-blocked ones. *Per pass* (`O(moves · deg · log
/// c)`): the moves past the best prefix are flipped back through the
/// same update, which leaves every gain and entry exact for the next
/// pass; nothing is recomputed or refilled.
///
/// Candidates are the vertices on the cut, and no others. One off it has
/// the negative of its whole incident weight for a gain, and a pass that
/// spends its [`STALL_MOVES`] on such moves (the least negative ones,
/// once nothing improves, are leaves deep inside a side) never gets to
/// try the cut's own neighborhood. When no vertex on the cut can move —
/// a bisection along component borders, or every such vertex locked or
/// held by the balance floor — the pass ends: a pick never costs more
/// than a look at the heap tops.
pub(crate) struct Refiner<'a> {
    g: &'a WorkGraph,
    side: &'a mut [bool],
    /// Vertex weight per side.
    weights: [u64; 2],
    /// Exact for every vertex, locked or not, after every move.
    gains: Vec<i64>,
    /// Total incident edge weight per vertex.
    incident: Vec<i64>,
    /// Moved in the current pass: in no bucket until the pass ends.
    locked: Vec<bool>,
    /// Per side, the unlocked vertices on the cut.
    buckets: Buckets,
}

impl<'a> Refiner<'a> {
    pub(crate) fn new(g: &'a WorkGraph, side: &'a mut [bool]) -> Refiner<'a> {
        let n = g.num_nodes();
        let mut gains = Vec::with_capacity(n);
        let mut incident = Vec::with_capacity(n);
        let mut on_cut: [Vec<(i64, u32)>; 2] = [Vec::new(), Vec::new()];
        for v in 0..n {
            let (mut external, mut internal) = (0i64, 0i64);
            for (j, w) in g.neighbors(v) {
                if side[j as usize] == side[v] {
                    internal += w;
                } else {
                    external += w;
                }
            }
            gains.push(external - internal);
            incident.push(external + internal);
            if external > 0 {
                on_cut[usize::from(side[v])].push((external - internal, v as u32));
            }
        }
        Refiner {
            g,
            weights: g.side_weights(side),
            side,
            gains,
            incident,
            locked: vec![false; n],
            buckets: Buckets::new(n, on_cut),
        }
    }

    /// Brings an unlocked `v`'s bucket entry up to date: in its side's
    /// bucket with its gain if it is on the cut, in neither if not.
    fn place(&mut self, v: u32) {
        let gain = self.gains[v as usize];
        let s = usize::from(self.side[v as usize]);
        let on_cut = gain > -self.incident[v as usize];
        match (self.buckets.contains(v), on_cut) {
            (true, true) => self.buckets.update(s, v, gain),
            (true, false) => self.buckets.remove(s, v),
            (false, true) => self.buckets.insert(s, gain, v),
            (false, false) => {}
        }
    }

    /// Moves `v` to the other side and brings the side weights, every
    /// gain and the bucket entries of `v`'s unlocked neighbors up to
    /// date. `v` must be in neither bucket; placing it after is the
    /// caller's call.
    fn flip(&mut self, v: u32) {
        let g = self.g;
        let v = v as usize;
        let from = usize::from(self.side[v]);
        self.weights[from] -= g.vwgt[v];
        self.weights[1 - from] += g.vwgt[v];
        self.side[v] = !self.side[v];
        self.gains[v] = -self.gains[v];
        for (j32, w) in g.neighbors(v) {
            let j = j32 as usize;
            // An edge to a neighbor now on the other side became
            // external (+w for the external edge gained, +w for the
            // internal one lost), and the reverse.
            self.gains[j] += if self.side[j] == self.side[v] {
                -2 * w
            } else {
                2 * w
            };
            if !self.locked[j] {
                self.place(j32);
            }
        }
    }

    /// The vertex to move next: the highest-gain unlocked vertex on the
    /// cut whose move keeps its side at or above `min_w` — the better
    /// of the two bucket tops, ties toward the largest index. A few top
    /// entries per bucket are read so one balance-blocked heavy vertex
    /// does not hide lighter movable ones; with unit weights the root
    /// decides.
    fn pick(&mut self, min_w: u64) -> Option<(i64, u32)> {
        let (vwgt, side, weights) = (&self.g.vwgt, &*self.side, self.weights);
        let movable = |v: u32| {
            let vw = vwgt[v as usize];
            weights[usize::from(side[v as usize])] >= min_w + vw || vw == 0
        };
        let top = self.buckets.best(0, 8, movable);
        top.max(self.buckets.best(1, 8, movable))
    }

    /// One pass: picks and moves until no vertex on the cut can move or
    /// the last [`STALL_MOVES`] moves brought no new best prefix, keeps
    /// the best prefix, and returns whether that improved the cut.
    /// `history` is the pass's scratch list of moved vertices.
    fn pass(&mut self, min_w: u64, history: &mut Vec<u32>) -> bool {
        history.clear();
        let (mut sum, mut best_sum, mut best_k) = (0i64, 0i64, 0usize);
        while history.len() - best_k < STALL_MOVES {
            let Some((gain, v)) = self.pick(min_w) else {
                break;
            };
            self.buckets.remove(usize::from(self.side[v as usize]), v);
            self.locked[v as usize] = true;
            self.flip(v);
            history.push(v);
            sum += gain;
            if sum > best_sum {
                best_sum = sum;
                best_k = history.len();
            }
        }
        for &v in history[best_k..].iter().rev() {
            self.flip(v);
        }
        for &v in history.iter() {
            self.locked[v as usize] = false;
            self.place(v);
        }
        best_k > 0
    }

    /// Up to `max_passes` passes, each side keeping at least `min_w`
    /// vertex weight (a side that starts below it only ever gains);
    /// stops at the first pass that improves nothing.
    pub(crate) fn passes(&mut self, min_w: u64, max_passes: u32) {
        let mut history = Vec::new();
        for _ in 0..max_passes {
            if !self.pass(min_w, &mut history) {
                break;
            }
        }
    }

    /// Moves weight from the heavy side until both sides hold at least
    /// `min_w`, best gain first so that rebalancing adds as little cut
    /// as it can: a vertex on the cut if one weighs anything (the same
    /// walk as a pick's, as far as it takes), else the best off it, by
    /// one scan of the carried gains (the balance floor is not optional,
    /// so unlike a pass this does reach past the cut). Weightless
    /// vertices are left where they are.
    pub(crate) fn rebalance(&mut self, min_w: u64) {
        for _ in 0..self.g.num_nodes() {
            let light = usize::from(self.weights[0] >= self.weights[1]);
            let heavy = 1 - light;
            if self.weights[heavy] <= self.weights[light] || self.weights[light] >= min_w {
                break;
            }
            let vwgt = &self.g.vwgt;
            let weighs = |v: u32| vwgt[v as usize] > 0;
            let pick = self.buckets.best(heavy, usize::MAX, weighs).or_else(|| {
                let heavy_side = (0..self.g.num_nodes() as u32)
                    .filter(|&v| usize::from(self.side[v as usize]) == heavy && weighs(v));
                heavy_side.map(|v| (self.gains[v as usize], v)).max()
            });
            let Some((_, v)) = pick else { break };
            if self.buckets.contains(v) {
                self.buckets.remove(heavy, v);
            }
            self.flip(v);
            self.place(v);
        }
    }
}

/// Up to `max_passes` FM passes over the bisection `side` of `g`, each
/// side keeping at least `min_w` vertex weight; `side` is refined in
/// place. A pass moves a vertex at most once, best gain first among the
/// vertices on the cut, stops `STALL_MOVES` (1024) moves after its last
/// new best prefix and keeps that prefix; passes stop at the first one
/// that improves nothing.
///
/// The pick is: highest gain, ties broken toward the largest vertex
/// index, only from sides above the balance floor; a pass also ends
/// when no vertex on the cut can move. The partition crate's
/// `partition_pins` test pins the whole kernel — pick, carried gains,
/// buckets, rollback — through the exact assignment of both FM-based
/// partitioners on seven circuits; the unit tests below pin the stop
/// rules and the invariants.
pub fn refine_passes(g: &WorkGraph, side: &mut [bool], min_w: u64, max_passes: u32) {
    Refiner::new(g, side).passes(min_w, max_passes);
}

/// Names the sides of a bisection by their lowest member: the side
/// holding the region's first node comes back `true`, which
/// [`recursive_bisection`] makes the region's first child. Part ids then
/// do not depend on which side a seed happened to grow, and the head of
/// the netlist lands in part 0 — on the tiled circuits tile 0 with the
/// primary inputs, the part that is busy in the most ticks (six times
/// the other's on `crossbar@100k`), which `ParSimulator` runs on the
/// calling thread, where a phase that has work for that part alone
/// needs no handshake.
pub(crate) fn lowest_member_first(mut side: Vec<bool>) -> Vec<bool> {
    if side.first() == Some(&false) {
        side.iter_mut().for_each(|s| *s = !*s);
    }
    side
}

/// One flat FM bisection of `g`: a balanced random split, refined.
fn bisect(g: &WorkGraph, rng: &mut ChaCha8Rng) -> Vec<bool> {
    let n = g.num_nodes();
    let mut side = vec![false; n];
    if n <= 1 {
        return side;
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    for &i in order.iter().take(n / 2) {
        side[i] = true;
    }
    // With unit weights this is the `floor(n/2) - slack` vertex-count
    // floor; with activity weights the slack scales by the heaviest
    // vertex so at least `BALANCE_SLACK` vertices stay movable.
    let max_w = g.vwgt.iter().copied().max().unwrap_or(1).max(1);
    let min_side = (g.total_vwgt() / 2)
        .saturating_sub(BALANCE_SLACK * max_w)
        .max(1);
    refine_passes(g, &mut side, min_side, MAX_PASSES);
    side
}

impl Partitioner for FiducciaMattheysesPartitioner {
    fn split(&self, netlist: &Netlist, parts: u32) -> Partition {
        let graph = crate::activity_graph(netlist, self.activity_weighted);
        let (mut g0, nodes) = WorkGraph::from_connectivity(graph);
        if !self.activity_weighted {
            // Count balance: a dead (weight 0) component fills a slot
            // like any other.
            g0.vwgt.fill(1);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut scratch: Vec<u32> = Vec::new();
        recursive_bisection(netlist, &nodes, parts, |region| {
            lowest_member_first(bisect(&g0.subgraph(region, &mut scratch), &mut rng))
        })
    }

    fn name(&self) -> &'static str {
        if self.activity_weighted {
            "fm-act"
        } else {
            "fiduccia-mattheyses"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::RandomPartitioner;
    use logicsim_netlist::{Delay, GateKind, NetlistBuilder};

    fn two_clusters(cluster: usize) -> Netlist {
        let mut b = NetlistBuilder::new("clusters");
        let mut bridge = None;
        for c in 0..2 {
            let root = b.input(format!("in{c}"));
            let mut nets = vec![root];
            if let (1, Some(src)) = (c, bridge) {
                nets.push(src);
            }
            for g in 0..cluster {
                let y = b.net(format!("c{c}_{g}"));
                let x1 = nets[g % nets.len()];
                let x2 = nets[(g * 5 + 1) % nets.len()];
                if x1 == x2 {
                    b.gate(GateKind::Not, &[x1], y, Delay::uniform(1));
                } else {
                    b.gate(GateKind::Nand, &[x1, x2], y, Delay::uniform(1));
                }
                nets.push(y);
            }
            if c == 0 {
                bridge = nets.last().copied();
            }
        }
        b.finish().unwrap()
    }

    fn cut_of(n: &Netlist, p: &Partition) -> u64 {
        let graph = ConnectivityGraph::build(n, 16);
        let mut cut = 0u64;
        for node in 0..graph.num_nodes() as u32 {
            let a = p.part_of(graph.component(node)).unwrap();
            for &(nb, w) in graph.neighbors(node) {
                if nb > node && a != p.part_of(graph.component(nb)).unwrap() {
                    cut += u64::from(w);
                }
            }
        }
        cut
    }

    #[test]
    fn fm_is_valid_and_balanced() {
        let n = two_clusters(24);
        let fm = FiducciaMattheysesPartitioner::new(3);
        for parts in [2u32, 4] {
            let p = fm.partition(&n, parts);
            assert!(p.covers(&n));
            let sizes = p.sizes();
            let total: usize = sizes.iter().sum();
            assert_eq!(total, n.num_simulated_components());
            let max = *sizes.iter().max().unwrap();
            let min = *sizes.iter().min().unwrap();
            assert!(max - min <= total / 2, "parts badly unbalanced: {sizes:?}");
        }
    }

    #[test]
    fn fm_beats_random_on_clustered_circuit() {
        let n = two_clusters(30);
        let random_cut = cut_of(&n, &RandomPartitioner::new(1).partition(&n, 2));
        let fm_cut = cut_of(&n, &FiducciaMattheysesPartitioner::new(1).partition(&n, 2));
        assert!(
            fm_cut < random_cut / 2,
            "fm {fm_cut} vs random {random_cut}"
        );
    }

    #[test]
    fn fm_is_deterministic() {
        let n = two_clusters(16);
        let fm = FiducciaMattheysesPartitioner::new(7);
        assert_eq!(fm.partition(&n, 4), fm.partition(&n, 4));
    }

    #[test]
    fn activity_weighted_fm_is_valid_and_balances_load() {
        let n = two_clusters(24);
        let p = FiducciaMattheysesPartitioner::new(3)
            .with_activity_weights()
            .partition(&n, 2);
        assert!(p.covers(&n));
        // Predicted load (activity weight) per side must respect the
        // weighted balance floor the bisection enforces.
        let graph = crate::activity_graph(&n, true);
        let mut load = [0u64; 2];
        for v in 0..graph.num_nodes() as u32 {
            let part = p.part_of(graph.component(v)).unwrap() as usize;
            load[part] += u64::from(graph.node_weight(v));
        }
        let total = load[0] + load[1];
        let max_w = (0..graph.num_nodes() as u32)
            .map(|v| u64::from(graph.node_weight(v)))
            .max()
            .unwrap();
        let floor = (total / 2).saturating_sub(max_w).max(1);
        assert!(
            load[0] >= floor && load[1] >= floor,
            "load {load:?} below floor {floor}"
        );
    }

    #[test]
    fn fm_finds_the_two_cluster_cut() {
        // The ideal bisection cuts only the single bridge wire.
        let n = two_clusters(20);
        let fm = FiducciaMattheysesPartitioner::new(5);
        let cut = cut_of(&n, &fm.partition(&n, 2));
        assert!(cut <= 6, "cut = {cut} (ideal ~1-3)");
    }

    /// A pass ends, having moved nothing, when the vertices on the cut
    /// cannot move: it does not go looking among the others. Two paths
    /// of light vertices, each hanging off a heavy one, the heavy pair
    /// joined — and the same without the joining edge, a cut of 0.
    #[test]
    fn a_pass_ends_when_no_vertex_on_the_cut_can_move() {
        // 0 (heavy) - 1 - 2 - 3 | 4 (heavy) - 5 - 6 - 7, bridge 0 - 4.
        let path = [
            (0, 1, 1),
            (1, 2, 1),
            (2, 3, 1),
            (4, 5, 1),
            (5, 6, 1),
            (6, 7, 1),
        ];
        let vwgt = vec![10, 1, 1, 1, 10, 1, 1, 1];
        let start = [false, false, false, false, true, true, true, true];
        // Each side weighs 13 and must keep 8: a light vertex may move,
        // a heavy one may not.
        let min_w = 8;
        for bridge in [&[(0, 4, 3)][..], &[]] {
            let g = WorkGraph::from_edges(&[&path[..], bridge].concat(), vwgt.clone());
            let mut side = start;
            let mut history = vec![u32::MAX];
            let improved = Refiner::new(&g, &mut side).pass(min_w, &mut history);
            assert!(!improved && history.is_empty(), "moved {history:?}");
            assert_eq!(side, start);
        }
    }

    /// A pick reads past a bucket top the balance floor holds: the
    /// heavy vertex with the best gain cannot leave its side, the light
    /// one below it can, and nothing on the other side can move.
    #[test]
    fn a_pick_reads_past_a_balance_blocked_top() {
        // Side 0: 0 (heavy, gain 5), 1 (light, gain 2), 2 (heavy, off
        // the cut); side 1: 3 (heavy), 4 (light). Weights 21 and 11.
        let g = WorkGraph::from_edges(&[(0, 3, 5), (1, 4, 2)], vec![10, 1, 10, 10, 1]);
        let mut side = [false, false, false, true, true];
        assert_eq!(Refiner::new(&g, &mut side).pick(12), Some((2, 1)));
    }

    /// A pass that finds nothing better makes exactly [`STALL_MOVES`]
    /// moves, then flips them all back. Two rings of `STALL_MOVES`
    /// vertices with heavy edges, one per side, joined by two light
    /// edges: a bisection that keeps the sides within one vertex of each
    /// other either swaps whole rings (the same cut) or cuts a ring in
    /// two places (10 more), so no prefix of moves beats the start, and
    /// the rings give the pass more vertices on the cut than it may move.
    #[test]
    fn a_pass_stops_stall_moves_after_its_best_prefix() {
        let m = STALL_MOVES as u32;
        let ring = |base: u32| (0..m).map(move |i| (base + i, base + (i + 1) % m, 5));
        let edges: Vec<_> = ring(0)
            .chain(ring(m))
            .chain([(0, m, 1), (1, m + 1, 1)])
            .collect();
        let g = WorkGraph::from_edges(&edges, vec![1; 2 * m as usize]);
        let start: Vec<bool> = (0..2 * m).map(|v| v < m).collect();
        let mut side = start.clone();
        let mut history = Vec::new();
        let improved = Refiner::new(&g, &mut side).pass(u64::from(m) - 1, &mut history);
        assert!(!improved);
        assert_eq!(history.len(), STALL_MOVES);
        assert_eq!(side, start);
    }

    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// A weighted graph, a bisection of it and a balance floor:
    /// `(edges, vertex weights, sides, floor as a share of half the
    /// total weight)`. Enough edges that passes have real work, few
    /// enough that some vertices stay isolated or off the cut.
    type Case = (Vec<(u32, u32, u32)>, Vec<(u64, bool)>, u64);

    fn case() -> impl Strategy<Value = Case> {
        (
            proptest::collection::vec((any::<u32>(), any::<u32>(), 1u32..5), 0..160),
            proptest::collection::vec((0u64..4, any::<bool>()), 2..80),
            0u64..=100,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A pass keeps a prefix only for a positive gain sum, so a call
        /// never raises the weighted cut; and a vertex leaves a side
        /// only while that keeps the side at or above the floor, so a
        /// side that started there stays there and one that started
        /// below it never loses weight.
        #[test]
        fn refine_passes_never_raises_the_cut_nor_breaks_the_floor(
            (edges, nodes, floor_pct) in case(),
            max_passes in 1u32..5,
        ) {
            let (vwgt, mut side): (Vec<u64>, Vec<bool>) = nodes.into_iter().unzip();
            let g = WorkGraph::from_edges(&edges, vwgt);
            let min_w = g.total_vwgt() / 2 * floor_pct / 100;
            let (cut, weights) = (g.cut_weight(&side), g.side_weights(&side));
            refine_passes(&g, &mut side, min_w, max_passes);
            prop_assert!(g.cut_weight(&side) <= cut);
            for (before, after) in weights.into_iter().zip(g.side_weights(&side)) {
                prop_assert!(after >= before.min(min_w), "{before} -> {after}, floor {min_w}");
            }
        }

        /// A pass moves no vertex that is off the cut at the time of
        /// the move, whatever the weights block: replaying its moves,
        /// rolled-back ones included, each has a neighbor across.
        #[test]
        fn a_pass_moves_only_vertices_on_the_cut((edges, nodes, floor_pct) in case()) {
            let (vwgt, mut side): (Vec<u64>, Vec<bool>) = nodes.into_iter().unzip();
            let g = WorkGraph::from_edges(&edges, vwgt);
            let min_w = g.total_vwgt() / 2 * floor_pct / 100;
            let mut replay = side.clone();
            let mut history = Vec::new();
            Refiner::new(&g, &mut side).pass(min_w, &mut history);
            for &v in &history {
                let v = v as usize;
                prop_assert!(g.neighbors(v).any(|(j, _)| replay[j as usize] != replay[v]));
                replay[v] = !replay[v];
            }
        }

        /// The state a `Refiner` carries is exact after any mix of
        /// rebalancing and passes: building a fresh one on the refined
        /// bisection gives the same gains and the same buckets.
        #[test]
        fn carried_gains_and_buckets_equal_recomputed_ones(
            (edges, nodes, floor_pct) in case(),
        ) {
            let (vwgt, mut side): (Vec<u64>, Vec<bool>) = nodes.into_iter().unzip();
            let g = WorkGraph::from_edges(&edges, vwgt);
            let min_w = g.total_vwgt() / 2 * floor_pct / 100;
            let mut refiner = Refiner::new(&g, &mut side);
            refiner.rebalance(min_w);
            refiner.passes(min_w, 2);
            prop_assert!(refiner.buckets.is_consistent());
            let (gains, buckets, weights) = (
                refiner.gains.clone(),
                [refiner.buckets.sorted(0), refiner.buckets.sorted(1)],
                refiner.weights,
            );
            let fresh = Refiner::new(&g, &mut side);
            prop_assert_eq!(gains, fresh.gains.clone());
            prop_assert_eq!(buckets, [fresh.buckets.sorted(0), fresh.buckets.sorted(1)]);
            prop_assert_eq!(weights, fresh.weights);
        }

        /// The gain heaps against a `BTreeSet<(gain, vertex)>` per side,
        /// the buckets' representation before the heaps and the model
        /// they keep (this test is the only place it lives): random runs
        /// of inserts, in-place updates, removals, side changes and
        /// best-first reads, with gains from a small range so that ties
        /// are broken by the vertex. After every step both sides hold
        /// the model's entries, in heap order, with every slot right;
        /// every read returns what the model's descending iteration
        /// finds among as many entries.
        #[test]
        fn the_gain_heaps_keep_what_ordered_sets_keep(
            n in 1u32..48,
            sides in any::<u64>(),
            start in proptest::collection::vec((any::<u32>(), -6i64..=6), 0..48),
            ops in proptest::collection::vec(
                (0u8..5, any::<u32>(), -6i64..=6, any::<u64>(), 1usize..11),
                0..400,
            ),
        ) {
            let mut side: Vec<usize> = (0..n).map(|v| (sides >> v & 1) as usize).collect();
            let mut model = [BTreeSet::new(), BTreeSet::new()];
            let mut gain_of = vec![None; n as usize];
            for (v, gain) in start {
                let v = v % n;
                if gain_of[v as usize].is_none() {
                    gain_of[v as usize] = Some(gain);
                    model[side[v as usize]].insert((gain, v));
                }
            }
            let entries = [0, 1].map(|s| model[s].iter().copied().collect());
            let mut buckets = Buckets::new(n as usize, entries);
            for (op, v, gain, accepted, limit) in ops {
                let v = v % n;
                let s = side[v as usize];
                let accept = |u: u32| accepted >> (u % 64) & 1 == 1;
                match (op, gain_of[v as usize]) {
                    (0, None) => {
                        buckets.insert(s, gain, v);
                        model[s].insert((gain, v));
                        gain_of[v as usize] = Some(gain);
                    }
                    (0 | 1, Some(old)) => {
                        buckets.update(s, v, gain);
                        model[s].remove(&(old, v));
                        model[s].insert((gain, v));
                        gain_of[v as usize] = Some(gain);
                    }
                    (2, Some(old)) => {
                        buckets.remove(s, v);
                        model[s].remove(&(old, v));
                        gain_of[v as usize] = None;
                    }
                    (3, None) => side[v as usize] = 1 - s,
                    (4, _) => {
                        for s in [0, 1] {
                            let expected = model[s].iter().rev().take(limit).copied().find(|&(_, u)| accept(u));
                            prop_assert_eq!(buckets.best(s, limit, accept), expected);
                            let expected = model[s].iter().rev().copied().find(|&(_, u)| accept(u));
                            prop_assert_eq!(buckets.best(s, usize::MAX, accept), expected);
                        }
                    }
                    _ => {}
                }
                prop_assert!(buckets.is_consistent());
                for s in [0, 1] {
                    prop_assert_eq!(buckets.sorted(s), model[s].iter().copied().collect::<Vec<_>>());
                }
            }
        }
    }
}
