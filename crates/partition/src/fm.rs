//! Fiduccia-Mattheyses (FM) min-cut partitioning.
//!
//! FM refines a bisection by *moving* single vertices (instead of
//! Kernighan-Lin's pair swaps), maintaining per-vertex gains
//! incrementally, under a balance constraint. One pass moves every
//! vertex at most once and keeps the best prefix; passes repeat until
//! no improvement. This is the workhorse heuristic of real circuit
//! partitioners — exactly the "related research on the circuit
//! partitioning problem" the paper says is in progress.

use crate::strategies::{recursive_bisection, Partitioner};
use crate::Partition;
use logicsim_netlist::{ConnectivityGraph, Netlist};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::borrow::Cow;
use std::collections::BTreeSet;

/// Refinement passes per flat FM bisection.
const MAX_PASSES: u32 = 6;
/// Allowed imbalance of a flat FM bisection: each side holds at least
/// `floor(n/2) - BALANCE_SLACK` vertices (scaled by the heaviest vertex
/// when activity weighting is on).
const BALANCE_SLACK: u64 = 1;

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

/// A weighted undirected graph in CSR form: what one FM pass works on,
/// and the representation every multilevel coarsening level shares.
#[derive(Debug, Clone, Default)]
pub(crate) struct WorkGraph {
    /// Node `i`'s neighbors are `adjncy[xadj[i] .. xadj[i + 1]]`.
    pub xadj: Vec<usize>,
    pub adjncy: Vec<u32>,
    /// Edge weights, parallel to `adjncy`.
    pub adjwgt: Vec<i64>,
    /// Vertex weights (what a bisection balances).
    pub vwgt: Vec<u64>,
}

impl WorkGraph {
    pub fn len(&self) -> usize {
        self.vwgt.len()
    }

    pub fn total_vwgt(&self) -> u64 {
        self.vwgt.iter().sum()
    }

    /// Vertex weight on each side of the bisection `side`.
    pub fn side_weights(&self, side: &[bool]) -> [u64; 2] {
        let mut weights = [0u64; 2];
        for (&s, &w) in side.iter().zip(&self.vwgt) {
            weights[usize::from(s)] += w;
        }
        weights
    }

    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = (u32, i64)> + '_ {
        self.adjncy[self.xadj[v]..self.xadj[v + 1]]
            .iter()
            .copied()
            .zip(self.adjwgt[self.xadj[v]..self.xadj[v + 1]].iter().copied())
    }

    /// The full connectivity graph as a `WorkGraph`, vertex weights
    /// from [`ConnectivityGraph::node_weight`].
    pub fn from_connectivity(graph: &ConnectivityGraph) -> WorkGraph {
        let n = graph.num_nodes();
        let mut g = WorkGraph {
            xadj: Vec::with_capacity(n + 1),
            adjncy: Vec::new(),
            adjwgt: Vec::new(),
            vwgt: Vec::with_capacity(n),
        };
        g.xadj.push(0);
        for v in 0..n as u32 {
            for &(nb, w) in graph.neighbors(v) {
                g.adjncy.push(nb);
                g.adjwgt.push(i64::from(w));
            }
            g.xadj.push(g.adjncy.len());
            g.vwgt.push(u64::from(graph.node_weight(v)));
        }
        g
    }

    /// The induced subgraph over `nodes` — distinct and ascending — with
    /// ids relabelled to positions; over every node that is the graph
    /// itself, not a copy (the root region of a recursive bisection is
    /// the largest graph the partitioner ever holds).
    pub fn subgraph(&self, nodes: &[u32], scratch: &mut Vec<u32>) -> Cow<'_, WorkGraph> {
        if nodes.len() == self.len() {
            return Cow::Borrowed(self);
        }
        scratch.clear();
        scratch.resize(self.len(), u32::MAX);
        for (i, &v) in nodes.iter().enumerate() {
            scratch[v as usize] = i as u32;
        }
        let mut g = WorkGraph {
            xadj: Vec::with_capacity(nodes.len() + 1),
            adjncy: Vec::new(),
            adjwgt: Vec::new(),
            vwgt: Vec::with_capacity(nodes.len()),
        };
        g.xadj.push(0);
        for &v in nodes {
            for (nb, w) in self.neighbors(v as usize) {
                let local = scratch[nb as usize];
                if local != u32::MAX {
                    g.adjncy.push(local);
                    g.adjwgt.push(w);
                }
            }
            g.xadj.push(g.adjncy.len());
            g.vwgt.push(self.vwgt[v as usize]);
        }
        Cow::Owned(g)
    }
}

/// Up to `max_passes` FM passes over the bisection `side` of `g`, each
/// side keeping at least `min_w` vertex weight; `side` is refined in
/// place. A pass moves every vertex at most once, best gain first, and
/// keeps the best prefix of its moves; passes stop at the first one
/// that improves nothing.
///
/// Candidate selection uses per-side gain buckets (ordered sets keyed
/// by `(gain, vertex)`), so each of the `n` moves costs `O(log n)`
/// instead of a linear best-gain scan. The bucket pick is: highest
/// gain, ties broken toward the largest vertex index, only sides above
/// the balance floor — with unit weights exactly the selection rule of
/// the linear scan, which the `bucketed_fm_matches_reference` proptest
/// pins against a naive reimplementation.
pub(crate) fn refine_passes(g: &WorkGraph, side: &mut [bool], min_w: u64, max_passes: u32) {
    let n = g.len();
    if n <= 1 {
        return;
    }
    let mut weights = g.side_weights(side);
    let gain_of = |side: &[bool], v: usize| -> i64 {
        g.neighbors(v)
            .map(|(j, w)| if side[j as usize] != side[v] { w } else { -w })
            .sum()
    };
    for _ in 0..max_passes {
        let mut work = side.to_vec();
        let mut w = weights;
        let mut gains: Vec<i64> = (0..n).map(|v| gain_of(&work, v)).collect();
        let mut locked = vec![false; n];
        // Gain buckets, one per side: `last()` is the highest-gain
        // unlocked vertex of that side, ties toward the largest index.
        let mut buckets: [BTreeSet<(i64, u32)>; 2] = [BTreeSet::new(), BTreeSet::new()];
        for v in 0..n {
            buckets[usize::from(work[v])].insert((gains[v], v as u32));
        }
        let mut history: Vec<(usize, i64)> = Vec::with_capacity(n);
        for _ in 0..n {
            // Highest-gain unlocked vertex whose move keeps balance:
            // the better of the two side tops. A few top entries per
            // side are scanned so one balance-blocked heavy vertex
            // does not hide lighter movable ones; with unit weights
            // the first entry decides.
            let mut candidate: Option<(i64, u32)> = None;
            for (s, bucket) in buckets.iter().enumerate() {
                for &(gain, v32) in bucket.iter().rev().take(8) {
                    let vw = g.vwgt[v32 as usize];
                    if w[s] >= min_w + vw || vw == 0 {
                        candidate = candidate.max(Some((gain, v32)));
                        break;
                    }
                }
            }
            let Some((gain, v32)) = candidate else { break };
            let v = v32 as usize;
            let from = usize::from(work[v]);
            buckets[from].remove(&(gain, v32));
            w[from] -= g.vwgt[v];
            work[v] = !work[v];
            w[1 - from] += g.vwgt[v];
            locked[v] = true;
            history.push((v, gain));
            // v moved: an edge to a neighbor now on the other side
            // became external (+w twice: once for losing internal, once
            // for gaining external), and the reverse.
            for (j32, ew) in g.neighbors(v) {
                let j = j32 as usize;
                if locked[j] {
                    continue;
                }
                let s = usize::from(work[j]);
                buckets[s].remove(&(gains[j], j32));
                if work[j] != work[v] {
                    gains[j] += 2 * ew;
                } else {
                    gains[j] -= 2 * ew;
                }
                buckets[s].insert((gains[j], j32));
            }
        }
        // Best prefix of moves.
        let mut best_sum = 0i64;
        let mut sum = 0i64;
        let mut best_k = 0usize;
        for (k, &(_, gain)) in history.iter().enumerate() {
            sum += gain;
            if sum > best_sum {
                best_sum = sum;
                best_k = k + 1;
            }
        }
        if best_k == 0 {
            break;
        }
        for &(v, _) in history.iter().take(best_k) {
            let from = usize::from(side[v]);
            weights[from] -= g.vwgt[v];
            side[v] = !side[v];
            weights[1 - from] += g.vwgt[v];
        }
    }
}

/// One flat FM bisection of `g`: a balanced random split, refined.
fn bisect(g: &WorkGraph, rng: &mut ChaCha8Rng) -> Vec<bool> {
    let n = g.len();
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
    fn partition(&self, netlist: &Netlist, parts: u32) -> Partition {
        let graph = crate::activity_graph(netlist, self.activity_weighted);
        let mut g0 = WorkGraph::from_connectivity(&graph);
        if !self.activity_weighted {
            // Count balance: a dead (weight 0) component fills a slot
            // like any other.
            g0.vwgt.fill(1);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut scratch: Vec<u32> = Vec::new();
        recursive_bisection(netlist, &graph, parts, |region| {
            bisect(&g0.subgraph(region, &mut scratch), &mut rng)
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

/// FM partitioning as a plain `fn` returning the per-component
/// assignment `ParSimulator` takes (e.g. to cut an optimizer-rewritten
/// graph afresh instead of remapping the original's cut).
#[must_use]
pub fn fm_assignment(netlist: &Netlist, parts: u32, seed: u64) -> Vec<u32> {
    FiducciaMattheysesPartitioner::new(seed)
        .partition(netlist, parts)
        .as_slice()
        .to_vec()
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
}
