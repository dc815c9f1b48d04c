//! Fiduccia-Mattheyses (FM) min-cut partitioning.
//!
//! FM refines a bisection by *moving* single vertices (instead of
//! Kernighan-Lin's pair swaps), maintaining per-vertex gains
//! incrementally, under a balance constraint. One pass moves every
//! vertex at most once and keeps the best prefix; passes repeat until
//! no improvement. This is the workhorse heuristic of real circuit
//! partitioners — exactly the "related research on the circuit
//! partitioning problem" the paper says is in progress.

use crate::strategies::Partitioner;
use crate::Partition;
use logicsim_netlist::{ConnectivityGraph, Netlist};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;

/// Recursive FM bisection to `parts` blocks.
#[derive(Debug, Clone)]
pub struct FiducciaMattheysesPartitioner {
    /// Maximum refinement passes per bisection.
    pub max_passes: u32,
    /// Allowed imbalance: each side holds at least
    /// `floor(n/2) - slack` vertices (scaled by the heaviest vertex
    /// when activity weighting is on).
    pub balance_slack: usize,
    /// Seed for the initial splits.
    pub seed: u64,
    /// Balance on static-activity vertex weights instead of component
    /// counts (see [`crate::activity_graph`]). Off by default; the
    /// unweighted path is bit-identical to the historical behavior.
    pub activity_weighted: bool,
}

impl FiducciaMattheysesPartitioner {
    /// Creates an FM partitioner with typical settings.
    #[must_use]
    pub fn new(seed: u64) -> FiducciaMattheysesPartitioner {
        FiducciaMattheysesPartitioner {
            max_passes: 6,
            balance_slack: 1,
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

    /// One FM bisection of `nodes`; returns side per position. `vw` is
    /// the balance weight per position: all ones in the default
    /// (count-balanced) mode, static-activity weights in
    /// activity-weighted mode.
    ///
    /// Candidate selection uses per-side gain buckets (ordered sets keyed
    /// by `(gain, vertex)`), so each of the `n` moves costs `O(log n)`
    /// instead of the linear best-gain scan the first implementation
    /// used — that scan made every pass `O(n^2)` and the partitioner
    /// unusable beyond a few thousand components. The bucket pick
    /// reproduces the linear scan's selection rule exactly (highest
    /// gain, ties broken toward the largest vertex index, only sides
    /// above the balance floor), so unit-weight results are
    /// bit-identical to the old implementation; the
    /// `bucketed_fm_matches_reference` proptest pins that equivalence
    /// against a naive reimplementation.
    fn bisect(
        &self,
        graph: &ConnectivityGraph,
        nodes: &[u32],
        rng: &mut ChaCha8Rng,
        vw: &[u64],
    ) -> Vec<bool> {
        let n = nodes.len();
        if n <= 1 {
            return vec![false; n];
        }
        let mut local = vec![u32::MAX; graph.num_nodes()];
        for (i, &g) in nodes.iter().enumerate() {
            local[g as usize] = i as u32;
        }
        // Local adjacency restricted to this region, in CSR form (one
        // contiguous array instead of a Vec per vertex).
        let mut adj_off: Vec<usize> = Vec::with_capacity(n + 1);
        let mut adj: Vec<(u32, i64)> = Vec::new();
        adj_off.push(0);
        for &g in nodes {
            adj.extend(graph.neighbors(g).iter().filter_map(|&(nb, w)| {
                let j = local[nb as usize];
                (j != u32::MAX).then_some((j, i64::from(w)))
            }));
            adj_off.push(adj.len());
        }

        // Balanced random initial split.
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(rng);
        let mut side = vec![false; n];
        for &i in order.iter().take(n / 2) {
            side[i] = true;
        }

        // Balance floor in weight units. With unit weights this is the
        // historical `floor(n/2) - slack` vertex-count floor; with
        // activity weights the slack scales by the heaviest vertex so
        // at least `balance_slack` vertices stay movable.
        let total_w: u64 = vw.iter().sum();
        let max_w = vw.iter().copied().max().unwrap_or(1).max(1);
        let min_side = (total_w / 2)
            .saturating_sub(self.balance_slack as u64 * max_w)
            .max(1);
        let neigh = |i: usize| &adj[adj_off[i]..adj_off[i + 1]];
        let gain_of = |side: &[bool], i: usize| -> i64 {
            neigh(i)
                .iter()
                .map(|&(j, w)| if side[j as usize] != side[i] { w } else { -w })
                .sum()
        };

        for _ in 0..self.max_passes {
            let mut work = side.clone();
            let mut gains: Vec<i64> = (0..n).map(|i| gain_of(&work, i)).collect();
            let mut locked = vec![false; n];
            let mut counts = [0u64; 2];
            for (i, &s) in work.iter().enumerate() {
                counts[usize::from(s)] += vw[i];
            }
            // Gain buckets, one per side: `last()` is the highest-gain
            // unlocked vertex of that side, ties toward the largest index.
            let mut buckets: [BTreeSet<(i64, u32)>; 2] = [BTreeSet::new(), BTreeSet::new()];
            for i in 0..n {
                buckets[usize::from(work[i])].insert((gains[i], i as u32));
            }
            let mut history: Vec<(usize, i64)> = Vec::with_capacity(n);
            for _ in 0..n {
                // Highest-gain unlocked vertex whose move keeps balance:
                // the better of the two side tops. A few top entries per
                // side are scanned so one balance-blocked heavy vertex
                // does not hide lighter movable ones; with unit weights
                // the first entry decides, reproducing the historical
                // side-level `counts[s] > min_side` check exactly.
                let mut candidate: Option<(i64, u32)> = None;
                for (s, bucket) in buckets.iter().enumerate() {
                    for &(gain, v32) in bucket.iter().rev().take(8) {
                        let w = vw[v32 as usize];
                        if counts[s] >= min_side + w || w == 0 {
                            candidate = candidate.max(Some((gain, v32)));
                            break;
                        }
                    }
                }
                let Some((gain, v32)) = candidate else { break };
                let v = v32 as usize;
                // Move v.
                buckets[usize::from(work[v])].remove(&(gain, v32));
                counts[usize::from(work[v])] -= vw[v];
                work[v] = !work[v];
                counts[usize::from(work[v])] += vw[v];
                locked[v] = true;
                history.push((v, gain));
                // Incremental gain update for neighbors.
                for &(j32, w) in neigh(v) {
                    let j = j32 as usize;
                    if locked[j] {
                        continue;
                    }
                    let s = usize::from(work[j]);
                    buckets[s].remove(&(gains[j], j32));
                    // v moved: if j is now on the other side of v, the
                    // edge became external (+w to j's gain twice: once
                    // for losing internal, once for gaining external).
                    if work[j] != work[v] {
                        gains[j] += 2 * w;
                    } else {
                        gains[j] -= 2 * w;
                    }
                    buckets[s].insert((gains[j], j32));
                }
            }
            // Best prefix of moves.
            let mut best_sum = 0i64;
            let mut sum = 0i64;
            let mut best_k = 0usize;
            for (k, &(_, g)) in history.iter().enumerate() {
                sum += g;
                if sum > best_sum {
                    best_sum = sum;
                    best_k = k + 1;
                }
            }
            if best_k == 0 {
                break;
            }
            for &(v, _) in history.iter().take(best_k) {
                side[v] = !side[v];
            }
        }
        side
    }
}

impl Partitioner for FiducciaMattheysesPartitioner {
    fn partition(&self, netlist: &Netlist, parts: u32) -> Partition {
        let graph = crate::activity_graph(netlist, self.activity_weighted);
        // Balance weights per graph node: component counts by default,
        // the graph's activity weights when enabled.
        let node_w: Vec<u64> = if self.activity_weighted {
            (0..graph.num_nodes() as u32)
                .map(|v| u64::from(graph.node_weight(v)))
                .collect()
        } else {
            vec![1; graph.num_nodes()]
        };
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let levels = (parts as f64).log2().ceil() as u32;
        let mut regions: Vec<Vec<u32>> = vec![(0..graph.num_nodes() as u32).collect()];
        let mut vw: Vec<u64> = Vec::new();
        for _ in 0..levels {
            let mut next = Vec::with_capacity(regions.len() * 2);
            for region in regions {
                vw.clear();
                vw.extend(region.iter().map(|&g| node_w[g as usize]));
                let sides = self.bisect(&graph, &region, &mut rng, &vw);
                let (mut a, mut b) = (Vec::new(), Vec::new());
                for (i, &node) in region.iter().enumerate() {
                    if sides[i] {
                        a.push(node);
                    } else {
                        b.push(node);
                    }
                }
                next.push(a);
                next.push(b);
            }
            regions = next;
        }
        let mut v = vec![u32::MAX; netlist.num_components()];
        for (r, region) in regions.iter().enumerate() {
            let part = (r as u32) % parts;
            for &node in region {
                v[graph.component(node).index()] = part;
            }
        }
        Partition::new(v, parts)
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
