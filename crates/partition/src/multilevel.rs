//! Multilevel (coarsen–refine) min-cut partitioning.
//!
//! Flat FM starts from a random bisection, so on large graphs it only
//! ever finds cuts a few moves away from random — the classic fix
//! (Hendrickson–Leland, METIS) is multilevel: repeatedly contract
//! heavy-edge clusters until the graph is small, bisect the coarsest
//! graph where a global view is cheap, then project the bisection back
//! up, running weighted FM refinement at every level. Each refinement
//! only needs to fix local detail, so the final cut reflects global
//! structure that flat FM cannot see. This is the partitioner the
//! paper's Eq. 6 conjecture calls for: it is what lets measured `M_P`
//! land below the random-partitioning baseline `M_inf (1 - 1/P)` at
//! the 100k+ component scales of the tiled corpus.
//!
//! Refinement is [`crate::fm`]'s weighted pass kernel: coarse nodes
//! carry the summed weight of everything contracted into them, and
//! balance is enforced on that weight. A bisection that starts below
//! the floor (a grown one can) is first rebalanced out of the same
//! gain buckets the passes pick from.

use crate::fm::{lowest_member_first, Refiner, WorkGraph};
use crate::strategies::{recursive_bisection, Partitioner};
use crate::Partition;
use logicsim_netlist::{Csr, Netlist};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;

/// Stop coarsening once a level has at most this many nodes.
pub const COARSEN_TARGET: usize = 192;
/// Maximum refinement passes per level.
pub const MAX_PASSES: u32 = 8;
/// Grown-and-refined bisections tried on the coarsest graph, the best
/// kept: about 0.2 ms each, and on the tiled circuits the
/// largest single lever on the final cut (EXPERIMENTS.md, "Set-up
/// path": 1, 4, 8, 16 starts).
const COARSEST_STARTS: usize = 16;
/// Allowed imbalance fraction per bisection: each side keeps at least
/// `(1 - BALANCE_EPS) * total / 2` weight.
const BALANCE_EPS: f64 = 0.05;

/// Recursive multilevel bisection to `parts` blocks.
#[derive(Debug, Clone)]
pub struct MultilevelPartitioner {
    /// Seed for coarsening traversal order and initial bisections.
    seed: u64,
    /// Balance on static-activity vertex weights instead of live
    /// component counts (see [`crate::activity_graph`]). The refinement
    /// core is weighted either way, so this only changes which weights
    /// flow into it.
    activity_weighted: bool,
}

impl MultilevelPartitioner {
    /// Creates a multilevel partitioner balancing live component counts.
    #[must_use]
    pub fn new(seed: u64) -> MultilevelPartitioner {
        MultilevelPartitioner {
            seed,
            activity_weighted: false,
        }
    }

    /// Enables activity-weighted balance.
    #[must_use]
    pub fn with_activity_weights(mut self) -> MultilevelPartitioner {
        self.activity_weighted = true;
        self
    }
}

/// One coarsening step: the coarse graph plus the fine→coarse map.
#[derive(Debug)]
pub struct Coarsening {
    /// The contracted graph.
    graph: WorkGraph,
    /// `map[fine] = coarse` node id; surjective onto the coarse nodes.
    map: Vec<u32>,
}

impl Coarsening {
    /// The contracted graph and the fine→coarse map (`map[fine]` is the
    /// coarse node `fine` went into; surjective onto the coarse nodes).
    #[must_use]
    pub fn into_parts(self) -> (WorkGraph, Vec<u32>) {
        (self.graph, self.map)
    }
}

/// The heaviest a cluster may grow by taking in more fine nodes: four
/// times the mean weight of a node at the coarsening target.
fn cluster_cap(total: u64) -> u64 {
    (total / COARSEN_TARGET as u64).max(1) * 4
}

/// Contracts heavy-edge clusters: in a seeded random order, each fine
/// node not yet placed joins the cluster across its heaviest edge
/// (a neighbour not yet placed founds that cluster with it), as long as
/// the cluster stays under a weight cap that keeps coarse nodes
/// refinable; a node with no such edge starts a cluster of its own.
/// Coarse ids follow the order the clusters were founded in.
#[must_use]
pub fn coarsen(g: &WorkGraph, rng: &mut ChaCha8Rng) -> Coarsening {
    const UNSET: u32 = u32::MAX;
    let n = g.num_nodes();
    let max_vw = cluster_cap(g.total_vwgt());
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);
    let mut map = vec![UNSET; n];
    // Weight of each cluster so far, by coarse id.
    let mut cwgt: Vec<u64> = Vec::new();
    for &v in &order {
        if map[v as usize] != UNSET {
            continue;
        }
        let vw = g.vwgt[v as usize];
        let mut best: Option<(u32, u32)> = None;
        for &(nb, w) in g.adj.row(v as usize) {
            // Heaviest edge the cap lets through; of tied edges the
            // first in row order wins (an edge no heavier than the best
            // so far is passed over before its cluster's weight is
            // read). Only the finest graph and its subgraphs list
            // neighbours ascending; a coarse row lists them in the
            // order its members' rows first met them.
            if best.is_some_and(|(bw, _)| w <= bw) || nb == v {
                continue;
            }
            let held = match map[nb as usize] {
                UNSET => g.vwgt[nb as usize],
                c => cwgt[c as usize],
            };
            if held + vw <= max_vw {
                best = Some((w, nb));
            }
        }
        let c = match best {
            Some((_, u)) if map[u as usize] != UNSET => map[u as usize],
            found => {
                // A new cluster, founded with `u` if there is one.
                let c = cwgt.len() as u32;
                cwgt.push(found.map_or(0, |(_, u)| {
                    map[u as usize] = c;
                    g.vwgt[u as usize]
                }));
                c
            }
        };
        map[v as usize] = c;
        cwgt[c as usize] += vw;
    }
    // Every cluster's members in fine-id order: a counting sort of `map`.
    let cn = cwgt.len();
    let members = Csr::bucket(cn, || (0..n as u32).map(|fine| (map[fine as usize], fine)));
    // Build the coarse rows by merging member adjacencies; `slot`
    // remembers where a coarse neighbor landed in the current row
    // (`UNSET` outside it: rows are short, so it is reset per entry).
    let mut adj = Csr::default();
    let mut slot = vec![UNSET; cn];
    let mut row: Vec<(u32, u32)> = Vec::new();
    for (c, cluster) in members.rows().enumerate() {
        for &fine in cluster {
            for &(nb, w) in g.adj.row(fine as usize) {
                let cnb = map[nb as usize] as usize;
                if cnb == c {
                    continue; // contracted (or self) edge
                }
                if slot[cnb] == UNSET {
                    slot[cnb] = row.len() as u32;
                    row.push((cnb as u32, w));
                } else {
                    let merged = &mut row[slot[cnb] as usize].1;
                    *merged = merged.saturating_add(w);
                }
            }
        }
        for &(cnb, _) in &row {
            slot[cnb as usize] = UNSET;
        }
        adj.push_row(row.drain(..));
    }
    Coarsening {
        graph: WorkGraph { adj, vwgt: cwgt },
        map,
    }
}

/// BFS graph-growing bisection: grow a region from a random start
/// until it holds half the weight.
fn grow_bisection(g: &WorkGraph, rng: &mut ChaCha8Rng) -> Vec<bool> {
    let n = g.num_nodes();
    let total = g.total_vwgt();
    let mut side = vec![false; n];
    if n <= 1 || total == 0 {
        return side;
    }
    let start = rng.gen_range(0..n);
    let mut visited = vec![false; n];
    let mut queue = VecDeque::new();
    let mut acc = 0u64;
    'grow: for offset in 0..n {
        let s = (start + offset) % n;
        if visited[s] {
            continue;
        }
        visited[s] = true;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            side[v] = true;
            acc += g.vwgt[v];
            if acc * 2 >= total {
                break 'grow;
            }
            for &(nb, _) in g.adj.row(v) {
                if !visited[nb as usize] {
                    visited[nb as usize] = true;
                    queue.push_back(nb as usize);
                }
            }
        }
    }
    side
}

/// The minimum per-side weight a bisection of `total` must keep: at
/// least 1 once there are 2 to share, so that no side of a tiny region
/// may be left empty (the slack alone would take a floor of 1 to 0).
#[must_use]
pub fn min_side_weight(total: u64) -> u64 {
    let slack = ((BALANCE_EPS * total as f64) / 2.0).max(1.0) as u64;
    (total / 2).saturating_sub(slack).max(u64::from(total >= 2))
}

/// Refines `side` in place: restores the balance floor if the
/// bisection starts below it, then runs the FM passes.
fn refine(g: &WorkGraph, side: &mut [bool], min_w: u64) {
    let mut refiner = Refiner::new(g, side);
    refiner.rebalance(min_w);
    refiner.passes(min_w, MAX_PASSES);
}

/// The multilevel V-cycle: coarsen to the target size, bisect the
/// coarsest graph, project back up with refinement at every level.
fn bisect_multilevel(g: &WorkGraph, rng: &mut ChaCha8Rng) -> Vec<bool> {
    let n = g.num_nodes();
    let min_w = min_side_weight(g.total_vwgt());
    if n <= COARSEN_TARGET {
        // Whole bisections are cheap down here and the start decides
        // which of the circuit's seams the V-cycle refines: keep the
        // lowest cut of a few (the first of equals), one that meets the
        // balance floor before one that does not.
        let grown = (0..COARSEST_STARTS).map(|_| {
            let mut side = grow_bisection(g, rng);
            refine(g, &mut side, min_w);
            let below_floor = g.side_weights(&side).iter().any(|&w| w < min_w);
            ((below_floor, g.cut_weight(&side)), side)
        });
        let (_, side) = grown
            .min_by_key(|&(key, _)| key)
            .expect("at least one start");
        return side;
    }
    let c = coarsen(g, rng);
    if c.graph.num_nodes() * 20 >= n * 19 {
        // Coarsening stalled (e.g. a star graph with the weight cap
        // saturated): bisect directly.
        let mut side = grow_bisection(g, rng);
        refine(g, &mut side, min_w);
        return side;
    }
    let coarse_side = bisect_multilevel(&c.graph, rng);
    let mut side: Vec<bool> = (0..n).map(|v| coarse_side[c.map[v] as usize]).collect();
    refine(g, &mut side, min_w);
    side
}

impl Partitioner for MultilevelPartitioner {
    fn split(&self, netlist: &Netlist, parts: u32) -> Partition {
        let graph = crate::activity_graph(netlist, self.activity_weighted);
        let (g0, nodes) = WorkGraph::from_connectivity(graph);
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut scratch: Vec<u32> = Vec::new();
        recursive_bisection(netlist, &nodes, parts, |region| {
            lowest_member_first(bisect_multilevel(
                &g0.subgraph(region, &mut scratch),
                &mut rng,
            ))
        })
    }

    fn name(&self) -> &'static str {
        if self.activity_weighted {
            "ml-act"
        } else {
            "multilevel"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::cut_size;
    use crate::strategies::RandomPartitioner;
    use logicsim_netlist::{ConnectivityGraph, Delay, GateKind, NetlistBuilder};
    use proptest::prelude::*;

    /// A ring of `k` dense clusters, each bridged to the next by one
    /// wire: the ideal P-way cut is tiny and cluster-aligned.
    fn cluster_ring(clusters: usize, size: usize) -> Netlist {
        let mut b = NetlistBuilder::new("ring");
        let mut bridges = Vec::new();
        for c in 0..clusters {
            let root = b.input(format!("in{c}"));
            let mut nets = vec![root];
            if let Some(&prev) = bridges.last() {
                nets.push(prev);
            }
            for g in 0..size {
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
            bridges.push(*nets.last().unwrap());
        }
        b.finish().unwrap()
    }

    #[test]
    fn covers_and_balances() {
        let n = cluster_ring(4, 40);
        let ml = MultilevelPartitioner::new(11);
        for parts in [2u32, 4, 8] {
            let p = ml.partition(&n, parts);
            assert!(p.covers(&n));
            let sizes = p.sizes();
            let total: usize = sizes.iter().sum();
            assert_eq!(total, n.num_simulated_components());
            let max = *sizes.iter().max().unwrap();
            assert!(
                max * parts as usize <= total * 2,
                "P={parts} badly unbalanced: {sizes:?}"
            );
        }
    }

    #[test]
    fn deterministic() {
        let n = cluster_ring(3, 30);
        let ml = MultilevelPartitioner::new(9);
        assert_eq!(ml.partition(&n, 4), ml.partition(&n, 4));
    }

    #[test]
    fn beats_random_on_clustered_circuit() {
        let n = cluster_ring(4, 50);
        for parts in [2u32, 4] {
            let random = cut_size(&n, &RandomPartitioner::new(2).partition(&n, parts));
            let ml = cut_size(&n, &MultilevelPartitioner::new(2).partition(&n, parts));
            assert!(ml < random / 2, "P={parts}: ml {ml} vs random {random}");
        }
    }

    /// Coarsens `g` level by level down to the target (or until a level
    /// no longer shrinks), checking every level's invariants; returns
    /// the coarsest level's node count.
    fn check_coarsening_at_every_level(mut g: WorkGraph, seed: u64) -> Result<usize, String> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        while g.num_nodes() > COARSEN_TARGET {
            let mut replay = rng.clone();
            let c = coarsen(&g, &mut rng);
            // The same seed gives the same clusters.
            if coarsen(&g, &mut replay).map != c.map {
                return Err("the same seed gave another map".into());
            }
            check_level(&g, &c)?;
            if c.graph.num_nodes() == g.num_nodes() {
                break;
            }
            g = c.graph;
        }
        Ok(g.num_nodes())
    }

    /// One coarsening's invariants against the graph it contracted.
    fn check_level(g: &WorkGraph, c: &Coarsening) -> Result<(), String> {
        let (n, cn) = (g.num_nodes(), c.graph.num_nodes());
        // Total vertex weight is conserved.
        if c.graph.total_vwgt() != g.total_vwgt() {
            return Err("total vertex weight changed".into());
        }
        // The fine→coarse map is total and surjective, and each coarse
        // node weighs what its members do.
        if c.map.len() != n || cn > n {
            return Err(format!(
                "map of {} over {n} fine nodes, {cn} coarse",
                c.map.len()
            ));
        }
        let mut weight = vec![0u64; cn];
        let mut size = vec![0usize; cn];
        for (fine, &m) in c.map.iter().enumerate() {
            let m = m as usize;
            if m >= cn {
                return Err(format!("map[{fine}] = {m} out of range"));
            }
            weight[m] += g.vertex_weight(fine);
            size[m] += 1;
        }
        if let Some(empty) = size.iter().position(|&s| s == 0) {
            return Err(format!("coarse node {empty} has no fine member"));
        }
        // No cluster outgrows the cap unless it is one fine node.
        let cap = cluster_cap(g.total_vwgt());
        for v in 0..cn {
            if weight[v] != c.graph.vertex_weight(v) {
                return Err(format!("coarse node {v} weighs other than its members"));
            }
            if weight[v] > cap && size[v] > 1 {
                return Err(format!(
                    "cluster {v} of {} weighs {} > {cap}",
                    size[v], weight[v]
                ));
            }
        }
        // The coarse edge between two clusters weighs what the fine edges
        // between their members do (exact: nothing saturates here); a
        // contracted edge leaves no self edge, and no row repeats a
        // neighbour. With the fine rows symmetric, that makes the coarse
        // rows symmetric and their total weight no more than the fine.
        let mut between = std::collections::BTreeMap::new();
        for fine in 0..n {
            for (nb, w) in g.neighbors(fine) {
                let (a, b) = (c.map[fine], c.map[nb as usize]);
                if a != b {
                    *between.entry((a, b)).or_insert(0i64) += w;
                }
            }
        }
        let mut coarse = std::collections::BTreeMap::new();
        for v in 0..cn {
            for (nb, w) in c.graph.neighbors(v) {
                if nb as usize == v {
                    return Err(format!("self edge on coarse node {v}"));
                }
                if coarse.insert((v as u32, nb), w).is_some() {
                    return Err(format!("coarse row {v} lists {nb} twice"));
                }
            }
        }
        if coarse != between {
            return Err("coarse edge weights differ from the fine edges between clusters".into());
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every level of the hierarchy, on random weighted graphs
        /// (connected or not, some vertices weightless, some heavier than
        /// the cap alone) and on cluster rings, which must reach the
        /// target.
        #[test]
        fn coarsening_preserves_weight_and_is_surjective(
            edges in proptest::collection::vec((any::<u32>(), any::<u32>(), 1u32..5), 0..3000),
            vwgt in proptest::collection::vec(0u64..7, 2..1200),
            ring in (2usize..6, 20usize..80),
            seed in any::<u64>(),
        ) {
            let random = check_coarsening_at_every_level(WorkGraph::from_edges(&edges, vwgt), seed);
            prop_assert!(random.is_ok(), "random graph: {}", random.unwrap_err());
            let n = cluster_ring(ring.0, ring.1);
            let (g, _) = WorkGraph::from_connectivity(ConnectivityGraph::build(&n, 16));
            match check_coarsening_at_every_level(g, seed) {
                Ok(coarsest) => prop_assert!(
                    coarsest <= COARSEN_TARGET,
                    "{ring:?} ring stalled at {coarsest} nodes"
                ),
                Err(e) => prop_assert!(false, "{ring:?} ring: {e}"),
            }
        }
    }

    /// Grows and refines a bisection on every level of `g`'s coarsening
    /// hierarchy; both sides must come out at or above the floor
    /// wherever a bisection can: not where one vertex leaves the others
    /// less than the floor (a total of 2 or 3 on one vertex, floor 1).
    fn check_floor_at_every_level(mut g: WorkGraph, seed: u64) -> Result<(), String> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for level in 0..20 {
            let total = g.total_vwgt();
            let min_w = min_side_weight(total);
            let mut side = grow_bisection(&g, &mut rng);
            refine(&g, &mut side, min_w);
            let weights = g.side_weights(&side);
            let heaviest = (0..g.num_nodes()).map(|v| g.vertex_weight(v)).max();
            let reachable = heaviest.is_some_and(|w| w + min_w <= total);
            if reachable && (weights[0] < min_w || weights[1] < min_w) {
                return Err(format!(
                    "level {level} violates balance: {weights:?} (floor {min_w})"
                ));
            }
            if g.num_nodes() <= COARSEN_TARGET {
                break;
            }
            g = coarsen(&g, &mut rng).graph;
        }
        Ok(())
    }

    #[test]
    fn refinement_respects_balance_floor_at_every_level() {
        let n = cluster_ring(5, 40);
        let (g, _) = WorkGraph::from_connectivity(ConnectivityGraph::build(&n, 16));
        check_floor_at_every_level(g, 3).unwrap();
    }

    /// At a total of 2 or 3 the floor is 1, and a bisection that can
    /// give each side something does: paths of two and three vertices
    /// and a weighted pair, joined or not, from every start.
    #[test]
    fn a_tiny_region_keeps_weight_on_both_sides() {
        assert_eq!([0, 1, 2, 3, 4].map(min_side_weight), [0, 0, 1, 1, 1]);
        for vwgt in [vec![1, 1], vec![1, 1, 1], vec![2, 1], vec![1, 0, 1]] {
            let path: Vec<_> = (1..vwgt.len() as u32).map(|v| (v - 1, v, 1)).collect();
            for edges in [path, Vec::new()] {
                for seed in 0..8 {
                    let g = WorkGraph::from_edges(&edges, vwgt.clone());
                    check_floor_at_every_level(g, seed).unwrap();
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The same on weighted random graphs, connected or not, some
        /// vertices weightless: a vertex weighs at most 3, which one
        /// rebalancing move cannot carry from below the floor on one
        /// side to below it on the other (from a total of 4 the slack
        /// is at least 1 each way), and coarse vertices are capped well
        /// under the slack.
        #[test]
        fn refinement_respects_balance_floor_at_every_level_of_random_graphs(
            edges in proptest::collection::vec((any::<u32>(), any::<u32>(), 1u32..5), 0..1500),
            vwgt in proptest::collection::vec(0u64..4, 2..700),
            seed in any::<u64>(),
        ) {
            let checked = check_floor_at_every_level(WorkGraph::from_edges(&edges, vwgt), seed);
            prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        }
    }

    #[test]
    fn activity_weighted_partition_is_valid_and_stays_competitive() {
        let n = cluster_ring(4, 40);
        for parts in [2u32, 4] {
            let uniform = MultilevelPartitioner::new(11).partition(&n, parts);
            let weighted = MultilevelPartitioner::new(11)
                .with_activity_weights()
                .partition(&n, parts);
            assert!(weighted.covers(&n));
            // Re-weighting changes what "balanced" means; it must not
            // wreck the cut the refiner finds on a cluster ring.
            let cu = cut_size(&n, &uniform);
            let cw = cut_size(&n, &weighted);
            assert!(
                cw <= cu.max(1) * 2,
                "P={parts}: weighted {cw} vs uniform {cu}"
            );
        }
    }
}
