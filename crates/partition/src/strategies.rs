//! Partitioning strategies.

use crate::Partition;
use logicsim_netlist::{CompId, ConnectivityGraph, Netlist};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;

/// Something that can split a circuit over `parts` processors.
pub trait Partitioner {
    /// Produces an assignment of every simulated component: every gate
    /// and switch in a part in `0..parts`, inputs/pulls/rails in none.
    ///
    /// # Panics
    ///
    /// Panics with "need at least one part" if `parts == 0`, as
    /// [`Partition::new`] does; the check comes before any work.
    fn partition(&self, netlist: &Netlist, parts: u32) -> Partition {
        crate::assert_parts(parts);
        self.split(netlist, parts)
    }

    /// [`Partitioner::partition`]'s work, called with `parts >= 1`.
    fn split(&self, netlist: &Netlist, parts: u32) -> Partition;

    /// A short human-readable strategy name for reports.
    fn name(&self) -> &'static str;
}

/// Collects simulated component ids.
fn simulated(netlist: &Netlist) -> Vec<CompId> {
    netlist
        .iter()
        .filter(|(_, c)| c.is_gate() || c.is_switch())
        .map(|(id, _)| id)
        .collect()
}

fn assignment_from(
    netlist: &Netlist,
    parts: u32,
    assign: impl Fn(usize, CompId) -> u32,
) -> Partition {
    let mut v = vec![u32::MAX; netlist.num_components()];
    for (pos, id) in simulated(netlist).into_iter().enumerate() {
        v[id.index()] = assign(pos, id);
    }
    Partition::new(v, parts)
}

/// Recursive bisection of a graph's nodes — `nodes[i]` is node `i`'s
/// component — to the next power of two at or above `parts`, folded
/// onto `parts` by modulo (exact when `parts` is a power of two).
/// `bisect` is handed one region (graph node ids) at a time, level by
/// level and left to right, and returns the side of every node in it;
/// the `true` side becomes the region's first child.
pub(crate) fn recursive_bisection(
    netlist: &Netlist,
    nodes: &[CompId],
    parts: u32,
    mut bisect: impl FnMut(&[u32]) -> Vec<bool>,
) -> Partition {
    let levels = f64::from(parts).log2().ceil() as u32;
    let mut regions: Vec<Vec<u32>> = vec![(0..nodes.len() as u32).collect()];
    for _ in 0..levels {
        let mut next = Vec::with_capacity(regions.len() * 2);
        for region in regions {
            let side = bisect(&region);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for (&node, &s) in region.iter().zip(&side) {
                if s {
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
            v[nodes[node as usize].index()] = part;
        }
    }
    Partition::new(v, parts)
}

/// The paper's model assumption: components uniformly shuffled over
/// processors (balanced random: a random permutation dealt out evenly,
/// so part sizes differ by at most one).
#[derive(Debug, Clone)]
pub struct RandomPartitioner {
    seed: u64,
}

impl RandomPartitioner {
    /// Creates a seeded random partitioner.
    #[must_use]
    pub fn new(seed: u64) -> RandomPartitioner {
        RandomPartitioner { seed }
    }
}

impl Partitioner for RandomPartitioner {
    fn split(&self, netlist: &Netlist, parts: u32) -> Partition {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut comps = simulated(netlist);
        comps.shuffle(&mut rng);
        let mut v = vec![u32::MAX; netlist.num_components()];
        for (pos, id) in comps.into_iter().enumerate() {
            v[id.index()] = (pos as u32) % parts;
        }
        Partition::new(v, parts)
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

/// Deals components out in netlist order (keeps adjacent declarations
/// apart; close to random for most generators).
#[derive(Debug, Clone, Default)]
pub struct RoundRobinPartitioner;

impl Partitioner for RoundRobinPartitioner {
    fn split(&self, netlist: &Netlist, parts: u32) -> Partition {
        assignment_from(netlist, parts, |pos, _| (pos as u32) % parts)
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// Contiguous blocks in netlist order. Generators emit structurally
/// related cells together, so blocks approximate locality-aware
/// clustering at zero cost.
///
/// Block boundaries are placed by **live** component count (LS0003):
/// dead logic is still assigned to whichever block it falls in, but it
/// does not consume part capacity, so the live work ends up balanced.
#[derive(Debug, Clone, Default)]
pub struct FanoutGreedyPartitioner;

impl Partitioner for FanoutGreedyPartitioner {
    fn split(&self, netlist: &Netlist, parts: u32) -> Partition {
        let live = logicsim_netlist::analyze::live_components(netlist);
        let comps = simulated(netlist);
        let total_live: usize = comps.iter().filter(|id| live[id.index()]).count();
        let per = total_live.div_ceil(parts as usize).max(1);
        let mut v = vec![u32::MAX; netlist.num_components()];
        let mut current = 0u32;
        let mut filled = 0usize;
        for id in comps {
            if filled >= per && current + 1 < parts {
                current += 1;
                filled = 0;
            }
            v[id.index()] = current;
            filled += usize::from(live[id.index()]);
        }
        Partition::new(v, parts)
    }

    fn name(&self) -> &'static str {
        "block"
    }
}

/// Breadth-first clustering over the connectivity graph: grows each
/// part by BFS from an unassigned seed until the part reaches its size
/// quota, keeping tightly connected neighborhoods together.
///
/// Quotas count node *weight* ([`ConnectivityGraph::node_weight`]):
/// dead components weigh zero, so they attach to whichever cluster
/// reaches them without displacing live work.
#[derive(Debug, Clone, Default)]
pub struct BfsClusterPartitioner;

impl Partitioner for BfsClusterPartitioner {
    fn split(&self, netlist: &Netlist, parts: u32) -> Partition {
        let graph = ConnectivityGraph::build(netlist, 16);
        let n = graph.num_nodes();
        let quota = (graph.total_node_weight() as usize)
            .div_ceil(parts as usize)
            .max(1);
        let mut node_part = vec![u32::MAX; n];
        let mut current_part = 0u32;
        let mut filled = 0usize;
        let mut queue = VecDeque::new();
        for seed in 0..n as u32 {
            if node_part[seed as usize] != u32::MAX {
                continue;
            }
            queue.push_back(seed);
            while let Some(node) = queue.pop_front() {
                if node_part[node as usize] != u32::MAX {
                    continue;
                }
                node_part[node as usize] = current_part;
                filled += graph.node_weight(node) as usize;
                if filled >= quota && current_part + 1 < parts {
                    current_part += 1;
                    filled = 0;
                    queue.clear();
                    break;
                }
                for &(nb, _) in graph.neighbors(node) {
                    if node_part[nb as usize] == u32::MAX {
                        queue.push_back(nb);
                    }
                }
            }
        }
        let mut v = vec![u32::MAX; netlist.num_components()];
        for node in 0..n as u32 {
            v[graph.component(node).index()] = node_part[node as usize];
        }
        Partition::new(v, parts)
    }

    fn name(&self) -> &'static str {
        "bfs-cluster"
    }
}

/// Recursive Kernighan-Lin bipartitioning: splits the component set in
/// half minimizing cut weight, then recurses until `parts` (rounded up
/// to a power of two) blocks exist. Classic KL with a bounded number of
/// improvement passes.
#[derive(Debug, Clone)]
pub struct KernighanLinPartitioner {
    /// Improvement passes per bisection (2-4 is typical).
    pub passes: u32,
    /// Seed for the initial split.
    pub seed: u64,
}

impl KernighanLinPartitioner {
    /// Creates a KL partitioner with default pass count.
    #[must_use]
    pub fn new(seed: u64) -> KernighanLinPartitioner {
        KernighanLinPartitioner { passes: 3, seed }
    }

    /// One KL bisection of `nodes` (indices into the graph); returns the
    /// side (false/true) per position in `nodes`.
    fn bisect(&self, graph: &ConnectivityGraph, nodes: &[u32], rng: &mut ChaCha8Rng) -> Vec<bool> {
        let n = nodes.len();
        let half = n / 2;
        // Local index of each node within `nodes`.
        let mut local = vec![usize::MAX; graph.num_nodes()];
        for (i, &g) in nodes.iter().enumerate() {
            local[g as usize] = i;
        }
        // Random balanced initial split.
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(rng);
        let mut side = vec![false; n];
        for &i in order.iter().take(half) {
            side[i] = true;
        }
        // D-value: external - internal cost for each node.
        let d_value = |side: &[bool], i: usize| -> i64 {
            let mut d = 0i64;
            for &(nb, w) in graph.neighbors(nodes[i]) {
                let j = local[nb as usize];
                if j == usize::MAX {
                    continue; // neighbor outside this region
                }
                if side[j] != side[i] {
                    d += i64::from(w);
                } else {
                    d -= i64::from(w);
                }
            }
            d
        };
        for _ in 0..self.passes {
            // One KL pass: greedily swap the best remaining pair; accept
            // the best prefix of swaps.
            let mut locked = vec![false; n];
            let mut gains: Vec<(i64, usize, usize)> = Vec::new();
            let mut work_side = side.clone();
            let max_swaps = half.min(32); // bounded pass for large graphs
            for _ in 0..max_swaps {
                // Best unlocked pair (a in false side, b in true side).
                let mut best: Option<(i64, usize, usize)> = None;
                // Candidate subsets keep this O(n^2)-ish affordable.
                let candidates: Vec<usize> = (0..n).filter(|&i| !locked[i]).collect();
                for &a in candidates.iter().filter(|&&i| !work_side[i]).take(64) {
                    let da = d_value(&work_side, a);
                    for &bb in candidates.iter().filter(|&&i| work_side[i]).take(64) {
                        let db = d_value(&work_side, bb);
                        let w_ab: i64 = graph
                            .neighbors(nodes[a])
                            .iter()
                            .find(|&&(nb, _)| local[nb as usize] == bb)
                            .map_or(0, |&(_, w)| i64::from(w));
                        let gain = da + db - 2 * w_ab;
                        if best.is_none_or(|(g, _, _)| gain > g) {
                            best = Some((gain, a, bb));
                        }
                    }
                }
                let Some((gain, a, bb)) = best else { break };
                work_side[a] = true;
                work_side[bb] = false;
                locked[a] = true;
                locked[bb] = true;
                gains.push((gain, a, bb));
            }
            // Best prefix.
            let mut best_sum = 0i64;
            let mut sum = 0i64;
            let mut best_k = 0usize;
            for (k, &(g, _, _)) in gains.iter().enumerate() {
                sum += g;
                if sum > best_sum {
                    best_sum = sum;
                    best_k = k + 1;
                }
            }
            if best_k == 0 {
                break; // no improving prefix: converged
            }
            for &(_, a, bb) in gains.iter().take(best_k) {
                side[a] = true;
                side[bb] = false;
            }
        }
        side
    }
}

impl Partitioner for KernighanLinPartitioner {
    fn split(&self, netlist: &Netlist, parts: u32) -> Partition {
        let graph = ConnectivityGraph::build(netlist, 16);
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        recursive_bisection(netlist, graph.components(), parts, |region| {
            if region.len() <= 1 {
                vec![true; region.len()]
            } else {
                self.bisect(&graph, region, &mut rng)
            }
        })
    }

    fn name(&self) -> &'static str {
        "kernighan-lin"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logicsim_netlist::{Delay, GateKind, NetlistBuilder};

    /// Two tightly-coupled clusters joined by a single wire.
    fn two_clusters(cluster: usize) -> Netlist {
        let mut b = NetlistBuilder::new("clusters");
        let mut bridge_src = None;
        for c in 0..2 {
            let root = b.input(format!("in{c}"));
            let mut nets = vec![root];
            if let (1, Some(src)) = (c, bridge_src) {
                nets.push(src); // the single inter-cluster wire
            }
            for g in 0..cluster {
                let y = b.net(format!("c{c}_{g}"));
                let x1 = nets[g % nets.len()];
                let x2 = nets[(g * 7 + 1) % nets.len()];
                if x1 == x2 {
                    b.gate(GateKind::Not, &[x1], y, Delay::uniform(1));
                } else {
                    b.gate(GateKind::Nand, &[x1, x2], y, Delay::uniform(1));
                }
                nets.push(y);
            }
            if c == 0 {
                bridge_src = nets.last().copied();
            }
        }
        b.finish().unwrap()
    }

    fn check_valid(p: &Partition, n: &Netlist, parts: u32) {
        assert_eq!(p.num_parts(), parts);
        assert!(p.covers(n));
        let sizes = p.sizes();
        assert_eq!(sizes.iter().sum::<usize>(), n.num_simulated_components());
    }

    #[test]
    fn all_strategies_produce_valid_partitions() {
        let n = two_clusters(20);
        let strategies: Vec<Box<dyn Partitioner>> = vec![
            Box::new(RandomPartitioner::new(7)),
            Box::new(RoundRobinPartitioner),
            Box::new(FanoutGreedyPartitioner),
            Box::new(BfsClusterPartitioner),
            Box::new(KernighanLinPartitioner::new(7)),
        ];
        for s in &strategies {
            for parts in [1, 2, 3, 4] {
                let p = s.partition(&n, parts);
                check_valid(&p, &n, parts);
            }
        }
    }

    #[test]
    fn random_is_balanced() {
        let n = two_clusters(32);
        let p = RandomPartitioner::new(3).partition(&n, 4);
        let sizes = p.sizes();
        let (min, max) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
        assert!(max - min <= 1, "sizes {sizes:?}");
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let n = two_clusters(16);
        let p1 = RandomPartitioner::new(9).partition(&n, 4);
        let p2 = RandomPartitioner::new(9).partition(&n, 4);
        assert_eq!(p1, p2);
        let p3 = RandomPartitioner::new(10).partition(&n, 4);
        assert_ne!(p1, p3);
    }

    fn cut_of(n: &Netlist, p: &Partition) -> u64 {
        let graph = ConnectivityGraph::build(n, 16);
        let mut cut = 0u64;
        for node in 0..graph.num_nodes() as u32 {
            let a = p.part_of(graph.component(node)).unwrap();
            for &(nb, w) in graph.neighbors(node) {
                if nb > node {
                    let bb = p.part_of(graph.component(nb)).unwrap();
                    if a != bb {
                        cut += u64::from(w);
                    }
                }
            }
        }
        cut
    }

    #[test]
    fn locality_strategies_beat_random_on_clustered_circuit() {
        let n = two_clusters(30);
        let random_cut = cut_of(&n, &RandomPartitioner::new(1).partition(&n, 2));
        let bfs_cut = cut_of(&n, &BfsClusterPartitioner.partition(&n, 2));
        let kl_cut = cut_of(&n, &KernighanLinPartitioner::new(1).partition(&n, 2));
        assert!(
            bfs_cut < random_cut,
            "bfs {bfs_cut} should beat random {random_cut}"
        );
        assert!(
            kl_cut <= random_cut,
            "kl {kl_cut} should not lose to random {random_cut}"
        );
    }

    #[test]
    fn block_partitioner_balances_live_work_around_dead_logic() {
        // 8 live gates followed by 8 dead ones (unreachable from the
        // output). A raw-count block split at 2 parts would put all the
        // live gates in part 0; the live-weighted split balances them.
        let mut b = NetlistBuilder::new("half_dead");
        let a = b.input("a");
        let mut prev = a;
        for i in 0..8 {
            let y = b.net(format!("live{i}"));
            b.gate(GateKind::Not, &[prev], y, Delay::uniform(1));
            prev = y;
        }
        b.mark_output(prev);
        for i in 0..8 {
            let y = b.net(format!("dead{i}"));
            b.gate(GateKind::Not, &[a], y, Delay::uniform(1));
        }
        let n = b.finish().unwrap();
        let p = FanoutGreedyPartitioner.partition(&n, 2);
        check_valid(&p, &n, 2);
        let live = logicsim_netlist::analyze::live_components(&n);
        let mut live_per_part = [0usize; 2];
        for (id, c) in n.iter() {
            if (c.is_gate() || c.is_switch()) && live[id.index()] {
                live_per_part[p.part_of(id).unwrap() as usize] += 1;
            }
        }
        assert_eq!(live_per_part, [4, 4], "live work must split evenly");
    }

    #[test]
    fn single_part_has_no_cut() {
        let n = two_clusters(10);
        let p = RandomPartitioner::new(0).partition(&n, 1);
        assert_eq!(cut_of(&n, &p), 0);
    }
}
