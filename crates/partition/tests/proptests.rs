//! Property tests for partitioning strategies and metrics.

use logicsim_netlist::{ConnectivityGraph, Delay, GateKind, Netlist, NetlistBuilder};
use logicsim_partition::fm::{BALANCE_SLACK, MAX_PASSES, STALL_MOVES};
use logicsim_partition::{
    measured_beta, measured_messages, BfsClusterPartitioner, FanoutGreedyPartitioner,
    FiducciaMattheysesPartitioner, KernighanLinPartitioner, MultilevelPartitioner, Partition,
    Partitioner, RandomPartitioner, RoundRobinPartitioner,
};
use logicsim_sim::{EventRecord, TickRecord, TickTrace};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A random connected gate circuit.
fn random_circuit(ops: &[(u8, usize, usize)]) -> Netlist {
    let mut b = NetlistBuilder::new("random");
    let mut nets = vec![b.input("i0"), b.input("i1")];
    for &(k, x, y) in ops {
        let kind = [GateKind::And, GateKind::Or, GateKind::Nand, GateKind::Xor][k as usize % 4];
        let a = nets[x % nets.len()];
        let c = nets[y % nets.len()];
        let out = b.fresh("w");
        b.gate(kind, &[a, c], out, Delay::uniform(1));
        nets.push(out);
    }
    b.finish().expect("valid by construction")
}

fn strategies(seed: u64) -> Vec<Box<dyn Partitioner>> {
    vec![
        Box::new(RandomPartitioner::new(seed)),
        Box::new(RoundRobinPartitioner),
        Box::new(FanoutGreedyPartitioner),
        Box::new(BfsClusterPartitioner),
        Box::new(KernighanLinPartitioner::new(seed)),
        Box::new(FiducciaMattheysesPartitioner::new(seed)),
        Box::new(MultilevelPartitioner::new(seed)),
    ]
}

/// The original FM bisection: every gain recomputed at the start of
/// every pass and a linear best-gain scan per move (`max_by_key`, which
/// keeps the *last* maximum, i.e. ties break toward the largest vertex
/// index), plus the two rules the pass kernel in
/// `logicsim_partition::fm` added: only vertices with a neighbor on the
/// other side are candidates, and a pass stops `STALL_MOVES` moves
/// after its last new best prefix (or when no candidate can move). The
/// kernel — gains carried across passes, buckets of the vertices on the
/// cut, rollback by reversed moves — must reproduce this exactly.
fn reference_fm_bisect(
    graph: &ConnectivityGraph,
    nodes: &[u32],
    rng: &mut ChaCha8Rng,
    max_passes: u32,
    balance_slack: usize,
) -> Vec<bool> {
    let n = nodes.len();
    if n <= 1 {
        return vec![false; n];
    }
    let mut local = vec![u32::MAX; graph.num_nodes()];
    for (i, &g) in nodes.iter().enumerate() {
        local[g as usize] = i as u32;
    }
    let adj: Vec<Vec<(usize, i64)>> = nodes
        .iter()
        .map(|&g| {
            graph
                .neighbors(g)
                .iter()
                .filter_map(|&(nb, w)| {
                    let j = local[nb as usize];
                    (j != u32::MAX).then_some((j as usize, i64::from(w)))
                })
                .collect()
        })
        .collect();

    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let mut side = vec![false; n];
    for &i in order.iter().take(n / 2) {
        side[i] = true;
    }

    let min_side = (n / 2).saturating_sub(balance_slack).max(1);
    let gain_of = |side: &[bool], i: usize| -> i64 {
        adj[i]
            .iter()
            .map(|&(j, w)| if side[j] != side[i] { w } else { -w })
            .sum()
    };

    for _ in 0..max_passes {
        let mut work = side.clone();
        let mut gains: Vec<i64> = (0..n).map(|i| gain_of(&work, i)).collect();
        let mut locked = vec![false; n];
        let mut counts = [
            work.iter().filter(|&&s| !s).count(),
            work.iter().filter(|&&s| s).count(),
        ];
        let mut history: Vec<(usize, i64)> = Vec::with_capacity(n);
        let mut best_sum = 0i64;
        let mut sum = 0i64;
        let mut best_k = 0usize;
        while history.len() - best_k < STALL_MOVES {
            let movable = |i: usize| !locked[i] && counts[usize::from(work[i])] > min_side;
            let on_cut = |i: usize| adj[i].iter().any(|&(j, _)| work[j] != work[i]);
            let candidate = (0..n)
                .filter(|&i| movable(i) && on_cut(i))
                .max_by_key(|&i| gains[i]);
            let Some(v) = candidate else { break };
            counts[usize::from(work[v])] -= 1;
            work[v] = !work[v];
            counts[usize::from(work[v])] += 1;
            locked[v] = true;
            history.push((v, gains[v]));
            sum += gains[v];
            if sum > best_sum {
                best_sum = sum;
                best_k = history.len();
            }
            for &(j, w) in &adj[v] {
                if locked[j] {
                    continue;
                }
                if work[j] != work[v] {
                    gains[j] += 2 * w;
                } else {
                    gains[j] -= 2 * w;
                }
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

/// The original recursive k-way driver around `reference_fm_bisect`.
fn reference_fm_partition(netlist: &Netlist, parts: u32, seed: u64) -> Partition {
    let graph = ConnectivityGraph::build(netlist, 16);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let levels = (f64::from(parts)).log2().ceil() as u32;
    let mut regions: Vec<Vec<u32>> = vec![(0..graph.num_nodes() as u32).collect()];
    for _ in 0..levels {
        let mut next = Vec::with_capacity(regions.len() * 2);
        for region in regions {
            let mut sides = reference_fm_bisect(
                &graph,
                &region,
                &mut rng,
                MAX_PASSES,
                BALANCE_SLACK as usize,
            );
            // Sides are named by their lowest member: the region's first
            // node is on the `true` side.
            if sides.first() == Some(&false) {
                sides.iter_mut().for_each(|s| *s = !*s);
            }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every strategy assigns every simulated component exactly once,
    /// into range, for every part count.
    #[test]
    fn partitions_are_total_and_in_range(
        ops in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 3..40),
        parts in 1u32..9,
        seed in any::<u64>(),
    ) {
        let n = random_circuit(&ops);
        for s in strategies(seed) {
            let p = s.partition(&n, parts);
            prop_assert!(p.covers(&n), "{} does not cover", s.name());
            prop_assert_eq!(p.num_parts(), parts);
            prop_assert_eq!(
                p.sizes().iter().sum::<usize>(),
                n.num_simulated_components()
            );
        }
    }

    /// Measured message volume never exceeds M_inf, is zero on one
    /// part, and beta lies in [1, P].
    #[test]
    fn metric_bounds(
        events in proptest::collection::vec(
            (0u32..40, proptest::collection::vec(0u32..40, 0..4)), 1..60),
        parts in 1u32..8,
        assignment_seed in any::<u64>(),
    ) {
        let trace = TickTrace {
            start: 0,
            end: events.len() as u64 + 1,
            ticks: events
                .chunks(4)
                .enumerate()
                .map(|(i, chunk)| TickRecord {
                    tick: i as u64,
                    events: chunk
                        .iter()
                        .map(|(src, dests)| EventRecord { source: *src, dests: dests.clone() })
                        .collect(),
                })
                .collect(),
        };
        // Arbitrary assignment of 40 components.
        let mut v = Vec::with_capacity(40);
        let mut state = assignment_seed;
        for _ in 0..40 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            v.push((state >> 33) as u32 % parts);
        }
        let p = Partition::new(v, parts);
        let m = measured_messages(&trace, &p);
        prop_assert!(m <= trace.total_messages_inf());
        let beta = measured_beta(&trace, &p);
        prop_assert!(beta >= 1.0 - 1e-12);
        prop_assert!(beta <= f64::from(parts) + 1e-12);
        if parts == 1 {
            prop_assert_eq!(m, 0);
        }
    }

    /// The FM pass kernel is *bit-identical* to the linear-scan,
    /// recompute-everything implementation replicated above: same
    /// selection rule, same moves, same final partition. Exact
    /// equality subsumes the weaker requirements that the cuts are no
    /// worse and that the balance invariants are unchanged. (Circuits
    /// this small never reach the stall limit;
    /// `bucketed_fm_matches_reference_past_the_stall_limit` does.)
    #[test]
    fn bucketed_fm_matches_reference(
        ops in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 3..60),
        parts in 1u32..9,
        seed in any::<u64>(),
    ) {
        let n = random_circuit(&ops);
        let bucketed = FiducciaMattheysesPartitioner::new(seed).partition(&n, parts);
        let reference = reference_fm_partition(&n, parts, seed);
        prop_assert_eq!(&bucketed, &reference);
        // Balance invariant, stated independently of the equality:
        // every bisection keeps each side >= floor(n/2) - slack, so no
        // part can end up larger than any other by more than the
        // accumulated slack across levels.
        let sizes = bucketed.sizes();
        prop_assert_eq!(sizes.iter().sum::<usize>(), n.num_simulated_components());
        prop_assert!(bucketed.covers(&n));
    }

    /// The FM-based partitioners name parts by their lowest member, so
    /// the first simulated component is always in part 0, whatever side
    /// the seed grew first.
    #[test]
    fn fm_based_partitions_put_the_first_component_in_part_zero(
        ops in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 3..40),
        parts in 1u32..9,
        seed in any::<u64>(),
    ) {
        let n = random_circuit(&ops);
        let first = ConnectivityGraph::build(&n, 16).component(0);
        let fm_based: [Box<dyn Partitioner>; 4] = [
            Box::new(FiducciaMattheysesPartitioner::new(seed)),
            Box::new(FiducciaMattheysesPartitioner::new(seed).with_activity_weights()),
            Box::new(MultilevelPartitioner::new(seed)),
            Box::new(MultilevelPartitioner::new(seed).with_activity_weights()),
        ];
        for s in fm_based {
            prop_assert_eq!(s.partition(&n, parts).part_of(first), Some(0), "{}", s.name());
        }
    }

    /// Partitioners are deterministic functions of (netlist, parts,
    /// seed).
    #[test]
    fn strategies_are_deterministic(
        ops in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 3..24),
        parts in 1u32..6,
        seed in any::<u64>(),
    ) {
        let n = random_circuit(&ops);
        for s in strategies(seed) {
            prop_assert_eq!(s.partition(&n, parts), s.partition(&n, parts), "{}", s.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The same equality on circuits of a few thousand gates, where the
    /// first passes of a random split run well past `STALL_MOVES` moves
    /// after their best prefix: the stop rule, the rollback of up to
    /// 1024 moves and the gains carried into the next pass are all on
    /// the path.
    #[test]
    fn bucketed_fm_matches_reference_past_the_stall_limit(
        ops in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 2500..3500),
        parts in 2u32..5,
        seed in any::<u64>(),
    ) {
        let n = random_circuit(&ops);
        let bucketed = FiducciaMattheysesPartitioner::new(seed).partition(&n, parts);
        prop_assert_eq!(&bucketed, &reference_fm_partition(&n, parts, seed));
    }
}
