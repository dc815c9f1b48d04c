//! Property tests for partitioning strategies and metrics.

use logicsim_netlist::{ConnectivityGraph, Delay, GateKind, Netlist, NetlistBuilder};
use logicsim_partition::{
    measured_beta, measured_messages, BfsClusterPartitioner, FanoutGreedyPartitioner,
    FiducciaMattheysesPartitioner, KernighanLinPartitioner, MultilevelPartitioner, Partition,
    Partitioner, RandomPartitioner, RoundRobinPartitioner,
};
use logicsim_sim::{EventRecord, TickRecord, TickTrace};
use proptest::prelude::*;

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
