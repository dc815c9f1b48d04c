//! The partitioners at the edges of their arguments: no part, and more
//! parts than the netlist has components.
//!
//! Every partitioner, flat and multilevel, in both weight modes, at
//! `P = 0` (a panic with `Partition::new`'s message, before any work)
//! and at `P ∈ {1, 2, 3, 8, 64}` on a one-gate and a three-gate netlist
//! (an assignment that covers the netlist and has `P` parts).

use logicsim_netlist::{Delay, GateKind, Netlist, NetlistBuilder};
use logicsim_partition::{
    BfsClusterPartitioner, FanoutGreedyPartitioner, FiducciaMattheysesPartitioner,
    KernighanLinPartitioner, MultilevelPartitioner, Partitioner, RandomPartitioner,
    RoundRobinPartitioner,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

const SEED: u64 = 0x1987;

fn strategies() -> Vec<Box<dyn Partitioner>> {
    vec![
        Box::new(RandomPartitioner::new(SEED)),
        Box::new(RoundRobinPartitioner),
        Box::new(FanoutGreedyPartitioner),
        Box::new(BfsClusterPartitioner),
        Box::new(KernighanLinPartitioner::new(SEED)),
        Box::new(FiducciaMattheysesPartitioner::new(SEED)),
        Box::new(MultilevelPartitioner::new(SEED)),
        Box::new(FiducciaMattheysesPartitioner::new(SEED).with_activity_weights()),
        Box::new(MultilevelPartitioner::new(SEED).with_activity_weights()),
    ]
}

/// An input driving a chain of `gates` NOT gates; the last is an output.
fn not_chain(gates: usize) -> Netlist {
    let mut b = NetlistBuilder::new("chain");
    let mut prev = b.input("a");
    for i in 0..gates {
        let y = b.net(format!("y{i}"));
        b.gate(GateKind::Not, &[prev], y, Delay::uniform(1));
        prev = y;
    }
    b.mark_output(prev);
    b.finish().expect("valid by construction")
}

#[test]
fn every_partitioner_refuses_zero_parts_with_the_partition_message() {
    let n = not_chain(3);
    for s in strategies() {
        let panic = catch_unwind(AssertUnwindSafe(|| s.partition(&n, 0)))
            .expect_err(&format!("{} accepted P = 0", s.name()));
        let message = panic
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| panic.downcast_ref::<String>().map(String::as_str));
        assert_eq!(message, Some("need at least one part"), "{}", s.name());
    }
}

#[test]
fn tiny_netlists_partition_at_every_part_count() {
    for gates in [1, 3] {
        let n = not_chain(gates);
        for s in strategies() {
            for parts in [1u32, 2, 3, 8, 64] {
                let p = s.partition(&n, parts);
                let case = format!("{} on {gates} gates at P = {parts}", s.name());
                assert!(p.covers(&n), "{case}: does not cover");
                assert_eq!(p.num_parts(), parts, "{case}");
                assert_eq!(p.sizes().iter().sum::<usize>(), gates, "{case}");
            }
        }
    }
}

/// Two parts of a three-gate chain each get a gate or two: the
/// multilevel balance floor is at least 1 once a region weighs 2.
#[test]
fn every_partitioner_splits_a_three_gate_chain_in_two() {
    let n = not_chain(3);
    for s in strategies() {
        let sizes = s.partition(&n, 2).sizes();
        assert!(!sizes.contains(&0), "{}: sizes {sizes:?}", s.name());
    }
}
