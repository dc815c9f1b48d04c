#![forbid(unsafe_code)]

//! Circuit partitioning strategies and message-volume measurement.
//!
//! The paper's communication model assumes **random partitioning**
//! (Eq. 6, `M_P = M_inf (1 - 1/P)`) and notes that "related research on
//! the circuit partitioning problem is in progress ... to measure the
//! performance of heuristics in reducing the communication volume".
//! This crate implements that research direction: seven partitioners
//! over the component connectivity graph — random, round-robin,
//! fanout-greedy (contiguous blocks), BFS-clustering, Kernighan-Lin,
//! Fiduccia-Mattheyses ([`fm`]) and multilevel ([`multilevel`]; the last
//! two also balance static activity instead of component count) — plus
//! metrics that measure the *actual* message volume `M_P` and load
//! imbalance `beta` of a partition against a simulation trace.
//!
//! # Example
//!
//! ```
//! use logicsim_partition::{Partitioner, RandomPartitioner, Partition};
//! use logicsim_netlist::{NetlistBuilder, GateKind, Delay};
//!
//! let mut b = NetlistBuilder::new("c");
//! let a = b.input("a");
//! let mut prev = a;
//! for i in 0..10 {
//!     let y = b.net(format!("y{i}"));
//!     b.gate(GateKind::Not, &[prev], y, Delay::uniform(1));
//!     prev = y;
//! }
//! let n = b.finish().expect("valid");
//! let p = RandomPartitioner::new(42).partition(&n, 4);
//! assert_eq!(p.num_parts(), 4);
//! ```

pub mod fm;
pub mod metrics;
pub mod multilevel;
pub mod strategies;

pub use fm::FiducciaMattheysesPartitioner;
pub use metrics::{cut_size, cut_size_with, measured_beta, measured_messages, PartitionQuality};
pub use multilevel::MultilevelPartitioner;
pub use strategies::{
    BfsClusterPartitioner, FanoutGreedyPartitioner, KernighanLinPartitioner, Partitioner,
    RandomPartitioner, RoundRobinPartitioner,
};

use logicsim_netlist::{CompId, ConnectivityGraph, Netlist};

pub use logicsim_netlist::analyze::dataflow::activity::ACTIVITY_WEIGHT_SCALE;

/// The connectivity graph the partitioners cut: unweighted (live = 1,
/// dead = 0) by default, or with static-activity vertex weights so
/// balanced partitions equalize predicted event load (the paper's
/// `E/P` term) instead of component count.
#[must_use]
pub fn activity_graph(netlist: &Netlist, activity_weighted: bool) -> ConnectivityGraph {
    if activity_weighted {
        let w = logicsim_netlist::analyze::dataflow::activity::partition_weights(netlist);
        ConnectivityGraph::build_weighted(netlist, 16, &w)
    } else {
        ConnectivityGraph::build(netlist, 16)
    }
}

/// Panics with "need at least one part" if `parts == 0`: the one check
/// behind [`Partition::new`] and [`Partitioner::partition`].
fn assert_parts(parts: u32) {
    assert!(parts >= 1, "need at least one part");
}

/// An assignment of every simulated component (gate or switch) to one of
/// `P` processors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Processor index per component id; `u32::MAX` marks non-simulated
    /// components (inputs, pulls, rails), which live nowhere.
    assignment: Vec<u32>,
    parts: u32,
}

impl Partition {
    /// Builds a partition from a raw assignment vector.
    ///
    /// # Panics
    ///
    /// Panics if `parts == 0` or any assigned entry is out of range.
    #[must_use]
    pub fn new(assignment: Vec<u32>, parts: u32) -> Partition {
        assert_parts(parts);
        for &a in &assignment {
            assert!(
                a == u32::MAX || a < parts,
                "assignment {a} out of range for {parts} parts"
            );
        }
        Partition { assignment, parts }
    }

    /// Number of processors.
    #[must_use]
    pub fn num_parts(&self) -> u32 {
        self.parts
    }

    /// The processor a component is assigned to, `None` for
    /// non-simulated components.
    #[must_use]
    pub fn part_of(&self, comp: CompId) -> Option<u32> {
        match self.assignment.get(comp.index()) {
            Some(&u32::MAX) | None => None,
            Some(&p) => Some(p),
        }
    }

    /// The raw per-component assignment (`u32::MAX` marks
    /// non-simulated components), in the exact form the parallel
    /// engine's `ParSimulator` consumes.
    #[must_use]
    pub fn as_slice(&self) -> &[u32] {
        &self.assignment
    }

    /// Components per processor.
    #[must_use]
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.parts as usize];
        for &a in &self.assignment {
            if a != u32::MAX {
                sizes[a as usize] += 1;
            }
        }
        sizes
    }

    /// Checks the partition covers exactly the simulated components of a
    /// netlist (used by tests and debug assertions).
    #[must_use]
    pub fn covers(&self, netlist: &Netlist) -> bool {
        netlist.iter().all(|(id, c)| {
            let assigned = self.part_of(id).is_some();
            assigned == (c.is_gate() || c.is_switch())
        })
    }
}
