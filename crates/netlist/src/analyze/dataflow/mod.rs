//! Generic monotone-framework dataflow engine over netlist nets.
//!
//! Every static analysis in this crate used to be a hand-rolled
//! fixpoint loop (`opt::absint`'s Jacobi iteration, the levelization
//! walk, the liveness BFS). This module factors the common shape out:
//! an [`Analysis`] supplies a join-semilattice of per-net facts
//! (bottom element, join, a height bound, a widening operator) and a
//! monotone transfer function; [`solve`] runs a worklist to the least
//! fixpoint, seeded in [`Levelization`] order so feed-forward circuits
//! converge in a single sweep.
//!
//! # Termination
//!
//! The engine guarantees termination for *any* transfer function, even
//! a buggy non-monotone one: each net's value may strictly change at
//! most [`Analysis::height`] times before the engine applies
//! [`Analysis::widen`], which must jump to an absorbing top element
//! (`join(top, x) == top`, `widen(top) == top`). Once widened, a net
//! can never change again, so the total number of value changes is
//! bounded by `nets * (height + 1)` and the total number of transfer
//! applications by `seeds + changes * max_fanout`. [`Solution`]
//! reports the observed counts so tests can check the bound.
//!
//! # Analyses built on the engine
//!
//! | module | lattice | direction | consumer |
//! |--------|---------|-----------|----------|
//! | [`ternary`] | Kleene `{X ⊑ 0, X ⊑ 1}` | forward | `opt::absint`, LS0006 |
//! | [`activity`] | quantized transition density `[0, 1]` | forward | LS0010, partition weights, `machine::static_cost` |
//! | [`timing`] | arrival intervals `[min, max]` | forward | LS0011, LS0013 |
//! | [`xreach`] | subsets of `{0, 1, X}` | forward | LS0012 |

pub mod activity;
pub(crate) mod lints;
pub mod seeds;
pub mod ternary;
pub mod timing;
pub mod xreach;

use crate::analyze::Levelization;
use std::collections::VecDeque;

/// Direction of fact propagation through the circuit graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from drivers to readers (inputs toward outputs).
    Forward,
    /// Facts flow from readers to drivers (outputs toward inputs).
    Backward,
}

/// One monotone dataflow analysis: a join-semilattice of per-net
/// values plus a transfer function over some circuit topology (the
/// implementor holds its own reference to a [`Netlist`](crate::Netlist) or an
/// optimizer work graph).
pub trait Analysis {
    /// The lattice element attached to each net.
    type Value: Clone + PartialEq;

    /// Which way facts flow; used by [`level_order`] callers and
    /// reported in diagnostics.
    fn direction(&self) -> Direction;

    /// Number of nets (the solution vector length).
    fn num_nets(&self) -> usize;

    /// The least lattice element for `net` — the initial assumption.
    fn bottom(&self, net: u32) -> Self::Value;

    /// Recomputes the value of `net` from the current solution. Must
    /// be monotone in `values` for the fixpoint to be least; the
    /// engine terminates regardless (see the module docs).
    fn transfer(&self, net: u32, values: &[Self::Value]) -> Self::Value;

    /// Least upper bound. Must satisfy `join(a, b) ⊒ a` and `⊒ b`.
    fn join(&self, old: &Self::Value, new: &Self::Value) -> Self::Value;

    /// Maximum number of strict increases one net's value can undergo
    /// on a chain from bottom to top (the lattice height). After this
    /// many changes the engine widens the net.
    fn height(&self) -> u32;

    /// Jumps `value` to the absorbing top element. Required:
    /// `join(top, x) == top` and widening an already-top value must be
    /// a no-op, or the engine's termination bound is void.
    fn widen(&self, value: &mut Self::Value);

    /// Calls `f` with every net whose transfer function reads `net`'s
    /// value (the worklist successors in this analysis's direction).
    fn for_each_dependent(&self, net: u32, f: &mut dyn FnMut(u32));

    /// The initial worklist, each net exactly once. Override with a
    /// topological order ([`level_order`]) so DAGs converge in one
    /// sweep; the default natural order is always correct, just
    /// slower.
    fn seed_order(&self) -> Vec<u32> {
        (0..self.num_nets() as u32).collect()
    }
}

/// The least fixpoint found by [`solve`], plus the effort counters
/// that let tests check the termination bound.
#[derive(Debug, Clone)]
pub struct Solution<V> {
    /// Per-net lattice values at the fixpoint, indexed by net id.
    pub values: Vec<V>,
    /// Total transfer-function applications.
    pub transfers: u64,
    /// The largest number of times any single net's value changed.
    pub max_changes: u32,
    /// Nets forced to top by widening (0 when the lattice height was
    /// never exceeded — the expected case for correct analyses).
    pub widened: usize,
}

impl<V> Solution<V> {
    /// The value of `net`.
    #[must_use]
    pub fn value(&self, net: crate::component::NetId) -> &V {
        &self.values[net.index()]
    }
}

/// Runs `analysis` to its least fixpoint with a deduplicating
/// worklist.
///
/// Nets are seeded in [`Analysis::seed_order`]; a net re-enters the
/// worklist only when one of the values its transfer reads has
/// changed. See the module docs for the termination argument.
#[must_use]
pub fn solve<A: Analysis>(analysis: &A) -> Solution<A::Value> {
    let n = analysis.num_nets();
    let mut values: Vec<A::Value> = (0..n as u32).map(|i| analysis.bottom(i)).collect();
    let mut changes = vec![0u32; n];
    let mut in_queue = vec![false; n];
    let mut queue: VecDeque<u32> = VecDeque::with_capacity(n);
    for net in analysis.seed_order() {
        if !in_queue[net as usize] {
            in_queue[net as usize] = true;
            queue.push_back(net);
        }
    }
    let height = analysis.height();
    let mut transfers = 0u64;
    let mut widened = 0usize;
    while let Some(net) = queue.pop_front() {
        let i = net as usize;
        in_queue[i] = false;
        transfers += 1;
        let out = analysis.transfer(net, &values);
        let mut joined = analysis.join(&values[i], &out);
        if joined == values[i] {
            continue;
        }
        changes[i] += 1;
        if changes[i] > height {
            // Height bound exceeded: force the absorbing top. If the
            // net is already top, nothing changes and it goes quiet.
            analysis.widen(&mut joined);
            if joined == values[i] {
                continue;
            }
            widened += 1;
        }
        values[i] = joined;
        analysis.for_each_dependent(net, &mut |d| {
            if !in_queue[d as usize] {
                in_queue[d as usize] = true;
                queue.push_back(d);
            }
        });
    }
    Solution {
        values,
        transfers,
        max_changes: changes.into_iter().max().unwrap_or(0),
        widened,
    }
}

/// Net ids in the levelization order of `levels`: ascending logic
/// depth for [`Direction::Forward`] (drivers settle before readers), the
/// reverse for [`Direction::Backward`]. Cyclic nets share a depth and
/// appear in id order within it: a counting sort by depth over the
/// ascending ids. The caller levelizes once ([`Levelization::compute`])
/// and hands the result to every analysis it seeds.
#[must_use]
pub fn level_order(levels: &Levelization, direction: Direction) -> Vec<u32> {
    let depth = |n: u32| levels.net_depth(crate::component::NetId(n)) as usize;
    // Each depth's first slot, then its next free one.
    let mut next = levels.depth_histogram();
    let mut start = 0;
    for slot in &mut next {
        let count = *slot;
        *slot = start;
        start += count;
    }
    let mut order = vec![0u32; start];
    for n in 0..start as u32 {
        let slot = &mut next[depth(n)];
        order[*slot] = n;
        *slot += 1;
    }
    if direction == Direction::Backward {
        order.reverse();
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{Delay, NetId};
    use crate::netlist::Netlist;
    use crate::{GateKind, NetlistBuilder};

    /// Reachability from input nets: the simplest possible boolean
    /// lattice, enough to exercise the engine plumbing.
    struct Reach<'a> {
        netlist: &'a Netlist,
        levels: &'a Levelization,
    }

    impl Analysis for Reach<'_> {
        type Value = bool;

        fn direction(&self) -> Direction {
            Direction::Forward
        }

        fn num_nets(&self) -> usize {
            self.netlist.num_nets()
        }

        fn bottom(&self, _net: u32) -> bool {
            false
        }

        fn transfer(&self, net: u32, values: &[bool]) -> bool {
            let id = NetId(net);
            if self.netlist.inputs().contains(&id) {
                return true;
            }
            self.netlist.drivers(id).iter().any(|&c| {
                let mut any = false;
                self.netlist.component(c).for_each_read(|r| {
                    any |= values[r.index()];
                });
                any
            })
        }

        fn join(&self, old: &bool, new: &bool) -> bool {
            *old || *new
        }

        fn height(&self) -> u32 {
            1
        }

        fn widen(&self, value: &mut bool) {
            *value = true;
        }

        fn for_each_dependent(&self, net: u32, f: &mut dyn FnMut(u32)) {
            for &c in self.netlist.fanout(NetId(net)) {
                self.netlist.component(c).for_each_driven(|d| f(d.0));
            }
        }

        fn seed_order(&self) -> Vec<u32> {
            level_order(self.levels, self.direction())
        }
    }

    fn chain(len: usize) -> Netlist {
        let mut b = NetlistBuilder::new("chain");
        let mut prev = b.input("a");
        for i in 0..len {
            let next = b.net(format!("n{i}"));
            b.gate(GateKind::Not, &[prev], next, Delay::uniform(1));
            prev = next;
        }
        b.mark_output(prev);
        b.finish().unwrap()
    }

    #[test]
    fn reachability_converges_in_one_sweep_on_a_chain() {
        let n = chain(32);
        let levels = Levelization::compute(&n);
        let solution = solve(&Reach {
            netlist: &n,
            levels: &levels,
        });
        assert!(solution.values.iter().all(|&v| v), "all nets reachable");
        // Topological seeding: every net settles on its first visit,
        // so transfers == nets and nothing is re-queued.
        assert_eq!(solution.transfers, n.num_nets() as u64);
        assert_eq!(solution.max_changes, 1);
        assert_eq!(solution.widened, 0);
    }

    #[test]
    fn level_order_respects_depth_and_direction() {
        let n = chain(8);
        let levels = Levelization::compute(&n);
        let fwd = level_order(&levels, Direction::Forward);
        let bwd = level_order(&levels, Direction::Backward);
        for w in fwd.windows(2) {
            assert!(levels.net_depth(NetId(w[0])) <= levels.net_depth(NetId(w[1])));
        }
        let mut rev = bwd.clone();
        rev.reverse();
        assert_eq!(fwd, rev);
    }

    #[test]
    fn level_order_sorts_by_depth_then_id() {
        // Nets declared deepest first, with ties at every depth.
        let mut b = NetlistBuilder::new("ties");
        let z: Vec<NetId> = (0..3).map(|i| b.net(format!("z{i}"))).collect();
        let y: Vec<NetId> = (0..3).map(|i| b.net(format!("y{i}"))).collect();
        let a = b.input("a");
        let c = b.input("c");
        for i in 0..3 {
            b.gate(GateKind::Nand, &[a, c], y[i], Delay::default());
            b.gate(GateKind::Not, &[y[2 - i]], z[i], Delay::default());
        }
        let n = b.finish().unwrap();
        let levels = Levelization::compute(&n);
        let mut sorted: Vec<u32> = (0..n.num_nets() as u32).collect();
        sorted.sort_by_key(|&i| (levels.net_depth(NetId(i)), i));
        assert_eq!(level_order(&levels, Direction::Forward), sorted);
        sorted.reverse();
        assert_eq!(level_order(&levels, Direction::Backward), sorted);
    }

    #[test]
    fn widening_caps_a_non_monotone_transfer() {
        // A deliberately oscillating "analysis": transfer flips the
        // value every visit on a self-dependent net. The height bound
        // plus widening must still terminate and land on top.
        struct Flip;
        impl Analysis for Flip {
            type Value = u32;
            fn direction(&self) -> Direction {
                Direction::Forward
            }
            fn num_nets(&self) -> usize {
                1
            }
            fn bottom(&self, _net: u32) -> u32 {
                0
            }
            fn transfer(&self, _net: u32, values: &[u32]) -> u32 {
                // Not monotone: keeps growing past the height bound.
                values[0].saturating_add(1)
            }
            fn join(&self, _old: &u32, new: &u32) -> u32 {
                *new
            }
            fn height(&self) -> u32 {
                3
            }
            fn widen(&self, value: &mut u32) {
                *value = u32::MAX;
            }
            fn for_each_dependent(&self, _net: u32, f: &mut dyn FnMut(u32)) {
                f(0); // self-loop
            }
        }
        let solution = solve(&Flip);
        assert_eq!(solution.values[0], u32::MAX, "widened to top");
        assert_eq!(solution.widened, 1);
        // 3 ordinary changes + 1 widening change, then one quiet visit.
        assert!(solution.transfers <= 6, "{}", solution.transfers);
    }
}
