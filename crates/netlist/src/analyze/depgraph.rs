//! Component-level dependency graph and strongly connected components.
//!
//! Shared substrate for the cycle and levelization analyses: node `i`
//! is the component with [`CompId`] `i`, and an edge `u -> v` means a
//! net driven by `u` is read by `v` (a signal change at `u` can cause
//! an evaluation of `v`).

use crate::component::CompId;
use crate::csr::Csr;
use crate::netlist::Netlist;

/// Dependency graph over all components.
pub(crate) struct DepGraph {
    /// Successors per component index (parallel edges are kept: one per
    /// connecting net).
    pub succ: Csr,
}

impl DepGraph {
    /// Builds the graph, keeping only edges where both endpoints pass
    /// `keep` (use `|_| true` for the full graph).
    pub fn build(netlist: &Netlist, keep: impl Fn(CompId) -> bool) -> DepGraph {
        let keep = &keep;
        let succ = Csr::bucket(netlist.num_components(), || {
            netlist
                .iter()
                .filter(move |&(id, _)| keep(id))
                .flat_map(move |(id, comp)| {
                    comp.drives()
                        .flat_map(move |net| netlist.fanout(net))
                        // A switch reads the channel nets it drives; only a
                        // gate reading its own output is a self-loop.
                        .filter(move |&&reader| keep(reader) && (reader != id || !comp.is_switch()))
                        .map(move |reader| (id.0, reader.0))
                })
        });
        DepGraph { succ }
    }
}

/// Tarjan's strongly-connected-components algorithm, iteratively (deep
/// combinational chains would overflow a recursive version), over the
/// graph whose node `i` has the successors `succ.row(i)`.
///
/// Returns one row per component, in **reverse topological order** of
/// the condensation: a component appears before every component that
/// can reach it.
#[must_use]
pub fn strongly_connected_components(succ: &Csr) -> Csr {
    let n = succ.num_rows();
    const UNDISCOVERED: u32 = u32::MAX;
    let mut index = vec![UNDISCOVERED; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut call: Vec<(u32, usize)> = Vec::new();
    let mut next_index = 0u32;
    let mut components = Csr::default();

    for root in 0..n {
        if index[root] != UNDISCOVERED {
            continue;
        }
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root as u32);
        on_stack[root] = true;
        call.push((root as u32, 0));

        while let Some(frame) = call.last_mut() {
            let v = frame.0 as usize;
            if let Some(&w) = succ.row(v).get(frame.1) {
                frame.1 += 1;
                let w = w as usize;
                if index[w] == UNDISCOVERED {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w as u32);
                    on_stack[w] = true;
                    call.push((w as u32, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(parent) = call.last() {
                    let p = parent.0 as usize;
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    // The component is the stack from `v` up, top first.
                    let base = stack
                        .iter()
                        .rposition(|&w| w as usize == v)
                        .expect("SCC root on stack");
                    for &w in &stack[base..] {
                        on_stack[w as usize] = false;
                    }
                    components.push_row(stack.drain(base..).rev());
                }
            }
        }
    }
    components
}

/// Whether an SCC is a genuine cycle: more than one member, or a single
/// member with a self-loop.
#[must_use]
pub fn is_cyclic(succ: &Csr, component: &[u32]) -> bool {
    component.len() > 1 || succ.row(component[0] as usize).contains(&component[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Delay, GateKind, NetlistBuilder};

    #[test]
    fn chain_has_only_trivial_sccs() {
        let mut b = NetlistBuilder::new("chain");
        let a = b.input("a");
        let y = b.net("y");
        let z = b.net("z");
        b.gate(GateKind::Not, &[a], y, Delay::default());
        b.gate(GateKind::Not, &[y], z, Delay::default());
        let n = b.finish().unwrap();
        let g = DepGraph::build(&n, |_| true);
        let sccs = strongly_connected_components(&g.succ);
        assert_eq!(sccs.num_rows(), n.num_components());
        assert!(sccs.rows().all(|c| !is_cyclic(&g.succ, c)));
    }

    #[test]
    fn latch_forms_one_scc() {
        let mut b = NetlistBuilder::new("latch");
        let s = b.input("s");
        let r = b.input("r");
        let q = b.net("q");
        let qn = b.net("qn");
        b.gate(GateKind::Nand, &[s, qn], q, Delay::default());
        b.gate(GateKind::Nand, &[r, q], qn, Delay::default());
        let n = b.finish().unwrap();
        let g = DepGraph::build(&n, |_| true);
        let sccs = strongly_connected_components(&g.succ);
        let cyclic: Vec<_> = sccs.rows().filter(|c| is_cyclic(&g.succ, c)).collect();
        assert_eq!(cyclic.len(), 1);
        assert_eq!(cyclic[0].len(), 2);
    }

    #[test]
    fn self_loop_detected() {
        let mut b = NetlistBuilder::new("osc");
        let y = b.net("y");
        let e = b.input("e");
        b.gate(GateKind::Nand, &[e, y], y, Delay::default());
        let n = b.finish().unwrap();
        let g = DepGraph::build(&n, |_| true);
        let sccs = strongly_connected_components(&g.succ);
        assert!(sccs.rows().any(|c| is_cyclic(&g.succ, c)));
    }

    #[test]
    fn reverse_topological_emission_order() {
        // a -> y -> z: the sink's SCC must be emitted before the
        // source's.
        let mut b = NetlistBuilder::new("chain");
        let a = b.input("a");
        let y = b.net("y");
        let z = b.net("z");
        b.gate(GateKind::Not, &[a], y, Delay::default());
        b.gate(GateKind::Not, &[y], z, Delay::default());
        let n = b.finish().unwrap();
        let g = DepGraph::build(&n, |_| true);
        let sccs = strongly_connected_components(&g.succ);
        let pos = |comp: u32| sccs.rows().position(|c| c.contains(&comp)).unwrap();
        // Component 2 (the z-driving gate) is downstream of component 1.
        assert!(pos(2) < pos(1));
    }
}
