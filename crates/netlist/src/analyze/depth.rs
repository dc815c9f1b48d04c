//! Levelization (LS0005): topological logic depth per net.
//!
//! The paper's performance model is driven by how much logic a signal
//! edge must traverse: logic depth bounds the critical path, and its
//! distribution predicts how many event generations the machine
//! processes per input change. This pass computes, for every net, the
//! longest gate/switch path from any depth-0 source (primary inputs,
//! pulls, supplies) and exports the histogram to
//! [`crate::stats::CircuitCharacteristics`].
//!
//! Feedback is handled by condensing strongly connected components:
//! every component in a cycle gets the depth of the cycle as a whole
//! (one level for the SCC), so sequential netlists still get a finite,
//! meaningful depth instead of diverging. Depths beyond the configured
//! threshold produce an LS0005 warning — such circuits simulate, but a
//! single input change can fan into an extremely long event cascade.

use super::depgraph::{levelize, DepGraph};
use super::diag::{Code, Diagnostic};
use crate::component::{CompId, ComponentKind, NetId};
use crate::netlist::Netlist;

/// Per-net and per-component logic depth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Levelization {
    /// Longest logic path (in gate/switch evaluations) to each net.
    net_depth: Vec<u32>,
    /// Longest logic path to (and including) each component.
    comp_depth: Vec<u32>,
    /// Whether each component lies on a feedback cycle.
    cyclic: Vec<bool>,
    /// Maximum over all net depths.
    max_depth: u32,
}

impl Levelization {
    /// Computes logic depths by longest path over the SCC condensation
    /// of the component dependency graph.
    #[must_use]
    pub fn compute(netlist: &Netlist) -> Levelization {
        Levelization::from_graph(netlist, &DepGraph::build(netlist, |_| true))
    }

    /// [`Levelization::compute`] over a given dependency graph of
    /// `netlist`: an SCC holding a gate or switch is one level, and
    /// hubs, inputs, pulls and supplies take none.
    pub(crate) fn from_graph(netlist: &Netlist, graph: &DepGraph) -> Levelization {
        let columns = netlist.columns();
        let num_comps = netlist.num_components();
        let (sccs, rank, in_cycle, _) = levelize(&graph.succ, |members| {
            u32::from(members.iter().any(|&m| {
                !graph.is_hub(m)
                    && matches!(
                        columns.kind(m as usize),
                        ComponentKind::Gate(_) | ComponentKind::Switch(_)
                    )
            }))
        });
        let mut comp_depth = vec![0u32; num_comps];
        let mut cyclic = vec![false; num_comps];
        for ((members, &r), &c) in sccs.rows().zip(&rank).zip(&in_cycle) {
            for &m in members.iter().filter(|&&m| !graph.is_hub(m)) {
                comp_depth[m as usize] = r;
                cyclic[m as usize] = c;
            }
        }
        let net_depth: Vec<u32> = (0..netlist.num_nets())
            .map(|i| {
                netlist
                    .drivers(NetId(i as u32))
                    .iter()
                    .map(|&d| comp_depth[d.index()])
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let max_depth = net_depth.iter().copied().max().unwrap_or(0);
        Levelization {
            net_depth,
            comp_depth,
            cyclic,
            max_depth,
        }
    }

    /// Logic depth of a net.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    #[must_use]
    pub fn net_depth(&self, net: NetId) -> u32 {
        self.net_depth[net.index()]
    }

    /// Logic depth of a component (including its own evaluation).
    ///
    /// # Panics
    ///
    /// Panics if `comp` is out of range.
    #[must_use]
    pub fn comp_depth(&self, comp: CompId) -> u32 {
        self.comp_depth[comp.index()]
    }

    /// Whether a component participates in a feedback cycle.
    ///
    /// # Panics
    ///
    /// Panics if `comp` is out of range.
    #[must_use]
    pub fn is_cyclic(&self, comp: CompId) -> bool {
        self.cyclic[comp.index()]
    }

    /// Maximum logic depth over all nets.
    #[must_use]
    pub fn max_depth(&self) -> u32 {
        self.max_depth
    }

    /// Net count per depth level, indices `0..=max_depth`.
    #[must_use]
    pub fn depth_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.max_depth as usize + 1];
        for &d in &self.net_depth {
            hist[d as usize] += 1;
        }
        hist
    }
}

/// Runs the analysis, appending an LS0005 warning when the maximum
/// depth exceeds `max_depth`. Returns the levelization for reuse.
pub(crate) fn check(netlist: &Netlist, max_depth: u32, out: &mut Vec<Diagnostic>) -> Levelization {
    let levels = Levelization::compute(netlist);
    if levels.max_depth() > max_depth {
        let deepest: Vec<NetId> = (0..netlist.num_nets() as u32)
            .map(NetId)
            .filter(|&n| levels.net_depth(n) == levels.max_depth())
            .collect();
        out.push(
            Diagnostic::new(
                Code::Ls0005ExcessiveDepth,
                format!(
                    "maximum logic depth {} exceeds the threshold {}; one input \
                     change can cascade through that many evaluation generations",
                    levels.max_depth(),
                    max_depth
                ),
            )
            .with_nets(deepest),
        );
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Delay, GateKind, NetlistBuilder, SwitchKind};

    fn inverter_chain(k: usize) -> Netlist {
        let mut b = NetlistBuilder::new("chain");
        let mut prev = b.input("a");
        for i in 0..k {
            let next = b.net(format!("y{i}"));
            b.gate(GateKind::Not, &[prev], next, Delay::default());
            prev = next;
        }
        b.finish().unwrap()
    }

    #[test]
    fn chain_depth_counts_gates() {
        let n = inverter_chain(4);
        let levels = Levelization::compute(&n);
        assert_eq!(levels.max_depth(), 4);
        assert_eq!(levels.net_depth(n.find_net("a").unwrap()), 0);
        assert_eq!(levels.net_depth(n.find_net("y3").unwrap()), 4);
        // One net per depth level 0..=4.
        assert_eq!(levels.depth_histogram(), vec![1, 1, 1, 1, 1]);
    }

    #[test]
    fn latch_cycle_is_one_level() {
        let mut b = NetlistBuilder::new("latch");
        let s = b.input("s");
        let r = b.input("r");
        let q = b.net("q");
        let qn = b.net("qn");
        let g1 = b.gate(GateKind::Nand, &[s, qn], q, Delay::default());
        let g2 = b.gate(GateKind::Nand, &[r, q], qn, Delay::default());
        let n = b.finish().unwrap();
        let levels = Levelization::compute(&n);
        assert_eq!(levels.max_depth(), 1);
        assert!(levels.is_cyclic(g1) && levels.is_cyclic(g2));
        assert_eq!(levels.comp_depth(g1), levels.comp_depth(g2));
    }

    #[test]
    fn switches_count_as_levels() {
        let mut b = NetlistBuilder::new("pass");
        let a = b.input("a");
        let ctl = b.input("ctl");
        let x = b.net("x");
        let y = b.net("y");
        b.gate(GateKind::Not, &[a], x, Delay::default());
        b.switch(SwitchKind::Nmos, ctl, x, y);
        let n = b.finish().unwrap();
        let levels = Levelization::compute(&n);
        // NOT is level 1; the switch adds one more on `y`.
        assert!(levels.net_depth(n.find_net("y").unwrap()) >= 2);
    }

    #[test]
    fn threshold_warning_fires() {
        let n = inverter_chain(6);
        let mut out = Vec::new();
        let levels = check(&n, 4, &mut out);
        assert_eq!(levels.max_depth(), 6);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, Code::Ls0005ExcessiveDepth);
        let mut quiet = Vec::new();
        check(&n, 6, &mut quiet);
        assert!(quiet.is_empty());
    }
}
