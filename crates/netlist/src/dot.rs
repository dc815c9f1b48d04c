//! Graphviz (DOT) export for visual inspection of small circuits.

use crate::component::ComponentRef;
use crate::netlist::Netlist;
use std::fmt::Write as _;

/// Renders the netlist as a Graphviz digraph.
///
/// Gates are boxes, switches are diamonds, inputs are ellipses; edges
/// follow signal flow (bidirectional switch channels are drawn with
/// `dir=none`). Intended for circuits small enough to look at — rendering
/// is O(components + nets) but the output of a 100k-component circuit is
/// not useful to a human.
#[must_use]
pub fn to_dot(netlist: &Netlist) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", netlist.name());
    let _ = writeln!(out, "  rankdir=LR;");
    for (id, comp) in netlist.iter() {
        match comp {
            ComponentRef::Gate { kind, .. } => {
                let _ = writeln!(out, "  {id} [shape=box,label=\"{kind}\"];");
            }
            ComponentRef::Switch { kind, .. } => {
                let _ = writeln!(out, "  {id} [shape=diamond,label=\"{kind}\"];");
            }
            ComponentRef::Input { net } => {
                let _ = writeln!(
                    out,
                    "  {id} [shape=ellipse,label=\"{}\"];",
                    netlist.net_name(net)
                );
            }
            ComponentRef::Pull { level, .. } => {
                let _ = writeln!(out, "  {id} [shape=triangle,label=\"pull{level}\"];");
            }
            ComponentRef::Supply { level, .. } => {
                let _ = writeln!(out, "  {id} [shape=plaintext,label=\"rail{level}\"];");
            }
        }
    }
    // Edges: driver component -> reader component, labeled by net name.
    for net_idx in 0..netlist.num_nets() {
        let net = crate::component::NetId(net_idx as u32);
        for &d in netlist.drivers(net) {
            for &r in netlist.fanout(net) {
                if d == r {
                    continue;
                }
                let bidir = netlist.component(d).is_switch() && netlist.component(r).is_switch();
                let attr = if bidir { " [dir=none]" } else { "" };
                let _ = writeln!(
                    out,
                    "  {d} -> {r} [label=\"{}\"]{attr};",
                    netlist.net_name(net)
                );
            }
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Delay, GateKind, NetlistBuilder};

    #[test]
    fn dot_contains_nodes_and_edges() {
        let mut b = NetlistBuilder::new("dot_test");
        let a = b.input("a");
        let y = b.net("y");
        let z = b.net("z");
        b.gate(GateKind::Not, &[a], y, Delay::default());
        b.gate(GateKind::Not, &[y], z, Delay::default());
        let n = b.finish().unwrap();
        let dot = to_dot(&n);
        assert!(dot.starts_with("digraph \"dot_test\""));
        assert!(dot.contains("shape=box"));
        assert!(dot.contains("label=\"y\""));
        assert!(dot.trim_end().ends_with('}'));
    }
}
