//! LS0001: combinational cycles closed in zero time.
//!
//! The paper's machine class advances time by unit increments; a gate's
//! fixed rise/fall delay is the time between reading its inputs and
//! driving its output. A cycle in which **every** gate has a zero
//! minimum delay therefore never advances simulated time — the event
//! loop livelocks inside one tick (the software engine caps settle
//! rounds and smears `X`, neither of which is faithful simulation).
//!
//! Switch (channel) propagation is resolved within a tick by design, so
//! switches count as zero-time hops; a cycle through switches is only
//! flagged when at least one zero-delay *gate* participates. Pure
//! switch loops are ordinary channel-connected groups, and cycles
//! containing a gate with delay >= 1 advance time and model sequential
//! feedback (latches), which is fine.

use super::depgraph::{is_cyclic, strongly_connected_components, DepGraph};
use super::diag::{Code, Diagnostic};
use crate::component::{CompId, ComponentRef, NetId};
use crate::netlist::Netlist;

/// Whether a component propagates in zero simulated time.
pub(super) fn is_zero_time(component: ComponentRef<'_>) -> bool {
    match component {
        ComponentRef::Gate { delay, .. } => delay.rise.min(delay.fall) == 0,
        ComponentRef::Switch { .. } => true,
        _ => false,
    }
}

/// Runs the analysis, appending any findings to `out`.
pub(crate) fn check(netlist: &Netlist, out: &mut Vec<Diagnostic>) {
    // Only a cycle through a zero-delay gate is a finding, and none of
    // the `Delay` constructors builds one: rule the graph out first.
    let zero_delay_gate = |(_, c): (CompId, ComponentRef<'_>)| c.is_gate() && is_zero_time(c);
    if !netlist.iter().any(zero_delay_gate) {
        return;
    }
    let graph = DepGraph::build(netlist, |id| is_zero_time(netlist.component(id)));
    out.extend(findings(netlist, &graph));
}

/// The LS0001 findings over `graph`, the dependency graph of
/// `netlist`'s zero-time components; hubs are no members.
pub(super) fn findings(netlist: &Netlist, graph: &DepGraph) -> Vec<Diagnostic> {
    let mut findings = Vec::new();
    for scc in strongly_connected_components(&graph.succ).rows() {
        if !is_cyclic(&graph.succ, scc) {
            continue;
        }
        let mut members: Vec<CompId> = scc
            .iter()
            .filter(|&&i| !graph.is_hub(i))
            .map(|&i| CompId(i))
            .collect();
        members.sort_unstable();
        let zero_gates = members
            .iter()
            .filter(|&&id| netlist.component(id).is_gate())
            .count();
        if zero_gates == 0 {
            // A pure switch SCC: an ordinary channel-connected group.
            continue;
        }
        let mut nets: Vec<NetId> = members
            .iter()
            .flat_map(|&id| netlist.component(id).driven_nets())
            .collect();
        nets.sort_unstable();
        nets.dedup();
        findings.push(
            Diagnostic::new(
                Code::Ls0001CombinationalCycle,
                format!(
                    "combinational cycle through {zero_gates} zero-delay gate(s) never \
                     advances simulated time"
                ),
            )
            .with_components(members)
            .with_nets(nets),
        );
    }
    // Deterministic order regardless of DFS entry order.
    findings.sort_by_key(|d| d.components.first().copied());
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Delay;
    use crate::{GateKind, NetlistBuilder, SwitchKind};

    /// A zero-tick delay, constructible only field-by-field (the
    /// `Delay` constructors reject it; the lint exists to catch it).
    fn zero_delay() -> Delay {
        Delay { rise: 0, fall: 0 }
    }

    fn check_all(netlist: &Netlist) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        check(netlist, &mut out);
        out
    }

    #[test]
    fn unit_delay_latch_is_clean() {
        let mut b = NetlistBuilder::new("latch");
        let s = b.input("s");
        let r = b.input("r");
        let q = b.net("q");
        let qn = b.net("qn");
        b.gate(GateKind::Nand, &[s, qn], q, Delay::uniform(1));
        b.gate(GateKind::Nand, &[r, q], qn, Delay::uniform(1));
        let n = b.finish().unwrap();
        assert!(check_all(&n).is_empty());
    }

    #[test]
    fn zero_delay_loop_is_flagged() {
        let mut b = NetlistBuilder::new("livelock");
        let s = b.input("s");
        let r = b.input("r");
        let q = b.net("q");
        let qn = b.net("qn");
        b.gate(GateKind::Nand, &[s, qn], q, zero_delay());
        b.gate(GateKind::Nand, &[r, q], qn, zero_delay());
        let n = b.finish().unwrap();
        let found = check_all(&n);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].code, Code::Ls0001CombinationalCycle);
        assert_eq!(found[0].components.len(), 2);
    }

    #[test]
    fn zero_delay_gate_outside_any_cycle_is_clean() {
        // Two parallel switches form a cyclic (pure-switch) SCC; the
        // zero-delay gate reads it but closes no loop.
        let mut b = NetlistBuilder::new("beside");
        let c = b.input("c");
        let p = b.input("p");
        let q = b.net("q");
        let y = b.net("y");
        b.switch(SwitchKind::Nmos, c, p, q);
        b.switch(SwitchKind::Nmos, c, q, p);
        b.gate(GateKind::Not, &[q], y, zero_delay());
        let n = b.finish().unwrap();
        assert!(check_all(&n).is_empty());
    }

    #[test]
    fn zero_delay_gate_closing_a_loop_through_switches_is_flagged() {
        let mut b = NetlistBuilder::new("through");
        let c = b.input("c");
        let p = b.net("p");
        let q = b.net("q");
        let gate = b.gate(GateKind::Not, &[q], p, zero_delay());
        let switch = b.switch(SwitchKind::Nmos, c, p, q);
        let n = b.finish().unwrap();
        let found = check_all(&n);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].components, [gate, switch]);
        assert_eq!(found[0].nets, [p, q]);
    }

    #[test]
    fn mixed_delay_loop_is_clean() {
        // One delayed gate in the loop advances time each trip around.
        let mut b = NetlistBuilder::new("mixed");
        let s = b.input("s");
        let r = b.input("r");
        let q = b.net("q");
        let qn = b.net("qn");
        b.gate(GateKind::Nand, &[s, qn], q, zero_delay());
        b.gate(GateKind::Nand, &[r, q], qn, Delay::uniform(1));
        let n = b.finish().unwrap();
        assert!(check_all(&n).is_empty());
    }

    #[test]
    fn zero_delay_chain_without_loop_is_clean() {
        let mut b = NetlistBuilder::new("chain");
        let a = b.input("a");
        let y = b.net("y");
        let z = b.net("z");
        b.gate(GateKind::Not, &[a], y, zero_delay());
        b.gate(GateKind::Not, &[y], z, zero_delay());
        let n = b.finish().unwrap();
        assert!(check_all(&n).is_empty());
    }

    #[test]
    fn zero_delay_self_loop_is_flagged() {
        let mut b = NetlistBuilder::new("osc");
        let e = b.input("e");
        let y = b.net("y");
        b.gate(GateKind::Nand, &[e, y], y, zero_delay());
        let n = b.finish().unwrap();
        let found = check_all(&n);
        assert_eq!(found.len(), 1);
    }
}
