//! LS0003: dead logic — components whose activity can never be observed.
//!
//! A gate or switch is *live* when a change at one of its driven nets
//! can propagate (through any chain of gates and switches) to a
//! declared primary output. Everything else is dead weight: it still
//! costs evaluation events, partition capacity, and inter-processor
//! messages in the paper's machine model, but contributes nothing to
//! observable behaviour. The partitioners therefore weight dead
//! components at zero (they are still *placed*, so the simulation
//! semantics are unchanged).
//!
//! Netlists that declare no outputs at all are exempt: liveness is
//! meaningless without an observation point, and several internal
//! fixtures (and user sketches) legitimately omit outputs.

use super::diag::{Code, Diagnostic};
use crate::component::{CompId, NetId};
use crate::netlist::Netlist;

/// Liveness mask over all components, indexed by [`CompId`].
///
/// Infrastructure components (inputs, pulls, supplies) are always live;
/// with no declared outputs every component is live. Used both by the
/// LS0003 pass and by partitioners to zero-weight dead work.
#[must_use]
pub fn live_components(netlist: &Netlist) -> Vec<bool> {
    let mut live_comp = vec![false; netlist.num_components()];
    if netlist.outputs().is_empty() {
        live_comp.iter_mut().for_each(|l| *l = true);
        return live_comp;
    }
    // Infrastructure is never reported dead; it is part of the bench,
    // not the circuit under analysis.
    for (id, comp) in netlist.iter() {
        if !comp.is_gate() && !comp.is_switch() {
            live_comp[id.index()] = true;
        }
    }
    // Reverse reachability: a net is live when it is a primary output or
    // is read by a live component; a component is live when it drives a
    // live net. Switches read their channel nets, so conduction paths
    // stay live in both directions.
    let mut live_net = vec![false; netlist.num_nets()];
    let mut work: Vec<NetId> = Vec::new();
    for &out in netlist.outputs() {
        if !live_net[out.index()] {
            live_net[out.index()] = true;
            work.push(out);
        }
    }
    while let Some(net) = work.pop() {
        for &driver in netlist.drivers(net) {
            let comp = netlist.component(driver);
            if !comp.is_gate() && !comp.is_switch() {
                continue;
            }
            if live_comp[driver.index()] {
                continue;
            }
            live_comp[driver.index()] = true;
            comp.for_each_read(|read| {
                if !live_net[read.index()] {
                    live_net[read.index()] = true;
                    work.push(read);
                }
            });
        }
    }
    live_comp
}

/// Runs the analysis, appending any findings to `out`.
pub(crate) fn check(netlist: &Netlist, out: &mut Vec<Diagnostic>) {
    if netlist.outputs().is_empty() {
        return;
    }
    let live = live_components(netlist);
    let dead: Vec<CompId> = netlist
        .iter()
        .filter(|(id, _)| !live[id.index()])
        .map(|(id, _)| id)
        .collect();
    if dead.is_empty() {
        return;
    }
    let mut nets: Vec<NetId> = dead
        .iter()
        .flat_map(|&id| netlist.component(id).driven_nets())
        .collect();
    nets.sort_unstable();
    nets.dedup();
    out.push(
        Diagnostic::new(
            Code::Ls0003DeadLogic,
            format!(
                "{} component(s) cannot reach any declared primary output; \
                 they burn events without observable effect",
                dead.len()
            ),
        )
        .with_components(dead)
        .with_nets(nets),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Delay, GateKind, NetlistBuilder, SwitchKind};

    fn check_all(netlist: &Netlist) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        check(netlist, &mut out);
        out
    }

    #[test]
    fn all_on_path_is_clean() {
        let mut b = NetlistBuilder::new("live");
        let a = b.input("a");
        let y = b.net("y");
        let z = b.net("z");
        b.gate(GateKind::Not, &[a], y, Delay::default());
        b.gate(GateKind::Not, &[y], z, Delay::default());
        b.mark_output(z);
        assert!(check_all(&b.finish().unwrap()).is_empty());
    }

    #[test]
    fn side_branch_is_flagged() {
        let mut b = NetlistBuilder::new("dead_branch");
        let a = b.input("a");
        let y = b.net("y");
        let z = b.net("z");
        let w = b.net("w");
        b.gate(GateKind::Not, &[a], y, Delay::default());
        b.gate(GateKind::Not, &[y], z, Delay::default());
        let dead = b.gate(GateKind::Buf, &[y], w, Delay::default());
        b.mark_output(z);
        let found = check_all(&b.finish().unwrap());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].components, vec![dead]);
    }

    #[test]
    fn no_outputs_means_no_findings() {
        let mut b = NetlistBuilder::new("sketch");
        let a = b.input("a");
        let y = b.net("y");
        b.gate(GateKind::Not, &[a], y, Delay::default());
        let n = b.finish().unwrap();
        assert!(check_all(&n).is_empty());
        assert!(live_components(&n).iter().all(|&l| l));
    }

    #[test]
    fn switch_path_keeps_feeders_live() {
        // A gate feeding a pass transistor that reaches the output must
        // be live, as must the switch itself.
        let mut b = NetlistBuilder::new("pass");
        let a = b.input("a");
        let ctl = b.input("ctl");
        let x = b.net("x");
        let y = b.net("y");
        b.gate(GateKind::Not, &[a], x, Delay::default());
        b.switch(SwitchKind::Nmos, ctl, x, y);
        b.mark_output(y);
        assert!(check_all(&b.finish().unwrap()).is_empty());
    }

    #[test]
    fn infrastructure_is_never_dead() {
        let mut b = NetlistBuilder::new("infra");
        let a = b.input("a");
        let unused = b.input("unused");
        let y = b.net("y");
        b.gate(GateKind::Not, &[a], y, Delay::default());
        b.mark_output(y);
        // `unused` drives nothing observable, but Input components are
        // exempt; only gates and switches are reported.
        let n = {
            // Keep the unused input read by a dead gate so the builder
            // accepts the netlist shape we want to probe.
            let w = b.net("w");
            b.gate(GateKind::Buf, &[unused], w, Delay::default());
            b.finish().unwrap()
        };
        let found = check_all(&n);
        assert_eq!(found.len(), 1);
        assert!(found[0]
            .components
            .iter()
            .all(|&c| n.component(c).is_gate()));
    }
}
