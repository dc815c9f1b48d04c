//! LS0002: potential drive fights.
//!
//! Two patterns are flagged, both at warning level because control
//! logic may in fact keep the drivers exclusive:
//!
//! 1. A net with two or more *always-on* strong drivers — non-tristate
//!    gate outputs, primary inputs, or supply rails. These drive
//!    continuously, so any disagreement is a fight the strength lattice
//!    resolves arbitrarily (to `X` at equal strength).
//! 2. A single switch whose two channel terminals both have always-on
//!    strong drivers: whenever the switch conducts it shorts the two
//!    drivers together. (A gate driving *into* a pass-transistor
//!    network is normal MOS design and is not flagged; the fight needs
//!    strong drive on both sides of one switch.)

use super::diag::{Code, Diagnostic};
use crate::component::{ComponentRef, GateKind, NetId};
use crate::netlist::Netlist;

/// Whether `component` drives its output net strongly at all times.
fn is_always_on_strong(component: ComponentRef<'_>) -> bool {
    match component {
        ComponentRef::Gate { kind, .. } => kind != GateKind::Tristate,
        ComponentRef::Input { .. } | ComponentRef::Supply { .. } => true,
        ComponentRef::Switch { .. } | ComponentRef::Pull { .. } => false,
    }
}

/// Runs the analysis, appending any findings to `out`.
pub(crate) fn check(netlist: &Netlist, out: &mut Vec<Diagnostic>) {
    // Always-on strong drivers per net.
    let strong: Vec<Vec<crate::component::CompId>> = (0..netlist.num_nets())
        .map(|i| {
            let net = NetId(i as u32);
            netlist
                .drivers(net)
                .iter()
                .copied()
                .filter(|&d| is_always_on_strong(netlist.component(d)))
                .collect()
        })
        .collect();

    for (i, drivers) in strong.iter().enumerate() {
        if drivers.len() >= 2 {
            let net = NetId(i as u32);
            out.push(
                Diagnostic::new(
                    Code::Ls0002DriveFight,
                    format!(
                        "net has {} always-on strong drivers; they fight whenever \
                         their levels disagree",
                        drivers.len()
                    ),
                )
                .with_components(drivers.clone())
                .with_nets(vec![net]),
            );
        }
    }

    for (id, comp) in netlist.iter() {
        if let ComponentRef::Switch { a, b, .. } = comp {
            if !strong[a.index()].is_empty() && !strong[b.index()].is_empty() {
                let mut comps = vec![id];
                comps.extend(strong[a.index()].iter().copied());
                comps.extend(strong[b.index()].iter().copied());
                out.push(
                    Diagnostic::new(
                        Code::Ls0002DriveFight,
                        "switch bridges two always-on strong drivers; they fight \
                         whenever it conducts"
                            .to_string(),
                    )
                    .with_components(comps)
                    .with_nets(vec![a, b]),
                );
            }
        }
    }
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
    fn single_driver_is_clean() {
        let mut b = NetlistBuilder::new("ok");
        let a = b.input("a");
        let y = b.net("y");
        b.gate(GateKind::Not, &[a], y, Delay::default());
        assert!(check_all(&b.finish().unwrap()).is_empty());
    }

    #[test]
    fn two_gates_on_one_net_are_flagged() {
        let mut b = NetlistBuilder::new("fight");
        let a = b.input("a");
        let c = b.input("c");
        let y = b.net("y");
        b.gate(GateKind::Not, &[a], y, Delay::default());
        b.gate(GateKind::Buf, &[c], y, Delay::default());
        let found = check_all(&b.finish().unwrap());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].code, Code::Ls0002DriveFight);
        assert_eq!(found[0].components.len(), 2);
    }

    #[test]
    fn tristate_bus_is_clean() {
        let mut b = NetlistBuilder::new("bus");
        let d0 = b.input("d0");
        let e0 = b.input("e0");
        let d1 = b.input("d1");
        let e1 = b.input("e1");
        let bus = b.net("bus");
        b.gate(GateKind::Tristate, &[d0, e0], bus, Delay::default());
        b.gate(GateKind::Tristate, &[d1, e1], bus, Delay::default());
        // Keep the bus read so the builder accepts it.
        let y = b.net("y");
        b.gate(GateKind::Not, &[bus], y, Delay::default());
        assert!(check_all(&b.finish().unwrap()).is_empty());
    }

    #[test]
    fn pull_plus_gate_is_clean() {
        // The classic NMOS pattern: resistive pull-up, strong pull-down.
        let mut b = NetlistBuilder::new("nmos");
        let a = b.input("a");
        let y = b.net("y");
        b.pull(y, crate::Level::One);
        b.gate(GateKind::Not, &[a], y, Delay::default());
        assert!(check_all(&b.finish().unwrap()).is_empty());
    }

    #[test]
    fn switch_bridging_two_gates_is_flagged() {
        let mut b = NetlistBuilder::new("short");
        let a = b.input("a");
        let c = b.input("c");
        let ctl = b.input("ctl");
        let x = b.net("x");
        let y = b.net("y");
        b.gate(GateKind::Not, &[a], x, Delay::default());
        b.gate(GateKind::Not, &[c], y, Delay::default());
        b.switch(SwitchKind::Nmos, ctl, x, y);
        let found = check_all(&b.finish().unwrap());
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("bridges"), "{}", found[0].message);
    }

    #[test]
    fn gate_into_pass_network_is_clean() {
        // Gate drives one side; the other side only reaches a reader.
        let mut b = NetlistBuilder::new("mux_leg");
        let a = b.input("a");
        let ctl = b.input("ctl");
        let x = b.net("x");
        let y = b.net("y");
        let z = b.net("z");
        b.gate(GateKind::Not, &[a], x, Delay::default());
        b.switch(SwitchKind::Nmos, ctl, x, y);
        b.gate(GateKind::Not, &[y], z, Delay::default());
        assert!(check_all(&b.finish().unwrap()).is_empty());
    }
}
