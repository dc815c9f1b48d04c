//! LS0004: floating and weakly-driven nets.
//!
//! The builder's hard error already rejects nets that are read but have
//! *no* driver of any kind. This pass catches the softer cases that
//! still build but rely on dynamic behaviour to hold a value:
//!
//! 1. A channel-connected group whose only "drivers" are the switches
//!    bridging its own member nets. No gate, input, pull, or supply
//!    ever injects a value, so the whole group can only ever hold `X`.
//! 2. A net outside any switch network whose drivers are all tristate
//!    gates. When every enable is off the net floats to high-impedance;
//!    a dynamic bus like this usually wants a pull or bus keeper.
//!
//! Inside a nontrivial switch group the second pattern is *not*
//! flagged: charge storage on pass-transistor nets is the working
//! principle of dynamic MOS logic, which the paper's switch-level model
//! exists to simulate.

use super::diag::{Code, Diagnostic};
use crate::component::{ComponentRef, GateKind, NetId};
use crate::graph::ChannelGroups;
use crate::netlist::Netlist;

/// Whether a driver injects a value into a net (anything but a switch
/// channel; tristates count — pattern 2 handles their enables).
fn injects_value(component: ComponentRef<'_>) -> bool {
    !component.is_switch()
}

/// Runs the analysis, appending any findings to `out`.
pub(crate) fn check(netlist: &Netlist, out: &mut Vec<Diagnostic>) {
    let groups = ChannelGroups::compute(netlist);

    // Pattern 1: switch groups with no value injection anywhere.
    for gid in 0..groups.num_groups() as u32 {
        if !groups.is_nontrivial(gid) {
            continue;
        }
        let injected = groups.members(gid).iter().any(|&net| {
            netlist
                .drivers(net)
                .iter()
                .any(|&d| injects_value(netlist.component(d)))
        });
        if !injected {
            let mut nets: Vec<NetId> = groups.members(gid).to_vec();
            nets.sort_unstable();
            out.push(
                Diagnostic::new(
                    Code::Ls0004FloatingNet,
                    format!(
                        "switch group of {} nets has no gate, input, pull, or \
                         supply driving it; it can only hold X",
                        nets.len()
                    ),
                )
                .with_components(groups.switches(gid).to_vec())
                .with_nets(nets),
            );
        }
    }

    // Pattern 2: tristate-only nets outside switch networks.
    for i in 0..netlist.num_nets() {
        let net = NetId(i as u32);
        if groups.in_nontrivial_group(net) {
            continue;
        }
        let drivers = netlist.drivers(net);
        if drivers.is_empty() {
            continue;
        }
        let all_tristate = drivers.iter().all(|&d| {
            matches!(
                netlist.component(d),
                ComponentRef::Gate {
                    kind: GateKind::Tristate,
                    ..
                }
            )
        });
        if all_tristate {
            out.push(
                Diagnostic::new(
                    Code::Ls0004FloatingNet,
                    format!(
                        "net is driven only by {} tristate gate(s) and floats \
                         when every enable is off; consider a pull or keeper",
                        drivers.len()
                    ),
                )
                .with_components(drivers.to_vec())
                .with_nets(vec![net]),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Delay, Level, NetlistBuilder, SwitchKind};

    fn check_all(netlist: &Netlist) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        check(netlist, &mut out);
        out
    }

    #[test]
    fn driven_logic_is_clean() {
        let mut b = NetlistBuilder::new("ok");
        let a = b.input("a");
        let y = b.net("y");
        b.gate(GateKind::Not, &[a], y, Delay::default());
        assert!(check_all(&b.finish().unwrap()).is_empty());
    }

    #[test]
    fn undriven_switch_group_is_flagged() {
        // Two switches bridging three nets, none of which is injected.
        let mut b = NetlistBuilder::new("isolated");
        let ctl = b.input("ctl");
        let x = b.net("x");
        let y = b.net("y");
        let z = b.net("z");
        b.switch(SwitchKind::Nmos, ctl, x, y);
        b.switch(SwitchKind::Nmos, ctl, y, z);
        let found = check_all(&b.finish().unwrap());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].code, Code::Ls0004FloatingNet);
        assert_eq!(found[0].nets.len(), 3);
    }

    #[test]
    fn injected_switch_group_is_clean() {
        let mut b = NetlistBuilder::new("pass");
        let a = b.input("a");
        let ctl = b.input("ctl");
        let x = b.net("x");
        let y = b.net("y");
        b.gate(GateKind::Not, &[a], x, Delay::default());
        b.switch(SwitchKind::Nmos, ctl, x, y);
        assert!(check_all(&b.finish().unwrap()).is_empty());
    }

    #[test]
    fn tristate_only_net_is_flagged() {
        let mut b = NetlistBuilder::new("bus");
        let d = b.input("d");
        let e = b.input("e");
        let bus = b.net("bus");
        let y = b.net("y");
        b.gate(GateKind::Tristate, &[d, e], bus, Delay::default());
        b.gate(GateKind::Not, &[bus], y, Delay::default());
        let found = check_all(&b.finish().unwrap());
        assert_eq!(found.len(), 1);
        assert!(
            found[0].message.contains("tristate"),
            "{}",
            found[0].message
        );
    }

    #[test]
    fn tristate_with_pull_is_clean() {
        let mut b = NetlistBuilder::new("kept_bus");
        let d = b.input("d");
        let e = b.input("e");
        let bus = b.net("bus");
        let y = b.net("y");
        b.gate(GateKind::Tristate, &[d, e], bus, Delay::default());
        b.pull(bus, Level::One);
        b.gate(GateKind::Not, &[bus], y, Delay::default());
        assert!(check_all(&b.finish().unwrap()).is_empty());
    }

    #[test]
    fn charge_storage_in_pass_network_is_clean() {
        // Tristate into a switch group: dynamic logic, not flagged.
        let mut b = NetlistBuilder::new("dynamic");
        let d = b.input("d");
        let e = b.input("e");
        let ctl = b.input("ctl");
        let x = b.net("x");
        let y = b.net("y");
        b.gate(GateKind::Tristate, &[d, e], x, Delay::default());
        b.switch(SwitchKind::Nmos, ctl, x, y);
        assert!(check_all(&b.finish().unwrap()).is_empty());
    }
}
