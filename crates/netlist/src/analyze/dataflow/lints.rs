//! Lint surface for the dataflow analyses: LS0010–LS0013.
//!
//! All four findings are informational. They report conservative
//! static facts — provable under the seeded stimulus assumptions, but
//! deliberately over-approximate elsewhere — whose real consumers are
//! the partitioner's vertex weights, `machine::static_cost`, and the
//! optimizer's future delay-aware contraction. Surfacing them through
//! `lsim lint`/`lsim analyze` makes the facts inspectable and pins
//! them in golden tests.

use super::activity::Activity;
use super::seeds::InputSeeds;
use super::timing::Timing;
use super::xreach::XReach;
use crate::analyze::dead::live_components;
use crate::analyze::diag::{Code, Diagnostic};
use crate::analyze::Levelization;
use crate::component::CompId;
use crate::netlist::Netlist;

/// Runs the activity, timing, and X-reachability analyses with
/// conservative (or supplied) input seeds, each seeded in the order of
/// `levels` (the netlist's levelization), and appends the LS0010–
/// LS0013 findings.
pub(in crate::analyze) fn check(
    netlist: &Netlist,
    seeds: Option<&InputSeeds>,
    levels: &Levelization,
    diagnostics: &mut Vec<Diagnostic>,
) {
    let fallback;
    let seeds = match seeds {
        Some(s) => s,
        None => {
            fallback = InputSeeds::unconstrained(netlist);
            &fallback
        }
    };

    let live = live_components(netlist);

    // LS0010: live components with zero estimated activity.
    let activity = Activity::analyze(netlist, seeds, levels);
    let per_comp = activity.component_activity(netlist);
    let quiescent: Vec<CompId> = (0..netlist.num_components() as u32)
        .map(CompId)
        .filter(|&c| {
            live[c.index()]
                && per_comp[c.index()] == 0.0
                && !matches!(
                    netlist.component(c),
                    crate::component::ComponentRef::Input { .. }
                        | crate::component::ComponentRef::Pull { .. }
                        | crate::component::ComponentRef::Supply { .. }
                )
        })
        .collect();
    if !quiescent.is_empty() {
        diagnostics.push(
            Diagnostic::new(
                Code::Ls0010QuiescentLogic,
                format!(
                    "{} live component(s) have zero estimated activity: they never \
                     evaluate after power-up settling and add only dead weight to \
                     a partition",
                    quiescent.len()
                ),
            )
            .with_components(quiescent),
        );
    }

    // LS0011: nets whose latest arrival diverged (timing feedback).
    let timing = Timing::analyze(netlist, seeds, levels);
    let unbounded: Vec<_> = (0..netlist.num_nets() as u32)
        .map(crate::component::NetId)
        .filter(|&n| timing.is_unbounded(n))
        .collect();
    if !unbounded.is_empty() {
        diagnostics.push(
            Diagnostic::new(
                Code::Ls0011UnboundedArrival,
                format!(
                    "{} net(s) have an unbounded arrival window: static timing cannot \
                     bound their settling time (feedback; potential oscillation)",
                    unbounded.len()
                ),
            )
            .with_nets(unbounded),
        );
    }

    // LS0013: gates provably immune to inertial pulse filtering.
    let num_gates = netlist.num_gates();
    let filter_free: Vec<CompId> = (0..netlist.num_components() as u32)
        .map(CompId)
        .filter(|&c| timing.is_filter_free(c))
        .collect();
    if !filter_free.is_empty() {
        diagnostics.push(
            Diagnostic::new(
                Code::Ls0013FilterFree,
                format!(
                    "{} of {num_gates} gate(s) are provably inertial-filter-free: no \
                     input pulse can be shorter than their inertial window, so \
                     delay-aware chain contraction is waveform-safe",
                    filter_free.len()
                ),
            )
            .with_components(filter_free),
        );
    }

    // LS0012: nets that can never leave X from power-up.
    let xreach = XReach::analyze(netlist, seeds, levels);
    let stuck = xreach.x_stuck_nets();
    if !stuck.is_empty() {
        diagnostics.push(
            Diagnostic::new(
                Code::Ls0012XStuck,
                format!(
                    "{} net(s) can never leave X from the all-X power-up \
                     configuration: un-initializable state (missing reset?)",
                    stuck.len()
                ),
            )
            .with_nets(stuck),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Delay;
    use crate::value::Level;
    use crate::{GateKind, NetlistBuilder};

    fn codes(netlist: &Netlist) -> Vec<Code> {
        let mut diags = Vec::new();
        check(netlist, None, &Levelization::compute(netlist), &mut diags);
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn quiet_constant_cone_fires_ls0010() {
        let mut b = NetlistBuilder::new("quiet");
        let one = b.net("one");
        b.supply(one, Level::One);
        let y = b.net("y");
        b.gate(GateKind::Not, &[one], y, Delay::uniform(1));
        b.mark_output(y);
        let n = b.finish().unwrap();
        let c = codes(&n);
        assert!(c.contains(&Code::Ls0010QuiescentLogic), "{c:?}");
    }

    #[test]
    fn feedback_fires_ls0011_and_x_ring_fires_ls0012() {
        let mut b = NetlistBuilder::new("fb");
        let a = b.input("a");
        let q = b.net("q");
        let y = b.net("y");
        b.gate(GateKind::Xor, &[a, q], q, Delay::uniform(1));
        b.gate(GateKind::Buf, &[q], y, Delay::uniform(1));
        b.mark_output(y);
        let n = b.finish().unwrap();
        let c = codes(&n);
        assert!(c.contains(&Code::Ls0011UnboundedArrival), "{c:?}");
        assert!(c.contains(&Code::Ls0012XStuck), "{c:?}");
    }

    #[test]
    fn uniform_delay_chain_is_filter_free() {
        let mut b = NetlistBuilder::new("chain");
        let a = b.input("a");
        let y = b.net("y");
        b.gate(GateKind::Not, &[a], y, Delay::uniform(1));
        b.mark_output(y);
        let n = b.finish().unwrap();
        let c = codes(&n);
        assert_eq!(c, vec![Code::Ls0013FilterFree], "{c:?}");
    }
}
