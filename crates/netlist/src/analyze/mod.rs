//! Static netlist analysis: structural lints and levelization.
//!
//! [`analyze`] runs five passes over a validated [`Netlist`] and
//! returns a [`Report`] of structured [`Diagnostic`]s with stable
//! codes (rationale for each code lives in `DESIGN.md`):
//!
//! | code   | severity | finding |
//! |--------|----------|---------|
//! | LS0001 | error    | combinational cycle closed in zero simulated time |
//! | LS0002 | warning  | always-on strong drivers that can fight |
//! | LS0003 | warning  | logic unreachable from any primary output |
//! | LS0004 | warning  | floating or charge-only nets beyond builder errors |
//! | LS0005 | warning  | logic depth above [`MAX_LOGIC_DEPTH`] |
//! | LS0006 | info     | constant nets the [`opt`] optimizer can exploit |
//! | LS0007 | info     | structurally duplicate components [`opt`] can merge |
//! | LS0008 | info     | buffer/inverter chains [`opt`] can canonicalize |
//! | LS0009 | info     | logic outside the observability cone [`opt`] can prune |
//! | LS0010 | info     | live logic with provably zero static activity |
//! | LS0011 | info     | nets whose arrival window static timing cannot bound |
//! | LS0012 | info     | state that can never leave X from power-up |
//! | LS0013 | info     | gates provably immune to inertial pulse filtering |
//!
//! The info-level rules are a dry run of the [`opt`] static optimizer
//! (LS0006–LS0009) or conservative facts from the [`dataflow`]
//! analyses (LS0010–LS0013): each reports a provable property or a
//! sound rewrite, never a modelling mistake, so they do not affect
//! exit status even under `--deny warnings`.
//!
//! Error-level findings mean the event-driven engine cannot simulate
//! the netlist faithfully; [`Simulator::new`] runs the same pre-flight
//! and refuses such netlists. Warnings simulate but usually indicate a
//! modelling mistake, and `lsim lint --deny warnings` promotes them to
//! a failing exit status for CI use.
//!
//! [`Simulator::new`]: ../../logicsim_sim/struct.Simulator.html

mod cycles;
pub mod dataflow;
mod dead;
mod depgraph;
mod depth;
mod diag;
mod drive;
mod float;
pub mod opt;

pub use dead::live_components;
pub use depgraph::levelize;
pub use depth::Levelization;
pub use diag::{
    describe_component, Code, Diagnostic, JsonDiagnostic, JsonReport, Report, Severity,
    LINT_SCHEMA_VERSION,
};

use crate::netlist::Netlist;

/// Logic depth above which LS0005 fires, far above the paper's five
/// circuits.
pub const MAX_LOGIC_DEPTH: u32 = 512;

/// Runs all analyses with conservative input seeds for the dataflow
/// passes.
#[must_use]
pub fn analyze(netlist: &Netlist) -> Report {
    analyze_seeded(netlist, None)
}

/// Runs only the error-level analyses (currently LS0001), returning the
/// findings. Cheap enough — one linear pass — to run on every simulator
/// construction as a pre-flight.
#[must_use]
pub fn preflight(netlist: &Netlist) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();
    cycles::check(netlist, &mut diagnostics);
    diagnostics
}

/// Runs all analyses, seeding the dataflow passes (activity, timing,
/// X-reachability) from a known stimulus plan when one is available.
/// `None` falls back to the conservative unconstrained seeds.
#[must_use]
pub fn analyze_seeded(netlist: &Netlist, seeds: Option<&dataflow::seeds::InputSeeds>) -> Report {
    let mut diagnostics = Vec::new();
    cycles::check(netlist, &mut diagnostics);
    drive::check(netlist, &mut diagnostics);
    dead::check(netlist, &mut diagnostics);
    float::check(netlist, &mut diagnostics);
    let levels = depth::check(netlist, MAX_LOGIC_DEPTH, &mut diagnostics);
    // Dry-run the optimizer: its aggregated findings (LS0006–LS0009)
    // surface what `lsim opt` would rewrite, against original ids.
    diagnostics.extend(opt::optimize(netlist).report.findings);
    // Dataflow facts (LS0010–LS0013), seeded in the order of the one
    // levelization depth::check computed.
    dataflow::lints::check(netlist, seeds, &levels, &mut diagnostics);
    diagnostics.sort_by_key(Diagnostic::sort_key);
    Report {
        diagnostics,
        max_logic_depth: levels.max_depth(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Delay;
    use crate::{GateKind, NetlistBuilder};

    #[test]
    fn clean_circuit_reports_nothing_actionable() {
        let mut b = NetlistBuilder::new("clean");
        let a = b.input("a");
        let y = b.net("y");
        b.gate(GateKind::Not, &[a], y, Delay::uniform(1));
        b.mark_output(y);
        let n = b.finish().unwrap();
        let report = analyze(&n);
        assert_eq!(
            report.at_least(Severity::Warning).count(),
            0,
            "{}",
            report.render(&n)
        );
        // The only finding is the positive LS0013 fact: a uniform-delay
        // gate fed straight from an input is trivially filter-free.
        let codes: Vec<Code> = report.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(codes, vec![Code::Ls0013FilterFree]);
        assert_eq!(report.max_logic_depth, 1);
    }

    #[test]
    fn zero_delay_loop_is_an_error() {
        let mut b = NetlistBuilder::new("livelock");
        let e = b.input("e");
        let y = b.net("y");
        b.gate(GateKind::Nand, &[e, y], y, Delay { rise: 0, fall: 0 });
        b.mark_output(y);
        let n = b.finish().unwrap();
        let report = analyze(&n);
        assert!(report.has_errors());
        assert_eq!(report.diagnostics[0].code, Code::Ls0001CombinationalCycle);
    }

    #[test]
    fn diagnostics_are_sorted_by_code() {
        // Dead logic (LS0003) + a drive fight (LS0002) on the same
        // netlist must come out in code order.
        let mut b = NetlistBuilder::new("multi");
        let a = b.input("a");
        let c = b.input("c");
        let y = b.net("y");
        let w = b.net("w");
        b.gate(GateKind::Not, &[a], y, Delay::uniform(1));
        b.gate(GateKind::Buf, &[c], y, Delay::uniform(1));
        b.gate(GateKind::Buf, &[y], w, Delay::uniform(1));
        b.mark_output(y);
        let n = b.finish().unwrap();
        let report = analyze(&n);
        let codes: Vec<Code> = report.diagnostics.iter().map(|d| d.code).collect();
        let mut sorted = codes.clone();
        sorted.sort();
        assert_eq!(codes, sorted);
        assert!(codes.contains(&Code::Ls0002DriveFight));
        assert!(codes.contains(&Code::Ls0003DeadLogic));
    }

    #[test]
    fn a_deep_chain_under_the_threshold_warns_nothing() {
        let mut b = NetlistBuilder::new("deep");
        let mut prev = b.input("a");
        for i in 0..8 {
            let next = b.net(format!("y{i}"));
            b.gate(GateKind::Not, &[prev], next, Delay::uniform(1));
            prev = next;
        }
        b.mark_output(prev);
        let n = b.finish().unwrap();
        let lax = analyze(&n);
        // The inverter chain is an LS0008 info finding, not a warning;
        // the uniform-delay chain is also LS0013 filter-free.
        assert_eq!(lax.count(Severity::Warning), 0);
        assert!(!lax.has_errors());
        let codes: Vec<Code> = lax.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(
            codes,
            vec![Code::Ls0008CollapsibleChain, Code::Ls0013FilterFree]
        );
        assert_eq!(lax.max_logic_depth, 8);
    }
}
