//! Static netlist optimizer: ternary abstract interpretation plus
//! trace-preserving rewrites.
//!
//! [`optimize`] runs a fixpoint loop of four sound rewrite passes over
//! a validated [`Netlist`]:
//!
//! | rule   | pass |
//! |--------|------|
//! | LS0006 | constant propagation on the {0, 1, X} lattice: gates whose output is proven stimulus-independent fold to supply rails, constant gate inputs are dropped, always-off switches and never-enabled tristates are removed |
//! | LS0007 | structural hashing: components with the same kind, delay, and (canonicalized) input nets merge into the earliest equivalent |
//! | LS0008 | buffer/inverter chains through private intermediate nets are canonicalized by moving the inversion parity to the chain head, exposing parallel chains to LS0007 |
//! | LS0009 | logic outside the reverse-reachability cone of the declared outputs is pruned |
//!
//! The optimized netlist **keeps every net id, net name, input, and
//! output of the original**: only the component list is rewritten.
//! Stimulus bindings, observation, and output sampling therefore work
//! unchanged against the optimized netlist, and dead nets simply lose
//! all drivers and readers. The component renumbering is exposed as
//! [`Optimized::comp_map`] so partition assignments computed on the
//! original can be carried over.
//!
//! # Soundness
//!
//! Every rewrite preserves the level trajectory of all surviving
//! observed nets, tick for tick, from power-up relaxation onward — the
//! argument for each rule (including the switch-group X-conservatism
//! rule that keeps the abstract lattice honest about charge sharing)
//! is laid out in DESIGN.md §14, and `tests/opt_equivalence.rs` checks
//! it differentially on every benchmark circuit.

mod absint;
mod rewrite;

use crate::analyze::diag::{Code, Diagnostic, JsonDiagnostic};
use crate::columns::Columns;
use crate::component::{CompId, Component, NetId};
use crate::netlist::Netlist;
use serde::Serialize;
use std::collections::BTreeSet;

/// Upper bound on outer rewrite passes; each productive pass removes or
/// rewrites at least one component, so this is never reached in
/// practice.
const MAX_PASSES: u32 = 64;

/// The result of [`optimize`]: the rewritten netlist, the findings and
/// counters, and the component renumbering.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The optimized netlist. Net ids, net names, inputs, and outputs
    /// are identical to the original; only components changed.
    pub netlist: Netlist,
    /// What the optimizer found and did.
    pub report: OptReport,
    /// For each original component id: its id in the optimized
    /// netlist, or `None` if the component was removed.
    pub comp_map: Vec<Option<CompId>>,
}

impl Optimized {
    /// Carries a per-component assignment computed on the original
    /// netlist (e.g. partition ids) over to the optimized one: every
    /// surviving component keeps the value of the original it came
    /// from; a slot no original maps to holds `u32::MAX`, the
    /// "unassigned" marker.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` does not cover every original component.
    #[must_use]
    pub fn remap_assignment(&self, assignment: &[u32]) -> Vec<u32> {
        assert_eq!(
            assignment.len(),
            self.comp_map.len(),
            "assignment must cover every original component"
        );
        let mut remapped = vec![u32::MAX; self.netlist.num_components()];
        for (old, mapped) in self.comp_map.iter().enumerate() {
            if let Some(new) = mapped {
                remapped[new.index()] = assignment[old];
            }
        }
        remapped
    }
}

/// Findings and counters from one [`optimize`] run.
///
/// `findings` carries at most one aggregated [`Diagnostic`] per rule
/// (LS0006–LS0009), each referencing **original** component and net
/// ids; a rule appears only when it performed at least one rewrite.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct OptReport {
    /// Aggregated per-rule findings, in code order.
    pub findings: Vec<Diagnostic>,
    /// Nets proven constant that enabled an LS0006 rewrite.
    pub constant_nets: usize,
    /// Gates folded to supply rails (LS0006).
    pub folded_gates: usize,
    /// Gates specialized in place by dropping constant inputs (LS0006).
    pub specialized_gates: usize,
    /// Always-off switches and never-enabled tristates removed (LS0006).
    pub removed_switches: usize,
    /// Duplicate components merged into earlier equivalents (LS0007).
    pub merged_duplicates: usize,
    /// Buffer/inverter chains canonicalized to head parity (LS0008).
    pub canonicalized_chains: usize,
    /// Components pruned outside the observability cone (LS0009).
    pub pruned_components: usize,
    /// Component count before optimization.
    pub components_before: usize,
    /// Component count after optimization.
    pub components_after: usize,
    /// Gate count before optimization.
    pub gates_before: usize,
    /// Gate count after optimization.
    pub gates_after: usize,
    /// Switch count before optimization.
    pub switches_before: usize,
    /// Switch count after optimization.
    pub switches_after: usize,
    /// Largest abstract-interpretation round count over all passes.
    pub absint_rounds: u32,
    /// Outer rewrite passes until fixpoint (final no-change pass
    /// included).
    pub passes: u32,
}

impl OptReport {
    /// Total number of individual rewrites performed.
    #[must_use]
    pub fn total_rewrites(&self) -> usize {
        self.folded_gates
            + self.specialized_gates
            + self.removed_switches
            + self.merged_duplicates
            + self.canonicalized_chains
            + self.pruned_components
    }

    /// Components removed by the run.
    #[must_use]
    pub fn reduction(&self) -> usize {
        self.components_before - self.components_after
    }

    /// A serializable view with names resolved against the **original**
    /// netlist, for `lsim opt --report`.
    #[must_use]
    pub fn to_json(&self, original: &Netlist) -> JsonOptReport {
        JsonOptReport {
            schema_version: OPT_SCHEMA_VERSION,
            circuit: original.name().to_string(),
            components_before: self.components_before,
            components_after: self.components_after,
            gates_before: self.gates_before,
            gates_after: self.gates_after,
            switches_before: self.switches_before,
            switches_after: self.switches_after,
            constant_nets: self.constant_nets,
            folded_gates: self.folded_gates,
            specialized_gates: self.specialized_gates,
            removed_switches: self.removed_switches,
            merged_duplicates: self.merged_duplicates,
            canonicalized_chains: self.canonicalized_chains,
            pruned_components: self.pruned_components,
            absint_rounds: self.absint_rounds,
            passes: self.passes,
            findings: self.findings.iter().map(|d| d.to_json(original)).collect(),
        }
    }

    /// Renders a human-readable summary with names resolved against the
    /// **original** netlist.
    #[must_use]
    pub fn render(&self, original: &Netlist) -> String {
        let mut out = String::new();
        for d in &self.findings {
            out.push_str(&d.render(original));
            out.push('\n');
        }
        out.push_str(&format!(
            "{}: {} -> {} components (gates {} -> {}, switches {} -> {}), \
             {} rewrite(s) in {} pass(es), {} abstract rounds\n",
            original.name(),
            self.components_before,
            self.components_after,
            self.gates_before,
            self.gates_after,
            self.switches_before,
            self.switches_after,
            self.total_rewrites(),
            self.passes,
            self.absint_rounds,
        ));
        out
    }
}

/// Version of the `lsim opt --report` JSON layout.
pub const OPT_SCHEMA_VERSION: u32 = 1;

/// JSON-friendly [`OptReport`] with diagnostics resolved to names.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JsonOptReport {
    /// Report layout version ([`OPT_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Circuit name.
    pub circuit: String,
    /// Component count before optimization.
    pub components_before: usize,
    /// Component count after optimization.
    pub components_after: usize,
    /// Gate count before optimization.
    pub gates_before: usize,
    /// Gate count after optimization.
    pub gates_after: usize,
    /// Switch count before optimization.
    pub switches_before: usize,
    /// Switch count after optimization.
    pub switches_after: usize,
    /// Nets proven constant that enabled a rewrite.
    pub constant_nets: usize,
    /// Gates folded to supply rails.
    pub folded_gates: usize,
    /// Gates specialized in place.
    pub specialized_gates: usize,
    /// Always-off switches and never-enabled tristates removed.
    pub removed_switches: usize,
    /// Duplicate components merged.
    pub merged_duplicates: usize,
    /// Buffer/inverter chains canonicalized.
    pub canonicalized_chains: usize,
    /// Components pruned outside the observability cone.
    pub pruned_components: usize,
    /// Largest abstract-interpretation round count over all passes.
    pub absint_rounds: u32,
    /// Outer rewrite passes until fixpoint.
    pub passes: u32,
    /// The findings, names resolved.
    pub findings: Vec<JsonDiagnostic>,
}

/// Mutable working copy of a netlist during optimization.
///
/// Components keep their **original** indices throughout (removal
/// leaves a `None` slot); the driver/reader indices are maintained
/// incrementally so rewrite guards always see current connectivity.
pub(super) struct Work {
    /// Components by original id; `None` once removed.
    pub comps: Vec<Option<Component>>,
    /// Per net: live component ids that can drive it.
    pub drivers: Vec<Vec<u32>>,
    /// Per net: live component ids that read it (one entry per
    /// occurrence).
    pub readers: Vec<Vec<u32>>,
    /// Per net: number of live switch channel terminals attached.
    pub switches_on: Vec<u32>,
    /// Per net: whether it is a declared primary output.
    pub is_output: Vec<bool>,
    /// The declared outputs.
    pub outputs: Vec<NetId>,
}

impl Work {
    fn new(netlist: &Netlist) -> Work {
        let nets = netlist.num_nets();
        let mut w = Work {
            comps: netlist.iter().map(|(_, c)| Some(c.to_owned())).collect(),
            drivers: vec![Vec::new(); nets],
            readers: vec![Vec::new(); nets],
            switches_on: vec![0; nets],
            is_output: vec![false; nets],
            outputs: netlist.outputs().to_vec(),
        };
        for &o in &w.outputs.clone() {
            w.is_output[o.index()] = true;
        }
        for i in 0..w.comps.len() {
            w.attach(i);
        }
        w
    }

    pub(super) fn num_nets(&self) -> usize {
        self.drivers.len()
    }

    /// Whether `net` is a switch channel terminal (member of a
    /// nontrivial resolution group).
    pub(super) fn terminal(&self, net: usize) -> bool {
        self.switches_on[net] > 0
    }

    fn attach(&mut self, i: usize) {
        let Some(c) = &self.comps[i] else { return };
        let (driven, read) = (c.driven_nets(), c.read_nets());
        if let Component::Switch { a, b, .. } = c {
            self.switches_on[a.index()] += 1;
            self.switches_on[b.index()] += 1;
        }
        for n in driven {
            self.drivers[n.index()].push(i as u32);
        }
        for n in read {
            self.readers[n.index()].push(i as u32);
        }
    }

    fn detach(&mut self, i: usize) {
        let Some(c) = &self.comps[i] else { return };
        let (driven, read) = (c.driven_nets(), c.read_nets());
        if let Component::Switch { a, b, .. } = c {
            self.switches_on[a.index()] -= 1;
            self.switches_on[b.index()] -= 1;
        }
        for n in driven {
            if let Some(p) = self.drivers[n.index()].iter().position(|&d| d == i as u32) {
                self.drivers[n.index()].remove(p);
            }
        }
        for n in read {
            if let Some(p) = self.readers[n.index()].iter().position(|&r| r == i as u32) {
                self.readers[n.index()].remove(p);
            }
        }
    }

    /// Removes component `i` and updates the indices.
    pub(super) fn remove(&mut self, i: usize) {
        self.detach(i);
        self.comps[i] = None;
    }

    /// Replaces component `i` in place and updates the indices.
    pub(super) fn replace(&mut self, i: usize, c: Component) {
        self.detach(i);
        self.comps[i] = Some(c);
        self.attach(i);
    }

    /// Whether `comp` is the only driver of `net`.
    pub(super) fn sole_driver(&self, net: usize, comp: usize) -> bool {
        self.drivers[net].len() == 1 && self.drivers[net][0] == comp as u32
    }
}

/// Per-rule accumulation of what was rewritten, in original ids.
#[derive(Default)]
pub(super) struct Touched {
    pub comps: BTreeSet<u32>,
    pub nets: BTreeSet<u32>,
}

impl Touched {
    pub(super) fn record(&mut self, comps: &[usize], nets: &[NetId]) {
        self.comps.extend(comps.iter().map(|&c| c as u32));
        self.nets.extend(nets.iter().map(|n| n.0));
    }
}

/// Everything the rewrite passes accumulate for the final report.
#[derive(Default)]
pub(super) struct Findings {
    pub constant: Touched,
    pub folded: usize,
    pub specialized: usize,
    pub removed_switches: usize,
    pub duplicate: Touched,
    pub merged: usize,
    pub chain: Touched,
    pub chains: usize,
    pub cone: Touched,
    pub pruned: usize,
}

/// Runs the optimizer to fixpoint and returns the rewritten netlist,
/// the report, and the component renumbering.
///
/// The input must be a validated [`Netlist`]; the output upholds the
/// same builder invariants (every read net keeps a driver, arities
/// unchanged or legally reduced).
#[must_use]
pub fn optimize(netlist: &Netlist) -> Optimized {
    let mut work = Work::new(netlist);
    let mut f = Findings::default();
    let mut absint_rounds = 0;
    let mut passes = 0;
    loop {
        passes += 1;
        let (values, rounds) = absint::interpret(&work);
        absint_rounds = rounds.max(absint_rounds);
        let mut changed = rewrite::constants(&mut work, &values, &mut f);
        changed |= rewrite::chains(&mut work, &mut f);
        changed |= rewrite::dedup(&mut work, &mut f);
        changed |= rewrite::prune_cone(&mut work, &mut f);
        if !changed || passes >= MAX_PASSES {
            break;
        }
    }
    emit(netlist, &work, &f, absint_rounds, passes)
}

/// Builds the final netlist (identical nets, compacted components), the
/// component map, and the aggregated findings.
fn emit(
    original: &Netlist,
    work: &Work,
    f: &Findings,
    absint_rounds: u32,
    passes: u32,
) -> Optimized {
    let mut components = Columns::default();
    let mut comp_map = vec![None; work.comps.len()];
    for (i, slot) in work.comps.iter().enumerate() {
        if let Some(c) = slot {
            comp_map[i] = Some(CompId(components.len() as u32));
            components.push(c.as_ref());
        }
    }
    let netlist = Netlist::from_parts(
        original.name.clone(),
        components,
        original.net_names.clone(),
        original.inputs.clone(),
        original.outputs.clone(),
    );
    let mut findings = Vec::new();
    let diag = |code: Code, t: &Touched, message: String| {
        Diagnostic::new(code, message)
            .with_components(t.comps.iter().map(|&c| CompId(c)).collect())
            .with_nets(t.nets.iter().map(|&n| NetId(n)).collect())
    };
    let const_rewrites = f.folded + f.specialized + f.removed_switches;
    if const_rewrites > 0 {
        findings.push(diag(
            Code::Ls0006ConstantNet,
            &f.constant,
            format!(
                "{} constant net(s): {} gate(s) folded to rails, {} specialized, \
                 {} always-off switch(es)/tristate(s) removed",
                f.constant.nets.len(),
                f.folded,
                f.specialized,
                f.removed_switches
            ),
        ));
    }
    if f.merged > 0 {
        findings.push(diag(
            Code::Ls0007DuplicateGate,
            &f.duplicate,
            format!(
                "{} duplicate component(s) merged into earlier structural equivalents",
                f.merged
            ),
        ));
    }
    if f.chains > 0 {
        findings.push(diag(
            Code::Ls0008CollapsibleChain,
            &f.chain,
            format!(
                "{} buffer/inverter chain(s) canonicalized to head-parity form",
                f.chains
            ),
        ));
    }
    if f.pruned > 0 {
        findings.push(diag(
            Code::Ls0009UnobservableCone,
            &f.cone,
            format!(
                "{} component(s) outside the observability cone of the declared outputs pruned",
                f.pruned
            ),
        ));
    }
    let report = OptReport {
        findings,
        constant_nets: f.constant.nets.len(),
        folded_gates: f.folded,
        specialized_gates: f.specialized,
        removed_switches: f.removed_switches,
        merged_duplicates: f.merged,
        canonicalized_chains: f.chains,
        pruned_components: f.pruned,
        components_before: original.num_components(),
        components_after: netlist.num_components(),
        gates_before: original.num_gates(),
        gates_after: netlist.num_gates(),
        switches_before: original.num_switches(),
        switches_after: netlist.num_switches(),
        absint_rounds,
        passes,
    };
    Optimized {
        netlist,
        report,
        comp_map,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{ComponentRef, Delay, GateKind, SwitchKind};
    use crate::value::Level;
    use crate::NetlistBuilder;

    fn d1() -> Delay {
        Delay::uniform(1)
    }

    #[test]
    fn constant_gate_folds_to_supply() {
        let mut b = NetlistBuilder::new("fold");
        let a = b.input("a");
        let g = b.net("g");
        b.supply(g, Level::Zero);
        let y = b.net("y");
        b.gate(GateKind::And, &[a, g], y, d1());
        b.mark_output(y);
        let n = b.finish().unwrap();
        let o = optimize(&n);
        assert_eq!(o.report.folded_gates, 1);
        assert_eq!(o.netlist.num_gates(), 0);
        assert!(o.netlist.iter().any(
            |(_, c)| matches!(c, ComponentRef::Supply { net, level: Level::Zero } if net == y)
        ));
        assert_eq!(o.report.findings[0].code, Code::Ls0006ConstantNet);
    }

    #[test]
    fn correlated_xor_is_not_folded() {
        // XOR(a, a) is concretely 0, but the per-net ternary lattice
        // cannot see the correlation: X xor X = X. Stays untouched.
        let mut b = NetlistBuilder::new("corr");
        let a = b.input("a");
        let y = b.net("y");
        b.gate(GateKind::Xor, &[a, a], y, d1());
        b.mark_output(y);
        let n = b.finish().unwrap();
        let o = optimize(&n);
        assert_eq!(o.report.total_rewrites(), 0);
        assert_eq!(o.netlist, n);
    }

    #[test]
    fn constant_identity_inputs_are_dropped() {
        let mut b = NetlistBuilder::new("spec");
        let a = b.input("a");
        let c = b.input("c");
        let vdd = b.net("vdd");
        b.supply(vdd, Level::One);
        let y = b.net("y");
        b.gate(GateKind::And, &[a, vdd, c], y, d1());
        let z = b.net("z");
        b.gate(GateKind::Nand, &[a, vdd], z, d1());
        let x = b.net("x");
        b.gate(GateKind::Xor, &[a, vdd], x, d1());
        for net in [y, z, x] {
            b.mark_output(net);
        }
        let n = b.finish().unwrap();
        let o = optimize(&n);
        assert_eq!(o.report.specialized_gates, 3);
        let kinds: Vec<GateKind> = o
            .netlist
            .iter()
            .filter_map(|(_, comp)| match comp {
                ComponentRef::Gate { kind, inputs, .. } => {
                    assert!(inputs.iter().all(|&i| i != vdd));
                    Some(kind)
                }
                _ => None,
            })
            .collect();
        // AND(a, 1, c) -> AND(a, c); NAND(a, 1) -> NOT(a);
        // XOR(a, 1) -> NOT(a).
        assert_eq!(kinds, vec![GateKind::And, GateKind::Not, GateKind::Not]);
    }

    #[test]
    fn duplicate_gates_merge_and_rewire_readers() {
        let mut b = NetlistBuilder::new("dup");
        let a = b.input("a");
        let c = b.input("c");
        let n1 = b.net("n1");
        let n2 = b.net("n2");
        b.gate(GateKind::And, &[a, c], n1, d1());
        b.gate(GateKind::And, &[c, a], n2, d1()); // commutative duplicate
        let y = b.net("y");
        b.gate(GateKind::Or, &[n1, n2], y, d1());
        b.mark_output(y);
        let n = b.finish().unwrap();
        let o = optimize(&n);
        assert_eq!(o.report.merged_duplicates, 1);
        // OR(n1, n1) survives; the duplicate AND is gone.
        assert_eq!(o.netlist.num_gates(), 2);
        let or_inputs = o
            .netlist
            .iter()
            .find_map(|(_, comp)| match comp {
                ComponentRef::Gate {
                    kind: GateKind::Or,
                    inputs,
                    ..
                } => Some(inputs.to_vec()),
                _ => None,
            })
            .unwrap();
        assert_eq!(or_inputs, vec![n1, n1]);
    }

    #[test]
    fn inverter_chain_canonicalizes_to_head_parity() {
        let mut b = NetlistBuilder::new("chain");
        let a = b.input("a");
        let m1 = b.net("m1");
        let m2 = b.net("m2");
        let y = b.net("y");
        b.gate(GateKind::Not, &[a], m1, d1());
        b.gate(GateKind::Buf, &[m1], m2, d1());
        b.gate(GateKind::Not, &[m2], y, d1());
        b.mark_output(y);
        let n = b.finish().unwrap();
        let o = optimize(&n);
        assert_eq!(o.report.canonicalized_chains, 1);
        let kinds: Vec<GateKind> = o
            .netlist
            .iter()
            .filter_map(|(_, comp)| match comp {
                ComponentRef::Gate { kind, .. } => Some(kind),
                _ => None,
            })
            .collect();
        // Even parity: all buffers.
        assert_eq!(kinds, vec![GateKind::Buf, GateKind::Buf, GateKind::Buf]);
    }

    #[test]
    fn unobservable_cone_is_pruned_but_inputs_stay() {
        let mut b = NetlistBuilder::new("cone");
        let a = b.input("a");
        let unused = b.input("unused");
        let y = b.net("y");
        let w = b.net("w");
        b.gate(GateKind::Not, &[a], y, d1());
        b.gate(GateKind::Not, &[unused], w, d1());
        b.mark_output(y);
        let n = b.finish().unwrap();
        let o = optimize(&n);
        assert_eq!(o.report.pruned_components, 1);
        assert_eq!(o.netlist.num_gates(), 1);
        // Both Input components survive for stimulus resolution.
        let inputs = o
            .netlist
            .iter()
            .filter(|(_, c)| matches!(c, ComponentRef::Input { .. }))
            .count();
        assert_eq!(inputs, 2);
        // Net ids are stable: the observed net keeps its id and name.
        assert_eq!(o.netlist.net_name(y), "y");
        assert_eq!(o.netlist.outputs(), n.outputs());
    }

    #[test]
    fn switch_terminal_nets_are_not_folded() {
        // A gate driving a switch terminal must not become a Supply:
        // supply strength would win group resolution where the gate's
        // strong drive could be overridden.
        let mut b = NetlistBuilder::new("term");
        let a = b.input("a");
        let ctl = b.input("ctl");
        let g = b.net("g");
        b.supply(g, Level::Zero);
        let t = b.net("t");
        b.gate(GateKind::And, &[a, g], t, d1()); // constant 0 output
        let other = b.net("other");
        b.pull(other, Level::One);
        b.switch(SwitchKind::Nmos, ctl, t, other);
        b.mark_output(other);
        let n = b.finish().unwrap();
        let o = optimize(&n);
        assert_eq!(o.report.folded_gates, 0);
        assert_eq!(o.netlist.num_gates(), 1);
    }

    #[test]
    fn always_off_switch_is_removed_when_safe() {
        let mut b = NetlistBuilder::new("off");
        let g = b.net("g");
        b.supply(g, Level::Zero); // NMOS control 0: never conducts
        let a = b.input("a");
        let t = b.net("t");
        b.gate(GateKind::Buf, &[a], t, d1()); // never-floating driver
        let other = b.net("other");
        b.pull(other, Level::One); // never-floating driver
        b.switch(SwitchKind::Nmos, g, t, other);
        b.mark_output(other);
        let n = b.finish().unwrap();
        let o = optimize(&n);
        assert_eq!(o.report.removed_switches, 1);
        assert_eq!(o.netlist.num_switches(), 0);
    }

    #[test]
    fn optimizer_is_idempotent() {
        let mut b = NetlistBuilder::new("idem");
        let a = b.input("a");
        let vdd = b.net("vdd");
        b.supply(vdd, Level::One);
        let n1 = b.net("n1");
        let n2 = b.net("n2");
        b.gate(GateKind::Not, &[a], n1, d1());
        b.gate(GateKind::Not, &[a], n2, d1());
        let y = b.net("y");
        b.gate(GateKind::And, &[n1, n2, vdd], y, d1());
        b.mark_output(y);
        let n = b.finish().unwrap();
        let once = optimize(&n);
        assert!(once.report.total_rewrites() > 0);
        let twice = optimize(&once.netlist);
        assert_eq!(twice.report.total_rewrites(), 0);
        assert!(twice.report.findings.is_empty());
        assert_eq!(twice.netlist, once.netlist);
    }

    #[test]
    fn comp_map_tracks_survivors() {
        let mut b = NetlistBuilder::new("map");
        let a = b.input("a");
        let n1 = b.net("n1");
        let n2 = b.net("n2");
        b.gate(GateKind::Not, &[a], n1, d1());
        b.gate(GateKind::Not, &[a], n2, d1()); // merged away
        b.mark_output(n1);
        b.mark_output(n2);
        let n = b.finish().unwrap();
        let o = optimize(&n);
        // Both nets observed: the pair must NOT merge (no victim).
        assert_eq!(o.report.merged_duplicates, 0);
        assert_eq!(o.comp_map.iter().filter(|m| m.is_some()).count(), 3);
        for (old, mapped) in o.comp_map.iter().enumerate() {
            if let Some(new) = mapped {
                assert_eq!(
                    o.netlist.component(*new),
                    n.component(crate::component::CompId(old as u32))
                );
            }
        }
    }

    #[test]
    fn remap_assignment_follows_the_component_map() {
        let mut b = NetlistBuilder::new("remap");
        let a = b.input("a");
        let n1 = b.net("n1");
        let n2 = b.net("n2");
        let y = b.net("y");
        b.gate(GateKind::Not, &[a], n1, d1());
        b.gate(GateKind::Not, &[a], n2, d1()); // merged into the first
        b.gate(GateKind::And, &[n1, n2], y, d1());
        b.mark_output(y);
        let n = b.finish().unwrap();
        let mut o = optimize(&n);
        assert_eq!(o.report.merged_duplicates, 1);
        // Components: input a, NOT, NOT (removed), AND.
        let assignment = [u32::MAX, 0, 1, 2];
        assert_eq!(o.remap_assignment(&assignment), [u32::MAX, 0, 2]);
        // A slot nothing maps to is unassigned.
        o.comp_map[1] = None;
        assert_eq!(o.remap_assignment(&assignment), [u32::MAX, u32::MAX, 2]);
    }
}
