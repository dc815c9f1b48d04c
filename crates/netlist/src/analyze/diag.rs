//! Structured diagnostics: stable codes, severities, and renderers.

use crate::component::{CompId, ComponentRef, NetId};
use crate::netlist::Netlist;
use serde::Serialize;
use std::fmt;

/// Stable diagnostic codes, one per analysis (documented in DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum Code {
    /// Combinational cycle closed entirely through zero-delay
    /// components: the event loop would never advance time.
    Ls0001CombinationalCycle,
    /// Potential drive fight: statically conflicting always-on drivers.
    Ls0002DriveFight,
    /// Dead logic: component output reaches no declared primary output.
    Ls0003DeadLogic,
    /// Floating or charge-storage net beyond the builder's hard errors.
    Ls0004FloatingNet,
    /// Logic depth exceeds the configured threshold.
    Ls0005ExcessiveDepth,
    /// Net proven constant by ternary abstract interpretation; the
    /// optimizer folds its driver or specializes its readers.
    Ls0006ConstantNet,
    /// Structurally duplicate component (same kind, delay, and input
    /// nets as an earlier one); the optimizer merges the pair.
    Ls0007DuplicateGate,
    /// Buffer/inverter chain whose inversion parity can be moved to the
    /// chain head, canonicalizing the chain for duplicate merging.
    Ls0008CollapsibleChain,
    /// Logic outside the observability cone of the declared outputs;
    /// the optimizer prunes it.
    Ls0009UnobservableCone,
    /// Live component whose statically estimated activity is zero: it
    /// provably never evaluates once the circuit settles, so it
    /// contributes load-balance weight but no simulation work.
    Ls0010QuiescentLogic,
    /// Net whose latest-arrival bound diverged: it sits on feedback
    /// whose settling time static timing cannot bound (potential
    /// oscillation under the delay model).
    Ls0011UnboundedArrival,
    /// Net that can never leave `X` from the all-`X` power-up
    /// configuration under any seeded stimulus: un-initializable
    /// state, usually a missing reset.
    Ls0012XStuck,
    /// Gate provably inertial-filter-free: no input can carry a pulse
    /// shorter than the gate's inertial window, so delay-aware chain
    /// contraction cannot change its observable waveform.
    Ls0013FilterFree,
}

impl Code {
    /// The printed code, e.g. `"LS0001"`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Code::Ls0001CombinationalCycle => "LS0001",
            Code::Ls0002DriveFight => "LS0002",
            Code::Ls0003DeadLogic => "LS0003",
            Code::Ls0004FloatingNet => "LS0004",
            Code::Ls0005ExcessiveDepth => "LS0005",
            Code::Ls0006ConstantNet => "LS0006",
            Code::Ls0007DuplicateGate => "LS0007",
            Code::Ls0008CollapsibleChain => "LS0008",
            Code::Ls0009UnobservableCone => "LS0009",
            Code::Ls0010QuiescentLogic => "LS0010",
            Code::Ls0011UnboundedArrival => "LS0011",
            Code::Ls0012XStuck => "LS0012",
            Code::Ls0013FilterFree => "LS0013",
        }
    }

    /// The fixed severity of this code.
    #[must_use]
    pub fn severity(self) -> Severity {
        match self {
            Code::Ls0001CombinationalCycle => Severity::Error,
            Code::Ls0002DriveFight
            | Code::Ls0003DeadLogic
            | Code::Ls0004FloatingNet
            | Code::Ls0005ExcessiveDepth => Severity::Warning,
            // Optimizer findings describe provably sound rewrites, not
            // modelling mistakes: purely informational. The dataflow
            // facts (LS0010–LS0013) are conservative static estimates
            // feeding partitioning and cost models; they may be
            // imprecise on purpose, so they never gate exit status.
            Code::Ls0006ConstantNet
            | Code::Ls0007DuplicateGate
            | Code::Ls0008CollapsibleChain
            | Code::Ls0009UnobservableCone
            | Code::Ls0010QuiescentLogic
            | Code::Ls0011UnboundedArrival
            | Code::Ls0012XStuck
            | Code::Ls0013FilterFree => Severity::Info,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum Severity {
    /// Informational note; never affects exit status.
    Info,
    /// Suspicious structure that simulates but is probably unintended.
    Warning,
    /// The netlist cannot be simulated faithfully; the simulator
    /// refuses such netlists up front.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding, locating the components and nets involved.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Severity (always [`Code::severity`] of `code`).
    pub severity: Severity,
    /// Human-readable, netlist-independent description.
    pub message: String,
    /// Components involved, if any.
    pub components: Vec<CompId>,
    /// Nets involved, if any.
    pub nets: Vec<NetId>,
}

impl Diagnostic {
    /// A diagnostic for `code` with its canonical severity.
    #[must_use]
    pub fn new(code: Code, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.severity(),
            message: message.into(),
            components: Vec::new(),
            nets: Vec::new(),
        }
    }

    /// Attaches components (builder style).
    #[must_use]
    pub fn with_components(mut self, components: Vec<CompId>) -> Diagnostic {
        self.components = components;
        self
    }

    /// Attaches nets (builder style).
    #[must_use]
    pub fn with_nets(mut self, nets: Vec<NetId>) -> Diagnostic {
        self.nets = nets;
        self
    }

    /// A total order for deterministic report output: rule code first,
    /// then the lowest involved component id, then the lowest net id.
    #[must_use]
    pub fn sort_key(&self) -> (Code, u32, u32) {
        let comp = self
            .components
            .iter()
            .map(|c| c.0)
            .min()
            .unwrap_or(u32::MAX);
        let net = self.nets.iter().map(|n| n.0).min().unwrap_or(u32::MAX);
        (self.code, comp, net)
    }

    /// The JSON-friendly form with ids resolved against `netlist`.
    #[must_use]
    pub fn to_json(&self, netlist: &Netlist) -> JsonDiagnostic {
        JsonDiagnostic {
            code: self.code.as_str().to_string(),
            severity: self.severity.to_string(),
            message: self.message.clone(),
            components: self
                .components
                .iter()
                .map(|&c| describe_component(netlist, c))
                .collect(),
            nets: self
                .nets
                .iter()
                .map(|&n| netlist.net_name(n).to_string())
                .collect(),
        }
    }

    /// Renders the diagnostic with names resolved against `netlist`,
    /// in the `severity[CODE]: message` style.
    #[must_use]
    pub fn render(&self, netlist: &Netlist) -> String {
        let mut out = format!("{}[{}]: {}", self.severity, self.code, self.message);
        if !self.components.is_empty() {
            out.push_str("\n  components: ");
            push_limited(&mut out, self.components.len(), |i| {
                describe_component(netlist, self.components[i])
            });
        }
        if !self.nets.is_empty() {
            out.push_str("\n  nets: ");
            push_limited(&mut out, self.nets.len(), |i| {
                netlist.net_name(self.nets[i]).to_string()
            });
        }
        out
    }
}

/// At most this many locations are spelled out per rendered diagnostic.
const RENDER_LIMIT: usize = 8;

fn push_limited(out: &mut String, len: usize, item: impl Fn(usize) -> String) {
    for i in 0..len.min(RENDER_LIMIT) {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&item(i));
    }
    if len > RENDER_LIMIT {
        out.push_str(&format!(", ... ({len} total)"));
    }
}

/// A short human identification of a component: kind plus the nets that
/// pin it down (components have no names of their own).
#[must_use]
pub fn describe_component(netlist: &Netlist, id: CompId) -> String {
    match netlist.component(id) {
        ComponentRef::Gate { kind, output, .. } => {
            format!("{id} {kind}->{}", netlist.net_name(output))
        }
        ComponentRef::Switch { kind, control, .. } => {
            format!("{id} {kind}[{}]", netlist.net_name(control))
        }
        ComponentRef::Input { net } => format!("{id} INPUT {}", netlist.net_name(net)),
        ComponentRef::Pull { net, .. } => format!("{id} PULL {}", netlist.net_name(net)),
        ComponentRef::Supply { net, .. } => format!("{id} SUPPLY {}", netlist.net_name(net)),
    }
}

/// Version of the `--json` lint report layout. Bumped whenever a field
/// is added, removed, or changes meaning, so downstream consumers can
/// dispatch on it instead of sniffing keys. Version 3 added the
/// dataflow-analysis findings (LS0010–LS0013).
pub const LINT_SCHEMA_VERSION: u32 = 3;

/// The result of running the static analyses over one netlist.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Report {
    /// All findings, ordered by code then discovery order.
    pub diagnostics: Vec<Diagnostic>,
    /// Maximum logic depth over all nets (levelization result).
    pub max_logic_depth: u32,
}

impl Report {
    /// Whether any finding is error-level.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Number of findings at exactly `severity`.
    #[must_use]
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Findings at or above `severity`.
    pub fn at_least(&self, severity: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(move |d| d.severity >= severity)
    }

    /// Whether the report is completely clean.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Renders every diagnostic plus a one-line summary, with names
    /// resolved against `netlist`.
    #[must_use]
    pub fn render(&self, netlist: &Netlist) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render(netlist));
            out.push('\n');
        }
        out.push_str(&format!(
            "{}: {} error(s), {} warning(s), {} info(s); max logic depth {}\n",
            netlist.name(),
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
            self.max_logic_depth,
        ));
        out
    }

    /// A serializable view with names resolved, for `--json` output.
    #[must_use]
    pub fn to_json(&self, netlist: &Netlist) -> JsonReport {
        JsonReport {
            schema_version: LINT_SCHEMA_VERSION,
            circuit: netlist.name().to_string(),
            errors: self.count(Severity::Error),
            warnings: self.count(Severity::Warning),
            infos: self.count(Severity::Info),
            max_logic_depth: self.max_logic_depth,
            diagnostics: self
                .diagnostics
                .iter()
                .map(|d| d.to_json(netlist))
                .collect(),
        }
    }
}

/// JSON-friendly report with all ids resolved to names.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JsonReport {
    /// Report layout version ([`LINT_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Circuit name.
    pub circuit: String,
    /// Error-level finding count.
    pub errors: usize,
    /// Warning-level finding count.
    pub warnings: usize,
    /// Info-level finding count.
    pub infos: usize,
    /// Maximum logic depth over all nets.
    pub max_logic_depth: u32,
    /// The findings.
    pub diagnostics: Vec<JsonDiagnostic>,
}

/// One finding in [`JsonReport`] form.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JsonDiagnostic {
    /// Stable printed code, e.g. `"LS0001"`.
    pub code: String,
    /// `"error"`, `"warning"`, or `"info"`.
    pub severity: String,
    /// Human-readable description.
    pub message: String,
    /// Involved components, described.
    pub components: Vec<String>,
    /// Involved net names.
    pub nets: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Delay, GateKind, NetlistBuilder};

    fn tiny() -> Netlist {
        let mut b = NetlistBuilder::new("tiny");
        let a = b.input("a");
        let y = b.net("y");
        b.gate(GateKind::Not, &[a], y, Delay::default());
        b.finish().unwrap()
    }

    #[test]
    fn severity_ordering_supports_thresholds() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }

    #[test]
    fn codes_have_fixed_severities() {
        assert_eq!(Code::Ls0001CombinationalCycle.severity(), Severity::Error);
        assert_eq!(Code::Ls0002DriveFight.severity(), Severity::Warning);
        assert_eq!(Code::Ls0001CombinationalCycle.as_str(), "LS0001");
    }

    #[test]
    fn rendering_resolves_names() {
        let n = tiny();
        let d = Diagnostic::new(Code::Ls0002DriveFight, "two drivers")
            .with_components(vec![CompId(1)])
            .with_nets(vec![NetId(1)]);
        let text = d.render(&n);
        assert!(text.contains("warning[LS0002]"), "{text}");
        assert!(text.contains("NOT->y"), "{text}");
        assert!(text.contains("nets: y"), "{text}");
    }

    #[test]
    fn report_counting_and_thresholds() {
        let mut r = Report::default();
        assert!(!r.has_errors() && r.is_empty());
        r.diagnostics
            .push(Diagnostic::new(Code::Ls0003DeadLogic, "dead"));
        r.diagnostics
            .push(Diagnostic::new(Code::Ls0001CombinationalCycle, "loop"));
        assert!(r.has_errors());
        assert_eq!(r.count(Severity::Warning), 1);
        assert_eq!(r.at_least(Severity::Warning).count(), 2);
        assert_eq!(r.at_least(Severity::Error).count(), 1);
    }
}
