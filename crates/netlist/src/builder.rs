//! Incremental construction and validation of [`Netlist`]s.

use crate::columns::Columns;
use crate::component::{CompId, Component, ComponentRef, Delay, GateKind, NetId, SwitchKind};
use crate::names::{NameIndex, NetNames};
use crate::netlist::Netlist;
use crate::value::Level;
use std::error::Error;
use std::fmt;

/// Errors detected when finalizing a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A gate was declared with an input count outside its kind's arity.
    BadArity {
        /// The offending component.
        comp: CompId,
        /// Gate kind.
        kind: GateKind,
        /// Number of inputs supplied.
        got: usize,
    },
    /// A net is read by some component but never driven by any gate,
    /// switch, input, pull, or supply.
    UndrivenNet {
        /// The floating net.
        net: NetId,
        /// Its name.
        name: String,
    },
    /// A net id referenced by a component was never declared.
    UnknownNet {
        /// The undeclared net.
        net: NetId,
    },
    /// The netlist has no components.
    Empty,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::BadArity { comp, kind, got } => {
                write!(f, "component {comp} ({kind}) has invalid input count {got}")
            }
            BuildError::UndrivenNet { net, name } => {
                write!(f, "net {net} ({name}) is read but never driven")
            }
            BuildError::UnknownNet { net } => write!(f, "net {net} was never declared"),
            BuildError::Empty => write!(f, "netlist has no components"),
        }
    }
}

impl Error for BuildError {}

/// Builder for [`Netlist`].
///
/// Nets are declared with [`NetlistBuilder::net`] / [`NetlistBuilder::input`],
/// components added with [`NetlistBuilder::gate`] /
/// [`NetlistBuilder::switch`] etc., and the finished circuit is validated
/// and indexed by [`NetlistBuilder::finish`].
///
/// # Example
///
/// ```
/// use logicsim_netlist::{NetlistBuilder, GateKind, Delay};
/// # fn main() -> Result<(), logicsim_netlist::BuildError> {
/// let mut b = NetlistBuilder::new("and2");
/// let (a, y) = (b.input("a"), b.net("y"));
/// let a2 = b.input("a2");
/// b.gate(GateKind::And, &[a, a2], y, Delay::uniform(2));
/// let netlist = b.finish()?;
/// assert_eq!(netlist.num_gates(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct NetlistBuilder {
    name: String,
    components: Columns,
    net_names: NetNames,
    name_index: NameIndex,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    anon_counter: u64,
}

impl NetlistBuilder {
    /// Starts a new netlist with the given circuit name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> NetlistBuilder {
        NetlistBuilder {
            name: name.into(),
            ..NetlistBuilder::default()
        }
    }

    /// Declares (or retrieves, if the name exists) a named net.
    pub fn net(&mut self, name: impl AsRef<str>) -> NetId {
        let index = self.name_index.intern(&mut self.net_names, name.as_ref());
        NetId(index as u32)
    }

    /// Sizes the name look-up for `names` more [`NetlistBuilder::net`]
    /// declarations, so that it does not grow step by step.
    pub(crate) fn expect_names(&mut self, names: usize) {
        self.name_index.reserve(names);
    }

    /// The hash [`NetlistBuilder::net_hashed`] takes for `name`.
    pub(crate) fn name_hash(&self, name: &str) -> u64 {
        self.name_index.hash(name)
    }

    /// Brings the name look-up's slots for these hashes (from
    /// [`NetlistBuilder::name_hash`]) into the cache, all at once, ahead
    /// of the [`NetlistBuilder::net_hashed`] calls that need them.
    pub(crate) fn touch_names(&self, hashes: impl IntoIterator<Item = u64>) {
        self.name_index.touch(hashes);
    }

    /// [`NetlistBuilder::net`] for a name whose hash is already taken.
    pub(crate) fn net_hashed(&mut self, (name, hash): (&str, u64)) -> NetId {
        let index = self
            .name_index
            .intern_hashed(&mut self.net_names, name, hash);
        NetId(index as u32)
    }

    /// Replaces the circuit name.
    pub(crate) fn set_name(&mut self, name: &str) {
        name.clone_into(&mut self.name);
    }

    /// The net [`NetlistBuilder::net`] declared under `name`, if any.
    pub(crate) fn declared(&self, name: &str) -> Option<NetId> {
        let index = self.name_index.get(&self.net_names, name)?;
        Some(NetId(index as u32))
    }

    /// Declares a net with a formatted name *without* interning it in the
    /// duplicate-name index: the bulk-generation fast path. The caller
    /// guarantees uniqueness (the tiled generator derives names from the
    /// tile index, so collisions are impossible); a duplicate would
    /// silently create a second net rather than unify.
    pub fn bulk_net(&mut self, name: fmt::Arguments<'_>) -> NetId {
        NetId(self.net_names.push_fmt(name) as u32)
    }

    /// Preallocates room for `nets` more nets (of about `name_bytes`
    /// total name length) and `components` more components, so bulk
    /// generation does not grow the arenas incrementally.
    pub fn reserve(&mut self, nets: usize, name_bytes: usize, components: usize) {
        self.net_names.reserve(nets, name_bytes);
        self.components.reserve(components);
    }

    /// Appends an already-constructed component; returns its id. Input
    /// components are recorded in the primary-input list exactly as
    /// [`NetlistBuilder::input`] would. Validation still happens in
    /// [`NetlistBuilder::finish`].
    pub fn add_component(&mut self, comp: Component) -> CompId {
        if let Component::Input { net } = comp {
            self.inputs.push(net);
        }
        self.push(comp.as_ref())
    }

    /// Appends one component to the columns; returns its id.
    fn push(&mut self, comp: ComponentRef<'_>) -> CompId {
        let id = CompId(self.components.len() as u32);
        self.components.push(comp);
        id
    }

    /// Declares a fresh anonymous net under a generated name,
    /// `_{hint}_{counter}`, that no net declared through
    /// [`NetlistBuilder::net`] (or an earlier `fresh`) holds: the counter
    /// moves past every name already taken. Names pushed with
    /// [`NetlistBuilder::bulk_net`] are not seen, so a fresh net may share
    /// the name of one of those.
    pub fn fresh(&mut self, hint: &str) -> NetId {
        loop {
            self.anon_counter += 1;
            let name = format!("_{hint}_{}", self.anon_counter);
            if self.declared(&name).is_none() {
                return self.net(name);
            }
        }
    }

    /// Declares a primary input: creates the net and an
    /// [`Component::Input`] driver for it.
    pub fn input(&mut self, name: impl AsRef<str>) -> NetId {
        let net = self.net(name);
        self.push(ComponentRef::Input { net });
        self.inputs.push(net);
        net
    }

    /// Marks a net as an observable output.
    pub fn mark_output(&mut self, net: NetId) {
        self.outputs.push(net);
    }

    /// Adds a gate; returns its component id. The pins are appended to
    /// the netlist's one pin array.
    pub fn gate(
        &mut self,
        kind: GateKind,
        inputs: &[NetId],
        output: NetId,
        delay: Delay,
    ) -> CompId {
        self.push(ComponentRef::Gate {
            kind,
            inputs,
            output,
            delay,
        })
    }

    /// Adds a bidirectional MOS switch; returns its component id.
    pub fn switch(&mut self, kind: SwitchKind, control: NetId, a: NetId, b: NetId) -> CompId {
        self.push(ComponentRef::Switch {
            kind,
            control,
            a,
            b,
        })
    }

    /// Adds a CMOS transmission gate: an NMOS controlled by `control` and
    /// a PMOS controlled by `control_n`, both bridging `a`-`b`. Returns
    /// the two switch ids.
    pub fn transmission_gate(
        &mut self,
        control: NetId,
        control_n: NetId,
        a: NetId,
        b: NetId,
    ) -> (CompId, CompId) {
        let n = self.switch(SwitchKind::Nmos, control, a, b);
        let p = self.switch(SwitchKind::Pmos, control_n, a, b);
        (n, p)
    }

    /// Adds a resistive pull toward `level` on `net` (nmos depletion load
    /// when `level` is `One`).
    pub fn pull(&mut self, net: NetId, level: Level) -> CompId {
        self.push(ComponentRef::Pull { net, level })
    }

    /// Adds a supply rail at `level` on `net`.
    pub fn supply(&mut self, net: NetId, level: Level) -> CompId {
        self.push(ComponentRef::Supply { net, level })
    }

    /// Number of nets declared so far.
    pub(crate) fn num_nets(&self) -> usize {
        self.net_names.len()
    }

    /// Number of components added so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Returns `true` when no components have been added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.components.len() == 0
    }

    /// Validates the circuit and builds the indexed [`Netlist`].
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] when a gate violates its kind's arity, a
    /// referenced net was never declared, a read net has no driver of any
    /// kind, or the netlist is empty.
    pub fn finish(self) -> Result<Netlist, BuildError> {
        let NetlistBuilder {
            name,
            components,
            net_names,
            name_index,
            inputs,
            outputs,
            anon_counter: _,
        } = self;
        // The name look-up is done with; freed before the indices are
        // built, it does not add to the peak of a large parse.
        drop(name_index);
        checked(name, components, net_names, inputs, outputs)
    }
}

/// The builder's checks, then the indexed [`Netlist`]: what
/// [`NetlistBuilder::finish`] and the netlist's `Deserialize` both run.
/// Fails on the first component (in id order) with a bad arity or an
/// undeclared net, then on an undeclared input or output, then on the
/// lowest read net that nothing drives.
pub(crate) fn checked(
    name: String,
    components: Columns,
    net_names: NetNames,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
) -> Result<Netlist, BuildError> {
    if components.len() == 0 {
        return Err(BuildError::Empty);
    }
    let num_nets = net_names.len();
    let declared = |net: &NetId| net.index() < num_nets;
    for (i, comp) in components.view().iter().enumerate() {
        if let ComponentRef::Gate { kind, inputs, .. } = comp {
            let (min, max) = kind.arity();
            if inputs.len() < min || max.is_some_and(|m| inputs.len() > m) {
                return Err(BuildError::BadArity {
                    comp: CompId(i as u32),
                    kind,
                    got: inputs.len(),
                });
            }
        }
        if let Some(net) = comp.reads().chain(comp.drives()).find(|n| !declared(n)) {
            return Err(BuildError::UnknownNet { net });
        }
    }
    if let Some(&net) = inputs.iter().chain(&outputs).find(|n| !declared(n)) {
        return Err(BuildError::UnknownNet { net });
    }
    // Indices are built arena-backed in O(components): a count /
    // prefix-sum / fill pass, no per-net vectors.
    let netlist = Netlist::from_parts(name, components, net_names, inputs, outputs);
    // A net that is read must be drivable by something. Switch channel
    // terminals count both as reads and potential drives, so a pure
    // switch network never trips this; a gate input left floating does.
    for i in 0..num_nets {
        let net = NetId(i as u32);
        if !netlist.fanout(net).is_empty() && netlist.drivers(net).is_empty() {
            return Err(BuildError::UndrivenNet {
                net,
                name: netlist.net_name(net).to_string(),
            });
        }
    }
    Ok(netlist)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_net_names_unify() {
        let mut b = NetlistBuilder::new("t");
        let a1 = b.net("a");
        let a2 = b.net("a");
        assert_eq!(a1, a2);
        assert_ne!(a1, b.net("b"));
    }

    #[test]
    fn fresh_nets_are_unique() {
        let mut b = NetlistBuilder::new("t");
        let n1 = b.fresh("w");
        let n2 = b.fresh("w");
        assert_ne!(n1, n2);
    }

    #[test]
    fn fresh_nets_skip_names_already_declared() {
        let mut b = NetlistBuilder::new("t");
        let taken = b.net("_t_1");
        let fresh = b.fresh("t");
        assert_ne!(fresh, taken);
        assert_eq!(b.net("_t_2"), fresh, "the counter moved past `_t_1`");
        b.net("_t_3");
        b.net("_t_4");
        let next = b.fresh("t");
        assert_eq!(b.net("_t_5"), next);
        // A bulk name is not in the look-up, and is not seen: the fresh
        // net is a second net of that name.
        let bulk = b.bulk_net(format_args!("_u_6"));
        let twin = b.fresh("u");
        assert_ne!(twin, bulk);
        assert_eq!(b.net_names.get(twin.index()), "_u_6");
    }

    #[test]
    fn empty_netlist_rejected() {
        assert_eq!(NetlistBuilder::new("t").finish(), Err(BuildError::Empty));
    }

    #[test]
    fn bad_arity_rejected() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let y = b.net("y");
        b.gate(GateKind::And, &[a], y, Delay::default());
        match b.finish() {
            Err(BuildError::BadArity { kind, got, .. }) => {
                assert_eq!(kind, GateKind::And);
                assert_eq!(got, 1);
            }
            other => panic!("expected BadArity, got {other:?}"),
        }
    }

    #[test]
    fn undriven_read_net_rejected() {
        let mut b = NetlistBuilder::new("t");
        let floating = b.net("floating");
        let y = b.net("y");
        b.gate(GateKind::Not, &[floating], y, Delay::default());
        match b.finish() {
            Err(BuildError::UndrivenNet { name, .. }) => assert_eq!(name, "floating"),
            other => panic!("expected UndrivenNet, got {other:?}"),
        }
    }

    #[test]
    fn pull_satisfies_driver_requirement() {
        let mut b = NetlistBuilder::new("t");
        let n = b.net("pulled");
        let y = b.net("y");
        b.pull(n, Level::One);
        b.gate(GateKind::Not, &[n], y, Delay::default());
        assert!(b.finish().is_ok());
    }

    #[test]
    fn switch_network_self_driving() {
        let mut b = NetlistBuilder::new("t");
        let ctl = b.input("ctl");
        let a = b.input("a");
        let shared = b.net("shared");
        b.switch(SwitchKind::Nmos, ctl, a, shared);
        let n = b.finish().unwrap();
        assert_eq!(n.num_switches(), 1);
    }

    #[test]
    fn transmission_gate_adds_two_switches() {
        let mut b = NetlistBuilder::new("t");
        let c = b.input("c");
        let cn = b.input("cn");
        let a = b.input("a");
        let z = b.net("z");
        b.transmission_gate(c, cn, a, z);
        let n = b.finish().unwrap();
        assert_eq!(n.num_switches(), 2);
    }

    #[test]
    fn bulk_nets_and_raw_components_round_trip() {
        let mut b = NetlistBuilder::new("bulk");
        b.reserve(3, 16, 3);
        let a = b.bulk_net(format_args!("t{}|a", 0));
        let y = b.bulk_net(format_args!("t{}|y", 0));
        b.add_component(Component::Input { net: a });
        b.add_component(Component::Gate {
            kind: GateKind::Not,
            inputs: vec![a],
            output: y,
            delay: Delay::default(),
        });
        b.mark_output(y);
        let n = b.finish().unwrap();
        assert_eq!(n.net_name(a), "t0|a");
        assert_eq!(n.net_name(y), "t0|y");
        assert_eq!(n.inputs(), &[a]);
        assert_eq!(n.fanout(a).len(), 1);
        assert_eq!(n.drivers(y).len(), 1);
    }

    #[test]
    fn bulk_nets_skip_interning() {
        let mut b = NetlistBuilder::new("bulk");
        let n1 = b.bulk_net(format_args!("same"));
        let n2 = b.bulk_net(format_args!("same"));
        // No unification: bulk nets trust the caller for uniqueness.
        assert_ne!(n1, n2);
    }

    #[test]
    fn error_display_is_informative() {
        let e = BuildError::UndrivenNet {
            net: NetId(3),
            name: "foo".into(),
        };
        assert!(e.to_string().contains("foo"));
    }
}
