//! The [`Netlist`] container: components, nets, and derived indices.

use crate::builder::{self, BuildError};
use crate::columns::{Columns, ComponentColumns};
use crate::component::{CompId, Component, ComponentRef, NetId};
use crate::csr::{Csr, CsrFill, CsrView};
use crate::names::NetNames;
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;

/// An immutable, validated circuit.
///
/// Construct through [`crate::NetlistBuilder`], which checks arity and
/// connectivity and precomputes the fanout/driver indices the simulator
/// and the paper's message-volume model depend on (a *message* in the
/// paper is the propagation of one output change to one fanout component).
///
/// Components are stored as columns — a tag byte, an 8-byte pair (a
/// gate's delay or a switch's channel ends), one terminal net, and every
/// gate's input pins in one [`Csr`] — and read through the borrowed
/// [`ComponentRef`] that [`Netlist::component`] returns. The engines
/// read the circuit from here — [`Netlist::columns`],
/// [`Netlist::gate_pins`], [`Netlist::driver_rows`] — rather than keep
/// copies of it.
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    pub(crate) name: String,
    pub(crate) components: Columns,
    pub(crate) net_names: NetNames,
    /// For each net: components that read it (fanout).
    pub(crate) fanout: Csr<CompId>,
    /// For each net: components that can drive it.
    pub(crate) drivers: Csr<CompId>,
    /// Primary input nets in declaration order.
    pub(crate) inputs: Vec<NetId>,
    /// Nets marked as observable outputs.
    pub(crate) outputs: Vec<NetId>,
}

impl Netlist {
    /// Assembles a netlist from already-validated parts, computing the
    /// fanout/driver indices in O(components). Rows are filled in
    /// component order, which the golden digests depend on. Callers (the
    /// builder and the optimizer) are responsible for arity and
    /// net-range validity.
    pub(crate) fn from_parts(
        name: String,
        mut components: Columns,
        net_names: NetNames,
        inputs: Vec<NetId>,
        outputs: Vec<NetId>,
    ) -> Netlist {
        components.shrink_to_fit();
        // One walk sizes both indices, a second fills them.
        let nets = net_names.len();
        let (mut readers, mut drivers) = (vec![0u32; nets], vec![0u32; nets]);
        for comp in components.view().iter() {
            comp.for_each_read(|net| readers[net.index()] += 1);
            comp.for_each_driven(|net| drivers[net.index()] += 1);
        }
        let mut fanout = CsrFill::with_row_lens(readers, CompId(0));
        let mut drivers = CsrFill::with_row_lens(drivers, CompId(0));
        for (id, comp) in (0u32..).map(CompId).zip(components.view().iter()) {
            comp.for_each_read(|net| fanout.push(net.0, id));
            comp.for_each_driven(|net| drivers.push(net.0, id));
        }
        let (fanout, drivers) = (fanout.finish(), drivers.finish());
        Netlist {
            name,
            components,
            net_names,
            fanout,
            drivers,
            inputs,
            outputs,
        }
    }

    /// The circuit's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nets.
    #[must_use]
    pub fn num_nets(&self) -> usize {
        self.net_names.len()
    }

    /// Number of components of every kind (gates + switches + inputs +
    /// pulls + supplies).
    #[must_use]
    pub fn num_components(&self) -> usize {
        self.components.len()
    }

    /// Number of unidirectional gates (the paper's "Gates" column).
    #[must_use]
    pub fn num_gates(&self) -> usize {
        self.components.num_gates()
    }

    /// Number of bidirectional switches (the paper's "Switches" column).
    #[must_use]
    pub fn num_switches(&self) -> usize {
        self.components.num_switches()
    }

    /// Simulated component count in the paper's sense: gates + switches
    /// (inputs, pulls and rails are not evaluation units).
    #[must_use]
    pub fn num_simulated_components(&self) -> usize {
        self.num_gates() + self.num_switches()
    }

    /// The component with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    #[inline]
    pub fn component(&self, id: CompId) -> ComponentRef<'_> {
        self.columns().get(id.index())
    }

    /// The component columns, borrowed: what an engine reads component
    /// by component, one column at a time, instead of keeping a
    /// per-component copy of its own.
    #[must_use]
    #[inline]
    pub fn columns(&self) -> ComponentColumns<'_> {
        self.components.view()
    }

    /// Iterates over `(CompId, ComponentRef)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (CompId, ComponentRef<'_>)> + '_ {
        (0u32..).map(CompId).zip(self.columns().iter())
    }

    /// The name of a net.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    #[must_use]
    pub fn net_name(&self, net: NetId) -> &str {
        self.net_names.get(net.index())
    }

    /// Looks up a net by name (linear scan; intended for tests and small
    /// interactive use, not inner loops).
    #[must_use]
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.net_names.position(name).map(|i| NetId(i as u32))
    }

    /// Components that read `net` — the fanout list whose length is the
    /// per-event message count in the paper's model.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    #[must_use]
    pub fn fanout(&self, net: NetId) -> &[CompId] {
        self.fanout.row(net.index())
    }

    /// Components that can drive `net`.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    #[must_use]
    pub fn drivers(&self, net: NetId) -> &[CompId] {
        self.drivers.row(net.index())
    }

    /// Every net's [`Netlist::drivers`] row, borrowed as two slices for
    /// a hot loop that should index them directly.
    #[must_use]
    pub fn driver_rows(&self) -> CsrView<'_, CompId> {
        self.drivers.view()
    }

    /// Per-component gate input pins, in pin order: row `i` is
    /// component `i`'s inputs if it is a gate, empty otherwise. This is
    /// the netlist's own pin array; the engines borrow it.
    #[must_use]
    pub fn gate_pins(&self) -> &Csr<NetId> {
        self.components.pins()
    }

    /// Primary input nets in declaration order.
    #[must_use]
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Observable output nets in declaration order.
    #[must_use]
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// Average structural fanout over gate output nets: the paper's
    /// `F = M_inf / E` corresponds to the mean number of fanout components
    /// per signal change, which for uniform activity equals the mean
    /// fanout-list length over driven nets.
    #[must_use]
    pub fn average_fanout(&self) -> f64 {
        let mut driven = 0usize;
        let mut total = 0usize;
        for i in 0..self.num_nets() {
            if self.drivers.row_len(i) > 0 {
                driven += 1;
                total += self.fanout.row_len(i);
            }
        }
        if driven == 0 {
            return 0.0;
        }
        total as f64 / driven as f64
    }

    /// Total approximate transistor count (Table 4's right column).
    #[must_use]
    pub fn approx_transistors(&self) -> u64 {
        self.columns()
            .iter()
            .map(|c| u64::from(c.approx_transistors()))
            .sum()
    }

    /// A 64-bit FNV-1a digest over the complete netlist structure: name,
    /// components (kinds, pins, delays), net names, inputs, and outputs.
    /// Two netlists with equal digests are structurally identical for
    /// simulation purposes; the generator's determinism tests pin this.
    #[must_use]
    pub fn structural_digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        struct Fnv(u64);
        impl Fnv {
            fn bytes(&mut self, b: &[u8]) {
                for &x in b {
                    self.0 = (self.0 ^ u64::from(x)).wrapping_mul(PRIME);
                }
            }
            fn u32(&mut self, v: u32) {
                self.bytes(&v.to_le_bytes());
            }
        }
        let mut h = Fnv(OFFSET);
        h.bytes(self.name.as_bytes());
        h.u32(self.components.len() as u32);
        for comp in self.columns().iter() {
            match comp {
                ComponentRef::Gate {
                    kind,
                    inputs,
                    output,
                    delay,
                } => {
                    h.u32(1);
                    h.u32(kind as u32);
                    h.u32(inputs.len() as u32);
                    for n in inputs {
                        h.u32(n.0);
                    }
                    h.u32(output.0);
                    h.u32(delay.rise);
                    h.u32(delay.fall);
                }
                ComponentRef::Switch {
                    kind,
                    control,
                    a,
                    b,
                } => {
                    h.u32(2);
                    h.u32(kind as u32);
                    h.u32(control.0);
                    h.u32(a.0);
                    h.u32(b.0);
                }
                ComponentRef::Input { net } => {
                    h.u32(3);
                    h.u32(net.0);
                }
                ComponentRef::Pull { net, level } => {
                    h.u32(4);
                    h.u32(net.0);
                    h.u32(level as u32);
                }
                ComponentRef::Supply { net, level } => {
                    h.u32(5);
                    h.u32(net.0);
                    h.u32(level as u32);
                }
            }
        }
        h.u32(self.net_names.len() as u32);
        for name in self.net_names.iter() {
            h.bytes(name.as_bytes());
            h.bytes(&[0xff]);
        }
        for n in &self.inputs {
            h.u32(n.0);
        }
        for n in &self.outputs {
            h.u32(n.0);
        }
        h.0
    }

    /// Heap bytes held by the netlist: the capacities of the component
    /// columns, the pin array, the name arena, the adjacency indices and
    /// the input and output lists, read without a walk. Reported per
    /// scale by the `scale_study` bench alongside process peak RSS.
    #[must_use]
    pub fn memory_footprint(&self) -> u64 {
        let ids = (self.inputs.capacity() + self.outputs.capacity()) * std::mem::size_of::<NetId>();
        (self.components.heap_bytes()
            + self.net_names.heap_bytes()
            + self.fanout.heap_bytes()
            + self.drivers.heap_bytes()
            + ids) as u64
    }
}

/// The JSON shape of a derived `Serialize` over the fields, with
/// `components` as a list of [`Component`] values.
impl Serialize for Netlist {
    fn to_value(&self) -> Value {
        let components = self.iter().map(|(_, c)| c.to_owned().to_value()).collect();
        let fields = [
            ("components", Value::Array(components)),
            ("drivers", self.drivers.to_value()),
            ("fanout", self.fanout.to_value()),
            ("inputs", self.inputs.to_value()),
            ("name", self.name.to_value()),
            ("net_names", self.net_names.to_value()),
            ("outputs", self.outputs.to_value()),
        ];
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }
}

/// Reads the shape [`Serialize`] writes and trusts none of it: the
/// components go through the builder's checks (arity, net range, every
/// read net driven), the indices and the input list are rebuilt from
/// them, and serialized ones that disagree are an error.
impl Deserialize for Netlist {
    fn from_value(value: &Value) -> Result<Netlist, serde::Error> {
        let fields: &BTreeMap<String, Value> = value
            .as_object()
            .ok_or_else(|| serde::Error::custom("netlist: expected an object"))?;
        let field = |key: &str| {
            fields
                .get(key)
                .ok_or_else(|| serde::Error::custom(format!("netlist: missing field `{key}`")))
        };
        let components = Vec::<Component>::from_value(field("components")?)?;
        let mut columns = Columns::default();
        columns.reserve(components.len());
        let mut inputs = Vec::new();
        for comp in &components {
            if let Component::Input { net } = *comp {
                inputs.push(net);
            }
            columns.push(comp.as_ref());
        }
        let netlist = builder::checked(
            String::from_value(field("name")?)?,
            columns,
            NetNames::from_value(field("net_names")?)?,
            inputs,
            Vec::<NetId>::from_value(field("outputs")?)?,
        )
        .map_err(|e: BuildError| serde::Error::custom(format!("netlist: {e}")))?;
        let disagrees = |key: &str| {
            serde::Error::custom(format!("netlist: `{key}` disagrees with the components"))
        };
        if Vec::<NetId>::from_value(field("inputs")?)? != netlist.inputs {
            return Err(disagrees("inputs"));
        }
        if Csr::<CompId>::from_value(field("fanout")?)? != netlist.fanout {
            return Err(disagrees("fanout"));
        }
        if Csr::<CompId>::from_value(field("drivers")?)? != netlist.drivers {
            return Err(disagrees("drivers"));
        }
        Ok(netlist)
    }
}

#[cfg(test)]
mod tests {
    use super::Netlist;
    use crate::{ComponentRef, Delay, GateKind, Level, NetId, NetlistBuilder, SwitchKind};

    #[test]
    fn counting_and_lookup() {
        let mut b = NetlistBuilder::new("c");
        let a = b.input("a");
        let y = b.net("y");
        b.gate(GateKind::Not, &[a], y, Delay::default());
        b.mark_output(y);
        let n = b.finish().unwrap();
        assert_eq!(n.name(), "c");
        assert_eq!(n.num_gates(), 1);
        assert_eq!(n.num_switches(), 0);
        assert_eq!(n.num_simulated_components(), 1);
        assert_eq!(n.find_net("y"), Some(y));
        assert_eq!(n.find_net("zzz"), None);
        assert_eq!(n.inputs(), &[a]);
        assert_eq!(n.outputs(), &[y]);
        assert_eq!(n.net_name(y), "y");
    }

    #[test]
    fn gate_pins_match_components() {
        let mut b = NetlistBuilder::new("c");
        let a = b.input("a");
        let y = b.net("y");
        let z = b.net("z");
        b.gate(GateKind::Not, &[a], y, Delay::default());
        b.gate(GateKind::And, &[a, y], z, Delay::default());
        b.switch(SwitchKind::Nmos, a, y, z);
        let n = b.finish().unwrap();
        let pins = n.gate_pins();
        assert_eq!(pins.num_rows(), n.num_components());
        for (id, comp) in n.iter() {
            let want: &[NetId] = match comp {
                ComponentRef::Gate { inputs, .. } => inputs,
                _ => &[],
            };
            assert_eq!(pins.row(id.index()), want);
        }
        assert_eq!(pins.row(2), [a, y]);
    }

    /// What `memory_footprint` reports is the capacity the columns and
    /// indices hold, and a finished netlist holds no more than it uses:
    /// 17 bytes a component, 4 a pin, one offset more for the pin array.
    #[test]
    fn memory_footprint_is_what_the_columns_and_indices_hold() {
        let mut b = NetlistBuilder::new("m");
        let a = b.input("a");
        let c = b.input("c");
        let y = b.net("y");
        b.gate(GateKind::Nand, &[a, c, a], y, Delay::default());
        b.switch(SwitchKind::Pmos, c, a, y);
        b.pull(y, Level::One);
        b.mark_output(y);
        let n = b.finish().unwrap();
        let ids = (n.inputs.capacity() + n.outputs.capacity()) * 4;
        let held = n.components.heap_bytes()
            + n.net_names.heap_bytes()
            + n.fanout.heap_bytes()
            + n.drivers.heap_bytes()
            + ids;
        assert_eq!(n.memory_footprint(), held as u64);
        let pins = n.gate_pins().num_items();
        assert_eq!(pins, 3);
        assert_eq!(
            n.components.heap_bytes(),
            17 * n.num_components() + 4 * pins + 4
        );
    }

    #[test]
    fn fanout_and_drivers_indexed() {
        let mut b = NetlistBuilder::new("c");
        let a = b.input("a");
        let y1 = b.net("y1");
        let y2 = b.net("y2");
        b.gate(GateKind::Not, &[a], y1, Delay::default());
        b.gate(GateKind::Not, &[a], y2, Delay::default());
        let n = b.finish().unwrap();
        assert_eq!(n.fanout(a).len(), 2);
        assert_eq!(n.drivers(y1).len(), 1);
        // `a` is driven by its Input component.
        assert_eq!(n.drivers(a).len(), 1);
    }

    #[test]
    fn average_fanout_counts_driven_nets() {
        let mut b = NetlistBuilder::new("c");
        let a = b.input("a");
        let y = b.net("y");
        let z1 = b.net("z1");
        let z2 = b.net("z2");
        b.gate(GateKind::Not, &[a], y, Delay::default());
        b.gate(GateKind::Not, &[y], z1, Delay::default());
        b.gate(GateKind::Not, &[y], z2, Delay::default());
        let n = b.finish().unwrap();
        // Nets: a (fanout 1), y (fanout 2), z1 (0), z2 (0); all driven.
        let f = n.average_fanout();
        assert!((f - 0.75).abs() < 1e-12, "got {f}");
    }

    #[test]
    fn serde_round_trip_preserves_structure() {
        let mut b = NetlistBuilder::new("rt");
        let a = b.input("a");
        let y = b.net("y");
        b.gate(GateKind::Not, &[a], y, Delay::default());
        b.mark_output(y);
        let n = b.finish().unwrap();
        let json = serde_json::to_string(&n).unwrap();
        // The serialized shape is a contract: the adjacency indices are
        // lists of lists, whatever the in-memory layout.
        assert_eq!(
            json,
            r#"{"components":[{"Input":{"net":0}},{"Gate":{"delay":{"fall":1,"rise":1},"inputs":[0],"kind":"Not","output":1}}],"drivers":[[0],[1]],"fanout":[[1],[]],"inputs":[0],"name":"rt","net_names":["a","y"],"outputs":[1]}"#
        );
        let back: super::Netlist = serde_json::from_str(&json).unwrap();
        assert_eq!(back, n);
        assert_eq!(back.structural_digest(), n.structural_digest());
    }

    /// The JSON of `serde_round_trip_preserves_structure`'s netlist with
    /// `from` replaced by `to`, and the error deserializing it gives.
    fn refusal(from: &str, to: &str) -> String {
        const JSON: &str = r#"{"components":[{"Input":{"net":0}},{"Gate":{"delay":{"fall":1,"rise":1},"inputs":[0],"kind":"Not","output":1}}],"drivers":[[0],[1]],"fanout":[[1],[]],"inputs":[0],"name":"rt","net_names":["a","y"],"outputs":[1]}"#;
        assert!(serde_json::from_str::<Netlist>(JSON).is_ok());
        assert!(JSON.contains(from), "{from}");
        let json = JSON.replacen(from, to, 1);
        match serde_json::from_str::<Netlist>(&json) {
            Ok(n) => panic!("accepted {json}: {n:?}"),
            Err(e) => e.to_string(),
        }
    }

    #[test]
    fn deserialization_checks_gate_arity() {
        let e = refusal(r#""inputs":[0],"kind""#, r#""inputs":[0,0],"kind""#);
        assert!(e.contains("invalid input count 2"), "{e}");
    }

    #[test]
    fn deserialization_checks_component_nets_are_declared() {
        let e = refusal(r#""output":1"#, r#""output":7"#);
        assert!(e.contains("n7 was never declared"), "{e}");
    }

    #[test]
    fn deserialization_checks_outputs_are_declared() {
        let e = refusal(r#""outputs":[1]"#, r#""outputs":[5]"#);
        assert!(e.contains("n5 was never declared"), "{e}");
    }

    #[test]
    fn deserialization_checks_every_read_net_is_driven() {
        let e = refusal(
            r#"{"Input":{"net":0}}"#,
            r#"{"Pull":{"level":"One","net":1}}"#,
        );
        assert!(e.contains("(a) is read but never driven"), "{e}");
    }

    #[test]
    fn deserialization_refuses_no_components() {
        let e = refusal(
            r#"[{"Input":{"net":0}},{"Gate":{"delay":{"fall":1,"rise":1},"inputs":[0],"kind":"Not","output":1}}]"#,
            "[]",
        );
        assert!(e.contains("no components"), "{e}");
    }

    #[test]
    fn deserialization_refuses_a_fanout_that_disagrees() {
        let e = refusal(r#""fanout":[[1],[]]"#, r#""fanout":[[],[1]]"#);
        assert!(e.contains("`fanout` disagrees"), "{e}");
    }

    #[test]
    fn deserialization_refuses_drivers_that_disagree() {
        let e = refusal(r#""drivers":[[0],[1]]"#, r#""drivers":[[1],[0]]"#);
        assert!(e.contains("`drivers` disagrees"), "{e}");
    }

    #[test]
    fn deserialization_refuses_inputs_that_disagree() {
        let e = refusal(r#""inputs":[0],"name""#, r#""inputs":[],"name""#);
        assert!(e.contains("`inputs` disagrees"), "{e}");
    }

    #[test]
    fn structural_digest_is_sensitive_to_structure() {
        let build = |delay: u32| {
            let mut b = NetlistBuilder::new("d");
            let a = b.input("a");
            let y = b.net("y");
            b.gate(GateKind::Not, &[a], y, Delay::uniform(delay));
            b.finish().unwrap()
        };
        assert_eq!(build(1).structural_digest(), build(1).structural_digest());
        assert_ne!(build(1).structural_digest(), build(2).structural_digest());
    }
}
