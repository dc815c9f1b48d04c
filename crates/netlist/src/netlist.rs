//! The [`Netlist`] container: components, nets, and derived indices.

use crate::component::{CompId, Component, NetId};
use crate::csr::{Csr, CsrFill};
use crate::names::NetNames;
use serde::{Deserialize, Serialize};

/// An immutable, validated circuit.
///
/// Construct through [`crate::NetlistBuilder`], which checks arity and
/// connectivity and precomputes the fanout/driver indices the simulator
/// and the paper's message-volume model depend on (a *message* in the
/// paper is the propagation of one output change to one fanout component).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Netlist {
    pub(crate) name: String,
    pub(crate) components: Vec<Component>,
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
        components: Vec<Component>,
        net_names: NetNames,
        inputs: Vec<NetId>,
        outputs: Vec<NetId>,
    ) -> Netlist {
        // One walk sizes both indices, a second fills them.
        let nets = net_names.len();
        let (mut readers, mut drivers) = (vec![0u32; nets], vec![0u32; nets]);
        for comp in &components {
            comp.for_each_read(|net| readers[net.index()] += 1);
            comp.for_each_driven(|net| drivers[net.index()] += 1);
        }
        let mut fanout = CsrFill::with_row_lens(readers, CompId(0));
        let mut drivers = CsrFill::with_row_lens(drivers, CompId(0));
        for (id, comp) in (0u32..).map(CompId).zip(&components) {
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
        self.components.iter().filter(|c| c.is_gate()).count()
    }

    /// Number of bidirectional switches (the paper's "Switches" column).
    #[must_use]
    pub fn num_switches(&self) -> usize {
        self.components.iter().filter(|c| c.is_switch()).count()
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
    pub fn component(&self, id: CompId) -> &Component {
        &self.components[id.index()]
    }

    /// All components, indexable by [`CompId::index`].
    #[must_use]
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// Iterates over `(CompId, &Component)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (CompId, &Component)> {
        self.components
            .iter()
            .enumerate()
            .map(|(i, c)| (CompId(i as u32), c))
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

    /// Per-component gate input pins (net ids); rows for non-gate
    /// components are empty.
    #[must_use]
    pub fn gate_inputs_csr(&self) -> Csr {
        Csr::from_rows(self.components.iter().map(|c| {
            let inputs: &[NetId] = match c {
                Component::Gate { inputs, .. } => inputs,
                _ => &[],
            };
            inputs.iter().map(|n| n.0)
        }))
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
        self.components
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
        for comp in &self.components {
            match comp {
                Component::Gate {
                    kind,
                    inputs,
                    output,
                    delay,
                } => {
                    h.u32(1);
                    h.u32(*kind as u32);
                    h.u32(inputs.len() as u32);
                    for n in inputs {
                        h.u32(n.0);
                    }
                    h.u32(output.0);
                    h.u32(delay.rise);
                    h.u32(delay.fall);
                }
                Component::Switch {
                    kind,
                    control,
                    a,
                    b,
                } => {
                    h.u32(2);
                    h.u32(*kind as u32);
                    h.u32(control.0);
                    h.u32(a.0);
                    h.u32(b.0);
                }
                Component::Input { net } => {
                    h.u32(3);
                    h.u32(net.0);
                }
                Component::Pull { net, level } => {
                    h.u32(4);
                    h.u32(net.0);
                    h.u32(*level as u32);
                }
                Component::Supply { net, level } => {
                    h.u32(5);
                    h.u32(net.0);
                    h.u32(*level as u32);
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

    /// Approximate heap bytes held by the netlist (components, gate input
    /// pins, name arena, adjacency indices). Reported per scale by the
    /// `scale_study` bench alongside process peak RSS.
    #[must_use]
    pub fn memory_footprint(&self) -> u64 {
        let comp_slots = self.components.capacity() * std::mem::size_of::<Component>();
        let gate_pins: usize = self
            .components
            .iter()
            .map(|c| match c {
                Component::Gate { inputs, .. } => inputs.capacity() * std::mem::size_of::<NetId>(),
                _ => 0,
            })
            .sum();
        let ids = (self.inputs.capacity() + self.outputs.capacity()) * std::mem::size_of::<NetId>();
        (comp_slots
            + gate_pins
            + self.net_names.heap_bytes()
            + self.fanout.heap_bytes()
            + self.drivers.heap_bytes()
            + ids) as u64
    }
}

#[cfg(test)]
mod tests {
    use crate::{Delay, GateKind, NetlistBuilder};

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
    fn gate_input_pins_match_components() {
        let mut b = NetlistBuilder::new("c");
        let a = b.input("a");
        let y = b.net("y");
        let z = b.net("z");
        b.gate(GateKind::Not, &[a], y, Delay::default());
        b.gate(GateKind::And, &[a, y], z, Delay::default());
        let n = b.finish().unwrap();
        let pins = n.gate_inputs_csr();
        assert_eq!(pins.num_rows(), n.num_components());
        for (id, comp) in n.iter() {
            let want: Vec<u32> = match comp {
                crate::Component::Gate { inputs, .. } => inputs.iter().map(|x| x.0).collect(),
                _ => Vec::new(),
            };
            assert_eq!(pins.row(id.index()), &want[..]);
        }
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
