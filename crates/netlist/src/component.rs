//! Components: unidirectional gates and bidirectional MOS switches.
//!
//! The component model mirrors *lsim* \[CH85\]: a circuit is a set of
//! **gates** (unidirectional, evaluated from a truth table, with a fixed
//! rise/fall propagation delay) and **switches** (bidirectional MOS pass
//! transistors whose conduction is controlled by a gate net). Primary
//! inputs, pull-ups/-downs and supply rails complete the model.

use crate::value::{Level, Signal, Strength};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a net (an electrical node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NetId(pub u32);

/// Identifier of a component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CompId(pub u32);

impl NetId {
    /// The id as a `usize` index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl CompId {
    /// The id as a `usize` index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for CompId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Fixed low-to-high / high-to-low propagation delay in simulator ticks.
///
/// This is the paper's *fixed delay model*: "component delays are modeled
/// by fixed low-to-high and high-to-low propagation times". Delays are at
/// least one tick; zero-delay components would break the unit-increment
/// time advance the modeled machine class relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Delay {
    /// Low-to-high (rise) delay in ticks, `>= 1`.
    pub rise: u32,
    /// High-to-low (fall) delay in ticks, `>= 1`.
    pub fall: u32,
}

impl Delay {
    /// Equal rise and fall delay.
    ///
    /// # Panics
    ///
    /// Panics if `ticks == 0`.
    #[must_use]
    pub fn uniform(ticks: u32) -> Delay {
        assert!(ticks >= 1, "delay must be at least one tick");
        Delay {
            rise: ticks,
            fall: ticks,
        }
    }

    /// Distinct rise and fall delays.
    ///
    /// # Panics
    ///
    /// Panics if either delay is zero.
    #[must_use]
    pub fn rise_fall(rise: u32, fall: u32) -> Delay {
        assert!(rise >= 1 && fall >= 1, "delays must be at least one tick");
        Delay { rise, fall }
    }

    /// The delay to apply for a transition to `new_level`.
    ///
    /// Rising transitions (to `1`) use the rise delay, falling (to `0`)
    /// the fall delay; transitions to `X` pessimistically use the shorter
    /// of the two so the unknown appears as early as possible.
    #[must_use]
    pub fn for_transition(self, new_level: Level) -> u32 {
        match new_level {
            Level::One => self.rise,
            Level::Zero => self.fall,
            Level::X => self.rise.min(self.fall),
        }
    }
}

impl Default for Delay {
    fn default() -> Delay {
        Delay::uniform(1)
    }
}

/// The kind of a unidirectional logic gate.
///
/// A kind is its truth table over the Kleene levels, and there is one
/// implementation of it: [`GateKind::evaluate_pins`], which reads each
/// pin's level through a closure in one pass. [`GateKind::evaluate`] is
/// that kernel over levels already gathered. Both check
/// [`GateKind::arity`] on every call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GateKind {
    /// Buffer (1 input).
    Buf,
    /// Inverter (1 input).
    Not,
    /// AND (>= 2 inputs).
    And,
    /// OR (>= 2 inputs).
    Or,
    /// NAND (>= 2 inputs).
    Nand,
    /// NOR (>= 2 inputs).
    Nor,
    /// XOR (>= 2 inputs, parity).
    Xor,
    /// XNOR (>= 2 inputs, inverted parity).
    Xnor,
    /// Tristate buffer: inputs are `[data, enable]`; output floats when
    /// `enable` is `0` and is `X`-driven when `enable` is `X`.
    Tristate,
}

impl GateKind {
    /// All gate kinds, for exhaustive iteration in tests.
    pub const ALL: [GateKind; 9] = [
        GateKind::Buf,
        GateKind::Not,
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Tristate,
    ];

    /// Inclusive (min, max) input arity; `None` max means unbounded.
    #[must_use]
    pub fn arity(self) -> (usize, Option<usize>) {
        match self {
            GateKind::Buf | GateKind::Not => (1, Some(1)),
            GateKind::Tristate => (2, Some(2)),
            _ => (2, None),
        }
    }

    /// Evaluates the gate over input levels, returning the driven output.
    ///
    /// All kinds except [`GateKind::Tristate`] always drive strongly;
    /// tristate drives [`Signal::FLOATING`] when disabled. This is
    /// [`GateKind::evaluate_pins`] over levels already gathered.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` violates [`GateKind::arity`]; the builder
    /// enforces arity so evaluation can assume it.
    #[must_use]
    pub fn evaluate(self, inputs: &[Level]) -> Signal {
        self.evaluate_pins(inputs, |&l| l)
    }

    /// Evaluates the gate over its pins, reading each pin's level through
    /// `level` — the one gate kernel, which every engine and analysis
    /// calls without gathering the levels first.
    ///
    /// One pass over the pins folds `seen`, the set of levels that occur
    /// (bit `level as u8`: 0 a `0`, 1 a `1`, 2 an `X`), and the parity of
    /// the ones. AND/NAND give `0` if any input is `0`, else `X` if any is
    /// `X`, else `1`; OR/NOR are the mirror image; XOR/XNOR give `X` if
    /// any input is `X`, else the parity. The inverting kinds then apply
    /// [`Level::not`]. These are the Kleene folds of [`Level::and`],
    /// [`Level::or`] and [`Level::xor`], without a dispatch per input.
    /// Buf, Not and Tristate read their one or two pins directly.
    ///
    /// # Panics
    ///
    /// Panics, as [`GateKind::evaluate`] does, if `pins.len()` violates
    /// [`GateKind::arity`]. The check runs on every call (a deserialized
    /// `Netlist` skips the builder's), and costs nothing: it is the slice
    /// pattern that reads a one- or two-pin gate's pins, and one length
    /// test ahead of the fold.
    #[inline]
    #[must_use]
    pub fn evaluate_pins<P>(self, pins: &[P], level: impl Fn(&P) -> Level) -> Signal {
        const ZERO: u8 = 1 << Level::Zero as u8;
        const ONE: u8 = 1 << Level::One as u8;
        const X: u8 = 1 << Level::X as u8;
        let out = match self {
            GateKind::Buf | GateKind::Not => {
                let [p] = pins else {
                    self.arity_violated(pins.len())
                };
                level(p)
            }
            GateKind::Tristate => {
                let [data, enable] = pins else {
                    self.arity_violated(pins.len())
                };
                return match level(enable) {
                    Level::One => Signal::strong(level(data)),
                    Level::Zero => Signal::FLOATING,
                    Level::X => Signal::strong(Level::X),
                };
            }
            GateKind::And
            | GateKind::Nand
            | GateKind::Or
            | GateKind::Nor
            | GateKind::Xor
            | GateKind::Xnor => {
                if pins.len() < 2 {
                    self.arity_violated(pins.len());
                }
                let (mut seen, mut parity) = (0u8, 0u8);
                for p in pins {
                    let l = level(p) as u8;
                    seen |= 1 << l;
                    // An `X` adds 2, which leaves bit 0 alone.
                    parity ^= l;
                }
                match self {
                    GateKind::And | GateKind::Nand if seen & ZERO != 0 => Level::Zero,
                    GateKind::Or | GateKind::Nor if seen & ONE != 0 => Level::One,
                    _ if seen & X != 0 => Level::X,
                    GateKind::And | GateKind::Nand => Level::One,
                    GateKind::Or | GateKind::Nor => Level::Zero,
                    _ => Level::from_bool(parity & 1 == 1),
                }
            }
        };
        let inverting = matches!(
            self,
            GateKind::Not | GateKind::Nand | GateKind::Nor | GateKind::Xnor
        );
        Signal::strong(if inverting { out.not() } else { out })
    }

    #[cold]
    #[inline(never)]
    fn arity_violated(self, inputs: usize) -> ! {
        panic!("gate {self:?} arity violated: {inputs} inputs")
    }

    /// Approximate CMOS transistor cost of the gate, used to reproduce the
    /// paper's Table 4 "Approx. Trans." column.
    #[must_use]
    pub fn approx_transistors(self, num_inputs: usize) -> u32 {
        let n = num_inputs as u32;
        match self {
            GateKind::Buf => 4,
            GateKind::Not => 2,
            GateKind::Nand | GateKind::Nor => 2 * n,
            GateKind::And | GateKind::Or => 2 * n + 2,
            GateKind::Xor | GateKind::Xnor => 4 + 6 * (n - 1),
            GateKind::Tristate => 6,
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GateKind::Buf => "BUF",
            GateKind::Not => "NOT",
            GateKind::And => "AND",
            GateKind::Or => "OR",
            GateKind::Nand => "NAND",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
            GateKind::Tristate => "TRI",
        };
        f.write_str(s)
    }
}

/// The kind of a bidirectional MOS switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SwitchKind {
    /// N-channel: conducts when the control net is `1`; passes a degraded
    /// (weak) high level.
    Nmos,
    /// P-channel: conducts when the control net is `0`; passes a degraded
    /// (weak) low level.
    Pmos,
}

impl SwitchKind {
    /// Whether the switch conducts for a given control level. `X` control
    /// returns `None` (unknown conduction, handled pessimistically by the
    /// solver).
    #[must_use]
    pub fn conducts(self, control: Level) -> Option<bool> {
        match (self, control) {
            (SwitchKind::Nmos, Level::One) | (SwitchKind::Pmos, Level::Zero) => Some(true),
            (SwitchKind::Nmos, Level::Zero) | (SwitchKind::Pmos, Level::One) => Some(false),
            (_, Level::X) => None,
        }
    }
}

impl fmt::Display for SwitchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SwitchKind::Nmos => "NMOS",
            SwitchKind::Pmos => "PMOS",
        })
    }
}

/// A circuit component, owned: what [`crate::NetlistBuilder`] takes.
/// A built [`crate::Netlist`] stores its components as columns and
/// shows each as a [`ComponentRef`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Component {
    /// A unidirectional logic gate.
    Gate {
        /// Truth-table kind.
        kind: GateKind,
        /// Input nets (order matters for [`GateKind::Tristate`]).
        inputs: Vec<NetId>,
        /// Output net.
        output: NetId,
        /// Fixed rise/fall delay.
        delay: Delay,
    },
    /// A bidirectional MOS pass transistor between `a` and `b`,
    /// controlled by `control`.
    Switch {
        /// Transistor polarity.
        kind: SwitchKind,
        /// Control (gate terminal) net.
        control: NetId,
        /// One channel terminal.
        a: NetId,
        /// The other channel terminal.
        b: NetId,
    },
    /// A primary input driving `net`.
    Input {
        /// The net this input drives.
        net: NetId,
    },
    /// A resistive pull to a fixed level on `net` (depletion load or
    /// resistor), driving [`Strength::Weak`].
    Pull {
        /// The pulled net.
        net: NetId,
        /// The level pulled toward.
        level: Level,
    },
    /// A supply rail holding `net` at a fixed level with
    /// [`Strength::Supply`].
    Supply {
        /// The rail net.
        net: NetId,
        /// Rail level (`One` for VDD, `Zero` for GND).
        level: Level,
    },
}

/// A borrowed view of one component of a [`crate::Netlist`]: what
/// [`crate::Netlist::component`] and [`crate::Netlist::iter`] return.
///
/// It pattern-matches like [`Component`], field for field, except that a
/// gate's `inputs` is a slice of the netlist's one pin array rather than
/// a `Vec` of its own, and every field is a value (the view is `Copy`).
/// [`ComponentRef::to_owned`] makes the [`Component`] a builder takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComponentRef<'a> {
    /// A unidirectional logic gate.
    Gate {
        /// Truth-table kind.
        kind: GateKind,
        /// Input nets (order matters for [`GateKind::Tristate`]).
        inputs: &'a [NetId],
        /// Output net.
        output: NetId,
        /// Fixed rise/fall delay.
        delay: Delay,
    },
    /// A bidirectional MOS pass transistor between `a` and `b`,
    /// controlled by `control`.
    Switch {
        /// Transistor polarity.
        kind: SwitchKind,
        /// Control (gate terminal) net.
        control: NetId,
        /// One channel terminal.
        a: NetId,
        /// The other channel terminal.
        b: NetId,
    },
    /// A primary input driving `net`.
    Input {
        /// The net this input drives.
        net: NetId,
    },
    /// A resistive pull to a fixed level on `net`.
    Pull {
        /// The pulled net.
        net: NetId,
        /// The level pulled toward.
        level: Level,
    },
    /// A supply rail holding `net` at a fixed level.
    Supply {
        /// The rail net.
        net: NetId,
        /// Rail level (`One` for VDD, `Zero` for GND).
        level: Level,
    },
}

impl<'a> ComponentRef<'a> {
    /// The nets this component reads (changes on these require
    /// re-evaluation), in pin order, without allocating.
    pub fn reads(self) -> impl Iterator<Item = NetId> + 'a {
        let (pins, channel): (&[NetId], [Option<NetId>; 3]) = match self {
            ComponentRef::Gate { inputs, .. } => (inputs, [None; 3]),
            ComponentRef::Switch { control, a, b, .. } => (&[], [Some(control), Some(a), Some(b)]),
            ComponentRef::Input { .. }
            | ComponentRef::Pull { .. }
            | ComponentRef::Supply { .. } => (&[], [None; 3]),
        };
        pins.iter().copied().chain(channel.into_iter().flatten())
    }

    /// The nets this component can drive, without allocating.
    pub fn drives(self) -> impl Iterator<Item = NetId> {
        let nets = match self {
            ComponentRef::Gate { output, .. } => [Some(output), None],
            ComponentRef::Switch { a, b, .. } => [Some(a), Some(b)],
            ComponentRef::Input { net }
            | ComponentRef::Pull { net, .. }
            | ComponentRef::Supply { net, .. } => [Some(net), None],
        };
        nets.into_iter().flatten()
    }

    /// [`ComponentRef::reads`], collected.
    #[must_use]
    pub fn read_nets(self) -> Vec<NetId> {
        self.reads().collect()
    }

    /// [`ComponentRef::drives`], collected.
    #[must_use]
    pub fn driven_nets(self) -> Vec<NetId> {
        self.drives().collect()
    }

    /// Visits the nets this component reads.
    #[inline]
    pub fn for_each_read(self, f: impl FnMut(NetId)) {
        self.reads().for_each(f);
    }

    /// Visits the nets this component can drive.
    #[inline]
    pub fn for_each_driven(self, f: impl FnMut(NetId)) {
        self.drives().for_each(f);
    }

    /// Returns `true` for a gate.
    #[must_use]
    pub fn is_gate(self) -> bool {
        matches!(self, ComponentRef::Gate { .. })
    }

    /// Returns `true` for a switch.
    #[must_use]
    pub fn is_switch(self) -> bool {
        matches!(self, ComponentRef::Switch { .. })
    }

    /// Approximate transistor cost (Table 4 reproduction).
    #[must_use]
    pub fn approx_transistors(self) -> u32 {
        match self {
            ComponentRef::Gate { kind, inputs, .. } => kind.approx_transistors(inputs.len()),
            ComponentRef::Switch { .. } | ComponentRef::Pull { .. } => 1,
            ComponentRef::Input { .. } | ComponentRef::Supply { .. } => 0,
        }
    }

    /// The weak signal contributed by a pull or supply, if any.
    #[must_use]
    pub fn static_drive(self) -> Option<Signal> {
        self.kind().static_drive()
    }

    /// What the component is, without its nets.
    #[must_use]
    pub fn kind(self) -> ComponentKind {
        match self {
            ComponentRef::Gate { kind, .. } => ComponentKind::Gate(kind),
            ComponentRef::Switch { kind, .. } => ComponentKind::Switch(kind),
            ComponentRef::Input { .. } => ComponentKind::Input,
            ComponentRef::Pull { level, .. } => ComponentKind::Pull(level),
            ComponentRef::Supply { level, .. } => ComponentKind::Supply(level),
        }
    }

    /// The owned [`Component`] this view shows.
    #[must_use]
    pub fn to_owned(self) -> Component {
        match self {
            ComponentRef::Gate {
                kind,
                inputs,
                output,
                delay,
            } => Component::Gate {
                kind,
                inputs: inputs.to_vec(),
                output,
                delay,
            },
            ComponentRef::Switch {
                kind,
                control,
                a,
                b,
            } => Component::Switch {
                kind,
                control,
                a,
                b,
            },
            ComponentRef::Input { net } => Component::Input { net },
            ComponentRef::Pull { net, level } => Component::Pull { net, level },
            ComponentRef::Supply { net, level } => Component::Supply { net, level },
        }
    }
}

/// What a component is — its variant and sub-kind — without its nets:
/// what a netlist's tag column holds, one byte a component, and what an
/// engine's evaluation loop dispatches on
/// ([`crate::ComponentColumns::kind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComponentKind {
    /// A gate of this kind.
    Gate(GateKind),
    /// A switch of this polarity.
    Switch(SwitchKind),
    /// A primary input.
    Input,
    /// A pull toward this level.
    Pull(Level),
    /// A supply rail at this level.
    Supply(Level),
}

impl ComponentKind {
    /// The signal a pull or supply holds its net at, if any.
    #[must_use]
    pub fn static_drive(self) -> Option<Signal> {
        match self {
            ComponentKind::Pull(level) => Some(Signal::new(level, Strength::Resistive)),
            ComponentKind::Supply(level) => Some(Signal::new(level, Strength::Supply)),
            _ => None,
        }
    }

    /// Returns `true` for a switch.
    #[must_use]
    pub fn is_switch(self) -> bool {
        matches!(self, ComponentKind::Switch(_))
    }
}

impl Component {
    /// The borrowed view of this component, on which every query is
    /// implemented.
    #[must_use]
    pub fn as_ref(&self) -> ComponentRef<'_> {
        match *self {
            Component::Gate {
                kind,
                ref inputs,
                output,
                delay,
            } => ComponentRef::Gate {
                kind,
                inputs,
                output,
                delay,
            },
            Component::Switch {
                kind,
                control,
                a,
                b,
            } => ComponentRef::Switch {
                kind,
                control,
                a,
                b,
            },
            Component::Input { net } => ComponentRef::Input { net },
            Component::Pull { net, level } => ComponentRef::Pull { net, level },
            Component::Supply { net, level } => ComponentRef::Supply { net, level },
        }
    }

    /// [`ComponentRef::reads`].
    pub fn reads(&self) -> impl Iterator<Item = NetId> + '_ {
        self.as_ref().reads()
    }

    /// [`ComponentRef::drives`].
    pub fn drives(&self) -> impl Iterator<Item = NetId> {
        self.as_ref().drives()
    }

    /// [`ComponentRef::read_nets`].
    #[must_use]
    pub fn read_nets(&self) -> Vec<NetId> {
        self.as_ref().read_nets()
    }

    /// [`ComponentRef::for_each_read`].
    #[inline]
    pub fn for_each_read(&self, f: impl FnMut(NetId)) {
        self.as_ref().for_each_read(f);
    }

    /// [`ComponentRef::for_each_driven`].
    #[inline]
    pub fn for_each_driven(&self, f: impl FnMut(NetId)) {
        self.as_ref().for_each_driven(f);
    }

    /// [`ComponentRef::driven_nets`].
    #[must_use]
    pub fn driven_nets(&self) -> Vec<NetId> {
        self.as_ref().driven_nets()
    }

    /// [`ComponentRef::is_gate`].
    #[must_use]
    pub fn is_gate(&self) -> bool {
        self.as_ref().is_gate()
    }

    /// [`ComponentRef::is_switch`].
    #[must_use]
    pub fn is_switch(&self) -> bool {
        self.as_ref().is_switch()
    }

    /// [`ComponentRef::approx_transistors`].
    #[must_use]
    pub fn approx_transistors(&self) -> u32 {
        self.as_ref().approx_transistors()
    }

    /// [`ComponentRef::static_drive`].
    #[must_use]
    pub fn static_drive(&self) -> Option<Signal> {
        self.as_ref().static_drive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lv(bits: &[u8]) -> Vec<Level> {
        bits.iter()
            .map(|&b| if b == 1 { Level::One } else { Level::Zero })
            .collect()
    }

    #[test]
    fn gate_truth_tables_known_inputs() {
        assert_eq!(GateKind::And.evaluate(&lv(&[1, 1])).level, Level::One);
        assert_eq!(GateKind::And.evaluate(&lv(&[1, 0])).level, Level::Zero);
        assert_eq!(GateKind::Nand.evaluate(&lv(&[1, 1])).level, Level::Zero);
        assert_eq!(GateKind::Or.evaluate(&lv(&[0, 0])).level, Level::Zero);
        assert_eq!(GateKind::Nor.evaluate(&lv(&[0, 0])).level, Level::One);
        assert_eq!(GateKind::Xor.evaluate(&lv(&[1, 0, 1])).level, Level::Zero);
        assert_eq!(GateKind::Xnor.evaluate(&lv(&[1, 0])).level, Level::Zero);
        assert_eq!(GateKind::Not.evaluate(&lv(&[0])).level, Level::One);
        assert_eq!(GateKind::Buf.evaluate(&lv(&[1])).level, Level::One);
    }

    #[test]
    fn wide_gates_fold() {
        let inputs = lv(&[1, 1, 1, 1, 1, 0]);
        assert_eq!(GateKind::And.evaluate(&inputs).level, Level::Zero);
        assert_eq!(GateKind::Or.evaluate(&inputs).level, Level::One);
    }

    #[test]
    fn x_propagation_is_pessimistic_but_dominant_values_win() {
        assert_eq!(
            GateKind::And.evaluate(&[Level::Zero, Level::X]).level,
            Level::Zero
        );
        assert_eq!(
            GateKind::Or.evaluate(&[Level::One, Level::X]).level,
            Level::One
        );
        assert_eq!(
            GateKind::And.evaluate(&[Level::One, Level::X]).level,
            Level::X
        );
    }

    #[test]
    fn tristate_drives_and_floats() {
        let on = GateKind::Tristate.evaluate(&[Level::One, Level::One]);
        assert_eq!(on, Signal::strong(Level::One));
        let off = GateKind::Tristate.evaluate(&[Level::One, Level::Zero]);
        assert!(off.is_floating());
        let unk = GateKind::Tristate.evaluate(&[Level::One, Level::X]);
        assert_eq!(unk.level, Level::X);
        assert_eq!(unk.strength, Strength::Strong);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_is_enforced() {
        let _ = GateKind::Not.evaluate(&lv(&[1, 0]));
    }

    /// The definition the kernel is held to: the Kleene folds of
    /// `Level::and`/`or`/`xor`, then `not` for the inverting kinds.
    fn reference(kind: GateKind, inputs: &[Level]) -> Signal {
        let and = || inputs.iter().copied().fold(Level::One, Level::and);
        let or = || inputs.iter().copied().fold(Level::Zero, Level::or);
        let xor = || inputs.iter().copied().fold(Level::Zero, Level::xor);
        Signal::strong(match kind {
            GateKind::Buf => inputs[0],
            GateKind::Not => inputs[0].not(),
            GateKind::And => and(),
            GateKind::Nand => and().not(),
            GateKind::Or => or(),
            GateKind::Nor => or().not(),
            GateKind::Xor => xor(),
            GateKind::Xnor => xor().not(),
            GateKind::Tristate => {
                return match inputs[1] {
                    Level::One => Signal::strong(inputs[0]),
                    Level::Zero => Signal::FLOATING,
                    Level::X => Signal::strong(Level::X),
                }
            }
        })
    }

    /// Both entry points against the reference; `evaluate_pins` reads
    /// the levels through pin indices, as the engines read net ids.
    fn check_kernel(kind: GateKind, inputs: &[Level]) {
        let want = reference(kind, inputs);
        let pins: Vec<usize> = (0..inputs.len()).collect();
        assert_eq!(
            kind.evaluate_pins(&pins, |&i| inputs[i]),
            want,
            "{kind:?} {inputs:?}"
        );
        assert_eq!(kind.evaluate(inputs), want, "{kind:?} {inputs:?}");
    }

    fn allows(kind: GateKind, n: usize) -> bool {
        let (min, max) = kind.arity();
        n >= min && max.is_none_or(|m| n <= m)
    }

    #[test]
    fn kernel_matches_kleene_folds_on_every_vector_up_to_six_inputs() {
        for kind in GateKind::ALL {
            for n in (1..=6).filter(|&n| allows(kind, n)) {
                for code in 0..3usize.pow(n as u32) {
                    let inputs: Vec<Level> = (0..n)
                        .map(|i| Level::ALL[code / 3usize.pow(i as u32) % 3])
                        .collect();
                    check_kernel(kind, &inputs);
                }
            }
        }
    }

    proptest::proptest! {
        /// Past small widths: known bits with `X` at random positions
        /// (none, a few, or most), so both the parity and the `X`
        /// bookkeeping run over long folds. Every kind sees the vector,
        /// the fixed-arity ones its first one or two pins.
        #[test]
        fn kernel_matches_kleene_folds_up_to_64_inputs(
            bits in proptest::collection::vec((proptest::arbitrary::any::<bool>(), 0u8..16), 2..=64),
            x_density in 0u8..=16,
        ) {
            let inputs: Vec<Level> = bits
                .iter()
                .map(|&(b, r)| if r < x_density { Level::X } else { Level::from_bool(b) })
                .collect();
            for kind in GateKind::ALL {
                let n = kind.arity().1.unwrap_or(inputs.len());
                check_kernel(kind, &inputs[..n]);
            }
        }
    }

    macro_rules! arity_boundary {
        ($($name:ident: $kind:ident with $n:expr;)*) => {$(
            #[test]
            #[should_panic(expected = "arity violated")]
            fn $name() {
                let pins = vec![0u32; $n];
                let _ = GateKind::$kind.evaluate_pins(&pins, |_| Level::One);
            }
        )*};
    }

    arity_boundary! {
        buf_rejects_no_inputs: Buf with 0;
        buf_rejects_two_inputs: Buf with 2;
        not_rejects_no_inputs: Not with 0;
        not_rejects_two_inputs: Not with 2;
        and_rejects_no_inputs: And with 0;
        and_rejects_one_input: And with 1;
        or_rejects_no_inputs: Or with 0;
        or_rejects_one_input: Or with 1;
        nand_rejects_no_inputs: Nand with 0;
        nand_rejects_one_input: Nand with 1;
        nor_rejects_no_inputs: Nor with 0;
        nor_rejects_one_input: Nor with 1;
        xor_rejects_no_inputs: Xor with 0;
        xor_rejects_one_input: Xor with 1;
        xnor_rejects_no_inputs: Xnor with 0;
        xnor_rejects_one_input: Xnor with 1;
        tristate_rejects_one_input: Tristate with 1;
        tristate_rejects_three_inputs: Tristate with 3;
    }

    #[test]
    fn delay_selection_by_transition() {
        let d = Delay::rise_fall(3, 2);
        assert_eq!(d.for_transition(Level::One), 3);
        assert_eq!(d.for_transition(Level::Zero), 2);
        assert_eq!(d.for_transition(Level::X), 2);
    }

    #[test]
    #[should_panic(expected = "at least one tick")]
    fn zero_delay_rejected() {
        let _ = Delay::uniform(0);
    }

    #[test]
    fn switch_conduction() {
        assert_eq!(SwitchKind::Nmos.conducts(Level::One), Some(true));
        assert_eq!(SwitchKind::Nmos.conducts(Level::Zero), Some(false));
        assert_eq!(SwitchKind::Pmos.conducts(Level::Zero), Some(true));
        assert_eq!(SwitchKind::Pmos.conducts(Level::One), Some(false));
        assert_eq!(SwitchKind::Nmos.conducts(Level::X), None);
        assert_eq!(SwitchKind::Pmos.conducts(Level::X), None);
    }

    #[test]
    fn component_net_listing() {
        let g = Component::Gate {
            kind: GateKind::And,
            inputs: vec![NetId(0), NetId(1)],
            output: NetId(2),
            delay: Delay::default(),
        };
        assert_eq!(g.read_nets(), vec![NetId(0), NetId(1)]);
        assert_eq!(g.driven_nets(), vec![NetId(2)]);
        let s = Component::Switch {
            kind: SwitchKind::Nmos,
            control: NetId(3),
            a: NetId(4),
            b: NetId(5),
        };
        assert_eq!(s.read_nets(), vec![NetId(3), NetId(4), NetId(5)]);
        assert_eq!(s.driven_nets(), vec![NetId(4), NetId(5)]);
    }

    #[test]
    fn transistor_estimates_are_sane() {
        assert_eq!(GateKind::Not.approx_transistors(1), 2);
        assert_eq!(GateKind::Nand.approx_transistors(2), 4);
        assert_eq!(GateKind::And.approx_transistors(2), 6);
        assert!(GateKind::Xor.approx_transistors(2) >= 8);
    }

    #[test]
    fn static_drive_of_pulls_and_supplies() {
        let p = Component::Pull {
            net: NetId(0),
            level: Level::One,
        };
        assert_eq!(p.static_drive(), Some(Signal::resistive(Level::One)));
        let s = Component::Supply {
            net: NetId(0),
            level: Level::Zero,
        };
        assert_eq!(s.static_drive(), Some(Signal::GND));
    }
}
