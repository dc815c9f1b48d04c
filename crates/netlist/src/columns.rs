//! The column store behind [`Netlist`](crate::Netlist): one record per
//! component split into four parallel columns, and every gate's input
//! pins in one [`Csr`].
//!
//! | Column | Per component | Holds |
//! |---|---|---|
//! | `tag` | 1 B | variant and sub-kind (`GateKind`, `SwitchKind` or `Level`) |
//! | `pair` | 8 B | a gate's rise and fall delay, a switch's channel ends `a`, `b` |
//! | `term` | 4 B | a gate's output, a switch's control, the net of the rest |
//! | `pins` | 4 B offset + 4 B per pin | a gate's inputs in pin order; empty otherwise |
//!
//! So a component costs 17 bytes and a gate pin 4 more, with no
//! allocation of its own. [`ComponentColumns`] borrows the four columns:
//! [`ComponentColumns::get`] decodes a record into the [`ComponentRef`]
//! every reader matches on, and an engine's hot loop reads the one
//! column it needs ([`ComponentColumns::kind`] from the tag byte alone).

use crate::component::{ComponentKind, ComponentRef, Delay, GateKind, NetId, SwitchKind};
use crate::csr::{Csr, CsrView};
use crate::value::Level;

/// Tag of a gate; the low nibble is its [`GateKind`] in declaration order.
const GATE: u8 = 0x00;
/// Tag of a switch; the low nibble is its [`SwitchKind`].
const SWITCH: u8 = 0x10;
/// Tag of a primary input.
const INPUT: u8 = 0x20;
/// Tag of a pull; the low nibble is its [`Level`].
const PULL: u8 = 0x30;
/// Tag of a supply rail; the low nibble is its [`Level`].
const SUPPLY: u8 = 0x40;

const SWITCH_KINDS: [SwitchKind; 2] = [SwitchKind::Nmos, SwitchKind::Pmos];

/// Every tag byte decoded, so reading a component's kind is one load
/// from a 512-byte table ([`Columns::push`] writes no other tags).
const KIND_OF_TAG: [ComponentKind; 256] = {
    let mut table = [ComponentKind::Input; 256];
    let mut sub = 0;
    while sub < GateKind::ALL.len() {
        table[GATE as usize + sub] = ComponentKind::Gate(GateKind::ALL[sub]);
        sub += 1;
    }
    let mut sub = 0;
    while sub < SWITCH_KINDS.len() {
        table[SWITCH as usize + sub] = ComponentKind::Switch(SWITCH_KINDS[sub]);
        sub += 1;
    }
    let mut sub = 0;
    while sub < Level::ALL.len() {
        table[PULL as usize + sub] = ComponentKind::Pull(Level::ALL[sub]);
        table[SUPPLY as usize + sub] = ComponentKind::Supply(Level::ALL[sub]);
        sub += 1;
    }
    table
};

/// Components as columns (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct Columns {
    tag: Vec<u8>,
    pair: Vec<[u32; 2]>,
    term: Vec<NetId>,
    pins: Csr<NetId>,
}

impl Columns {
    /// Number of components.
    pub(crate) fn len(&self) -> usize {
        self.tag.len()
    }

    /// Room for `additional` more components.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.tag.reserve(additional);
        self.pair.reserve(additional);
        self.term.reserve(additional);
        self.pins.reserve_rows(additional);
    }

    /// Appends one component; its pins are copied into the pin array.
    pub(crate) fn push(&mut self, comp: ComponentRef<'_>) {
        let (tag, pair, term, pins): (u8, [u32; 2], NetId, &[NetId]) = match comp {
            ComponentRef::Gate {
                kind,
                inputs,
                output,
                delay,
            } => (GATE | kind as u8, [delay.rise, delay.fall], output, inputs),
            ComponentRef::Switch {
                kind,
                control,
                a,
                b,
            } => (SWITCH | kind as u8, [a.0, b.0], control, &[]),
            ComponentRef::Input { net } => (INPUT, [0; 2], net, &[]),
            ComponentRef::Pull { net, level } => (PULL | level as u8, [0; 2], net, &[]),
            ComponentRef::Supply { net, level } => (SUPPLY | level as u8, [0; 2], net, &[]),
        };
        self.tag.push(tag);
        self.pair.push(pair);
        self.term.push(term);
        self.pins.push_row(pins.iter().copied());
    }

    /// The columns, borrowed.
    pub(crate) fn view(&self) -> ComponentColumns<'_> {
        ComponentColumns {
            tag: &self.tag,
            pair: &self.pair,
            term: &self.term,
            pins: self.pins.view(),
        }
    }

    /// Number of components whose tag is in `variant`'s range.
    fn count(&self, variant: u8) -> usize {
        self.tag.iter().filter(|&&t| t & 0xf0 == variant).count()
    }

    /// Number of gates.
    pub(crate) fn num_gates(&self) -> usize {
        self.count(GATE)
    }

    /// Number of switches.
    pub(crate) fn num_switches(&self) -> usize {
        self.count(SWITCH)
    }

    /// Per component, a gate's input pins (empty rows for the rest).
    pub(crate) fn pins(&self) -> &Csr<NetId> {
        &self.pins
    }

    /// Releases the capacity the columns grew past their length.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.tag.shrink_to_fit();
        self.pair.shrink_to_fit();
        self.term.shrink_to_fit();
        self.pins.shrink_to_fit();
    }

    /// Heap bytes the columns hold: their capacities, no walk.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.tag.capacity()
            + self.pair.capacity() * std::mem::size_of::<[u32; 2]>()
            + self.term.capacity() * std::mem::size_of::<NetId>()
            + self.pins.heap_bytes()
    }
}

/// A netlist's component columns, borrowed: what
/// [`Netlist::columns`](crate::Netlist::columns) returns. `Copy`, so an
/// engine holds one beside its own state arrays and reads component `i`
/// one column at a time, with no per-component record of its own.
///
/// Every accessor panics if `i` is out of range.
#[derive(Debug, Clone, Copy)]
pub struct ComponentColumns<'a> {
    tag: &'a [u8],
    pair: &'a [[u32; 2]],
    term: &'a [NetId],
    pins: CsrView<'a, NetId>,
}

impl<'a> ComponentColumns<'a> {
    /// Number of components.
    #[must_use]
    pub fn len(self) -> usize {
        self.tag.len()
    }

    /// Whether there are no components.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.tag.is_empty()
    }

    /// What component `i` is: its tag byte, decoded.
    #[must_use]
    #[inline]
    pub fn kind(self, i: usize) -> ComponentKind {
        KIND_OF_TAG[usize::from(self.tag[i])]
    }

    /// Component `i`'s delay, if it is a gate (any other component's
    /// pair column holds something else: a switch's channel ends, or
    /// zeros).
    #[must_use]
    #[inline]
    pub fn delay(self, i: usize) -> Delay {
        let [rise, fall] = self.pair[i];
        Delay { rise, fall }
    }

    /// Component `i`'s channel ends `(a, b)`, if it is a switch (see
    /// [`ComponentColumns::delay`] for the rest).
    #[must_use]
    #[inline]
    pub fn channel(self, i: usize) -> (NetId, NetId) {
        let [a, b] = self.pair[i];
        (NetId(a), NetId(b))
    }

    /// Component `i`'s one fixed terminal: a gate's output, a switch's
    /// control, the net of an input, pull or supply.
    #[must_use]
    #[inline]
    pub fn terminal(self, i: usize) -> NetId {
        self.term[i]
    }

    /// Component `i`'s input pins in pin order if it is a gate, empty
    /// otherwise.
    #[must_use]
    #[inline]
    pub fn pins(self, i: usize) -> &'a [NetId] {
        self.pins.row(i)
    }

    /// Component `i`, decoded from all four columns.
    #[must_use]
    #[inline]
    pub fn get(self, i: usize) -> ComponentRef<'a> {
        let term = self.term[i];
        match self.kind(i) {
            ComponentKind::Gate(kind) => ComponentRef::Gate {
                kind,
                inputs: self.pins(i),
                output: term,
                delay: self.delay(i),
            },
            ComponentKind::Switch(kind) => {
                let (a, b) = self.channel(i);
                ComponentRef::Switch {
                    kind,
                    control: term,
                    a,
                    b,
                }
            }
            ComponentKind::Input => ComponentRef::Input { net: term },
            ComponentKind::Pull(level) => ComponentRef::Pull { net: term, level },
            ComponentKind::Supply(level) => ComponentRef::Supply { net: term, level },
        }
    }

    /// Every component in id order.
    pub fn iter(self) -> impl Iterator<Item = ComponentRef<'a>> + 'a {
        (0..self.len()).map(move |i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Component;

    #[test]
    fn every_kind_decodes_to_what_was_pushed() {
        let (n, m, o) = (NetId(3), NetId(5), NetId(8));
        let mut comps: Vec<Component> = GateKind::ALL
            .iter()
            .enumerate()
            .map(|(i, &kind)| Component::Gate {
                kind,
                inputs: vec![n; kind.arity().0 + i % 3],
                output: o,
                delay: Delay::rise_fall(1 + i as u32, 7),
            })
            .collect();
        for kind in SWITCH_KINDS {
            comps.push(Component::Switch {
                kind,
                control: n,
                a: m,
                b: o,
            });
        }
        comps.push(Component::Input { net: m });
        for level in Level::ALL {
            comps.push(Component::Pull { net: n, level });
            comps.push(Component::Supply { net: o, level });
        }
        let mut cols = Columns::default();
        for c in &comps {
            cols.push(c.as_ref());
        }
        assert_eq!(cols.len(), comps.len());
        for (i, c) in comps.iter().enumerate() {
            assert_eq!(cols.view().get(i), c.as_ref());
            assert_eq!(cols.view().get(i).to_owned(), *c);
        }
        assert_eq!(cols.num_gates(), GateKind::ALL.len());
        assert_eq!(cols.num_switches(), 2);
    }
}
