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
//! allocation of its own. [`Columns::get`] decodes a record into the
//! [`ComponentRef`] every reader matches on.

use crate::component::{ComponentRef, Delay, GateKind, NetId, SwitchKind};
use crate::csr::Csr;
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

    /// The component at index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> ComponentRef<'_> {
        let tag = self.tag[i];
        let sub = usize::from(tag & 0x0f);
        let [x, y] = self.pair[i];
        let term = self.term[i];
        match tag & 0xf0 {
            GATE => ComponentRef::Gate {
                kind: GateKind::ALL[sub],
                inputs: self.pins.row(i),
                output: term,
                delay: Delay { rise: x, fall: y },
            },
            SWITCH => ComponentRef::Switch {
                kind: SWITCH_KINDS[sub],
                control: term,
                a: NetId(x),
                b: NetId(y),
            },
            INPUT => ComponentRef::Input { net: term },
            PULL => ComponentRef::Pull {
                net: term,
                level: Level::ALL[sub],
            },
            _ => ComponentRef::Supply {
                net: term,
                level: Level::ALL[sub],
            },
        }
    }

    /// Every component in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = ComponentRef<'_>> + '_ {
        (0..self.len()).map(|i| self.get(i))
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
            assert_eq!(cols.get(i), c.as_ref());
            assert_eq!(cols.get(i).to_owned(), *c);
        }
        assert_eq!(cols.num_gates(), GateKind::ALL.len());
        assert_eq!(cols.num_switches(), 2);
    }
}
