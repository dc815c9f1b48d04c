//! Random *cyclic* circuits for the bit-parallel engine's tests: feedback
//! elements of the kinds the five benchmark circuits are made of (and
//! one that cannot settle) and multiply-driven nets — buses, fights,
//! a supplied channel member — wired to six primary inputs and followed
//! by random gates.
//!
//! The crate's unit tests include this file by `#[path]` (`src/lib.rs`):
//! the oracle proptest in `src/bitpar.rs`, which reaches the private
//! reference sweep, and the settle-rule invariant in `src/engine.rs`,
//! which reaches the engines' settle records. `tests/proptests.rs` uses
//! it too (the event engine as the second opinion to `BitParSim`). It
//! uses `logicsim_netlist` only.

use logicsim_netlist::{Delay, GateKind, Level, NetId, Netlist, NetlistBuilder, SwitchKind};

/// Primary inputs of every generated circuit (`in0`..`in5`).
pub const INPUTS: usize = 6;

/// Raw material for one element: a kind selector and a pick for each of
/// its two data pins and two control pins (an element uses the pins its
/// kind has; a third control pin is derived from the two picks),
/// reduced modulo whatever it chooses among.
pub type Element = (u8, usize, usize, usize, usize);

/// Raw material for one trailing gate: a kind selector and two pin picks.
pub type Gate = (u8, usize, usize);

/// How pins find their nets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(dead_code)] // each suite that includes this file builds one of the two
pub enum Wiring {
    /// Element pins read primary inputs only — data pins (a latch's `d`,
    /// a switch's channel end) among `in0..in2`, control pins (enables,
    /// switch gates; those of one element distinct) among `in3..in5` —
    /// and a trailing gate reads only nets made before it. Every
    /// feedback loop is then the inside of one element, no loop input
    /// can glitch, and no input reaches a loop by two paths. Under a
    /// stimulus that changes one input per vector, what such a circuit
    /// settles to does not depend on delays or evaluation order — the
    /// event engine and a levelized fixpoint must agree on it.
    Tame,
    /// One pin pick in four reads *any* signal of the circuit, made
    /// before or after: elements chain into one another through the
    /// trailing gates and clusters of many ops appear, racy and
    /// oscillating ones included. Only two runs of one algorithm can be
    /// compared on these.
    Wild,
}

/// A generated circuit and its primary inputs.
#[derive(Debug)]
pub struct Cyclic {
    pub netlist: Netlist,
    pub inputs: Vec<NetId>,
}

/// The nets one element or gate owns, allocated before any pin is wired
/// so that a pin may name a net made later.
struct Nets {
    /// Signals visible to this item under [`Wiring::Tame`]: how many
    /// entries `signals` held when the item was allocated.
    seen: usize,
    own: Vec<NetId>,
}

/// Builds the circuit. Element kinds, by `selector % 11`, over data pins
/// `d0`, `d1` and control pins `c0`, `c1`, `c2`:
///
/// 0. cross-coupled NAND latch (`q = NAND(c0, qn)`, `qn = NAND(c1, q)`);
/// 1. hazard-free transparent D latch from gates
///    (`q = d0·c0 + q·¬c0 + d0·q`);
/// 2. pass-gate cell inside a feedback path: a storage node written
///    from `d0` through an nMOS port (`c0`), read by an inverter,
///    restored from the inverter pair through a second port (`c1`);
/// 3. a control net fed back into its own cell: the storage node gates
///    the switch that connects it to `d0`, and is written from `d1`
///    through a port (`c0`);
/// 4. an enable-gated ring (`NAND(c0, c1, x) → BUF → x`): oscillates,
///    and is X-forced, while both enables are 1;
/// 5. cross-coupled nMOS NOR latch: two pulled-up nodes, each with a
///    pulldown to the ground rail gated by `c0`/`c1` and one gated by
///    the other node (two cells in one cluster, no gate between them);
/// 6. a live tristate (`d0` enabled by `c0`) alone on its net;
/// 7. a bus without a switch: two tristates (`d0` by `c0`, `d1` by
///    `c1`) and a pull-up;
/// 8. that bus through a pass gate (`c2`) onto a storage node an
///    inverter reads;
/// 9. two always-on gates (`BUF(d0)`, `NOT(d1)`) fighting over one
///    channel member, a pass gate (`c0`) behind it;
/// 10. a supply on a channel member that a gate (`BUF(d0)`) also
///     drives, a pass gate (`c0`) behind it.
pub fn build(elements: &[Element], gates: &[Gate], wiring: Wiring) -> Cyclic {
    let mut b = NetlistBuilder::new("cyclic");
    let inputs: Vec<NetId> = (0..INPUTS).map(|i| b.input(format!("in{i}"))).collect();
    let gnd = b.net("gnd");
    b.supply(gnd, Level::Zero);

    // Every net first.
    let mut signals = inputs.clone();
    fn alloc(b: &mut NetlistBuilder, signals: &mut Vec<NetId>, hints: &[&str]) -> Nets {
        let seen = signals.len();
        let own: Vec<NetId> = hints.iter().map(|h| b.fresh(h)).collect();
        signals.extend(&own);
        Nets { seen, own }
    }
    let element_nets: Vec<Nets> = elements
        .iter()
        .map(|&(sel, ..)| {
            let hints: &[&str] = match sel % 11 {
                0 => &["q", "qn"],
                1 => &["q", "n_en", "a1", "a2", "a3"],
                2 => &["s", "q", "fb"],
                3 => &["y"],
                4 => &["ring_y", "ring_x"],
                5 => &["y1", "y2"],
                6 => &["tri"],
                7 => &["bus"],
                8 => &["bus", "s", "q"],
                9 => &["fight", "s"],
                _ => &["rail", "s"],
            };
            alloc(&mut b, &mut signals, hints)
        })
        .collect();
    let gate_nets: Vec<Nets> = gates
        .iter()
        .map(|_| alloc(&mut b, &mut signals, &["w"]))
        .collect();

    // Then the components.
    let unit = Delay::uniform(1);
    let any = |pick: usize, seen: usize| {
        if wiring == Wiring::Wild && pick.is_multiple_of(4) {
            signals[(pick / 4) % signals.len()]
        } else {
            signals[(pick / 4) % seen]
        }
    };
    for (&(sel, p0, p1, p2, p3), nets) in elements.iter().zip(&element_nets) {
        let [d0, d1, c0, c1, c2] = match wiring {
            Wiring::Tame => {
                let (i0, i1) = (p2 % 3, (p2 % 3 + 1 + p3 % 2) % 3);
                [
                    inputs[p0 % 3],
                    inputs[p1 % 3],
                    inputs[3 + i0],
                    inputs[3 + i1],
                    inputs[3 + (3 - i0 - i1)],
                ]
            }
            Wiring::Wild => [p0, p1, p2, p3, p2.wrapping_mul(31) ^ p3].map(|p| any(p, nets.seen)),
        };
        let n = &nets.own;
        let bus = |b: &mut NetlistBuilder| {
            b.gate(GateKind::Tristate, &[d0, c0], n[0], unit);
            b.gate(GateKind::Tristate, &[d1, c1], n[0], unit);
            b.pull(n[0], Level::One);
        };
        match sel % 11 {
            0 => {
                b.gate(GateKind::Nand, &[c0, n[1]], n[0], unit);
                b.gate(GateKind::Nand, &[c1, n[0]], n[1], unit);
            }
            1 => {
                b.gate(GateKind::Not, &[c0], n[1], unit);
                b.gate(GateKind::And, &[d0, c0], n[2], unit);
                b.gate(GateKind::And, &[n[0], n[1]], n[3], unit);
                b.gate(GateKind::And, &[d0, n[0]], n[4], unit);
                b.gate(GateKind::Or, &[n[2], n[3], n[4]], n[0], unit);
            }
            2 => {
                b.switch(SwitchKind::Nmos, c0, d0, n[0]);
                b.gate(GateKind::Not, &[n[0]], n[1], unit);
                b.gate(GateKind::Not, &[n[1]], n[2], unit);
                b.switch(SwitchKind::Nmos, c1, n[2], n[0]);
            }
            3 => {
                b.switch(SwitchKind::Nmos, n[0], d0, n[0]);
                b.switch(SwitchKind::Nmos, c0, d1, n[0]);
            }
            4 => {
                b.gate(GateKind::Nand, &[c0, c1, n[1]], n[0], unit);
                b.gate(GateKind::Buf, &[n[0]], n[1], unit);
            }
            5 => {
                for (node, other, set) in [(n[0], n[1], c0), (n[1], n[0], c1)] {
                    b.pull(node, Level::One);
                    b.switch(SwitchKind::Nmos, set, node, gnd);
                    b.switch(SwitchKind::Nmos, other, node, gnd);
                }
            }
            6 => {
                b.gate(GateKind::Tristate, &[d0, c0], n[0], unit);
            }
            7 => bus(&mut b),
            8 => {
                bus(&mut b);
                b.switch(SwitchKind::Nmos, c2, n[0], n[1]);
                b.gate(GateKind::Not, &[n[1]], n[2], unit);
            }
            9 => {
                b.gate(GateKind::Buf, &[d0], n[0], unit);
                b.gate(GateKind::Not, &[d1], n[0], unit);
                b.switch(SwitchKind::Nmos, c0, n[0], n[1]);
            }
            _ => {
                b.supply(n[0], Level::One);
                b.gate(GateKind::Buf, &[d0], n[0], unit);
                b.switch(SwitchKind::Nmos, c0, n[0], n[1]);
            }
        }
    }
    for (&(sel, x, y), nets) in gates.iter().zip(&gate_nets) {
        let kind = [
            GateKind::And,
            GateKind::Or,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Not,
            GateKind::Buf,
        ][sel as usize % 8];
        let (a, c) = (any(x, nets.seen), any(y, nets.seen));
        if matches!(kind, GateKind::Not | GateKind::Buf) {
            b.gate(kind, &[a], nets.own[0], unit);
        } else {
            b.gate(kind, &[a, c], nets.own[0], unit);
        }
        b.mark_output(nets.own[0]);
    }
    Cyclic {
        netlist: b.finish().expect("valid by construction"),
        inputs,
    }
}
