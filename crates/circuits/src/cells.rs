//! Structural macro-cell library.
//!
//! Three implementation styles coexist, mirroring the mixed
//! gate/switch-level designs in the paper's benchmark:
//!
//! * **gate-level** cells (plain [`GateKind`] networks) — used by the
//!   all-gate crossbar switch and for control logic everywhere;
//! * **nmos switch-level** cells (pull-ups plus NMOS pull-down
//!   networks and pass transistors) — used by the nmos chips;
//! * **CMOS transmission-gate** cells (TG muxes and TG dynamic
//!   flip-flops) — used by the cmos priority queue.

use logicsim_netlist::SwitchKind;
use logicsim_netlist::{Delay, GateKind, Level, NetId, NetlistBuilder};

/// Power and ground rails for switch-level cells.
#[derive(Debug, Clone, Copy)]
pub struct Rails {
    /// VDD (supply 1).
    pub vdd: NetId,
    /// GND (supply 0).
    pub gnd: NetId,
}

impl Rails {
    /// Creates the rails once per netlist.
    pub fn new(b: &mut NetlistBuilder) -> Rails {
        let vdd = b.net("vdd!");
        let gnd = b.net("gnd!");
        b.supply(vdd, Level::One);
        b.supply(gnd, Level::Zero);
        Rails { vdd, gnd }
    }
}

/// Default gate delay used by the cell library (1 tick rise/fall).
#[must_use]
pub fn d1() -> Delay {
    Delay::uniform(1)
}

// ---------------------------------------------------------------------
// Gate-level cells
// ---------------------------------------------------------------------

/// Inverter.
pub fn inv(b: &mut NetlistBuilder, a: NetId, hint: &str) -> NetId {
    let y = b.fresh(hint);
    b.gate(GateKind::Not, &[a], y, d1());
    y
}

/// 2-input AND.
pub fn and2(b: &mut NetlistBuilder, x: NetId, y: NetId, hint: &str) -> NetId {
    let out = b.fresh(hint);
    b.gate(GateKind::And, &[x, y], out, d1());
    out
}

/// 2-input OR.
pub fn or2(b: &mut NetlistBuilder, x: NetId, y: NetId, hint: &str) -> NetId {
    let out = b.fresh(hint);
    b.gate(GateKind::Or, &[x, y], out, d1());
    out
}

/// 2-input XOR.
pub fn xor2(b: &mut NetlistBuilder, x: NetId, y: NetId, hint: &str) -> NetId {
    let out = b.fresh(hint);
    b.gate(GateKind::Xor, &[x, y], out, d1());
    out
}

/// 2-input XNOR.
pub fn xnor2(b: &mut NetlistBuilder, x: NetId, y: NetId, hint: &str) -> NetId {
    let out = b.fresh(hint);
    b.gate(GateKind::Xnor, &[x, y], out, d1());
    out
}

/// Wide AND over any number of inputs (single wide gate, like lsim).
pub fn and_n(b: &mut NetlistBuilder, inputs: &[NetId], hint: &str) -> NetId {
    assert!(!inputs.is_empty(), "and_n needs inputs");
    if inputs.len() == 1 {
        let y = b.fresh(hint);
        b.gate(GateKind::Buf, &[inputs[0]], y, d1());
        return y;
    }
    let y = b.fresh(hint);
    b.gate(GateKind::And, inputs, y, d1());
    y
}

/// Wide OR.
pub fn or_n(b: &mut NetlistBuilder, inputs: &[NetId], hint: &str) -> NetId {
    assert!(!inputs.is_empty(), "or_n needs inputs");
    if inputs.len() == 1 {
        let y = b.fresh(hint);
        b.gate(GateKind::Buf, &[inputs[0]], y, d1());
        return y;
    }
    let y = b.fresh(hint);
    b.gate(GateKind::Or, inputs, y, d1());
    y
}

/// Positive-edge-triggered D flip-flop (classic 6-NAND structure).
pub fn dff(b: &mut NetlistBuilder, clk: NetId, d: NetId, hint: &str) -> NetId {
    // Nets of the 6-NAND edge-triggered DFF.
    let n1 = b.fresh(hint);
    let n2 = b.fresh(hint);
    let n3 = b.fresh(hint);
    let n4 = b.fresh(hint);
    let q = b.fresh(hint);
    let qn = b.fresh(hint);
    b.gate(GateKind::Nand, &[n4, n2], n1, d1());
    b.gate(GateKind::Nand, &[n1, clk], n2, d1());
    b.gate(GateKind::Nand, &[n2, clk, n4], n3, d1());
    b.gate(GateKind::Nand, &[n3, d], n4, d1());
    b.gate(GateKind::Nand, &[n2, qn], q, d1());
    b.gate(GateKind::Nand, &[n3, q], qn, d1());
    q
}

/// Full adder: returns `(sum, carry_out)`.
pub fn full_adder(
    b: &mut NetlistBuilder,
    a: NetId,
    bb: NetId,
    cin: NetId,
    hint: &str,
) -> (NetId, NetId) {
    let axb = xor2(b, a, bb, hint);
    let sum = xor2(b, axb, cin, hint);
    let t1 = and2(b, a, bb, hint);
    let t2 = and2(b, axb, cin, hint);
    let cout = or2(b, t1, t2, hint);
    (sum, cout)
}

/// Ripple-carry adder over equal-width operands; returns
/// `(sum_bits, carry_out)`.
///
/// # Panics
///
/// Panics if operand widths differ or are zero.
pub fn ripple_adder(
    b: &mut NetlistBuilder,
    a: &[NetId],
    bb: &[NetId],
    cin: NetId,
    hint: &str,
) -> (Vec<NetId>, NetId) {
    assert!(!a.is_empty() && a.len() == bb.len(), "width mismatch");
    let mut carry = cin;
    let mut sums = Vec::with_capacity(a.len());
    for (&ai, &bi) in a.iter().zip(bb) {
        let (s, c) = full_adder(b, ai, bi, carry, hint);
        sums.push(s);
        carry = c;
    }
    (sums, carry)
}

/// Ripple-carry adder that drops the final carry-out — for saturating or
/// modular accumulators where the carry chain's last gates would be dead
/// logic (LS0003). Returns only the sum bits.
///
/// # Panics
///
/// Panics if operand widths differ or are zero.
pub fn ripple_adder_mod(
    b: &mut NetlistBuilder,
    a: &[NetId],
    bb: &[NetId],
    cin: NetId,
    hint: &str,
) -> Vec<NetId> {
    assert!(!a.is_empty() && a.len() == bb.len(), "width mismatch");
    let mut carry = cin;
    let mut sums = Vec::with_capacity(a.len());
    let last = a.len() - 1;
    for (i, (&ai, &bi)) in a.iter().zip(bb).enumerate() {
        if i == last {
            // Sum only: the carry-out of the top bit is discarded.
            let axb = xor2(b, ai, bi, hint);
            sums.push(xor2(b, axb, carry, hint));
        } else {
            let (s, c) = full_adder(b, ai, bi, carry, hint);
            sums.push(s);
            carry = c;
        }
    }
    sums
}

/// N-bit register of edge-triggered DFFs; returns the `q` bits.
pub fn register(b: &mut NetlistBuilder, clk: NetId, d: &[NetId], hint: &str) -> Vec<NetId> {
    d.iter().map(|&di| dff(b, clk, di, hint)).collect()
}

/// Synchronous binary counter with enable and synchronous reset;
/// returns the count bits, LSB first.
///
/// The reset is what lets the counter escape the all-`X` power-up
/// state: `next = (q XOR carry) AND NOT rst` forces known zeros in.
pub fn counter(
    b: &mut NetlistBuilder,
    clk: NetId,
    en: NetId,
    rst: NetId,
    bits: usize,
    hint: &str,
) -> Vec<NetId> {
    assert!(bits >= 1, "counter needs at least one bit");
    let rst_n = inv(b, rst, hint);
    let mut qs = Vec::with_capacity(bits);
    let mut carry = en;
    for i in 0..bits {
        let din = b.fresh(hint);
        let q = dff(b, clk, din, hint);
        let toggled = xor2(b, q, carry, hint);
        let next = and2(b, toggled, rst_n, hint);
        b.gate(GateKind::Buf, &[next], din, d1());
        // The MSB's carry-out would be dead logic (LS0003): no caller
        // consumes it, so don't build it.
        if i + 1 < bits {
            carry = and2(b, carry, q, hint);
        }
        qs.push(q);
    }
    qs
}

/// Less-than comparator (`a < b`, unsigned, LSB-first operands) via a
/// ripple borrow chain.
pub fn lt_comparator(b: &mut NetlistBuilder, a: &[NetId], bb: &[NetId], hint: &str) -> NetId {
    assert!(!a.is_empty() && a.len() == bb.len(), "width mismatch");
    // borrow_{i+1} = (~a_i & b_i) | ((a_i XNOR b_i) & borrow_i)
    let zero = b.fresh(hint);
    // A constant 0 from a gate: NOT of a fresh... use XOR(a0, a0) = 0.
    b.gate(GateKind::Xor, &[a[0], a[0]], zero, d1());
    let mut borrow = zero;
    for (&ai, &bi) in a.iter().zip(bb) {
        let na = inv(b, ai, hint);
        let gen = and2(b, na, bi, hint);
        let eq = xnor2(b, ai, bi, hint);
        let prop = and2(b, eq, borrow, hint);
        borrow = or2(b, gen, prop, hint);
    }
    borrow
}

/// n-to-2^n decoder; returns the one-hot outputs.
pub fn decoder(b: &mut NetlistBuilder, sel: &[NetId], hint: &str) -> Vec<NetId> {
    decoder_limited(b, sel, 1usize << sel.len(), hint)
}

/// Decoder emitting only the first `count` one-hot outputs — for
/// non-power-of-two structures, where the trailing codes would be dead
/// logic (LS0003).
pub fn decoder_limited(
    b: &mut NetlistBuilder,
    sel: &[NetId],
    count: usize,
    hint: &str,
) -> Vec<NetId> {
    assert!(!sel.is_empty(), "decoder needs select bits");
    assert!(
        count >= 1 && count <= 1usize << sel.len(),
        "bad decoder count"
    );
    let sel_n: Vec<NetId> = sel.iter().map(|&s| inv(b, s, hint)).collect();
    (0..count)
        .map(|code| {
            let terms: Vec<NetId> = sel
                .iter()
                .enumerate()
                .map(|(i, &s)| if code >> i & 1 == 1 { s } else { sel_n[i] })
                .collect();
            and_n(b, &terms, hint)
        })
        .collect()
}

/// Gate-level Muller C-element: output follows the inputs when they
/// agree, holds otherwise. `y = ab + y(a + b)` with feedback.
pub fn c_element(b: &mut NetlistBuilder, a: NetId, bb: NetId, hint: &str) -> NetId {
    let y = b.fresh(hint);
    let both = and2(b, a, bb, hint);
    let either = or2(b, a, bb, hint);
    let hold = and2(b, y, either, hint);
    b.gate(GateKind::Or, &[both, hold], y, d1());
    y
}

// ---------------------------------------------------------------------
// nmos switch-level cells
// ---------------------------------------------------------------------

/// nmos inverter: depletion pull-up plus an NMOS pull-down.
/// One switch, one pull.
pub fn nmos_inv(b: &mut NetlistBuilder, rails: Rails, a: NetId, hint: &str) -> NetId {
    let y = b.fresh(hint);
    b.pull(y, Level::One);
    b.switch(SwitchKind::Nmos, a, y, rails.gnd);
    y
}

/// NMOS pass transistor: `y` is connected to `a` while `ctl` is high
/// (charge-stored otherwise).
pub fn nmos_pass(b: &mut NetlistBuilder, ctl: NetId, a: NetId, hint: &str) -> NetId {
    let y = b.fresh(hint);
    b.switch(SwitchKind::Nmos, ctl, a, y);
    y
}

/// Dynamic nmos latch: pass transistor into an nmos inverter; the
/// stored node keeps its charge while the clock is low. Returns the
/// (inverting) output.
pub fn nmos_dyn_latch(
    b: &mut NetlistBuilder,
    rails: Rails,
    clk: NetId,
    d: NetId,
    hint: &str,
) -> NetId {
    let stored = nmos_pass(b, clk, d, hint);
    nmos_inv(b, rails, stored, hint)
}

// ---------------------------------------------------------------------
// CMOS transmission-gate cells
// ---------------------------------------------------------------------

/// CMOS transmission-gate 2:1 mux (`sel = 1` selects `a1`); 4 switches.
/// `sel_n` must be the complement of `sel`.
pub fn tg_mux2(
    b: &mut NetlistBuilder,
    sel: NetId,
    sel_n: NetId,
    a0: NetId,
    a1: NetId,
    hint: &str,
) -> NetId {
    let y = b.fresh(hint);
    b.transmission_gate(sel, sel_n, a1, y);
    b.transmission_gate(sel_n, sel, a0, y);
    y
}

/// CMOS transmission-gate 2:1 mux with a restoring output buffer.
///
/// The buffer is not cosmetic: a bare TG junction is bidirectional, so
/// an `X` on the select (power-up, or a glitch) leaks `X` *backward*
/// into the mux's input nets at pass strength. When those inputs feed
/// the logic that computes the select, the whole structure can lock
/// into a self-consistent `X` fixpoint. The strong gate drive of the
/// buffer blocks the backward path, exactly like the level restorer in
/// a real TG mux standard cell.
pub fn tg_mux2_buf(
    b: &mut NetlistBuilder,
    sel: NetId,
    sel_n: NetId,
    a0: NetId,
    a1: NetId,
    hint: &str,
) -> NetId {
    let junction = tg_mux2(b, sel, sel_n, a0, a1, hint);
    let y = b.fresh(hint);
    b.gate(GateKind::Buf, &[junction], y, d1());
    y
}

/// Dynamic CMOS TG flip-flop (master-slave, positive edge): two TGs and
/// two inverters; 4 switches + 2 gates. Non-inverting.
pub fn tg_dff(b: &mut NetlistBuilder, clk: NetId, clk_n: NetId, d: NetId, hint: &str) -> NetId {
    let m = b.fresh(hint);
    b.transmission_gate(clk_n, clk, d, m);
    let mi = inv(b, m, hint);
    let s = b.fresh(hint);
    b.transmission_gate(clk, clk_n, mi, s);
    inv(b, s, hint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use logicsim_netlist::Netlist;
    use logicsim_sim::Simulator;

    fn finish(b: NetlistBuilder) -> Netlist {
        b.finish().expect("cell circuit must validate")
    }

    /// Drives inputs and runs long enough for combinational settling.
    fn settle(sim: &mut Simulator<'_>, assignments: &[(NetId, Level)]) {
        for &(n, l) in assignments {
            sim.set_input(n, l);
        }
        let t = sim.now();
        sim.run_until(t + 64);
    }

    #[test]
    fn dff_captures_on_rising_edge() {
        let mut b = NetlistBuilder::new("t");
        let (clk, d) = (b.input("clk"), b.input("d"));
        let q = dff(&mut b, clk, d, "ff");
        b.mark_output(q);
        let n = finish(b);
        let q = n.outputs()[0];
        let mut sim = Simulator::new(&n).expect("pre-flight");
        settle(&mut sim, &[(clk, Level::Zero), (d, Level::One)]);
        settle(&mut sim, &[(clk, Level::One)]); // rising edge: capture 1
        assert_eq!(sim.level(q), Level::One);
        settle(&mut sim, &[(clk, Level::Zero), (d, Level::Zero)]);
        assert_eq!(sim.level(q), Level::One, "q must hold while clk low");
        settle(&mut sim, &[(clk, Level::One)]); // capture 0
        assert_eq!(sim.level(q), Level::Zero);
    }

    #[test]
    fn ripple_adder_adds() {
        let mut b = NetlistBuilder::new("t");
        let a: Vec<NetId> = (0..4).map(|i| b.input(format!("a{i}"))).collect();
        let bb: Vec<NetId> = (0..4).map(|i| b.input(format!("b{i}"))).collect();
        let cin = b.input("cin");
        let (sum, cout) = ripple_adder(&mut b, &a, &bb, cin, "add");
        for s in &sum {
            b.mark_output(*s);
        }
        b.mark_output(cout);
        let n = finish(b);
        let mut sim = Simulator::new(&n).expect("pre-flight");
        // 11 + 6 + 1 = 18 = 0b10010.
        let mut drives = vec![(cin, Level::One)];
        for (i, &ai) in a.iter().enumerate() {
            drives.push((ai, Level::from_bool(11 >> i & 1 == 1)));
        }
        for (i, &bi) in bb.iter().enumerate() {
            drives.push((bi, Level::from_bool(6 >> i & 1 == 1)));
        }
        settle(&mut sim, &drives);
        let mut got = 0u32;
        for (i, &s) in sum.iter().enumerate() {
            if sim.level(s) == Level::One {
                got |= 1 << i;
            }
        }
        if sim.level(cout) == Level::One {
            got |= 1 << 4;
        }
        assert_eq!(got, 18);
    }

    #[test]
    fn counter_counts() {
        let mut b = NetlistBuilder::new("t");
        let (clk, en, rst) = (b.input("clk"), b.input("en"), b.input("rst"));
        let qs = counter(&mut b, clk, en, rst, 3, "cnt");
        for q in &qs {
            b.mark_output(*q);
        }
        let n = finish(b);
        let mut sim = Simulator::new(&n).expect("pre-flight");
        // Synchronous reset flushes the all-X power-up state.
        settle(
            &mut sim,
            &[(en, Level::One), (rst, Level::One), (clk, Level::Zero)],
        );
        for _ in 0..2 {
            settle(&mut sim, &[(clk, Level::One)]);
            settle(&mut sim, &[(clk, Level::Zero)]);
        }
        settle(&mut sim, &[(rst, Level::Zero)]);
        let read = |sim: &Simulator<'_>| -> Option<u32> {
            let mut v = 0;
            for (i, &q) in qs.iter().enumerate() {
                match sim.level(q).to_bool() {
                    Some(true) => v |= 1 << i,
                    Some(false) => {}
                    None => return None,
                }
            }
            Some(v)
        };
        let v0 = read(&sim);
        settle(&mut sim, &[(clk, Level::One)]);
        settle(&mut sim, &[(clk, Level::Zero)]);
        let v1 = read(&sim);
        if let (Some(v0), Some(v1)) = (v0, v1) {
            assert_eq!(v1, (v0 + 1) % 8, "count {v0} -> {v1}");
        } else {
            panic!("counter bits still unknown after clocking: {v0:?} {v1:?}");
        }
        // Enable low: holds.
        settle(&mut sim, &[(en, Level::Zero)]);
        let held = read(&sim);
        settle(&mut sim, &[(clk, Level::One)]);
        settle(&mut sim, &[(clk, Level::Zero)]);
        assert_eq!(read(&sim), held);
    }

    #[test]
    fn lt_comparator_compares() {
        let mut b = NetlistBuilder::new("t");
        let a: Vec<NetId> = (0..4).map(|i| b.input(format!("a{i}"))).collect();
        let bb: Vec<NetId> = (0..4).map(|i| b.input(format!("b{i}"))).collect();
        let lt = lt_comparator(&mut b, &a, &bb, "lt");
        b.mark_output(lt);
        let n = finish(b);
        let mut sim = Simulator::new(&n).expect("pre-flight");
        let set = |sim: &mut Simulator<'_>, av: u32, bv: u32| {
            let mut drives = Vec::new();
            for i in 0..4 {
                drives.push((a[i], Level::from_bool(av >> i & 1 == 1)));
                drives.push((bb[i], Level::from_bool(bv >> i & 1 == 1)));
            }
            settle(sim, &drives);
        };
        set(&mut sim, 5, 5);
        assert_eq!(sim.level(lt), Level::Zero);
        set(&mut sim, 3, 9);
        assert_eq!(sim.level(lt), Level::One);
        set(&mut sim, 12, 7);
        assert_eq!(sim.level(lt), Level::Zero);
    }

    #[test]
    fn decoder_is_one_hot() {
        let mut b = NetlistBuilder::new("t");
        let sel: Vec<NetId> = (0..2).map(|i| b.input(format!("s{i}"))).collect();
        let outs = decoder(&mut b, &sel, "dec");
        for o in &outs {
            b.mark_output(*o);
        }
        let n = finish(b);
        let mut sim = Simulator::new(&n).expect("pre-flight");
        for code in 0..4u32 {
            settle(
                &mut sim,
                &[
                    (sel[0], Level::from_bool(code & 1 == 1)),
                    (sel[1], Level::from_bool(code >> 1 & 1 == 1)),
                ],
            );
            for (i, &o) in outs.iter().enumerate() {
                let expect = Level::from_bool(i as u32 == code);
                assert_eq!(sim.level(o), expect, "code {code} out {i}");
            }
        }
    }

    #[test]
    fn c_element_holds_on_disagreement() {
        let mut b = NetlistBuilder::new("t");
        let (x, y) = (b.input("x"), b.input("y"));
        let c = c_element(&mut b, x, y, "c");
        b.mark_output(c);
        let n = finish(b);
        let mut sim = Simulator::new(&n).expect("pre-flight");
        settle(&mut sim, &[(x, Level::Zero), (y, Level::Zero)]);
        assert_eq!(sim.level(c), Level::Zero);
        settle(&mut sim, &[(x, Level::One)]);
        assert_eq!(sim.level(c), Level::Zero, "disagreement holds");
        settle(&mut sim, &[(y, Level::One)]);
        assert_eq!(sim.level(c), Level::One, "agreement switches");
        settle(&mut sim, &[(x, Level::Zero)]);
        assert_eq!(sim.level(c), Level::One, "disagreement holds high");
        settle(&mut sim, &[(y, Level::Zero)]);
        assert_eq!(sim.level(c), Level::Zero);
    }

    #[test]
    fn nmos_inv_inverts() {
        let mut b = NetlistBuilder::new("t");
        let rails = Rails::new(&mut b);
        let x = b.input("x");
        let ni = nmos_inv(&mut b, rails, x, "ni");
        b.mark_output(ni);
        let n = finish(b);
        let mut sim = Simulator::new(&n).expect("pre-flight");
        settle(&mut sim, &[(x, Level::One)]);
        assert_eq!(sim.level(ni), Level::Zero);
        settle(&mut sim, &[(x, Level::Zero)]);
        assert_eq!(sim.level(ni), Level::One);
    }

    #[test]
    fn tg_mux_and_tg_dff() {
        let mut b = NetlistBuilder::new("t");
        let (sel, a0, a1) = (b.input("sel"), b.input("a0"), b.input("a1"));
        let sel_n = inv(&mut b, sel, "sn");
        let y = tg_mux2(&mut b, sel, sel_n, a0, a1, "tm");
        let (clk, d) = (b.input("clk"), b.input("d"));
        let clk_n = inv(&mut b, clk, "cn");
        let q = tg_dff(&mut b, clk, clk_n, d, "tf");
        b.mark_output(y);
        b.mark_output(q);
        let n = finish(b);
        let mut sim = Simulator::new(&n).expect("pre-flight");
        settle(
            &mut sim,
            &[(sel, Level::One), (a0, Level::Zero), (a1, Level::One)],
        );
        assert_eq!(sim.level(y), Level::One);
        settle(&mut sim, &[(sel, Level::Zero)]);
        assert_eq!(sim.level(y), Level::Zero);
        // TG DFF: load on rising edge.
        settle(&mut sim, &[(clk, Level::Zero), (d, Level::One)]);
        settle(&mut sim, &[(clk, Level::One)]);
        assert_eq!(sim.level(q), Level::One);
        settle(&mut sim, &[(clk, Level::Zero), (d, Level::Zero)]);
        assert_eq!(sim.level(q), Level::One, "holds while master open");
        settle(&mut sim, &[(clk, Level::One)]);
        assert_eq!(sim.level(q), Level::Zero);
    }
}
