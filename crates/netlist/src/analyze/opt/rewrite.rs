//! The four trace-preserving rewrite passes (LS0006–LS0009).
//!
//! Each pass takes the mutable [`Work`] copy plus (for LS0006) the
//! abstract net values, performs every rewrite whose guard holds, and
//! reports whether anything changed. Guards are deliberately local and
//! conservative; anything they cannot prove is left alone and the
//! differential equivalence suite holds the line. The soundness
//! argument for every guard is written out in DESIGN.md §14.

use super::{Findings, Work};
use crate::component::{Component, Delay, GateKind, NetId};
use crate::value::Level;
use std::collections::HashMap;

/// LS0006: exploit nets proven constant by the abstract interpretation.
///
/// * A gate whose output is proven constant folds to a `Supply` on the
///   same net — only when the gate is the net's sole driver and the net
///   is not a switch channel terminal (a supply-strength drive would
///   change group resolution where the old gate drove at `Strong`).
/// * A tristate with a constant-`1` enable becomes a `Buf`; one with a
///   constant-`0` enable never drives and is removed when the net keeps
///   another driver or is completely unread and unobserved.
/// * Constant identity-element inputs are dropped in place (`AND` drops
///   `1`s, `OR` drops `0`s, `XOR`/`XNOR` drop any proven constant and
///   flip parity per dropped `1`). In-place specialization preserves
///   the gate's output function, delay, and drive strength exactly, so
///   it needs no conditions on the output net.
/// * An always-off switch is removed when each terminal either keeps
///   another switch (its group survives, minus one never-conducting
///   edge), keeps a driver that can never float (charge retention can
///   never trigger), or is unread and unobserved.
pub(super) fn constants(w: &mut Work, values: &[Level], f: &mut Findings) -> bool {
    let mut changed = false;
    for i in 0..w.comps.len() {
        let Some(comp) = w.comps[i].clone() else {
            continue;
        };
        match comp {
            Component::Gate {
                kind,
                ref inputs,
                output,
                delay,
            } => {
                let out = kind.evaluate_pins(inputs, |n| values[n.index()]);
                let o = output.index();
                if out.level.is_known()
                    && !out.is_floating()
                    && w.sole_driver(o, i)
                    && !w.terminal(o)
                {
                    w.replace(
                        i,
                        Component::Supply {
                            net: output,
                            level: out.level,
                        },
                    );
                    f.constant.record(&[i], &[output]);
                    f.folded += 1;
                    changed = true;
                    continue;
                }
                if kind == GateKind::Tristate {
                    match values[inputs[1].index()] {
                        Level::One => {
                            let data = inputs[0];
                            w.replace(
                                i,
                                Component::Gate {
                                    kind: GateKind::Buf,
                                    inputs: vec![data],
                                    output,
                                    delay,
                                },
                            );
                            f.constant.record(&[i], &[inputs[1]]);
                            f.specialized += 1;
                            changed = true;
                        }
                        Level::Zero => {
                            let enable = inputs[1];
                            let other_driver = w.drivers[o].len() > 1;
                            let unread = w.readers[o].is_empty() && !w.is_output[o];
                            if other_driver || unread {
                                w.remove(i);
                                f.constant.record(&[i], &[enable]);
                                f.removed_switches += 1;
                                changed = true;
                            }
                        }
                        Level::X => {}
                    }
                    continue;
                }
                // In-place input specialization only applies when the
                // output is still unknown (a known output is the fold
                // case above, possibly blocked by its guards).
                if out.level == Level::X && inputs.len() > 1 {
                    if let Some((new_kind, kept, dropped)) = specialize(kind, inputs, values) {
                        w.replace(
                            i,
                            Component::Gate {
                                kind: new_kind,
                                inputs: kept,
                                output,
                                delay,
                            },
                        );
                        f.constant.record(&[i], &dropped);
                        f.specialized += 1;
                        changed = true;
                    }
                }
            }
            Component::Switch {
                kind,
                control,
                a,
                b,
                ..
            } if kind.conducts(values[control.index()]) == Some(false)
                && terminal_safe(w, a, i)
                && terminal_safe(w, b, i) =>
            {
                w.remove(i);
                f.constant.record(&[i], &[control]);
                f.removed_switches += 1;
                changed = true;
            }
            _ => {}
        }
    }
    changed
}

/// Whether removing always-off switch `switch_id` leaves terminal `t`
/// with unchanged observable behavior (see [`constants`]).
fn terminal_safe(w: &Work, t: NetId, switch_id: usize) -> bool {
    let ti = t.index();
    // Another switch keeps the net group-resolved with retention.
    if w.switches_on[ti] > 1 {
        return true;
    }
    // A driver that never goes high-impedance means charge retention
    // can never trigger, so trivial-net resolution is identical.
    let never_floats =
        w.drivers[ti].iter().any(
            |&d| match w.comps[d as usize].as_ref().expect("live driver") {
                Component::Input { .. } | Component::Pull { .. } | Component::Supply { .. } => true,
                Component::Gate { kind, .. } => *kind != GateKind::Tristate,
                Component::Switch { .. } => false,
            },
        );
    if never_floats {
        return true;
    }
    // Unread and unobserved: the value can never be consumed.
    w.readers[ti].iter().all(|&r| r as usize == switch_id) && !w.is_output[ti]
}

/// Computes the specialized form of `kind` after dropping constant
/// identity inputs, or `None` when nothing can be dropped. `values` are
/// the abstract net values, indexed by net. Returns the new kind, the
/// kept inputs, and the dropped constant nets.
fn specialize(
    kind: GateKind,
    inputs: &[NetId],
    values: &[Level],
) -> Option<(GateKind, Vec<NetId>, Vec<NetId>)> {
    let mut kept = Vec::new();
    let mut dropped = Vec::new();
    let mut parity_flips = 0;
    for &net in inputs {
        let level = values[net.index()];
        let drop = match (kind, level) {
            (GateKind::And | GateKind::Nand, Level::One) => true,
            (GateKind::Or | GateKind::Nor, Level::Zero) => true,
            (GateKind::Xor | GateKind::Xnor, Level::Zero | Level::One) => {
                if level == Level::One {
                    parity_flips += 1;
                }
                true
            }
            _ => false,
        };
        if drop {
            dropped.push(net);
        } else {
            kept.push(net);
        }
    }
    if dropped.is_empty() || kept.is_empty() {
        return None;
    }
    let mut new_kind = kind;
    if parity_flips % 2 == 1 {
        new_kind = match new_kind {
            GateKind::Xor => GateKind::Xnor,
            GateKind::Xnor => GateKind::Xor,
            other => other,
        };
    }
    if kept.len() == 1 {
        new_kind = match new_kind {
            GateKind::And | GateKind::Or | GateKind::Xor => GateKind::Buf,
            GateKind::Nand | GateKind::Nor | GateKind::Xnor => GateKind::Not,
            other => other,
        };
    }
    Some((new_kind, kept, dropped))
}

/// LS0008: canonicalize buffer/inverter chains.
///
/// A *chain* is a maximal run of single-input `BUF`/`NOT` gates with
/// uniform delay 1 whose intermediate nets are private: exactly one
/// reader (the next stage), exactly one driver (the previous stage),
/// not an output, and not a switch terminal. A unit-uniform-delay
/// single-input gate is a pure one-tick shift under the inertial model
/// (a pending change is always applied before the next change can
/// arrive), so the chain's end-to-end behavior depends only on its
/// total inversion parity and length. Moving all parity to the head
/// (head = `NOT` iff parity is odd, every later stage `BUF`) changes
/// only the levels of the private intermediates and makes parallel
/// chains structurally identical for LS0007 to merge.
pub(super) fn chains(w: &mut Work, f: &mut Findings) -> bool {
    let n = w.comps.len();
    let stage = |w: &Work, i: usize| -> Option<(GateKind, NetId, NetId)> {
        match w.comps[i].as_ref()? {
            Component::Gate {
                kind: kind @ (GateKind::Buf | GateKind::Not),
                inputs,
                output,
                delay,
            } if *delay == Delay::uniform(1) => Some((*kind, inputs[0], *output)),
            _ => None,
        }
    };
    // next[i]: the unique follower stage reached through a private net.
    let mut next = vec![usize::MAX; n];
    let mut has_prev = vec![false; n];
    for (i, slot) in next.iter_mut().enumerate() {
        let Some((_, _, out)) = stage(w, i) else {
            continue;
        };
        let o = out.index();
        if w.is_output[o] || w.terminal(o) || !w.sole_driver(o, i) || w.readers[o].len() != 1 {
            continue;
        }
        let follower = w.readers[o][0] as usize;
        if follower != i && stage(w, follower).is_some() {
            *slot = follower;
            has_prev[follower] = true;
        }
    }
    let mut changed = false;
    for (head, &headed) in has_prev.iter().enumerate() {
        if headed || stage(w, head).is_none() {
            continue;
        }
        // Collect the maximal chain starting at this head.
        let mut ids = vec![head];
        let mut cur = head;
        while next[cur] != usize::MAX {
            cur = next[cur];
            if ids.contains(&cur) {
                break; // ring guard; rings have no head anyway
            }
            ids.push(cur);
        }
        if ids.len() < 2 {
            continue;
        }
        let kinds: Vec<GateKind> = ids.iter().map(|&i| stage(w, i).expect("stage").0).collect();
        let parity = kinds.iter().filter(|&&k| k == GateKind::Not).count() % 2;
        let canonical = |pos: usize| -> GateKind {
            if pos == 0 && parity == 1 {
                GateKind::Not
            } else {
                GateKind::Buf
            }
        };
        if kinds.iter().enumerate().all(|(p, &k)| k == canonical(p)) {
            continue;
        }
        // Record only the stages whose kind actually changes, so the
        // finding names exactly the components that were rewritten.
        let mut rewritten = Vec::new();
        let mut nets = Vec::new();
        for (pos, &i) in ids.iter().enumerate() {
            let (kind, input, output) = stage(w, i).expect("stage");
            if pos > 0 {
                nets.push(input);
            }
            let want = canonical(pos);
            if kind != want {
                let Some(Component::Gate { delay, .. }) = w.comps[i] else {
                    unreachable!("stage is a gate")
                };
                w.replace(
                    i,
                    Component::Gate {
                        kind: want,
                        inputs: vec![input],
                        output,
                        delay,
                    },
                );
                rewritten.push(i);
            }
        }
        f.chain.record(&rewritten, &nets);
        f.chains += 1;
        changed = true;
    }
    changed
}

/// Hash key for structural deduplication: component kind discriminant,
/// delay, and canonicalized input nets.
#[derive(PartialEq, Eq, Hash)]
enum DupKey {
    /// Gate: kind tag, rise, fall, inputs (sorted when commutative).
    Gate(u8, u32, u32, Vec<u32>),
    /// Switch: kind tag, control, unordered terminal pair.
    Switch(u8, u32, u32, u32),
}

/// LS0007: merge structurally duplicate components.
///
/// Two gates merge when they have the same kind, the same delay, and
/// the same input nets (order-insensitive for commutative kinds), and
/// both output nets are sole-driven non-terminal nets — then both nets
/// carry the identical level trajectory from power-up on, so every
/// reader of the victim's net can be redirected to the canonical net.
/// The victim's net must not be a declared output (redirection would
/// orphan it); when only the earlier gate's net is an output the roles
/// swap. Duplicate switches (same kind, control, and terminal pair)
/// are parallel never-distinguishable edges and one is simply removed.
pub(super) fn dedup(w: &mut Work, f: &mut Findings) -> bool {
    let mut changed = false;
    loop {
        let mut seen: HashMap<DupKey, usize> = HashMap::new();
        let mut merged_this_round = false;
        for i in 0..w.comps.len() {
            let Some(comp) = w.comps[i].clone() else {
                continue;
            };
            match comp {
                Component::Gate {
                    kind,
                    ref inputs,
                    output,
                    delay,
                } => {
                    let o = output.index();
                    if !w.sole_driver(o, i) || w.terminal(o) {
                        continue;
                    }
                    let mut ins: Vec<u32> = inputs.iter().map(|n| n.0).collect();
                    let commutative = matches!(
                        kind,
                        GateKind::And
                            | GateKind::Or
                            | GateKind::Nand
                            | GateKind::Nor
                            | GateKind::Xor
                            | GateKind::Xnor
                    );
                    if commutative {
                        ins.sort_unstable();
                    }
                    let key = DupKey::Gate(kind as u8, delay.rise, delay.fall, ins);
                    match seen.get(&key) {
                        None => {
                            seen.insert(key, i);
                        }
                        Some(&c) => {
                            let c_out = match w.comps[c].as_ref() {
                                Some(Component::Gate { output, .. }) => *output,
                                _ => continue,
                            };
                            // Pick the victim whose net is not observed.
                            let (canon, victim, victim_net) = if !w.is_output[o] {
                                (c, i, output)
                            } else if !w.is_output[c_out.index()] {
                                (i, c, c_out)
                            } else {
                                continue; // both observed: keep both
                            };
                            let canon_net = if canon == c { c_out } else { output };
                            redirect_readers(w, victim_net, canon_net);
                            w.remove(victim);
                            seen.insert(key, canon);
                            // Only the victim is recorded: findings name
                            // exactly the components that were rewritten.
                            f.duplicate.record(&[victim], &[victim_net]);
                            f.merged += 1;
                            merged_this_round = true;
                            changed = true;
                        }
                    }
                }
                Component::Switch {
                    kind,
                    control,
                    a,
                    b,
                    ..
                } => {
                    let (lo, hi) = (a.0.min(b.0), a.0.max(b.0));
                    let key = DupKey::Switch(kind as u8, control.0, lo, hi);
                    match seen.get(&key) {
                        None => {
                            seen.insert(key, i);
                        }
                        Some(_) => {
                            w.remove(i);
                            f.duplicate.record(&[i], &[a, b]);
                            f.merged += 1;
                            merged_this_round = true;
                            changed = true;
                        }
                    }
                }
                _ => {}
            }
        }
        if !merged_this_round {
            break;
        }
    }
    changed
}

/// Rewrites every reader of `from` to read `to` instead.
fn redirect_readers(w: &mut Work, from: NetId, to: NetId) {
    let readers: Vec<u32> = w.readers[from.index()].clone();
    for r in readers {
        let i = r as usize;
        let Some(mut comp) = w.comps[i].clone() else {
            continue;
        };
        match &mut comp {
            Component::Gate { inputs, .. } => {
                for n in inputs.iter_mut() {
                    if *n == from {
                        *n = to;
                    }
                }
            }
            Component::Switch { control, a, b, .. } => {
                // Terminals cannot be `from` (it is non-terminal by the
                // merge guard); only the control can match.
                debug_assert!(*a != from && *b != from);
                if *control == from {
                    *control = to;
                }
            }
            _ => {}
        }
        w.replace(i, comp);
    }
}

/// LS0009: prune logic outside the observability cone.
///
/// Reverse reachability from the declared outputs: a component is live
/// when it can drive a needed net; a live gate needs its inputs, a live
/// switch needs its control and both terminals (drive flows through the
/// channel in either direction). Everything else — except `Input`
/// components, which stimulus resolution depends on — is removed. With
/// no declared outputs the pass is skipped entirely.
pub(super) fn prune_cone(w: &mut Work, f: &mut Findings) -> bool {
    if w.outputs.is_empty() {
        return false;
    }
    let mut needed = vec![false; w.num_nets()];
    let mut live = vec![false; w.comps.len()];
    let mut stack: Vec<usize> = Vec::new();
    for &o in &w.outputs {
        if !needed[o.index()] {
            needed[o.index()] = true;
            stack.push(o.index());
        }
    }
    while let Some(net) = stack.pop() {
        for &d in &w.drivers[net] {
            let i = d as usize;
            if live[i] {
                continue;
            }
            live[i] = true;
            for n in w.comps[i].as_ref().expect("live driver").read_nets() {
                if !needed[n.index()] {
                    needed[n.index()] = true;
                    stack.push(n.index());
                }
            }
        }
    }
    let mut changed = false;
    for (i, &is_live) in live.iter().enumerate() {
        let keep = match &w.comps[i] {
            None | Some(Component::Input { .. }) => true,
            Some(_) => is_live,
        };
        if !keep {
            w.remove(i);
            f.cone.record(&[i], &[]);
            f.pruned += 1;
            changed = true;
        }
    }
    changed
}
