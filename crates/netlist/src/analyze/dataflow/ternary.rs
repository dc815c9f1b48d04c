//! Ternary constant analysis on the dataflow engine.
//!
//! This is `opt::absint`'s abstract interpretation — the Kleene
//! lattice `X ⊑ 0, X ⊑ 1` with the concrete [`GateKind::evaluate`]
//! transfer functions and strength-ladder multi-driver resolution —
//! ported onto [`super::solve`] as the framework's proof of
//! generality. The topology is abstracted behind [`TernaryView`] so
//! the same analysis runs over a plain [`Netlist`] and over the
//! optimizer's mutable work graph (`opt::Work`), which is what
//! `opt::absint::interpret` now does.
//!
//! **Switch-group X-conservatism** is unchanged from the hand-rolled
//! version: a net attached to any switch channel terminal resolves
//! bidirectionally with charge retention, which a per-net analysis
//! cannot model, so such nets are pinned to `X` unless a
//! `Supply`-strength rail drives them (a supply beats every
//! through-switch contribution in the group solver too).
//!
//! The lattice has height 1 (one strict refinement, `X` to a
//! constant). `X` doubles as the engine's give-up value: the concrete
//! transfer is monotone, so widening never fires in practice, and if
//! it ever did, parking the net at `X` ("not constant") is sound.
//!
//! [`GateKind::evaluate`]: crate::component::GateKind::evaluate

use super::{solve, Analysis, Direction, Solution};
use crate::component::{ComponentRef, NetId};
use crate::netlist::Netlist;
use crate::value::{Level, Signal, Strength};

/// Read-only circuit topology as the ternary analysis needs it: who
/// drives and reads each net, and which nets resolve through switch
/// groups.
pub trait TernaryView {
    /// Number of nets.
    fn num_nets(&self) -> usize;
    /// Visits every live component that can drive `net`.
    fn for_each_driver(&self, net: u32, f: &mut dyn FnMut(ComponentRef<'_>));
    /// Visits every live component that reads `net`.
    fn for_each_reader(&self, net: u32, f: &mut dyn FnMut(ComponentRef<'_>));
    /// Whether `net` is attached to a switch channel terminal (member
    /// of a nontrivial bidirectional resolution group).
    fn is_terminal(&self, net: u32) -> bool;
}

impl TernaryView for Netlist {
    fn num_nets(&self) -> usize {
        Netlist::num_nets(self)
    }

    fn for_each_driver(&self, net: u32, f: &mut dyn FnMut(ComponentRef<'_>)) {
        for &c in self.drivers(NetId(net)) {
            f(self.component(c));
        }
    }

    fn for_each_reader(&self, net: u32, f: &mut dyn FnMut(ComponentRef<'_>)) {
        for &c in self.fanout(NetId(net)) {
            f(self.component(c));
        }
    }

    fn is_terminal(&self, net: u32) -> bool {
        // Switch channel terminals appear in the driver index (a
        // switch drives both its terminals), so this matches the
        // optimizer's attached-terminal count.
        self.drivers(NetId(net))
            .iter()
            .any(|&c| self.component(c).is_switch())
    }
}

/// The ternary constant analysis over any [`TernaryView`].
pub struct TernaryAnalysis<'a, V: TernaryView> {
    view: &'a V,
}

impl<'a, V: TernaryView> TernaryAnalysis<'a, V> {
    /// Wraps a topology view for solving.
    #[must_use]
    pub fn new(view: &'a V) -> TernaryAnalysis<'a, V> {
        TernaryAnalysis { view }
    }
}

/// The abstract signal a component contributes to the nets it drives,
/// or `None` for switches (their influence is handled by terminal
/// conservatism in the transfer function).
fn contribution(comp: ComponentRef<'_>, values: &[Level]) -> Option<Signal> {
    match comp {
        // A primary input varies with the stimulus: strong unknown.
        ComponentRef::Input { .. } => Some(Signal::strong(Level::X)),
        ComponentRef::Pull { .. } | ComponentRef::Supply { .. } => comp.static_drive(),
        ComponentRef::Gate { kind, inputs, .. } => {
            Some(kind.evaluate_pins(inputs, |n| values[n.index()]))
        }
        ComponentRef::Switch { .. } => None,
    }
}

impl<V: TernaryView> Analysis for TernaryAnalysis<'_, V> {
    type Value = Level;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn num_nets(&self) -> usize {
        self.view.num_nets()
    }

    fn bottom(&self, _net: u32) -> Level {
        Level::X
    }

    fn transfer(&self, net: u32, values: &[Level]) -> Level {
        let mut best = Signal::FLOATING;
        self.view.for_each_driver(net, &mut |comp| {
            if let Some(sig) = contribution(comp, values) {
                best = best.resolve(sig);
            }
        });
        if self.view.is_terminal(net) {
            // Group-resolved net: only a supply rail survives
            // conservatism.
            if best.strength == Strength::Supply {
                best.level
            } else {
                Level::X
            }
        } else if best.is_floating() {
            Level::X
        } else {
            best.level
        }
    }

    fn join(&self, old: &Level, new: &Level) -> Level {
        match (old, new) {
            (a, b) if a == b => *old,
            // X is the bottom: any constant refines it.
            (Level::X, _) => *new,
            // A monotone transfer never un-learns a constant; if a
            // (buggy) transfer disagreed, keep the earlier fact and
            // let widening park the net at X.
            _ => *old,
        }
    }

    fn height(&self) -> u32 {
        1
    }

    fn widen(&self, value: &mut Level) {
        *value = Level::X;
    }

    fn for_each_dependent(&self, net: u32, f: &mut dyn FnMut(u32)) {
        self.view.for_each_reader(net, &mut |comp| {
            comp.for_each_driven(|d| f(d.0));
        });
    }

    fn seed_order(&self) -> Vec<u32> {
        topo_seed(self.view)
    }
}

/// Kahn topological order of the net dependency graph induced by a
/// [`TernaryView`] (edge `m -> n` when a component reads `m` and
/// drives `n`). Nets on cycles — switch groups, feedback — are
/// appended in id order after the acyclic prefix; the worklist
/// handles their iteration.
fn topo_seed<V: TernaryView>(view: &V) -> Vec<u32> {
    let n = view.num_nets();
    let mut indeg = vec![0u32; n];
    for m in 0..n as u32 {
        view.for_each_reader(m, &mut |comp| {
            comp.for_each_driven(|d| indeg[d.index()] += 1);
        });
    }
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut queue: std::collections::VecDeque<u32> =
        (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
    let mut emitted = vec![false; n];
    while let Some(m) = queue.pop_front() {
        if emitted[m as usize] {
            continue;
        }
        emitted[m as usize] = true;
        order.push(m);
        view.for_each_reader(m, &mut |comp| {
            comp.for_each_driven(|d| {
                let i = d.index();
                if !emitted[i] {
                    indeg[i] -= 1;
                    if indeg[i] == 0 {
                        queue.push_back(d.0);
                    }
                }
            });
        });
    }
    for i in 0..n as u32 {
        if !emitted[i as usize] {
            order.push(i);
        }
    }
    order
}

/// Solves the ternary constant analysis over a plain netlist:
/// `Zero`/`One` mean *proven constant for every stimulus and power-up
/// state*, `X` means unknown or varying.
#[must_use]
pub fn constants(netlist: &Netlist) -> Solution<Level> {
    solve(&TernaryAnalysis::new(netlist))
}

/// Solves the analysis over any view, returning the values plus the
/// round count in the Jacobi sense (the largest per-net update count
/// plus the final no-change verification) for reporting.
#[must_use]
pub fn solve_view<V: TernaryView>(view: &V) -> (Vec<Level>, u32) {
    let solution = solve(&TernaryAnalysis::new(view));
    let rounds = solution.max_changes + 1;
    (solution.values, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Delay;
    use crate::{GateKind, NetlistBuilder};

    #[test]
    fn constant_folds_through_gates() {
        // NOT(1) = 0, AND(0, input) = 0: both gate outputs constant.
        let mut b = NetlistBuilder::new("const");
        let a = b.input("a");
        let one = b.net("one");
        let inv = b.net("inv");
        let y = b.net("y");
        b.supply(one, Level::One);
        b.gate(GateKind::Not, &[one], inv, Delay::uniform(1));
        b.gate(GateKind::And, &[inv, a], y, Delay::uniform(1));
        b.mark_output(y);
        let n = b.finish().unwrap();
        let s = constants(&n);
        assert_eq!(*s.value(one), Level::One);
        assert_eq!(*s.value(inv), Level::Zero);
        assert_eq!(*s.value(y), Level::Zero);
        assert_eq!(*s.value(a), Level::X, "inputs vary");
        assert_eq!(s.widened, 0, "monotone transfer never widens");
    }

    #[test]
    fn dag_converges_with_single_updates() {
        let mut b = NetlistBuilder::new("deep");
        let one = b.net("one");
        b.supply(one, Level::One);
        let mut prev = one;
        for i in 0..16 {
            let next = b.net(format!("n{i}"));
            b.gate(GateKind::Not, &[prev], next, Delay::uniform(1));
            prev = next;
        }
        b.mark_output(prev);
        let n = b.finish().unwrap();
        let s = solve(&TernaryAnalysis::new(&n));
        // Topological seeding: every net settles on its first visit.
        assert_eq!(s.max_changes, 1);
        assert!(s.values.iter().all(|&v| v != Level::X));
    }
}
