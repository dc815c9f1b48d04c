//! X-reachability: which levels can each net ever take, starting from
//! the all-`X` power-up configuration?
//!
//! The lattice element is a [`LevelSet`] — a subset of `{0, 1, X}` —
//! ordered by inclusion, with union as join. Every net starts at
//! `{X}` (the power-up state is always reachable), inputs add the
//! levels their stimulus can drive, and gates add the set-lifted
//! image of their transfer function. The height is 2: a set can only
//! grow from `{X}` to the full set.
//!
//! A net whose fixpoint set is still `{X}` is **X-stuck**: no
//! stimulus in the seeded class can ever move it to a known level —
//! typically un-initializable feedback (an XOR ring) or logic fed
//! only by floating nets. That is lint LS0012: such state pollutes
//! every downstream cone with `X` forever, which almost always means
//! a missing reset or a modelling mistake.
//!
//! Set-lifting is exact for the associative gate kinds (the lifted
//! image of a fold is the fold of lifted images) and conservative —
//! never under-approximating — for switch groups, which are widened
//! to the full set like the ternary analysis pins them to `X`.

use super::seeds::InputSeeds;
use super::{solve, Analysis, Direction, Solution};
use crate::analyze::Levelization;
use crate::component::{ComponentRef, GateKind, NetId};
use crate::netlist::Netlist;
use crate::value::Level;

/// A subset of the ternary levels, as a bit mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LevelSet(pub u8);

impl LevelSet {
    /// The empty set.
    pub const EMPTY: LevelSet = LevelSet(0);
    /// `{X}` — the power-up state.
    pub const X_ONLY: LevelSet = LevelSet(0b100);
    /// `{0, 1, X}` — no information.
    pub const ALL: LevelSet = LevelSet(0b111);

    /// The singleton set for `level`.
    #[must_use]
    pub fn just(level: Level) -> LevelSet {
        LevelSet(match level {
            Level::Zero => 0b001,
            Level::One => 0b010,
            Level::X => 0b100,
        })
    }

    /// Whether `level` is a member.
    #[must_use]
    pub fn contains(self, level: Level) -> bool {
        self.0 & LevelSet::just(level).0 != 0
    }

    /// Set union.
    #[must_use]
    pub fn union(self, other: LevelSet) -> LevelSet {
        LevelSet(self.0 | other.0)
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates the member levels.
    pub fn iter(self) -> impl Iterator<Item = Level> {
        [Level::Zero, Level::One, Level::X]
            .into_iter()
            .filter(move |&l| self.contains(l))
    }

    /// The image of a binary level function over the cross product of
    /// two sets (exact lifting).
    #[must_use]
    pub fn lift2(self, other: LevelSet, f: impl Fn(Level, Level) -> Level) -> LevelSet {
        let mut out = LevelSet::EMPTY;
        for a in self.iter() {
            for b in other.iter() {
                out = out.union(LevelSet::just(f(a, b)));
            }
        }
        out
    }

    /// The image of a unary level function (exact lifting).
    #[must_use]
    pub fn lift1(self, f: impl Fn(Level) -> Level) -> LevelSet {
        let mut out = LevelSet::EMPTY;
        for a in self.iter() {
            out = out.union(LevelSet::just(f(a)));
        }
        out
    }
}

/// The set-lifted image of a gate over its input sets. Exact for the
/// associative kinds (fold of lifted binary ops); conservative for
/// `Tristate`, whose disabled branch contributes `X` (the floating
/// net resolves to unknown).
fn gate_image(kind: GateKind, inputs: &[LevelSet]) -> LevelSet {
    let fold = |f: fn(Level, Level) -> Level| {
        inputs
            .iter()
            .copied()
            .reduce(|a, b| a.lift2(b, f))
            .unwrap_or(LevelSet::X_ONLY)
    };
    match kind {
        GateKind::Buf => inputs.first().copied().unwrap_or(LevelSet::X_ONLY),
        GateKind::Not => inputs
            .first()
            .copied()
            .unwrap_or(LevelSet::X_ONLY)
            .lift1(Level::not),
        GateKind::And => fold(Level::and),
        GateKind::Nand => fold(Level::and).lift1(Level::not),
        GateKind::Or => fold(Level::or),
        GateKind::Nor => fold(Level::or).lift1(Level::not),
        GateKind::Xor => fold(Level::xor),
        GateKind::Xnor => fold(Level::xor).lift1(Level::not),
        GateKind::Tristate => {
            let data = inputs.first().copied().unwrap_or(LevelSet::X_ONLY);
            let enable = inputs.get(1).copied().unwrap_or(LevelSet::X_ONLY);
            let mut out = LevelSet::EMPTY;
            if enable.contains(Level::One) {
                out = out.union(data);
            }
            if enable.contains(Level::Zero) || enable.contains(Level::X) {
                out = out.union(LevelSet::X_ONLY);
            }
            out
        }
    }
}

/// The X-reachability analysis over one netlist.
pub struct XReachAnalysis<'a> {
    netlist: &'a Netlist,
    seeds: &'a InputSeeds,
    levels: &'a Levelization,
}

impl Analysis for XReachAnalysis<'_> {
    type Value = LevelSet;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn num_nets(&self) -> usize {
        self.netlist.num_nets()
    }

    fn bottom(&self, _net: u32) -> LevelSet {
        // The power-up configuration is all-X, so X is reachable on
        // every net before any driver acts.
        LevelSet::X_ONLY
    }

    fn transfer(&self, net: u32, values: &[LevelSet]) -> LevelSet {
        let id = NetId(net);
        let drivers = self.netlist.drivers(id);
        let mut out = LevelSet::X_ONLY;
        let mut terminal = false;
        for &c in drivers {
            match self.netlist.component(c) {
                ComponentRef::Input { .. } => {
                    let levels = self
                        .seeds
                        .get(id)
                        .map_or(LevelSet::ALL, |s| LevelSet(s.levels));
                    out = out.union(levels);
                }
                ComponentRef::Supply { level, .. } | ComponentRef::Pull { level, .. } => {
                    out = out.union(LevelSet::just(level));
                }
                ComponentRef::Gate { kind, inputs, .. } => {
                    let sets: Vec<LevelSet> = inputs.iter().map(|i| values[i.index()]).collect();
                    out = out.union(gate_image(kind, &sets));
                }
                ComponentRef::Switch { .. } => terminal = true,
            }
        }
        if terminal {
            // Bidirectional group resolution with charge retention:
            // assume nothing beyond "some level".
            return LevelSet::ALL;
        }
        out
    }

    fn join(&self, old: &LevelSet, new: &LevelSet) -> LevelSet {
        old.union(*new)
    }

    fn height(&self) -> u32 {
        2
    }

    fn widen(&self, value: &mut LevelSet) {
        *value = LevelSet::ALL;
    }

    fn for_each_dependent(&self, net: u32, f: &mut dyn FnMut(u32)) {
        for &c in self.netlist.fanout(NetId(net)) {
            self.netlist.component(c).for_each_driven(|d| f(d.0));
        }
    }

    fn seed_order(&self) -> Vec<u32> {
        super::level_order(self.levels, Direction::Forward)
    }
}

/// The solved X-reachability facts for one netlist.
#[derive(Debug, Clone)]
pub struct XReach {
    solution: Solution<LevelSet>,
}

impl XReach {
    /// Runs the analysis, seeded in the order of `levels`, the
    /// netlist's levelization.
    #[must_use]
    pub fn analyze(netlist: &Netlist, seeds: &InputSeeds, levels: &Levelization) -> XReach {
        XReach {
            solution: solve(&XReachAnalysis {
                netlist,
                seeds,
                levels,
            }),
        }
    }

    /// The reachable level set of `net`.
    #[must_use]
    pub fn levels(&self, net: NetId) -> LevelSet {
        self.solution.values[net.index()]
    }

    /// Whether `net` can never leave `X` from the initial
    /// configuration under the seeded stimulus class.
    #[must_use]
    pub fn is_x_stuck(&self, net: NetId) -> bool {
        self.solution.values[net.index()] == LevelSet::X_ONLY
    }

    /// All X-stuck nets, in id order.
    #[must_use]
    pub fn x_stuck_nets(&self) -> Vec<NetId> {
        (0..self.solution.values.len() as u32)
            .map(NetId)
            .filter(|&n| self.is_x_stuck(n))
            .collect()
    }

    /// The engine effort counters (for tests and reports).
    #[must_use]
    pub fn solution(&self) -> &Solution<LevelSet> {
        &self.solution
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Delay;
    use crate::{GateKind, NetlistBuilder};

    #[test]
    fn driven_logic_escapes_x() {
        let mut b = NetlistBuilder::new("ok");
        let a = b.input("a");
        let y = b.net("y");
        b.gate(GateKind::Not, &[a], y, Delay::uniform(1));
        b.mark_output(y);
        let n = b.finish().unwrap();
        let seeds = InputSeeds::unconstrained(&n);
        let xr = XReach::analyze(&n, &seeds, &Levelization::compute(&n));
        assert!(!xr.is_x_stuck(y));
        assert_eq!(xr.levels(y), LevelSet::ALL);
        assert!(xr.x_stuck_nets().is_empty());
    }

    #[test]
    fn xor_feedback_ring_is_x_stuck() {
        // q = XOR(q, q) can never produce a known level from X: the
        // lifted image of XOR over {X} is {X}.
        let mut b = NetlistBuilder::new("ring");
        let a = b.input("a");
        let q = b.net("q");
        let y = b.net("y");
        b.gate(GateKind::Xor, &[q, q], q, Delay::uniform(1));
        b.gate(GateKind::And, &[a, q], y, Delay::uniform(1));
        b.mark_output(y);
        let n = b.finish().unwrap();
        let xr = XReach::analyze(
            &n,
            &InputSeeds::unconstrained(&n),
            &Levelization::compute(&n),
        );
        assert!(xr.is_x_stuck(q), "uninitializable feedback");
        // The poisoned AND can still reach 0 (a=0 forces it).
        assert!(!xr.is_x_stuck(y));
        assert!(xr.levels(y).contains(Level::Zero));
        assert!(!xr.levels(y).contains(Level::One));
    }

    #[test]
    fn nand_latch_initializes() {
        let mut b = NetlistBuilder::new("latch");
        let set = b.input("set_n");
        let reset = b.input("reset_n");
        let q = b.net("q");
        let qn = b.net("qn");
        b.gate(GateKind::Nand, &[set, qn], q, Delay::uniform(1));
        b.gate(GateKind::Nand, &[reset, q], qn, Delay::uniform(1));
        b.mark_output(q);
        let n = b.finish().unwrap();
        let xr = XReach::analyze(
            &n,
            &InputSeeds::unconstrained(&n),
            &Levelization::compute(&n),
        );
        // set_n = 0 forces q = 1 regardless of the X on qn.
        assert!(!xr.is_x_stuck(q));
        assert!(!xr.is_x_stuck(qn));
    }

    #[test]
    fn supply_reaches_only_its_level_plus_powerup_x() {
        let mut b = NetlistBuilder::new("rail");
        let vdd = b.net("vdd");
        b.supply(vdd, Level::One);
        let y = b.net("y");
        b.gate(GateKind::Buf, &[vdd], y, Delay::uniform(1));
        b.mark_output(y);
        let n = b.finish().unwrap();
        let xr = XReach::analyze(
            &n,
            &InputSeeds::unconstrained(&n),
            &Levelization::compute(&n),
        );
        assert_eq!(
            xr.levels(vdd),
            LevelSet::just(Level::One).union(LevelSet::X_ONLY)
        );
        assert!(!xr.is_x_stuck(y));
    }
}
