//! Static activity estimation: transition-density propagation.
//!
//! Each net carries a quantized triple — an interval `[p1_lo, p1_hi]`
//! bounding the probability the net is `One` on a random tick, and a
//! transition density `d` bounding the expected transitions per tick.
//! Primary inputs are seeded from the stimulus plan (clock period,
//! random toggle probability; see [`super::seeds`]); gates propagate
//! the interval through their transfer function's probability algebra
//! and scale input densities by boolean-difference sensitivities, the
//! classic zero-delay density model:
//!
//! `d_out = clamp(Σ_i d_i · s_i)` where `s_i = P[output is sensitive
//! to input i]` — for AND, the probability every *other* input is 1
//! (upper bound `Π_{j≠i} hi_j`); for OR, that every other input is 0;
//! for XOR, exactly 1.
//!
//! The result deliberately over-approximates (correlated inputs and
//! reconvergent fanout can only *lower* real densities below the
//! independent-signal estimate, and intervals are hulled across
//! drivers), so a component whose estimated activity is zero provably
//! never evaluates after settling — that is lint LS0010, and the
//! per-component estimates feed `partition` vertex weights and
//! `machine::static_cost`.
//!
//! Values are quantized to `1/1024` so the lattice is finite; feedback
//! loops that creep past the height bound widen to the full interval
//! with density 1, which is always sound.

use super::seeds::InputSeeds;
use super::{solve, Analysis, Direction, Solution};
use crate::analyze::Levelization;
use crate::component::{CompId, ComponentRef, GateKind, NetId};
use crate::netlist::Netlist;
use crate::value::Level;

/// Quantization denominator: probabilities live on a `1/Q` grid.
pub const Q: u16 = 1024;

/// Quantized activity facts for one net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetActivity {
    /// Lower bound on `P[net == One]`, in `1/Q` units. `lo > hi`
    /// encodes the empty interval (bottom).
    pub p1_lo: u16,
    /// Upper bound on `P[net == One]`, in `1/Q` units.
    pub p1_hi: u16,
    /// Transition density upper bound, in `1/Q` units.
    pub density: u16,
}

impl NetActivity {
    /// The bottom element: empty interval, no transitions.
    pub const BOTTOM: NetActivity = NetActivity {
        p1_lo: Q,
        p1_hi: 0,
        density: 0,
    };
    /// The top element: full interval, a transition every tick.
    pub const TOP: NetActivity = NetActivity {
        p1_lo: 0,
        p1_hi: Q,
        density: Q,
    };

    /// Whether the probability interval is empty (no fact yet).
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.p1_lo > self.p1_hi
    }

    /// The probability interval as floats in `[0, 1]`.
    #[must_use]
    pub fn p1(self) -> (f64, f64) {
        if self.is_empty() {
            (0.0, 1.0)
        } else {
            (
                f64::from(self.p1_lo) / f64::from(Q),
                f64::from(self.p1_hi) / f64::from(Q),
            )
        }
    }

    /// The density as a float in `[0, 1]`.
    #[must_use]
    pub fn d(self) -> f64 {
        f64::from(self.density.min(Q)) / f64::from(Q)
    }

    fn from_float(lo: f64, hi: f64, d: f64) -> NetActivity {
        // Conservative rounding: the interval only widens, the
        // density only rises.
        let q = f64::from(Q);
        NetActivity {
            p1_lo: ((lo.clamp(0.0, 1.0) * q).floor() as u16).min(Q),
            p1_hi: ((hi.clamp(0.0, 1.0) * q).ceil() as u16).min(Q),
            density: ((d.clamp(0.0, 1.0) * q).ceil() as u16).min(Q),
        }
    }

    /// Interval hull plus density max — the lattice join.
    #[must_use]
    pub fn join(self, other: NetActivity) -> NetActivity {
        if self.is_empty() {
            return other;
        }
        if other.is_empty() {
            return self;
        }
        NetActivity {
            p1_lo: self.p1_lo.min(other.p1_lo),
            p1_hi: self.p1_hi.max(other.p1_hi),
            density: self.density.max(other.density),
        }
    }
}

/// Float-space view of one input used by the gate algebra.
#[derive(Debug, Clone, Copy)]
struct In {
    lo: f64,
    hi: f64,
    d: f64,
}

fn input_view(v: NetActivity) -> In {
    let (lo, hi) = v.p1();
    In { lo, hi, d: v.d() }
}

/// Interval fold for XOR: evaluate `a(1-b) + b(1-a)` at the four
/// interval corners (the expression is not monotone in either
/// argument).
fn xor_interval(a: (f64, f64), b: (f64, f64)) -> (f64, f64) {
    let f = |x: f64, y: f64| x * (1.0 - y) + y * (1.0 - x);
    let corners = [f(a.0, b.0), f(a.0, b.1), f(a.1, b.0), f(a.1, b.1)];
    let lo = corners.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = corners.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (lo, hi)
}

/// Probability interval and density of a gate output given its input
/// activities, assuming signal independence (an over-approximation
/// for density by the boolean-difference argument in the module docs).
fn gate_activity(kind: GateKind, ins: &[In]) -> (f64, f64, f64) {
    match kind {
        GateKind::Buf => ins.first().map_or((0.0, 1.0, 1.0), |i| (i.lo, i.hi, i.d)),
        GateKind::Not => ins
            .first()
            .map_or((0.0, 1.0, 1.0), |i| (1.0 - i.hi, 1.0 - i.lo, i.d)),
        GateKind::And | GateKind::Nand => {
            let lo: f64 = ins.iter().map(|i| i.lo).product();
            let hi: f64 = ins.iter().map(|i| i.hi).product();
            // s_i = P[all other inputs 1] ≤ Π_{j≠i} hi_j.
            let d: f64 = ins
                .iter()
                .enumerate()
                .map(|(i, x)| {
                    let s: f64 = ins
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != i)
                        .map(|(_, y)| y.hi)
                        .product();
                    x.d * s
                })
                .sum();
            if kind == GateKind::Nand {
                (1.0 - hi, 1.0 - lo, d)
            } else {
                (lo, hi, d)
            }
        }
        GateKind::Or | GateKind::Nor => {
            let lo = 1.0 - ins.iter().map(|i| 1.0 - i.lo).product::<f64>();
            let hi = 1.0 - ins.iter().map(|i| 1.0 - i.hi).product::<f64>();
            // s_i = P[all other inputs 0] ≤ Π_{j≠i} (1 - lo_j).
            let d: f64 = ins
                .iter()
                .enumerate()
                .map(|(i, x)| {
                    let s: f64 = ins
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != i)
                        .map(|(_, y)| 1.0 - y.lo)
                        .product();
                    x.d * s
                })
                .sum();
            if kind == GateKind::Nor {
                (1.0 - hi, 1.0 - lo, d)
            } else {
                (lo, hi, d)
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            // XOR is sensitive to every input (s_i = 1).
            let (mut lo, mut hi) = ins.first().map_or((0.0, 1.0), |i| (i.lo, i.hi));
            for i in &ins[1.min(ins.len())..] {
                let next = xor_interval((lo, hi), (i.lo, i.hi));
                lo = next.0;
                hi = next.1;
            }
            let d: f64 = ins.iter().map(|i| i.d).sum();
            if kind == GateKind::Xnor {
                (1.0 - hi, 1.0 - lo, d)
            } else {
                (lo, hi, d)
            }
        }
        GateKind::Tristate => {
            let data = ins.first().copied().unwrap_or(In {
                lo: 0.0,
                hi: 1.0,
                d: 1.0,
            });
            let en = ins.get(1).copied().unwrap_or(In {
                lo: 0.0,
                hi: 1.0,
                d: 1.0,
            });
            // Enabled: passes data; disabled: floats (unknown level),
            // so the interval is only tight when enable is pinned 1.
            let (lo, hi) = if en.lo >= 1.0 {
                (data.lo, data.hi)
            } else {
                (0.0, 1.0)
            };
            (lo, hi, data.d * en.hi + en.d)
        }
    }
}

/// The activity analysis over one netlist.
pub struct ActivityAnalysis<'a> {
    netlist: &'a Netlist,
    seeds: &'a InputSeeds,
    levels: &'a Levelization,
}

impl<'a> ActivityAnalysis<'a> {
    /// Wraps a netlist, its stimulus seeds and its levelization (the
    /// seed order) for [`solve`] — or for driving
    /// [`Analysis::transfer`] directly, which is how the engine's
    /// property tests check monotonicity.
    #[must_use]
    pub fn new(
        netlist: &'a Netlist,
        seeds: &'a InputSeeds,
        levels: &'a Levelization,
    ) -> ActivityAnalysis<'a> {
        ActivityAnalysis {
            netlist,
            seeds,
            levels,
        }
    }
}

impl Analysis for ActivityAnalysis<'_> {
    type Value = NetActivity;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn num_nets(&self) -> usize {
        self.netlist.num_nets()
    }

    fn bottom(&self, _net: u32) -> NetActivity {
        NetActivity::BOTTOM
    }

    fn transfer(&self, net: u32, values: &[NetActivity]) -> NetActivity {
        let id = NetId(net);
        let mut acc = NetActivity::BOTTOM;
        let mut density_sum = 0.0f64;
        let mut terminal = false;
        let mut pinned = false;
        for &c in self.netlist.drivers(id) {
            let comp = self.netlist.component(c);
            match comp {
                ComponentRef::Input { .. } => {
                    let s = self.seeds.get(id).copied().unwrap_or_default();
                    acc = acc.join(NetActivity::from_float(s.p1_lo, s.p1_hi, 0.0));
                    density_sum += s.density;
                }
                ComponentRef::Supply { level, .. } | ComponentRef::Pull { level, .. } => {
                    // A rail settles once and never toggles. A
                    // `Supply` moreover drives at the strongest
                    // strength, so no co-driver (a switch group
                    // hanging off the rail) can ever move the
                    // resolved level: the net is pinned.
                    pinned |= matches!(comp, ComponentRef::Supply { .. });
                    let p = match level {
                        Level::One => (1.0, 1.0),
                        Level::Zero => (0.0, 0.0),
                        Level::X => (0.0, 1.0),
                    };
                    acc = acc.join(NetActivity::from_float(p.0, p.1, 0.0));
                }
                ComponentRef::Gate { kind, inputs, .. } => {
                    let ins: Vec<In> = inputs
                        .iter()
                        .map(|i| input_view(values[i.index()]))
                        .collect();
                    let (lo, hi, d) = gate_activity(kind, &ins);
                    acc = acc.join(NetActivity::from_float(lo, hi, 0.0));
                    density_sum += d;
                }
                ComponentRef::Switch { control, a, b, .. } => {
                    terminal = true;
                    // The group can toggle when the opposite terminal
                    // or the control toggles.
                    let other = if a == id { b } else { a };
                    density_sum += values[other.index()].d() + values[control.index()].d();
                }
            }
        }
        if terminal {
            // Bidirectional resolution: unknown bias, summed density.
            acc = acc.join(NetActivity::from_float(0.0, 1.0, 0.0));
        }
        if pinned {
            // Supply wins every resolution: level fixed forever.
            return NetActivity { density: 0, ..acc };
        }
        if acc.is_empty() {
            // Undriven net: floats at an unknown but constant level.
            return NetActivity::from_float(0.0, 1.0, 0.0);
        }
        NetActivity {
            density: NetActivity::from_float(0.0, 0.0, density_sum).density,
            ..acc
        }
    }

    fn join(&self, old: &NetActivity, new: &NetActivity) -> NetActivity {
        old.join(*new)
    }

    fn height(&self) -> u32 {
        // A DAG net settles in one topological visit; only feedback
        // re-visits, creeping the quantized density upward. Cut the
        // creep short and give the loop up to TOP.
        32
    }

    fn widen(&self, value: &mut NetActivity) {
        *value = NetActivity::TOP;
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

/// The solved activity estimate for one netlist.
#[derive(Debug, Clone)]
pub struct Activity {
    solution: Solution<NetActivity>,
}

impl Activity {
    /// Runs the analysis with the given input seeds, seeded in the
    /// order of `levels`, the netlist's levelization.
    #[must_use]
    pub fn analyze(netlist: &Netlist, seeds: &InputSeeds, levels: &Levelization) -> Activity {
        Activity {
            solution: solve(&ActivityAnalysis::new(netlist, seeds, levels)),
        }
    }

    /// The activity facts for `net`.
    #[must_use]
    pub fn net(&self, net: NetId) -> NetActivity {
        self.solution.values[net.index()]
    }

    /// Upper bound on `net`'s transitions per tick, in `[0, 1]`.
    #[must_use]
    pub fn density(&self, net: NetId) -> f64 {
        self.solution.values[net.index()].d()
    }

    /// Upper bound on each component's evaluations per tick: the
    /// summed density of the nets its transfer function reads
    /// (clamped — one tick triggers at most one evaluation). Sources
    /// report their own output density (an `Input` evaluates on every
    /// stimulus event; rails never re-evaluate).
    #[must_use]
    pub fn component_activity(&self, netlist: &Netlist) -> Vec<f64> {
        (0..netlist.num_components())
            .map(|i| {
                let comp = netlist.component(CompId(i as u32));
                match comp {
                    ComponentRef::Input { net } => self.density(net),
                    ComponentRef::Supply { .. } | ComponentRef::Pull { .. } => 0.0,
                    _ => {
                        let mut sum = 0.0;
                        comp.for_each_read(|r| sum += self.density(r));
                        sum.min(1.0)
                    }
                }
            })
            .collect()
    }

    /// The engine effort counters (for tests and reports).
    #[must_use]
    pub fn solution(&self) -> &Solution<NetActivity> {
        &self.solution
    }

    /// Expected-case per-net densities for *pricing*, as opposed to
    /// the sound per-net bounds the fixpoint itself carries.
    ///
    /// Two over-approximations make the fixpoint densities useless as
    /// an expectation on sequential circuits: feedback nets widen to
    /// "toggles every tick", and their full `[0, 1]` intervals drive
    /// every downstream sensitivity to 1, so whole cones price near
    /// the saturation ceiling. This pass re-propagates densities from
    /// the stimulus seeds through the same gate sensitivity algebra
    /// (keeping the fixpoint's probability intervals), but treats
    /// loops as *excitation followers*: contributions flowing between
    /// two saturated nets are attenuated to [`FEEDBACK_DAMPING`]
    /// *split across the saturated fan-in*, so every loop's gain
    /// stays below one and it relaxes onto
    /// `excitation / (1 - damping)` instead of free-running at one
    /// transition per tick. The result is an estimate, not a bound —
    /// lints keep using [`Activity::density`]. `levels` is the
    /// netlist's levelization, whose order the pass sweeps in.
    #[must_use]
    pub fn expected_densities(
        &self,
        netlist: &Netlist,
        seeds: &InputSeeds,
        levels: &Levelization,
    ) -> Vec<f64> {
        let n = netlist.num_nets();
        // Saturation by value, not by the `widened` counter: a loop
        // that sums densities (XOR-style) climbs to TOP geometrically
        // well inside the height bound without ever being widened.
        let saturated: Vec<bool> = self
            .solution
            .values
            .iter()
            .map(|&v| v == NetActivity::TOP)
            .collect();
        let mut est = vec![0.0f64; n];
        let order = super::level_order(levels, Direction::Forward);
        // Monotone from zero (all algebra coefficients are
        // non-negative), so the relaxation converges; level order
        // settles the feed-forward part in one sweep and the damped
        // loops geometrically.
        for _ in 0..64 {
            let mut delta = 0.0f64;
            for &net in &order {
                let id = NetId(net);
                let i = id.index();
                let mut sum = 0.0;
                let mut pinned = false;
                for &c in netlist.drivers(id) {
                    let comp = netlist.component(c);
                    // Damping weight for reads feeding a saturated
                    // net: the loop's combined self-gain is capped at
                    // FEEDBACK_DAMPING by splitting it across this
                    // driver's saturated reads.
                    let w = if saturated[i] {
                        let mut k = 0usize;
                        comp.for_each_read(|m| k += usize::from(saturated[m.index()]));
                        FEEDBACK_DAMPING / k.max(1) as f64
                    } else {
                        1.0
                    };
                    let damp = |m: NetId| {
                        if saturated[i] && saturated[m.index()] {
                            w * est[m.index()]
                        } else {
                            est[m.index()]
                        }
                    };
                    match comp {
                        ComponentRef::Input { .. } => {
                            sum += seeds.get(id).copied().unwrap_or_default().density;
                        }
                        ComponentRef::Supply { .. } | ComponentRef::Pull { .. } => {
                            pinned |= matches!(comp, ComponentRef::Supply { .. });
                        }
                        ComponentRef::Gate { kind, inputs, .. } => {
                            let ins: Vec<In> = inputs
                                .iter()
                                .map(|&m| {
                                    let (lo, hi) = self.net(m).p1();
                                    In { lo, hi, d: damp(m) }
                                })
                                .collect();
                            sum += gate_activity(kind, &ins).2;
                        }
                        ComponentRef::Switch { control, a, b, .. } => {
                            let other = if a == id { b } else { a };
                            sum += damp(other) + damp(control);
                        }
                    }
                }
                let v = if pinned { 0.0 } else { sum.min(1.0) };
                if v > est[i] {
                    delta = delta.max(v - est[i]);
                    est[i] = v;
                }
            }
            if delta < 1e-9 {
                break;
            }
        }
        est
    }
}

/// Attenuation per feedback hop in [`Activity::expected_densities`]:
/// each pass between two saturated (loop) nets multiplies the
/// incoming transition rate by this factor — most arriving events do
/// not toggle a state bit (a counter stage halves its predecessor's
/// rate; an enabled latch follows its data only while open), and a
/// loop gain below one keeps the relaxation convergent instead of
/// saturating.
pub const FEEDBACK_DAMPING: f64 = 1.0 / 3.0;

/// Weight contrast of [`partition_weights`]: live vertex weights span
/// `1 ..= 1 + ACTIVITY_WEIGHT_SCALE` as predicted evaluations per tick
/// go from 0 to 1. Small enough that a single busy gate cannot
/// unbalance a part, large enough that a part full of quiet logic reads
/// as light.
pub const ACTIVITY_WEIGHT_SCALE: u32 = 7;

/// Per-component partitioning weights from the static activity
/// estimate under unconstrained input seeds (the worst case), in the
/// form [`ConnectivityGraph::build_weighted`] consumes: dead components
/// weigh 0 (as in the unweighted graph), live ones
/// `1 + round(ACTIVITY_WEIGHT_SCALE * activity)`, so a balanced
/// partition equalizes predicted evaluations per tick instead of
/// component count.
///
/// [`ConnectivityGraph::build_weighted`]: crate::graph::ConnectivityGraph::build_weighted
#[must_use]
pub fn partition_weights(netlist: &Netlist) -> Vec<u32> {
    let seeds = InputSeeds::unconstrained(netlist);
    let levels = Levelization::compute(netlist);
    let activity = Activity::analyze(netlist, &seeds, &levels).component_activity(netlist);
    let live = crate::analyze::live_components(netlist);
    activity
        .iter()
        .zip(&live)
        .map(|(&a, &l)| {
            if l {
                1 + (f64::from(ACTIVITY_WEIGHT_SCALE) * a.clamp(0.0, 1.0)).round() as u32
            } else {
                0
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::super::seeds::InputSeed;
    use super::*;
    use crate::component::Delay;
    use crate::{GateKind, NetlistBuilder};

    fn seed(density: f64) -> InputSeed {
        InputSeed {
            p1_lo: 0.5,
            p1_hi: 0.5,
            density,
            min_separation: 1,
            levels: super::super::xreach::LevelSet::ALL.0,
        }
    }

    #[test]
    fn constant_cone_has_zero_activity() {
        // Supply → NOT → NOT: rails never toggle, so nothing does.
        let mut b = NetlistBuilder::new("quiet");
        let one = b.net("one");
        b.supply(one, Level::One);
        let x = b.net("x");
        let y = b.net("y");
        b.gate(GateKind::Not, &[one], x, Delay::uniform(1));
        b.gate(GateKind::Not, &[x], y, Delay::uniform(1));
        b.mark_output(y);
        let n = b.finish().unwrap();
        let act = Activity::analyze(
            &n,
            &InputSeeds::unconstrained(&n),
            &Levelization::compute(&n),
        );
        assert_eq!(act.density(y), 0.0);
        let (lo, hi) = act.net(y).p1();
        assert_eq!((lo, hi), (1.0, 1.0), "NOT(NOT(1)) is 1");
        let ca = act.component_activity(&n);
        assert!(ca.iter().all(|&a| a == 0.0), "{ca:?}");
    }

    #[test]
    fn and_gate_attenuates_density() {
        // AND(a, b) with a biased low: sensitivity to b is at most
        // hi(a), so the output toggles less than b does.
        let mut b = NetlistBuilder::new("atten");
        let a = b.input("a");
        let c = b.input("c");
        let y = b.net("y");
        b.gate(GateKind::And, &[a, c], y, Delay::uniform(1));
        b.mark_output(y);
        let n = b.finish().unwrap();
        let mut seeds = InputSeeds::unconstrained(&n);
        seeds.set(
            a,
            InputSeed {
                p1_lo: 0.1,
                p1_hi: 0.1,
                density: 0.2,
                min_separation: 4,
                levels: 0b111,
            },
        );
        seeds.set(c, seed(0.5));
        let act = Activity::analyze(&n, &seeds, &Levelization::compute(&n));
        // d_y ≤ d_a·hi_c + d_c·hi_a = 0.2·0.5 + 0.5·0.1 = 0.15.
        assert!(act.density(y) <= 0.16, "{}", act.density(y));
        assert!(act.density(y) >= 0.14);
    }

    #[test]
    fn xor_chain_sums_density_and_stays_clamped() {
        let mut b = NetlistBuilder::new("xors");
        let mut prev = b.input("i0");
        let mut seeds_nets = vec![prev];
        for i in 1..8 {
            let inp = b.input(format!("i{i}"));
            seeds_nets.push(inp);
            let next = b.net(format!("x{i}"));
            b.gate(GateKind::Xor, &[prev, inp], next, Delay::uniform(1));
            prev = next;
        }
        b.mark_output(prev);
        let n = b.finish().unwrap();
        let mut seeds = InputSeeds::unconstrained(&n);
        for &s in &seeds_nets {
            seeds.set(s, seed(0.3));
        }
        let act = Activity::analyze(&n, &seeds, &Levelization::compute(&n));
        // Densities add through XOR but the estimate stays in [0, 1].
        assert!(
            (act.density(prev) - 1.0).abs() < 1e-9,
            "{}",
            act.density(prev)
        );
        for v in &act.solution().values {
            assert!(v.d() <= 1.0);
            let (lo, hi) = v.p1();
            assert!((0.0..=1.0).contains(&lo) && lo <= hi && hi <= 1.0);
        }
    }

    #[test]
    fn feedback_widens_instead_of_diverging() {
        // An XOR fed by itself and a toggling input: the quantized
        // density creeps until widening parks the loop at TOP.
        let mut b = NetlistBuilder::new("loop");
        let a = b.input("a");
        let q = b.net("q");
        b.gate(GateKind::Xor, &[a, q], q, Delay::uniform(1));
        b.mark_output(q);
        let n = b.finish().unwrap();
        let mut seeds = InputSeeds::unconstrained(&n);
        seeds.set(a, seed(0.01));
        let act = Activity::analyze(&n, &seeds, &Levelization::compute(&n));
        assert!(act.density(q) <= 1.0);
        assert!(act.solution().widened >= 1, "loop must widen");
    }
}
