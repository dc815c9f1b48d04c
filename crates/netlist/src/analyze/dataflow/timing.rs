//! Static timing windows: min/max arrival intervals and event
//! separation bounds per net.
//!
//! Each net carries a [`Window`]: the earliest and latest tick
//! (relative to a primary-input event at tick 0) at which an event
//! can appear on the net, plus a provable lower bound on the
//! separation between two successive events. Primary inputs start at
//! `[0, 0]` with the separation their stimulus guarantees (a clock
//! with half-period `h` never toggles twice within `h` ticks); gates
//! shift the window by their rise/fall delays and erode the
//! separation by the rise/fall skew.
//!
//! Two facts fall out:
//!
//! - **Unbounded windows** (`max == u32::MAX`): the net sits on
//!   feedback whose settling time the analysis cannot bound —
//!   potential oscillation, lint LS0011.
//! - **Provably inertial-filter-free gates**: a gate whose every
//!   input provably separates events by at least `max(rise, fall)`
//!   can never see a pulse shorter than its inertial window, so
//!   delay-model filtering provably never cancels one of its events.
//!   Those components (lint LS0013) are safe targets for delay-aware
//!   chain contraction — the compiled backend can fuse them without
//!   changing observable waveforms.

use super::seeds::InputSeeds;
use super::{solve, Analysis, Direction, Solution};
use crate::analyze::Levelization;
use crate::component::{CompId, ComponentRef, NetId};
use crate::netlist::Netlist;

/// Arrival interval and event-separation bound for one net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Earliest event tick relative to a stimulus event. `min > max`
    /// encodes the empty window (no events reach the net).
    pub min: u32,
    /// Latest event tick; `u32::MAX` means unbounded (feedback).
    pub max: u32,
    /// Provable lower bound on the gap between two successive events;
    /// `u32::MAX` means the net produces at most one event ever.
    pub sep: u32,
}

impl Window {
    /// The bottom element: no events known to reach the net.
    pub const BOTTOM: Window = Window {
        min: u32::MAX,
        max: 0,
        sep: u32::MAX,
    };
    /// The top element: events any time, arbitrarily close.
    pub const TOP: Window = Window {
        min: 0,
        max: u32::MAX,
        sep: 1,
    };

    /// Whether no events reach the net.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.min > self.max
    }

    /// Whether the latest-arrival bound diverged (feedback).
    #[must_use]
    pub fn is_unbounded(self) -> bool {
        !self.is_empty() && self.max == u32::MAX
    }

    /// Interval hull with the weaker (smaller) separation — the
    /// lattice join.
    #[must_use]
    pub fn join(self, other: Window) -> Window {
        if self.is_empty() {
            return other;
        }
        if other.is_empty() {
            return self;
        }
        Window {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
            sep: self.sep.min(other.sep),
        }
    }
}

/// The timing-window analysis over one netlist.
pub struct TimingAnalysis<'a> {
    netlist: &'a Netlist,
    seeds: &'a InputSeeds,
    levels: &'a Levelization,
}

impl Analysis for TimingAnalysis<'_> {
    type Value = Window;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn num_nets(&self) -> usize {
        self.netlist.num_nets()
    }

    fn bottom(&self, _net: u32) -> Window {
        Window::BOTTOM
    }

    fn transfer(&self, net: u32, values: &[Window]) -> Window {
        let id = NetId(net);
        let mut out = Window::BOTTOM;
        for &c in self.netlist.drivers(id) {
            let w = match self.netlist.component(c) {
                ComponentRef::Input { .. } => Window {
                    min: 0,
                    max: 0,
                    sep: self.seeds.get(id).map_or(1, |s| s.min_separation),
                },
                // A rail produces exactly one settling event at
                // power-up.
                ComponentRef::Supply { .. } | ComponentRef::Pull { .. } => Window {
                    min: 0,
                    max: 0,
                    sep: u32::MAX,
                },
                ComponentRef::Gate { inputs, delay, .. } => {
                    let lo = delay.rise.min(delay.fall);
                    let hi = delay.rise.max(delay.fall);
                    let mut min = u32::MAX;
                    let mut max = 0u32;
                    // Inputs that can fire more than once; a sep of
                    // u32::MAX contributes at most one transient
                    // event, which cannot shrink the steady-state
                    // separation.
                    let mut repeating = 0usize;
                    let mut rep_sep = u32::MAX;
                    let mut any = false;
                    for i in inputs {
                        let w = values[i.index()];
                        if w.is_empty() {
                            continue;
                        }
                        any = true;
                        min = min.min(w.min);
                        max = max.max(w.max);
                        if w.sep < u32::MAX {
                            repeating += 1;
                            rep_sep = rep_sep.min(w.sep);
                        }
                    }
                    if !any {
                        continue;
                    }
                    let sep = match repeating {
                        0 => u32::MAX,
                        // One repeating source: its cadence survives,
                        // jittered by the rise/fall skew.
                        1 => rep_sep.saturating_sub(hi - lo).max(1),
                        // Interleaved sources can land back to back.
                        _ => 1,
                    };
                    Window {
                        min: min.saturating_add(lo),
                        max: max.saturating_add(hi),
                        sep,
                    }
                }
                // Bidirectional groups resolve with unit switch delay
                // and no provable structure.
                ComponentRef::Switch { .. } => Window::TOP,
            };
            out = out.join(w);
        }
        out
    }

    fn join(&self, old: &Window, new: &Window) -> Window {
        old.join(*new)
    }

    fn height(&self) -> u32 {
        // A DAG net settles in one topological visit; feedback grows
        // `max` by at least one delay per revisit — cut it short.
        32
    }

    fn widen(&self, value: &mut Window) {
        *value = Window::TOP;
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

/// The solved timing facts for one netlist.
#[derive(Debug, Clone)]
pub struct Timing {
    solution: Solution<Window>,
    filter_free: Vec<bool>,
}

impl Timing {
    /// Runs the analysis, seeded in the order of `levels`, the
    /// netlist's levelization, and evaluates the filter-free predicate
    /// for every gate.
    #[must_use]
    pub fn analyze(netlist: &Netlist, seeds: &InputSeeds, levels: &Levelization) -> Timing {
        let solution = solve(&TimingAnalysis {
            netlist,
            seeds,
            levels,
        });
        let filter_free = (0..netlist.num_components())
            .map(|i| {
                let ComponentRef::Gate { inputs, delay, .. } = netlist.component(CompId(i as u32))
                else {
                    return false;
                };
                let window = delay.rise.max(delay.fall);
                inputs.iter().all(|n| {
                    let w = solution.values[n.index()];
                    w.is_empty() || w.sep >= window
                })
            })
            .collect();
        Timing {
            solution,
            filter_free,
        }
    }

    /// The arrival window of `net`.
    #[must_use]
    pub fn window(&self, net: NetId) -> Window {
        self.solution.values[net.index()]
    }

    /// Whether `net`'s latest-arrival bound diverged (LS0011).
    #[must_use]
    pub fn is_unbounded(&self, net: NetId) -> bool {
        self.solution.values[net.index()].is_unbounded()
    }

    /// Whether component `c` is a gate whose inputs provably never
    /// carry a pulse shorter than its inertial window (LS0013).
    #[must_use]
    pub fn is_filter_free(&self, c: CompId) -> bool {
        self.filter_free[c.index()]
    }

    /// The engine effort counters (for tests and reports).
    #[must_use]
    pub fn solution(&self) -> &Solution<Window> {
        &self.solution
    }
}

#[cfg(test)]
mod tests {
    use super::super::seeds::InputSeed;
    use super::*;
    use crate::component::Delay;
    use crate::{GateKind, NetlistBuilder};

    #[test]
    fn chain_accumulates_delay_bounds() {
        let mut b = NetlistBuilder::new("chain");
        let a = b.input("a");
        let x = b.net("x");
        let y = b.net("y");
        b.gate(GateKind::Not, &[a], x, Delay::rise_fall(2, 3));
        b.gate(GateKind::Not, &[x], y, Delay::rise_fall(1, 4));
        b.mark_output(y);
        let n = b.finish().unwrap();
        let t = Timing::analyze(
            &n,
            &InputSeeds::unconstrained(&n),
            &Levelization::compute(&n),
        );
        assert_eq!(
            t.window(a),
            Window {
                min: 0,
                max: 0,
                sep: 1
            }
        );
        assert_eq!(
            t.window(x),
            Window {
                min: 2,
                max: 3,
                sep: 1
            }
        );
        assert_eq!(
            t.window(y),
            Window {
                min: 3,
                max: 7,
                sep: 1
            }
        );
        assert!(!t.is_unbounded(y));
    }

    #[test]
    fn feedback_widens_to_unbounded() {
        let mut b = NetlistBuilder::new("ring");
        let a = b.input("a");
        let q = b.net("q");
        b.gate(GateKind::Nand, &[a, q], q, Delay::uniform(2));
        b.mark_output(q);
        let n = b.finish().unwrap();
        let t = Timing::analyze(
            &n,
            &InputSeeds::unconstrained(&n),
            &Levelization::compute(&n),
        );
        assert!(t.is_unbounded(q), "{:?}", t.window(q));
        assert!(t.solution().widened >= 1);
    }

    #[test]
    fn slow_clock_keeps_gates_filter_free() {
        // A clock with half-period 8 through delay-3 gates: events
        // stay at least 8 apart, far above any inertial window.
        let mut b = NetlistBuilder::new("slow");
        let clk = b.input("clk");
        let x = b.net("x");
        let y = b.net("y");
        b.gate(GateKind::Not, &[clk], x, Delay::uniform(3));
        b.gate(GateKind::Not, &[x], y, Delay::uniform(3));
        b.mark_output(y);
        let n = b.finish().unwrap();
        let mut seeds = InputSeeds::unconstrained(&n);
        seeds.set(
            clk,
            InputSeed {
                min_separation: 8,
                ..InputSeed::default()
            },
        );
        let t = Timing::analyze(&n, &seeds, &Levelization::compute(&n));
        assert_eq!(t.window(x).sep, 8, "uniform delay has no skew");
        for i in 0..n.num_components() as u32 {
            let id = CompId(i);
            if n.component(id).is_gate() {
                assert!(t.is_filter_free(id), "component {i}");
            }
        }
    }

    #[test]
    fn converging_fast_paths_defeat_the_filter_free_proof() {
        // Two paths from one input reconverge on an AND: interleaved
        // arrivals can be back to back, and the gate's inertial
        // window (5) exceeds the provable separation (1).
        let mut b = NetlistBuilder::new("glitchy");
        let a = b.input("a");
        let x = b.net("x");
        let y = b.net("y");
        b.gate(GateKind::Not, &[a], x, Delay::uniform(1));
        b.gate(GateKind::And, &[a, x], y, Delay::uniform(5));
        b.mark_output(y);
        let n = b.finish().unwrap();
        let t = Timing::analyze(
            &n,
            &InputSeeds::unconstrained(&n),
            &Levelization::compute(&n),
        );
        let and_gate = (0..n.num_components() as u32)
            .map(CompId)
            .find(|&c| {
                matches!(
                    n.component(c),
                    ComponentRef::Gate {
                        kind: GateKind::And,
                        ..
                    }
                )
            })
            .unwrap();
        assert!(!t.is_filter_free(and_gate));
        assert_eq!(t.window(y).sep, 1, "two repeating inputs interleave");
    }
}
