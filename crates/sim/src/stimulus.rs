//! Test-vector stimulus generation.
//!
//! The paper applied "random test vectors ... until aggregate statistics
//! (e.g., average event-list size, circuit activity) remained stable and
//! most components experienced at least one output change". This module
//! reproduces that methodology: each primary input is assigned a
//! [`SignalRole`] (clock, random data, constant, or reset pulse) and the
//! [`RandomStimulus`] driver applies the resulting vectors tick by tick
//! from a seeded RNG, so every measurement in this repository is
//! reproducible.

use crate::engine::Simulator;
use logicsim_netlist::analyze::dataflow::seeds::{InputSeed, InputSeeds};
use logicsim_netlist::analyze::dataflow::xreach::LevelSet;
use logicsim_netlist::{Level, NetId, Plane, LANES};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// How a primary input behaves during a measurement run.
#[derive(Debug, Clone, PartialEq)]
pub enum SignalRole {
    /// A free-running clock: toggles every `half_period` ticks, starting
    /// low after `phase` ticks.
    Clock {
        /// Ticks between edges.
        half_period: u64,
        /// Offset of the first edge.
        phase: u64,
    },
    /// Random data: re-drawn every `period` ticks (offset by `phase`);
    /// each draw flips the current level with probability
    /// `toggle_prob`. Distinct phases stagger inputs so events spread
    /// over time instead of bunching on period boundaries.
    Random {
        /// Ticks between draws.
        period: u64,
        /// Offset of the draw schedule.
        phase: u64,
        /// Probability a draw toggles the level.
        toggle_prob: f64,
    },
    /// Held constant at a level.
    Const(Level),
    /// Active level held for the first `width` ticks, then the opposite
    /// level forever (power-on reset).
    Pulse {
        /// Level during the pulse.
        active: Level,
        /// Pulse width in ticks.
        width: u64,
    },
}

/// A named stimulus plan: `(input net name, role)` pairs. Circuit
/// generators ship one of these per benchmark so the measurement
/// binaries don't hard-code net names.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StimulusSpec {
    /// Assignments by input net name.
    pub assignments: Vec<(String, SignalRole)>,
}

impl StimulusSpec {
    /// Creates an empty spec.
    #[must_use]
    pub fn new() -> StimulusSpec {
        StimulusSpec::default()
    }

    /// Adds an assignment (builder style).
    #[must_use]
    pub fn with(mut self, net: impl Into<String>, role: SignalRole) -> StimulusSpec {
        self.assignments.push((net.into(), role));
        self
    }

    /// Resolves net names against a netlist and builds the driver.
    ///
    /// # Errors
    ///
    /// Returns the offending name if any assignment references a net
    /// that does not exist in the netlist or that an earlier assignment
    /// already drives, or gives it a clock with a zero `half_period`, or
    /// random data with a zero `period` or a `toggle_prob` that is not a
    /// probability.
    pub fn build(
        &self,
        netlist: &logicsim_netlist::Netlist,
        seed: u64,
    ) -> Result<RandomStimulus, String> {
        Ok(RandomStimulus::new(self.resolve(netlist)?, seed))
    }

    /// Resolves every assignment's net name and checks its role.
    fn resolve(
        &self,
        netlist: &logicsim_netlist::Netlist,
    ) -> Result<Vec<(NetId, SignalRole)>, String> {
        let mut resolved = Vec::with_capacity(self.assignments.len());
        let mut assigned = HashSet::with_capacity(self.assignments.len());
        for (name, role) in &self.assignments {
            let net = netlist
                .find_net(name)
                .ok_or_else(|| format!("stimulus references unknown net `{name}`"))?;
            if !assigned.insert(net) {
                return Err(format!("stimulus assigns net `{name}` twice"));
            }
            if let Some(defect) = role.defect() {
                return Err(format!("stimulus for net `{name}` has {defect}: {role:?}"));
            }
            resolved.push((net, role.clone()));
        }
        Ok(resolved)
    }

    /// Derives per-input seeds for the static analyses
    /// (`analyze::dataflow::{activity, timing, xreach}`) from this
    /// spec's periodicity: a clock's density and separation follow its
    /// half-period, random data follows its redraw period and toggle
    /// probability, constants and settled pulses are quiet.
    ///
    /// Inputs the spec does not assign keep the conservative
    /// [`InputSeed::default`]. Unknown net names are skipped rather
    /// than erroring — the analyses are advisory, and [`Self::build`]
    /// is where name typos get caught.
    #[must_use]
    pub fn activity_seeds(&self, netlist: &logicsim_netlist::Netlist) -> InputSeeds {
        let mut seeds = InputSeeds::unconstrained(netlist);
        for (name, role) in &self.assignments {
            if let Some(net) = netlist.find_net(name) {
                seeds.set(net, role.activity_seed());
            }
        }
        seeds
    }
}

impl SignalRole {
    /// The static-analysis seed this role justifies. Density and
    /// separation are provable bounds of the generated waveform; the
    /// `p1` interval for toggling roles is the steady-state
    /// distribution (exact for clocks, stationary-limit for random
    /// data), which is what the activity estimator wants.
    #[must_use]
    pub fn activity_seed(&self) -> InputSeed {
        let sep = |t: u64| u32::try_from(t).unwrap_or(u32::MAX).max(1);
        let both = LevelSet::just(Level::Zero).union(LevelSet::just(Level::One));
        // The `p1` interval of a level held forever.
        let p1 = |l: Level| match l {
            Level::One => (1.0, 1.0),
            Level::Zero => (0.0, 0.0),
            Level::X => (0.0, 1.0),
        };
        match *self {
            SignalRole::Clock { half_period, .. } => InputSeed {
                p1_lo: 0.5,
                p1_hi: 0.5,
                density: 1.0 / half_period.max(1) as f64,
                min_separation: sep(half_period),
                levels: both.0,
            },
            SignalRole::Random {
                period,
                toggle_prob,
                ..
            } => InputSeed {
                p1_lo: 0.5,
                p1_hi: 0.5,
                density: toggle_prob / period.max(1) as f64,
                min_separation: sep(period),
                levels: both.0,
            },
            SignalRole::Const(l) => {
                let (p1_lo, p1_hi) = p1(l);
                InputSeed {
                    p1_lo,
                    p1_hi,
                    density: 0.0,
                    min_separation: u32::MAX,
                    levels: LevelSet::just(l).0,
                }
            }
            SignalRole::Pulse { active, width } => {
                // One settling edge at `width`, quiet forever after;
                // the steady-state level is the released one.
                let (p1_lo, p1_hi) = p1(active.not());
                InputSeed {
                    p1_lo,
                    p1_hi,
                    density: 0.0,
                    min_separation: sep(width),
                    levels: both.union(LevelSet::just(active)).0,
                }
            }
        }
    }

    /// Why the role's waveform is undefined, if it is: a clock that
    /// never reaches its next edge, random data that never draws, or a
    /// draw whose toggle probability is not one (NaN included).
    fn defect(&self) -> Option<&'static str> {
        match *self {
            SignalRole::Clock { half_period: 0, .. } | SignalRole::Random { period: 0, .. } => {
                Some("a zero period")
            }
            SignalRole::Random { toggle_prob, .. } if !(0.0..=1.0).contains(&toggle_prob) => {
                Some("a toggle probability outside [0, 1]")
            }
            _ => None,
        }
    }

    /// The level held before the first tick is applied: random data and
    /// clocks start low, constants and pulses at their own level.
    fn initial_level(&self) -> Level {
        match *self {
            SignalRole::Const(l) => l,
            SignalRole::Pulse { active, .. } => active,
            SignalRole::Clock { .. } | SignalRole::Random { .. } => Level::Zero,
        }
    }

    /// The level a role whose waveform is a function of the tick alone
    /// holds at `tick`; `None` for random data.
    fn level_at(&self, tick: u64) -> Option<Level> {
        match *self {
            SignalRole::Const(l) => Some(l),
            SignalRole::Clock { half_period, phase } => Some(if tick < phase {
                Level::Zero
            } else {
                Level::from_bool(((tick - phase) / half_period) % 2 == 1)
            }),
            SignalRole::Pulse { active, width } => {
                Some(if tick < width { active } else { active.not() })
            }
            SignalRole::Random { .. } => None,
        }
    }

    /// The first tick after `tick` at which the held level can differ
    /// from the one at `tick` (a clock edge, the end of a pulse, the
    /// next random draw); `None` when there is none below `u64::MAX`.
    fn next_change(&self, tick: u64) -> Option<u64> {
        match *self {
            SignalRole::Const(_) => None,
            SignalRole::Clock { half_period, phase } => {
                if tick < phase {
                    phase.checked_add(half_period)
                } else {
                    (tick - (tick - phase) % half_period).checked_add(half_period)
                }
            }
            SignalRole::Pulse { width, .. } => (tick < width).then_some(width),
            SignalRole::Random { period, phase, .. } => {
                tick.checked_add(period - draw_residue(tick, period, phase))
            }
        }
    }
}

/// `(tick + phase) mod period` without overflow: random data draws on
/// the ticks where this is zero.
#[inline]
fn draw_residue(tick: u64, period: u64, phase: u64) -> u64 {
    match tick.checked_add(phase) {
        Some(sum) => sum % period,
        // Only a phase or a tick near `u64::MAX` gets here.
        None => {
            let (a, b) = (tick % period, phase % period);
            let gap = period - b;
            if a >= gap {
                a - gap
            } else {
                a + b
            }
        }
    }
}

/// Seeded random/clocked vector driver built from a [`StimulusSpec`].
///
/// The driver keeps a calendar of the next tick at which each input can
/// change level (clock edge, end of pulse, random draw), so a tick
/// costs in proportion to the inputs due in it, not to the inputs
/// there are.
#[derive(Debug, Clone)]
pub struct RandomStimulus {
    inputs: Vec<(NetId, SignalRole)>,
    /// Level each input holds: the one last handed to the sink (and the
    /// one random data draws its toggles from).
    levels: Vec<Level>,
    rng: ChaCha8Rng,
    /// `(tick, input index)` of every input's next possible change
    /// after `last`, earliest first.
    calendar: BinaryHeap<Reverse<(u64, u32)>>,
    /// Scratch: the inputs due in the tick being applied, then the ones
    /// of them to hand over.
    due: Vec<u32>,
    /// The tick of the latest call; `None` before the first.
    last: Option<u64>,
}

impl RandomStimulus {
    /// Creates a driver over resolved `(net, role)` pairs with a seed.
    ///
    /// # Panics
    ///
    /// Panics if a clock has a zero `half_period`, or random data a zero
    /// `period` or a `toggle_prob` outside `[0, 1]`;
    /// [`StimulusSpec::build`] reports those as errors.
    #[must_use]
    pub fn new(inputs: Vec<(NetId, SignalRole)>, seed: u64) -> RandomStimulus {
        for (net, role) in &inputs {
            assert!(
                role.defect().is_none(),
                "{net}: undefined waveform {role:?}"
            );
        }
        let levels = inputs
            .iter()
            .map(|(_, role)| role.initial_level())
            .collect();
        RandomStimulus {
            calendar: BinaryHeap::with_capacity(inputs.len()),
            due: Vec::new(),
            last: None,
            inputs,
            levels,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Moves input `idx` to `tick`: draws if it is random data and
    /// `tick` is one of its draw ticks, files its next possible change,
    /// and returns whether the held level changed.
    fn step_input(&mut self, idx: usize, tick: u64) -> bool {
        let role = &self.inputs[idx].1;
        let held = self.levels[idx];
        let level = match *role {
            SignalRole::Random {
                period,
                phase,
                toggle_prob,
            } => {
                if draw_residue(tick, period, phase) == 0 && self.rng.gen_bool(toggle_prob) {
                    held.not()
                } else {
                    held
                }
            }
            _ => role.level_at(tick).unwrap_or(held),
        };
        if let Some(next) = role.next_change(tick) {
            self.calendar.push(Reverse((next, idx as u32)));
        }
        self.levels[idx] = level;
        level != held
    }

    /// Feeds the input levels that change at `tick` to a sink: an
    /// engine's `set_input`, or the
    /// [`InputFrame`](crate::par_engine::InputFrame) a run hands its
    /// stimulus callback. The RNG consumes one decision per random
    /// input per matching tick whatever the sink, so every engine sees
    /// identical vectors.
    ///
    /// The first call hands every input to the sink; a later call hands
    /// over only the inputs whose level differs from the one they hold,
    /// in ascending input order. The sink must therefore keep levels,
    /// as every `set_input` does. Ticks need not be consecutive: an
    /// input is brought to `tick` directly, and a draw tick that was
    /// skipped draws nothing. A `tick` at or before the previous call's
    /// evaluates every input again (and draws again where it is due).
    pub fn apply_with(&mut self, tick: u64, mut set: impl FnMut(NetId, Level)) {
        self.advance(tick);
        for &idx in &self.due {
            let idx = idx as usize;
            set(self.inputs[idx].0, self.levels[idx]);
        }
    }

    /// [`RandomStimulus::apply_with`] by input index: brings every input
    /// to `tick` and leaves in `due` the indices of the inputs to hand
    /// over, in ascending order; each one's level is in `levels`.
    fn advance(&mut self, tick: u64) {
        let first = self.last.is_none();
        if self.last.is_some_and(|last| tick > last) {
            self.due.clear();
            while let Some(&Reverse((at, idx))) = self.calendar.peek() {
                if at > tick {
                    break;
                }
                self.calendar.pop();
                self.due.push(idx);
            }
            // Entries of skipped ticks pop before those of `tick`
            // itself; the draws below must run in input order.
            self.due.sort_unstable();
        } else {
            self.calendar.clear();
            self.due.clear();
            self.due.extend(0..self.inputs.len() as u32);
        }
        self.last = Some(tick);
        let mut due = std::mem::take(&mut self.due);
        due.retain(|&idx| self.step_input(idx as usize, tick) || first);
        self.due = due;
    }
}

/// A 64-lane batch stimulus: lane `l` is a [`RandomStimulus`] seeded
/// [`Stimulus64::lane_seed`]`(base, l)`, all built from the same
/// [`StimulusSpec`], writing one [`Plane`] per assigned input.
///
/// This is the contract the differential harness leans on: any lane of
/// a [`BitParSim`](crate::bitpar::BitParSim) batch is replayed on the
/// event-driven engine by a `RandomStimulus` with that lane's seed.
#[derive(Debug, Clone)]
pub struct Stimulus64 {
    /// One driver per lane, each over the same inputs in the same order.
    lanes: Vec<RandomStimulus>,
    /// Plane per input; lanes without a driver stay `X`.
    planes: Vec<Plane>,
    /// Scratch: the inputs whose plane the call being applied changed.
    changed: Vec<u32>,
}

impl Stimulus64 {
    /// The seed lane `lane` draws its random decisions from. Lane 0 is
    /// the base seed itself; other lanes mix in a golden-ratio stride.
    #[must_use]
    pub fn lane_seed(base: u64, lane: usize) -> u64 {
        base.wrapping_add((lane as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Builds `lanes` per-lane drivers from `spec` against `netlist`.
    ///
    /// # Errors
    ///
    /// Returns a message if `lanes` is not in `1..=64`, and the offending
    /// name if the spec references an unknown net, assigns a net twice or
    /// gives one an undefined waveform, as [`StimulusSpec::build`] does.
    pub fn new(
        spec: &StimulusSpec,
        netlist: &logicsim_netlist::Netlist,
        base_seed: u64,
        lanes: usize,
    ) -> Result<Stimulus64, String> {
        if !(1..=LANES).contains(&lanes) {
            return Err(format!("lanes must be 1..=64, got {lanes}"));
        }
        let inputs = spec.resolve(netlist)?;
        Ok(Stimulus64 {
            planes: vec![Plane::ALL_X; inputs.len()],
            lanes: (0..lanes)
                .map(|l| RandomStimulus::new(inputs.clone(), Stimulus64::lane_seed(base_seed, l)))
                .collect(),
            changed: Vec::new(),
        })
    }

    /// Feeds the input planes that change at `tick` to a sink (typically
    /// [`BitParSim::set_input_plane`](crate::bitpar::BitParSim::set_input_plane)):
    /// each lane's driver steps as [`RandomStimulus::apply_with`] would
    /// and writes the levels it hands over into its lane. Like it, the
    /// first call hands over every input and a later one the inputs
    /// whose plane changed, in ascending input order.
    pub fn apply_with(&mut self, tick: u64, mut set: impl FnMut(NetId, Plane)) {
        for (lane, stim) in self.lanes.iter_mut().enumerate() {
            stim.advance(tick);
            for &idx in &stim.due {
                let plane = &mut self.planes[idx as usize];
                *plane = plane.with_lane(lane, stim.levels[idx as usize]);
                self.changed.push(idx);
            }
        }
        self.changed.sort_unstable();
        self.changed.dedup();
        for idx in self.changed.drain(..) {
            let idx = idx as usize;
            set(self.lanes[0].inputs[idx].0, self.planes[idx]);
        }
    }
}

/// Runs a simulator under a stimulus until `end_tick` (exclusive).
///
/// This is the standard measurement loop: call
/// [`Simulator::reset_measurements`] after a warm-up prefix, then run the
/// measured window. Each tick's inputs are applied before it executes,
/// all in one entry into the engine.
pub fn run_with_stimulus(sim: &mut Simulator<'_>, stim: &mut RandomStimulus, end_tick: u64) {
    sim.run_with(end_tick, |tick, frame| {
        stim.apply_with(tick, |net, level| frame.set(net, level));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use logicsim_netlist::{Delay, GateKind, NetlistBuilder};

    fn buf_circuit() -> logicsim_netlist::Netlist {
        let mut b = NetlistBuilder::new("buf");
        let a = b.input("a");
        let clk = b.input("clk");
        let y = b.net("y");
        b.gate(GateKind::And, &[a, clk], y, Delay::uniform(1));
        b.finish().unwrap()
    }

    #[test]
    fn clock_toggles_at_half_period() {
        let n = buf_circuit();
        let spec = StimulusSpec::new()
            .with(
                "clk",
                SignalRole::Clock {
                    half_period: 5,
                    phase: 0,
                },
            )
            .with("a", SignalRole::Const(Level::One));
        let mut stim = spec.build(&n, 1).unwrap();
        let mut sim = Simulator::new(&n).expect("pre-flight");
        run_with_stimulus(&mut sim, &mut stim, 30);
        // clk toggled at ticks 5,10,...: expect ~5 clk events visible as
        // busy activity.
        assert!(sim.counters().events >= 5);
    }

    #[test]
    fn unknown_net_is_an_error() {
        let n = buf_circuit();
        let spec = StimulusSpec::new().with("nope", SignalRole::Const(Level::One));
        assert!(spec.build(&n, 0).is_err());
    }

    #[test]
    fn random_stimulus_is_deterministic_per_seed() {
        let n = buf_circuit();
        let spec = StimulusSpec::new()
            .with(
                "a",
                SignalRole::Random {
                    period: 3,
                    phase: 0,
                    toggle_prob: 0.5,
                },
            )
            .with(
                "clk",
                SignalRole::Clock {
                    half_period: 2,
                    phase: 0,
                },
            );
        let run = |seed| {
            let mut stim = spec.build(&n, seed).unwrap();
            let mut sim = Simulator::new(&n).expect("pre-flight");
            run_with_stimulus(&mut sim, &mut stim, 200);
            sim.counters().clone()
        };
        assert_eq!(run(42), run(42));
        // Different seeds should (overwhelmingly) differ in event counts.
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn stimulus64_lane0_matches_serial_with_base_seed() {
        let n = buf_circuit();
        let spec = StimulusSpec::new()
            .with(
                "a",
                SignalRole::Random {
                    period: 3,
                    phase: 0,
                    toggle_prob: 0.5,
                },
            )
            .with(
                "clk",
                SignalRole::Clock {
                    half_period: 2,
                    phase: 0,
                },
            );
        let mut batch = Stimulus64::new(&spec, &n, 42, 8).unwrap();
        let mut serial = spec.build(&n, 42).unwrap();
        // Both hand over only what changes: compare what each input
        // holds after the call.
        let mut batch_held = std::collections::BTreeMap::new();
        let mut serial_held = std::collections::BTreeMap::new();
        for tick in 0..100 {
            batch.apply_with(tick, |net, plane| {
                batch_held.insert(net, plane.lane(0));
            });
            serial.apply_with(tick, |net, level| {
                serial_held.insert(net, level);
            });
            assert_eq!(batch_held, serial_held, "tick {tick}");
        }
        assert_eq!(
            serial_held.len(),
            2,
            "the first call hands over every input"
        );
    }

    #[test]
    fn only_changed_levels_reach_the_sink() {
        let n = buf_circuit();
        let (a, clk) = (n.find_net("a").unwrap(), n.find_net("clk").unwrap());
        let spec = StimulusSpec::new()
            .with("a", SignalRole::Const(Level::One))
            .with(
                "clk",
                SignalRole::Clock {
                    half_period: 3,
                    phase: 1,
                },
            );
        let mut stim = spec.build(&n, 0).unwrap();
        let mut calls = Vec::new();
        for tick in 0..11 {
            stim.apply_with(tick, |net, level| calls.push((tick, net, level)));
        }
        assert_eq!(
            calls,
            vec![
                (0, a, Level::One),
                (0, clk, Level::Zero),
                (4, clk, Level::One),
                (7, clk, Level::Zero),
                (10, clk, Level::One),
            ]
        );
    }

    #[test]
    fn a_net_assigned_twice_is_rejected_with_its_name() {
        let n = buf_circuit();
        let spec = StimulusSpec::new()
            .with(
                "a",
                SignalRole::Clock {
                    half_period: 2,
                    phase: 0,
                },
            )
            .with("clk", SignalRole::Const(Level::One))
            .with("a", SignalRole::Const(Level::Zero));
        let err = spec.build(&n, 0).unwrap_err();
        assert_eq!(err, "stimulus assigns net `a` twice");
        assert_eq!(Stimulus64::new(&spec, &n, 0, 4).unwrap_err(), err);
    }

    #[test]
    fn toggle_probabilities_outside_the_unit_interval_are_rejected_with_the_net_name() {
        let n = buf_circuit();
        for bad in [2.5, -0.1, f64::NAN, f64::INFINITY] {
            let spec = StimulusSpec::new().with(
                "a",
                SignalRole::Random {
                    period: 5,
                    phase: 0,
                    toggle_prob: bad,
                },
            );
            let err = spec.build(&n, 0).unwrap_err();
            assert!(
                err.contains("`a`") && err.contains("[0, 1]"),
                "{bad}: {err}"
            );
            assert!(Stimulus64::new(&spec, &n, 0, 4)
                .unwrap_err()
                .contains("`a`"));
        }
        for ok in [0.0, 1.0] {
            let spec = StimulusSpec::new().with(
                "a",
                SignalRole::Random {
                    period: 5,
                    phase: 0,
                    toggle_prob: ok,
                },
            );
            assert!(spec.build(&n, 0).is_ok(), "{ok}");
        }
    }

    #[test]
    fn zero_periods_are_rejected_with_the_net_name() {
        let n = buf_circuit();
        let clock = StimulusSpec::new().with(
            "clk",
            SignalRole::Clock {
                half_period: 0,
                phase: 0,
            },
        );
        let random = StimulusSpec::new().with(
            "a",
            SignalRole::Random {
                period: 0,
                phase: 0,
                toggle_prob: 0.5,
            },
        );
        assert!(clock.build(&n, 0).unwrap_err().contains("`clk`"));
        assert!(random.build(&n, 0).unwrap_err().contains("`a`"));
        assert!(Stimulus64::new(&clock, &n, 0, 4)
            .unwrap_err()
            .contains("`clk`"));
        assert!(Stimulus64::new(&random, &n, 0, 4)
            .unwrap_err()
            .contains("`a`"));
        // The smallest periods that mean something are accepted.
        let one = StimulusSpec::new()
            .with(
                "clk",
                SignalRole::Clock {
                    half_period: 1,
                    phase: 0,
                },
            )
            .with(
                "a",
                SignalRole::Random {
                    period: 1,
                    phase: 0,
                    toggle_prob: 1.0,
                },
            );
        let mut held = std::collections::BTreeMap::new();
        let mut stim = one.build(&n, 0).unwrap();
        for tick in 0..4 {
            stim.apply_with(tick, |net, level| {
                held.insert(net, level);
            });
            // Both toggle every tick, the clock from its first edge at 1
            // and the data from its first draw at 0.
            assert_eq!(
                held[&n.find_net("clk").unwrap()],
                Level::from_bool(tick % 2 == 1)
            );
            assert_eq!(
                held[&n.find_net("a").unwrap()],
                Level::from_bool(tick % 2 == 0)
            );
        }
    }

    #[test]
    fn a_lane_count_outside_1_to_64_is_refused() {
        let n = buf_circuit();
        let spec = StimulusSpec::new().with("a", SignalRole::Const(Level::One));
        for lanes in [0, 65] {
            let err = Stimulus64::new(&spec, &n, 0, lanes).unwrap_err();
            assert_eq!(err, format!("lanes must be 1..=64, got {lanes}"));
        }
        for lanes in [1, 64] {
            assert!(Stimulus64::new(&spec, &n, 0, lanes).is_ok(), "{lanes}");
        }
    }

    #[test]
    fn phases_and_ticks_near_u64_max_do_not_overflow() {
        let n = buf_circuit();
        let (a, clk) = (n.find_net("a").unwrap(), n.find_net("clk").unwrap());
        let spec = StimulusSpec::new()
            .with(
                "a",
                SignalRole::Random {
                    period: 7,
                    phase: u64::MAX,
                    toggle_prob: 1.0,
                },
            )
            .with(
                "clk",
                SignalRole::Clock {
                    half_period: 5,
                    phase: u64::MAX - 2,
                },
            );
        // (tick + u64::MAX) mod 7 == 0 first at tick 6: u64::MAX mod 7 is 1.
        assert_eq!(u64::MAX % 7, 1);
        let mut stim = spec.build(&n, 0).unwrap();
        let mut batch = Stimulus64::new(&spec, &n, 0, 1).unwrap();
        let mut changes = Vec::new();
        for tick in 0..14 {
            stim.apply_with(tick, |net, level| changes.push((tick, net, level)));
            batch.apply_with(tick, |net, plane| {
                let held = changes.iter().rev().find(|c| c.1 == net).unwrap().2;
                assert_eq!(plane.lane(0), held, "tick {tick} {net}");
            });
        }
        assert_eq!(
            changes,
            vec![
                (0, a, Level::Zero),
                (0, clk, Level::Zero),
                (6, a, Level::One),
                (13, a, Level::Zero),
            ]
        );
        // The last ticks there are: the clock's first edge would fall
        // past u64::MAX, the data's next draw too.
        for tick in [u64::MAX - 3, u64::MAX - 2, u64::MAX - 1, u64::MAX] {
            stim.apply_with(tick, |net, level| changes.push((tick, net, level)));
            batch.apply_with(tick, |_, _| {});
        }
        // (u64::MAX - 2 + u64::MAX) mod 7 == (2 * 1 - 2) mod 7 == 0.
        assert_eq!(changes[4..], [(u64::MAX - 2, a, Level::One)]);
    }

    #[test]
    fn stimulus64_inactive_lanes_stay_x() {
        let n = buf_circuit();
        let spec = StimulusSpec::new().with("a", SignalRole::Const(Level::One));
        let mut batch = Stimulus64::new(&spec, &n, 0, 2).unwrap();
        batch.apply_with(0, |_, plane| {
            assert_eq!(plane.lane(0), Level::One);
            assert_eq!(plane.lane(1), Level::One);
            assert_eq!(plane.lane(2), Level::X);
            assert_eq!(plane.lane(63), Level::X);
        });
    }

    #[test]
    fn activity_seeds_follow_stimulus_periodicity() {
        let n = buf_circuit();
        let spec = StimulusSpec::new()
            .with(
                "clk",
                SignalRole::Clock {
                    half_period: 10,
                    phase: 0,
                },
            )
            .with(
                "a",
                SignalRole::Random {
                    period: 4,
                    phase: 0,
                    toggle_prob: 0.5,
                },
            );
        let seeds = spec.activity_seeds(&n);
        let clk = seeds.get(n.find_net("clk").unwrap()).unwrap();
        assert!((clk.density - 0.1).abs() < 1e-12);
        assert_eq!(clk.min_separation, 10);
        assert!(!LevelSet(clk.levels).contains(Level::X));
        let a = seeds.get(n.find_net("a").unwrap()).unwrap();
        assert!((a.density - 0.125).abs() < 1e-12);
        assert_eq!(a.min_separation, 4);
    }

    #[test]
    fn const_and_pulse_seeds_are_quiet() {
        let c = SignalRole::Const(Level::One).activity_seed();
        assert_eq!(c.density, 0.0);
        assert_eq!(c.min_separation, u32::MAX);
        assert_eq!((c.p1_lo, c.p1_hi), (1.0, 1.0));
        let p = SignalRole::Pulse {
            active: Level::One,
            width: 16,
        }
        .activity_seed();
        assert_eq!(p.density, 0.0);
        assert_eq!(p.min_separation, 16);
        assert_eq!((p.p1_lo, p.p1_hi), (0.0, 0.0), "settles at active.not()");
    }

    #[test]
    fn pulse_then_release() {
        let n = buf_circuit();
        let spec = StimulusSpec::new()
            .with(
                "a",
                SignalRole::Pulse {
                    active: Level::Zero,
                    width: 4,
                },
            )
            .with("clk", SignalRole::Const(Level::One));
        let mut stim = spec.build(&n, 0).unwrap();
        let mut sim = Simulator::new(&n).expect("pre-flight");
        let y = n.find_net("y").unwrap();
        run_with_stimulus(&mut sim, &mut stim, 3);
        assert_eq!(sim.level(y), Level::Zero);
        run_with_stimulus(&mut sim, &mut stim, 10);
        assert_eq!(sim.level(y), Level::One);
    }
}
