//! The serial event-driven simulator and what every engine shares.
//!
//! [`Simulator`] is the one-party case of the tick kernel in
//! [`par_engine`](crate::par_engine): one party on the calling thread,
//! no partition. The kernel advances a unit-increment global clock
//! (matching the `UI/GC` time control of the machine class the paper
//! models); at each tick it applies the due output changes, re-resolves
//! the affected nets (settling switch groups instantaneously), and
//! evaluates the fanout, scheduling each gate's output change after its
//! fixed rise/fall delay. Delays are inertial (see the kernel's docs).
//!
//! This module keeps what the engines share besides the kernel: the
//! static pre-flight and its [`PreflightError`], [`SimConfig`], the
//! hot-path `Image` (what the netlist cannot hold: the channel groups,
//! their compiled solver image, a switch's group and slot — nothing of
//! the circuit is copied) and the zero-delay power-up relaxation.

use crate::instrument::{ActivityProfile, WorkloadCounters};
use crate::obs;
use crate::par_engine::{InputFrame, ParSimulator};
use crate::solver;
use crate::trace::TickTrace;
use logicsim_netlist::analyze::{self, Diagnostic};
use logicsim_netlist::{
    ChannelGroups, CompId, ComponentColumns, ComponentKind, CsrView, Level, NetId, Netlist, Signal,
};
use std::cell::Cell;
use std::fmt;

/// Why an engine refuses to start: the netlist fails the static
/// pre-flight, so [`Simulator::new`] refuses it, or the engine's
/// configuration is one it cannot run — every engine constructor checks
/// its arguments before it builds anything and returns this instead of
/// panicking.
#[derive(Debug, Clone)]
pub enum PreflightError {
    /// The netlist contains at least one error-level finding (see
    /// [`mod@logicsim_netlist::analyze`]) and cannot be simulated
    /// faithfully.
    Findings {
        /// Name of the rejected circuit.
        circuit: String,
        /// The error-level findings (never empty).
        diagnostics: Vec<Diagnostic>,
        /// The findings rendered with net/component names resolved, one
        /// per entry of `diagnostics`.
        rendered: Vec<String>,
    },
    /// A [`ParSimulator`] was asked for no parties.
    NoWorkers,
    /// A [`ParSimulator`]'s assignment does not name one partition per
    /// component.
    Assignment {
        /// Entries in the assignment.
        len: usize,
        /// Components in the netlist.
        components: usize,
    },
    /// A [`BitParSim`](crate::BitParSim) was asked for a lane count
    /// outside `1..=64`.
    Lanes(usize),
}

impl fmt::Display for PreflightError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PreflightError::Findings {
                circuit,
                diagnostics,
                rendered,
            } => {
                write!(
                    f,
                    "netlist `{circuit}` fails pre-flight with {} error(s)",
                    diagnostics.len()
                )?;
                for r in rendered {
                    write!(f, "\n{r}")?;
                }
                Ok(())
            }
            PreflightError::NoWorkers => write!(f, "a parallel engine needs at least one worker"),
            PreflightError::Assignment { len, components } => write!(
                f,
                "the assignment names {len} partition(s) for {components} component(s)"
            ),
            PreflightError::Lanes(lanes) => write!(f, "lanes must be 1..=64, got {lanes}"),
        }
    }
}

impl std::error::Error for PreflightError {}

/// Rounds of zero-delay relaxation used to compute the initial
/// (power-up) state before any events are counted.
const INIT_ROUNDS: u32 = 128;

/// Engine configuration.
#[derive(Debug, Clone, Default)]
pub struct SimConfig {
    /// Collect a full [`TickTrace`] (needed for machine replay and
    /// partition studies; costs memory proportional to `E`).
    pub collect_trace: bool,
    /// Arm the per-phase wall-clock recorder (see [`crate::obs`]), so
    /// the same binary can compare armed vs. unarmed runs. Timing never
    /// feeds back into simulation state: traces and counters are
    /// bit-identical either way.
    pub observe: bool,
}

/// What the hot path reads besides the netlist: the channel groups and
/// their compiled solver image, built once by [`Image::build`] for the
/// tick kernel. The circuit itself — kind, delay, pins, output
/// net, drivers — is the netlist's own, borrowed, and the image keeps
/// no copy of it: per net it holds a group id, per component a
/// switch's group and slot, and the rest scales with the switch-level
/// part (DESIGN.md §10, "What the engines hold").
#[derive(Debug)]
pub(crate) struct Image<'n> {
    /// Channel-connected switch groups (also the per-net group map).
    pub(crate) groups: ChannelGroups,
    /// The groups compiled for the switch-level solver.
    pub(crate) solver: solver::GroupImage,
    /// The netlist's component columns: what the evaluation loop
    /// dispatches on (the tag byte) and reads (delay, pins, output net).
    pub(crate) comps: ComponentColumns<'n>,
    /// The netlist's driver rows.
    pub(crate) drivers: CsrView<'n, CompId>,
}

impl<'n> Image<'n> {
    /// Runs the static pre-flight and precomputes the hot-path image.
    pub(crate) fn build(netlist: &'n Netlist) -> Result<Image<'n>, PreflightError> {
        let errors = analyze::preflight(netlist);
        if !errors.is_empty() {
            return Err(PreflightError::Findings {
                circuit: netlist.name().to_string(),
                rendered: errors.iter().map(|d| d.render(netlist)).collect(),
                diagnostics: errors,
            });
        }
        let groups = ChannelGroups::compute(netlist);
        Ok(Image {
            solver: solver::GroupImage::build(netlist, &groups),
            groups,
            comps: netlist.columns(),
            drivers: netlist.driver_rows(),
        })
    }

    /// External (non-switch) drive on a net: the join of all gate/input/
    /// pull/rail drivers' current output, read through `drive`. Called
    /// for nets outside nontrivial groups (a group's members get theirs
    /// from [`solver::GroupImage::settle`]).
    ///
    /// The row is the netlist's whole driver row: on such a net the only
    /// switch there can be is one with both channel ends on it, and an
    /// engine never writes a switch's `comp_drive` entry, which stays
    /// [`Signal::FLOATING`] — the join's unit on every drive a component
    /// can hold (a tristate's disabled output is `FLOATING` itself) — so
    /// folding it in changes nothing.
    #[inline]
    pub(crate) fn external_drive(&self, net: NetId, drive: impl Fn(CompId) -> Signal) -> Signal {
        let drivers = self.drivers.row(net.index());
        drivers
            .iter()
            .fold(Signal::FLOATING, |v, &d| v.resolve(drive(d)))
    }

    /// Every component's drive before power-up: a pull's or rail's
    /// static drive, [`Signal::FLOATING`] for the rest.
    pub(crate) fn initial_drive(&self) -> Vec<Signal> {
        (0..self.comps.len())
            .map(|i| {
                self.comps
                    .kind(i)
                    .static_drive()
                    .unwrap_or(Signal::FLOATING)
            })
            .collect()
    }

    /// Heap bytes the image holds: the channel groups and their solver
    /// image. The netlist it borrows is not counted.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        self.groups.heap_bytes() + self.solver.heap_bytes()
    }

    /// The primary input driving `net`: the last `Input` component among
    /// its drivers, `None` if there is none.
    pub(crate) fn input_comp(&self, net: NetId) -> Option<CompId> {
        let drivers = self.drivers.row(net.index());
        drivers
            .iter()
            .rev()
            .copied()
            .find(|d| self.comps.kind(d.index()) == ComponentKind::Input)
    }
}

/// Zero-delay relaxation to a consistent power-up state over plain
/// state arrays: evaluate every gate against current net levels,
/// re-resolve all nets, and repeat until stable (or the round bound).
/// No events are counted. The kernel runs it at construction, so every
/// `P` starts from the identical state.
pub(crate) fn relax_power_up(
    img: &Image<'_>,
    net_values: &mut [Signal],
    comp_drive: &mut [Signal],
    last_scheduled: &mut [Signal],
) {
    let mut scratch = solver::Scratch::default();
    for round in 0..INIT_ROUNDS {
        // Recompute all net values from current drives.
        let mut changed = false;
        for (net_idx, value) in net_values.iter_mut().enumerate() {
            if img.groups.in_nontrivial_group(NetId(net_idx as u32)) {
                continue; // handled below per group
            }
            let v = img.external_drive(NetId(net_idx as u32), |d| comp_drive[d.index()]);
            if *value != v {
                *value = v;
                changed = true;
            }
        }
        let values = Cell::from_mut(&mut *net_values).as_slice_of_cells();
        for gid in 0..img.groups.num_groups() as u32 {
            if !img.groups.is_nontrivial(gid) {
                continue;
            }
            img.solver.settle(
                &img.groups,
                gid,
                &mut scratch,
                |d| comp_drive[d.index()],
                |net| values[net.index()].get(),
                |_, _| {},
                |net, v, _| {
                    values[net.index()].set(v);
                    changed = true;
                },
            );
        }
        // Re-evaluate all gates.
        for ci in 0..img.comps.len() {
            if let ComponentKind::Gate(kind) = img.comps.kind(ci) {
                let out = kind.evaluate_pins(img.comps.pins(ci), |n| net_values[n.index()].level);
                if comp_drive[ci] != out {
                    comp_drive[ci] = out;
                    last_scheduled[ci] = out;
                    changed = true;
                }
            }
        }
        if !changed && round > 0 {
            break;
        }
    }
}

/// The nontrivial groups that a resolution against the current drives
/// and levels would change, each with whether `settled` holds a record
/// of its last resolution (one that is not [`solver::UNSETTLED`]).
#[cfg(test)]
pub(crate) fn stale_groups(
    img: &Image<'_>,
    net_values: &[Signal],
    comp_drive: &[Signal],
    settled: &[u8],
) -> Vec<(u32, bool)> {
    let mut scratch = solver::Scratch::default();
    (0..img.groups.num_groups() as u32)
        .filter(|&gid| img.groups.is_nontrivial(gid))
        .filter_map(|gid| {
            let mut stale = false;
            img.solver.settle(
                &img.groups,
                gid,
                &mut scratch,
                |d| comp_drive[d.index()],
                |net| net_values[net.index()],
                |_, _| {},
                |_, _, _| stale = true,
            );
            let recorded = img
                .groups
                .switch_range(gid)
                .any(|slot| settled[slot] != solver::UNSETTLED);
            stale.then_some((gid, recorded))
        })
        .collect()
}

/// The event-driven gate/switch-level simulator: the tick kernel of
/// [`ParSimulator`] run as its one-party case — one party on the
/// calling thread, no partition, so no routing table is built and
/// nothing is mailed (see the [`par_engine`](crate::par_engine) docs).
///
/// See the [crate docs](crate) for an end-to-end example.
pub struct Simulator<'a> {
    kernel: ParSimulator<'a>,
}

impl fmt::Debug for Simulator<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("circuit", &self.netlist().name())
            .field("now", &self.now())
            .finish_non_exhaustive()
    }
}

impl<'a> Simulator<'a> {
    /// Creates a simulator with default configuration and computes the
    /// power-up state (all nets settle from `X` without counting events).
    ///
    /// # Errors
    ///
    /// Returns [`PreflightError`] when the static pre-flight finds an
    /// error-level diagnostic (e.g. LS0001, a combinational cycle
    /// closed in zero time): such netlists would livelock the event
    /// loop inside a single tick, so they are refused up front.
    pub fn new(netlist: &'a Netlist) -> Result<Simulator<'a>, PreflightError> {
        Simulator::with_config(netlist, SimConfig::default())
    }

    /// Creates a simulator with explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PreflightError`] as for [`Simulator::new`].
    pub fn with_config(
        netlist: &'a Netlist,
        config: SimConfig,
    ) -> Result<Simulator<'a>, PreflightError> {
        let kernel = ParSimulator::build(netlist, None, 1, config)?;
        Ok(Simulator { kernel })
    }

    /// The netlist being simulated.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        self.kernel.netlist()
    }

    /// Current simulation tick.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.kernel.now()
    }

    /// Resolved signal on a net.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    #[must_use]
    pub fn signal(&self, net: NetId) -> Signal {
        self.kernel.signal(net)
    }

    /// Logic level on a net.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    #[must_use]
    pub fn level(&self, net: NetId) -> Level {
        self.kernel.level(net)
    }

    /// Workload counters accumulated so far.
    #[must_use]
    pub fn counters(&self) -> &WorkloadCounters {
        self.kernel.counters()
    }

    /// Snapshot of the per-component activity profile.
    #[must_use]
    pub fn activity(&self) -> ActivityProfile {
        self.kernel.activity()
    }

    /// The collected trace (empty unless [`SimConfig::collect_trace`]).
    #[must_use]
    pub fn trace(&self) -> &TickTrace {
        self.kernel.trace()
    }

    /// Takes ownership of the collected trace, leaving an empty one.
    pub fn take_trace(&mut self) -> TickTrace {
        self.kernel.take_trace()
    }

    /// Resets counters, activity, trace, and phase observations (not
    /// circuit state); call after a warm-up run so measurements reflect
    /// steady state.
    pub fn reset_measurements(&mut self) {
        self.kernel.reset_measurements();
    }

    /// Snapshot of the per-phase wall-clock observations: the party's
    /// lane, then the master's (see [`ParSimulator::obs_report`]).
    /// Empty unless [`SimConfig::observe`] armed the recorder.
    #[must_use]
    pub fn obs_report(&self) -> obs::ObsReport {
        self.kernel.obs_report()
    }

    /// Drives a primary input to `level` at the current tick.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not a primary input.
    pub fn set_input(&mut self, net: NetId, level: Level) {
        self.kernel.set_input(net, level);
    }

    /// Executes the current tick (apply changes, settle, evaluate
    /// fanout), then advances the clock by one.
    pub fn step(&mut self) {
        let next = self.now() + 1;
        self.kernel.run_until(next);
    }

    /// Runs tick by tick until the clock reaches `tick` (exclusive).
    pub fn run_until(&mut self, tick: u64) {
        self.kernel.run_until(tick);
    }

    /// Runs until no events remain scheduled or the clock reaches
    /// `max_tick`; returns the final tick.
    pub fn run_to_quiescence(&mut self, max_tick: u64) -> u64 {
        self.kernel.run_to_quiescence(max_tick)
    }

    /// As [`ParSimulator::run_with`]: runs until `until` (exclusive),
    /// calling `stim` before each tick executes.
    pub(crate) fn run_with(&mut self, until: u64, stim: impl FnMut(u64, &mut InputFrame<'_, '_>)) {
        self.kernel.run_with(until, stim);
    }

    /// Schedule entries the event list has room for: the wheel's
    /// buffers and the drain buffer they circulate through.
    #[cfg(test)]
    pub(crate) fn retained_schedule_capacity(&self) -> usize {
        self.kernel.retained_schedule_capacity()[0]
    }

    /// [`stale_groups`] of the current state.
    #[cfg(test)]
    pub(crate) fn stale_groups(&self) -> Vec<(u32, bool)> {
        self.kernel.stale_groups()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cyclic::{self, Wiring};
    use crate::worklist::OrderedSet;
    use logicsim_circuits::Benchmark;
    use logicsim_netlist::{ComponentRef, Delay, GateKind, NetlistBuilder, Strength, SwitchKind};

    fn inverter() -> Netlist {
        let mut b = NetlistBuilder::new("inv");
        let a = b.input("a");
        let y = b.net("y");
        b.gate(GateKind::Not, &[a], y, Delay::uniform(2));
        b.finish().unwrap()
    }

    #[test]
    fn inverter_propagates_after_delay() {
        let n = inverter();
        let a = n.find_net("a").unwrap();
        let y = n.find_net("y").unwrap();
        let mut sim = Simulator::new(&n).expect("pre-flight");
        sim.set_input(a, Level::Zero);
        sim.step(); // tick 0: input applied, gate evaluated, change at t+2
        assert_eq!(sim.level(y), Level::X);
        sim.step(); // tick 1
        assert_eq!(sim.level(y), Level::X);
        sim.step(); // tick 2: output change applied
        assert_eq!(sim.level(y), Level::One);
    }

    #[test]
    fn rise_fall_delays_differ() {
        let mut b = NetlistBuilder::new("rf");
        let a = b.input("a");
        let y = b.net("y");
        b.gate(GateKind::Buf, &[a], y, Delay::rise_fall(5, 1));
        let n = b.finish().unwrap();
        let (a, y) = (n.find_net("a").unwrap(), n.find_net("y").unwrap());
        let mut sim = Simulator::new(&n).expect("pre-flight");
        sim.set_input(a, Level::One);
        sim.run_until(4); // rise takes 5 ticks: t0 eval -> change at t5
        assert_eq!(sim.level(y), Level::X);
        sim.run_until(6);
        assert_eq!(sim.level(y), Level::One);
        sim.set_input(a, Level::Zero);
        sim.run_until(8); // fall takes 1 tick: applied at t7
        assert_eq!(sim.level(y), Level::Zero);
    }

    #[test]
    fn counters_track_busy_idle_events() {
        let n = inverter();
        let a = n.find_net("a").unwrap();
        let mut sim = Simulator::new(&n).expect("pre-flight");
        sim.set_input(a, Level::Zero);
        sim.run_until(10);
        let c = sim.counters();
        assert_eq!(c.total_ticks(), 10);
        // tick 0: input event (a changes X->0); tick 2: y changes X->1.
        assert_eq!(c.busy_ticks, 2);
        assert_eq!(c.idle_ticks, 8);
        assert_eq!(c.events, 2);
        // a has fanout 1 (the gate); y has fanout 0.
        assert_eq!(c.messages_inf, 1);
    }

    #[test]
    fn no_change_input_generates_no_events() {
        let n = inverter();
        let a = n.find_net("a").unwrap();
        let mut sim = Simulator::new(&n).expect("pre-flight");
        sim.set_input(a, Level::One);
        sim.run_until(5);
        sim.reset_measurements();
        sim.set_input(a, Level::One); // same value: suppressed
        sim.run_until(10);
        assert_eq!(sim.counters().events, 0);
        assert_eq!(sim.counters().busy_ticks, 0);
    }

    #[test]
    fn ring_oscillator_oscillates() {
        // Three inverters in a ring: period = 2 * sum(delays) = 6 ticks.
        let mut b = NetlistBuilder::new("ring");
        let n0 = b.net("n0");
        let n1 = b.net("n1");
        let n2 = b.net("n2");
        b.gate(GateKind::Not, &[n0], n1, Delay::uniform(1));
        b.gate(GateKind::Not, &[n1], n2, Delay::uniform(1));
        let start = b.input("start");
        let y = b.net("y");
        b.gate(GateKind::Nand, &[n2, start], y, Delay::uniform(1));
        b.gate(GateKind::Buf, &[y], n0, Delay::uniform(1));
        let n = b.finish().unwrap();
        let start_net = n.find_net("start").unwrap();
        let n0_net = n.find_net("n0").unwrap();
        let mut sim = Simulator::new(&n).expect("pre-flight");
        // A ring cannot bootstrap from all-X: hold start low so the NAND
        // forces a known 1 into the loop, then release.
        sim.set_input(start_net, Level::Zero);
        sim.run_until(10);
        sim.set_input(start_net, Level::One);
        sim.run_until(100);
        // Oscillation means busy ticks keep accruing and the value is
        // known (the X power-up state was flushed by the NAND).
        assert!(sim.counters().events > 20);
        assert!(sim.level(n0_net).is_known());
    }

    #[test]
    fn nand_latch_sets_and_holds() {
        let mut b = NetlistBuilder::new("latch");
        let s_n = b.input("s_n");
        let r_n = b.input("r_n");
        let q = b.net("q");
        let qn = b.net("qn");
        b.gate(GateKind::Nand, &[s_n, qn], q, Delay::uniform(1));
        b.gate(GateKind::Nand, &[r_n, q], qn, Delay::uniform(1));
        let n = b.finish().unwrap();
        let (s_n, r_n) = (n.find_net("s_n").unwrap(), n.find_net("r_n").unwrap());
        let (q, qn) = (n.find_net("q").unwrap(), n.find_net("qn").unwrap());
        let mut sim = Simulator::new(&n).expect("pre-flight");
        // Set: s_n=0, r_n=1 -> q=1.
        sim.set_input(s_n, Level::Zero);
        sim.set_input(r_n, Level::One);
        sim.run_until(10);
        assert_eq!(sim.level(q), Level::One);
        assert_eq!(sim.level(qn), Level::Zero);
        // Release set: latch holds.
        sim.set_input(s_n, Level::One);
        sim.run_until(20);
        assert_eq!(sim.level(q), Level::One);
        // Reset.
        sim.set_input(r_n, Level::Zero);
        sim.run_until(30);
        assert_eq!(sim.level(q), Level::Zero);
        assert_eq!(sim.level(qn), Level::One);
    }

    #[test]
    fn pass_transistor_mux_switch_level() {
        // Two nmos switches steer a or b onto z; pull-down keeps z defined.
        let mut b = NetlistBuilder::new("ptmux");
        let sel = b.input("sel");
        let sel_n = b.net("sel_n");
        b.gate(GateKind::Not, &[sel], sel_n, Delay::uniform(1));
        let a = b.input("a");
        let bb = b.input("b");
        let z = b.net("z");
        b.switch(SwitchKind::Nmos, sel, a, z);
        b.switch(SwitchKind::Nmos, sel_n, bb, z);
        let n = b.finish().unwrap();
        let nets = |s: &str| n.find_net(s).unwrap();
        let mut sim = Simulator::new(&n).expect("pre-flight");
        sim.set_input(nets("a"), Level::One);
        sim.set_input(nets("b"), Level::Zero);
        sim.set_input(nets("sel"), Level::One);
        sim.run_until(10);
        assert_eq!(sim.level(nets("z")), Level::One);
        sim.set_input(nets("sel"), Level::Zero);
        sim.run_until(20);
        assert_eq!(sim.level(nets("z")), Level::Zero);
    }

    #[test]
    fn trace_collection_matches_counters() {
        let n = inverter();
        let a = n.find_net("a").unwrap();
        let mut sim = Simulator::with_config(
            &n,
            SimConfig {
                collect_trace: true,
                ..SimConfig::default()
            },
        )
        .expect("pre-flight");
        sim.set_input(a, Level::Zero);
        sim.run_until(10);
        let t = sim.trace();
        assert_eq!(t.busy_ticks(), sim.counters().busy_ticks);
        assert_eq!(t.total_events(), sim.counters().events);
        assert_eq!(t.total_messages_inf(), sim.counters().messages_inf);
        assert_eq!(t.end - t.start, sim.counters().total_ticks());
    }

    #[test]
    fn tristate_bus_sharing() {
        let mut b = NetlistBuilder::new("bus");
        let d0 = b.input("d0");
        let e0 = b.input("e0");
        let d1 = b.input("d1");
        let e1 = b.input("e1");
        let bus = b.net("bus");
        b.gate(GateKind::Tristate, &[d0, e0], bus, Delay::uniform(1));
        b.gate(GateKind::Tristate, &[d1, e1], bus, Delay::uniform(1));
        let n = b.finish().unwrap();
        let nets = |s: &str| n.find_net(s).unwrap();
        let mut sim = Simulator::new(&n).expect("pre-flight");
        sim.set_input(nets("d0"), Level::One);
        sim.set_input(nets("e0"), Level::One);
        sim.set_input(nets("d1"), Level::Zero);
        sim.set_input(nets("e1"), Level::Zero);
        sim.run_until(10);
        assert_eq!(sim.level(nets("bus")), Level::One);
        // Swap drivers.
        sim.set_input(nets("e0"), Level::Zero);
        sim.set_input(nets("e1"), Level::One);
        sim.run_until(20);
        assert_eq!(sim.level(nets("bus")), Level::Zero);
        // Both off: the bus floats. No switch touches it, so it is the
        // plain join of its drivers and keeps no charge: X at HighZ.
        sim.set_input(nets("e1"), Level::Zero);
        sim.run_until(30);
        assert_eq!(sim.signal(nets("bus")), Signal::FLOATING);
    }

    #[test]
    fn quiescence_stops_early() {
        let n = inverter();
        let a = n.find_net("a").unwrap();
        let mut sim = Simulator::new(&n).expect("pre-flight");
        sim.set_input(a, Level::Zero);
        let end = sim.run_to_quiescence(1_000_000);
        assert!(end < 100, "quiesced at {end}");
    }

    #[test]
    fn preflight_refuses_zero_delay_loop() {
        let mut b = NetlistBuilder::new("livelock");
        let e = b.input("e");
        let y = b.net("y");
        b.gate(GateKind::Nand, &[e, y], y, Delay { rise: 0, fall: 0 });
        let n = b.finish().unwrap();
        let err = Simulator::new(&n).expect_err("zero-delay loop must be refused");
        let PreflightError::Findings {
            circuit,
            diagnostics,
            ..
        } = &err
        else {
            panic!("refused for its findings, not {err:?}");
        };
        assert_eq!(circuit, "livelock");
        assert_eq!(diagnostics.len(), 1);
        let text = err.to_string();
        assert!(text.contains("LS0001"), "{text}");
        assert!(text.contains("fails pre-flight"), "{text}");
    }

    /// Input changes for the tick about to execute, through a setter.
    type Script = Box<dyn FnMut(u64, &mut dyn FnMut(NetId, Level))>;

    /// Deals every gate and switch round-robin to `parts` partitions.
    fn round_robin(netlist: &Netlist, parts: u32) -> Vec<u32> {
        let mut next = 0..;
        netlist
            .iter()
            .map(|(_, c)| match c {
                ComponentRef::Gate { .. } | ComponentRef::Switch { .. } => {
                    next.next().unwrap_or(0) % parts
                }
                _ => u32::MAX,
            })
            .collect()
    }

    /// Tracks one run against the settle rule's invariant: re-settling
    /// a nontrivial group the engine holds a record of changes none of
    /// its members. While no tick has counted a relaxation overflow, and
    /// if power-up left every group settled, that holds for *every*
    /// nontrivial group. Returns whether it still does.
    fn check_stale(stale: &[(u32, bool)], every: bool, overflows: u64, what: &str) -> bool {
        let every = every && overflows == 0;
        let bad: Vec<u32> = stale
            .iter()
            .filter(|&&(_, recorded)| every || recorded)
            .map(|&(gid, _)| gid)
            .collect();
        assert!(
            bad.is_empty(),
            "{what}: settling {bad:?} again would change them"
        );
        every
    }

    /// Runs a script from `script()` for `ticks` ticks on `Simulator`,
    /// checked after every tick, and on `ParSimulator` at P ∈ {2, 3},
    /// checked between `run_with` calls of 7 ticks; the three end with
    /// the same counters, the same value on every net and the same
    /// activity profile. Returns whether every group stayed settled
    /// throughout.
    fn assert_no_stale_group(netlist: &Netlist, ticks: u64, script: &dyn Fn() -> Script) -> bool {
        let mut serial = Simulator::new(netlist).expect("pre-flight");
        let mut every = serial.stale_groups().is_empty();
        let mut set_inputs = script();
        while serial.now() < ticks {
            let now = serial.now();
            set_inputs(now, &mut |net, l| serial.set_input(net, l));
            serial.step();
            let overflows = serial.counters().relaxation_overflows;
            let what = format!("Simulator after tick {now}");
            every = check_stale(&serial.stale_groups(), every, overflows, &what);
        }
        for workers in [2, 3] {
            let assignment = round_robin(netlist, workers as u32);
            let mut par = ParSimulator::new(netlist, &assignment, workers).expect("pre-flight");
            let mut par_every = par.stale_groups().is_empty();
            let mut set_inputs = script();
            while par.now() < ticks {
                let until = (par.now() + 7).min(ticks);
                par.run_with(until, |tick, frame| {
                    set_inputs(tick, &mut |net, l| frame.set(net, l));
                });
                let overflows = par.counters().relaxation_overflows;
                let what = format!("ParSimulator at P={workers} before tick {until}");
                par_every = check_stale(&par.stale_groups(), par_every, overflows, &what);
            }
            assert_eq!(par.counters(), serial.counters(), "P={workers}");
            assert_eq!(par.signals(), serial.kernel.signals(), "P={workers}");
            assert_eq!(par.activity(), serial.activity(), "P={workers}");
        }
        every
    }

    /// The base `assoc_mem` and `priority_queue` under their benchmark
    /// stimulus settle every group at power-up and never overflow, so no
    /// group may ever be stale.
    #[test]
    fn no_group_is_left_stale_on_the_switch_level_benchmarks() {
        for bench in [Benchmark::AssocMem, Benchmark::PriorityQueue] {
            let inst = bench.build_default();
            let proto = inst
                .stimulus
                .build(&inst.netlist, 0x1987)
                .expect("stimulus");
            let script = || -> Script {
                let mut stim = proto.clone();
                Box::new(move |tick, set| stim.apply_with(tick, &mut *set))
            };
            let every = assert_no_stale_group(&inst.netlist, 300, &script);
            assert!(every, "{bench:?}: a group was stale before the first tick");
        }
    }

    /// Three switch-level inverters in a ring closed by pass switches on
    /// `en`: closing the ring oscillates it inside one tick until the
    /// round bound drops its group unsettled (the ring of
    /// `par_engine`'s `settle_round_overflow_forgets_dirty_groups_like_serial`).
    /// Before and after, `rst` pulls every stage low through a switch
    /// and back, which re-evaluates the ring's switches.
    #[test]
    fn no_group_is_left_stale_after_a_round_overflow() {
        let mut b = NetlistBuilder::new("ring");
        let (rst, en) = (b.input("rst"), b.input("en"));
        let g = b.net("g");
        b.supply(g, Level::Zero);
        let n = [b.net("n1"), b.net("n2"), b.net("n3")];
        let c = [b.net("c1"), b.net("c2"), b.net("c3")];
        for k in 0..3 {
            b.pull(n[k], Level::One);
            b.switch(SwitchKind::Nmos, c[k], n[k], g);
            b.switch(SwitchKind::Nmos, en, n[(k + 2) % 3], c[k]);
            b.switch(SwitchKind::Nmos, rst, c[k], g);
        }
        let netlist = b.finish().unwrap();
        let script = || -> Script {
            Box::new(move |tick, set| match tick {
                0 => (set(en, Level::Zero), set(rst, Level::One)).0,
                5 | 25 => set(rst, Level::Zero),
                10 => set(en, Level::One),
                20 => set(rst, Level::One),
                _ => (),
            })
        };
        // `false`: the round bound was hit, and from then on only the
        // groups with a record are held to the invariant.
        assert!(!assert_no_stale_group(&netlist, 40, &script));
    }

    /// A settle names, as the cause of every member's change, the
    /// member's first switch driver, for pairs (from their record) and
    /// every other group (from the kernel's adjacency) alike: on the five
    /// base circuits and two 10k tilings, with every member read as a
    /// value no settle produces, so each one changes.
    #[test]
    fn a_settle_names_each_members_first_switch_driver() {
        let mut netlists: Vec<Netlist> = Benchmark::ALL.map(|b| b.build_default().netlist).into();
        for bench in [Benchmark::RtpChip, Benchmark::PriorityQueue] {
            netlists.push(bench.build_at(10_000).netlist);
        }
        for n in &netlists {
            let img = Image::build(n).expect("pre-flight");
            let never = Signal::new(Level::X, Strength::Supply);
            let mut scratch = solver::Scratch::default();
            for gid in (0..img.groups.num_groups() as u32).filter(|&g| img.groups.is_nontrivial(g))
            {
                let mut named = Vec::new();
                img.solver.settle(
                    &img.groups,
                    gid,
                    &mut scratch,
                    |_| Signal::FLOATING,
                    |_| never,
                    |_, _| {},
                    |net, _, cause| named.push((net, cause)),
                );
                let first_switch = |net: NetId| {
                    let row = n.drivers(net).iter().copied();
                    row.clone().find(|d| n.component(*d).is_switch()).unwrap()
                };
                let want: Vec<_> = img
                    .groups
                    .members(gid)
                    .iter()
                    .map(|&m| (m, first_switch(m)))
                    .collect();
                assert_eq!(named, want, "{}: group {gid}", n.name());
            }
        }
    }

    /// The image keeps no copy of the circuit: what it holds per net is
    /// the group map's one word, per component the switch place table's
    /// two, and the rest scales with the switch-level part — so a
    /// gate-only circuit costs exactly those two tables plus the empty
    /// runs' offsets, and a circuit with switches at most 64 bytes per
    /// switch and per group member on top.
    #[test]
    fn the_image_keeps_no_copy_of_the_circuit() {
        let mut b = NetlistBuilder::new("chain");
        let mut net = b.input("a");
        for i in 0..1_000 {
            let next = b.net(format!("n{i}"));
            b.gate(GateKind::Not, &[net], next, Delay::uniform(1));
            net = next;
        }
        let n = b.finish().unwrap();
        let img = Image::build(&n).expect("pre-flight");
        let tables = 4 * n.num_nets() + 8 * n.num_components();
        assert_eq!(img.heap_bytes(), tables + 4 * 4, "four empty runs' offsets");
        for bench in [Benchmark::RtpChip, Benchmark::PriorityQueue] {
            let inst = bench.build_at(10_000);
            let n = &inst.netlist;
            let img = Image::build(n).expect("pre-flight");
            let tables = 4 * n.num_nets() + 8 * n.num_components();
            let switch_part = n.num_switches() + img.groups.num_members();
            let held = img.heap_bytes();
            assert!(held > tables, "{bench:?}");
            assert!(
                held - tables <= 64 * switch_part,
                "{bench:?}: {held} bytes held, {switch_part} switches and members"
            );
        }
    }

    /// What the engine holds beyond the image, per element, on the
    /// 1 000-inverter chain: 20 bytes per component (drive, last
    /// scheduled drive, pending sequence number, activity count) and 2
    /// per net (its value), plus one worklist bit per net, component and
    /// group — for `Simulator` and for `ParSimulator` at P = 1 with no
    /// partition alike, no more than a serial engine needs (20 and 6
    /// with a per-net cause). Two parties add the routing table (owner
    /// and partition per component) and a second party's worklists.
    #[test]
    fn one_party_holds_no_more_than_the_serial_engine() {
        let mut b = NetlistBuilder::new("chain");
        let mut net = b.input("a");
        for i in 0..1_000 {
            let next = b.net(format!("n{i}"));
            b.gate(GateKind::Not, &[net], next, Delay::uniform(1));
            net = next;
        }
        let n = b.finish().unwrap();
        let (nc, nn) = (n.num_components(), n.num_nets());
        let ng = Image::build(&n).expect("pre-flight").groups.num_groups();
        let bits = [nn, nc, ng]
            .map(|len| OrderedSet::with_capacity(len).heap_bytes())
            .iter()
            .sum::<usize>();
        let one_party = 20 * nc + 2 * nn + bits;
        assert!(one_party <= 20 * nc + 6 * nn + bits);
        let serial = Simulator::new(&n).expect("pre-flight");
        assert_eq!(serial.kernel.state_heap_bytes(), one_party);
        let unassigned = vec![u32::MAX; nc];
        let p1 = ParSimulator::new(&n, &unassigned, 1).expect("pre-flight");
        assert_eq!(p1.state_heap_bytes(), one_party);
        let p2 = ParSimulator::new(&n, &round_robin(&n, 2), 2).expect("pre-flight");
        let routing = 8 * nc;
        assert_eq!(p2.state_heap_bytes(), one_party + routing + bits);
    }

    /// The event lists hold what is in flight, not the wheel's 256-slot
    /// horizon: after 5 000 ticks of `rtp@10k` `Simulator`, and every
    /// party at P ∈ {2, 4}, has room for at most four times the busiest
    /// tick boundary's pending changes (`event_list_peak`); `Simulator`
    /// needs 1.7 times. A wheel whose slots keep their high-water
    /// capacity needs over a hundred times.
    #[test]
    fn event_lists_retain_only_what_is_in_flight() {
        const TICKS: u64 = 5_000;
        let inst = Benchmark::RtpChip.build_at(10_000);
        let netlist = &inst.netlist;
        let proto = inst.stimulus.build(netlist, 0x1987).expect("stimulus");
        let mut serial = Simulator::new(netlist).expect("pre-flight");
        let mut stim = proto.clone();
        while serial.now() < TICKS {
            let now = serial.now();
            stim.apply_with(now, |net, l| serial.set_input(net, l));
            serial.step();
        }
        let peak = serial.counters().event_list_peak as usize;
        assert!(peak > 100, "rtp@10k keeps the wheel busy: {peak}");
        let held = serial.retained_schedule_capacity();
        assert!(held <= 4 * peak, "serial: room for {held}, peak {peak}");
        for workers in [2, 4] {
            let assignment = round_robin(netlist, workers as u32);
            let mut par = ParSimulator::new(netlist, &assignment, workers).expect("pre-flight");
            let mut stim = proto.clone();
            par.run_with(TICKS, |tick, frame| {
                stim.apply_with(tick, |net, l| frame.set(net, l));
            });
            assert_eq!(par.counters(), serial.counters(), "P={workers}");
            let held = par.retained_schedule_capacity();
            assert_eq!(held.len(), workers, "one event list per party");
            for (p, held) in held.into_iter().enumerate() {
                assert!(
                    held <= 4 * peak,
                    "P={workers} party {p}: room for {held}, peak {peak}"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// The same on random cyclic circuits, wired wild, two elements
        /// in three with switches: pass-gate cells in feedback paths, a
        /// storage node gating its own switch, nMOS latches that can
        /// oscillate inside one tick until the round bound stops them,
        /// buses, fights and supplied members, chained into one another.
        /// One input takes a drawn level every other tick.
        #[test]
        fn no_group_is_left_stale_on_cyclic_circuits(
            elements in proptest::collection::vec(
                (0usize..17, 0usize..64, 0usize..64, 0usize..64, 0usize..64), 1..12),
            gates in proptest::collection::vec((0u8..8, 0usize..64, 0usize..64), 0..8),
            changes in proptest::collection::vec((0usize..cyclic::INPUTS, 0usize..3), 8..48),
        ) {
            // Selectors past the 11 kinds pick a switch-level one.
            let elements: Vec<cyclic::Element> = elements
                .into_iter()
                .map(|(s, p0, p1, p2, p3)| {
                    let kind = [2, 3, 5, 8, 9, 10].get(s.wrapping_sub(11)).map_or(s, |&k| k);
                    (kind as u8, p0, p1, p2, p3)
                })
                .collect();
            let c = cyclic::build(&elements, &gates, Wiring::Wild);
            if Image::build(&c.netlist).is_err() {
                return; // a zero-delay gate loop: refused by pre-flight
            }
            let levels = [Level::Zero, Level::One, Level::X];
            let script = || -> Script {
                let (inputs, changes) = (c.inputs.clone(), changes.clone());
                Box::new(move |tick, set| {
                    if let Some(&(i, l)) = changes.get(tick as usize / 2).filter(|_| tick.is_multiple_of(2)) {
                        set(inputs[i], levels[l]);
                    }
                })
            };
            assert_no_stale_group(&c.netlist, 2 * changes.len() as u64 + 6, &script);
        }
    }
}
