//! Stand-alone probes of the traced pass: kernels and static analyses
//! timed on their own, after the job, so a layer-level regression can
//! be chased to a kernel. Each runs a fixed script through a public
//! function and reports seconds or nanoseconds per operation.

use crate::trace::Recorder;
use crate::workloads::{Engine, Workload};
use logicsim::circuits::{scaled, ScaledParams};
use logicsim::machine::StaticCost;
use logicsim::netlist::analyze::{preflight, Levelization};
use logicsim::netlist::{
    ChannelGroups, Delay, GateKind, Level, NetId, Netlist, NetlistBuilder, Signal, SwitchKind,
};
use logicsim::sim::solver::{resolve_group_into, Scratch};
use logicsim::sim::{Stimulus64, StimulusSpec, TimingWheel};
use std::collections::BTreeMap;
use std::hint::black_box;

/// What the probes need from the job that just ran.
pub struct Context<'a> {
    /// The workload.
    pub workload: &'static Workload,
    /// The parsed input.
    pub netlist: &'a Netlist,
    /// Its stimulus plan.
    pub spec: &'a StimulusSpec,
    /// The run's seed.
    pub seed: u64,
    /// Input scale, to rebuild it.
    pub scale: usize,
    /// Warm-up ticks (vectors) of the job.
    pub warm: u64,
    /// Window ticks (vectors) of the job.
    pub ticks: u64,
    /// Evaluations the window performed (0 on the bit-parallel engine).
    pub evaluations: u64,
}

/// Operations of the timing-wheel script.
const WHEEL_OPS: u64 = 1_000_000;
/// Switches of the pass chain the solver probe resolves.
const CHAIN_SWITCHES: usize = 64;
/// Resolutions of the chain.
const CHAIN_ROUNDS: u32 = 20_000;

/// Runs every probe under the caller's `probes` span.
pub fn run(
    rec: &mut Recorder,
    cx: &Context<'_>,
    layers: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    let nl = cx.netlist;

    let sp = rec.enter("netlist.analyze.preflight");
    black_box(preflight(nl));
    layers.insert("netlist.analyze.preflight_s".into(), rec.exit(sp));

    let sp = rec.enter("netlist.analyze.levelize");
    let depth = Levelization::compute(nl).max_depth();
    layers.insert("netlist.analyze.levelize_s".into(), rec.exit(sp));
    layers.insert("netlist.analyze.max_depth".into(), f64::from(depth));

    let sp = rec.enter("machine.static_cost.estimate");
    let cost = StaticCost::estimate(nl, Some(&cx.spec.activity_seeds(nl)));
    layers.insert("machine.static_cost.estimate_s".into(), rec.exit(sp));
    if cx.evaluations > 0 {
        layers.insert(
            "machine.static_cost.eval_ratio".into(),
            cost.evaluations(cx.ticks) / cx.evaluations as f64,
        );
    }

    let sp = rec.enter("circuits.scaled.build");
    let rebuilt = scaled::build(&ScaledParams {
        base: cx.workload.family,
        target_components: cx.scale,
        seed: cx.seed,
    });
    let build_s = rec.exit(sp);
    layers.insert("circuits.scaled.build_s".into(), build_s);
    layers.insert(
        "circuits.scaled.components_per_s".into(),
        rebuilt.netlist.num_simulated_components() as f64 / build_s,
    );
    drop(rebuilt);

    // The window's stimulus replayed into a null sink.
    if cx.workload.engine == Engine::BitPar {
        let mut stim = Stimulus64::new(cx.spec, nl, cx.seed, crate::job::LANES)?;
        let sp = rec.enter("sim.stimulus.apply64");
        for v in 0..cx.warm + cx.ticks {
            stim.apply_with(v, |net, plane| {
                black_box((net, plane));
            });
        }
        layers.insert("sim.bitpar.stimulus64_apply_s".into(), rec.exit(sp));
    } else {
        let mut stim = cx.spec.build(nl, cx.seed)?;
        let sp = rec.enter("sim.stimulus.apply");
        for t in 0..cx.warm + cx.ticks {
            stim.apply_with(t, |net, level| {
                black_box((net, level));
            });
        }
        let apply_s = rec.exit(sp);
        layers.insert(
            "sim.stimulus.apply_ns_per_tick".into(),
            apply_s * 1e9 / (cx.warm + cx.ticks) as f64,
        );
    }

    let sp = rec.enter("sim.wheel.script");
    let ops = wheel_script();
    layers.insert(
        "sim.wheel.schedule_pop_ns".into(),
        rec.exit(sp) * 1e9 / ops as f64,
    );

    let (chain, groups, head) = pass_chain()?;
    let sp = rec.enter("sim.solver.chain");
    resolve_chain(&chain, &groups, head);
    layers.insert(
        "sim.solver.resolve_chain_ns".into(),
        rec.exit(sp) * 1e9 / f64::from(CHAIN_ROUNDS),
    );
    Ok(())
}

/// `TimingWheel<u32>` under a fixed script: each tick schedules four
/// items at LCG-chosen delays inside the horizon, pops the current
/// slot, and advances. Returns the operations performed.
fn wheel_script() -> u64 {
    const PER_TICK: u64 = 6; // 4 schedules + 1 pop + 1 advance
    let mut wheel: TimingWheel<u32> = TimingWheel::new(256);
    let mut popped = Vec::new();
    let mut lcg: u64 = 0x1987;
    let mut total = 0usize;
    let ticks = WHEEL_OPS / PER_TICK;
    for _ in 0..ticks {
        for _ in 0..4 {
            lcg = lcg
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let delay = 1 + (lcg >> 33) % 200;
            wheel.schedule(wheel.now() + delay, lcg as u32);
        }
        wheel.pop_current_into(&mut popped);
        total += popped.len();
        popped.clear();
        wheel.advance();
    }
    black_box(total);
    ticks * PER_TICK
}

/// A chain of [`CHAIN_SWITCHES`] NMOS pass switches from a driven head
/// net, all gated by one control: one channel group of 65 nets.
fn pass_chain() -> Result<(Netlist, ChannelGroups, NetId), String> {
    let mut b = NetlistBuilder::new("pass_chain");
    let head = b.input("head");
    let gate = b.input("gate");
    let mut prev = head;
    for i in 0..CHAIN_SWITCHES {
        let next = b.net(format!("n{i}"));
        b.switch(SwitchKind::Nmos, gate, prev, next);
        prev = next;
    }
    // Observe the tail so the chain is live.
    let y = b.net("y");
    b.gate(GateKind::Buf, &[prev], y, Delay::uniform(1));
    b.mark_output(y);
    let nl = b.finish().map_err(|e| format!("pass chain: {e}"))?;
    let groups = ChannelGroups::compute(&nl);
    Ok((nl, groups, head))
}

/// Resolves the chain [`CHAIN_ROUNDS`] times, the head toggling each
/// round so the value has to travel the whole chain.
fn resolve_chain(nl: &Netlist, groups: &ChannelGroups, head: NetId) {
    let group = groups.group_of(head);
    let mut scratch = Scratch::default();
    let mut out: Vec<(NetId, Signal)> = Vec::new();
    for round in 0..CHAIN_ROUNDS {
        let level = Level::from_bool(round % 2 == 1);
        out.clear();
        resolve_group_into(
            nl,
            groups,
            group,
            &mut scratch,
            |net| {
                if net == head {
                    Signal::strong(level)
                } else {
                    Signal::FLOATING
                }
            },
            |_| Level::One,
            |_| Level::X,
            &mut out,
        );
        black_box(out.len());
    }
}
