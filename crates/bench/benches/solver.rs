//! Switch-group solver kernel, one resolution at a time.
//!
//! The delay-estimation half of `crates/sim/tests/solver_differential.rs`
//! and of the pair oracle in `solver::tests`: three group shapes, each
//! resolved through the kernel over the compiled image
//! (`GroupImage::resolve_into`), through the public `resolve_group_into`
//! wrapper, which compiles the group on every call before running the
//! same kernel, and through the engines' entry point
//! (`GroupImage::settle`: drives joined per component, the record
//! stored, each change's cause named), which settles `tg_latch`, a pair,
//! in closed form and the other two through the kernel. The gap between
//! the first two rows of a shape is the wrapper's compile cost, and on
//! `tg_latch` the gap between the first and the third is what the closed
//! form saves; the benchmark's `sim.solver.resolve_chain_ns` probe times
//! the wrapper row of `pass_chain_64`.
//!
//! * `tg_latch` — a transmission gate between a driven net and a storage
//!   node: 2 nets, 2 switches (the master stage of `cells::tg_dff`).
//! * `tg_mux_cluster` — the group a `priority_queue` record bit forms:
//!   two gate outputs and a neighbour's kept bit feeding three TG muxes,
//!   6 nets, 12 switches.
//! * `pass_chain_64` — 64 NMOS pass switches in series off one driven
//!   head, 65 nets.
//!
//! The `settle` group times the settle rule where it acts, in the engine:
//! `Simulator` over `priority_queue@10k` under its benchmark stimulus,
//! one fixed window of ticks per iteration, continuing from where the
//! last one stopped (the circuit is warmed up first). The throughput unit
//! is one tick, so ns per tick is `1e9 / elem/s`; resolutions and
//! evaluations per tick of the first window are printed before it.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use logicsim::circuits::{scaled, Benchmark, ScaledParams};
use logicsim::netlist::{
    ChannelGroups, CompId, Level, NetId, Netlist, NetlistBuilder, Signal, SwitchKind,
};
use logicsim::sim::solver::{resolve_group_into, GroupImage, Scratch};
use logicsim::sim::stimulus::run_with_stimulus;
use logicsim::sim::Simulator;

/// One group to resolve: the nets in `driven` carry a strong level that
/// toggles every resolution, `high` lists the control nets at 1 (all
/// other controls read 0), and `probe` is a member of the group.
struct Case {
    name: &'static str,
    netlist: Netlist,
    driven: Vec<NetId>,
    high: Vec<NetId>,
    probe: NetId,
}

fn tg_latch() -> Case {
    let mut b = NetlistBuilder::new("tg_latch");
    let clk = b.input("clk");
    let clk_n = b.input("clk_n");
    let d = b.input("d");
    let m = b.net("m");
    b.transmission_gate(clk, clk_n, d, m);
    Case {
        name: "tg_latch",
        netlist: b.finish().expect("latch builds"),
        driven: vec![d],
        high: vec![clk],
        probe: m,
    }
}

/// 2:1 TG mux junction: `sel = 1` passes `a1`.
fn tg_mux(b: &mut NetlistBuilder, sel: NetId, sel_n: NetId, a0: NetId, a1: NetId) -> NetId {
    let y = b.fresh("j");
    b.transmission_gate(sel, sel_n, a1, y);
    b.transmission_gate(sel_n, sel, a0, y);
    y
}

fn tg_mux_cluster() -> Case {
    let mut b = NetlistBuilder::new("tg_mux_cluster");
    let lt = b.input("lt");
    let lt_n = b.input("lt_n");
    let ext = b.input("ext");
    let ext_n = b.input("ext_n");
    let stored = b.input("stored");
    let incoming = b.input("incoming");
    let kept_above = b.input("kept_above");
    // Keep the smaller record, pass the larger one down, and the record
    // above pulls this one's stored bit on extraction.
    let kept = tg_mux(&mut b, lt, lt_n, stored, incoming);
    tg_mux(&mut b, lt, lt_n, incoming, stored);
    tg_mux(&mut b, ext, ext_n, kept_above, stored);
    Case {
        name: "tg_mux_cluster",
        netlist: b.finish().expect("cluster builds"),
        driven: vec![stored, incoming, kept_above],
        high: vec![lt, ext_n],
        probe: kept,
    }
}

fn pass_chain(switches: usize) -> Case {
    let mut b = NetlistBuilder::new("pass_chain");
    let head = b.input("head");
    let gate = b.input("gate");
    let mut prev = head;
    for i in 0..switches {
        let next = b.net(format!("n{i}"));
        b.switch(SwitchKind::Nmos, gate, prev, next);
        prev = next;
    }
    Case {
        name: "pass_chain_64",
        netlist: b.finish().expect("chain builds"),
        driven: vec![head],
        high: vec![gate],
        probe: prev,
    }
}

fn solver_benches(c: &mut Criterion) {
    let mut bench_group = c.benchmark_group("solver");
    for case in [tg_latch(), tg_mux_cluster(), pass_chain(64)] {
        let groups = ChannelGroups::compute(&case.netlist);
        let image = GroupImage::build(&case.netlist, &groups);
        let group = groups.group_of(case.probe);
        let ext = |round: u64| {
            let level = Level::from_bool(round % 2 == 1);
            let driven = &case.driven;
            move |net: NetId| {
                if driven.contains(&net) {
                    Signal::strong(level)
                } else {
                    Signal::FLOATING
                }
            }
        };
        let ctl = |net: NetId| Level::from_bool(case.high.contains(&net));
        let mut scratch = Scratch::default();
        let mut out: Vec<(NetId, Signal)> = Vec::new();

        let mut round = 0u64;
        bench_group.bench_function(format!("{}/compiled_image", case.name), |b| {
            b.iter(|| {
                round += 1;
                out.clear();
                image.resolve_into(
                    &groups,
                    group,
                    &mut scratch,
                    ext(round),
                    ctl,
                    |_| Level::X,
                    &mut out,
                );
                black_box(out.len())
            });
        });
        let sources: Vec<CompId> = case
            .driven
            .iter()
            .flat_map(|&net| case.netlist.drivers(net))
            .copied()
            .filter(|&d| !case.netlist.component(d).is_switch())
            .collect();
        let value = |net: NetId| Signal::strong(ctl(net));
        let mut stored = 0u64;
        bench_group.bench_function(format!("{}/settle", case.name), |b| {
            b.iter(|| {
                round += 1;
                let level = Level::from_bool(round % 2 == 1);
                let drive = |d: CompId| {
                    if sources.contains(&d) {
                        Signal::strong(level)
                    } else {
                        Signal::FLOATING
                    }
                };
                let mut changed = 0usize;
                image.settle(
                    &groups,
                    group,
                    &mut scratch,
                    drive,
                    value,
                    |_, code| stored += u64::from(code),
                    |_, _, _| changed += 1,
                );
                black_box(changed)
            });
        });
        black_box(stored);
        bench_group.bench_function(format!("{}/wrapper", case.name), |b| {
            b.iter(|| {
                round += 1;
                out.clear();
                resolve_group_into(
                    &case.netlist,
                    &groups,
                    group,
                    &mut scratch,
                    ext(round),
                    ctl,
                    |_| Level::X,
                    &mut out,
                );
                black_box(out.len())
            });
        });
    }
    bench_group.finish();
}

/// Ticks per timed window of the `settle` group.
const SETTLE_WINDOW: u64 = 2_000;

fn settle_bench(c: &mut Criterion) {
    let inst = scaled::build(&ScaledParams {
        base: Benchmark::PriorityQueue,
        target_components: 10_000,
        seed: scaled::DEFAULT_SEED,
    });
    let mut stim = inst
        .stimulus
        .build(&inst.netlist, 0x1987)
        .expect("benchmark stimulus resolves");
    let mut sim = Simulator::new(&inst.netlist).expect("pre-flight");
    run_with_stimulus(&mut sim, &mut stim, 8 * inst.vector_period.max(1));
    sim.reset_measurements();
    let mut until = sim.now() + SETTLE_WINDOW;
    run_with_stimulus(&mut sim, &mut stim, until);
    let counters = sim.counters();
    let per_tick = |n: u64| n as f64 / SETTLE_WINDOW as f64;
    println!(
        "settle/priority_queue@10k: {:.1} resolutions, {:.1} evaluations, {:.1} events per tick",
        per_tick(counters.group_resolutions),
        per_tick(counters.evaluations),
        per_tick(counters.events),
    );
    let mut group = c.benchmark_group("settle");
    group.throughput(Throughput::Elements(SETTLE_WINDOW));
    group.bench_function("priority_queue@10k", |b| {
        b.iter(|| {
            until += SETTLE_WINDOW;
            run_with_stimulus(&mut sim, &mut stim, until);
            black_box(sim.counters().events)
        });
    });
    group.finish();
}

criterion_group!(benches, solver_benches, settle_bench);
criterion_main!(benches);
