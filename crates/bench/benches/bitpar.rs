//! Criterion benchmarks for the bit-parallel compiled backend: settled
//! scenario·vectors per second, with the serial event-driven engine
//! running the identical vector-synchronous quiescence protocol as the
//! baseline. The ratio of the two rows per circuit is the aggregate
//! scenario speedup `bitpar_study` reports.
//!
//! The five base circuits are one tile each (at most 2 744 ops: the
//! whole program and its planes sit in cache). The `@10k` rows time the
//! sweep on tilings (3 tiles of Priority Q., 8 of RTP Chip, wired into
//! one another): feedback clusters chained rank after rank and the
//! solver-cell kernel on 1 500 and 1 824 cells — the timing beside
//! `bitpar::tests::gated_sweep_agrees_with_full_pass_sweep`. No family
//! contains a tristate, so the `bus32` row builds the one
//! multiply-driven shape here: cells whose sources are gated by live
//! enables — the timing beside
//! `bitpar::tests::every_pair_of_drivers_on_one_net_agrees_with_the_event_engine`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use logicsim::circuits::{scaled, Benchmark, BenchmarkInstance, ScaledParams};
use logicsim::netlist::{Delay, GateKind, Level, NetId, NetlistBuilder, Plane, SwitchKind};
use logicsim::sim::{BitParSim, SignalRole, Simulator, Stimulus64, StimulusSpec};

const LANES: usize = 64;

/// 64 scenarios per sweep on the bit-parallel backend.
fn bench_bitpar(c: &mut Criterion, name: String, inst: &BenchmarkInstance, vectors: u64) {
    let mut group = c.benchmark_group("bitpar");
    group.sample_size(10);
    group.throughput(Throughput::Elements(vectors * LANES as u64));
    group.bench_function(name, |b| {
        b.iter_batched(
            || {
                (
                    BitParSim::new(&inst.netlist, LANES).expect("pre-flight"),
                    Stimulus64::new(&inst.stimulus, &inst.netlist, 1, LANES).expect("stimulus"),
                )
            },
            |(mut sim, mut stim)| {
                for v in 0..vectors {
                    stim.apply_with(v, |net, plane| sim.set_input_plane(net, plane));
                    sim.settle_vector();
                }
            },
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

fn bench_circuit(c: &mut Criterion, bench: Benchmark, vectors: u64) {
    let inst = bench.build_default();
    let mut group = c.benchmark_group("bitpar");
    group.sample_size(10);

    // Serial baseline: one scenario (lane 0's seed), vector-quiescence
    // protocol. Throughput unit: scenario·vectors settled.
    group.throughput(Throughput::Elements(vectors));
    group.bench_function(format!("{} serial", bench.paper_name()), |b| {
        b.iter_batched(
            || {
                (
                    Simulator::new(&inst.netlist).expect("pre-flight"),
                    inst.stimulus
                        .build(&inst.netlist, Stimulus64::lane_seed(1, 0))
                        .expect("stimulus"),
                )
            },
            |(mut sim, mut stim)| {
                for v in 0..vectors {
                    stim.apply_with(v, |net, level| sim.set_input(net, level));
                    let cap = sim.now() + 50_000;
                    sim.run_to_quiescence(cap);
                }
            },
            BatchSize::LargeInput,
        );
    });

    group.finish();
    bench_bitpar(
        c,
        format!("{} bitpar x64", bench.paper_name()),
        &inst,
        vectors,
    );
}

fn bench_scaled(c: &mut Criterion, base: Benchmark, vectors: u64) {
    let inst = scaled::build(&ScaledParams {
        base,
        target_components: 10_000,
        seed: scaled::DEFAULT_SEED,
    });
    bench_bitpar(
        c,
        format!("{}@10k bitpar x64", base.paper_name()),
        &inst,
        vectors,
    );
}

/// A 32-bit bus: four tristate drivers (one enable per 32-bit source)
/// and a pull-up per bit, each bit latched through a pass gate onto a
/// storage node an inverter reads. Data is re-drawn every vector, an
/// enable every fourth, and the latch clock toggles every vector. The
/// planes are drawn once, outside the timing: 64 lanes of 133 inputs
/// cost several times the sweep they feed.
fn bench_bus(c: &mut Criterion, vectors: u64) {
    const BITS: usize = 32;
    const SOURCES: usize = 4;
    let unit = Delay::uniform(1);
    let mut b = NetlistBuilder::new("bus32");
    let mut stimulus = StimulusSpec::new();
    let mut input = |b: &mut NetlistBuilder, name: String, role: SignalRole| {
        stimulus.assignments.push((name.clone(), role));
        b.input(name)
    };
    let random = |period: u64, phase: u64| SignalRole::Random {
        period,
        phase,
        toggle_prob: 0.5,
    };
    let clock = SignalRole::Clock {
        half_period: 1,
        phase: 0,
    };
    let clk = input(&mut b, "clk".into(), clock);
    let enables: Vec<_> = (0..SOURCES)
        .map(|k| input(&mut b, format!("en{k}"), random(4, k as u64)))
        .collect();
    for i in 0..BITS {
        let bus = b.net(format!("bus{i}"));
        b.pull(bus, Level::One);
        for (k, &en) in enables.iter().enumerate() {
            let d = input(&mut b, format!("d{k}_{i}"), random(1, 0));
            b.gate(GateKind::Tristate, &[d, en], bus, unit);
        }
        let s = b.net(format!("s{i}"));
        b.switch(SwitchKind::Nmos, clk, bus, s);
        let q = b.net(format!("q{i}"));
        b.gate(GateKind::Not, &[s], q, unit);
        b.mark_output(q);
    }
    let netlist = b.finish().expect("valid netlist");
    let mut stim = Stimulus64::new(&stimulus, &netlist, 1, LANES).expect("stimulus");
    let recorded: Vec<Vec<(NetId, Plane)>> = (0..vectors)
        .map(|v| {
            let mut planes = Vec::new();
            stim.apply_with(v, |net, plane| planes.push((net, plane)));
            planes
        })
        .collect();
    let mut group = c.benchmark_group("bitpar");
    group.sample_size(10);
    group.throughput(Throughput::Elements(vectors * LANES as u64));
    group.bench_function("bus32 bitpar x64", |b| {
        b.iter_batched(
            || BitParSim::new(&netlist, LANES).expect("pre-flight"),
            |mut sim| {
                for planes in &recorded {
                    for &(net, plane) in planes {
                        sim.set_input_plane(net, plane);
                    }
                    sim.settle_vector();
                }
            },
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

fn bitpar_benches(c: &mut Criterion) {
    bench_circuit(c, Benchmark::StopWatch, 512);
    bench_circuit(c, Benchmark::AssocMem, 128);
    bench_circuit(c, Benchmark::PriorityQueue, 64);
    bench_circuit(c, Benchmark::RtpChip, 128);
    bench_circuit(c, Benchmark::CrossbarSwitch, 256);
    bench_scaled(c, Benchmark::PriorityQueue, 256);
    bench_scaled(c, Benchmark::RtpChip, 256);
    bench_bus(c, 256);
}

criterion_group!(benches, bitpar_benches);
criterion_main!(benches);
