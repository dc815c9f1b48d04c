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
//! `bitpar::tests::gated_sweep_agrees_with_full_pass_sweep`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use logicsim::circuits::{scaled, Benchmark, BenchmarkInstance, ScaledParams};
use logicsim::sim::{BitParSim, Simulator, Stimulus64};

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

fn bitpar_benches(c: &mut Criterion) {
    bench_circuit(c, Benchmark::StopWatch, 512);
    bench_circuit(c, Benchmark::AssocMem, 128);
    bench_circuit(c, Benchmark::PriorityQueue, 64);
    bench_circuit(c, Benchmark::RtpChip, 128);
    bench_circuit(c, Benchmark::CrossbarSwitch, 256);
    bench_scaled(c, Benchmark::PriorityQueue, 256);
    bench_scaled(c, Benchmark::RtpChip, 256);
}

criterion_group!(benches, bitpar_benches);
criterion_main!(benches);
