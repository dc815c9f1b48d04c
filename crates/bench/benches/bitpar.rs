//! Criterion benchmarks for the bit-parallel compiled backend: settled
//! scenario·vectors per second, with the serial event-driven engine
//! running the identical vector-synchronous quiescence protocol as the
//! baseline. The ratio of the two rows per circuit is the aggregate
//! scenario speedup `bitpar_study` reports.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use logicsim::circuits::Benchmark;
use logicsim::sim::{BitParSim, Simulator, Stimulus64};

const LANES: usize = 64;

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

    // 64 scenarios per sweep on the bit-parallel backend.
    group.throughput(Throughput::Elements(vectors * LANES as u64));
    group.bench_function(format!("{} bitpar x64", bench.paper_name()), |b| {
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

fn bitpar_benches(c: &mut Criterion) {
    bench_circuit(c, Benchmark::StopWatch, 512);
    bench_circuit(c, Benchmark::AssocMem, 128);
    bench_circuit(c, Benchmark::PriorityQueue, 64);
    bench_circuit(c, Benchmark::RtpChip, 128);
    bench_circuit(c, Benchmark::CrossbarSwitch, 256);
}

criterion_group!(benches, bitpar_benches);
criterion_main!(benches);
