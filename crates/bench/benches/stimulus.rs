//! `RandomStimulus::apply_with`, one tick at a time.
//!
//! The delay-estimation half of `crates/sim/tests/stimulus_calendar.rs`:
//! the crossbar's shipped stimulus (272 random inputs with periods of
//! 480 ticks and up, the plan `crossbar@100k` runs under) applied over
//! consecutive ticks, once into a sink that discards the levels and
//! once into `Simulator::set_input` with the simulator never stepped,
//! so the row is the driver plus the engine's inertial-schedule test
//! and nothing downstream. The benchmark's
//! `sim.stimulus.apply_ns_per_tick` probe times the first row's loop.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use logicsim::circuits::Benchmark;
use logicsim::sim::Simulator;

const TICKS: u64 = 20_000;

fn stimulus_benches(c: &mut Criterion) {
    let inst = Benchmark::CrossbarSwitch.build_default();
    assert_eq!(inst.stimulus.assignments.len(), 272);
    let proto = inst
        .stimulus
        .build(&inst.netlist, 1)
        .expect("crossbar stimulus resolves");
    let mut group = c.benchmark_group("stimulus");
    group.throughput(Throughput::Elements(TICKS));
    group.bench_function("crossbar_272/null_sink", |b| {
        b.iter_batched(
            || proto.clone(),
            |mut stim| {
                for tick in 0..TICKS {
                    stim.apply_with(tick, |net, level| {
                        black_box((net, level));
                    });
                }
            },
            BatchSize::SmallInput,
        );
    });
    group.bench_function("crossbar_272/set_input", |b| {
        b.iter_batched(
            || {
                (
                    proto.clone(),
                    Simulator::new(&inst.netlist).expect("pre-flight"),
                )
            },
            |(mut stim, mut sim)| {
                for tick in 0..TICKS {
                    stim.apply_with(tick, |net, level| sim.set_input(net, level));
                }
                sim
            },
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

criterion_group!(benches, stimulus_benches);
criterion_main!(benches);
