//! Criterion benchmarks for the event-driven simulator: event
//! throughput on the benchmark circuits (the number that decides how
//! long Table 5/6 measurements take), and the gate kernel alone.
//!
//! The `simulator` group's last three rows time one window of
//! `rtp@10k` on `Simulator` and on `ParSimulator` at P = 1 and P = 2,
//! the parties dealt by the benchmark's partitioner (multilevel,
//! activity-weighted, seed `0x1987`). They are the timing beside
//! `par_engine`'s `run_against_serial` tests: P = 1 ÷ serial is what the
//! parallel engine's own bookkeeping costs, and P = 2 ÷ P = 1 what a
//! second thread buys. The throughput unit is one event.
//!
//! The `gate_eval` group is the timing beside
//! `component::tests::kernel_matches_kleene_folds_on_every_vector_up_to_six_inputs`:
//! every gate of `rtp@10k` and of `priority_queue@10k`, in ascending id
//! order, evaluated against one fixed random net-level vector, once by
//! gathering the input levels into a buffer and calling
//! `GateKind::evaluate`, once through `GateKind::evaluate_pins`. The
//! pins are the netlist's own pin array (`Netlist::gate_pins`), borrowed
//! as the engines borrow it. A third row does what an engine's
//! evaluation phase does with no table of its own: it walks every
//! component, dispatches on the netlist's tag column
//! (`ComponentColumns::kind`), evaluates the gates through
//! `evaluate_pins` and reads each one's delay for its output's
//! transition. The throughput unit is one gate, so ns per gate is
//! `1e9 / elem/s`.
//!
//! The `wheel` group is the timing beside `wheel::tests`'
//! `a_busy_wheel_retains_only_what_is_in_flight` and `wheel_equals_heap`:
//! a warm 256-slot `TimingWheel` of 16-byte items (the engines'
//! schedule entry size), drained each tick into one reused buffer, in
//! two shapes — the engines' (about 1 000 items a tick at delays 1–2)
//! and the benchmark probe's (4 items a tick at delays 1–200). The
//! throughput unit is one schedule plus its pop, so ns per item is
//! `1e9 / elem/s`. Each row also prints once the bytes the wheel's
//! slots and the drain buffer hold after the timing.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use logicsim::circuits::{scaled, Benchmark, ScaledParams};
use logicsim::netlist::{ComponentKind, ComponentRef, GateKind, Level, NetId, Netlist, Signal};
use logicsim::partition::{MultilevelPartitioner, Partitioner};
use logicsim::sim::stimulus::run_with_stimulus;
use logicsim::sim::{ParSimulator, Simulator, TimingWheel};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn bench_circuit(c: &mut Criterion, bench: Benchmark, window: u64) {
    let inst = bench.build_default();
    // Build the stimulus once; each iteration batch clones it instead of
    // re-deriving the schedule from the netlist. The one counting run
    // (needed up front for Criterion's events/second throughput) clones
    // the same prototype, so every run sees an identical schedule.
    let proto = inst.stimulus.build(&inst.netlist, 1).unwrap();
    let events = {
        let mut stim = proto.clone();
        let mut sim = Simulator::new(&inst.netlist).expect("pre-flight");
        run_with_stimulus(&mut sim, &mut stim, window);
        sim.counters().events.max(1)
    };
    let mut group = c.benchmark_group("simulator");
    group.throughput(Throughput::Elements(events));
    group.sample_size(10);
    group.bench_function(bench.paper_name(), |b| {
        b.iter_batched(
            || {
                (
                    Simulator::new(&inst.netlist).expect("pre-flight"),
                    proto.clone(),
                )
            },
            |(mut sim, mut stim)| run_with_stimulus(&mut sim, &mut stim, window),
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

/// One window of `base@10k` on the serial engine and on `ParSimulator`
/// at P = 1 and P = 2 (see the module docs). Construction and the
/// stimulus clone happen outside the timing.
fn bench_engines(c: &mut Criterion, base: Benchmark, window: u64) {
    const SEED: u64 = 0x1987;
    let inst = base.build_at(10_000);
    let nl = &inst.netlist;
    let proto = inst.stimulus.build(nl, SEED).unwrap();
    let events = {
        let mut stim = proto.clone();
        let mut sim = Simulator::new(nl).expect("pre-flight");
        run_with_stimulus(&mut sim, &mut stim, window);
        sim.counters().events.max(1)
    };
    let name = format!("{}@10k", base.paper_name());
    let mut group = c.benchmark_group("simulator");
    group.throughput(Throughput::Elements(events));
    group.sample_size(10);
    group.bench_function(format!("{name} Simulator"), |b| {
        b.iter_batched(
            || (Simulator::new(nl).expect("pre-flight"), proto.clone()),
            |(mut sim, mut stim)| run_with_stimulus(&mut sim, &mut stim, window),
            BatchSize::LargeInput,
        );
    });
    for workers in [1, 2] {
        let partition = MultilevelPartitioner::new(SEED)
            .with_activity_weights()
            .partition(nl, workers as u32);
        let new = || ParSimulator::new(nl, partition.as_slice(), workers).expect("pre-flight");
        group.bench_function(format!("{name} ParSimulator P={workers}"), |b| {
            b.iter_batched(
                || (new(), proto.clone()),
                |(mut sim, mut stim)| {
                    sim.run_with(window, |tick, frame| {
                        stim.apply_with(tick, |net, level| frame.set(net, level));
                    });
                    assert_eq!(sim.counters().events, events);
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

/// Every gate of a circuit as the engines hold it: kinds in id order,
/// input pins borrowed from the netlist, and a level per net.
struct Gates {
    netlist: Netlist,
    /// Component index and kind of every gate, ascending.
    gates: Vec<(usize, GateKind)>,
    levels: Vec<Level>,
}

impl Gates {
    fn new(base: Benchmark) -> Gates {
        let inst = scaled::build(&ScaledParams {
            base,
            target_components: 10_000,
            seed: scaled::DEFAULT_SEED,
        });
        let gates = inst
            .netlist
            .iter()
            .filter_map(|(id, comp)| match comp {
                ComponentRef::Gate { kind, .. } => Some((id.index(), kind)),
                _ => None,
            })
            .collect();
        // Mostly known levels, one net in sixteen at X.
        let mut rng = ChaCha8Rng::seed_from_u64(0x1987);
        let levels = (0..inst.netlist.num_nets())
            .map(|_| match rng.gen_range(0..16u32) {
                0 => Level::X,
                r => Level::from_bool(r & 1 == 1),
            })
            .collect();
        Gates {
            netlist: inst.netlist,
            gates,
            levels,
        }
    }

    /// Evaluates every gate once and folds the outputs into a checksum,
    /// so no evaluation is dead code.
    fn eval_all(&self, mut eval: impl FnMut(GateKind, &[NetId], &[Level]) -> Signal) -> u32 {
        let levels = black_box(&self.levels[..]);
        let pins = self.netlist.gate_pins().view();
        let mut acc = 0u32;
        for &(ci, kind) in &self.gates {
            let out = eval(kind, pins.row(ci), levels);
            acc = acc
                .wrapping_mul(3)
                .wrapping_add(out.level as u32 + 4 * out.strength as u32);
        }
        acc
    }
}

fn bench_gate_eval(c: &mut Criterion, base: Benchmark) {
    let gates = Gates::new(base);
    let name = format!("{}@10k", base.paper_name());
    let mut group = c.benchmark_group("gate_eval");
    group.throughput(Throughput::Elements(gates.gates.len() as u64));
    let mut gathered: Vec<Level> = Vec::new();
    group.bench_function(format!("{name} gather + evaluate"), |b| {
        b.iter(|| {
            gates.eval_all(|kind, row, levels| {
                gathered.clear();
                gathered.extend(row.iter().map(|n| levels[n.index()]));
                kind.evaluate(&gathered)
            })
        });
    });
    group.bench_function(format!("{name} evaluate_pins"), |b| {
        b.iter(|| {
            gates.eval_all(|kind, row, levels| kind.evaluate_pins(row, |n| levels[n.index()]))
        });
    });
    group.bench_function(
        format!("{name} tag dispatch + evaluate_pins + delay"),
        |b| {
            let cols = gates.netlist.columns();
            let levels = &gates.levels[..];
            b.iter(|| {
                let mut acc = 0u32;
                for ci in 0..black_box(cols.len()) {
                    if let ComponentKind::Gate(kind) = cols.kind(ci) {
                        let out = kind.evaluate_pins(cols.pins(ci), |n| levels[n.index()]);
                        let delay = cols.delay(ci).for_transition(out.level);
                        acc = acc.wrapping_mul(3).wrapping_add(out.level as u32 + delay);
                    }
                }
                acc
            });
        },
    );
    group.finish();
}

/// A schedule entry the size of the engines' (component, drive,
/// sequence number).
type Item = (u32, u32, u64);

/// One tick: drain the current slot into `buf`, schedule `per_tick`
/// items at LCG-drawn delays in `1..=max_delay`, advance. Returns the
/// items drained.
fn wheel_tick(
    wheel: &mut TimingWheel<Item>,
    buf: &mut Vec<Item>,
    lcg: &mut u64,
    per_tick: u64,
    max_delay: u64,
) -> usize {
    buf.clear();
    wheel.pop_current_into(buf);
    for _ in 0..per_tick {
        *lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let delay = 1 + (*lcg >> 33) % max_delay;
        wheel.schedule(wheel.now() + delay, (*lcg as u32, 0, *lcg));
    }
    wheel.advance();
    buf.len()
}

fn bench_wheel(c: &mut Criterion, name: &str, per_tick: u64, max_delay: u64) {
    const SLOTS: usize = 256;
    const TICKS: u64 = 1_000;
    let mut wheel = TimingWheel::new(SLOTS);
    let mut buf = Vec::new();
    let mut lcg = 0x1987_u64;
    // Two laps of warm-up: every slot has seen traffic.
    for _ in 0..2 * SLOTS {
        wheel_tick(&mut wheel, &mut buf, &mut lcg, per_tick, max_delay);
    }
    let mut group = c.benchmark_group("wheel");
    group.throughput(Throughput::Elements(TICKS * per_tick));
    group.bench_function(name, |b| {
        b.iter(|| {
            (0..TICKS)
                .map(|_| wheel_tick(&mut wheel, &mut buf, &mut lcg, per_tick, max_delay))
                .sum::<usize>()
        });
    });
    group.finish();
    // Drain one lap into fresh buffers: each slot hands over the buffer
    // it holds.
    let mut held = buf.capacity();
    for _ in 0..SLOTS {
        held += wheel.pop_current().capacity();
        wheel.advance();
    }
    let bytes = held * std::mem::size_of::<Item>();
    println!("wheel/{name}: {bytes} bytes held by the slots and the drain buffer");
}

fn simulator_benches(c: &mut Criterion) {
    bench_circuit(c, Benchmark::StopWatch, 4_000);
    bench_circuit(c, Benchmark::AssocMem, 2_000);
    bench_circuit(c, Benchmark::PriorityQueue, 1_000);
    bench_circuit(c, Benchmark::RtpChip, 1_000);
    bench_circuit(c, Benchmark::CrossbarSwitch, 2_000);
    bench_engines(c, Benchmark::RtpChip, 2_000);
    bench_gate_eval(c, Benchmark::RtpChip);
    bench_gate_eval(c, Benchmark::PriorityQueue);
    bench_wheel(c, "engine: 1000 a tick, delays 1-2", 1_000, 2);
    bench_wheel(c, "probe: 4 a tick, delays 1-200", 4, 200);
}

criterion_group!(benches, simulator_benches);
criterion_main!(benches);
