//! Measurement-methodology tests: the paper ran vectors "until
//! aggregate statistics remained stable"; these tests verify that our
//! measured statistics are in fact stable — across stimulus seeds and
//! across window lengths — and that the warm-up window removes the
//! power-up transient.

use logicsim::circuits::Benchmark;
use logicsim::{measure_benchmark, MeasureOptions};

fn opts(seed: u64, window: u64) -> MeasureOptions {
    MeasureOptions {
        warmup_periods: 8,
        window_ticks: window,
        seed,
        collect_trace: false,
    }
}

/// Relative difference helper.
fn rel(a: f64, b: f64) -> f64 {
    if a == 0.0 && b == 0.0 {
        0.0
    } else {
        (a - b).abs() / a.abs().max(b.abs())
    }
}

#[test]
fn statistics_stable_across_seeds() {
    // Different random vectors, same circuit: aggregate ratios should
    // agree within a modest tolerance (they are properties of the
    // circuit, not of the vector set).
    for bench in [Benchmark::RtpChip, Benchmark::CrossbarSwitch] {
        let a = measure_benchmark(bench, &opts(11, 16_000));
        let b = measure_benchmark(bench, &opts(97, 16_000));
        assert!(
            rel(a.workload.busy_fraction(), b.workload.busy_fraction()) < 0.35,
            "{}: busy fraction {:.4} vs {:.4}",
            a.name,
            a.workload.busy_fraction(),
            b.workload.busy_fraction()
        );
        assert!(
            rel(a.workload.average_fanout(), b.workload.average_fanout()) < 0.15,
            "{}: fanout {:.2} vs {:.2}",
            a.name,
            a.workload.average_fanout(),
            b.workload.average_fanout()
        );
        assert!(
            rel(a.workload.simultaneity(), b.workload.simultaneity()) < 0.5,
            "{}: N {:.1} vs {:.1}",
            a.name,
            a.workload.simultaneity(),
            b.workload.simultaneity()
        );
    }
}

#[test]
fn statistics_stable_across_window_lengths() {
    // Doubling the window should roughly double E while leaving the
    // ratios alone — the "aggregate statistics remained stable"
    // criterion.
    let short = measure_benchmark(Benchmark::AssocMem, &opts(5, 4_000));
    let long = measure_benchmark(Benchmark::AssocMem, &opts(5, 8_000));
    let e_ratio = long.workload.events / short.workload.events;
    assert!(
        (1.5..=2.5).contains(&e_ratio),
        "E ratio {e_ratio} not ~2 for a doubled window"
    );
    assert!(
        rel(
            short.workload.busy_fraction(),
            long.workload.busy_fraction()
        ) < 0.15,
        "busy fraction drifted: {:.4} vs {:.4}",
        short.workload.busy_fraction(),
        long.workload.busy_fraction()
    );
    assert!(
        rel(
            short.workload.average_fanout(),
            long.workload.average_fanout()
        ) < 0.1
    );
}

#[test]
fn warmup_removes_powerup_transient() {
    // Without warm-up, the first ticks carry the power-up X-resolution
    // wave and the reset pulse; with warm-up, the measured rate is the
    // steady state. The two must differ for a circuit with a reset
    // (proving the warm-up does something) while the steady-state runs
    // agree with each other.
    let cold = measure_benchmark(
        Benchmark::PriorityQueue,
        &MeasureOptions {
            warmup_periods: 0,
            window_ticks: 2_000,
            seed: 3,
            collect_trace: false,
        },
    );
    let warm1 = measure_benchmark(
        Benchmark::PriorityQueue,
        &MeasureOptions {
            warmup_periods: 10,
            window_ticks: 8_000,
            seed: 3,
            collect_trace: false,
        },
    );
    let warm2 = measure_benchmark(
        Benchmark::PriorityQueue,
        &MeasureOptions {
            warmup_periods: 14,
            window_ticks: 8_000,
            seed: 3,
            collect_trace: false,
        },
    );
    // Steady-state windows agree (the random insert/extract mix gives
    // the per-window rate real variance, hence the loose band)...
    assert!(
        rel(warm1.workload.events, warm2.workload.events) < 0.35,
        "steady windows disagree: {} vs {}",
        warm1.workload.events,
        warm2.workload.events
    );
    // ...and the cold window is measurably different (reset pulse holds
    // the datapath, so activity differs).
    assert!(
        rel(cold.workload.events, warm1.workload.events) > 0.02,
        "cold window indistinguishable: {} vs {}",
        cold.workload.events,
        warm1.workload.events
    );
}

#[test]
fn coverage_grows_with_window() {
    // "most components experienced at least one output change": longer
    // runs cover more of the circuit, monotonically.
    let short = measure_benchmark(Benchmark::StopWatch, &opts(9, 2_000));
    let long = measure_benchmark(Benchmark::StopWatch, &opts(9, 12_000));
    assert!(
        long.coverage >= short.coverage,
        "coverage shrank: {} -> {}",
        short.coverage,
        long.coverage
    );
    assert!(long.coverage > 0.15, "coverage {} too low", long.coverage);
}

/// What `measured_params` turns into `t_eval_ns` and `t_msg_ns` is the
/// same on every event engine: over 3 000 ticks of each family at
/// `@10k` with the recorder armed, the serial engine, `ParSimulator` at
/// P = 1 and at P = 2 agree on the executed ticks and on the items of
/// the Eval and Exchange phases, and those items are the window's
/// `evaluations` and `messages_inf`.
#[test]
fn calibration_inputs_agree_across_engines() {
    use logicsim::job::{EngineSpec, Job, JobSpec};
    use logicsim::partition::{Partitioner, RandomPartitioner};
    use logicsim::sim::Phase;

    let expected_ticks = [71, 1_176, 1_771, 729, 476];
    for (bench, ticks) in Benchmark::ALL.into_iter().zip(expected_ticks) {
        let inst = bench.build_at(10_000);
        let netlist = &inst.netlist;
        let one = RandomPartitioner::new(7).partition(netlist, 1);
        let two = RandomPartitioner::new(7).partition(netlist, 2);
        let engines = [
            EngineSpec::Serial,
            EngineSpec::Par {
                workers: 1,
                assignment: one.as_slice(),
            },
            EngineSpec::Par {
                workers: 2,
                assignment: two.as_slice(),
            },
        ];
        let mut serial = None;
        for engine in engines {
            let spec = JobSpec {
                engine,
                window: 3_000,
                seed: 0x1987,
                observe: true,
                ..JobSpec::default()
            };
            let m = Job::new(netlist, &inst.stimulus, &spec).expect("job").run();
            let what = match engine {
                EngineSpec::Par { workers, .. } => format!("{bench:?} at P = {workers}"),
                _ => format!("{bench:?} serial"),
            };
            assert_eq!(m.obs.executed_ticks(), ticks, "{what}");
            assert_eq!(m.params.executed_ticks, ticks, "{what}");
            let eval = m.obs.total(Phase::Eval).items;
            let exchange = m.obs.total(Phase::Exchange).items;
            assert_eq!(eval, m.counters.evaluations, "{what}");
            assert_eq!(exchange, m.counters.messages_inf, "{what}");
            assert_eq!(m.params.evaluations, eval, "{what}");
            assert_eq!(m.params.messages, exchange, "{what}");
            assert!(eval > 0 && exchange > 0, "{what}");
            assert_eq!(
                *serial.get_or_insert((eval, exchange)),
                (eval, exchange),
                "{what}"
            );
        }
    }
}
