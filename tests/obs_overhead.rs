//! Overhead regression for the `obs` phase-timing layer.
//!
//! The observability design brief promises "no allocation or locking on
//! the hot path" and a runtime cost small enough to leave armed in
//! normal runs. This test holds it to that: the same binary runs the
//! same serial measurement window (the stopwatch tiled to 10k
//! components) with the recorders disarmed and armed, and the armed
//! run must stay within 1.10x of the disarmed one in optimized builds —
//! CI runs this suite with `--release` — with min-of-trials stopwatches
//! on both sides plus a bounded re-measure loop to shed scheduler noise
//! (see [`BUDGET`] for the debug-build slack).
//!
//! The companion invariant — that arming changes no simulation state —
//! is pinned bit-exactly by `golden_trace.rs`, which runs every golden
//! digest with `observe: true` at P in {1, 2, 4, 8}.

use logicsim::circuits::{scaled, Benchmark, BenchmarkInstance, ScaledParams};
use logicsim::sim::stimulus::run_with_stimulus;
use logicsim::sim::{SimConfig, Simulator};
use std::time::Instant;

const SEED: u64 = 0x1987;
const WINDOW: u64 = 8_000;
const TRIALS: usize = 5;

/// Overhead budget. The 1.10x promise is about the optimized recorder
/// (CI runs this suite with `--release`); unoptimized builds inline
/// nothing, so the same structural cost shows up larger and gets a
/// little slack — enough to catch a regression to per-sample
/// allocation or locking, which costs integer multiples either way.
const BUDGET: f64 = if cfg!(debug_assertions) { 1.25 } else { 1.10 };

/// The stopwatch tiled to 10k components (wiring seed [`SEED`]): a
/// window of the base circuit lasts half a millisecond, short enough for
/// timer and scheduler noise to decide a 10 % budget.
fn stopwatch_10k() -> BenchmarkInstance {
    scaled::build(&ScaledParams {
        base: Benchmark::StopWatch,
        target_components: 10_000,
        seed: SEED,
    })
}

/// Wall time of the tiled stopwatch window with the recorder armed or
/// not; returns the fastest of `TRIALS` runs.
fn best_wall_seconds(observe: bool) -> f64 {
    let inst = stopwatch_10k();
    let mut best = f64::INFINITY;
    for _ in 0..TRIALS {
        let mut stim = inst
            .stimulus
            .build(&inst.netlist, SEED)
            .expect("stimulus resolves");
        let mut sim = Simulator::with_config(
            &inst.netlist,
            SimConfig {
                observe,
                ..SimConfig::default()
            },
        )
        .expect("pre-flight");
        let warmup = 8 * inst.vector_period.max(1);
        run_with_stimulus(&mut sim, &mut stim, warmup);
        sim.reset_measurements();
        let t0 = Instant::now();
        run_with_stimulus(&mut sim, &mut stim, warmup + WINDOW);
        best = best.min(t0.elapsed().as_secs_f64());
        assert!(sim.counters().events > 0, "window must do real work");
    }
    best
}

#[test]
fn armed_run_is_within_overhead_budget_of_disarmed() {
    // Interleave a throwaway warm-up of each configuration so neither
    // side pays the first-touch cost.
    let _ = best_wall_seconds(false);
    let _ = best_wall_seconds(true);
    // A loaded host can still hand one side a descheduling spike that
    // min-of-trials does not fully shed; re-measure before declaring a
    // regression. A real regression (allocation or locking on the hot
    // path) fails every attempt by a wide margin.
    let mut last = (f64::NAN, f64::NAN, f64::NAN);
    for _ in 0..3 {
        let off = best_wall_seconds(false);
        let on = best_wall_seconds(true);
        let ratio = on / off.max(1e-12);
        if ratio <= BUDGET {
            return;
        }
        last = (ratio, on, off);
    }
    let (ratio, on, off) = last;
    panic!(
        "obs overhead {ratio:.3}x exceeds the {BUDGET:.2}x budget \
         (armed {on:.6}s vs disarmed {off:.6}s, 3 attempts)"
    );
}

#[test]
fn armed_run_actually_recorded_something() {
    let inst = stopwatch_10k();
    let mut stim = inst
        .stimulus
        .build(&inst.netlist, SEED)
        .expect("stimulus resolves");
    let mut sim = Simulator::with_config(
        &inst.netlist,
        SimConfig {
            observe: true,
            ..SimConfig::default()
        },
    )
    .expect("pre-flight");
    run_with_stimulus(&mut sim, &mut stim, WINDOW);
    let report = sim.obs_report();
    assert!(report.executed_ticks() > 0, "no ticks observed");
    assert!(
        report.total(logicsim::sim::Phase::Eval).items > 0,
        "no evaluations observed"
    );
}
