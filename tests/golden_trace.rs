//! Golden differential tests for the event-driven engine.
//!
//! Each benchmark circuit is measured over a short window with trace
//! collection on, and the full [`TickTrace`] (every tick, every event,
//! every fanout destination, in order) is folded into an FNV-1a digest
//! that is compared against a value recorded from the engine *before*
//! the data-oriented kernel rewrite. Together with the exact workload
//! counters this proves the optimized hot path is tick-for-tick and
//! event-for-event identical to the reference semantics: any change in
//! event ordering, inertial cancellation, switch-group settling, or
//! counter accounting shows up as a digest mismatch.
//!
//! The same golden rows also pin the **parallel** engine: `ParSimulator`
//! under a random partition must reproduce the identical trace digest
//! and counters for every worker count `P` in {1, 2, 4, 8} — the
//! determinism contract of `logicsim::sim::par_engine`.
//!
//! Both engines run with the `obs` phase-timing layer **armed** (the
//! root crate's default feature), so these digests additionally pin
//! that observation is pure measurement: any timing side effect on
//! event ordering or counters would break every row at every `P`.
//!
//! At `P` in {2, 4} the rows also pin what the parallel engine reports
//! *per party* — [`ParSide`]: crossing and component message counts and
//! every worker's load counters — at the values the engine produced
//! when it ran `P + 1` threads and handshook every phase. Which thread
//! executes a party, and whether a phase pays the handshake, must not
//! show in them.
//!
//! `group_resolutions` (and `loads_digest`, which folds it) counts effort,
//! not behaviour: it was re-pinned, with every other field unmoved, when
//! the engines stopped re-settling a switch group whose drives and
//! conduction had not changed since its last resolution.
//!
//! Regenerate the table with
//! `cargo test --test golden_trace -- --ignored --nocapture`.

use logicsim::circuits::Benchmark;
use logicsim::partition::{Partitioner, RandomPartitioner};
use logicsim::sim::stimulus::run_with_stimulus;
use logicsim::sim::{ParSimulator, SimConfig, Simulator, TickTrace, WorkloadCounters};

/// FNV-1a 64-bit over a byte slice, continuing from `h`.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

fn fold_u64(h: &mut u64, v: u64) {
    fnv1a(h, &v.to_le_bytes());
}

/// Digests the complete trace structure: span, tick numbers, event
/// order, sources, and fanout destination lists.
fn trace_digest(trace: &TickTrace) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fold_u64(&mut h, trace.start);
    fold_u64(&mut h, trace.end);
    fold_u64(&mut h, trace.ticks.len() as u64);
    for tick in &trace.ticks {
        fold_u64(&mut h, tick.tick);
        fold_u64(&mut h, tick.events.len() as u64);
        for ev in &tick.events {
            fold_u64(&mut h, u64::from(ev.source));
            fold_u64(&mut h, ev.dests.len() as u64);
            for &d in &ev.dests {
                fold_u64(&mut h, u64::from(d));
            }
        }
    }
    h
}

/// One golden row: the trace digest plus every workload counter.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    digest: u64,
    busy_ticks: u64,
    idle_ticks: u64,
    events: u64,
    messages_inf: u64,
    evaluations: u64,
    group_resolutions: u64,
    event_list_peak: u64,
    event_list_sum: u64,
}

/// Runs the standard measurement recipe (seed 0x1987, 8 warm-up vector
/// periods, 3000-tick window) with trace collection.
fn measure(bench: Benchmark) -> Golden {
    let inst = bench.build_default();
    let mut stim = inst
        .stimulus
        .build(&inst.netlist, 0x1987)
        .expect("benchmark stimulus resolves");
    let mut sim = Simulator::with_config(
        &inst.netlist,
        SimConfig {
            collect_trace: true,
            // Observation armed: the digests below prove phase timing
            // never perturbs simulation state.
            observe: true,
        },
    )
    .expect("pre-flight");
    let warmup = 8 * inst.vector_period.max(1);
    run_with_stimulus(&mut sim, &mut stim, warmup);
    sim.reset_measurements();
    run_with_stimulus(&mut sim, &mut stim, warmup + 3_000);
    let c: WorkloadCounters = sim.counters().clone();
    let trace = sim.take_trace();
    Golden {
        digest: trace_digest(&trace),
        busy_ticks: c.busy_ticks,
        idle_ticks: c.idle_ticks,
        events: c.events,
        messages_inf: c.messages_inf,
        evaluations: c.evaluations,
        group_resolutions: c.group_resolutions,
        event_list_peak: c.event_list_peak,
        event_list_sum: c.event_list_sum,
    }
}

/// The parallel engine's own instrumentation for one run.
#[derive(Debug, PartialEq, Eq)]
struct ParSide {
    messages_crossing: u64,
    messages_component: u64,
    /// FNV-1a over every worker's `busy_ticks`, `idle_ticks`,
    /// `evaluations`, `group_resolutions`, `messages_sent`, in order.
    loads_digest: u64,
}

/// Runs the identical measurement recipe on the parallel engine with a
/// seeded random partition over `workers` parts.
fn measure_par(bench: Benchmark, workers: usize) -> (Golden, ParSide) {
    let inst = bench.build_default();
    let mut stim = inst
        .stimulus
        .build(&inst.netlist, 0x1987)
        .expect("benchmark stimulus resolves");
    let part = RandomPartitioner::new(0x1987).partition(&inst.netlist, workers as u32);
    let mut sim = ParSimulator::with_config(
        &inst.netlist,
        part.as_slice(),
        workers,
        SimConfig {
            collect_trace: true,
            // Same digests must come out with per-phase timing armed.
            observe: true,
        },
    )
    .expect("pre-flight");
    let warmup = 8 * inst.vector_period.max(1);
    sim.run_with(warmup, |tick, frame| {
        stim.apply_with(tick, |net, level| frame.set(net, level));
    });
    sim.reset_measurements();
    sim.run_with(warmup + 3_000, |tick, frame| {
        stim.apply_with(tick, |net, level| frame.set(net, level));
    });
    let c: WorkloadCounters = sim.counters().clone();
    let mut loads_digest = 0xcbf2_9ce4_8422_2325u64;
    for l in sim.worker_loads() {
        for v in [
            l.busy_ticks,
            l.idle_ticks,
            l.evaluations,
            l.group_resolutions,
            l.messages_sent,
        ] {
            fold_u64(&mut loads_digest, v);
        }
    }
    let side = ParSide {
        messages_crossing: sim.messages_crossing(),
        messages_component: sim.messages_component(),
        loads_digest,
    };
    let trace = sim.take_trace();
    let golden = Golden {
        digest: trace_digest(&trace),
        busy_ticks: c.busy_ticks,
        idle_ticks: c.idle_ticks,
        events: c.events,
        messages_inf: c.messages_inf,
        evaluations: c.evaluations,
        group_resolutions: c.group_resolutions,
        event_list_peak: c.event_list_peak,
        event_list_sum: c.event_list_sum,
    };
    (golden, side)
}

/// `par` is the expected [`ParSide`] at `P = 2` and `P = 4`.
fn check(bench: Benchmark, expect: Golden, par: [ParSide; 2]) {
    let got = measure(bench);
    assert_eq!(
        got,
        expect,
        "{}: trace/counters diverged from the pre-refactor engine",
        bench.paper_name()
    );
    for workers in [1usize, 2, 4, 8] {
        let (got, side) = measure_par(bench, workers);
        assert_eq!(
            got,
            expect,
            "{}: ParSimulator at P={workers} diverged from the serial golden trace",
            bench.paper_name()
        );
        if let Some(i) = [2, 4].iter().position(|&p| p == workers) {
            assert_eq!(
                side,
                par[i],
                "{}: per-party instrumentation at P={workers} moved",
                bench.paper_name()
            );
        }
    }
}

#[test]
#[ignore = "regeneration helper: prints the golden table"]
fn print_golden() {
    for bench in Benchmark::ALL {
        let g = measure(bench);
        println!("{}: {g:#x?}", bench.paper_name());
        for workers in [2, 4] {
            println!("P={workers}: {:#x?}", measure_par(bench, workers).1);
        }
    }
}

#[test]
fn stop_watch_trace_is_golden() {
    check(
        Benchmark::StopWatch,
        Golden {
            digest: 0xff79_702d_dbd2_3878,
            busy_ticks: 0x3e,
            idle_ticks: 0xb7a,
            events: 0x149,
            messages_inf: 0x3df,
            evaluations: 0x3dd,
            group_resolutions: 0,
            event_list_peak: 0x14,
            event_list_sum: 0x149,
        },
        [
            ParSide {
                messages_crossing: 0x13f,
                messages_component: 0x24f,
                loads_digest: 0xdc68_47ff_2625_1b5a,
            },
            ParSide {
                messages_crossing: 0x1a8,
                messages_component: 0x24f,
                loads_digest: 0x91c_d236_6b26_0cdc,
            },
        ],
    );
}

#[test]
fn assoc_mem_trace_is_golden() {
    check(
        Benchmark::AssocMem,
        Golden {
            digest: 0xccbc_0bb4_d77c_2494,
            busy_ticks: 0x3a6,
            idle_ticks: 0x812,
            events: 0x114c,
            messages_inf: 0x2602,
            evaluations: 0x25ce,
            group_resolutions: 0x2a9,
            event_list_peak: 0x1a,
            event_list_sum: 0xece,
        },
        [
            ParSide {
                messages_crossing: 0xc4e,
                messages_component: 0x1946,
                loads_digest: 0xedf4_45ed_7bfa_97c2,
            },
            ParSide {
                messages_crossing: 0x1271,
                messages_component: 0x1946,
                loads_digest: 0x62a0_f47c_f387_c5d8,
            },
        ],
    );
}

#[test]
fn priority_queue_trace_is_golden() {
    check(
        Benchmark::PriorityQueue,
        Golden {
            digest: 0xfdcf_bb4e_9709_ee5f,
            busy_ticks: 0x3fa,
            idle_ticks: 0x7be,
            events: 0xd640,
            messages_inf: 0x3_3e2c,
            evaluations: 0x2_d33a,
            group_resolutions: 0x7a86,
            event_list_peak: 0x15c,
            event_list_sum: 0x745b,
        },
        [
            ParSide {
                messages_crossing: 0x1_30c1,
                messages_component: 0x2_76fa,
                loads_digest: 0xee40_c136_0138_3d81,
            },
            ParSide {
                messages_crossing: 0x1_d328,
                messages_component: 0x2_76fa,
                loads_digest: 0x8404_f666_8ba9_648e,
            },
        ],
    );
}

#[test]
fn rtp_chip_trace_is_golden() {
    check(
        Benchmark::RtpChip,
        Golden {
            digest: 0xf3b8_8056_0922_9a80,
            busy_ticks: 0x22c,
            idle_ticks: 0x98c,
            events: 0x3fee,
            messages_inf: 0xcf41,
            evaluations: 0xcd36,
            group_resolutions: 0x789,
            event_list_peak: 0x5c,
            event_list_sum: 0x3572,
        },
        [
            ParSide {
                messages_crossing: 0x3e68,
                messages_component: 0x7ca5,
                loads_digest: 0x6dde_7bf6_3cec_6665,
            },
            ParSide {
                messages_crossing: 0x5e45,
                messages_component: 0x7ca5,
                loads_digest: 0x2edb_8de6_884f_fa21,
            },
        ],
    );
}

#[test]
fn crossbar_switch_trace_is_golden() {
    check(
        Benchmark::CrossbarSwitch,
        Golden {
            digest: 0xbe5f_f4c2_f313_bbb4,
            busy_ticks: 0x19f,
            idle_ticks: 0xa19,
            events: 0x6c3,
            messages_inf: 0xe66,
            evaluations: 0xe63,
            group_resolutions: 0,
            event_list_peak: 0x64,
            event_list_sum: 0x7db,
        },
        [
            ParSide {
                messages_crossing: 0x6cc,
                messages_component: 0xd2a,
                loads_digest: 0x83d8_446e_f149_ee69,
            },
            ParSide {
                messages_crossing: 0x9af,
                messages_component: 0xd2a,
                loads_digest: 0xa423_1725_1307_b341,
            },
        ],
    );
}
