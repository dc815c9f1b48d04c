//! Golden differential tests for the event-driven engine.
//!
//! Each benchmark circuit is measured over a short window with trace
//! collection on, and the full `TickTrace` (every tick, every event,
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
//! every party's load counters. The message counts are the values the
//! engine produced when it handshook every phase. Which thread executes
//! a party, and whether a phase pays the handshake, must not show in
//! them.
//!
//! `group_resolutions` (and `loads_digest`, which folds it) counts effort,
//! not behaviour: it was re-pinned, with every other field unmoved, when
//! the engines stopped re-settling a switch group whose drives and
//! conduction had not changed since its last resolution. `loads_digest`
//! alone was re-pinned again when the inputs, pulls and rails moved from
//! a party of their own into party 0 and coupling clusters were dealt
//! over `P` parties instead of `P + 1`: the loads then cover every
//! party, so they add up to the counters (`tests/common` checks that on
//! every row). It was re-pinned once more, on the three families whose
//! windows settle switch groups, when every switch group came to run
//! whole in the party of its coupling cluster's lowest-id switch
//! instead of a party dealt round-robin: the switches and the drivers
//! of group nets moved, and with them the busy ticks, evaluations and
//! resolutions per party.
//!
//! Every row runs through the shared tick-window driver in
//! `tests/common`. Regenerate the pins with
//! `cargo test --test golden_trace -- --ignored --nocapture`.

//!
//! One more row runs a circuit no benchmark family contains: two live
//! tristate buses (`common::bus_instance`) whose drivers sit in
//! different partitions under a round-robin partition and often change
//! their drive in the same tick. The engine runs each bus's drivers in
//! its first driver's party, so a bus's owner merges two same-tick
//! changes onto one net from its own wheel; only that row pins which of
//! them the parallel engine records as the event's cause. Its
//! `loads_digest` alone was re-pinned when the co-drivers moved into one
//! party (the busy ticks and evaluations moved with them); its trace
//! digest, counters and message counts, which follow the partition,
//! did not move.
//!
//! The last row runs a transmission-gate latch whose enable is driven
//! to `X` after power-up (`common::x_latch_instance`), so the pair's
//! closed-form settle forces its storage node to `X` through unknown
//! conduction. Under a round-robin partition at `P = 2` its two
//! switches and its reader sit in different partitions; the engine runs
//! both switches in the party of the lower-id one.

#[macro_use]
mod common;

use common::Engine::{ParRandom, ParRoundRobin};
use common::{bus_instance, window_rows, x_latch_instance, Engine, Fold, ParSide, Window};
use logicsim::circuits::{Benchmark, BenchmarkInstance};
use logicsim::sim::WorkloadCounters;

/// Seed 0x1987, 8 warm-up vector periods, a 3000-tick window, the whole
/// trace folded.
const WINDOW: Window = Window(8, 3_000, Fold::Trace);

/// The rows held to the serial engine's trace and counters.
const ENGINES: [Engine; 4] = [ParRandom(1), ParRandom(2), ParRandom(4), ParRandom(8)];

/// The bus row's engines: at `P = 2` and `P = 4` the two drivers of each
/// bus are in different partitions.
const BUS_ENGINES: [Engine; 3] = [ParRoundRobin(1), ParRoundRobin(2), ParRoundRobin(4)];

/// The latch row's engines: at `P = 2` its two switches and its reader
/// are in different partitions.
const LATCH_ENGINES: [Engine; 2] = [ParRoundRobin(1), ParRoundRobin(2)];

/// The serial row's trace digest and counters, and the [`ParSide`] of
/// the rows at `P = 2` and `P = 4` (the second and third of `engines`).
fn measure(inst: &BenchmarkInstance, engines: &[Engine]) -> (u64, WorkloadCounters, [ParSide; 2]) {
    let mut runs = window_rows(inst, None, engines, WINDOW);
    // The serial row first, then `engines` in order.
    let sides = [2, 3].map(|i| runs[i].side.expect("a parallel row"));
    let serial = runs.swap_remove(0);
    (serial.digest, serial.counters, sides)
}

/// `par` is the expected [`ParSide`] at `P = 2` and `P = 4`.
fn check(bench: Benchmark, digest: u64, counters: WorkloadCounters, par: [ParSide; 2]) {
    assert_eq!(
        measure(&bench.build_default(), &ENGINES),
        (digest, counters, par),
        "{}: trace, counters or per-party instrumentation left its pin",
        bench.paper_name()
    );
}

/// [`check`] on the bus row.
fn check_bus(digest: u64, counters: WorkloadCounters, par: [ParSide; 2]) {
    assert_eq!(
        measure(&bus_instance(), &BUS_ENGINES),
        (digest, counters, par),
        "buses: trace, counters or per-party instrumentation left its pin"
    );
}

/// The latch row: the serial trace digest and counters, and the
/// [`ParSide`] at `P = 2`.
fn measure_latch() -> (u64, WorkloadCounters, ParSide) {
    let mut runs = window_rows(&x_latch_instance(), None, &LATCH_ENGINES, WINDOW);
    let side = runs[2].side.expect("a parallel row");
    let serial = runs.swap_remove(0);
    (serial.digest, serial.counters, side)
}

/// [`check`] on the latch row; `par` is the expected [`ParSide`] at
/// `P = 2`.
fn check_latch(digest: u64, counters: WorkloadCounters, par: ParSide) {
    assert_eq!(
        measure_latch(),
        (digest, counters, par),
        "x_latch: trace, counters or per-party instrumentation left its pin"
    );
}

#[test]
#[ignore = "regeneration helper: prints the pins of every check"]
fn print_pins() {
    for bench in Benchmark::ALL {
        let (digest, counters, par) = measure(&bench.build_default(), &ENGINES);
        println!("check(Benchmark::{bench:?}, {digest:#x}, {counters:#x?}, {par:#x?});");
    }
    let (digest, counters, par) = measure(&bus_instance(), &BUS_ENGINES);
    println!("check_bus({digest:#x}, {counters:#x?}, {par:#x?});");
    let (digest, counters, par) = measure_latch();
    println!("check_latch({digest:#x}, {counters:#x?}, {par:#x?});");
}

rows! {
    stop_watch_trace_is_golden => check(
        Benchmark::StopWatch,
        0xff79_702d_dbd2_3878,
        WorkloadCounters {
            busy_ticks: 0x3e,
            idle_ticks: 0xb7a,
            events: 0x149,
            messages_inf: 0x3df,
            evaluations: 0x3dd,
            group_resolutions: 0,
            relaxation_overflows: 0,
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
    assoc_mem_trace_is_golden => check(
        Benchmark::AssocMem,
        0xccbc_0bb4_d77c_2494,
        WorkloadCounters {
            busy_ticks: 0x3a6,
            idle_ticks: 0x812,
            events: 0x114c,
            messages_inf: 0x2602,
            evaluations: 0x25ce,
            group_resolutions: 0x2a9,
            relaxation_overflows: 0,
            event_list_peak: 0x1a,
            event_list_sum: 0xece,
        },
        [
            ParSide {
                messages_crossing: 0xc4e,
                messages_component: 0x1946,
                loads_digest: 0x7065_9c56_9113_09e3,
            },
            ParSide {
                messages_crossing: 0x1271,
                messages_component: 0x1946,
                loads_digest: 0x282e_0f78_2ce5_3fbe,
            },
        ],
    );
    priority_queue_trace_is_golden => check(
        Benchmark::PriorityQueue,
        0xfdcf_bb4e_9709_ee5f,
        WorkloadCounters {
            busy_ticks: 0x3fa,
            idle_ticks: 0x7be,
            events: 0xd640,
            messages_inf: 0x3_3e2c,
            evaluations: 0x2_d33a,
            group_resolutions: 0x7a86,
            relaxation_overflows: 0,
            event_list_peak: 0x15c,
            event_list_sum: 0x745b,
        },
        [
            ParSide {
                messages_crossing: 0x1_30c1,
                messages_component: 0x2_76fa,
                loads_digest: 0x86e5_ccb0_8a24_35fa,
            },
            ParSide {
                messages_crossing: 0x1_d328,
                messages_component: 0x2_76fa,
                loads_digest: 0xe7ab_12c3_3cb8_6719,
            },
        ],
    );
    rtp_chip_trace_is_golden => check(
        Benchmark::RtpChip,
        0xf3b8_8056_0922_9a80,
        WorkloadCounters {
            busy_ticks: 0x22c,
            idle_ticks: 0x98c,
            events: 0x3fee,
            messages_inf: 0xcf41,
            evaluations: 0xcd36,
            group_resolutions: 0x789,
            relaxation_overflows: 0,
            event_list_peak: 0x5c,
            event_list_sum: 0x3572,
        },
        [
            ParSide {
                messages_crossing: 0x3e68,
                messages_component: 0x7ca5,
                loads_digest: 0xbbf2_ced7_6efb_e68e,
            },
            ParSide {
                messages_crossing: 0x5e45,
                messages_component: 0x7ca5,
                loads_digest: 0xbfc3_068b_3dcb_dc83,
            },
        ],
    );
    crossbar_switch_trace_is_golden => check(
        Benchmark::CrossbarSwitch,
        0xbe5f_f4c2_f313_bbb4,
        WorkloadCounters {
            busy_ticks: 0x19f,
            idle_ticks: 0xa19,
            events: 0x6c3,
            messages_inf: 0xe66,
            evaluations: 0xe63,
            group_resolutions: 0,
            relaxation_overflows: 0,
            event_list_peak: 0x64,
            event_list_sum: 0x7db,
        },
        [
            ParSide {
                messages_crossing: 0x6cc,
                messages_component: 0xd2a,
                loads_digest: 0x7a05_559c_eaad_4d3f,
            },
            ParSide {
                messages_crossing: 0x9af,
                messages_component: 0xd2a,
                loads_digest: 0x77fc_a083_fcff_4053,
            },
        ],
    );
    tristate_bus_trace_is_golden => check_bus(
        0x9d5b_e9ce_a419_fc32,
        WorkloadCounters {
            busy_ticks: 0x8fa,
            idle_ticks: 0x2be,
            events: 0xdee,
            messages_inf: 0x1205,
            evaluations: 0xd44,
            group_resolutions: 0,
            relaxation_overflows: 0,
            event_list_peak: 0x4,
            event_list_sum: 0x12db,
        },
        [
            ParSide {
                messages_crossing: 0x2c1,
                messages_component: 0x665,
                loads_digest: 0xc692_3ac6_7bd0_8518,
            },
            ParSide {
                messages_crossing: 0x43e,
                messages_component: 0x665,
                loads_digest: 0xe733_9e13_48f8_5199,
            },
        ],
    );
    x_latch_trace_is_golden => check_latch(
        0x976d_57ac_4a22_c3cd,
        WorkloadCounters {
            busy_ticks: 0x7f8,
            idle_ticks: 0x3c0,
            events: 0xc8e,
            messages_inf: 0x12d7,
            evaluations: 0xfd0,
            group_resolutions: 0x2c8,
            relaxation_overflows: 0,
            event_list_peak: 0x2,
            event_list_sum: 0xa7b,
        },
        ParSide {
            messages_crossing: 0xaf7,
            messages_component: 0xc72,
            loads_digest: 0x172_4369_c000_366f,
        },
    );
}
