//! Golden-digest equivalence for the tiled 10k corpus.
//!
//! A scaled instance is only a valid benchmark if every engine tells
//! the same story about it. For each family's `@10k` instance this
//! suite checks two protocols:
//!
//! * **Tick window** — the serial event-driven engine and the
//!   thread-parallel `ParSimulator` at `P` in {1, 2, 4} (under
//!   multilevel partitions, so the new partitioner is exercised on the
//!   simulation path, not just in cut-size studies) replay the same
//!   stimulus window; workload counters must match *exactly* and the
//!   final settled levels of every observable output must fold to the
//!   same FNV-1a digest.
//! * **Vector quiescence** — the serial engine replaying the stimulus
//!   of lanes 0 and 1 and the two lanes of the bit-parallel compiled
//!   backend settle the same 6 vectors; each lane's sampled output
//!   trajectory must be bit-identical to its replay.
//!
//! * **64 lanes** — the two protocols above compare engines with each
//!   other, and the second reads two lanes only. The bit-parallel
//!   engine's other 62 lanes are held to a number: 64 vectors at 64 lanes, every
//!   net folded lane by lane after every vector (net-major, the way
//!   `benchmark/src/job.rs::fold` folds outputs into `digest64`; every
//!   net, not the outputs, because 64 vectors after power-up most
//!   output lanes are still X — all 3 840 of Priority Q.). The pins
//!   were recorded on commit `4166d21`, whose sweep re-evaluated every
//!   member of a feedback cluster on every pass; a later sweep that
//!   skips work must land on the same numbers.
//!
//! Together these pin the 10k instances as cross-engine golden: any
//! generator change that perturbs simulated behavior (not just
//! structure) trips one of the digests. Every row runs through the
//! shared drivers in `tests/common`; regenerate the `digest64` and
//! `settled64` pins with
//! `cargo test --release --test scale_golden -- --ignored --nocapture`.

#[macro_use]
mod common;

use common::Engine::ParMultilevel;
use common::{bitpar_vectors, fnv, lanes_match, window_rows, Fold, Window, FNV_OFFSET};
use logicsim::circuits::{scaled, Benchmark, BenchmarkInstance, ScaledParams};
use logicsim::job::Job;
use logicsim::netlist::{Level, NetId, Netlist};

/// The tick window: 200 ticks from power-up, outputs folded at the end.
const WINDOW: Window = Window(0, 200, Fold::OutputsAtEnd);

/// The engines held to the serial engine over [`WINDOW`].
const ENGINES: [common::Engine; 3] = [ParMultilevel(1), ParMultilevel(2), ParMultilevel(4)];

fn instance_10k(bench: Benchmark) -> BenchmarkInstance {
    let inst = scaled::build(&ScaledParams {
        base: bench,
        target_components: 10_000,
        seed: scaled::DEFAULT_SEED,
    });
    assert!(inst.netlist.num_simulated_components() >= 10_000);
    inst
}

/// Serial and parallel engines replay the same tick window: counters
/// and the settled-output digest must match.
fn tick_protocol_matches(bench: Benchmark) {
    window_rows(&instance_10k(bench), None, &ENGINES, WINDOW);
}

/// Serial replays and the two lanes of the bit-parallel backend settle
/// the same 6 vectors; trajectories must fold to the same digests.
fn vector_protocol_matches(bench: Benchmark) {
    lanes_match(&instance_10k(bench), None, &[2], 6);
}

/// Every net of `nl`, lane by lane.
fn nets(nl: &Netlist) -> impl Iterator<Item = (NetId, usize)> {
    (0..nl.num_nets() as u32).flat_map(|n| (0..64).map(move |lane| (NetId(n), lane)))
}

/// Folds every net of `nl` lane by lane, net-major, into `digest`.
fn fold_nets(digest: &mut u64, nl: &Netlist, job: &Job<'_>) {
    for (net, lane) in nets(nl) {
        fnv(digest, &[job.level(net, lane) as u8]);
    }
}

/// 64 vectors at 64 lanes, every net folded lane by lane after every
/// vector.
fn digest64(bench: Benchmark) -> u64 {
    let inst = instance_10k(bench);
    let mut digest = FNV_OFFSET;
    bitpar_vectors(&inst, None, 64, 64, |_, job| {
        fold_nets(&mut digest, &inst.netlist, job);
    });
    digest
}

/// Vectors folded by [`settled64`].
const SETTLED_VECTORS: u64 = 32;

/// The first vector of `bench`'s settled row (module docs).
fn settled_from(bench: Benchmark) -> u64 {
    match bench {
        Benchmark::StopWatch => 320,
        Benchmark::AssocMem => 85,
        Benchmark::PriorityQueue => 96,
        Benchmark::RtpChip => 26,
        Benchmark::CrossbarSwitch => 480,
    }
}

/// 64 lanes, every net folded lane by lane after each of the
/// [`SETTLED_VECTORS`] vectors from [`settled_from`] on. Fewer net
/// lanes must be X there than after the first vector.
fn settled64(bench: Benchmark) -> u64 {
    let (inst, from) = (instance_10k(bench), settled_from(bench));
    let nl = &inst.netlist;
    let x_lanes = |job: &Job<'_>| {
        let x = |&(net, lane): &(NetId, usize)| job.level(net, lane) == Level::X;
        nets(nl).filter(x).count()
    };
    let mut at_power_up = 0;
    let mut digest = FNV_OFFSET;
    bitpar_vectors(&inst, None, 64, from + SETTLED_VECTORS, |v, job| {
        if v == 0 {
            at_power_up = x_lanes(job);
        }
        if v == from {
            let x = x_lanes(job);
            let name = bench.paper_name();
            assert!(
                x < at_power_up,
                "{name}@10k: {x} net lanes X at vector {from}, {at_power_up} at power-up"
            );
        }
        if v >= from {
            fold_nets(&mut digest, nl, job);
        }
    });
    digest
}

fn digest64_matches(bench: Benchmark, pinned: u64) {
    let digest = digest64(bench);
    let name = bench.paper_name();
    assert_eq!(
        digest, pinned,
        "{name}@10k: 64-lane digest {digest:#018x} left its pin"
    );
}

fn settled64_matches(bench: Benchmark, pinned: u64) {
    let digest = settled64(bench);
    let name = bench.paper_name();
    assert_eq!(
        digest, pinned,
        "{name}@10k: settled 64-lane digest {digest:#018x} left its pin"
    );
}

#[test]
#[ignore = "regeneration helper: prints the digest64 and settled64 calls of the row table"]
fn print_pins() {
    for bench in Benchmark::ALL {
        let pin = digest64(bench);
        println!("digest64_matches(Benchmark::{bench:?}, {pin:#x});");
    }
    for bench in Benchmark::ALL {
        let pin = settled64(bench);
        println!("settled64_matches(Benchmark::{bench:?}, {pin:#x});");
    }
}

rows! {
    stopwatch_10k_tick_window_golden => tick_protocol_matches(Benchmark::StopWatch);
    stopwatch_10k_vector_quiescence_golden => vector_protocol_matches(Benchmark::StopWatch);
    stopwatch_10k_digest64_golden => digest64_matches(Benchmark::StopWatch, 0x9bd3_e0eb_3f2f_3325);
    stopwatch_10k_settled64_golden => settled64_matches(Benchmark::StopWatch, 0x173f_b341_cb3c_e325);
    assoc_mem_10k_tick_window_golden => tick_protocol_matches(Benchmark::AssocMem);
    assoc_mem_10k_vector_quiescence_golden => vector_protocol_matches(Benchmark::AssocMem);
    assoc_mem_10k_digest64_golden => digest64_matches(Benchmark::AssocMem, 0xa52d_4623_27fb_e1fb);
    assoc_mem_10k_settled64_golden => settled64_matches(Benchmark::AssocMem, 0x3b99_cdaa_0411_e08e);
    priority_queue_10k_tick_window_golden => tick_protocol_matches(Benchmark::PriorityQueue);
    priority_queue_10k_vector_quiescence_golden => vector_protocol_matches(Benchmark::PriorityQueue);
    priority_queue_10k_digest64_golden => digest64_matches(Benchmark::PriorityQueue, 0x549d_7ca8_8a6d_6325);
    priority_queue_10k_settled64_golden => settled64_matches(Benchmark::PriorityQueue, 0xc97c_3120_7829_b325);
    rtp_chip_10k_tick_window_golden => tick_protocol_matches(Benchmark::RtpChip);
    rtp_chip_10k_vector_quiescence_golden => vector_protocol_matches(Benchmark::RtpChip);
    rtp_chip_10k_digest64_golden => digest64_matches(Benchmark::RtpChip, 0xedfe_a823_c473_d525);
    rtp_chip_10k_settled64_golden => settled64_matches(Benchmark::RtpChip, 0x7eb9_e94f_c460_8f25);
    crossbar_10k_tick_window_golden => tick_protocol_matches(Benchmark::CrossbarSwitch);
    crossbar_10k_vector_quiescence_golden => vector_protocol_matches(Benchmark::CrossbarSwitch);
    crossbar_10k_digest64_golden => digest64_matches(Benchmark::CrossbarSwitch, 0xa2fb_0b28_5087_97a5);
    crossbar_10k_settled64_golden => settled64_matches(Benchmark::CrossbarSwitch, 0x5f23_aedf_a18d_20a5);
}
