//! The rows behind the engine-equivalence matrix: `golden_trace`,
//! `opt_equivalence`, `bitpar_differential` and `scale_golden` are tables
//! of rows over the library's one job pipeline, `logicsim::job::Job`
//! (DESIGN.md §7, "Verification matrix").
//!
//! A row is a netlist form (the instance's own, or `optimize`'s rewrite
//! of it when a row is given `Some(&Optimized)`), an [`Engine`] —
//! `Simulator`, or `ParSimulator` under a random, round-robin or
//! multilevel partition of the *original* netlist at some `P`, carried
//! over to the rewrite by `remap_assignment` — or a `BitParSim` lane
//! count, and one of two protocols. Every row is held to the serial
//! engine on the original netlist:
//!
//! * **tick window** ([`window_rows`]): the benchmark's stimulus seeded
//!   [`SEED`], a warm-up of whole vector periods, then a window of ticks
//!   whose trace (with the counters and `ParSimulator`'s per-party side),
//!   outputs after every tick, or outputs after the last tick are folded
//!   into one FNV-1a digest;
//! * **vector quiescence** ([`lanes_match`], [`bitpar_vectors`]): vector
//!   `v` applied, the engine settled completely, then the vector index
//!   and the outputs folded per lane (or, for `scale_golden`'s `digest64`
//!   pins, every net, net-major over the lanes). Lane `i` is seeded
//!   `Stimulus64::lane_seed(SEED, i)` on both sides, so it does not
//!   depend on the lane count and one set of serial replays serves every
//!   width.
//!
//! The optimizer keeps every net's id and name, so the stimulus resolves
//! to the same inputs and the outputs are the same nets in both forms.

#![allow(dead_code)] // each suite that includes this file uses part of it

use logicsim::circuits::BenchmarkInstance;
use logicsim::job::{EngineSpec, Job, JobSpec, Measured, QUIESCE_CAP};
use logicsim::netlist::analyze::opt::Optimized;
use logicsim::netlist::{
    Clocking, Delay, GateKind, Level, NetId, Netlist, NetlistBuilder, Technology,
};
use logicsim::partition::{
    MultilevelPartitioner, Partitioner, RandomPartitioner, RoundRobinPartitioner,
};
use logicsim::sim::stimulus::{SignalRole, StimulusSpec};
use logicsim::sim::{BitParStats, Simulator, Stimulus64, TickTrace, WorkloadCounters};
use logicsim::stats::WorkerLoad;

/// One `#[test]` per `name => call;` row: the suites' test lists.
macro_rules! rows {
    ($($name:ident => $call:expr;)*) => {$(
        #[test]
        fn $name() {
            $call;
        }
    )*};
}

/// The stimulus seed of every row.
const SEED: u64 = 0x1987;

/// FNV-1a's offset basis, the digest of nothing.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit over `bytes`, continuing from `h`.
pub fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// Folds the level of every declared output.
fn fold_outputs(h: &mut u64, inst: &BenchmarkInstance, level: impl Fn(NetId) -> Level) {
    for &out in inst.netlist.outputs() {
        fnv(h, &[level(out) as u8]);
    }
}

/// Digests the complete trace structure: span, tick numbers, event
/// order, sources, and fanout destination lists.
fn trace_digest(trace: &TickTrace) -> u64 {
    let mut h = FNV_OFFSET;
    for v in [trace.start, trace.end, trace.ticks.len() as u64] {
        fnv(&mut h, &v.to_le_bytes());
    }
    for tick in &trace.ticks {
        fnv(&mut h, &tick.tick.to_le_bytes());
        fnv(&mut h, &(tick.events.len() as u64).to_le_bytes());
        for ev in &tick.events {
            fnv(&mut h, &u64::from(ev.source).to_le_bytes());
            fnv(&mut h, &(ev.dests.len() as u64).to_le_bytes());
            for &d in &ev.dests {
                fnv(&mut h, &u64::from(d).to_le_bytes());
            }
        }
    }
    h
}

/// The event engine of a tick-window row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    Serial,
    /// `ParSimulator` at `P` under `RandomPartitioner` seeded [`SEED`].
    ParRandom(usize),
    /// `ParSimulator` at `P` under `RoundRobinPartitioner`, which deals
    /// components declared next to each other to different partitions.
    ParRoundRobin(usize),
    /// `ParSimulator` at `P` under `MultilevelPartitioner` seeded 11.
    ParMultilevel(usize),
}

/// Two tristate buses, each with one driver per input pair — `x` driven
/// by `(d0, en0)` and `(d1, en1)`, `y` by `(d1, en0)` and `(d0, en1)` —
/// read by an inverter and an XOR. The four drivers are declared one
/// after the other, so [`Engine::ParRoundRobin`] at `P >= 2` puts the
/// two drivers of each bus in different partitions (the engine runs
/// both in the first one's party). All four inputs are re-drawn in the
/// same ticks and every driver has the same delay, so both drivers of a
/// bus often change their drive in one tick and the bus's owner merges
/// the two changes: the serial engine's last writer must be the cause
/// the trace records.
pub fn bus_instance() -> BenchmarkInstance {
    let mut b = NetlistBuilder::new("buses");
    let (d0, d1) = (b.input("d0"), b.input("d1"));
    let (en0, en1) = (b.input("en0"), b.input("en1"));
    let (x, y, q, r) = (b.net("x"), b.net("y"), b.net("q"), b.net("r"));
    for (d, en, bus) in [(d0, en0, x), (d1, en1, x), (d1, en0, y), (d0, en1, y)] {
        b.gate(GateKind::Tristate, &[d, en], bus, Delay::uniform(1));
    }
    b.gate(GateKind::Not, &[x], q, Delay::uniform(1));
    b.gate(GateKind::Xor, &[x, y], r, Delay::uniform(2));
    for net in [x, y, q, r] {
        b.mark_output(net);
    }
    let data = SignalRole::Random {
        period: 4,
        phase: 0,
        toggle_prob: 0.5,
    };
    let stimulus = ["d0", "d1", "en0", "en1"]
        .into_iter()
        .fold(StimulusSpec::new(), |s, net| s.with(net, data.clone()));
    BenchmarkInstance {
        netlist: b.finish().expect("valid netlist"),
        stimulus,
        technology: Technology::Cmos,
        clocking: Clocking::Asynchronous,
        vector_period: 4,
    }
}

/// A transmission-gate latch whose enable goes to `X`: `d` passes onto
/// the storage node `q` while `en` is 1 (an nMOS gated by `en`, a pMOS
/// by `en_n = NOT en`), and `q` is read by `y = NOT q`. `en = AND(e,
/// fx)`, where `fx` is driven by two buffers, one from `k` and one from
/// the constant `one`: while `k` is 1 they agree, while `k` is 0 they
/// fight and `fx` is `X`, so `en` and `en_n` are `X` whenever `e` is 1
/// and `k` is 0, and the latch settles with unknown conduction. The
/// reader is declared between `en_n`'s inverter and the two switches,
/// so [`Engine::ParRoundRobin`] at `P = 2` puts the reader and the pMOS
/// in partition 0 and the nMOS, the latch's lowest-id switch, in
/// partition 1 (the engine runs both switches and `d`'s input in its
/// party).
pub fn x_latch_instance() -> BenchmarkInstance {
    let mut b = NetlistBuilder::new("x_latch");
    let (d, e, k, one) = (b.input("d"), b.input("e"), b.input("k"), b.input("one"));
    let (fx, en, en_n) = (b.net("fx"), b.net("en"), b.net("en_n"));
    let (q, y) = (b.net("q"), b.net("y"));
    b.gate(GateKind::Buf, &[k], fx, Delay::uniform(1));
    b.gate(GateKind::Buf, &[one], fx, Delay::uniform(1));
    b.gate(GateKind::And, &[e, fx], en, Delay::uniform(1));
    b.gate(GateKind::Not, &[en], en_n, Delay::uniform(1));
    b.gate(GateKind::Not, &[q], y, Delay::uniform(1));
    b.transmission_gate(en, en_n, d, q);
    for net in [en, q, y] {
        b.mark_output(net);
    }
    let random = |phase| SignalRole::Random {
        period: 4,
        phase,
        toggle_prob: 0.5,
    };
    let stimulus = StimulusSpec::new()
        .with("d", random(0))
        .with("e", random(1))
        .with("k", random(2))
        .with("one", SignalRole::Const(Level::One));
    BenchmarkInstance {
        netlist: b.finish().expect("valid netlist"),
        stimulus,
        technology: Technology::Cmos,
        clocking: Clocking::Asynchronous,
        vector_period: 4,
    }
}

/// What a tick window folds into its digest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fold {
    /// The whole tick trace; the engine runs with trace collection and
    /// phase timing armed, so the digest also pins that observation
    /// never perturbs simulation state.
    Trace,
    /// Every output's level after every tick of the window.
    OutputsEveryTick,
    /// Every output's level after the window's last tick.
    OutputsAtEnd,
}

/// The tick-window protocol: warm-up length in the instance's vector
/// periods, window length in ticks (the counters cover the window only),
/// and what is folded.
#[derive(Clone, Copy, Debug)]
pub struct Window(pub u64, pub u64, pub Fold);

/// `ParSimulator`'s own instrumentation for one run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParSide {
    pub messages_crossing: u64,
    pub messages_component: u64,
    /// FNV-1a over every worker's `busy_ticks`, `idle_ticks`,
    /// `evaluations`, `group_resolutions`, `messages_sent`, in order.
    pub loads_digest: u64,
}

/// What one tick-window row yields.
#[derive(Debug)]
pub struct Run {
    pub digest: u64,
    pub counters: WorkloadCounters,
    /// `None` on the serial engine.
    pub side: Option<ParSide>,
}

/// The per-party side of a parallel run's segment (its warm-up or its
/// window); also holds the per-party loads to the segment's totals: one
/// load per party, every party's ticks adding up to the segment's, and
/// the parties' evaluations and group resolutions to the counters'.
fn par_side(m: &Measured, workers: usize) -> ParSide {
    let (counters, pw) = (&m.counters, m.parallel.as_ref().expect("a parallel run"));
    let loads = &pw.workers;
    assert_eq!(loads.len(), workers, "one load per party");
    for (p, l) in loads.iter().enumerate() {
        let ticks = l.busy_ticks + l.idle_ticks;
        assert_eq!(ticks, counters.total_ticks(), "party {p}'s ticks");
    }
    let sum = |f: fn(&WorkerLoad) -> u64| loads.iter().map(f).sum::<u64>();
    assert_eq!(sum(|l| l.evaluations), counters.evaluations);
    assert_eq!(sum(|l| l.group_resolutions), counters.group_resolutions);
    let mut loads_digest = FNV_OFFSET;
    for l in loads {
        for v in [
            l.busy_ticks,
            l.idle_ticks,
            l.evaluations,
            l.group_resolutions,
            l.messages_sent,
        ] {
            fnv(&mut loads_digest, &v.to_le_bytes());
        }
    }
    ParSide {
        messages_crossing: pw.messages_crossing,
        messages_component: pw.messages_component,
        loads_digest,
    }
}

/// Runs the serial engine on the original netlist, then every engine of
/// `engines` on `opt`'s rewrite of it (the original when `None`), over
/// the same tick window; asserts that the window saw events, and that
/// each engine folds to the serial digest and, on the original netlist,
/// counts the same counters. Returns the runs, the serial one first.
pub fn window_rows(
    inst: &BenchmarkInstance,
    opt: Option<&Optimized>,
    engines: &[Engine],
    w: Window,
) -> Vec<Run> {
    let serial = window(inst, None, Engine::Serial, w);
    let name = inst.netlist.name();
    assert!(serial.counters.events > 0, "{name}: window saw no events");
    let mut runs = vec![serial];
    for &engine in engines {
        let run = window(inst, opt, engine, w);
        let (serial, optimized) = (&runs[0], opt.is_some());
        assert_eq!(
            run.digest, serial.digest,
            "{name}: {engine:?} (optimized: {optimized}) diverged from the serial engine"
        );
        if !optimized {
            assert_eq!(
                run.counters, serial.counters,
                "{name}: {engine:?} counters diverged from the serial engine"
            );
        }
        runs.push(run);
    }
    runs
}

fn window(inst: &BenchmarkInstance, opt: Option<&Optimized>, engine: Engine, w: Window) -> Run {
    let nl = opt.map_or(&inst.netlist, |o| &o.netlist);
    let Window(periods, ticks, fold) = w;
    let (warmup, armed) = (periods * inst.vector_period.max(1), fold == Fold::Trace);
    let assignment: Vec<u32>;
    let engine = match engine {
        Engine::Serial => EngineSpec::Serial,
        Engine::ParRandom(p) | Engine::ParRoundRobin(p) | Engine::ParMultilevel(p) => {
            let (original, parts) = (&inst.netlist, p as u32);
            let part = match engine {
                Engine::ParRandom(_) => RandomPartitioner::new(SEED).partition(original, parts),
                Engine::ParRoundRobin(_) => RoundRobinPartitioner.partition(original, parts),
                _ => MultilevelPartitioner::new(11).partition(original, parts),
            };
            let a = part.as_slice();
            assignment = opt.map_or_else(|| a.to_vec(), |o| o.remap_assignment(a));
            EngineSpec::Par {
                workers: p,
                assignment: &assignment,
            }
        }
    };
    let spec = JobSpec {
        engine,
        warmup,
        window: ticks,
        seed: SEED,
        collect_trace: armed,
        observe: armed,
    };
    let mut job = Job::new(nl, &inst.stimulus, &spec).expect("pre-flight");
    let side = |m: &Measured| match engine {
        EngineSpec::Par { workers, .. } => Some(par_side(m, workers)),
        _ => None,
    };
    side(&job.warm_up());
    let mut digest = FNV_OFFSET;
    let m = if fold == Fold::OutputsEveryTick {
        job.run_each(|_, _, job| fold_outputs(&mut digest, inst, |net| job.level(net, 0)))
    } else {
        job.run()
    };
    match fold {
        Fold::OutputsAtEnd => fold_outputs(&mut digest, inst, |net| job.level(net, 0)),
        Fold::Trace => digest = trace_digest(&m.trace),
        Fold::OutputsEveryTick => {}
    }
    Run {
        digest,
        side: side(&m),
        counters: m.counters,
    }
}

/// Runs the event engine until nothing is scheduled, asserting it gets
/// there within 50 000 ticks (generous: the circuits settle far below
/// it per vector).
pub fn settle(sim: &mut Simulator<'_>, what: &str) {
    let target = sim.now() + QUIESCE_CAP;
    let end = sim.run_to_quiescence(target);
    assert!(end < target, "{what}: no quiescence");
}

/// Vector quiescence on `engine` over `nl` under `inst`'s stimulus:
/// vector `v` is applied and settled, then handed to `sample`.
fn vectors_on<'n>(
    nl: &'n Netlist,
    inst: &BenchmarkInstance,
    engine: EngineSpec<'_>,
    seed: u64,
    vectors: u64,
    mut sample: impl FnMut(u64, &Job<'n>),
) -> Measured {
    let spec = JobSpec {
        engine,
        window: vectors,
        seed,
        ..JobSpec::default()
    };
    let mut job = Job::new(nl, &inst.stimulus, &spec).expect("pre-flight");
    job.run_each(|v, settled, job| {
        assert!(settled, "{}: v={v} did not settle", nl.name());
        sample(v, job);
    })
}

/// Vector quiescence on `BitParSim` at `lanes` lanes over `opt`'s
/// rewrite of `inst`'s netlist (the original when `None`): vector `v` is
/// applied and settled, then handed to `sample`.
pub fn bitpar_vectors(
    inst: &BenchmarkInstance,
    opt: Option<&Optimized>,
    lanes: usize,
    vectors: u64,
    sample: impl FnMut(u64, &Job<'_>),
) -> BitParStats {
    let nl = opt.map_or(&inst.netlist, |o| &o.netlist);
    let m = vectors_on(
        nl,
        inst,
        EngineSpec::BitPar { lanes },
        SEED,
        vectors,
        sample,
    );
    m.bitpar
        .expect("the bit-parallel engine reports its statistics")
}

/// Vector quiescence at every width of `widths`, widest first: each
/// `BitParSim` lane on `opt`'s rewrite (the original when `None`) must
/// fold its outputs to the same digest as the serial engine replaying
/// that lane on the original netlist.
pub fn lanes_match(
    inst: &BenchmarkInstance,
    opt: Option<&Optimized>,
    widths: &[usize],
    vectors: u64,
) {
    let name = inst.netlist.name();
    let replay = |lane: usize| {
        let mut h = FNV_OFFSET;
        let seed = Stimulus64::lane_seed(SEED, lane);
        vectors_on(
            &inst.netlist,
            inst,
            EngineSpec::Replay,
            seed,
            vectors,
            |v, job| {
                fnv(&mut h, &v.to_le_bytes());
                fold_outputs(&mut h, inst, |net| job.level(net, 0));
            },
        );
        h
    };
    let serial: Vec<u64> = (0..widths[0]).map(replay).collect();
    for &lanes in widths {
        let mut got = vec![FNV_OFFSET; lanes];
        let stats = bitpar_vectors(inst, opt, lanes, vectors, |v, job| {
            for (lane, h) in got.iter_mut().enumerate() {
                fnv(h, &v.to_le_bytes());
                fold_outputs(h, inst, |net| job.level(net, lane));
            }
        });
        let diverged = (0..lanes).find(|&l| got[l] != serial[l]);
        assert_eq!(
            diverged,
            None,
            "{name}: at {lanes} lanes (optimized: {}), the lane on the left is the \
             first to diverge from the event-driven engine; {stats:?}",
            opt.is_some()
        );
    }
}
