//! The child process: input generation and one job.
//!
//! A job is what a user of the simulator does: netlist text in →
//! verified digest out. It reads the generated netlist, parses it,
//! (parallel workloads) partitions it, constructs the engine, builds
//! the stimulus [set-up ends], warms up for 24 vector periods, resets
//! the measurements, drives a fixed tick (or vector) count in 16 equal
//! chunks folding every output level into an FNV digest after each,
//! and prints its times and counts as one line of JSON. The parent
//! times the whole process from outside.

use crate::json::Value;
use crate::json::{counts_to_json, floats_to_json, get_f64, get_str, get_u64, int, num, obj, text};
use crate::probes;
use crate::trace::Recorder;
use crate::workloads::{Engine, Workload, CHUNKS, WARMUP_PERIODS};
use logicsim::circuits::{scaled, ScaledParams};
use logicsim::machine::MeasuredParams;
use logicsim::netlist::{text as netlist_text, Level, NetId, Netlist};
use logicsim::partition::{MultilevelPartitioner, Partition, Partitioner};
use logicsim::sim::stimulus::run_with_stimulus;
use logicsim::sim::{
    BitParSim, BitParStats, ObsReport, ParSimulator, Phase, RandomStimulus, SignalRole, SimConfig,
    Simulator, Stimulus64, StimulusSpec, WorkloadCounters,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Lanes of the bit-parallel workload.
pub const LANES: usize = 64;

/// Tick budget for one vector of the serial replay to settle (the bound
/// `tests/bitpar_differential.rs` uses).
const QUIESCE_CAP: u64 = 50_000;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over one byte, continuing from `h`.
fn fnv1a(h: &mut u64, byte: u8) {
    *h ^= u64::from(byte);
    *h = h.wrapping_mul(0x100_0000_01b3);
}

// ------------------------------------------------------------- inputs

/// The two files of one generated input.
#[derive(Debug, Clone)]
pub struct InputFiles {
    /// The netlist in the line-oriented text format.
    pub netlist: PathBuf,
    /// The stimulus plan and vector period, as JSON.
    pub stimulus: PathBuf,
}

impl InputFiles {
    /// Where the input for `(family@scale, seed)` lives under `dir`.
    /// Workloads on the same circuit share one file.
    pub fn locate(dir: &Path, w: &Workload, scale: usize, seed: u64) -> InputFiles {
        let stem = format!("{}-{scale}-{seed:#x}", w.family.slug());
        InputFiles {
            netlist: dir.join(format!("{stem}.lsim")),
            stimulus: dir.join(format!("{stem}.stim.json")),
        }
    }

    fn from_netlist_path(netlist: &Path) -> InputFiles {
        InputFiles {
            netlist: netlist.to_path_buf(),
            stimulus: netlist.with_extension("stim.json"),
        }
    }
}

fn level_code(l: Level) -> u64 {
    l as u64
}

fn level_from_code(code: u64) -> Result<Level, String> {
    Level::ALL
        .into_iter()
        .find(|&l| level_code(l) == code)
        .ok_or_else(|| format!("unknown level code {code}"))
}

fn stimulus_to_json(spec: &StimulusSpec, vector_period: u64) -> Value {
    let assignments = spec
        .assignments
        .iter()
        .map(|(net, role)| {
            let mut fields = vec![("net", text(net.clone()))];
            match role {
                SignalRole::Clock { half_period, phase } => fields.extend([
                    ("role", text("clock")),
                    ("half_period", int(*half_period)),
                    ("phase", int(*phase)),
                ]),
                SignalRole::Random {
                    period,
                    phase,
                    toggle_prob,
                } => fields.extend([
                    ("role", text("random")),
                    ("period", int(*period)),
                    ("phase", int(*phase)),
                    ("toggle_prob", num(*toggle_prob)),
                ]),
                SignalRole::Const(l) => {
                    fields.extend([("role", text("const")), ("level", int(level_code(*l)))]);
                }
                SignalRole::Pulse { active, width } => fields.extend([
                    ("role", text("pulse")),
                    ("active", int(level_code(*active))),
                    ("width", int(*width)),
                ]),
            }
            obj(fields)
        })
        .collect();
    obj([
        ("vector_period", int(vector_period)),
        ("assignments", Value::Array(assignments)),
    ])
}

fn stimulus_from_json(doc: &Value) -> Result<(StimulusSpec, u64), String> {
    let mut spec = StimulusSpec::new();
    let list = doc
        .get("assignments")
        .and_then(Value::as_array)
        .ok_or("stimulus file has no `assignments`")?;
    for a in list {
        let role = match get_str(a, "role")? {
            "clock" => SignalRole::Clock {
                half_period: get_u64(a, "half_period")?,
                phase: get_u64(a, "phase")?,
            },
            "random" => SignalRole::Random {
                period: get_u64(a, "period")?,
                phase: get_u64(a, "phase")?,
                toggle_prob: get_f64(a, "toggle_prob")?,
            },
            "const" => SignalRole::Const(level_from_code(get_u64(a, "level")?)?),
            "pulse" => SignalRole::Pulse {
                active: level_from_code(get_u64(a, "active")?)?,
                width: get_u64(a, "width")?,
            },
            other => return Err(format!("unknown stimulus role `{other}`")),
        };
        spec = spec.with(get_str(a, "net")?, role);
    }
    Ok((spec, get_u64(doc, "vector_period")?))
}

/// Generates the input of `w` at `scale` from `seed` (the seed drives
/// the inter-tile wiring) and writes both files. Outside every metric.
pub fn generate(w: &Workload, scale: usize, seed: u64, files: &InputFiles) -> Result<(), String> {
    let inst = scaled::build(&ScaledParams {
        base: w.family,
        target_components: scale,
        seed,
    });
    if let Some(dir) = files.netlist.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let write = |path: &Path, body: String| {
        std::fs::write(path, body).map_err(|e| format!("{}: {e}", path.display()))
    };
    write(&files.netlist, netlist_text::serialize(&inst.netlist))?;
    let stim = stimulus_to_json(&inst.stimulus, inst.vector_period);
    write(
        &files.stimulus,
        serde_json::to_string_pretty(&stim).map_err(|e| e.to_string())?,
    )
}

// ---------------------------------------------------------------- job

/// What the child does with the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The workload's job on the workload's engine.
    Job,
    /// The same job shape on the serial `Simulator`: the reference an
    /// unblessed seed is checked against. For the bit-parallel workload
    /// it replays lane 0 under the vector protocol and counts `e_ref`.
    Reference,
    /// Set-up only: one more `setup_s` sample, then exit.
    SetupOnly,
}

/// Arguments of one child job.
#[derive(Debug)]
pub struct JobArgs {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed of stimulus and partitioner (and, upstream, of the input).
    pub seed: u64,
    /// The generated netlist; its stimulus file sits beside it.
    pub input: PathBuf,
    /// Input scale (only the `circuits.scaled` probe needs it).
    pub scale: usize,
    /// Ticks (vectors) of the timed window.
    pub ticks: u64,
    /// What to run.
    pub mode: Mode,
    /// Traced pass: `observe: true`, spans, probes. Write spans here.
    pub trace_out: Option<PathBuf>,
}

/// The engine of one job behind the three calls the window needs.
enum Eng<'n> {
    Serial {
        sim: Simulator<'n>,
        stim: RandomStimulus,
    },
    Par {
        sim: ParSimulator<'n>,
        stim: RandomStimulus,
    },
    Bit {
        sim: BitParSim<'n>,
        stim: Stimulus64,
        pos: u64,
        /// Statistics at `reset` (the engine has no reset of its own).
        base: BitParStats,
    },
    Replay {
        sim: Simulator<'n>,
        stim: RandomStimulus,
        pos: u64,
    },
}

impl Eng<'_> {
    /// Advances to tick (vector) `to`.
    fn advance(&mut self, to: u64) -> Result<(), String> {
        match self {
            Eng::Serial { sim, stim } => run_with_stimulus(sim, stim, to),
            Eng::Par { sim, stim } => sim.run_with(to, |tick, frame| {
                stim.apply_with(tick, |net, level| frame.set(net, level));
            }),
            Eng::Bit { sim, stim, pos, .. } => {
                for v in *pos..to {
                    stim.apply_with(v, |net, plane| sim.set_input_plane(net, plane));
                    // An unconverged vector is counted by the engine and
                    // fails verification later; keep going.
                    sim.settle_vector();
                }
                *pos = to;
            }
            Eng::Replay { sim, stim, pos } => {
                for v in *pos..to {
                    stim.apply_with(v, |net, level| sim.set_input(net, level));
                    let cap = sim.now() + QUIESCE_CAP;
                    if sim.run_to_quiescence(cap) >= cap {
                        return Err(format!("serial replay: vector {v} did not settle"));
                    }
                }
                *pos = to;
            }
        }
        Ok(())
    }

    fn reset_measurements(&mut self) {
        match self {
            Eng::Serial { sim, .. } | Eng::Replay { sim, .. } => sim.reset_measurements(),
            Eng::Par { sim, .. } => sim.reset_measurements(),
            Eng::Bit { sim, base, .. } => *base = sim.stats(),
        }
    }

    /// Work done since `reset_measurements`, in the engine's own exact
    /// unit: committed events, or compiled evaluations on the
    /// bit-parallel engine. Chunk times are compared per unit of it.
    fn work(&self) -> u64 {
        match self {
            Eng::Serial { sim, .. } | Eng::Replay { sim, .. } => sim.counters().events,
            Eng::Par { sim, .. } => sim.counters().events,
            Eng::Bit { sim, base, .. } => sim.stats().compiled_evals - base.compiled_evals,
        }
    }

    /// Folds the level of every output net into the digests.
    fn fold(&self, outputs: &[NetId], d: &mut Digests) {
        fn levels(h: &mut u64, outputs: &[NetId], level: impl Fn(NetId) -> Level) {
            outputs.iter().for_each(|&n| fnv1a(h, level(n) as u8));
        }
        match self {
            Eng::Serial { sim, .. } => levels(&mut d.outputs, outputs, |n| sim.level(n)),
            Eng::Par { sim, .. } => levels(&mut d.outputs, outputs, |n| sim.level(n)),
            Eng::Replay { sim, .. } => levels(&mut d.lane0, outputs, |n| sim.level(n)),
            Eng::Bit { sim, .. } => {
                levels(&mut d.lane0, outputs, |n| sim.level(n, 0));
                // Output-major: the 64 lanes of one net, then the next net.
                for &n in outputs {
                    (0..LANES).for_each(|lane| fnv1a(&mut d.outputs, sim.level(n, lane) as u8));
                }
            }
        }
    }
}

/// Running output digests. `outputs` covers every output (× 64 lanes on
/// the bit-parallel engine); `lane0` is the bit-parallel lane the
/// serial replay reproduces.
struct Digests {
    outputs: u64,
    lane0: u64,
}

/// The tick protocol's workload counters, by the names the report uses.
fn counter_pairs(c: &WorkloadCounters) -> [(&'static str, u64); 6] {
    [
        ("events", c.events),
        ("evaluations", c.evaluations),
        ("busy_ticks", c.busy_ticks),
        ("idle_ticks", c.idle_ticks),
        ("messages_inf", c.messages_inf),
        ("event_list_peak", c.event_list_peak),
    ]
}

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

/// `a / b`, 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Nets with readers or drivers in more than one part.
fn cut_nets(nl: &Netlist, part: &Partition) -> u64 {
    (0..nl.num_nets() as u32)
        .filter(|&i| {
            let net = NetId(i);
            let mut parts = nl
                .drivers(net)
                .iter()
                .chain(nl.fanout(net))
                .filter_map(|&c| part.part_of(c));
            parts.next().is_some_and(|first| parts.any(|p| p != first))
        })
        .count() as u64
}

/// Largest part ÷ mean part, minus 1.
fn imbalance(part: &Partition) -> f64 {
    let sizes = part.sizes();
    let total: usize = sizes.iter().sum();
    let max = sizes.iter().copied().max().unwrap_or(0);
    ratio(max as f64 * sizes.len() as f64, total as f64) - 1.0
}

/// The serial engine's window split by phase. `other_s` is what the
/// phase recorder does not see: idle ticks, wheel advance, stimulus.
fn serial_layers(report: &ObsReport, window_s: f64, layers: &mut BTreeMap<String, f64>) {
    let mut seen = 0.0;
    for phase in [
        Phase::Apply,
        Phase::Resolve,
        Phase::Eval,
        Phase::Exchange,
        Phase::Done,
    ] {
        let s = secs(report.total(phase).total_ns);
        seen += s;
        layers.insert(format!("sim.engine.{}_s", phase.name()), s);
    }
    layers.insert("sim.engine.other_s".into(), (window_s - seen).max(0.0));
    layers.insert("sim.obs.ring_dropped".into(), report.dropped() as f64);
}

/// The parallel engine's window split along the master's timeline.
///
/// The master has (almost) no components of its own, so its raw barrier
/// wait contains the workers' compute. To separate the two regimes of
/// Eq. 10 the compute of the busiest worker is reported under
/// `apply_s`/`resolve_s`/`eval_s` and taken out of `barrier_s`, which
/// then reads as synchronisation plus skew. `other_s` is the master's
/// time outside every recorded phase.
fn par_layers(
    sim: &ParSimulator<'_>,
    report: &ObsReport,
    window_s: f64,
    layers: &mut BTreeMap<String, f64>,
) {
    let compute = [Phase::Apply, Phase::Resolve, Phase::Eval];
    let lane_compute = |lane: usize| -> u64 {
        compute
            .iter()
            .map(|p| report.lanes[lane].totals[p.idx()].total_ns)
            .sum()
    };
    let workers = sim.workers();
    let busiest = (0..workers).max_by_key(|&l| lane_compute(l)).unwrap_or(0);
    let master = &report.lanes[workers];
    let master_s = |p: Phase| secs(master.totals[p.idx()].total_ns);
    for p in compute {
        layers.insert(
            format!("sim.par_engine.{}_s", p.name()),
            secs(report.lanes[busiest].totals[p.idx()].total_ns),
        );
    }
    for p in [Phase::Start, Phase::Exchange, Phase::Done] {
        layers.insert(format!("sim.par_engine.{}_s", p.name()), master_s(p));
    }
    let barrier = (master_s(Phase::Barrier) - secs(lane_compute(busiest))).max(0.0);
    layers.insert("sim.par_engine.barrier_s".into(), barrier);
    let master_seen: f64 = Phase::ALL.iter().map(|&p| master_s(p)).sum();
    layers.insert(
        "sim.par_engine.other_s".into(),
        (window_s - master_seen).max(0.0),
    );
    layers.insert(
        "sim.par_engine.barrier_share".into(),
        ratio(master_s(Phase::Start) + barrier, window_s),
    );
    let executed = report.executed_ticks();
    layers.insert("sim.par_engine.executed_ticks".into(), executed as f64);
    layers.insert(
        "sim.par_engine.messages_crossing".into(),
        sim.messages_crossing() as f64,
    );
    let loads = sim.worker_loads();
    let evals: Vec<f64> = loads.iter().map(|l| l.evaluations as f64).collect();
    let mean = evals.iter().sum::<f64>() / evals.len().max(1) as f64;
    let beta = ratio(evals.iter().copied().fold(0.0, f64::max), mean).max(1.0);
    layers.insert("sim.par_engine.beta".into(), beta);
    let busy: u64 = loads.iter().map(|l| l.busy_ticks).sum();
    layers.insert(
        "sim.par_engine.utilisation".into(),
        ratio(busy as f64, (workers as u64 * executed) as f64),
    );
    layers.insert("sim.obs.ring_dropped".into(), report.dropped() as f64);

    let params: MeasuredParams = logicsim::measure::measured_params(report, workers as u32);
    layers.insert("machine.calibrate.t_sync_ns".into(), params.t_sync_ns());
    layers.insert("machine.calibrate.t_eval_ns".into(), params.t_eval_ns);
    layers.insert("machine.calibrate.t_msg_ns".into(), params.t_msg_ns);
    layers.insert(
        "machine.calibrate.eq10_residual".into(),
        MeasuredParams::relative_error(params.predict_runtime_ns(beta), window_s * 1e9),
    );
}

fn bitpar_layers(
    now: &BitParStats,
    base: &BitParStats,
    window_s: f64,
    layers: &mut BTreeMap<String, f64>,
) {
    let sweeps = now.sweeps - base.sweeps;
    let evals = now.compiled_evals - base.compiled_evals;
    for (k, v) in [
        ("ranks", f64::from(now.ranks)),
        ("solver_cells", now.solver_cells as f64),
        ("fallback_components", now.fallback_components as f64),
        ("sweeps", sweeps as f64),
        ("compiled_evals", evals as f64),
        (
            "fallback_events",
            (now.fallback_events - base.fallback_events) as f64,
        ),
        (
            "unconverged_vectors",
            (now.unconverged_vectors - base.unconverged_vectors) as f64,
        ),
        ("ns_per_sweep", ratio(window_s * 1e9, sweeps as f64)),
        ("ns_per_eval", ratio(window_s * 1e9, evals as f64)),
    ] {
        layers.insert(format!("sim.bitpar.{k}"), v);
    }
}

/// The child's own peak resident set, KiB (`VmHWM`).
fn peak_rss_kb() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Runs one child job and returns the line of JSON it prints.
#[allow(clippy::too_many_lines)] // one job, top to bottom, in the order it is timed
pub fn run(args: &JobArgs) -> Result<Value, String> {
    let w = args.workload;
    let traced = args.trace_out.is_some();
    // The reference is always the serial engine; for the bit-parallel
    // workload it replays lane 0 under the vector protocol.
    let reference = args.mode == Mode::Reference;
    let engine = if reference { Engine::Serial } else { w.engine };
    let replay = reference && w.engine == Engine::BitPar;
    let files = InputFiles::from_netlist_path(&args.input);
    let mut rec = Recorder::new(traced, format!("{}-{:#x}", w.name, args.seed));
    let mut layers: BTreeMap<String, f64> = BTreeMap::new();
    let job_span = rec.enter("job");

    // ---- set-up: read → parse → partition → construct → stimulus.
    let setup_started = Instant::now();
    let sp = rec.enter("driver.read");
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let source = read(&files.netlist)?;
    let (spec, vector_period) = stimulus_from_json(
        &serde_json::from_str(&read(&files.stimulus)?).map_err(|e| e.to_string())?,
    )?;
    layers.insert("driver.read_s".into(), rec.exit(sp));

    let sp = rec.enter("netlist.text.parse");
    let nl =
        netlist_text::parse(&source).map_err(|e| format!("{}: {e}", files.netlist.display()))?;
    let parse_s = rec.exit(sp);
    layers.insert("netlist.text.parse_s".into(), parse_s);
    layers.insert("netlist.text.bytes".into(), source.len() as f64);
    layers.insert(
        "netlist.text.parse_mb_per_s".into(),
        ratio(source.len() as f64 * 1e-6, parse_s),
    );
    drop(source);

    let partition = (engine == Engine::Par2).then(|| {
        let sp = rec.enter("partition.multilevel");
        let p = MultilevelPartitioner::new(args.seed)
            .with_activity_weights()
            .partition(&nl, engine.workers() as u32);
        layers.insert("partition.multilevel.partition_s".into(), rec.exit(sp));
        p
    });

    let config = SimConfig {
        observe: traced,
        ..SimConfig::default()
    };
    let construct_key = match engine {
        Engine::Serial => "sim.engine.construct",
        Engine::Par2 => "sim.par_engine.construct",
        Engine::BitPar => "sim.bitpar.compile",
    };
    let sp = rec.enter(construct_key);
    let preflight = |e: logicsim::sim::PreflightError| e.to_string();
    let built = match (engine, &partition) {
        (Engine::Par2, Some(p)) => EngNoStim::Par(
            ParSimulator::with_config(&nl, p.as_slice(), engine.workers(), config)
                .map_err(preflight)?,
        ),
        (Engine::BitPar, _) => EngNoStim::Bit(BitParSim::new(&nl, LANES).map_err(preflight)?),
        _ => EngNoStim::Serial(Simulator::with_config(&nl, config).map_err(preflight)?),
    };
    layers.insert(format!("{construct_key}_s"), rec.exit(sp));

    let sp = rec.enter("sim.stimulus.build");
    let mut eng = match built {
        EngNoStim::Serial(sim) if replay => Eng::Replay {
            sim,
            stim: spec.build(&nl, Stimulus64::lane_seed(args.seed, 0))?,
            pos: 0,
        },
        EngNoStim::Serial(sim) => Eng::Serial {
            sim,
            stim: spec.build(&nl, args.seed)?,
        },
        EngNoStim::Par(sim) => Eng::Par {
            sim,
            stim: spec.build(&nl, args.seed)?,
        },
        EngNoStim::Bit(sim) => Eng::Bit {
            base: sim.stats(),
            sim,
            stim: Stimulus64::new(&spec, &nl, args.seed, LANES)?,
            pos: 0,
        },
    };
    layers.insert("sim.stimulus.build_s".into(), rec.exit(sp));
    let setup_s = setup_started.elapsed().as_secs_f64();

    let mut out = vec![
        ("workload", text(w.name)),
        (
            "engine",
            text(if replay { "replay" } else { engine.name() }),
        ),
        ("seed", int(args.seed)),
        ("ticks", int(args.ticks)),
        ("setup_s", num(setup_s)),
    ];
    if args.mode == Mode::SetupOnly {
        // Only set-up is measured here, so skip the teardown: at 1M
        // components dropping the engine and netlist takes over a second.
        println!(
            "{}",
            serde_json::to_string(&obj(out)).map_err(|e| e.to_string())?
        );
        std::process::exit(0);
    }

    // ---- warm-up, then the timed window of fixed work.
    let vector_engine = matches!(eng, Eng::Bit { .. } | Eng::Replay { .. });
    let warm = WARMUP_PERIODS
        * if vector_engine {
            1
        } else {
            vector_period.max(1)
        };
    let sp = rec.enter("warmup");
    eng.advance(warm)?;
    eng.reset_measurements();
    rec.exit(sp);

    let mut digests = Digests {
        outputs: FNV_OFFSET,
        lane0: FNV_OFFSET,
    };
    let mut digest_s = 0.0;
    let window_span = rec.enter("window");
    let (mut chunk_s, mut chunk_work, mut work_before) = (Vec::new(), Vec::new(), 0);
    for chunk in 1..=CHUNKS {
        let sp = rec.enter("window.chunk");
        let started = Instant::now();
        eng.advance(warm + args.ticks * chunk / CHUNKS)?;
        chunk_s.push(num(started.elapsed().as_secs_f64()));
        let work = eng.work();
        chunk_work.push(int(work - work_before));
        work_before = work;
        let dsp = rec.enter("driver.digest");
        eng.fold(nl.outputs(), &mut digests);
        digest_s += rec.exit(dsp);
        rec.exit(sp);
    }
    let window_s = rec.exit(window_span);
    layers.insert("driver.digest_s".into(), digest_s);

    // ---- counts.
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    // `ParSimulator` reproduces the serial counters bit for bit, so both
    // event-driven engines report them under the same names.
    let counters = match &eng {
        Eng::Serial { sim, .. } => Some(counter_pairs(sim.counters())),
        Eng::Par { sim, .. } => Some(counter_pairs(sim.counters())),
        Eng::Bit { .. } | Eng::Replay { .. } => None,
    };
    if let Some(pairs) = counters {
        counts.extend(pairs.map(|(k, v)| (k.to_string(), v)));
        counts.insert("digest".into(), digests.outputs);
    }
    match &eng {
        Eng::Serial { .. } => {}
        Eng::Par { sim, .. } => {
            counts.insert("messages_crossing".into(), sim.messages_crossing());
        }
        Eng::Bit { sim, base, .. } => {
            let s = sim.stats();
            counts.insert("sweeps".into(), s.sweeps - base.sweeps);
            counts.insert(
                "compiled_evals".into(),
                s.compiled_evals - base.compiled_evals,
            );
            counts.insert(
                "unconverged_vectors".into(),
                s.unconverged_vectors - base.unconverged_vectors,
            );
            counts.insert("digest_lane0".into(), digests.lane0);
            counts.insert("digest64".into(), digests.outputs);
        }
        Eng::Replay { sim, .. } => {
            counts.insert("e_ref".into(), sim.counters().events);
            counts.insert("digest_lane0".into(), digests.lane0);
        }
    }
    out.extend([
        ("window_s", num(window_s)),
        ("chunk_s", Value::Array(chunk_s)),
        ("chunk_work", Value::Array(chunk_work)),
        ("peak_rss_kb", int(peak_rss_kb()?)),
        ("counts", counts_to_json(&counts)),
    ]);

    // ---- traced pass: the layers' own totals, then stand-alone probes.
    if let Some(trace_out) = &args.trace_out {
        layers.insert(
            "netlist.components".into(),
            nl.num_simulated_components() as f64,
        );
        layers.insert("netlist.nets".into(), nl.num_nets() as f64);
        layers.insert(
            "netlist.memory_footprint_mb".into(),
            nl.memory_footprint() as f64 / (1024.0 * 1024.0),
        );
        if let Some(p) = &partition {
            layers.insert(
                "partition.multilevel.cut_nets".into(),
                cut_nets(&nl, p) as f64,
            );
            layers.insert("partition.multilevel.imbalance".into(), imbalance(p));
        }
        match &eng {
            Eng::Serial { sim, .. } => serial_layers(&sim.obs_report(), window_s, &mut layers),
            Eng::Par { sim, .. } => par_layers(sim, &sim.obs_report(), window_s, &mut layers),
            Eng::Bit { sim, base, .. } => bitpar_layers(&sim.stats(), base, window_s, &mut layers),
            Eng::Replay { .. } => {}
        }
        if let Some(pairs) = counters {
            for (k, v) in pairs {
                layers.insert(format!("sim.engine.{k}"), v as f64);
            }
            layers.insert(
                "sim.engine.ns_per_event".into(),
                ratio(window_s * 1e9, counts["events"] as f64),
            );
            layers.insert(
                "sim.engine.ns_per_tick".into(),
                ratio(window_s * 1e9, args.ticks as f64),
            );
        }
        drop(eng);

        let sp = rec.enter("probes");
        probes::run(
            &mut rec,
            &probes::Context {
                workload: w,
                netlist: &nl,
                spec: &spec,
                seed: args.seed,
                scale: args.scale,
                warm,
                ticks: args.ticks,
                evaluations: counts.get("evaluations").copied().unwrap_or(0),
            },
            &mut layers,
        )?;
        rec.exit(sp);
        rec.exit(job_span);

        rec.write(trace_out)?;
        out.push(("layers", floats_to_json(&layers)));
    }
    Ok(obj(out))
}

/// An engine between construction and stimulus build.
enum EngNoStim<'n> {
    Serial(Simulator<'n>),
    Par(ParSimulator<'n>),
    Bit(BitParSim<'n>),
}
