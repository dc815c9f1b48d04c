//! `lsim` — a command-line gate/switch-level logic simulator, in the
//! spirit of the UNIX tool the paper's workload data was collected with.
//!
//! ```text
//! lsim stats   <netlist> [options]   measure workload statistics
//! lsim sim     <netlist> [options]   simulate and print output values
//! lsim machine <netlist> [options]   replay the measured workload on the
//!                                    modeled multiprocessor and compare
//!                                    against the paper's analytical model
//! lsim lint    <netlist> [options]   static netlist analysis (LS0001..)
//! lsim opt     <netlist> [options]   statically optimize the netlist and
//!                                    report the rewrites (LS0006..LS0009)
//! lsim trace   <netlist> [options]   run the parallel engine with phase
//!                                    timing armed; write a Chrome
//!                                    trace_event JSON and print measured
//!                                    machine parameters (tS/tD/tE/tM)
//! lsim dot     <netlist>             emit Graphviz
//! lsim bench   <name>                write a built-in benchmark circuit
//! lsim gen     <family@scale>        write a scaled benchmark (tiled to
//!                                    ≥scale components, e.g.
//!                                    stopwatch@100k, crossbar@1m)
//!
//! `stats`, `sim`, `machine`, `lint`, `analyze`, `opt`, and `trace` accept
//! `bench:NAME` in place of a file; `NAME` is a family slug with an
//! optional `@scale` suffix (`bench:stopwatch@100k`), and the
//! benchmark's shipped stimulus is used when no stimulus options are
//! given. `lint` prints findings (or a JSON report with `--json`) and
//! exits nonzero on error-level findings — or on warnings too with
//! `--deny warnings`.
//!
//! options:
//!   --until T              simulate T ticks (default 10000)
//!   --warmup T             discard the first T ticks from statistics
//!   --seed N               stimulus RNG seed (default 1987); `machine`
//!                          and `trace` also seed their random partition
//!                          with it
//!   --clock NET:HALF       drive NET as a clock
//!   --random NET:PERIOD:P  drive NET randomly (toggle probability P)
//!   --const NET=0|1        hold NET constant
//!   --pulse NET:WIDTH      drive NET high for WIDTH ticks, then low
//!   --vcd FILE             write output-net waveforms as VCD
//!   --backend event|bitpar pick the engine for stats/sim (default event)
//!   --lanes N              active lanes for `--backend bitpar` (1..=64,
//!                          default 64); lane i seeds its stimulus from
//!                          lane_seed(--seed, i)
//!
//! With `--backend bitpar`, `stats`/`sim` run the bit-parallel compiled
//! engine under the vector-synchronous quiescence protocol: `--until T`
//! counts applied vectors (not ticks), each settled before the next,
//! and `sim` prints each output as one level character per lane.
//! `--vcd` and `--warmup` are tick-based and therefore event-only.
//!
//! machine options (with defaults):
//!   --p N (8) --l N (5) --w N (1) --h X (100) --tm X (3)
//!
//! lint/analyze options:
//!   --json                 print the report as JSON (alias for --format json)
//!   --format text|json|sarif  report layout (sarif for code-scanning upload)
//!   --deny warnings        exit nonzero on warnings as well as errors
//!
//! `analyze` additionally runs the dataflow passes (static activity,
//! timing windows, X-reachability) seeded from the stimulus plan: a
//! benchmark's shipped spec, or explicit `--clock`/`--random`/
//! `--const`/`--pulse` flags.
//!
//! opt options:
//!   --report               print the optimization report as JSON
//!   --emit FILE            write the optimized netlist (text format)
//!
//! trace options:
//!   --p N                  worker threads (default 2)
//!   --out FILE             Chrome trace output path (default trace.json)
//!   accepts `bench:NAME` (default stimulus) or a netlist file with the
//!   usual stimulus options; `--warmup` and `--until` count ticks, as
//!   for `stats`
//! ```

use logicsim::job::{EngineSpec, Job, JobError, JobSpec};
use logicsim::netlist::analyze::{analyze, Severity};
use logicsim::netlist::text;
use logicsim::netlist::{Level, Netlist};
use logicsim::sim::{SignalRole, StimulusSpec};
use std::process::ExitCode;

/// The engine `--backend` selects for `stats`/`sim`.
#[derive(Clone, Copy, PartialEq)]
enum Backend {
    Event,
    BitPar,
}

struct Options {
    until: u64,
    warmup: u64,
    seed: u64,
    stimulus: StimulusSpec,
    vcd_path: Option<String>,
    out_path: Option<String>,
    trace_p: usize,
    backend: Backend,
    lanes: usize,
    machine_p: u32,
    machine_l: u32,
    machine_w: u32,
    machine_h: f64,
    machine_tm: f64,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: lsim <stats|sim|machine|dot|lint|analyze|opt|trace> <netlist-file|bench:NAME[@scale]> [options]\n\
         \x20      lsim bench <stopwatch|assoc_mem|priority_queue|rtp|crossbar>\n\
         \x20      lsim gen <family[@scale]> [--seed N] [--out FILE]   (e.g. stopwatch@100k)\n\
         \x20      lsim lint <netlist-file|bench:NAME> [--json] [--format text|json|sarif] [--deny warnings]\n\
         \x20      lsim analyze <netlist-file|bench:NAME> [--format text|json|sarif] [--deny warnings] [stimulus options]\n\
         \x20      lsim opt <netlist-file|bench:NAME> [--report] [--emit FILE]\n\
         \x20      lsim trace <netlist-file|bench:NAME> [--p N] [--out FILE]\n\
         options: --until T --warmup T --seed N --vcd FILE\n\
         \x20        --clock NET:HALF --random NET:PERIOD:PROB --const NET=0|1 --pulse NET:WIDTH\n\
         \x20        --backend event|bitpar --lanes N (64; bitpar runs --until T vectors)\n\
         machine options: --p N (8) --l N (5) --w N (1) --h X (100) --tm X (3)"
    );
    ExitCode::FAILURE
}

/// Parses the number a flag takes.
fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

/// Parses a count that must be at least 1 (processors, pipeline depth,
/// bus width: the machine model asserts on zero).
fn positive(flag: &str, value: &str) -> Result<u32, String> {
    match number(flag, value)? {
        0 => Err(format!("{flag} must be at least 1, got 0")),
        v => Ok(v),
    }
}

/// Parses a time that must be finite and above zero (host time per
/// evaluation, message time: the machine model asserts on both).
fn positive_time(flag: &str, value: &str) -> Result<f64, String> {
    match number::<f64>(flag, value)? {
        v if v.is_finite() && v > 0.0 => Ok(v),
        v => Err(format!("{flag} must be a finite time above 0, got {v}")),
    }
}

/// Parses the value of `--clock`, `--random`, `--const` or `--pulse`:
/// the net it names and the waveform to drive it with.
fn signal(flag: &str, v: &str) -> Result<(String, SignalRole), String> {
    let split = |sep, shape| {
        v.split_once(sep)
            .ok_or_else(|| format!("{flag} expects {shape}, got `{v}`"))
    };
    let (net, role) = match flag {
        "--clock" => {
            let (net, half) = split(':', "NET:HALF")?;
            let half_period = number(flag, half)?;
            (
                net,
                SignalRole::Clock {
                    half_period,
                    phase: 0,
                },
            )
        }
        "--random" => {
            let parts: Vec<&str> = v.split(':').collect();
            if parts.len() != 3 {
                return Err(format!("--random expects NET:PERIOD:PROB, got `{v}`"));
            }
            let (period, toggle_prob) = (number(flag, parts[1])?, number(flag, parts[2])?);
            let role = SignalRole::Random {
                period,
                phase: 0,
                toggle_prob,
            };
            (parts[0], role)
        }
        "--const" => {
            let (net, level) = split('=', "NET=0|1")?;
            let level = match level {
                "0" => Level::Zero,
                "1" => Level::One,
                other => return Err(format!("--const level must be 0 or 1, got `{other}`")),
            };
            (net, SignalRole::Const(level))
        }
        _ => {
            let (net, width) = split(':', "NET:WIDTH")?;
            let width = number(flag, width)?;
            let active = Level::One;
            (net, SignalRole::Pulse { active, width })
        }
    };
    Ok((net.to_string(), role))
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        until: 10_000,
        warmup: 0,
        seed: 1987,
        stimulus: StimulusSpec::new(),
        vcd_path: None,
        out_path: None,
        trace_p: 2,
        backend: Backend::Event,
        lanes: logicsim::netlist::LANES,
        machine_p: 8,
        machine_l: 5,
        machine_w: 1,
        machine_h: 100.0,
        machine_tm: 3.0,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag {
            "--until" => opts.until = number(flag, value()?)?,
            "--warmup" => opts.warmup = number(flag, value()?)?,
            "--seed" => opts.seed = number(flag, value()?)?,
            "--vcd" => opts.vcd_path = Some(value()?.clone()),
            "--out" => opts.out_path = Some(value()?.clone()),
            "--backend" => {
                opts.backend = match value()?.as_str() {
                    "event" => Backend::Event,
                    "bitpar" => Backend::BitPar,
                    other => {
                        return Err(format!(
                            "--backend expects `event` or `bitpar`, got `{other}`"
                        ))
                    }
                };
            }
            "--lanes" => {
                let v: usize = number(flag, value()?)?;
                if !(1..=logicsim::netlist::LANES).contains(&v) {
                    return Err(format!("--lanes must be 1..=64, got {v}"));
                }
                opts.lanes = v;
            }
            "--p" => {
                opts.machine_p = positive(flag, value()?)?;
                opts.trace_p = opts.machine_p as usize;
            }
            "--l" => opts.machine_l = positive(flag, value()?)?,
            "--w" => opts.machine_w = positive(flag, value()?)?,
            "--h" => opts.machine_h = positive_time(flag, value()?)?,
            "--tm" => opts.machine_tm = positive_time(flag, value()?)?,
            "--clock" | "--random" | "--const" | "--pulse" => {
                let (net, role) = signal(flag, value()?)?;
                opts.stimulus = std::mem::take(&mut opts.stimulus).with(net, role);
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(opts)
}

/// Splits a subcommand's arguments into the netlist (a file or
/// `bench:NAME`) and the flags after it.
fn netlist_arg(args: &[String]) -> Result<(&String, &[String]), String> {
    args.split_first()
        .ok_or_else(|| "missing netlist file (or bench:NAME)".to_string())
}

/// The first lines `stats` and `sim` print on every backend.
fn print_header(netlist: &Netlist) {
    println!("circuit     : {}", netlist.name());
    println!(
        "components  : {} ({} gates, {} switches)",
        netlist.num_simulated_components(),
        netlist.num_gates(),
        netlist.num_switches()
    );
}

fn load(path: &str) -> Result<Netlist, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    text::parse(&source).map_err(|e| format!("{path}: {e}"))
}

/// The job `--warmup`, `--until` and `--seed` describe, on the serial
/// engine.
fn job_spec(opts: &Options) -> JobSpec<'static> {
    JobSpec {
        warmup: opts.warmup,
        window: opts.until,
        seed: opts.seed,
        ..JobSpec::default()
    }
}

/// Starts `spec` on `netlist` under the options' stimulus.
fn start<'n>(netlist: &'n Netlist, opts: &Options, spec: &JobSpec<'_>) -> Result<Job<'n>, String> {
    Job::new(netlist, &opts.stimulus, spec).map_err(|e| match e {
        JobError::Window { warmup, window } => {
            format!("--warmup {warmup} + --until {window} exceeds the 64-bit tick counter")
        }
        e => e.to_string(),
    })
}

/// `stats`/`sim` on the bit-parallel backend: `--until` counts settled
/// vectors, lane `i` draws stimulus from `lane_seed(seed, i)`, and
/// outputs print as one level character per lane.
fn run_bitpar(netlist: &Netlist, opts: &Options, print_outputs: bool) -> Result<(), String> {
    if opts.vcd_path.is_some() {
        return Err("--vcd records tick waveforms; use `--backend event`".into());
    }
    if opts.warmup > 0 {
        return Err("--warmup counts ticks; use `--backend event`".into());
    }
    let spec = JobSpec {
        engine: EngineSpec::BitPar { lanes: opts.lanes },
        ..job_spec(opts)
    };
    let mut job = start(netlist, opts, &spec)?;
    let st = job.run().bitpar.expect("bit-parallel statistics");
    print_header(netlist);
    println!(
        "compiled    : {} gates + {} solver cells ({} switches, {} ranks)",
        st.compiled_gates, st.solver_cells, st.compiled_switches, st.ranks
    );
    println!("lanes       : {}", st.lanes);
    println!(
        "vectors     : {} ({} sweeps, {} unconverged)",
        st.vectors, st.sweeps, st.unconverged_vectors
    );
    // Ops actually run, gates and solver cells alike; an oblivious
    // sweep would run every compiled op once per vector.
    println!("op evals    : {}", st.compiled_evals);
    println!(
        "evals/vector: {:.1} of {} compiled ops",
        st.compiled_evals as f64 / st.vectors.max(1) as f64,
        st.compiled_gates + st.solver_cells
    );
    if print_outputs {
        println!("outputs after {} vectors (one level per lane):", st.vectors);
        for &o in netlist.outputs() {
            let levels: String = (0..opts.lanes)
                .map(|lane| match job.level(o, lane) {
                    Level::Zero => '0',
                    Level::One => '1',
                    Level::X => 'X',
                })
                .collect();
            println!("  {} = {levels}", netlist.net_name(o));
        }
    }
    Ok(())
}

fn run(netlist: &Netlist, opts: &Options, print_outputs: bool) -> Result<(), String> {
    if opts.backend == Backend::BitPar {
        return run_bitpar(netlist, opts, print_outputs);
    }
    let mut job = start(netlist, opts, &job_spec(opts))?;
    let end = opts.warmup + opts.until;
    let m = match &opts.vcd_path {
        None => job.run(),
        Some(path) => {
            if netlist.outputs().is_empty() {
                return Err("--vcd needs `output` declarations in the netlist".into());
            }
            let mut vcd = logicsim::sim::VcdRecorder::of_outputs(netlist, "1ns");
            let m = job.run_each(|_, _, job| {
                vcd.sample(job.simulator().expect("the event backend is serial"));
            });
            std::fs::write(path, vcd.finish()).map_err(|e| format!("write {path}: {e}"))?;
            m
        }
    };
    let c = &m.counters;
    print_header(netlist);
    println!(
        "ticks       : {} ({} busy, {} idle)",
        c.total_ticks(),
        c.busy_ticks,
        c.idle_ticks
    );
    println!("B/(B+I)     : {:.4}", c.busy_fraction());
    println!("events E    : {}", c.events);
    println!("M_inf       : {}", c.messages_inf);
    println!("N = E/B     : {:.1}", c.simultaneity());
    println!("F = M/E     : {:.2}", c.average_fanout());
    println!(
        "event list  : mean {:.2}, peak {}",
        c.mean_event_list_size(),
        c.event_list_peak
    );
    println!("coverage    : {:.1}%", m.coverage * 100.0);
    if print_outputs {
        println!("outputs at t={end}:");
        for &o in netlist.outputs() {
            println!("  {} = {}", netlist.net_name(o), job.level(o, 0));
        }
    }
    Ok(())
}

fn run_machine(netlist: &Netlist, opts: &Options) -> Result<(), String> {
    use logicsim::core::BaseMachine;
    use logicsim::machine::{validate_against_model, MachineConfig, NetworkKind};
    use logicsim::partition::{Partitioner, RandomPartitioner};

    let spec = JobSpec {
        collect_trace: true,
        ..job_spec(opts)
    };
    let trace = start(netlist, opts, &spec)?.run().trace;
    if trace.total_events() == 0 {
        return Err("no activity measured; add --clock/--random stimulus".into());
    }
    let config = MachineConfig::paper_design(
        opts.machine_p,
        opts.machine_l,
        NetworkKind::BusSet {
            width: opts.machine_w,
        },
        opts.machine_h,
        opts.machine_tm,
    );
    let partition = RandomPartitioner::new(opts.seed).partition(netlist, opts.machine_p);
    let v = validate_against_model(&config, &trace, &partition, &BaseMachine::vax_11_750());
    println!("machine     : {}", config.arch_class());
    println!("partition   : random (seed {})", opts.seed);
    println!(
        "workload    : B={} I={} E={} M_inf={}",
        trace.busy_ticks(),
        trace.idle_ticks(),
        trace.total_events(),
        trace.total_messages_inf()
    );
    println!("model R_P   : {:.0} syncs", v.model_runtime);
    println!("machine R_P : {:.0} syncs", v.machine_runtime);
    println!("model error : {:+.1}%", v.relative_error() * 100.0);
    println!(
        "speed-up    : {:.0}x over the VAX 11/750 ({} bound, beta {:.2})",
        v.machine_speedup,
        v.report.bottleneck(),
        v.beta
    );
    Ok(())
}

/// Builds a benchmark instance from a `family` or `family@scale` spec
/// (e.g. `stopwatch`, `crossbar@100k`): the scaled tiled corpus when a
/// target is given, the paper-sized default otherwise.
fn bench_instance(name: &str) -> Option<logicsim::circuits::BenchmarkInstance> {
    let (bench, scale) = logicsim::circuits::parse_spec(name)?;
    Some(match scale {
        Some(target) => bench.build_at(target),
        None => bench.build_default(),
    })
}

/// Loads a netlist file, or a built-in benchmark via `bench:NAME`
/// (`NAME` may carry a `@scale` suffix, e.g. `bench:stopwatch@100k`).
fn load_or_bench(path: &str) -> Result<Netlist, String> {
    Ok(load_with_stimulus(path)?.0)
}

/// [`load_or_bench`], also returning the benchmark's shipped stimulus
/// plan so `stats`/`sim`/`machine`/`trace` on a `bench:` spec produce activity
/// without hand-written `--clock`/`--random` flags (explicit stimulus
/// options still take precedence).
fn load_with_stimulus(path: &str) -> Result<(Netlist, Option<StimulusSpec>), String> {
    match path.strip_prefix("bench:") {
        Some(name) => {
            let inst = bench_instance(name).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
            Ok((inst.netlist, Some(inst.stimulus)))
        }
        None => Ok((load(path)?, None)),
    }
}

/// Loads the netlist and parses the options after it; a benchmark's
/// shipped stimulus plan stands in when no stimulus flag is given.
fn load_with_options(path: &str, flags: &[String]) -> Result<(Netlist, Options), String> {
    let (netlist, shipped) = load_with_stimulus(path)?;
    let mut opts = parse_options(flags)?;
    if opts.stimulus.assignments.is_empty() {
        opts.stimulus = shipped.unwrap_or_default();
    }
    Ok((netlist, opts))
}

/// `lsim trace`: run the parallel engine with phase timing armed, write
/// a Chrome `trace_event` JSON, and print the measured machine
/// parameters next to the paper's assumed ones.
fn run_trace(netlist: &Netlist, opts: &Options) -> Result<(), String> {
    use logicsim::partition::{Partitioner, RandomPartitioner};
    use logicsim::sim::Phase;

    let workers = opts.trace_p;
    let part = RandomPartitioner::new(opts.seed).partition(netlist, workers as u32);
    let spec = JobSpec {
        engine: EngineSpec::Par {
            workers,
            assignment: part.as_slice(),
        },
        observe: true,
        ..job_spec(opts)
    };
    let run = start(netlist, opts, &spec)?.run();
    let out = opts.out_path.as_deref().unwrap_or("trace.json");
    std::fs::write(out, run.obs.chrome_trace()).map_err(|e| format!("write {out}: {e}"))?;
    let samples: usize = run.obs.lanes.iter().map(|l| l.samples.len()).sum();
    println!(
        "wrote {out}: {samples} phase samples across {} lanes ({} dropped to ring wrap-around)",
        run.obs.lanes.len(),
        run.obs.dropped()
    );
    println!(
        "window      : {} executed ticks in {:.3} ms wall at P={}",
        run.params.executed_ticks,
        run.wall.as_secs_f64() * 1e3,
        workers
    );
    println!("partition   : random (seed {})", opts.seed);
    println!("phase            n    total(us)   mean(us)    p50    p95    p99");
    for phase in Phase::ALL {
        if let Some(s) = run.obs.summary(phase) {
            println!(
                "{:<10} {:>7} {:>12.1} {:>10.2} {:>6.1} {:>6.1} {:>6.1}",
                phase.name(),
                s.count,
                s.total as f64 / 1e3,
                s.mean / 1e3,
                s.p50 as f64 / 1e3,
                s.p95 as f64 / 1e3,
                s.p99 as f64 / 1e3,
            );
        }
    }
    // What only one thread can do: the master's between-phase
    // decisions (its lane holds no party's work).
    let lane_us = |lane: &logicsim::sim::LaneReport, phase: Phase| {
        lane.totals[phase.idx()].total_ns as f64 / 1e3
    };
    if let Some(master) = run.obs.lanes.last() {
        let serial_us = lane_us(master, Phase::Done);
        println!(
            "master-only : {serial_us:.1} us ({:.1}% of window)",
            100.0 * serial_us * 1e3 / (run.wall.as_nanos() as f64).max(1.0)
        );
    }
    let per_lane: Vec<String> = run
        .obs
        .lane_names
        .iter()
        .zip(&run.obs.lanes)
        .map(|(name, lane)| format!("{name} {:.1}", lane_us(lane, Phase::Exchange)))
        .collect();
    println!("exchange us : {}", per_lane.join(", "));
    let p = &run.params;
    println!("measured    : {p}");
    println!(
        "calibrated  : t_SYNC={:.2} us, tE={:.4} syncs, tM={:.4} syncs (paper assumed 4000 / 3)",
        p.t_sync_ns() / 1e3,
        p.calibrated_design().t_eval,
        p.calibrated_design().t_msg
    );
    let crossover = p.crossover_processors(1.0);
    if crossover.is_finite() {
        println!("crossover   : eval/comm balance at P* = {crossover:.1} (Eq. 16 with measured parameters)");
    } else {
        println!("crossover   : no message cost measured; evaluation-bound at any P");
    }
    Ok(())
}

/// `lsim opt`: run the static optimizer and report what it did.
/// `--report` prints the machine-readable JSON report; `--emit FILE`
/// writes the optimized netlist in the text format.
fn run_opt(args: &[String]) -> Result<ExitCode, String> {
    use logicsim::netlist::analyze::opt;

    let (path, flags) = netlist_arg(args)?;
    let mut report_json = false;
    let mut emit_path: Option<String> = None;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--report" => report_json = true,
            "--emit" => {
                emit_path = Some(
                    it.next()
                        .cloned()
                        .ok_or_else(|| "--emit needs a file path".to_string())?,
                );
            }
            other => return Err(format!("unknown opt option `{other}`")),
        }
    }
    let netlist = load_or_bench(path)?;
    let optimized = opt::optimize(&netlist);
    if report_json {
        println!(
            "{}",
            serde_json::to_string_pretty(&optimized.report.to_json(&netlist))
                .map_err(|e| format!("json: {e}"))?
        );
    } else {
        print!("{}", optimized.report.render(&netlist));
    }
    if let Some(out) = emit_path {
        std::fs::write(&out, text::serialize(&optimized.netlist))
            .map_err(|e| format!("write {out}: {e}"))?;
        eprintln!("wrote optimized netlist to {out}");
    }
    Ok(ExitCode::SUCCESS)
}

/// `lsim gen`: build a (scaled) benchmark instance and write it in the
/// text netlist format, with a build summary on stderr. `--seed`
/// varies the inter-tile wiring; `--out` writes to a file instead of
/// stdout.
fn run_gen(args: &[String]) -> Result<ExitCode, String> {
    use logicsim::circuits::{parse_spec, scaled, ScaledParams};

    let (spec, flags) = args
        .split_first()
        .ok_or_else(|| "missing benchmark spec (e.g. stopwatch@100k)".to_string())?;
    let mut seed = scaled::DEFAULT_SEED;
    let mut out_path: Option<String> = None;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => seed = number(flag, value()?)?,
            "--out" => out_path = Some(value()?.clone()),
            other => return Err(format!("unknown gen option `{other}`")),
        }
    }
    let (bench, scale) = parse_spec(spec).ok_or_else(|| format!("bad benchmark spec `{spec}`"))?;
    let start = std::time::Instant::now();
    let inst = match scale {
        Some(target) => scaled::build(&ScaledParams {
            base: bench,
            target_components: target,
            seed,
        }),
        None => bench.build_default(),
    };
    let built = start.elapsed();
    let source = text::serialize(&inst.netlist);
    eprintln!(
        "{}: {} components ({} gates, {} switches), {} nets, built in {:.1} ms, \
         digest {:016x}, ~{:.1} MiB in memory",
        inst.netlist.name(),
        inst.netlist.num_simulated_components(),
        inst.netlist.num_gates(),
        inst.netlist.num_switches(),
        inst.netlist.num_nets(),
        built.as_secs_f64() * 1e3,
        inst.netlist.structural_digest(),
        inst.netlist.memory_footprint() as f64 / (1024.0 * 1024.0),
    );
    match out_path {
        Some(path) => {
            std::fs::write(&path, source).map_err(|e| format!("write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => print!("{source}"),
    }
    Ok(ExitCode::SUCCESS)
}

/// Output layout for `lint`/`analyze` reports.
#[derive(Clone, Copy, PartialEq)]
enum ReportFormat {
    Text,
    Json,
    Sarif,
}

impl ReportFormat {
    fn parse(s: &str) -> Result<ReportFormat, String> {
        match s {
            "text" => Ok(ReportFormat::Text),
            "json" => Ok(ReportFormat::Json),
            "sarif" => Ok(ReportFormat::Sarif),
            other => Err(format!(
                "--format expects `text`, `json`, or `sarif`, got `{other}`"
            )),
        }
    }
}

/// Prints a report in the chosen format and returns the exit code for
/// the deny threshold. `artifact` names the analyzed input in SARIF.
fn emit_report(
    report: &logicsim::netlist::Report,
    netlist: &Netlist,
    artifact: &str,
    format: ReportFormat,
    deny: Severity,
    what: &str,
) -> Result<ExitCode, String> {
    match format {
        ReportFormat::Text => print!("{}", report.render(netlist)),
        ReportFormat::Json => println!(
            "{}",
            serde_json::to_string_pretty(&report.to_json(netlist))
                .map_err(|e| format!("json: {e}"))?
        ),
        ReportFormat::Sarif => println!(
            "{}",
            serde_json::to_string_pretty(&logicsim::sarif::to_sarif(report, netlist, artifact))
                .map_err(|e| format!("sarif: {e}"))?
        ),
    }
    let mut rules: Vec<_> = report.at_least(deny).map(|d| d.code).collect();
    let findings = rules.len();
    rules.sort_unstable();
    rules.dedup();
    Ok(if findings > 0 {
        // Stderr, so `--json`/`--format` consumers piping stdout still
        // see why the exit code is nonzero.
        eprintln!(
            "{what}: {} rule(s) failing at the deny level ({findings} finding(s))",
            rules.len()
        );
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Splits the report flags `lint` and `analyze` share — `--json`,
/// `--format F`, `--deny LEVEL` — from whatever else was given;
/// returns `(format, deny, rest)` with `rest` in argument order.
fn report_flags(flags: &[String]) -> Result<(ReportFormat, Severity, Vec<String>), String> {
    let mut format = ReportFormat::Text;
    let mut deny = Severity::Error;
    let mut rest: Vec<String> = Vec::new();
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--json" => format = ReportFormat::Json,
            "--format" => {
                format = ReportFormat::parse(
                    it.next()
                        .map(String::as_str)
                        .ok_or_else(|| "--format needs a value".to_string())?,
                )?;
            }
            "--deny" => match it.next().map(String::as_str) {
                Some("warnings") => deny = Severity::Warning,
                Some("errors") => deny = Severity::Error,
                other => {
                    return Err(format!(
                        "--deny expects `warnings` or `errors`, got `{}`",
                        other.unwrap_or("nothing")
                    ))
                }
            },
            other => rest.push(other.to_string()),
        }
    }
    Ok((format, deny, rest))
}

/// `lsim lint`: run the static analyses and report. Exits nonzero when
/// any finding reaches `deny` (errors always; warnings too with
/// `--deny warnings`).
fn run_lint(args: &[String]) -> Result<ExitCode, String> {
    let (path, flags) = netlist_arg(args)?;
    let (format, deny, rest) = report_flags(flags)?;
    if let Some(other) = rest.first() {
        return Err(format!("unknown lint option `{other}`"));
    }
    let netlist = load_or_bench(path)?;
    let report = analyze(&netlist);
    emit_report(&report, &netlist, path, format, deny, "lint")
}

/// `lsim analyze`: the full static analysis including the dataflow
/// passes, seeded from the stimulus plan (a benchmark's shipped spec,
/// or `--clock`/`--random`/... flags) so activity and timing facts
/// reflect the actual drive rather than worst-case defaults.
fn run_analyze(args: &[String]) -> Result<ExitCode, String> {
    use logicsim::netlist::analyze::analyze_seeded;

    let (path, flags) = netlist_arg(args)?;
    let (format, deny, rest) = report_flags(flags)?;
    let (netlist, opts) = load_with_options(path, &rest)?;
    let seeds = opts.stimulus.activity_seeds(&netlist);
    let report = analyze_seeded(&netlist, Some(&seeds));
    emit_report(&report, &netlist, path, format, deny, "analyze")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => return usage(),
    };
    let result: Result<ExitCode, String> = (|| match cmd {
        "stats" | "sim" | "machine" | "trace" => {
            let (path, optargs) = netlist_arg(rest)?;
            let (netlist, opts) = load_with_options(path, optargs)?;
            match cmd {
                "machine" => run_machine(&netlist, &opts),
                "trace" => run_trace(&netlist, &opts),
                _ => run(&netlist, &opts, cmd == "sim"),
            }
            .map(|()| ExitCode::SUCCESS)
        }
        "gen" => run_gen(rest),
        "lint" => run_lint(rest),
        "analyze" => run_analyze(rest),
        "opt" => run_opt(rest),
        "dot" => {
            let path = rest
                .first()
                .ok_or_else(|| "missing netlist file".to_string())?;
            let netlist = load(path)?;
            print!("{}", logicsim::netlist::dot::to_dot(&netlist));
            Ok(ExitCode::SUCCESS)
        }
        "bench" => {
            let name = rest
                .first()
                .ok_or_else(|| "missing benchmark name".to_string())?;
            let inst = bench_instance(name).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
            print!("{}", text::serialize(&inst.netlist));
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(format!("unknown command `{cmd}`")),
    })();
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("lsim: {e}");
            usage()
        }
    }
}
