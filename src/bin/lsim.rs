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
//!   --seed N               stimulus RNG seed (default 1987)
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
//!   usual stimulus options
//! ```

use logicsim::netlist::analyze::{analyze, Severity};
use logicsim::netlist::text;
use logicsim::netlist::{Level, Netlist};
use logicsim::sim::stimulus::{run_with_stimulus, Stimulus};
use logicsim::sim::{BitParSim, SignalRole, SimConfig, Simulator, Stimulus64, StimulusSpec};
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

/// Parses a count that must be at least 1 (processors, pipeline depth,
/// bus width: the machine model asserts on zero).
fn positive(flag: &str, value: &str) -> Result<u32, String> {
    match value.parse() {
        Ok(0) => Err(format!("{flag} must be at least 1, got 0")),
        Ok(v) => Ok(v),
        Err(e) => Err(format!("{flag}: {e}")),
    }
}

/// Parses a time that must be finite and above zero (host time per
/// evaluation, message time: the machine model asserts on both).
fn positive_time(flag: &str, value: &str) -> Result<f64, String> {
    match value.parse::<f64>() {
        Ok(v) if v.is_finite() && v > 0.0 => Ok(v),
        Ok(v) => Err(format!("{flag} must be a finite time above 0, got {v}")),
        Err(e) => Err(format!("{flag}: {e}")),
    }
}

/// The tick the measurement window ends at, `--warmup + --until`.
fn end_tick(opts: &Options) -> Result<u64, String> {
    opts.warmup.checked_add(opts.until).ok_or_else(|| {
        format!(
            "--warmup {} + --until {} exceeds the 64-bit tick counter",
            opts.warmup, opts.until
        )
    })
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
        let mut need = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--until" => {
                opts.until = need("--until")?
                    .parse()
                    .map_err(|e| format!("--until: {e}"))?;
            }
            "--warmup" => {
                opts.warmup = need("--warmup")?
                    .parse()
                    .map_err(|e| format!("--warmup: {e}"))?;
            }
            "--seed" => {
                opts.seed = need("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--clock" => {
                let v = need("--clock")?;
                let (net, half) = v
                    .split_once(':')
                    .ok_or_else(|| format!("--clock expects NET:HALF, got `{v}`"))?;
                let half_period = half.parse().map_err(|e| format!("--clock: {e}"))?;
                opts.stimulus = std::mem::take(&mut opts.stimulus).with(
                    net,
                    SignalRole::Clock {
                        half_period,
                        phase: 0,
                    },
                );
            }
            "--random" => {
                let v = need("--random")?;
                let parts: Vec<&str> = v.split(':').collect();
                if parts.len() != 3 {
                    return Err(format!("--random expects NET:PERIOD:PROB, got `{v}`"));
                }
                let period = parts[1].parse().map_err(|e| format!("--random: {e}"))?;
                let toggle_prob = parts[2].parse().map_err(|e| format!("--random: {e}"))?;
                opts.stimulus = std::mem::take(&mut opts.stimulus).with(
                    parts[0],
                    SignalRole::Random {
                        period,
                        phase: 0,
                        toggle_prob,
                    },
                );
            }
            "--const" => {
                let v = need("--const")?;
                let (net, val) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--const expects NET=0|1, got `{v}`"))?;
                let level = match val {
                    "0" => Level::Zero,
                    "1" => Level::One,
                    other => return Err(format!("--const level must be 0 or 1, got `{other}`")),
                };
                opts.stimulus =
                    std::mem::take(&mut opts.stimulus).with(net, SignalRole::Const(level));
            }
            "--pulse" => {
                let v = need("--pulse")?;
                let (net, width) = v
                    .split_once(':')
                    .ok_or_else(|| format!("--pulse expects NET:WIDTH, got `{v}`"))?;
                let width = width.parse().map_err(|e| format!("--pulse: {e}"))?;
                opts.stimulus = std::mem::take(&mut opts.stimulus).with(
                    net,
                    SignalRole::Pulse {
                        active: Level::One,
                        width,
                    },
                );
            }
            "--vcd" => opts.vcd_path = Some(need("--vcd")?),
            "--out" => opts.out_path = Some(need("--out")?),
            "--backend" => {
                opts.backend = match need("--backend")?.as_str() {
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
                let v: usize = need("--lanes")?
                    .parse()
                    .map_err(|e| format!("--lanes: {e}"))?;
                if !(1..=logicsim::netlist::LANES).contains(&v) {
                    return Err(format!("--lanes must be 1..=64, got {v}"));
                }
                opts.lanes = v;
            }
            "--p" => {
                opts.machine_p = positive("--p", &need("--p")?)?;
                opts.trace_p = opts.machine_p as usize;
            }
            "--l" => opts.machine_l = positive("--l", &need("--l")?)?,
            "--w" => opts.machine_w = positive("--w", &need("--w")?)?,
            "--h" => opts.machine_h = positive_time("--h", &need("--h")?)?,
            "--tm" => opts.machine_tm = positive_time("--tm", &need("--tm")?)?,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(opts)
}

fn load(path: &str) -> Result<Netlist, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    text::parse(&source).map_err(|e| format!("{path}: {e}"))
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
    let mut stim = Stimulus64::new(&opts.stimulus, netlist, opts.seed, opts.lanes)
        .map_err(|e| format!("stimulus: {e}"))?;
    let mut sim = BitParSim::new(netlist, opts.lanes).map_err(|e| e.to_string())?;
    for v in 0..opts.until {
        stim.apply_with(v, |net, plane| sim.set_input_plane(net, plane));
        sim.settle_vector();
    }
    let st = sim.stats();
    println!("circuit     : {}", netlist.name());
    println!(
        "components  : {} ({} gates, {} switches)",
        netlist.num_simulated_components(),
        netlist.num_gates(),
        netlist.num_switches()
    );
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
                .map(|lane| match sim.level(o, lane) {
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
    let end = end_tick(opts)?;
    let mut stim = opts
        .stimulus
        .build(netlist, opts.seed)
        .map_err(|e| format!("stimulus: {e}"))?;
    let mut sim = Simulator::new(netlist).map_err(|e| e.to_string())?;
    if opts.warmup > 0 {
        run_with_stimulus(&mut sim, &mut stim, opts.warmup);
        sim.reset_measurements();
    }
    if let Some(path) = &opts.vcd_path {
        if netlist.outputs().is_empty() {
            return Err("--vcd needs `output` declarations in the netlist".into());
        }
        let mut vcd = logicsim::sim::VcdRecorder::of_outputs(netlist, "1ns");
        while sim.now() < end {
            let now = sim.now();
            stim.apply(&mut sim, now);
            sim.step();
            vcd.sample(&sim);
        }
        std::fs::write(path, vcd.finish()).map_err(|e| format!("write {path}: {e}"))?;
    } else {
        run_with_stimulus(&mut sim, &mut stim, end);
    }
    let c = sim.counters();
    println!("circuit     : {}", netlist.name());
    println!(
        "components  : {} ({} gates, {} switches)",
        netlist.num_simulated_components(),
        netlist.num_gates(),
        netlist.num_switches()
    );
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
    println!("coverage    : {:.1}%", sim.activity().coverage() * 100.0);
    if print_outputs {
        println!("outputs at t={}:", sim.now());
        for &o in netlist.outputs() {
            println!("  {} = {}", netlist.net_name(o), sim.level(o));
        }
    }
    Ok(())
}

fn run_machine(netlist: &Netlist, opts: &Options) -> Result<(), String> {
    use logicsim::core::BaseMachine;
    use logicsim::machine::{validate_against_model, MachineConfig, NetworkKind};
    use logicsim::partition::{Partitioner, RandomPartitioner};

    let end = end_tick(opts)?;
    let mut stim = opts
        .stimulus
        .build(netlist, opts.seed)
        .map_err(|e| format!("stimulus: {e}"))?;
    let mut sim = Simulator::with_config(
        netlist,
        SimConfig {
            collect_trace: true,
            ..SimConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    if opts.warmup > 0 {
        run_with_stimulus(&mut sim, &mut stim, opts.warmup);
        sim.reset_measurements();
    }
    run_with_stimulus(&mut sim, &mut stim, end);
    let trace = sim.take_trace();
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

fn bench_netlist(name: &str) -> Option<Netlist> {
    Some(bench_instance(name)?.netlist)
}

fn bench_source(name: &str) -> Option<String> {
    Some(text::serialize(&bench_netlist(name)?))
}

/// Loads a netlist file, or a built-in benchmark via `bench:NAME`
/// (`NAME` may carry a `@scale` suffix, e.g. `bench:stopwatch@100k`).
fn load_or_bench(path: &str) -> Result<Netlist, String> {
    match path.strip_prefix("bench:") {
        Some(name) => bench_netlist(name).ok_or_else(|| format!("unknown benchmark `{name}`")),
        None => load(path),
    }
}

/// [`load_or_bench`], also returning the benchmark's shipped stimulus
/// plan so `stats`/`sim`/`machine` on a `bench:` spec produce activity
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

/// `lsim trace`: run the parallel engine with phase timing armed, write
/// a Chrome `trace_event` JSON, and print the measured machine
/// parameters next to the paper's assumed ones.
fn run_trace(path: &str, opts: &Options) -> Result<(), String> {
    use logicsim::measure::{observed, MeasureOptions};
    use logicsim::sim::Phase;

    let workers = opts.trace_p;
    let run = match path.strip_prefix("bench:") {
        Some(name) => {
            let inst = bench_instance(name).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
            let mopts = MeasureOptions {
                warmup_periods: 8,
                window_ticks: opts.until.min(3_000),
                seed: opts.seed,
                collect_trace: false,
            };
            observed::observe_netlist(
                &inst.netlist,
                &inst.stimulus,
                inst.vector_period,
                workers,
                &mopts,
            )
        }
        None => {
            let netlist = load(path)?;
            // A plain netlist has no vector period; `--warmup` counts
            // raw ticks here.
            let mopts = MeasureOptions {
                warmup_periods: opts.warmup,
                window_ticks: opts.until,
                seed: opts.seed,
                collect_trace: false,
            };
            observed::observe_netlist(&netlist, &opts.stimulus, 1, workers, &mopts)
        }
    };
    let out = opts.out_path.as_deref().unwrap_or("trace.json");
    std::fs::write(out, run.report.chrome_trace()).map_err(|e| format!("write {out}: {e}"))?;
    let samples: usize = run.report.lanes.iter().map(|l| l.samples.len()).sum();
    println!(
        "wrote {out}: {samples} phase samples across {} lanes ({} dropped to ring wrap-around)",
        run.report.lanes.len(),
        run.report.dropped()
    );
    println!(
        "window      : {} executed ticks in {:.3} ms wall at P={}",
        run.params.executed_ticks,
        run.wall_ns as f64 / 1e6,
        run.workers
    );
    println!("phase            n    total(us)   mean(us)    p50    p95    p99");
    for phase in Phase::ALL {
        if let Some(s) = run.report.summary(phase) {
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
    if let Some(master) = run.report.lanes.last() {
        let serial_us = lane_us(master, Phase::Done);
        println!(
            "master-only : {serial_us:.1} us ({:.1}% of window)",
            100.0 * serial_us * 1e3 / run.wall_ns.max(1) as f64
        );
    }
    let per_lane: Vec<String> = run
        .report
        .lane_names
        .iter()
        .zip(&run.report.lanes)
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

    let (path, flags) = args
        .split_first()
        .ok_or_else(|| "missing netlist file (or bench:NAME)".to_string())?;
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
        let mut need = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--seed" => {
                seed = need("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--out" => out_path = Some(need("--out")?),
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
    let (path, flags) = args
        .split_first()
        .ok_or_else(|| "missing netlist file (or bench:NAME)".to_string())?;
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
    use logicsim::netlist::analyze::{analyze_seeded, AnalyzeConfig};

    let (path, flags) = args
        .split_first()
        .ok_or_else(|| "missing netlist file (or bench:NAME)".to_string())?;
    let (format, deny, rest) = report_flags(flags)?;
    let (netlist, default_stim) = load_with_stimulus(path)?;
    let opts = parse_options(&rest)?;
    let stimulus = if opts.stimulus.assignments.is_empty() {
        default_stim.unwrap_or_default()
    } else {
        opts.stimulus
    };
    let seeds = stimulus.activity_seeds(&netlist);
    let report = analyze_seeded(&netlist, &AnalyzeConfig::default(), Some(&seeds));
    emit_report(&report, &netlist, path, format, deny, "analyze")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => return usage(),
    };
    let result: Result<ExitCode, String> = (|| match cmd {
        "stats" | "sim" => {
            let (path, optargs) = rest
                .split_first()
                .ok_or_else(|| "missing netlist file (or bench:NAME)".to_string())?;
            let (netlist, default_stim) = load_with_stimulus(path)?;
            let mut opts = parse_options(optargs)?;
            if opts.stimulus.assignments.is_empty() {
                if let Some(stim) = default_stim {
                    opts.stimulus = stim;
                }
            }
            run(&netlist, &opts, cmd == "sim").map(|()| ExitCode::SUCCESS)
        }
        "machine" => {
            let (path, optargs) = rest
                .split_first()
                .ok_or_else(|| "missing netlist file (or bench:NAME)".to_string())?;
            let (netlist, default_stim) = load_with_stimulus(path)?;
            let mut opts = parse_options(optargs)?;
            if opts.stimulus.assignments.is_empty() {
                if let Some(stim) = default_stim {
                    opts.stimulus = stim;
                }
            }
            run_machine(&netlist, &opts).map(|()| ExitCode::SUCCESS)
        }
        "gen" => run_gen(rest),
        "lint" => run_lint(rest),
        "analyze" => run_analyze(rest),
        "opt" => run_opt(rest),
        "trace" => {
            let (path, optargs) = rest
                .split_first()
                .ok_or_else(|| "missing netlist file (or bench:NAME)".to_string())?;
            let opts = parse_options(optargs)?;
            run_trace(path, &opts).map(|()| ExitCode::SUCCESS)
        }
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
            let src = bench_source(name).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
            print!("{src}");
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
