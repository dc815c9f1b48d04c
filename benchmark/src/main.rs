//! `lsim-benchmark`: the repo's benchmark.
//!
//! ```text
//! lsim-benchmark --workload W --seed N --seconds S --trace 0|1   one run, one line of JSON (BENCHMARK.json's protocol)
//! lsim-benchmark all [--seed N] [--only W] [--repeats R] [--quick] [--out FILE]
//! lsim-benchmark selfcheck [--seed N] [--only W] [--repeats R] [--quick]
//! lsim-benchmark bless [--only W]
//! lsim-benchmark manifest                                        BENCHMARK.json from the registry
//! ```
//!
//! `gen` and `run` are the children the parent spawns, one at a time.
//! See `README.md`.

mod expected;
mod harness;
mod job;
mod json;
mod metrics;
mod probes;
mod report;
mod trace;
mod workloads;

use harness::{Harness, Measured, Plan};
use job::{InputFiles, JobArgs, Mode};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Engine, Sizing, Workload, BLESSED_SEEDS, WORKLOADS};

const USAGE: &str = "usage:
  lsim-benchmark --workload W --seed N --seconds S --trace 0|1
  lsim-benchmark all [--seed N] [--only W] [--repeats R] [--quick] [--out FILE]
  lsim-benchmark selfcheck [--seed N] [--only W] [--repeats R] [--quick]
  lsim-benchmark bless [--only W]
  lsim-benchmark manifest
workloads: eval-serial solver-serial eval-par2 sync-par2 solver-bitpar scale-1m
seeds are decimal or 0x-hex; blessed seeds are 0x1987 (default) and 0x2b";

/// Flags that take no value.
const SWITCHES: [&str; 3] = ["--quick", "--reference", "--setup-only"];

/// Parsed command line: positionals, `--key value` options, switches.
struct Args {
    positional: Vec<String>,
    options: BTreeMap<String, String>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            positional: Vec::new(),
            options: BTreeMap::new(),
        };
        let mut raw = raw;
        while let Some(a) = raw.next() {
            if SWITCHES.contains(&a.as_str()) {
                args.options.insert(a, String::new());
            } else if a.starts_with("--") {
                let v = raw.next().ok_or_else(|| format!("{a} needs a value"))?;
                args.options.insert(a, v);
            } else {
                args.positional.push(a);
            }
        }
        Ok(args)
    }

    fn has(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    fn required(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing {key}"))
    }

    /// Rejects options the subcommand does not know.
    fn allow(&self, known: &[&str]) -> Result<(), String> {
        match self.options.keys().find(|k| !known.contains(&k.as_str())) {
            Some(k) => Err(format!("unknown option {k}")),
            None => Ok(()),
        }
    }

    fn number<T: TryFrom<u64>>(&self, key: &str, default: u64) -> Result<T, String> {
        let v = match self.get(key) {
            None => default,
            Some(s) => parse_u64(s).ok_or_else(|| format!("{key}: `{s}` is not a whole number"))?,
        };
        T::try_from(v).map_err(|_| format!("{key}: {v} is out of range"))
    }

    fn seed(&self) -> Result<u64, String> {
        self.number("--seed", BLESSED_SEEDS[0])
    }

    fn sizing(&self) -> Sizing {
        if self.has("--quick") {
            Sizing::QUICK
        } else {
            Sizing::FULL
        }
    }

    /// The workloads `--only` selects, or all six.
    fn selected(&self) -> Result<Vec<&'static Workload>, String> {
        match self.get("--only") {
            None => Ok(WORKLOADS.iter().collect()),
            Some(name) => Ok(vec![workload(name)?]),
        }
    }
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn workload(name: &str) -> Result<&'static Workload, String> {
    workloads::find(name).ok_or_else(|| format!("unknown workload `{name}`"))
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("lsim-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch() -> Result<ExitCode, String> {
    let args = Args::parse(std::env::args().skip(1))?;
    match args.positional.first().map(String::as_str) {
        None if args.has("--workload") => protocol(&args),
        Some("all") => all(&args),
        Some("selfcheck") => selfcheck(&args),
        Some("bless") => bless(&args),
        Some("manifest") => {
            let body = serde_json::to_string_pretty(&report::manifest());
            println!("{}", body.map_err(|e| e.to_string())?);
            Ok(ExitCode::SUCCESS)
        }
        Some("gen") => child_gen(&args),
        Some("run") => child_run(&args),
        _ => Err(USAGE.to_string()),
    }
}

// ------------------------------------------------------------ children

fn child_gen(args: &Args) -> Result<ExitCode, String> {
    args.allow(&["--seed", "--scale", "--dir"])?;
    let w = workload(args.positional.get(1).ok_or(USAGE)?)?;
    let scale: usize = args.number("--scale", w.scale as u64)?;
    let seed = args.seed()?;
    let files = InputFiles::locate(&PathBuf::from(args.required("--dir")?), w, scale, seed);
    job::generate(w, scale, seed, &files)?;
    print_line(&json::obj([(
        "generated",
        json::text(files.netlist.display().to_string()),
    )]))?;
    Ok(ExitCode::SUCCESS)
}

fn child_run(args: &Args) -> Result<ExitCode, String> {
    args.allow(&[
        "--seed",
        "--input",
        "--scale",
        "--ticks",
        "--trace-out",
        "--reference",
        "--setup-only",
    ])?;
    let w = workload(args.positional.get(1).ok_or(USAGE)?)?;
    let mode = match (args.has("--reference"), args.has("--setup-only")) {
        (true, false) => Mode::Reference,
        (false, true) => Mode::SetupOnly,
        (false, false) => Mode::Job,
        (true, true) => return Err("--reference and --setup-only exclude each other".into()),
    };
    let out = job::run(&JobArgs {
        workload: w,
        seed: args.seed()?,
        input: PathBuf::from(args.required("--input")?),
        scale: args.number("--scale", w.scale as u64)?,
        ticks: args.number("--ticks", w.ticks)?,
        mode,
        trace_out: args.get("--trace-out").map(PathBuf::from),
    })?;
    print_line(&out)?;
    Ok(ExitCode::SUCCESS)
}

/// Prints a value as one line of compact JSON.
fn print_line(v: &json::Value) -> Result<(), String> {
    println!("{}", serde_json::to_string(v).map_err(|e| e.to_string())?);
    Ok(())
}

// ------------------------------------------------------------- parents

/// One run of BENCHMARK.json's protocol: generate the input from the
/// seed, measure, verify, print one line of JSON last.
fn protocol(args: &Args) -> Result<ExitCode, String> {
    args.allow(&["--workload", "--seed", "--seconds", "--trace"])?;
    let w = workload(args.required("--workload")?)?;
    let seconds: u64 = args.number("--seconds", workloads::PROTOCOL_SECONDS)?;
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds: {seconds} is outside 1..=60"));
    }
    let trace = match args.required("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: `{other}` is neither 0 nor 1")),
    };
    if w.engine == Engine::Par2 && host_cores() < 2 {
        eprintln!(
            "lsim-benchmark: warning: {} runs P=2 workers on a 1-core host; its times mean nothing",
            w.name
        );
    }
    let h = Harness::new()?;
    // Untraced: two jobs and one more set-up, every metric the median
    // of its samples (about 70 s for the six workloads; a driver makes
    // some 130 runs inside an hour, on a host that is at times half as
    // fast). Traced: one untraced job for the overhead ratio, then the
    // traced pass.
    let plan = Plan {
        seed: args.seed()?,
        sizing: Sizing {
            quick: false,
            seconds,
        },
        repeats: if trace { 1 } else { 2 },
        extra_setups: usize::from(!trace),
        traced: trace,
    };
    let (_, generated) = h.ensure_input(w, &plan)?;
    let measured = h.measure(w, &plan);
    if generated {
        // A driver passes a fresh seed per run; keep the checkout small.
        h.remove_input(w, &plan);
    }
    let measured = measured?;
    eprintln!(
        "lsim-benchmark: {} seed {:#x}: checked against {}",
        w.name, plan.seed, measured.expected_source
    );
    print_line(&report::protocol_line(&measured, trace)?)?;
    Ok(ExitCode::SUCCESS)
}

/// Runs one full set: every selected workload, `repeats` untraced jobs
/// and one traced pass each.
fn run_set(
    h: &Harness,
    selected: &[&'static Workload],
    seed: u64,
    sizing: Sizing,
    repeats: usize,
) -> Result<Vec<Measured>, String> {
    let plan = Plan {
        seed,
        sizing,
        repeats,
        extra_setups: 0,
        traced: true,
    };
    selected
        .iter()
        .map(|w| {
            eprintln!("lsim-benchmark: running {} ...", w.name);
            h.measure(w, &plan)
        })
        .collect()
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// The `par_study` rule: no parallel timing on a host with one core.
fn refuse_par_on_one_core(selected: &[&'static Workload]) -> Option<ExitCode> {
    let par = selected.iter().any(|w| w.engine == Engine::Par2);
    (par && host_cores() < 2).then(|| {
        eprintln!("lsim-benchmark: the P=2 workloads need 2 cores; this host has 1");
        ExitCode::from(2)
    })
}

fn all(args: &Args) -> Result<ExitCode, String> {
    args.allow(&["--seed", "--only", "--repeats", "--quick", "--out"])?;
    let selected = args.selected()?;
    if let Some(code) = refuse_par_on_one_core(&selected) {
        return Ok(code);
    }
    let h = Harness::new()?;
    let (seed, sizing, repeats) = (args.seed()?, args.sizing(), args.number("--repeats", 5)?);
    let started = Instant::now();
    let set = run_set(&h, &selected, seed, sizing, repeats)?;
    let meta = report::Meta {
        host_cores: host_cores(),
        git_commit: git_commit(),
        seed,
        sizing,
        repeats,
        total_s: started.elapsed().as_secs_f64(),
    };
    report::print_report(&set, &meta);
    let out = args
        .get("--out")
        .map_or_else(|| h.out_dir().join("report.json"), PathBuf::from);
    let mut body = serde_json::to_string_pretty(&report::report_json(&set, &meta))
        .map_err(|e| e.to_string())?;
    body.push('\n');
    std::fs::write(&out, body).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("report written to {}", out.display());
    let failed: u64 = set.iter().map(|m| m.failed).sum();
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("lsim-benchmark: {failed} runs failed verification");
        ExitCode::FAILURE
    })
}

fn selfcheck(args: &Args) -> Result<ExitCode, String> {
    args.allow(&["--seed", "--only", "--repeats", "--quick"])?;
    let selected = args.selected()?;
    if let Some(code) = refuse_par_on_one_core(&selected) {
        return Ok(code);
    }
    let h = Harness::new()?;
    let (seed, sizing, repeats) = (args.seed()?, args.sizing(), args.number("--repeats", 5)?);
    eprintln!("lsim-benchmark: selfcheck set A");
    let a = run_set(&h, &selected, seed, sizing, repeats)?;
    eprintln!("lsim-benchmark: selfcheck set B");
    let b = run_set(&h, &selected, seed, sizing, repeats)?;
    println!("selfcheck: set B against set A (positive = worse)");
    let violations = report::compare_sets(&a, &b);
    for m in a.iter().chain(&b) {
        for warning in report::regime_warnings(m) {
            println!("   warning: {}: {warning}", m.workload.name);
        }
    }
    if violations.is_empty() {
        println!("selfcheck: ok");
        Ok(ExitCode::SUCCESS)
    } else {
        for v in &violations {
            println!("selfcheck: {v}");
        }
        Ok(ExitCode::FAILURE)
    }
}

/// Re-derives `expected.json` for both blessed seeds, full and quick
/// sizing, from the serial `Simulator`; the bit-parallel entries also
/// pin the engine's own 64-lane digest, after checking that its lane 0
/// equals the serial replay.
fn bless(args: &Args) -> Result<ExitCode, String> {
    args.allow(&["--only"])?;
    let selected = args.selected()?;
    let mut h = Harness::new()?;
    for sizing in [Sizing::FULL, Sizing::QUICK] {
        for seed in BLESSED_SEEDS {
            for &w in &selected {
                let plan = Plan {
                    seed,
                    sizing,
                    repeats: 1,
                    extra_setups: 0,
                    traced: false,
                };
                let (files, _) = h.ensure_input(w, &plan)?;
                let mut entry = h.reference(w, &plan, &files)?;
                if w.engine == Engine::BitPar {
                    // Not yet in `expected`, so `measure` checks the job
                    // against this very reference.
                    h.expected.set(w, sizing, seed, entry.clone());
                    let m = h.measure(w, &plan)?;
                    let sample = m.samples.first().filter(|_| m.failed == 0).ok_or_else(|| {
                        format!("{}: lane 0 does not reproduce the serial replay", w.name)
                    })?;
                    entry.insert("digest64".into(), sample.counts["digest64"]);
                }
                println!("blessed {}", expected::Expected::key(w, sizing, seed));
                h.expected.set(w, sizing, seed, entry);
            }
        }
    }
    h.expected.save(&h.bench_dir.join("expected.json"))?;
    Ok(ExitCode::SUCCESS)
}
