//! `cargo xtask pairs`: alternated runs of two prebuilt `lsim-benchmark`
//! binaries, and the verdict on each metric.
//!
//! ```text
//! cargo xtask pairs --parent BIN --change BIN --workload W [--workload W ...]
//!     [--seed S ...] [--pairs N] [--trace 0|1] [--metric NAME ...]
//!     [--parent-dir DIR] [--change-dir DIR] [--out FILE] [--setup-only]
//! ```
//!
//! Each pair runs one protocol run (`BIN --workload W --seed S --seconds
//! S --trace T`, one line of JSON last) of each side, the parent first in
//! even pairs and the change first in odd ones, so a drift of the host's
//! speed inside a pair falls on both sides alike. The window `S` is the
//! manifest's `run_seconds`, which the benchmark fixes. Seeds default to
//! the two blessed ones, `0x1987` and `0x2b`; `--pairs` to 10. Each side
//! runs in its own directory (`--parent-dir`, `--change-dir`; the current
//! one by default), where the benchmark finds its
//! `benchmark/expected.json` and writes its inputs.
//!
//! With `--setup-only` a pair is one `run W --seed S --input F
//! --setup-only` child of each side instead: set-up alone, on one input
//! the parent generates first, which is how a `setup_s` verdict gets the
//! many samples its spread needs.
//!
//! Per workload, seed and metric it prints both medians, the parent's
//! interquartile range, the pairs the change won, the gap between the
//! medians divided by that range (positive: the change is better) and a
//! verdict ([`verdict`]) against the metric's bound in the workspace's
//! `BENCHMARK.json`. Only a regression, or a run that failed
//! verification, makes the task fail. The end-to-end metrics are always
//! reported; each `--metric` adds a per-layer one (`--trace 1` makes the
//! runs print them). `--out` appends the invocation's settings, every
//! run and every summary to a JSON file as one more entry of its `sets`,
//! so several invocations (the protocol pairs, the set-up children, a
//! traced check) land in one record.

use serde_json::{Number, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// The version of the `--out` file's layout.
const SCHEMA_VERSION: u64 = 1;

/// Seconds since the Unix epoch.
fn unix_seconds() -> f64 {
    let now = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH);
    now.map_or(0.0, |d| d.as_secs_f64())
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// A metric the verdict is taken on: its name, direction and, for an
/// end-to-end metric, the relative bound a change may be worse by.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub better: Better,
    pub bound: Option<f64>,
}

/// What the pairs say about one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub parent_median: f64,
    pub change_median: f64,
    /// The parent's third quartile minus its first.
    pub parent_iqr: f64,
    /// Pairs in which the change read better than the parent.
    pub won: usize,
    pub pairs: usize,
    /// Every run of the change read better than every run of the
    /// parent.
    pub apart: bool,
    /// The change's median minus the parent's, signed so that a
    /// positive gap is an improvement.
    pub gap: f64,
}

/// The verdict on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better in at least nine pairs of ten, and the median gap wider
    /// than the parent's interquartile range.
    Gain,
    /// Neither a gain nor worse than the bound allows.
    Within,
    /// The parent's interquartile range is wider than the metric's
    /// bound, and some run of the change did not read better than every
    /// run of the parent: the runs spread too widely to tell a gain or a
    /// regression from noise.
    Unresolved,
    /// The change's median is worse than the parent's by more than the
    /// metric's bound.
    Regression,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Within => "within bound",
            Verdict::Unresolved => "unresolved",
            Verdict::Regression => "REGRESSION",
        }
    }
}

/// The `q`-quantile of `xs` by linear interpolation between the
/// closest ranks (`q` = 0.5 is the median). `NaN` on no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let at = q * (v.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

impl Summary {
    /// The summary of paired samples: `parent[i]` and `change[i]` ran
    /// in pair `i`.
    pub fn of(parent: &[f64], change: &[f64], better: Better) -> Summary {
        let sign = match better {
            Better::Higher => 1.0,
            Better::Lower => -1.0,
        };
        let (parent_median, change_median) = (quantile(parent, 0.5), quantile(change, 0.5));
        Summary {
            parent_median,
            change_median,
            parent_iqr: quantile(parent, 0.75) - quantile(parent, 0.25),
            won: parent
                .iter()
                .zip(change)
                .filter(|&(p, c)| sign * (c - p) > 0.0)
                .count(),
            pairs: parent.len().min(change.len()),
            apart: change
                .iter()
                .all(|c| parent.iter().all(|p| sign * (c - p) > 0.0)),
            gap: sign * (change_median - parent_median),
        }
    }

    /// The gap in units of the parent's interquartile range (infinite
    /// when the range is 0 and the gap is not).
    pub fn gap_over_iqr(&self) -> f64 {
        self.gap / self.parent_iqr
    }

    /// The change's median over the parent's.
    pub fn ratio(&self) -> f64 {
        self.change_median / self.parent_median
    }
}

/// The verdict on `s` under `bound`, the share of the parent's median by
/// which the change may be worse (`None`: no bound).
pub fn verdict(s: &Summary, bound: Option<f64>) -> Verdict {
    let median = s.parent_median.abs();
    let worse_share = -s.gap / median;
    let too_wide = bound.is_some_and(|b| s.parent_iqr / median > b);
    if too_wide && !s.apart {
        Verdict::Unresolved
    } else if bound.is_some_and(|b| worse_share > b) {
        Verdict::Regression
    } else if s.pairs > 0 && s.won * 10 >= s.pairs * 9 && s.gap > s.parent_iqr {
        Verdict::Gain
    } else {
        Verdict::Within
    }
}

/// What the verdicts read from the manifest (`BENCHMARK.json`).
struct Manifest {
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    run_seconds: u64,
}

fn read_manifest(path: &Path) -> Result<Manifest, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let metrics = |key: &str| -> Result<Vec<Metric>, String> {
        let list = doc.get(key).and_then(Value::as_array);
        list.ok_or(format!("manifest has no `{key}` list"))?
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(Value::as_str);
                let better = match m.get("better").and_then(Value::as_str) {
                    Some("higher") => Better::Higher,
                    Some("lower") => Better::Lower,
                    _ => return Err(format!("`{key}` entry without `better`")),
                };
                Ok(Metric {
                    name: name.ok_or(format!("`{key}` entry without `name`"))?.into(),
                    better,
                    bound: m.get("bound").and_then(Value::as_f64),
                })
            })
            .collect()
    };
    Ok(Manifest {
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
        run_seconds: (doc.get("run_seconds").and_then(Value::as_u64))
            .ok_or("manifest has no whole-number `run_seconds`")?,
    })
}

/// Parsed command line.
struct Options {
    bins: [PathBuf; 2],
    dirs: [PathBuf; 2],
    workloads: Vec<String>,
    seeds: Vec<String>,
    pairs: usize,
    trace: String,
    extra_metrics: Vec<String>,
    out: Option<PathBuf>,
    setup_only: bool,
}

const USAGE: &str =
    "usage: cargo xtask pairs --parent BIN --change BIN --workload W [--workload W ...]
    [--seed S ...] [--pairs N] [--trace 0|1] [--metric NAME ...]
    [--parent-dir DIR] [--change-dir DIR] [--out FILE] [--setup-only]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        bins: [PathBuf::new(), PathBuf::new()],
        dirs: [PathBuf::from("."), PathBuf::from(".")],
        workloads: Vec::new(),
        seeds: Vec::new(),
        pairs: 10,
        trace: "0".into(),
        extra_metrics: Vec::new(),
        out: None,
        setup_only: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            o.setup_only = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?.clone();
        match flag.as_str() {
            "--parent" => o.bins[0] = value.into(),
            "--change" => o.bins[1] = value.into(),
            "--parent-dir" => o.dirs[0] = value.into(),
            "--change-dir" => o.dirs[1] = value.into(),
            "--workload" => o.workloads.push(value),
            "--seed" => o.seeds.push(value),
            "--pairs" => {
                o.pairs =
                    (value.parse()).map_err(|_| format!("--pairs: `{value}` is not a number"))?;
            }
            "--trace" => o.trace = value,
            "--metric" => o.extra_metrics.push(value),
            "--out" => o.out = Some(value.into()),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if o.bins.iter().any(|b| b.as_os_str().is_empty()) || o.workloads.is_empty() {
        return Err("--parent, --change and one --workload at least are required".into());
    }
    if o.pairs == 0 {
        return Err("--pairs must be at least 1".into());
    }
    if o.seeds.is_empty() {
        o.seeds = vec!["0x1987".into(), "0x2b".into()];
    }
    // A relative binary is found from where the task was started, not
    // from the side's directory it runs in.
    for b in &mut o.bins {
        *b = std::path::absolute(&*b).map_err(|e| format!("{}: {e}", b.display()))?;
    }
    Ok(o)
}

/// Runs one child in `dir` and returns the JSON on its last line of
/// output.
fn child(bin: &Path, dir: &Path, args: &[String]) -> Result<Value, String> {
    let out = Command::new(bin)
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty());
    let last = last.ok_or(format!(
        "{} {}: printed nothing",
        bin.display(),
        args.join(" ")
    ))?;
    serde_json::from_str(last).map_err(|e| format!("{}: {e}: {last}", bin.display()))
}

/// The metrics one run reports, by name: a protocol run's `metrics`
/// object, or a set-up child's `setup_s`.
fn metrics_of(doc: &Value) -> BTreeMap<String, f64> {
    if let Some(m) = doc.get("metrics").and_then(Value::as_object) {
        m.iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect()
    } else {
        doc.get("setup_s")
            .and_then(Value::as_f64)
            .map(|s| ("setup_s".to_string(), s))
            .into_iter()
            .collect()
    }
}

/// Whether a run verified: a protocol run says so; a set-up child that
/// printed `setup_s` did its work.
fn verified(doc: &Value) -> bool {
    match doc.get("correct").and_then(Value::as_bool) {
        Some(correct) => correct && doc.get("failed").and_then(Value::as_u64) == Some(0),
        None => doc.get("setup_s").is_some(),
    }
}

fn obj(entries: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num(v: f64) -> Value {
    if v.is_finite() {
        Value::Number(Number::Float(v))
    } else {
        Value::Null
    }
}

fn text(v: impl Into<String>) -> Value {
    Value::String(v.into())
}

/// The sets an `--out` file already holds: none if it does not exist.
fn earlier_sets(path: &Path) -> Result<Vec<Value>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("schema_version").and_then(Value::as_u64) != Some(SCHEMA_VERSION) {
        return Err(format!(
            "{}: not schema version {SCHEMA_VERSION}",
            path.display()
        ));
    }
    let sets = doc.get("sets").and_then(Value::as_array);
    Ok(sets
        .ok_or(format!("{}: no `sets` list to append to", path.display()))?
        .clone())
}

/// `cargo xtask pairs`.
pub fn main(args: &[String], root: &Path) -> ExitCode {
    match run(args, root) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("xtask pairs: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Runs every pair, prints the verdicts and writes `--out`. Returns
/// whether no run failed verification and no metric regressed (an
/// unresolved metric does not count against it).
fn run(args: &[String], root: &Path) -> Result<bool, String> {
    let o = parse(args)?;
    let started = unix_seconds();
    let Manifest {
        end_to_end,
        per_layer,
        run_seconds,
    } = read_manifest(&root.join("BENCHMARK.json"))?;
    let mut metrics: Vec<Metric> = if o.setup_only {
        end_to_end
            .into_iter()
            .filter(|m| m.name == "setup_s")
            .collect()
    } else {
        end_to_end
    };
    for name in &o.extra_metrics {
        let m = per_layer.iter().find(|m| &m.name == name);
        metrics.push(
            m.cloned()
                .ok_or(format!("--metric: no per-layer metric `{name}`"))?,
        );
    }
    // Refuse an `--out` file that cannot be appended to before the
    // runs, not after them.
    let mut sets = match &o.out {
        Some(path) => earlier_sets(path)?,
        None => Vec::new(),
    };
    let seconds = run_seconds.to_string();
    let inputs = root.join("target").join("xtask-pairs");
    let mut runs = Vec::new();
    let mut summaries = Vec::new();
    let mut clean = true;
    println!(
        "{:<14} {:<7} {:<28} {:>13} {:>13} {:>7} {:>12} {:>6} {:>8}  verdict",
        "workload", "seed", "metric", "parent", "change", "ratio", "parent IQR", "won", "gap/IQR"
    );
    for w in &o.workloads {
        for seed in &o.seeds {
            let child_args: Vec<String> = if o.setup_only {
                let gen = ["gen", w, "--seed", seed, "--dir"].map(String::from);
                let mut gen = gen.to_vec();
                gen.push(inputs.display().to_string());
                let doc = child(&o.bins[0], &o.dirs[0], &gen)?;
                let file = doc.get("generated").and_then(Value::as_str);
                let file = file.ok_or("gen printed no `generated` path")?;
                ["run", w, "--seed", seed, "--input", file, "--setup-only"]
                    .map(String::from)
                    .to_vec()
            } else {
                let protocol = ["--workload", w, "--seed", seed, "--seconds", &seconds];
                let mut a = protocol.map(String::from).to_vec();
                a.extend(["--trace".into(), o.trace.clone()]);
                a
            };
            let mut samples: [Vec<BTreeMap<String, f64>>; 2] = [Vec::new(), Vec::new()];
            for pair in 0..o.pairs {
                let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
                for side in order {
                    let doc = child(&o.bins[side], &o.dirs[side], &child_args)?;
                    let ok = verified(&doc);
                    clean &= ok;
                    let m = metrics_of(&doc);
                    runs.push(obj([
                        ("workload", text(w.as_str())),
                        ("seed", text(seed.as_str())),
                        ("pair", Value::Number(Number::PosInt(pair as u64))),
                        ("side", text(["parent", "change"][side])),
                        ("verified", Value::Bool(ok)),
                        (
                            "metrics",
                            Value::Object(m.iter().map(|(k, &v)| (k.clone(), num(v))).collect()),
                        ),
                    ]));
                    samples[side].push(m);
                }
                eprintln!("xtask pairs: {w} {seed}: pair {} of {}", pair + 1, o.pairs);
            }
            if o.setup_only {
                // The generated input is tens of megabytes at 1M.
                let _ = std::fs::remove_dir_all(&inputs);
            }
            for m in &metrics {
                let series = |side: usize| -> Vec<f64> {
                    samples[side]
                        .iter()
                        .filter_map(|r| r.get(&m.name).copied())
                        .collect()
                };
                let (parent, change) = (series(0), series(1));
                if parent.is_empty() && change.is_empty() {
                    // A traced run prints its per-layer metrics only.
                    continue;
                }
                if parent.len() != o.pairs || change.len() != o.pairs {
                    eprintln!(
                        "xtask pairs: {w} {seed}: `{}` missing from some runs",
                        m.name
                    );
                    continue;
                }
                let s = Summary::of(&parent, &change, m.better);
                let v = verdict(&s, m.bound);
                clean &= v != Verdict::Regression;
                println!(
                    "{:<14} {:<7} {:<28} {:>13.6e} {:>13.6e} {:>7.3} {:>12.4e} {:>3}/{:<2} {:>8.2}  {}",
                    w,
                    seed,
                    m.name,
                    s.parent_median,
                    s.change_median,
                    s.ratio(),
                    s.parent_iqr,
                    s.won,
                    s.pairs,
                    s.gap_over_iqr(),
                    v.label()
                );
                summaries.push(obj([
                    ("workload", text(w.as_str())),
                    ("seed", text(seed.as_str())),
                    ("metric", text(m.name.as_str())),
                    ("parent_median", num(s.parent_median)),
                    ("change_median", num(s.change_median)),
                    ("ratio", num(s.ratio())),
                    ("parent_iqr", num(s.parent_iqr)),
                    ("won", Value::Number(Number::PosInt(s.won as u64))),
                    ("pairs", Value::Number(Number::PosInt(s.pairs as u64))),
                    ("gap_over_iqr", num(s.gap_over_iqr())),
                    ("bound", m.bound.map_or(Value::Null, num)),
                    ("verdict", text(v.label())),
                ]));
            }
        }
    }
    if let Some(path) = &o.out {
        let set = obj([
            (
                "workloads",
                Value::Array(o.workloads.iter().map(|w| text(w.as_str())).collect()),
            ),
            (
                "protocol",
                text(if o.setup_only {
                    "setup-only"
                } else {
                    "protocol"
                }),
            ),
            ("seconds", text(seconds)),
            ("trace", text(o.trace.as_str())),
            ("pairs", Value::Number(Number::PosInt(o.pairs as u64))),
            ("started_unix_s", num(started)),
            ("ended_unix_s", num(unix_seconds())),
            (
                "available_parallelism",
                Value::Number(Number::PosInt(
                    std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
                )),
            ),
            ("summaries", Value::Array(summaries)),
            ("runs", Value::Array(runs)),
        ]);
        sets.push(set);
        let doc = obj([
            (
                "schema_version",
                Value::Number(Number::PosInt(SCHEMA_VERSION)),
            ),
            ("sets", Value::Array(sets)),
        ]);
        let body = serde_json::to_string_pretty(&doc);
        let body = body.map_err(|e| e.to_string())?;
        std::fs::write(path, body + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("xtask pairs: appended to {}", path.display());
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.5), 2.5);
        assert_eq!(quantile(&xs, 0.25), 1.75);
        assert_eq!(quantile(&xs, 0.75), 3.25);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn a_higher_is_better_metric_counts_wins_and_signs_the_gap() {
        let parent = [100.0, 110.0, 90.0, 105.0, 95.0];
        let change = [150.0, 140.0, 160.0, 100.0, 155.0];
        let s = Summary::of(&parent, &change, Better::Higher);
        assert_eq!((s.parent_median, s.change_median), (100.0, 150.0));
        assert_eq!(s.parent_iqr, 10.0);
        assert_eq!((s.won, s.pairs), (4, 5));
        assert_eq!(s.gap, 50.0);
        assert_eq!(s.gap_over_iqr(), 5.0);
        assert_eq!(s.ratio(), 1.5);
        // Four of five is short of nine in ten.
        assert_eq!(verdict(&s, Some(0.25)), Verdict::Within);
    }

    #[test]
    fn a_gain_needs_nine_pairs_in_ten_and_a_gap_past_the_iqr() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        let mut change: Vec<f64> = parent.iter().map(|p| p * 1.5).collect();
        let s = Summary::of(&parent, &change, Better::Higher);
        assert_eq!(s.won, 10);
        assert_eq!(verdict(&s, Some(0.25)), Verdict::Gain);
        // One lost pair still wins nine.
        change[0] = 50.0;
        assert_eq!(
            verdict(&Summary::of(&parent, &change, Better::Higher), None),
            Verdict::Gain
        );
        // Two do not.
        change[1] = 50.0;
        assert_eq!(
            verdict(&Summary::of(&parent, &change, Better::Higher), None),
            Verdict::Within
        );
        // Every pair won, but by less than the parent's spread.
        let close: Vec<f64> = parent.iter().map(|p| p + 1.0).collect();
        let s = Summary::of(&parent, &close, Better::Higher);
        assert_eq!((s.won, s.gap, s.parent_iqr), (10, 1.0, 4.5));
        assert_eq!(verdict(&s, Some(0.25)), Verdict::Within);
    }

    #[test]
    fn a_lower_is_better_metric_regresses_past_its_bound() {
        let parent = [1.0, 1.0, 1.0, 1.0];
        let slower = [1.3, 1.3, 1.3, 1.3];
        let s = Summary::of(&parent, &slower, Better::Lower);
        assert!((s.gap + 0.3).abs() < 1e-12 && s.won == 0);
        assert_eq!(verdict(&s, Some(0.25)), Verdict::Regression);
        assert_eq!(verdict(&s, Some(0.35)), Verdict::Within);
        assert_eq!(verdict(&s, None), Verdict::Within);
        // Faster everywhere with a zero parent spread is a gain.
        let faster = [0.7, 0.7, 0.7, 0.7];
        let s = Summary::of(&parent, &faster, Better::Lower);
        assert!(s.gap_over_iqr().is_infinite());
        assert_eq!(verdict(&s, Some(0.25)), Verdict::Gain);
    }

    #[test]
    fn a_higher_is_better_metric_regresses_by_its_share_of_the_parent() {
        let parent = [200.0; 4];
        assert_eq!(
            verdict(
                &Summary::of(&parent, &[140.0; 4], Better::Higher),
                Some(0.25)
            ),
            Verdict::Regression
        );
        assert_eq!(
            verdict(
                &Summary::of(&parent, &[160.0; 4], Better::Higher),
                Some(0.25)
            ),
            Verdict::Within
        );
    }

    #[test]
    fn a_parent_spread_wider_than_the_bound_leaves_the_metric_unresolved() {
        // The parent's IQR is 30 % of its median, past a 25 % bound.
        let parent = [70.0, 85.0, 100.0, 115.0, 130.0];
        let s = Summary::of(&parent, &[140.0, 140.0, 60.0, 150.0, 150.0], Better::Lower);
        assert_eq!((s.parent_iqr, s.parent_median, s.won), (30.0, 100.0, 1));
        assert!(-s.gap / s.parent_median > 0.25);
        assert_eq!(verdict(&s, Some(0.25)), Verdict::Unresolved);
        // A bound as wide as the spread reads the same runs as a
        // regression, and no bound at all as no verdict against one.
        assert_eq!(verdict(&s, Some(0.3)), Verdict::Regression);
        assert_eq!(verdict(&s, None), Verdict::Within);
        // A change whose every run reads better than every run of the
        // parent is resolved even so ...
        let faster: Vec<f64> = parent.iter().map(|p| p * 0.5).collect();
        let s = Summary::of(&parent, &faster, Better::Lower);
        assert!(s.apart && s.won == 5);
        assert_eq!(verdict(&s, Some(0.25)), Verdict::Gain);
        // ... but winning every pair is not enough.
        let a_bit_faster: Vec<f64> = parent.iter().map(|p| p - 1.0).collect();
        let s = Summary::of(&parent, &a_bit_faster, Better::Lower);
        assert!(!s.apart && s.won == 5);
        assert_eq!(verdict(&s, Some(0.25)), Verdict::Unresolved);
    }

    #[test]
    fn the_manifest_gives_directions_and_bounds() {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
        let Manifest {
            end_to_end: e2e,
            per_layer: layers,
            run_seconds: seconds,
        } = read_manifest(&root.join("BENCHMARK.json")).unwrap();
        let events = e2e.iter().find(|m| m.name == "events_per_s").unwrap();
        assert_eq!((events.better, events.bound), (Better::Higher, Some(0.25)));
        assert!(e2e
            .iter()
            .any(|m| m.name == "setup_s" && m.better == Better::Lower));
        assert!(layers
            .iter()
            .any(|m| m.name == "sim.bitpar.compile_s" && m.bound.is_none()));
        assert_eq!(seconds, 3);
    }

    #[test]
    fn an_out_file_is_appended_to_only_at_its_schema_version() {
        let path = std::env::temp_dir().join(format!("xtask-pairs-{}.json", std::process::id()));
        assert_eq!(earlier_sets(&path), Ok(Vec::new()));
        std::fs::write(&path, r#"{"schema_version":1,"sets":[{"pairs":3}]}"#).unwrap();
        assert_eq!(earlier_sets(&path).unwrap().len(), 1);
        std::fs::write(&path, r#"{"sets":[]}"#).unwrap();
        assert!(earlier_sets(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn runs_are_read_from_either_kind_of_child() {
        let protocol: Value = serde_json::from_str(
            r#"{"attempted":2,"correct":true,"failed":0,"metrics":{"job_s":{"unit":"s","value":0.5}}}"#,
        )
        .unwrap();
        assert!(verified(&protocol));
        assert_eq!(metrics_of(&protocol)["job_s"], 0.5);
        let setup: Value = serde_json::from_str(r#"{"workload":"w","setup_s":0.05}"#).unwrap();
        assert!(verified(&setup));
        assert_eq!(metrics_of(&setup)["setup_s"], 0.05);
        let failed: Value =
            serde_json::from_str(r#"{"attempted":2,"correct":false,"failed":1,"metrics":{}}"#)
                .unwrap();
        assert!(!verified(&failed));
    }
}
