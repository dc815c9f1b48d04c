//! Folding measured workloads into what gets printed: the one-line
//! result of the one-run protocol, the report of `all`, the regime
//! warnings, and the set-against-set comparison of `selfcheck`.

use crate::harness::{max, median, min, spread, Measured};
use crate::json::{counts_to_json, floats_to_json, int, num, obj, text, Value};
use crate::metrics::{self, EndToEnd, END_TO_END, PER_LAYER, VERIFY_FAIL_SHARE};
use crate::workloads::{Sizing, PROTOCOL_SECONDS, WORKLOADS};
use std::collections::BTreeMap;

/// `{"value": v, "unit": u}`.
fn metric_value(value: f64, unit: &str) -> Value {
    obj([("value", num(value)), ("unit", text(unit))])
}

/// The last line of the one-run protocol: with `trace` every per-layer
/// metric (0 where the workload does not exercise the layer), otherwise
/// every end-to-end metric as the median of the run's samples.
pub fn protocol_line(m: &Measured, trace: bool) -> Result<Value, String> {
    let metrics: BTreeMap<String, Value> = if trace {
        let layers = m
            .layers
            .as_ref()
            .ok_or("the traced pass did not complete")?;
        PER_LAYER
            .iter()
            .map(|p| {
                let v = layers.get(p.name).copied().unwrap_or(0.0);
                (p.name.to_string(), metric_value(v, p.unit))
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|e| {
                let samples = m.samples_of(e.name);
                if samples.is_empty() {
                    return Err(format!("no sample of {}", e.name));
                }
                Ok((e.name.to_string(), metric_value(median(&samples), e.unit)))
            })
            .collect::<Result<_, String>>()?
    };
    Ok(obj([
        ("correct", Value::Bool(m.failed == 0)),
        ("attempted", int(m.attempted)),
        ("failed", int(m.failed)),
        ("metrics", Value::Object(metrics)),
    ]))
}

/// Where the traced pass says a workload has left the regime it was
/// chosen for. Warnings, not failures: the benchmark still measures,
/// but the workload table's "why" no longer holds.
pub fn regime_warnings(m: &Measured) -> Vec<String> {
    let Some(layers) = &m.layers else {
        return Vec::new();
    };
    let layer = |k: &str| layers.get(k).copied().unwrap_or(0.0);
    let window = m.traced_window_s.unwrap_or(f64::NAN);
    let mut warnings = Vec::new();
    match m.workload.name {
        "solver-serial" => {
            let share = layer("sim.engine.resolve_s") / window;
            if share < 0.6 {
                warnings.push(format!("resolve_s is {share:.2} of the window, below 0.6"));
            }
        }
        "eval-serial" => {
            let eval = layer("sim.engine.eval_s");
            for other in ["apply", "resolve", "exchange", "done"] {
                if layer(&format!("sim.engine.{other}_s")) > eval {
                    warnings.push(format!("{other}_s exceeds eval_s"));
                }
            }
        }
        "sync-par2" => {
            let share = layer("sim.par_engine.barrier_share");
            if share < 0.3 {
                warnings.push(format!("barrier_share is {share:.2}, below 0.3"));
            }
        }
        "scale-1m" => {
            let share =
                median(&m.samples_of(metrics::SETUP_S)) / median(&m.samples_of(metrics::JOB_S));
            if share < 0.25 {
                warnings.push(format!("setup_s is {share:.2} of job_s, below 0.25"));
            }
        }
        _ => {}
    }
    warnings
}

fn stats_json(samples: &[f64], unit: &str) -> Value {
    obj([
        ("unit", text(unit)),
        ("median", num(median(samples))),
        ("min", num(min(samples))),
        ("max", num(max(samples))),
        ("spread", num(spread(samples))),
        (
            "samples",
            Value::Array(samples.iter().map(|&s| num(s)).collect()),
        ),
    ])
}

/// Facts about the run that are not measurements.
pub struct Meta {
    /// `available_parallelism()`.
    pub host_cores: usize,
    /// `git rev-parse HEAD`, or `unknown`.
    pub git_commit: String,
    /// The seed.
    pub seed: u64,
    /// Input size and window length.
    pub sizing: Sizing,
    /// Untraced jobs per workload.
    pub repeats: usize,
    /// Wall of the whole set.
    pub total_s: f64,
}

/// The report of `all` as one JSON document.
pub fn report_json(set: &[Measured], meta: &Meta) -> Value {
    let workloads = set.iter().map(|m| {
        let w = m.workload;
        let end_to_end = END_TO_END
            .iter()
            .map(|e| (e.name, stats_json(&m.samples_of(e.name), e.unit)));
        let windows: Vec<f64> = m.samples.iter().map(|s| s.window_s).collect();
        let steady: Vec<f64> = m.samples.iter().map(|s| s.steady_window_s).collect();
        let mut fields = vec![
            ("why", text(w.why)),
            ("engine", text(w.engine.name())),
            (
                "input",
                text(format!("{}@{}", w.family.slug(), meta.sizing.scale(w))),
            ),
            ("window_ticks", int(m.ticks)),
            ("expected", text(m.expected_source)),
            ("attempted", int(m.attempted)),
            ("failed", int(m.failed)),
            (VERIFY_FAIL_SHARE, num(m.verify_fail_share())),
            ("end_to_end", obj(end_to_end)),
            ("window_s", stats_json(&windows, "s")),
            ("steady_window_s", stats_json(&steady, "s")),
            (
                "warnings",
                Value::Array(regime_warnings(m).into_iter().map(text).collect()),
            ),
        ];
        if let Some(first) = m.samples.first() {
            fields.push(("counts", counts_to_json(&first.counts)));
        }
        if let (Some(layers), Some(window)) = (&m.layers, m.traced_window_s) {
            fields.push(("per_layer", floats_to_json(layers)));
            fields.push(("traced_window_s", num(window)));
        }
        (w.name, obj(fields))
    });
    obj([
        ("schema", int(1)),
        ("host_cores", int(meta.host_cores as u64)),
        ("git_commit", text(meta.git_commit.clone())),
        ("seed", text(format!("{:#x}", meta.seed))),
        ("sizing", text(meta.sizing.label())),
        ("repeats", int(meta.repeats as u64)),
        ("total_s", num(meta.total_s)),
        ("workloads", obj(workloads)),
    ])
}

/// Prints every metric of every workload by name, with its unit.
pub fn print_report(set: &[Measured], meta: &Meta) {
    println!(
        "lsim-benchmark: seed {:#x}, {} sizing, {} untraced + 1 traced run per workload, host_cores {}, commit {}",
        meta.seed,
        meta.sizing.label(),
        meta.repeats,
        meta.host_cores,
        meta.git_commit
    );
    for m in set {
        let w = m.workload;
        println!();
        println!(
            "== {} — {}@{} on {}, window {} {}, expected: {}",
            w.name,
            w.family.slug(),
            meta.sizing.scale(w),
            w.engine.name(),
            m.ticks,
            if w.engine == crate::workloads::Engine::BitPar {
                "vectors"
            } else {
                "ticks"
            },
            m.expected_source
        );
        println!(
            "   {:<34} {:>14} {:>14} {:>14} {:>8}  unit",
            "end-to-end (tracing off)", "median", "min", "max", "spread"
        );
        for e in &END_TO_END {
            let s = m.samples_of(e.name);
            if s.is_empty() {
                println!("   {:<34} no completed run", e.name);
                continue;
            }
            println!(
                "   {:<34} {:>14.4} {:>14.4} {:>14.4} {:>7.2}%  {}",
                e.name,
                median(&s),
                min(&s),
                max(&s),
                100.0 * spread(&s),
                e.unit
            );
        }
        println!(
            "   {:<34} {:>14.4} {:>44}  fraction ({} of {} runs)",
            VERIFY_FAIL_SHARE,
            m.verify_fail_share(),
            "",
            m.failed,
            m.attempted
        );
        if let Some(layers) = &m.layers {
            println!("   per-layer (traced pass, single shot)");
            for p in &PER_LAYER {
                if let Some(v) = layers.get(p.name) {
                    println!("   {:<34} {:>14.4}  {}", p.name, v, p.unit);
                }
            }
        }
        for warning in regime_warnings(m) {
            println!("   warning: {}: {warning}", w.name);
        }
    }
    println!();
    println!("total {:.1} s", meta.total_s);
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(e: &EndToEnd, a: f64, b: f64) -> f64 {
    if e.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// `selfcheck`: set B against set A of the same commit. Every
/// end-to-end median of B must be within the metric's bound of A, and
/// every count identical. Returns the violations.
pub fn compare_sets(a: &[Measured], b: &[Measured]) -> Vec<String> {
    let mut violations = Vec::new();
    for (ma, mb) in a.iter().zip(b) {
        let name = ma.workload.name;
        for e in &END_TO_END {
            let (va, vb) = (
                median(&ma.samples_of(e.name)),
                median(&mb.samples_of(e.name)),
            );
            let worse = worsening(e, va, vb);
            println!(
                "   {name:<14} {:<13} A {va:>14.4}  B {vb:>14.4}  {:>+7.2}% (bound {:.0}%)",
                e.name,
                100.0 * worse,
                100.0 * e.bound
            );
            // NaN (no sample) must not pass.
            if worse.is_nan() || worse > e.bound {
                violations.push(format!("{name}: {} of set B is outside its bound", e.name));
            }
        }
        if ma.failed + mb.failed > 0 {
            violations.push(format!(
                "{name}: {} runs failed verification",
                ma.failed + mb.failed
            ));
        }
        let counts = |m: &Measured| m.samples.first().map(|s| s.counts.clone());
        if counts(ma) != counts(mb) {
            violations.push(format!("{name}: counts differ between the sets"));
        }
        let layer_counts = |m: &Measured| -> BTreeMap<String, u64> {
            m.layers
                .iter()
                .flatten()
                .filter(|(k, _)| metrics::is_count(k))
                .map(|(k, &v)| (k.clone(), v as u64))
                .collect()
        };
        if layer_counts(ma) != layer_counts(mb) {
            violations.push(format!("{name}: per-layer counts differ between the sets"));
        }
    }
    violations
}

/// `BENCHMARK.json`, derived from the workload table and the metric
/// registry (`lsim-benchmark manifest`; a unit test keeps the checked-in
/// file equal to this).
pub fn manifest() -> Value {
    let better = |higher: bool| text(if higher { "higher" } else { "lower" });
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    obj([
        (
            "command",
            Value::Array(command.into_iter().map(text).collect()),
        ),
        ("paths", Value::Array(vec![text("benchmark")])),
        ("run_seconds", int(PROTOCOL_SECONDS)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| obj([("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|e| {
                        obj([
                            ("name", text(e.name)),
                            ("unit", text(e.unit)),
                            ("better", better(e.higher_is_better)),
                            ("bound", num(e.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|p| {
                        obj([
                            ("name", text(p.name)),
                            ("unit", text(p.unit)),
                            ("better", better(p.higher_is_better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_in_manifest_matches_the_registry() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let body = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        let on_disk: Value = serde_json::from_str(&body).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `lsim-benchmark manifest > BENCHMARK.json`"
        );
    }
}
