//! The parent: spawns one child per run, strictly one at a time, times
//! each from outside, verifies its counts and folds the samples.
//!
//! The parent is single-threaded and blocks while a child runs, so the
//! only threads alive during a job are the engine's own, and every
//! `peak_rss_mb` is one child's `VmHWM`, never a cumulative high-water
//! mark.

use crate::expected::{reference_entry, verify, Counts, Expected, E_REF};
use crate::job::{InputFiles, LANES};
use crate::json::{counts_from_json, floats_from_json, get_f64, get_u64, Value};
use crate::metrics::{EVENTS_PER_S, JOB_S, PEAK_RSS_MB, SETUP_S};
use crate::workloads::{Engine, Sizing, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// What to run for one workload.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Seed of input wiring, stimulus and partitioner.
    pub seed: u64,
    /// Input size and window length.
    pub sizing: Sizing,
    /// Untraced jobs.
    pub repeats: usize,
    /// Set-up-only children on top, for more `setup_s` samples.
    pub extra_setups: usize,
    /// Also run the traced pass.
    pub traced: bool,
}

/// One untraced job that ran to completion.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Child start of file read → engine and stimulus ready.
    pub setup_s: f64,
    /// Wall of the timed window.
    pub window_s: f64,
    /// The window with host interference taken out, see [`steady_window_s`].
    pub steady_window_s: f64,
    /// Parent-measured wall from spawn to exit.
    pub job_s: f64,
    /// The child's `VmHWM`, MiB.
    pub peak_rss_mb: f64,
    /// Events (scenario events on the bit-parallel engine) ÷ steady
    /// window.
    pub events_per_s: f64,
    /// The job's exact counts and digests.
    pub counts: Counts,
}

/// Everything measured for one workload.
#[derive(Debug)]
pub struct Measured {
    /// The workload.
    pub workload: &'static Workload,
    /// Ticks (vectors) of the window.
    pub ticks: u64,
    /// `blessed` or `serial reference run`.
    pub expected_source: &'static str,
    /// Untraced jobs that completed (verified or not).
    pub samples: Vec<Sample>,
    /// `setup_s` of the set-up-only children.
    pub extra_setups: Vec<f64>,
    /// Jobs started (untraced and traced).
    pub attempted: u64,
    /// Jobs that exited non-zero or whose counts differ from the
    /// expected entry or from each other.
    pub failed: u64,
    /// Per-layer metrics of the traced pass.
    pub layers: Option<BTreeMap<String, f64>>,
    /// Window wall of the traced pass.
    pub traced_window_s: Option<f64>,
}

impl Measured {
    /// The raw samples of one end-to-end metric.
    pub fn samples_of(&self, metric: &str) -> Vec<f64> {
        let from_jobs = |f: fn(&Sample) -> f64| self.samples.iter().map(f).collect::<Vec<_>>();
        match metric {
            SETUP_S => {
                let mut v = from_jobs(|s| s.setup_s);
                v.extend(&self.extra_setups);
                v
            }
            EVENTS_PER_S => from_jobs(|s| s.events_per_s),
            JOB_S => from_jobs(|s| s.job_s),
            PEAK_RSS_MB => from_jobs(|s| s.peak_rss_mb),
            _ => Vec::new(),
        }
    }

    /// Failed ÷ attempted.
    pub fn verify_fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The window's wall with host interference taken out: total work ×
/// the median over the 16 chunks of (chunk wall ÷ chunk work), work being
/// the engine's exact count (events, or compiled evaluations).
///
/// On a shared host another tenant slows a job down for a second or two
/// at a time; such a stretch inflates a few chunks, and the whole-window
/// wall with them, but not the median chunk. With equal work per chunk
/// this is 16 × the median chunk wall.
fn steady_window_s(job: &Value) -> Result<f64, String> {
    let list = |key: &str| -> Result<Vec<f64>, String> {
        job.get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("job printed no `{key}`"))?
            .iter()
            .map(|v| {
                v.as_f64()
                    .ok_or_else(|| format!("`{key}` holds a non-number"))
            })
            .collect()
    };
    let (walls, works) = (list("chunk_s")?, list("chunk_work")?);
    let costs: Vec<f64> = walls
        .iter()
        .zip(&works)
        .filter(|(_, &work)| work > 0.0)
        .map(|(wall, work)| wall / work)
        .collect();
    if costs.is_empty() {
        return get_f64(job, "window_s");
    }
    Ok(works.iter().sum::<f64>() * median(&costs))
}

/// Median of a non-empty slice (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Smallest value.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Largest value.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// `(max - min) / median`.
pub fn spread(values: &[f64]) -> f64 {
    (max(values) - min(values)) / median(values)
}

/// The child-spawning side of the benchmark.
pub struct Harness {
    exe: PathBuf,
    /// The benchmark's directory (`benchmark/` of the checkout).
    pub bench_dir: PathBuf,
    /// Blessed entries.
    pub expected: Expected,
}

impl Harness {
    /// Finds the benchmark's directory (under the current directory, or
    /// where the crate was built) and loads `expected.json`.
    pub fn new() -> Result<Harness, String> {
        let here = Path::new("benchmark");
        let bench_dir = if here.join("Cargo.toml").is_file() {
            here.to_path_buf()
        } else {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        };
        Ok(Harness {
            exe: std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?,
            expected: Expected::load(&bench_dir.join("expected.json"))?,
            bench_dir,
        })
    }

    /// Where generated inputs, traces and reports go (git-ignored).
    pub fn out_dir(&self) -> PathBuf {
        self.bench_dir.join("out")
    }

    /// Where the traced pass of `w` writes its spans.
    pub fn trace_path(&self, w: &Workload) -> PathBuf {
        self.out_dir().join(format!("trace-{}.json", w.name))
    }

    /// Runs one child to completion and returns the JSON on the last
    /// line of its output and the wall from spawn to exit.
    fn child(&self, args: &[String]) -> Result<(Value, f64), String> {
        let started = Instant::now();
        let out = Command::new(&self.exe)
            .args(args)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn {}: {e}", self.exe.display()))?;
        let wall = started.elapsed().as_secs_f64();
        if !out.status.success() {
            return Err(format!(
                "child `{}` exited with {}",
                args.join(" "),
                out.status
            ));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or("");
        let doc = serde_json::from_str(last)
            .map_err(|e| format!("child `{}` printed no result: {e}", args.join(" ")))?;
        Ok((doc, wall))
    }

    /// Generates the input of `w` unless it is already there. Returns
    /// the files and whether this call made them.
    pub fn ensure_input(&self, w: &Workload, plan: &Plan) -> Result<(InputFiles, bool), String> {
        let scale = plan.sizing.scale(w);
        let dir = self.out_dir().join("inputs");
        let files = InputFiles::locate(&dir, w, scale, plan.seed);
        if files.netlist.is_file() && files.stimulus.is_file() {
            return Ok((files, false));
        }
        self.child(&[
            "gen".into(),
            w.name.into(),
            "--seed".into(),
            plan.seed.to_string(),
            "--scale".into(),
            scale.to_string(),
            "--dir".into(),
            dir.display().to_string(),
        ])?;
        Ok((files, true))
    }

    fn job_args(w: &Workload, plan: &Plan, files: &InputFiles) -> Vec<String> {
        vec![
            "run".into(),
            w.name.into(),
            "--seed".into(),
            plan.seed.to_string(),
            "--input".into(),
            files.netlist.display().to_string(),
            "--scale".into(),
            plan.sizing.scale(w).to_string(),
            "--ticks".into(),
            plan.sizing.ticks(w).to_string(),
        ]
    }

    /// Runs the serial reference of `w` and returns its entry.
    pub fn reference(
        &self,
        w: &Workload,
        plan: &Plan,
        files: &InputFiles,
    ) -> Result<Counts, String> {
        let mut args = Harness::job_args(w, plan, files);
        args.push("--reference".into());
        let (doc, _) = self.child(&args)?;
        let counts = counts_from_json(doc.get("counts").ok_or("reference printed no counts")?)?;
        Ok(reference_entry(&counts))
    }

    /// Runs one job child, counts it, and verifies its counts against
    /// the expected entry and the first completed run. With no entry
    /// yet (an unblessed seed on the serial engine) this job becomes the
    /// reference the later ones must reproduce.
    fn job(
        &self,
        m: &mut Measured,
        entry: &mut Option<Counts>,
        args: &[String],
    ) -> Option<(Value, f64, Counts)> {
        let name = m.workload.name;
        m.attempted += 1;
        let done = self.child(args).and_then(|(doc, job_s)| {
            let counts = counts_from_json(doc.get("counts").ok_or("job printed no counts")?)?;
            Ok((doc, job_s, counts))
        });
        match done {
            Ok((doc, job_s, counts)) => {
                let entry = entry.get_or_insert_with(|| reference_entry(&counts));
                let mut diffs = verify(&counts, entry);
                if m.samples.first().is_some_and(|s| s.counts != counts) {
                    diffs.push("counts differ from the first run's".into());
                }
                if !diffs.is_empty() {
                    m.failed += 1;
                    eprintln!("{name}: verification failed: {}", diffs.join("; "));
                }
                Some((doc, job_s, counts))
            }
            Err(e) => {
                m.failed += 1;
                eprintln!("{name}: {e}");
                None
            }
        }
    }

    /// Runs the plan for one workload: input, expected entry, set-up
    /// samples, untraced jobs, traced pass.
    pub fn measure(&self, w: &'static Workload, plan: &Plan) -> Result<Measured, String> {
        let (files, _) = self.ensure_input(w, plan)?;
        let (mut entry, expected_source) =
            match (self.expected.get(w, plan.sizing, plan.seed), w.engine) {
                (Some(e), _) => (Some(e.clone()), "blessed"),
                // The serial engine is the reference: a separate reference
                // run would be this very job, so the first job serves.
                (None, Engine::Serial) => (None, "first run (serial engine)"),
                (None, _) => (
                    Some(self.reference(w, plan, &files)?),
                    "serial reference run",
                ),
            };
        let mut m = Measured {
            workload: w,
            ticks: plan.sizing.ticks(w),
            expected_source,
            samples: Vec::new(),
            extra_setups: Vec::new(),
            attempted: 0,
            failed: 0,
            layers: None,
            traced_window_s: None,
        };
        let base = Harness::job_args(w, plan, &files);

        for _ in 0..plan.extra_setups {
            let mut args = base.clone();
            args.push("--setup-only".into());
            let (doc, _) = self.child(&args)?;
            m.extra_setups.push(get_f64(&doc, "setup_s")?);
        }

        for _ in 0..plan.repeats {
            if let Some((doc, job_s, counts)) = self.job(&mut m, &mut entry, &base) {
                // Events of one window: the job's own count, or on the
                // bit-parallel engine 64 lanes × the serial replay's.
                let events = match w.engine {
                    Engine::BitPar => {
                        let e_ref = entry.as_ref().and_then(|e| e.get(E_REF));
                        LANES as u64 * e_ref.copied().ok_or("the expected entry has no e_ref")?
                    }
                    Engine::Serial | Engine::Par2 => counts.get("events").copied().unwrap_or(0),
                };
                let steady_window_s = steady_window_s(&doc)?;
                m.samples.push(Sample {
                    setup_s: get_f64(&doc, "setup_s")?,
                    window_s: get_f64(&doc, "window_s")?,
                    steady_window_s,
                    job_s,
                    peak_rss_mb: get_u64(&doc, "peak_rss_kb")? as f64 / 1024.0,
                    events_per_s: events as f64 / steady_window_s,
                    counts,
                });
            }
        }

        if plan.traced {
            let mut args = base.clone();
            args.extend([
                "--trace-out".into(),
                self.trace_path(w).display().to_string(),
            ]);
            if let Some((doc, _, _)) = self.job(&mut m, &mut entry, &args) {
                let mut layers =
                    floats_from_json(doc.get("layers").ok_or("traced job printed no layers")?)?;
                if !m.samples.is_empty() {
                    let untraced: Vec<f64> = m.samples.iter().map(|s| s.steady_window_s).collect();
                    layers.insert(
                        "sim.obs.overhead_ratio".into(),
                        steady_window_s(&doc)? / median(&untraced),
                    );
                }
                m.layers = Some(layers);
                m.traced_window_s = Some(get_f64(&doc, "window_s")?);
            }
        }
        Ok(m)
    }

    /// Deletes the generated input of `(w, plan)`.
    pub fn remove_input(&self, w: &Workload, plan: &Plan) {
        let dir = self.out_dir().join("inputs");
        let files = InputFiles::locate(&dir, w, plan.sizing.scale(w), plan.seed);
        let _ = std::fs::remove_file(files.netlist);
        let _ = std::fs::remove_file(files.stimulus);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(spread(&[9.0, 10.0, 11.0]), 0.2);
    }
}
