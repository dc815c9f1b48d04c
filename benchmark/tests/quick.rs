//! End-to-end test of the benchmark itself on `--quick` sizing (10k
//! inputs, 1/50 windows): two full sets through the real binary.
//!
//! One test function on purpose: the sets share `benchmark/out/`, and
//! `cargo test` would otherwise run them on parallel threads.

use serde_json::Value;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_lsim-benchmark");

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read_json(path: &Path) -> Value {
    let body = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    serde_json::from_str(&body).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Runs `all --quick` from the repo root; returns stdout and the report.
fn quick_set(tag: &str) -> (String, Value) {
    let out = bench_dir()
        .join("out")
        .join(format!("test-report-{tag}.json"));
    let run = Command::new(EXE)
        .current_dir(bench_dir().parent().expect("benchmark/ has a parent"))
        .args(["all", "--quick", "--repeats", "2", "--out"])
        .arg(&out)
        .output()
        .expect("spawn lsim-benchmark");
    let stdout = String::from_utf8_lossy(&run.stdout).into_owned();
    assert!(
        run.status.success(),
        "`all --quick` failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    (stdout, read_json(&out))
}

fn names_of(manifest: &Value, section: &str) -> BTreeSet<String> {
    manifest
        .get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{section}`"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn is_valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Every span closed, inside its parent, children not covering more
/// than the parent (self time ≥ 0).
fn assert_spans_well_formed(trace: &Value, workload: &str) {
    let spans = trace.get("spans").and_then(Value::as_array).expect("spans");
    assert!(spans.len() > 20, "{workload}: only {} spans", spans.len());
    let field = |s: &Value, k: &str| s.get(k).and_then(Value::as_u64);
    let mut covered = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        let (start, end) = (
            field(s, "start_ns").expect("start_ns"),
            field(s, "end_ns").unwrap_or_else(|| panic!("{workload}: span {i} never closed")),
        );
        assert!(start <= end, "{workload}: span {i} ends before it starts");
        assert!(
            field(s, "self_ns").is_some(),
            "{workload}: span {i} has no self time"
        );
        if let Some(p) = field(s, "parent") {
            let p = p as usize;
            assert!(p < i, "{workload}: span {i} precedes its parent");
            let (ps, pe) = (
                field(&spans[p], "start_ns").expect("start_ns"),
                field(&spans[p], "end_ns").expect("parent closed"),
            );
            assert!(
                ps <= start && end <= pe,
                "{workload}: span {i} escapes its parent"
            );
            covered[p] += end - start;
        }
    }
    for (i, s) in spans.iter().enumerate() {
        let dur = field(s, "end_ns").expect("end_ns") - field(s, "start_ns").expect("start_ns");
        assert!(
            covered[i] <= dur,
            "{workload}: span {i} has negative self time"
        );
    }
    let names: BTreeSet<&str> = spans
        .iter()
        .filter_map(|s| s.get("name").and_then(Value::as_str))
        .collect();
    for expected in [
        "job",
        "netlist.text.parse",
        "window",
        "window.chunk",
        "probes",
    ] {
        assert!(names.contains(expected), "{workload}: no `{expected}` span");
    }
}

#[test]
fn quick_sets_verify_repeat_exactly_and_match_the_manifest() {
    let manifest = read_json(&bench_dir().join("../BENCHMARK.json"));
    let workloads = names_of(&manifest, "workloads");
    let end_to_end = names_of(&manifest, "end_to_end");
    let per_layer = names_of(&manifest, "per_layer");
    assert_eq!(workloads.len(), 6);

    let (stdout_a, a) = quick_set("a");
    let (_, b) = quick_set("b");

    let mut printed_layers = BTreeSet::new();
    for name in &workloads {
        let (wa, wb) = (
            a.get("workloads")
                .and_then(|w| w.get(name))
                .unwrap_or_else(|| panic!("no {name}")),
            b.get("workloads")
                .and_then(|w| w.get(name))
                .unwrap_or_else(|| panic!("no {name}")),
        );
        // Digests and counts: blessed entries exist for quick sizing, so
        // a pass here is a pass against `expected.json`.
        for w in [wa, wb] {
            assert_eq!(
                w.get("expected").and_then(Value::as_str),
                Some("blessed"),
                "{name}"
            );
            assert_eq!(w.get("failed").and_then(Value::as_u64), Some(0), "{name}");
            assert_eq!(
                w.get("attempted").and_then(Value::as_u64),
                Some(3),
                "{name}"
            );
            assert_eq!(
                w.get("verify_fail_share").and_then(Value::as_f64),
                Some(0.0),
                "{name}"
            );
        }
        assert!(wa.get("counts").is_some(), "{name}: no counts");
        assert_eq!(
            wa.get("counts"),
            wb.get("counts"),
            "{name}: counts differ between sets"
        );

        // Exact per-layer counts repeat too; collect the names.
        let (la, lb) = (
            wa.get("per_layer")
                .and_then(Value::as_object)
                .expect("per_layer"),
            wb.get("per_layer")
                .and_then(Value::as_object)
                .expect("per_layer"),
        );
        for unit_is_count in manifest
            .get("per_layer")
            .and_then(Value::as_array)
            .expect("per_layer")
        {
            let metric = unit_is_count
                .get("name")
                .and_then(Value::as_str)
                .expect("name");
            let exact = unit_is_count.get("unit").and_then(Value::as_str) == Some("count")
                && metric != "sim.obs.ring_dropped";
            if exact {
                assert_eq!(
                    la.get(metric),
                    lb.get(metric),
                    "{name}: {metric} differs between sets"
                );
            }
        }
        printed_layers.extend(la.keys().cloned());

        let e2e: BTreeSet<String> = wa
            .get("end_to_end")
            .and_then(Value::as_object)
            .expect("end_to_end")
            .keys()
            .cloned()
            .collect();
        assert_eq!(
            e2e, end_to_end,
            "{name}: end-to-end names differ from BENCHMARK.json"
        );

        assert_spans_well_formed(
            &read_json(&bench_dir().join("out").join(format!("trace-{name}.json"))),
            name,
        );
    }

    // Every per-layer name the six workloads print is in BENCHMARK.json
    // and the other way round; every name is well formed and printed.
    assert_eq!(printed_layers, per_layer);
    for name in workloads.iter().chain(&end_to_end).chain(&per_layer) {
        assert!(is_valid_name(name), "`{name}` is not a valid name");
        assert!(
            stdout_a.contains(name.as_str()),
            "`all` did not print `{name}`"
        );
    }
    assert!(stdout_a.contains("verify_fail_share"));
}

#[test]
fn protocol_refuses_bad_arguments_without_a_result() {
    for args in [
        vec![
            "--workload",
            "no-such",
            "--seed",
            "1",
            "--seconds",
            "5",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "eval-serial",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "eval-serial",
            "--seed",
            "1",
            "--seconds",
            "5",
            "--trace",
            "2",
        ],
        vec!["frobnicate"],
    ] {
        let run = Command::new(EXE).args(&args).output().expect("spawn");
        assert!(!run.status.success(), "{args:?} should fail");
        assert!(run.stdout.is_empty(), "{args:?} printed a result");
    }
}
