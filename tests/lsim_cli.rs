//! Integration tests for the `lsim` command-line front end.

use std::io::Write as _;
use std::process::Command;

fn lsim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lsim"))
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let path =
        std::env::temp_dir().join(format!("logicsim_test_{name}_{}.lsim", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("create temp netlist");
    f.write_all(contents.as_bytes())
        .expect("write temp netlist");
    path
}

const TOGGLE: &str = "\
circuit toggle
input clk
input d
gate XOR y clk d
output y
";

#[test]
fn stats_subcommand_reports_workload() {
    let path = write_temp("stats", TOGGLE);
    let out = lsim()
        .args(["stats", path.to_str().unwrap(), "--until", "200"])
        .args(["--clock", "clk:10", "--const", "d=1"])
        .output()
        .expect("run lsim");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("circuit     : toggle"), "{stdout}");
    assert!(stdout.contains("events E"), "{stdout}");
    // A 10-tick clock over 200 ticks produces ~20 clk events + ~20 y
    // events.
    let events: u64 = stdout
        .lines()
        .find(|l| l.starts_with("events E"))
        .and_then(|l| l.split(':').nth(1))
        .and_then(|v| v.trim().parse().ok())
        .expect("events line");
    assert!((30..=45).contains(&events), "events = {events}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn sim_subcommand_prints_outputs() {
    let path = write_temp("sim", TOGGLE);
    let out = lsim()
        .args(["sim", path.to_str().unwrap(), "--until", "50"])
        .args(["--const", "clk=0", "--const", "d=1"])
        .output()
        .expect("run lsim");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("y = 1"), "{stdout}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn dot_subcommand_emits_graphviz() {
    let path = write_temp("dot", TOGGLE);
    let out = lsim()
        .args(["dot", path.to_str().unwrap()])
        .output()
        .expect("run lsim");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("digraph"));
    assert!(stdout.contains("XOR"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn bench_subcommand_round_trips_through_parser() {
    let out = lsim().args(["bench", "rtp"]).output().expect("run lsim");
    assert!(out.status.success());
    let source = String::from_utf8_lossy(&out.stdout);
    let netlist = logicsim::netlist::text::parse(&source).expect("parseable");
    assert!(netlist.num_simulated_components() > 500);
    assert!(netlist.num_switches() > 0);
}

#[test]
fn usage_text_pins_every_subcommand_and_option() {
    let out = lsim().output().expect("run lsim");
    assert!(!out.status.success(), "no arguments must print usage");
    let usage = String::from_utf8_lossy(&out.stderr);
    // One line per front-end surface; a missing line here means the
    // usage text drifted from the implemented commands/options.
    for needle in [
        "usage: lsim <stats|sim|machine|dot|lint|analyze|opt|trace> <netlist-file|bench:NAME[@scale]> [options]",
        "lsim bench <stopwatch|assoc_mem|priority_queue|rtp|crossbar>",
        "lsim gen <family[@scale]> [--seed N] [--out FILE]   (e.g. stopwatch@100k)",
        "lsim lint <netlist-file|bench:NAME> [--json] [--format text|json|sarif] [--deny warnings]",
        "lsim analyze <netlist-file|bench:NAME> [--format text|json|sarif] [--deny warnings] [stimulus options]",
        "lsim opt <netlist-file|bench:NAME> [--report] [--emit FILE]",
        "lsim trace <netlist-file|bench:NAME> [--p N] [--out FILE]",
        "options: --until T --warmup T --seed N --vcd FILE",
        "--clock NET:HALF --random NET:PERIOD:PROB --const NET=0|1 --pulse NET:WIDTH",
        "--backend event|bitpar --lanes N (64; bitpar runs --until T vectors)",
        "machine options: --p N (8) --l N (5) --w N (1) --h X (100) --tm X (3)",
    ] {
        assert!(usage.contains(needle), "usage lost `{needle}`:\n{usage}");
    }
}

#[test]
fn bitpar_backend_simulates_vectors_per_lane() {
    let path = write_temp("bitpar", TOGGLE);
    let out = lsim()
        .args(["sim", path.to_str().unwrap(), "--until", "8"])
        .args(["--backend", "bitpar", "--lanes", "4"])
        .args(["--clock", "clk:1", "--const", "d=1"])
        .output()
        .expect("run lsim");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("lanes       : 4"), "{stdout}");
    assert!(
        stdout.contains("vectors     : 8"),
        "bitpar --until counts vectors: {stdout}"
    );
    // XOR of an alternating clock (tick parity) against constant 1 is
    // identical in every lane: vector 7 has clk=1, so y=0 in all lanes.
    assert!(stdout.contains("y = 0000"), "{stdout}");
    // The one compiled op (the XOR) runs once per vector, the clock
    // moving every time: the count is ops run, not gates, and prints
    // per vector beside the size of the program.
    assert!(stdout.contains("op evals    : 8"), "{stdout}");
    assert!(
        stdout.contains("evals/vector: 1.0 of 1 compiled ops"),
        "{stdout}"
    );
    let _ = std::fs::remove_file(path);
}

/// Two tristates on one net: no benchmark family has one.
const BUS: &str = "\
circuit bus
input d0
input e0
input d1
input e1
gate TRI bus d0 e0
gate TRI bus d1 e1
gate NOT q bus
output bus
output q
";

#[test]
fn bitpar_backend_simulates_a_two_driver_bus_like_the_event_backend() {
    let path = write_temp("bitpar_bus", BUS);
    // One driver enabled, both (a fight), neither (the bus floats).
    for enables in [["e0=1", "e1=0"], ["e0=1", "e1=1"], ["e0=0", "e1=0"]] {
        let run = |backend: &[&str]| {
            let out = lsim()
                .args(["sim", path.to_str().unwrap(), "--until", "16"])
                .args(["--const", "d0=1", "--const", "d1=0"])
                .args(["--const", enables[0], "--const", enables[1]])
                .args(backend)
                .output()
                .expect("run lsim");
            assert!(
                out.status.success(),
                "{}",
                String::from_utf8_lossy(&out.stderr)
            );
            String::from_utf8_lossy(&out.stdout).into_owned()
        };
        let event = run(&["--backend", "event"]);
        let bitpar = run(&["--backend", "bitpar", "--lanes", "5"]);
        for name in ["bus", "q"] {
            let level = event
                .lines()
                .find_map(|l| l.strip_prefix(&format!("  {name} = ")))
                .unwrap_or_else(|| panic!("event backend prints {name}: {event}"));
            assert_eq!(level.len(), 1, "{event}");
            let lanes = format!("  {name} = {}", level.repeat(5));
            assert!(
                bitpar.lines().any(|l| l == lanes),
                "{enables:?}: want `{lanes}`:\n{bitpar}"
            );
        }
        // Everything compiles: there is no second region to report.
        assert!(
            !bitpar.contains("fallback") && !bitpar.contains("fb events"),
            "{bitpar}"
        );
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn bitpar_backend_rejects_tick_based_options() {
    let path = write_temp("bitpar_vcd", TOGGLE);
    let out = lsim()
        .args(["sim", path.to_str().unwrap(), "--backend", "bitpar"])
        .args(["--vcd", "/tmp/never_written.vcd"])
        .output()
        .expect("run lsim");
    assert!(!out.status.success(), "--vcd is event-only");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--backend event"));
    let out = lsim()
        .args(["sim", path.to_str().unwrap(), "--lanes", "65"])
        .output()
        .expect("run lsim");
    assert!(!out.status.success(), "lanes are capped at the word width");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--lanes must be 1..=64"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn bad_input_fails_with_message() {
    let out = lsim()
        .args(["stats", "/nonexistent.lsim"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
    let out = lsim().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    // A typo the parser used to accept: an output no statement declares.
    let path = write_temp("typo", "input a\ngate NOT y a\noutput z\n");
    let out = lsim()
        .args(["stats", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("line 3") && stderr.contains("`z`"),
        "{stderr}"
    );
}

#[test]
fn vcd_option_writes_waveforms() {
    let path = write_temp("vcd_src", TOGGLE);
    let vcd_path =
        std::env::temp_dir().join(format!("logicsim_test_wave_{}.vcd", std::process::id()));
    let out = lsim()
        .args(["sim", path.to_str().unwrap(), "--until", "100"])
        .args(["--clock", "clk:10", "--const", "d=1"])
        .args(["--vcd", vcd_path.to_str().unwrap()])
        .output()
        .expect("run lsim");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let vcd = std::fs::read_to_string(&vcd_path).expect("vcd written");
    assert!(vcd.starts_with("$version"));
    assert!(vcd.contains("$var wire 1 ! y $end"));
    // The clock drives y, so the waveform must contain both states.
    assert!(vcd.contains("\n1!") || vcd.contains("\n0!"));
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(vcd_path);
}

#[test]
fn machine_subcommand_compares_model_and_machine() {
    let path = write_temp("machine", TOGGLE);
    let out = lsim()
        .args(["machine", path.to_str().unwrap(), "--until", "400"])
        .args(["--clock", "clk:10", "--random", "d:16:0.5"])
        .args(["--p", "4", "--l", "1", "--w", "1", "--h", "10"])
        .output()
        .expect("run lsim");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("UI/GC/Q=4/P=4/L=1"), "{stdout}");
    assert!(stdout.contains("model R_P"), "{stdout}");
    assert!(stdout.contains("speed-up"), "{stdout}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn machine_rejects_zero_processors_depth_and_width() {
    for flag in ["--p", "--l", "--w"] {
        let out = lsim()
            .args(["machine", "bench:stopwatch", "--until", "200", flag, "0"])
            .output()
            .expect("run lsim");
        assert_eq!(out.status.code(), Some(1), "{flag} 0 must exit 1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("lsim: {flag} must be at least 1, got 0")),
            "{flag}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{flag}: {stderr}");
    }
}

#[test]
fn machine_rejects_non_positive_and_non_finite_times() {
    for (flag, value) in [("--h", "0"), ("--h", "nan"), ("--tm", "-1")] {
        let out = lsim()
            .args(["machine", "bench:stopwatch", "--until", "200", flag, value])
            .output()
            .expect("run lsim");
        assert_eq!(out.status.code(), Some(1), "{flag} {value} must exit 1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("lsim: {flag} must be a finite time above 0")),
            "{flag} {value}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{flag} {value}: {stderr}");
    }
}

#[test]
fn sim_rejects_a_toggle_probability_that_is_not_one() {
    for prob in ["2.5", "nan"] {
        let out = lsim()
            .args(["sim", "bench:stopwatch", "--until", "200"])
            .args(["--random", &format!("start:5:{prob}")])
            .output()
            .expect("run lsim");
        assert_eq!(out.status.code(), Some(1), "{prob} must exit 1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("net `start` has a toggle probability outside [0, 1]"),
            "{prob}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{prob}: {stderr}");
    }
}

#[test]
fn sim_rejects_a_net_assigned_twice() {
    let path = write_temp("dup", "input a\ngate BUF y a\noutput y\n");
    for backend in ["event", "bitpar"] {
        let out = lsim()
            .args(["sim", path.to_str().unwrap(), "--until", "9"])
            .args(["--clock", "a:2", "--const", "a=0", "--backend", backend])
            .output()
            .expect("run lsim");
        assert_eq!(out.status.code(), Some(1), "{backend}: must exit 1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("stimulus assigns net `a` twice"),
            "{backend}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{backend}: {stderr}");
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn window_end_beyond_the_tick_counter_is_rejected() {
    for cmd in ["sim", "machine", "trace"] {
        let out = lsim()
            .args([cmd, "bench:stopwatch", "--warmup", "10"])
            .args(["--until", "18446744073709551615"])
            .output()
            .expect("run lsim");
        assert_eq!(out.status.code(), Some(1), "{cmd}: overflow must exit 1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(
                "--warmup 10 + --until 18446744073709551615 exceeds the 64-bit tick counter"
            ),
            "{cmd}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{cmd}: {stderr}");
    }
}

#[test]
fn lint_subcommand_flags_zero_delay_loop() {
    let path = write_temp(
        "lint_loop",
        "\
circuit livelock
input s
input r
net q
net qn
gate NAND d=0,0 q s qn
gate NAND d=0,0 qn r q
output q
",
    );
    let out = lsim()
        .args(["lint", path.to_str().unwrap()])
        .output()
        .expect("run lsim");
    assert!(!out.status.success(), "zero-delay loop must fail lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("error[LS0001]"), "{stdout}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn lint_deny_warnings_rejects_drive_fight() {
    let path = write_temp(
        "lint_fight",
        "\
circuit fight
input a
input b
gate NOT y a
gate BUF y b
output y
",
    );
    // Without --deny: warning reported, exit 0.
    let out = lsim()
        .args(["lint", path.to_str().unwrap()])
        .output()
        .expect("run lsim");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("warning[LS0002]"));
    // With --deny warnings: same report, nonzero exit.
    let out = lsim()
        .args(["lint", path.to_str().unwrap(), "--deny", "warnings"])
        .output()
        .expect("run lsim");
    assert!(!out.status.success(), "--deny warnings must fail on LS0002");
    let _ = std::fs::remove_file(path);
}

#[test]
fn trace_subcommand_writes_chrome_trace_and_prints_params() {
    let trace_path =
        std::env::temp_dir().join(format!("logicsim_test_trace_{}.json", std::process::id()));
    let out = lsim()
        .args(["trace", "bench:stopwatch", "--until", "600", "--p", "2"])
        .args(["--out", trace_path.to_str().unwrap()])
        .output()
        .expect("run lsim");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("measured"), "{stdout}");
    assert!(stdout.contains("calibrated"), "{stdout}");
    assert!(stdout.contains("eval"), "{stdout}");
    // The random partition Eq. 6 assumes, not a multilevel one.
    assert!(
        stdout.contains("partition   : random (seed 1987)"),
        "{stdout}"
    );
    // The share of the window only the master thread can do, and every
    // lane's exchange total beside it.
    assert!(stdout.contains("master-only : "), "{stdout}");
    assert!(
        stdout.contains("exchange us : worker 0 ") && stdout.contains(", master "),
        "{stdout}"
    );
    // The written file is a Chrome-loadable trace: valid JSON with a
    // traceEvents array that actually contains phase slices.
    let body = std::fs::read_to_string(&trace_path).expect("trace written");
    let value: serde_json::Value = serde_json::from_str(&body).expect("valid JSON");
    let events = value
        .get("traceEvents")
        .and_then(serde_json::Value::as_array)
        .expect("traceEvents array");
    assert!(events.len() > 3, "expected metadata + samples");
    let _ = std::fs::remove_file(trace_path);
}

/// `trace` on a built-in benchmark honours `--until` as `stats` does:
/// a longer window executes more ticks.
#[test]
fn trace_window_follows_until_on_a_benchmark() {
    let executed = |until: &str| -> u64 {
        let trace_path = std::env::temp_dir().join(format!(
            "logicsim_test_trace_until_{until}_{}.json",
            std::process::id()
        ));
        let out = lsim()
            .args(["trace", "bench:stopwatch", "--until", until])
            .args(["--out", trace_path.to_str().unwrap()])
            .output()
            .expect("run lsim");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let _ = std::fs::remove_file(trace_path);
        let stdout = String::from_utf8_lossy(&out.stdout);
        stdout
            .lines()
            .find_map(|l| l.strip_prefix("window      : "))
            .and_then(|l| l.split_whitespace().next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("no executed-ticks line: {stdout}"))
    };
    let (short, long) = (executed("3000"), executed("4000"));
    assert!(
        long > short,
        "--until 4000 ran {long} ticks, 3000 ran {short}"
    );
}

#[test]
fn opt_subcommand_reports_and_emits_optimized_netlist() {
    let path = write_temp(
        "opt_src",
        "\
circuit redundant
input a
net n1
net n2
net y
gate NOT n1 a
gate NOT n2 a
gate AND y n1 n2
output y
",
    );
    let emit_path =
        std::env::temp_dir().join(format!("logicsim_test_opt_{}.lsim", std::process::id()));
    let out = lsim()
        .args(["opt", path.to_str().unwrap()])
        .args(["--emit", emit_path.to_str().unwrap()])
        .output()
        .expect("run lsim");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The duplicate inverter merges: 3 -> 2 gates.
    assert!(stdout.contains("info[LS0007]"), "{stdout}");
    assert!(stdout.contains("4 -> 3 components"), "{stdout}");
    // The emitted netlist re-parses and is the smaller circuit.
    let emitted = std::fs::read_to_string(&emit_path).expect("emitted netlist");
    let netlist = logicsim::netlist::text::parse(&emitted).expect("parseable");
    assert_eq!(netlist.num_gates(), 2);
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(emit_path);
}

#[test]
fn opt_report_json_is_machine_readable() {
    let out = lsim()
        .args(["opt", "bench:stopwatch", "--report"])
        .output()
        .expect("run lsim");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let value: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON");
    assert_eq!(
        value
            .get("schema_version")
            .and_then(serde_json::Value::as_u64),
        Some(1)
    );
    assert_eq!(
        value.get("circuit").and_then(serde_json::Value::as_str),
        Some("stopwatch")
    );
    let before = value
        .get("components_before")
        .and_then(serde_json::Value::as_u64)
        .expect("before");
    let after = value
        .get("components_after")
        .and_then(serde_json::Value::as_u64)
        .expect("after");
    assert!(after < before, "stopwatch must shrink: {before} -> {after}");
    let findings = value
        .get("findings")
        .and_then(serde_json::Value::as_array)
        .expect("findings array");
    assert!(!findings.is_empty());
}

#[test]
fn lint_json_on_stopwatch_matches_golden_file() {
    let out = lsim()
        .args(["lint", "bench:stopwatch", "--json"])
        .output()
        .expect("run lsim");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8_lossy(&out.stdout);
    let golden = include_str!("golden/lint_stopwatch.json");
    // Compare normalized line endings so the golden file stays
    // byte-for-byte meaningful on every platform.
    assert_eq!(
        got.trim().replace("\r\n", "\n"),
        golden.trim().replace("\r\n", "\n"),
        "lsim lint --json output drifted from tests/golden/lint_stopwatch.json; \
         if the change is intentional, regenerate the golden file"
    );
}

#[test]
fn lint_sarif_on_stopwatch_matches_golden_file() {
    let out = lsim()
        .args(["lint", "bench:stopwatch", "--format", "sarif"])
        .output()
        .expect("run lsim");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8_lossy(&out.stdout);
    let golden = include_str!("golden/lint_stopwatch.sarif");
    assert_eq!(
        got.trim().replace("\r\n", "\n"),
        golden.trim().replace("\r\n", "\n"),
        "lsim lint --format sarif output drifted from tests/golden/lint_stopwatch.sarif; \
         if the change is intentional, regenerate the golden file"
    );
}

/// The exact stdout of the simulating subcommands on the stopwatch:
/// every engine, warm-up and measurement path `stats`, `sim` and
/// `machine` take, byte for byte.
#[test]
fn simulating_subcommands_match_golden_stdout() {
    let cases = [
        (
            vec!["stats", "bench:stopwatch", "--until", "2000"],
            include_str!("golden/stats_stopwatch.txt"),
        ),
        (
            vec![
                "sim",
                "bench:stopwatch",
                "--until",
                "2000",
                "--warmup",
                "100",
            ],
            include_str!("golden/sim_stopwatch_warmup.txt"),
        ),
        (
            vec!["machine", "bench:stopwatch", "--until", "2000"],
            include_str!("golden/machine_stopwatch.txt"),
        ),
        (
            vec![
                "sim",
                "bench:stopwatch",
                "--until",
                "8",
                "--backend",
                "bitpar",
                "--lanes",
                "4",
            ],
            include_str!("golden/sim_stopwatch_bitpar.txt"),
        ),
    ];
    for (args, golden) in cases {
        let out = lsim().args(&args).output().expect("run lsim");
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            golden,
            "lsim {args:?} drifted from its golden stdout under tests/golden/"
        );
    }
}

#[test]
fn analyze_subcommand_uses_stimulus_seeds() {
    // Under the stopwatch's shipped stimulus plan the dataflow passes
    // run with real periodicity seeds; the sequential core still has
    // feedback, so LS0011 (unbounded arrival) must be among the facts,
    // and info-only findings must not affect the exit status.
    let out = lsim()
        .args(["analyze", "bench:stopwatch"])
        .output()
        .expect("run lsim");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("info[LS0011]"), "{stdout}");
    // SARIF output parses and names the analyzed artifact.
    let out = lsim()
        .args(["analyze", "bench:stopwatch", "--format", "sarif"])
        .output()
        .expect("run lsim");
    assert!(out.status.success());
    let value: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("valid SARIF JSON");
    assert_eq!(
        value.get("version").and_then(serde_json::Value::as_str),
        Some("2.1.0")
    );
    let pretty = serde_json::to_string_pretty(&value).unwrap();
    assert!(pretty.contains("bench:stopwatch"), "{pretty}");
}
