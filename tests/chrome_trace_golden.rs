//! Golden test for the Chrome `trace_event` exporter.
//!
//! A hand-built [`ObsReport`] with two worker lanes and a master lane
//! is rendered and compared byte-for-byte against
//! `tests/golden/chrome_trace_small.json`, pinning the exporter's
//! field ordering, microsecond formatting, metadata events, and lane
//! numbering. Structural invariants (valid JSON shape, monotone
//! timestamps per lane, one `tid` per lane) are asserted on top so a
//! regeneration of the golden file cannot silently bless a malformed
//! trace.
//!
//! Regenerate with `cargo test --test chrome_trace_golden -- --ignored
//! --nocapture` and paste the printed JSON into the golden file.

use logicsim::sim::{LaneReport, ObsReport, Phase, PhaseSample};

fn sample(phase: Phase, tick: u64, start_ns: u64, dur_ns: u64, items: u64) -> PhaseSample {
    PhaseSample {
        phase,
        tick,
        start_ns,
        dur_ns,
        items,
    }
}

/// A small deterministic report shaped like a real 2-worker run: two
/// ticks of apply/eval on the workers, start/exchange/done/barrier on
/// the master.
fn small_report() -> ObsReport {
    let worker0 = LaneReport {
        samples: vec![
            sample(Phase::Apply, 100, 1_000, 250, 2),
            sample(Phase::Eval, 100, 1_250, 1_500, 3),
            sample(Phase::Apply, 101, 10_000, 200, 1),
            sample(Phase::Eval, 101, 10_200, 900, 2),
        ],
        dropped: 0,
        totals: Default::default(),
    };
    let worker1 = LaneReport {
        samples: vec![
            sample(Phase::Apply, 100, 1_100, 300, 1),
            sample(Phase::Resolve, 100, 1_400, 450, 1),
            sample(Phase::Eval, 100, 1_850, 1_200, 2),
        ],
        dropped: 0,
        totals: Default::default(),
    };
    let master = LaneReport {
        samples: vec![
            sample(Phase::Start, 100, 500, 400, 2),
            sample(Phase::Exchange, 100, 3_100, 800, 5),
            sample(Phase::Done, 100, 3_900, 350, 4),
            sample(Phase::Barrier, 100, 4_250, 2_750, 0),
            sample(Phase::Start, 101, 9_500, 380, 2),
        ],
        dropped: 1,
        totals: Default::default(),
    };
    ObsReport {
        lanes: vec![worker0, worker1, master],
        lane_names: vec![
            "worker 0".to_string(),
            "worker 1".to_string(),
            "master".to_string(),
        ],
    }
}

#[test]
fn chrome_trace_matches_golden() {
    let json = small_report().chrome_trace();
    let golden = include_str!("golden/chrome_trace_small.json");
    assert_eq!(
        json.replace("\r\n", "\n"),
        golden.replace("\r\n", "\n"),
        "Chrome trace output drifted from tests/golden/chrome_trace_small.json; \
         if the change is intentional, regenerate with \
         `cargo test --test chrome_trace_golden -- --ignored --nocapture`"
    );
}

#[test]
fn chrome_trace_is_structurally_sound() {
    let report = small_report();
    let json = report.chrome_trace();

    // Parses as JSON with the documented top-level shape.
    let value: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    let serde_json::Value::Object(top) = &value else {
        panic!("top level must be an object");
    };
    assert!(top.contains_key("displayTimeUnit"));
    let serde_json::Value::Array(events) = &top["traceEvents"] else {
        panic!("traceEvents must be an array");
    };

    // One process_name, one thread_name per lane, then the samples.
    let meta = 1 + report.lanes.len();
    let samples: usize = report.lanes.iter().map(|l| l.samples.len()).sum();
    assert_eq!(events.len(), meta + samples);

    // Per lane: one tid, timestamps monotone non-decreasing (lanes
    // record in wall order), every event complete ("ph":"X").
    for (tid, lane) in report.lanes.iter().enumerate() {
        let mut last_ts = f64::MIN;
        let mut seen = 0;
        for ev in events {
            let serde_json::Value::Object(ev) = ev else {
                panic!("every event must be an object");
            };
            if ev["ph"].as_str() != Some("X") {
                continue; // metadata
            }
            let ev_tid = ev["tid"].as_u64().expect("tid number") as usize;
            if ev_tid != tid {
                continue;
            }
            let ts = ev["ts"].as_f64().expect("ts number");
            assert!(ts >= last_ts, "lane {tid}: ts went backwards");
            last_ts = ts;
            seen += 1;
            let tick = ev["args"].get("tick").expect("args.tick");
            assert!(tick.as_u64().is_some());
        }
        assert_eq!(seen, lane.samples.len(), "lane {tid} event count");
    }
}

#[test]
#[ignore = "regeneration helper: prints the golden JSON"]
fn print_golden() {
    print!("{}", small_report().chrome_trace());
}
