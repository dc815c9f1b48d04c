//! Benchmark-side spans around each public call into a layer.
//!
//! Spans are kept in a `Vec` and written out when the job ends. A span
//! records its name, start, end and the span that caused it; all spans
//! of one job share the recorder's run id. A layer's self time is its
//! span's duration minus the part its children cover.

use crate::json::{int, obj, text, Value};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span name: a layer (module path) or a driver stage.
    pub name: String,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Start time.
    pub start_ns: u64,
    /// End time; `None` while the span is open.
    pub end_ns: Option<u64>,
}

/// Handle returned by [`Recorder::enter`]; give it back to
/// [`Recorder::exit`].
#[derive(Debug)]
pub struct Open {
    index: Option<usize>,
    started: Instant,
}

/// In-memory span recorder. Disabled, it still times (callers need the
/// durations for the end-to-end metrics) but records nothing.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    run_id: String,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder; `enabled` is the `--trace` switch.
    pub fn new(enabled: bool, run_id: impl Into<String>) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            run_id: run_id.into(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &str) -> Open {
        let index = self.enabled.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                parent: self.stack.last().copied(),
                start_ns: self.now_ns(),
                end_ns: None,
            });
            let i = self.spans.len() - 1;
            self.stack.push(i);
            i
        });
        Open {
            index,
            started: Instant::now(),
        }
    }

    /// Closes a span and returns its duration in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `open` is not the innermost open span: spans must nest.
    pub fn exit(&mut self, open: Open) -> f64 {
        let secs = open.started.elapsed().as_secs_f64();
        if let Some(i) = open.index {
            assert_eq!(
                self.stack.pop(),
                Some(i),
                "spans must close innermost first"
            );
            self.spans[i].end_ns = Some(self.now_ns());
        }
        secs
    }

    /// The spans recorded so far.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Checks the spans ([`check`]) and writes them to `path` as JSON.
    pub fn write(&self, path: &std::path::Path) -> Result<(), String> {
        check(&self.spans)?;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let body = serde_json::to_string(&self.to_json()).map_err(|e| e.to_string())?;
        std::fs::write(path, body).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// The recorded spans as a JSON document, self times included.
    pub fn to_json(&self) -> Value {
        let selfs = self_times(&self.spans);
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                obj([
                    ("id", int(i as u64)),
                    ("parent", s.parent.map_or(Value::Null, |p| int(p as u64))),
                    ("name", text(s.name.clone())),
                    ("start_ns", int(s.start_ns)),
                    ("end_ns", s.end_ns.map_or(Value::Null, int)),
                    ("self_ns", selfs[i].map_or(Value::Null, int)),
                ])
            })
            .collect();
        obj([
            ("run_id", text(self.run_id.clone())),
            ("spans", Value::Array(spans)),
        ])
    }
}

/// Self time per span: duration minus the sum of its direct children's
/// durations. `None` for an open span or one whose children cover more
/// than it does (which [`check`] reports).
pub fn self_times(spans: &[Span]) -> Vec<Option<u64>> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let (Some(p), Some(end)) = (s.parent, s.end_ns) {
            covered[p] += end - s.start_ns;
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| (s.end_ns? - s.start_ns).checked_sub(c))
        .collect()
}

/// Checks that the spans form a well-nested forest: every span closed,
/// ends not before it starts, lies inside its parent, and has a
/// non-negative self time.
pub fn check(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        let end = s
            .end_ns
            .ok_or_else(|| format!("span {i} `{}` never closed", s.name))?;
        if end < s.start_ns {
            return Err(format!("span {i} `{}` ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let parent = spans
                .get(p)
                .filter(|_| p < i)
                .ok_or_else(|| format!("span {i} `{}` has no earlier parent {p}", s.name))?;
            let inside = parent.start_ns <= s.start_ns && parent.end_ns.is_some_and(|pe| end <= pe);
            if !inside {
                return Err(format!(
                    "span {i} `{}` is not inside its parent `{}`",
                    s.name, parent.name
                ));
            }
        }
    }
    for (i, t) in self_times(spans).iter().enumerate() {
        if t.is_none() {
            return Err(format!(
                "span {i} `{}` has negative self time",
                spans[i].name
            ));
        }
    }
    Ok(())
}

/// Reads spans back from [`Recorder::to_json`].
#[cfg(test)]
fn spans_from_json(doc: &Value) -> Result<Vec<Span>, String> {
    doc.get("spans")
        .and_then(Value::as_array)
        .ok_or("trace has no `spans` array")?
        .iter()
        .map(|s| {
            Ok(Span {
                name: crate::json::get_str(s, "name")?.to_string(),
                parent: s.get("parent").and_then(Value::as_u64).map(|p| p as usize),
                start_ns: crate::json::get_u64(s, "start_ns")?,
                end_ns: s.get("end_ns").and_then(Value::as_u64),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start: u64, end: Option<u64>) -> Span {
        Span {
            name: name.into(),
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn recorder_nests_and_round_trips() {
        let mut r = Recorder::new(true, "t");
        let a = r.enter("a");
        let b = r.enter("b");
        r.exit(b);
        let c = r.enter("c");
        r.exit(c);
        r.exit(a);
        assert_eq!(r.spans().len(), 3);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert_eq!(r.spans()[2].parent, Some(0));
        check(r.spans()).unwrap();
        assert_eq!(spans_from_json(&r.to_json()).unwrap(), r.spans());
    }

    #[test]
    fn disabled_recorder_times_but_records_nothing() {
        let mut r = Recorder::new(false, "t");
        let a = r.enter("a");
        assert!(r.exit(a) >= 0.0);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("p", None, 0, Some(100)),
            span("c1", Some(0), 10, Some(40)),
            span("c2", Some(0), 50, Some(70)),
        ];
        assert_eq!(self_times(&spans), vec![Some(50), Some(30), Some(20)]);
        check(&spans).unwrap();
    }

    #[test]
    fn check_rejects_malformed_forests() {
        assert!(check(&[span("open", None, 0, None)]).is_err());
        assert!(check(&[
            span("p", None, 0, Some(10)),
            span("escapes", Some(0), 5, Some(20)),
        ])
        .is_err());
        assert!(check(&[
            span("p", None, 0, Some(10)),
            span("c1", Some(0), 0, Some(8)),
            span("overlaps", Some(0), 4, Some(10)),
        ])
        .is_err());
    }
}
