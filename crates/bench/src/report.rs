//! JSON-building and environment-metadata helpers shared by the study
//! binaries.
//!
//! The vendored `serde_json` substitute has no `json!` macro, so the
//! binaries assemble [`Value`] trees through these constructors. The
//! metadata probes exist because performance numbers are only
//! comparable across machines when the document records what produced
//! them.

use serde_json::{Number, Value};

/// Builds a JSON object from key/value pairs.
pub fn obj<const N: usize>(pairs: [(&str, Value); N]) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// An unsigned-integer JSON number.
#[must_use]
pub fn uint(n: u64) -> Value {
    Value::Number(Number::PosInt(n))
}

/// A floating-point JSON number.
#[must_use]
pub fn float(x: f64) -> Value {
    Value::Number(Number::Float(x))
}

/// A JSON string.
#[must_use]
pub fn text(t: &str) -> Value {
    Value::String(t.to_string())
}

/// The current git commit hash, or `None` outside a repository (e.g.
/// when run from an unpacked source archive).
#[must_use]
pub fn git_commit() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let hash = String::from_utf8(out.stdout).ok()?;
    let hash = hash.trim();
    if hash.is_empty() {
        None
    } else {
        Some(hash.to_string())
    }
}

/// Logical core count of the host (what the study threads actually had
/// to work with — a P=8 "speedup" on a 1-core host is not a regression,
/// it is physics, and the snapshot must make that readable).
#[must_use]
pub fn host_cores() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// The `LSIM_THREADS` override, if set to a positive integer.
pub(crate) fn lsim_threads() -> Option<u64> {
    std::env::var("LSIM_THREADS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&n| n > 0)
}

/// Exits with code 2, saying why on stderr, when `LSIM_THREADS` asks for
/// more threads than the host has cores: an oversubscribed study times
/// scheduler churn, not the workload. `binary` names the caller in the
/// message.
pub fn refuse_oversubscription(binary: &str) {
    if let Some(n) = lsim_threads().filter(|&n| n > host_cores()) {
        eprintln!(
            "{binary}: LSIM_THREADS={n} exceeds host cores ({}); \
             oversubscribed measurements are meaningless — \
             lower LSIM_THREADS or unset it",
            host_cores()
        );
        std::process::exit(2);
    }
}

/// The standard v2 snapshot metadata object: `LSIM_THREADS` override,
/// git commit, and host core count.
#[must_use]
pub fn metadata_v2() -> Value {
    obj([
        ("lsim_threads", lsim_threads().map_or(Value::Null, uint)),
        ("git_commit", git_commit().map_or(Value::Null, |h| text(&h))),
        ("host_cores", uint(host_cores())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_produce_expected_shapes() {
        let v = obj([("a", uint(3)), ("b", float(0.5)), ("c", text("x"))]);
        let s = serde_json::to_string(&v).unwrap();
        assert!(s.contains("\"a\":3") && s.contains("\"c\":\"x\""), "{s}");
    }

    #[test]
    fn host_cores_is_positive() {
        assert!(host_cores() >= 1);
    }

    #[test]
    fn metadata_has_all_v2_keys() {
        let m = serde_json::to_string(&metadata_v2()).unwrap();
        for key in ["lsim_threads", "git_commit", "host_cores"] {
            assert!(m.contains(key), "{m}");
        }
    }
}
