//! `expected.json`: the blessed counts and digests per
//! `(workload, sizing, window, seed)`.
//!
//! Event-driven entries come from the serial `Simulator`; the parallel
//! workloads must reproduce them bit for bit. The bit-parallel entry
//! holds the serial replay of lane 0 (digest and `e_ref`, the events the
//! replay commits) plus the engine's own 64-lane digest, pinned.

use crate::json::{counts_from_json, counts_to_json, int, obj, Value};
use crate::workloads::{Sizing, Workload};
use std::collections::BTreeMap;
use std::path::Path;

/// Exact counts by name; digests are counts too.
pub type Counts = BTreeMap<String, u64>;

/// The counts of a serial reference run that a job must reproduce.
const TICK_KEYS: [&str; 6] = [
    "events",
    "evaluations",
    "busy_ticks",
    "idle_ticks",
    "messages_inf",
    "digest",
];

/// The counts of a serial lane-0 replay. `e_ref` is not compared (the
/// bit-parallel engine commits no events); it scales `events_per_s`.
const REPLAY_KEYS: [&str; 2] = ["e_ref", "digest_lane0"];

/// Scenario events of the bit-parallel window: a constant of the input.
pub const E_REF: &str = "e_ref";

/// The part of a reference run's counts that goes into an entry.
pub fn reference_entry(reference: &Counts) -> Counts {
    reference
        .iter()
        .filter(|(k, _)| TICK_KEYS.contains(&k.as_str()) || REPLAY_KEYS.contains(&k.as_str()))
        .map(|(k, &v)| (k.clone(), v))
        .collect()
}

/// Compares a job's counts with an entry; returns the differences.
pub fn verify(job: &Counts, entry: &Counts) -> Vec<String> {
    let mut diffs: Vec<String> = entry
        .iter()
        .filter(|(k, _)| k.as_str() != E_REF)
        .filter_map(|(k, &want)| match job.get(k) {
            Some(&got) if got == want => None,
            Some(&got) => Some(format!("{k}: got {got:#x}, expected {want:#x}")),
            None => Some(format!("{k}: missing from the job's counts")),
        })
        .collect();
    if job.get("unconverged_vectors").is_some_and(|&n| n > 0) {
        diffs.push("unconverged_vectors is not 0".into());
    }
    diffs
}

/// The blessed entries.
#[derive(Debug, Default)]
pub struct Expected {
    entries: BTreeMap<String, Counts>,
}

impl Expected {
    /// The key of one entry.
    pub fn key(w: &Workload, sizing: Sizing, seed: u64) -> String {
        format!(
            "{}/{}/{}/{seed:#x}",
            w.name,
            sizing.label(),
            sizing.ticks(w)
        )
    }

    /// Loads `expected.json`; a missing file is an empty set.
    pub fn load(path: &Path) -> Result<Expected, String> {
        let Ok(body) = std::fs::read_to_string(path) else {
            return Ok(Expected::default());
        };
        let doc: Value =
            serde_json::from_str(&body).map_err(|e| format!("{}: {e}", path.display()))?;
        let entries = doc
            .get("entries")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("{}: no `entries` object", path.display()))?
            .iter()
            .map(|(k, v)| counts_from_json(v).map(|c| (k.clone(), c)))
            .collect::<Result<_, _>>()?;
        Ok(Expected { entries })
    }

    /// Writes `expected.json`.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let doc = obj([
            ("schema", int(1)),
            (
                "entries",
                obj(self
                    .entries
                    .iter()
                    .map(|(k, c)| (k.clone(), counts_to_json(c)))),
            ),
        ]);
        let mut body = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        body.push('\n');
        std::fs::write(path, body).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// The entry for a run, if blessed.
    pub fn get(&self, w: &Workload, sizing: Sizing, seed: u64) -> Option<&Counts> {
        self.entries.get(&Expected::key(w, sizing, seed))
    }

    /// Sets an entry.
    pub fn set(&mut self, w: &Workload, sizing: Sizing, seed: u64, entry: Counts) {
        self.entries.insert(Expected::key(w, sizing, seed), entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(pairs: &[(&str, u64)]) -> Counts {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn verify_compares_entry_keys_only() {
        let entry = counts(&[("events", 5), ("digest", 9), ("e_ref", 77)]);
        assert!(verify(
            &counts(&[("events", 5), ("digest", 9), ("extra", 1)]),
            &entry
        )
        .is_empty());
        assert_eq!(
            verify(&counts(&[("events", 6), ("digest", 9)]), &entry).len(),
            1
        );
        assert_eq!(verify(&counts(&[("events", 5)]), &entry).len(), 1);
        let unconverged = counts(&[("events", 5), ("digest", 9), ("unconverged_vectors", 2)]);
        assert_eq!(verify(&unconverged, &entry).len(), 1);
    }

    #[test]
    fn reference_entry_keeps_the_blessed_keys() {
        let r = counts(&[("events", 1), ("event_list_peak", 2), ("digest", 3)]);
        assert_eq!(reference_entry(&r), counts(&[("events", 1), ("digest", 3)]));
    }
}
