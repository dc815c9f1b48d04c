//! Tick-level event traces.
//!
//! A [`TickTrace`] records, for every busy tick, which components
//! produced output-change events and which components each event fanned
//! out to. This is the interface between the software simulator and the
//! rest of the reproduction:
//!
//! * `logicsim-stats` derives workload parameters (B, E, simultaneity
//!   distribution, imbalance beta) from it,
//! * `logicsim-partition` computes measured message volumes `M_P` from
//!   the (source, destination) pairs,
//! * `logicsim-machine` replays it through the cycle-level machine
//!   simulator to validate the analytical model.

use serde::{Deserialize, Serialize};

/// One output-change event: the source component and its destinations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Component whose output changed (index into the netlist).
    pub source: u32,
    /// Components the change propagates to (fanout of the changed net).
    pub dests: Vec<u32>,
}

impl EventRecord {
    /// Number of messages this event generates when every destination
    /// lives on a different processor (the `M_inf` contribution).
    #[must_use]
    pub fn fanout(&self) -> usize {
        self.dests.len()
    }
}

/// All events applied during one busy tick.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TickRecord {
    /// Absolute simulation tick.
    pub tick: u64,
    /// Events applied at this tick, in application order.
    pub events: Vec<EventRecord>,
}

/// A trace of every busy tick in a simulation run.
///
/// Idle ticks are implicit: any tick in `[start, end)` without a record
/// is idle, which keeps the trace proportional to `E` rather than to
/// simulated time (the paper's circuits are idle at 76-99% of ticks).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TickTrace {
    /// First tick covered by the trace (inclusive).
    pub start: u64,
    /// Last tick covered (exclusive); `end - start = B + I`.
    pub end: u64,
    /// Busy ticks, in increasing tick order.
    pub ticks: Vec<TickRecord>,
}

impl TickTrace {
    /// Creates an empty trace covering no time.
    #[must_use]
    pub fn new() -> TickTrace {
        TickTrace::default()
    }

    /// Number of busy ticks (`B`).
    #[must_use]
    pub fn busy_ticks(&self) -> u64 {
        self.ticks.len() as u64
    }

    /// Number of idle ticks (`I`).
    #[must_use]
    pub fn idle_ticks(&self) -> u64 {
        (self.end - self.start).saturating_sub(self.busy_ticks())
    }

    /// Total events (`E`).
    #[must_use]
    pub fn total_events(&self) -> u64 {
        self.ticks.iter().map(|t| t.events.len() as u64).sum()
    }

    /// Total messages in the fully-partitioned limit (`M_inf`).
    #[must_use]
    pub fn total_messages_inf(&self) -> u64 {
        self.ticks
            .iter()
            .flat_map(|t| t.events.iter().map(|e| e.fanout() as u64))
            .sum()
    }

    /// Average event simultaneity `N = E / B`, the paper's measure of
    /// exploitable parallelism. Zero when there are no busy ticks.
    #[must_use]
    pub fn simultaneity(&self) -> f64 {
        let b = self.busy_ticks();
        if b == 0 {
            0.0
        } else {
            self.total_events() as f64 / b as f64
        }
    }

    /// Iterates over `(source, dest)` component pairs of every message,
    /// for measured `M_P` computation under a concrete partition.
    pub fn message_pairs(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.ticks.iter().flat_map(|t| {
            t.events
                .iter()
                .flat_map(|e| e.dests.iter().map(move |&d| (e.source, d)))
        })
    }

    /// Truncates the trace to ticks in `[from, to)`, adjusting the
    /// covered span; used to discard initialization transients before
    /// measuring steady-state statistics, as the paper did ("until
    /// aggregate statistics remained stable").
    #[must_use]
    pub fn window(&self, from: u64, to: u64) -> TickTrace {
        TickTrace {
            start: from.max(self.start),
            end: to.min(self.end),
            ticks: self
                .ticks
                .iter()
                .filter(|t| t.tick >= from && t.tick < to)
                .cloned()
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TickTrace {
        TickTrace {
            start: 0,
            end: 10,
            ticks: vec![
                TickRecord {
                    tick: 2,
                    events: vec![
                        EventRecord {
                            source: 0,
                            dests: vec![1, 2],
                        },
                        EventRecord {
                            source: 3,
                            dests: vec![4],
                        },
                    ],
                },
                TickRecord {
                    tick: 7,
                    events: vec![EventRecord {
                        source: 1,
                        dests: vec![0, 2, 3],
                    }],
                },
            ],
        }
    }

    #[test]
    fn aggregate_counts() {
        let t = sample();
        assert_eq!(t.busy_ticks(), 2);
        assert_eq!(t.idle_ticks(), 8);
        assert_eq!(t.total_events(), 3);
        assert_eq!(t.total_messages_inf(), 6);
        assert!((t.simultaneity() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn message_pairs_enumerated() {
        let t = sample();
        let pairs: Vec<_> = t.message_pairs().collect();
        assert_eq!(pairs, vec![(0, 1), (0, 2), (3, 4), (1, 0), (1, 2), (1, 3)]);
    }

    #[test]
    fn windowing_discards_warmup() {
        let t = sample();
        let w = t.window(5, 10);
        assert_eq!(w.busy_ticks(), 1);
        assert_eq!(w.idle_ticks(), 4);
        assert_eq!(w.total_events(), 1);
    }

    #[test]
    fn empty_trace_is_sane() {
        let t = TickTrace::new();
        assert_eq!(t.busy_ticks(), 0);
        assert_eq!(t.idle_ticks(), 0);
        assert_eq!(t.simultaneity(), 0.0);
    }
}
