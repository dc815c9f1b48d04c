//! The paper's taxonomy of logic simulation architectures (Table 2).
//!
//! An architecture is classified by its time-control mechanisms (time
//! advance and synchronization), the number of event lists `Q`, and the
//! event/function evaluation resources (`P` processors of pipeline
//! length `L`). The class analyzed in the paper — and implemented by
//! `logicsim-machine` — is `UI/GC/Q=P/P/L`, of which the ZYCAD
//! LE-series machines were commercial representatives.

use serde::{Deserialize, Serialize};
use std::fmt;

/// How the simulation clock advances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TimeAdvance {
    /// Unit increment: the clock visits every tick, busy or idle.
    UnitIncrement,
    /// Event-based increment: the clock jumps to the next scheduled
    /// event time.
    EventBased,
}

impl fmt::Display for TimeAdvance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TimeAdvance::UnitIncrement => "UI",
            TimeAdvance::EventBased => "EI",
        })
    }
}

/// How processors agree on the current simulation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TimeSync {
    /// A single global clock maintained by a master processor.
    GlobalClock,
    /// Per-processor local clocks (Chandy-Misra style asynchronous
    /// distributed simulation).
    LocalClock,
}

impl fmt::Display for TimeSync {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TimeSync::GlobalClock => "GC",
            TimeSync::LocalClock => "LC",
        })
    }
}

/// A point in the taxonomy: `TA/TS/Q=q/P=p/L=l`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ArchClass {
    /// Time advance mechanism.
    pub time_advance: TimeAdvance,
    /// Time synchronization mechanism.
    pub time_sync: TimeSync,
    /// Number of event lists.
    pub queues: u32,
    /// Number of event/function evaluators.
    pub processors: u32,
    /// Pipeline stages per evaluator.
    pub pipeline_depth: u32,
}

impl ArchClass {
    /// The class analyzed by the paper: `UI/GC/Q=P/P/L` with one event
    /// list per processor.
    #[must_use]
    pub fn paper_class(processors: u32, pipeline_depth: u32) -> ArchClass {
        ArchClass {
            time_advance: TimeAdvance::UnitIncrement,
            time_sync: TimeSync::GlobalClock,
            queues: processors,
            processors,
            pipeline_depth,
        }
    }
}

impl fmt::Display for ArchClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}/Q={}/P={}/L={}",
            self.time_advance, self.time_sync, self.queues, self.processors, self.pipeline_depth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_notation() {
        let c = ArchClass {
            time_advance: TimeAdvance::UnitIncrement,
            time_sync: TimeSync::GlobalClock,
            queues: 4,
            processors: 4,
            pipeline_depth: 5,
        };
        assert_eq!(c.to_string(), "UI/GC/Q=4/P=4/L=5");
    }
}
