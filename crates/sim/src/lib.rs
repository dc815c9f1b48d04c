//! Event-driven gate/switch-level logic simulator.
//!
//! This crate substitutes for *lsim*, the UNIX/C simulator Wong & Franklin
//! collected their workload data with `[CH85, CH86a]`. It implements the
//! paper's **fixed delay model** (separate low-to-high and high-to-low
//! propagation times per gate), an Ulrich-style timing wheel for
//! near-constant-time event-list manipulation \[UL78\], four-valued logic
//! with drive strengths, and a channel-connected-component switch-level
//! solver for bidirectional MOS switches.
//!
//! The simulator is instrumented to measure exactly the workload
//! parameters the paper's architecture model consumes (Table 3):
//! busy ticks `B`, idle ticks `I`, event count `E`, message volume
//! `M_inf`, per-tick event simultaneity, component activity, and fanout.
//!
//! # Example
//!
//! ```
//! use logicsim_netlist::{NetlistBuilder, GateKind, Delay, Level};
//! use logicsim_sim::Simulator;
//!
//! let mut b = NetlistBuilder::new("inv");
//! let a = b.input("a");
//! let y = b.net("y");
//! b.gate(GateKind::Not, &[a], y, Delay::uniform(2));
//! let n = b.finish().expect("valid");
//!
//! let mut sim = Simulator::new(&n).expect("passes pre-flight");
//! sim.set_input(a, Level::Zero);
//! sim.run_until(10);
//! assert_eq!(sim.level(y), Level::One);
//! ```

pub mod bitpar;
/// The cyclic-circuit generator of this crate's test suites (shared with
/// `tests/proptests.rs`).
#[cfg(test)]
#[path = "../tests/common/cyclic.rs"]
mod cyclic;
pub mod engine;
pub mod instrument;
pub mod obs;
pub mod par_engine;
mod par_sync;
mod phase_check;
pub mod solver;
pub mod stimulus;
mod sync_shim;
pub mod trace;
pub mod vcd;
pub mod wheel;
mod worklist;

pub use bitpar::{BitParSim, BitParStats};
pub use engine::{PreflightError, SimConfig, Simulator};
pub use instrument::{ActivityProfile, WorkloadCounters};
pub use obs::{LaneReport, ObsReport, Phase, PhaseSample, PhaseTotal, NUM_PHASES};
pub use par_engine::{InputFrame, ParSimulator};
pub use stimulus::{RandomStimulus, SignalRole, Stimulus64, StimulusSpec};
pub use trace::{EventRecord, TickRecord, TickTrace};
pub use vcd::VcdRecorder;
pub use wheel::TimingWheel;
