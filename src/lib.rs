#![forbid(unsafe_code)]

//! # logicsim
//!
//! A full reproduction of Wong & Franklin, *Performance Analysis and
//! Design of a Logic Simulation Machine* (WUCS-86-19 / ISCA 1987).
//!
//! The paper models a class of multiprocessor logic-simulation machines
//! (`UI/GC/Q=P/P/L`) and evaluates 36 designs on workload statistics
//! measured from five VLSI circuits. This workspace rebuilds the whole
//! stack:
//!
//! * [`netlist`] — gate/switch-level circuit representation;
//! * [`sim`] — the event-driven simulator the workload data comes from
//!   (the *lsim* substitute), with a timing wheel, fixed-delay model and
//!   switch-level solver;
//! * [`circuits`] — parameterizable generators for the five benchmark
//!   chips;
//! * [`stats`] — workload characterization (Tables 5, 6, 8);
//! * [`core`] — **the paper's analytical model** (Eq. 1-16, Tables 7/9,
//!   Figures 2-5);
//! * [`partition`] — partitioning strategies and measured `M_P`/`beta`;
//! * [`machine`] — a cycle-level simulator of the machine itself, used
//!   to validate the model.
//!
//! The [`job`] module ties the stack together: one [`job::Job`] owns a
//! netlist's stimulus and engine (serial, parallel, bit-parallel, or a
//! serial vector replay) and runs the paper's methodology — apply
//! random vectors, warm up, then count over a window. [`measure`] is
//! that method over the benchmark circuits, extracting the model's
//! input workload.
//!
//! # Quickstart
//!
//! Predict the speed-up of a 10-processor pipelined machine on the
//! paper's average workload:
//!
//! ```
//! use logicsim::core::paper_data::average_workload_table8;
//! use logicsim::core::{speedup::speedup, BaseMachine, MachineDesign};
//!
//! let workload = average_workload_table8();
//! let base = BaseMachine::vax_11_750();
//! let design = MachineDesign::new(10, 5, 1.0, base.t_eval / 10.0, 3.0, 1.0);
//! let s = speedup(&workload, &design, &base, 1.0);
//! assert!(s > 400.0);
//! ```

pub use logicsim_circuits as circuits;
pub use logicsim_core as core;
pub use logicsim_machine as machine;
pub use logicsim_netlist as netlist;
pub use logicsim_partition as partition;
pub use logicsim_sim as sim;
pub use logicsim_stats as stats;

pub mod job;
pub mod measure;
pub mod sarif;

pub use measure::{
    measure_benchmark, measure_instance, MeasureOptions, MeasuredCircuit, MeasurementSummary,
};
