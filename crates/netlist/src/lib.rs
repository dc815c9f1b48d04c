#![forbid(unsafe_code)]

//! Gate/switch-level circuit representation.
//!
//! This crate is the structural substrate for the WUCS-86-19 reproduction:
//! it defines the four-valued logic system with drive strengths used by the
//! event-driven simulator (`logicsim-sim`), the component model
//! (unidirectional gates and bidirectional MOS switches, mirroring the
//! *lsim* simulator the paper's data was collected with), the [`Netlist`]
//! container with fanout/driver indices, and analysis passes
//! (channel-connected components, connectivity graphs, circuit
//! characteristics for the paper's Table 4).
//!
//! # Example
//!
//! Build a NAND latch and inspect its structure:
//!
//! ```
//! use logicsim_netlist::{NetlistBuilder, GateKind, Delay};
//!
//! let mut b = NetlistBuilder::new("latch");
//! let set = b.input("set_n");
//! let reset = b.input("reset_n");
//! let q = b.net("q");
//! let qn = b.net("qn");
//! b.gate(GateKind::Nand, &[set, qn], q, Delay::uniform(1));
//! b.gate(GateKind::Nand, &[reset, q], qn, Delay::uniform(1));
//! let netlist = b.finish().expect("valid netlist");
//! assert_eq!(netlist.num_gates(), 2);
//! assert_eq!(netlist.fanout(q).len(), 1);
//! ```

pub mod analyze;
pub mod bitplane;
pub mod builder;
mod columns;
pub mod component;
pub mod csr;
pub mod dot;
pub mod graph;
pub mod names;
pub mod netlist;
pub mod stats;
pub mod text;
pub mod value;

pub use analyze::{analyze, analyze_seeded, Code, Diagnostic, Report, Severity};
pub use bitplane::{BitPlanes, Plane, LANES};
pub use builder::{BuildError, NetlistBuilder};
pub use columns::ComponentColumns;
pub use component::{
    CompId, Component, ComponentKind, ComponentRef, Delay, GateKind, NetId, SwitchKind,
};
pub use csr::{Csr, CsrView};
pub use graph::{ChannelGroups, ConnectivityGraph, UnionFind};
pub use names::NetNames;
pub use netlist::Netlist;
pub use stats::{CircuitCharacteristics, Clocking, Technology};
pub use value::{Level, Signal, Strength};
