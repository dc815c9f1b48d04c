//! Ternary abstract interpretation over the optimizer work graph.
//!
//! The analysis itself — the Kleene lattice, the concrete transfer
//! functions, switch-group X-conservatism — lives in
//! [`dataflow::ternary`](crate::analyze::dataflow::ternary), running
//! on the generic monotone-framework engine. This module only adapts
//! the optimizer's mutable [`Work`] graph to the engine's
//! [`TernaryView`] topology trait: live components come from the
//! tombstone-aware `comps` vector and terminal status from the
//! optimizer's own switch-terminal count, so every pass of the
//! optimizer re-solves against the current (partially rewritten)
//! graph.

use super::Work;
use crate::analyze::dataflow::ternary::{self, TernaryView};
use crate::component::ComponentRef;
use crate::value::Level;

impl TernaryView for Work {
    fn num_nets(&self) -> usize {
        Work::num_nets(self)
    }

    fn for_each_driver(&self, net: u32, f: &mut dyn FnMut(ComponentRef<'_>)) {
        for &d in &self.drivers[net as usize] {
            if let Some(comp) = &self.comps[d as usize] {
                f(comp.as_ref());
            }
        }
    }

    fn for_each_reader(&self, net: u32, f: &mut dyn FnMut(ComponentRef<'_>)) {
        for &r in &self.readers[net as usize] {
            if let Some(comp) = &self.comps[r as usize] {
                f(comp.as_ref());
            }
        }
    }

    fn is_terminal(&self, net: u32) -> bool {
        self.terminal(net as usize)
    }
}

/// Runs the abstract interpretation to fixpoint. Returns the per-net
/// abstract values and the number of rounds taken in the Jacobi sense
/// (the deepest chain of value refinements plus the final no-change
/// verification), which the optimizer reports as `absint_rounds`.
pub(super) fn interpret(w: &Work) -> (Vec<Level>, u32) {
    ternary::solve_view(w)
}
