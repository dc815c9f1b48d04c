//! Model term for the *oblivious* bit-parallel backend, next to Eq. 10.
//!
//! The paper's Eq. 10 prices an event-driven machine: per tick it pays
//! synchronization, and per event it pays evaluation (`tE`) and fanout
//! messages (`tM`). An oblivious backend in the Yorktown Simulation
//! Engine style that the paper surveys has *no* per-event terms — it
//! evaluates every compiled gate on every sweep, rank by rank, whether
//! or not its inputs changed:
//!
//! ```text
//! evaluations / vector = G × R          (G gates, R ranks)
//! R_obl = G × R × t_kernel / W          (W scenarios per word)
//! ```
//!
//! `G × R` is the oblivious *bound*, the price of a machine that knows
//! neither a topological order nor which inputs moved. The engine this
//! repository runs (`logicsim_sim::bitpar`) is not that machine: it
//! sweeps in rank order (one pass, `G`) and has skipped every op whose
//! input planes did not change since PR 7 — inside feedback clusters
//! too since PR 19 — so its measured evaluations per vector sit below
//! `G` (`bitpar_study` prints them: 91 of 2 062 ops on Priority Q., 49
//! of 1 175 on RTP Chip). The model below prices the bound.
//!
//! There is no `tE` scheduling cost and no `tM` message cost; the only
//! parameter is the raw kernel time `t_kernel`, and the whole sweep is
//! amortized over `W` bit-packed stimulus scenarios (64 on this host's
//! `u64` planes). Setting the per-scenario costs equal recovers the
//! **break-even activity**: below it the event-driven machine wins per
//! scenario, above it (or with enough lanes) the sweeps win —
//!
//! ```text
//! a* = R × t_kernel / (W × tE)
//! ```
//!
//! With the paper's Table 6 activities (0.1–3%) and `tE` in the
//! hundreds of nanoseconds, `W = 64` lanes put `a*` well below measured
//! activity for shallow circuits: even a machine that evaluated
//! everything would pay off there, and the compiled backend
//! (`logicsim_sim::bitpar`), which evaluates only what moved in some
//! lane, pays off sooner.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Parameters of the oblivious bit-parallel sweep backend.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObliviousParams {
    /// Gates in the compiled region (`G`).
    pub gates: u64,
    /// Combinational depth of the compiled region (`R` ranks).
    pub ranks: u32,
    /// Scenarios packed per machine word (`W`; 64 for `u64` planes).
    pub lanes: u32,
    /// Cost of one bit-parallel gate kernel evaluation, ns (covers all
    /// `W` lanes at once).
    pub t_kernel_ns: f64,
}

impl ObliviousParams {
    /// Gate evaluations one sweep performs (`G`; each covers all lanes).
    #[must_use]
    pub fn evaluations_per_sweep(&self) -> u64 {
        self.gates
    }

    /// Gate evaluations charged per settled input vector: `G × R`, the
    /// oblivious bound where every gate is swept once per rank so a
    /// change can cross the whole depth. (The rank-ordered compiled
    /// sweep in `logicsim_sim::bitpar` settles in a single pass of at
    /// most `G` evaluations, and runs only the ops whose inputs moved;
    /// `G × R` is the conservative model term for a machine without
    /// topological ordering.)
    #[must_use]
    pub fn evaluations_per_vector(&self) -> u64 {
        self.gates * u64::from(self.ranks.max(1))
    }

    /// Modeled time to settle one input vector across all lanes, ns.
    /// No `tE`, no `tM`: only raw kernel time.
    #[must_use]
    pub fn vector_time_ns(&self) -> f64 {
        self.evaluations_per_vector() as f64 * self.t_kernel_ns
    }

    /// Modeled time per *scenario* (one lane's vector), ns: the sweep
    /// cost amortized over the word width.
    #[must_use]
    pub fn scenario_time_ns(&self) -> f64 {
        self.vector_time_ns() / f64::from(self.lanes.max(1))
    }

    /// Break-even circuit activity against an event-driven engine whose
    /// per-evaluation cost is `t_eval_ns` (the Eq. 10 `tE`): with
    /// activity `a`, the event engine evaluates `a × G` gates per
    /// vector per scenario, so the oblivious backend wins per scenario
    /// whenever `a > R × t_kernel / (W × tE)`.
    #[must_use]
    pub fn break_even_activity(&self, t_eval_ns: f64) -> f64 {
        if t_eval_ns <= 0.0 {
            return f64::INFINITY;
        }
        f64::from(self.ranks.max(1)) * self.t_kernel_ns / (f64::from(self.lanes.max(1)) * t_eval_ns)
    }

    /// Per-scenario speedup over an event-driven engine that spends
    /// `event_ns_per_scenario` nanoseconds settling the same vector for
    /// one scenario. Returns `f64::INFINITY` for a degenerate (empty)
    /// sweep.
    #[must_use]
    pub fn speedup_over(&self, event_ns_per_scenario: f64) -> f64 {
        let s = self.scenario_time_ns();
        if s <= 0.0 {
            return f64::INFINITY;
        }
        event_ns_per_scenario / s
    }
}

impl fmt::Display for ObliviousParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "G={} R={} W={} t_kernel={:.1}ns -> {:.0}ns/vector ({:.1}ns/scenario)",
            self.gates,
            self.ranks,
            self.lanes,
            self.t_kernel_ns,
            self.vector_time_ns(),
            self.scenario_time_ns()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ObliviousParams {
        ObliviousParams {
            gates: 1_000,
            ranks: 10,
            lanes: 64,
            t_kernel_ns: 2.0,
        }
    }

    #[test]
    fn evaluations_are_gates_times_ranks() {
        assert_eq!(sample().evaluations_per_sweep(), 1_000);
        assert_eq!(sample().evaluations_per_vector(), 10_000);
    }

    #[test]
    fn vector_time_has_no_event_terms() {
        // 10_000 evals * 2 ns, nothing else.
        assert!((sample().vector_time_ns() - 20_000.0).abs() < 1e-9);
        assert!((sample().scenario_time_ns() - 312.5).abs() < 1e-9);
    }

    #[test]
    fn break_even_activity_matches_hand_calculation() {
        // a* = R*t_kernel / (W*tE) = 10*2 / (64*400) = 0.00078125.
        let a = sample().break_even_activity(400.0);
        assert!((a - 0.000_781_25).abs() < 1e-12, "a* = {a}");
        assert!(sample().break_even_activity(0.0).is_infinite());
    }

    #[test]
    fn speedup_is_event_over_scenario_time() {
        // event 3125 ns/scenario over 312.5 ns/scenario = 10x.
        assert!((sample().speedup_over(3_125.0) - 10.0).abs() < 1e-9);
        let empty = ObliviousParams {
            gates: 0,
            ..sample()
        };
        assert!(empty.speedup_over(1.0).is_infinite());
    }

    #[test]
    fn degenerate_ranks_and_lanes_clamp_to_one() {
        let p = ObliviousParams {
            gates: 5,
            ranks: 0,
            lanes: 0,
            t_kernel_ns: 1.0,
        };
        assert_eq!(p.evaluations_per_vector(), 5);
        assert!((p.scenario_time_ns() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_all_parameters() {
        let s = sample().to_string();
        for needle in ["G=1000", "R=10", "W=64", "t_kernel=2.0ns"] {
            assert!(s.contains(needle), "missing {needle} in {s}");
        }
    }
}
