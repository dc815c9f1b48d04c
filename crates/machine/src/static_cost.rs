//! Pricing a simulation job *before it runs*: Eq. 10 over static
//! activity estimates.
//!
//! The paper's cost model (Eq. 1-10) consumes measured workload
//! parameters — evaluations `E` and message volume `M` from an actual
//! simulation trace. The static activity analysis
//! (`logicsim_netlist::analyze::dataflow::activity`) produces sound
//! upper bounds on the same quantities from the netlist and the
//! stimulus periodicity alone, so the same Eq. 10 structure can price
//! a job with *zero* simulated ticks:
//!
//! * `E/tick` — summed per-component evaluation density (a component
//!   evaluates when any input net toggles);
//! * `M_inf/tick` — summed per-net transition density times fanout
//!   (each transition is one message per reader on an
//!   infinite-processor machine); Eq. 6 scales this to `M_P`;
//! * busy fraction — the probability a tick schedules anything at
//!   all, bounding the per-tick synchronization term (the engines
//!   fast-forward idle ticks, so quiescent stretches pay no `t_SYNC`).
//!
//! One adjustment separates pricing from linting: the fixpoint widens
//! feedback loops to "toggles every tick", which is sound for LS0010
//! but absurd as an *expectation* — real state machines follow their
//! excitation. [`StaticCost::estimate`] therefore prices from
//! [`Activity::expected_densities`] — the same sensitivity algebra,
//! with loop contributions damped to follow the excitation entering
//! them — keeping the lint-facing bounds untouched.
//!
//! [`StaticCost::predict_runtime_ns`] prices these with measured (or
//! designed) time constants in the same Eq. 10 shape as
//! [`MeasuredParams`], but the two charge different quantities: here
//! the message term is Eq. 6's `M_P = M_inf (1 - 1/P)` and the sync
//! term runs over the predicted busy fraction of the simulated ticks,
//! while [`MeasuredParams`] charges every message the run actually
//! routed (none at `P = 1`) and syncs over the ticks it executed.
//! `validate_model`'s final section checks the static prediction lands
//! within 2x of the stopwatch on all five benchmark families.

use crate::calibrate::MeasuredParams;
use logicsim_core::partition_model::messages_approx;
use logicsim_netlist::analyze::dataflow::activity::Activity;
use logicsim_netlist::analyze::dataflow::seeds::InputSeeds;
use logicsim_netlist::analyze::dataflow::timing::Timing;
use logicsim_netlist::analyze::Levelization;
use logicsim_netlist::{CompId, ComponentRef, NetId, Netlist};

/// Statically predicted per-tick workload rates for one netlist under
/// one stimulus plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticCost {
    /// Predicted component evaluations per simulated tick (`E/T`).
    pub evals_per_tick: f64,
    /// Predicted infinite-processor messages per simulated tick
    /// (`M_inf/T`): transitions weighted by fanout.
    pub messages_per_tick: f64,
    /// Fraction of simulated ticks predicted to schedule at least one
    /// event, in `[0, 1]`; scales the synchronization term because
    /// the engines skip over quiescent ticks.
    pub busy_fraction: f64,
}

impl StaticCost {
    /// Prices `netlist` from the static activity fixpoint. `seeds`
    /// carries the stimulus periodicity (`None` assumes the
    /// unconstrained worst case, which prices every input as a
    /// once-per-tick toggler).
    #[must_use]
    pub fn estimate(netlist: &Netlist, seeds: Option<&InputSeeds>) -> StaticCost {
        let unconstrained;
        let seeds = match seeds {
            Some(s) => s,
            None => {
                unconstrained = InputSeeds::unconstrained(netlist);
                &unconstrained
            }
        };
        let levels = Levelization::compute(netlist);
        let activity = Activity::analyze(netlist, seeds, &levels);
        let est = activity.expected_densities(netlist, seeds, &levels);
        let evals_per_tick: f64 = (0..netlist.num_components())
            .map(|i| {
                let comp = netlist.component(CompId(i as u32));
                match comp {
                    ComponentRef::Input { net } => est[net.index()],
                    ComponentRef::Supply { .. } | ComponentRef::Pull { .. } => 0.0,
                    _ => {
                        let mut sum = 0.0;
                        comp.for_each_read(|r| sum += est[r.index()]);
                        sum.min(1.0)
                    }
                }
            })
            .sum();
        let mut messages_per_tick = 0.0;
        for i in 0..netlist.num_nets() {
            let net = NetId(i as u32);
            messages_per_tick += est[net.index()] * netlist.fanout(net).len() as f64;
        }
        StaticCost {
            evals_per_tick,
            messages_per_tick,
            busy_fraction: busy_fraction(netlist, seeds, &levels),
        }
    }

    /// Predicted evaluations over a `ticks`-long window.
    ///
    /// See [`StaticCost::estimate`] for how saturated feedback is
    /// re-priced before these rates are formed.
    #[must_use]
    pub fn evaluations(&self, ticks: u64) -> f64 {
        self.evals_per_tick * ticks as f64
    }

    /// Predicted cross-processor message volume over a `ticks`-long
    /// window on `p` processors, via Eq. 6's random-partitioning
    /// scaling `M_P = M_inf (1 - 1/P)`.
    #[must_use]
    pub fn messages(&self, ticks: u64, p: u32) -> f64 {
        messages_approx(self.messages_per_tick * ticks as f64, p.max(1))
    }

    /// Eq. 10 priced from the static rates:
    /// `R = busy_ticks * t_sync + max(beta * E * t_eval / P, M_P * t_msg)`,
    /// in nanoseconds. Single-processor jobs pay no message term.
    ///
    /// # Panics
    ///
    /// Panics if `beta < 1`.
    #[must_use]
    pub fn predict_runtime_ns(
        &self,
        ticks: u64,
        p: u32,
        beta: f64,
        t_sync_ns: f64,
        t_eval_ns: f64,
        t_msg_ns: f64,
    ) -> f64 {
        assert!(beta >= 1.0, "beta is at least 1, got {beta}");
        let p = p.max(1);
        let sync = self.busy_fraction * ticks as f64 * t_sync_ns;
        let eval = beta * self.evaluations(ticks) * t_eval_ns / f64::from(p);
        let comm = if p > 1 {
            self.messages(ticks, p) * t_msg_ns
        } else {
            0.0
        };
        sync + eval.max(comm)
    }

    /// [`StaticCost::predict_runtime_ns`] with the time constants a
    /// calibration run measured: the purely static workload estimate
    /// priced at this host's actual per-item costs. `ticks` is the
    /// window being priced (simulated ticks, not executed ones — the
    /// busy fraction models the difference).
    ///
    /// # Panics
    ///
    /// Panics if `beta < 1`.
    #[must_use]
    pub fn predict_with(&self, ticks: u64, params: &MeasuredParams, beta: f64) -> f64 {
        self.predict_runtime_ns(
            ticks,
            params.workers,
            beta,
            params.t_sync_ns(),
            params.t_eval_ns,
            params.t_msg_ns,
        )
    }
}

/// Fraction of simulated ticks expected to schedule at least one
/// event.
///
/// The engines fast-forward quiescent stretches, so the
/// synchronization term is only paid on *busy* ticks: ticks that fall
/// inside the settle wave following some stimulus event. The static
/// timing analysis bounds the settle span — the latest bounded
/// arrival after an input event (feedback windows are unbounded and
/// excluded; they follow the same excitation, not their own clock).
/// Each input with event density `d` then covers `d * (span + 1)` of
/// the timeline with its bursts, and under the independent-phase
/// assumption the busy fraction is the coverage union
/// `1 - prod_i (1 - min(1, d_i * (span + 1)))`.
fn busy_fraction(netlist: &Netlist, seeds: &InputSeeds, levels: &Levelization) -> f64 {
    let timing = Timing::analyze(netlist, seeds, levels);
    let mut span = 0u32;
    for i in 0..netlist.num_nets() {
        let w = timing.window(NetId(i as u32));
        if !w.is_empty() && !w.is_unbounded() {
            span = span.max(w.max);
        }
    }
    let mut idle = 1.0f64;
    for i in 0..netlist.num_components() {
        if let ComponentRef::Input { net } = netlist.component(CompId(i as u32)) {
            let d = seeds.get(net).copied().unwrap_or_default().density;
            idle *= 1.0 - (d * f64::from(span + 1)).min(1.0);
        }
    }
    1.0 - idle
}

#[cfg(test)]
mod tests {
    use super::*;
    use logicsim_netlist::{Delay, GateKind, NetlistBuilder};

    fn inverter_chain(k: usize) -> Netlist {
        let mut b = NetlistBuilder::new("chain");
        let mut prev = b.input("a");
        for i in 0..k {
            let next = b.net(format!("y{i}"));
            b.gate(GateKind::Not, &[prev], next, Delay::uniform(1));
            prev = next;
        }
        b.mark_output(prev);
        b.finish().unwrap()
    }

    #[test]
    fn unconstrained_chain_prices_full_activity() {
        // Unconstrained seeds toggle at density 0.5 (a free-running
        // input flips on average every other tick), so every net in
        // the chain carries density 0.5: the 5 components (input + 4
        // gates) evaluate at 2.5/tick, and the 4 single-reader nets
        // move 2.0 messages/tick. Five half-density nets still make
        // nearly every tick busy (the bound saturates at 1).
        let n = inverter_chain(4);
        let c = StaticCost::estimate(&n, None);
        assert!((c.evals_per_tick - 2.5).abs() < 1e-9, "{c:?}");
        assert!((c.messages_per_tick - 2.0).abs() < 1e-9, "{c:?}");
        assert!((c.busy_fraction - 1.0).abs() < 1e-9, "{c:?}");
    }

    #[test]
    fn slow_stimulus_scales_the_price_down() {
        use logicsim_netlist::analyze::dataflow::seeds::InputSeed;
        let n = inverter_chain(4);
        let mut seeds = InputSeeds::unconstrained(&n);
        seeds.set(
            n.find_net("a").unwrap(),
            InputSeed {
                density: 0.1,
                min_separation: 10,
                ..InputSeed::default()
            },
        );
        let c = StaticCost::estimate(&n, Some(&seeds));
        assert!(
            c.evals_per_tick < 0.6 && c.evals_per_tick > 0.4,
            "5 components at density 0.1: {c:?}"
        );
        assert!(c.busy_fraction < 0.6, "{c:?}");
        let fast = StaticCost::estimate(&n, None);
        assert!(
            c.predict_with(1_000, &sample_params(), 1.0)
                < fast.predict_with(1_000, &sample_params(), 1.0)
        );
    }

    #[test]
    fn eq10_shape_sync_plus_max_of_eval_and_comm() {
        let c = StaticCost {
            evals_per_tick: 2.0,
            messages_per_tick: 10.0,
            busy_fraction: 1.0,
        };
        // P=4: sync = 100*1000, eval = 2*1000*50/4 = 25_000,
        // comm = 10*1000*0.75*20 = 150_000 -> comm dominates.
        let r = c.predict_runtime_ns(1_000, 4, 1.0, 100.0, 50.0, 20.0);
        assert!((r - 250_000.0).abs() < 1e-6, "r = {r}");
        // P=1: no comm term; eval = 2*1000*50 = 100_000.
        let r1 = c.predict_runtime_ns(1_000, 1, 1.0, 100.0, 50.0, 20.0);
        assert!((r1 - 200_000.0).abs() < 1e-6, "r1 = {r1}");
    }

    fn sample_params() -> MeasuredParams {
        MeasuredParams {
            workers: 2,
            executed_ticks: 1_000,
            t_start_ns: 100.0,
            t_done_ns: 100.0,
            barrier_ns: 0.0,
            t_eval_ns: 50.0,
            t_msg_ns: 10.0,
            evaluations: 2_000,
            messages: 1_000,
        }
    }

    #[test]
    fn predict_with_uses_measured_constants() {
        let c = StaticCost {
            evals_per_tick: 2.0,
            messages_per_tick: 1.0,
            busy_fraction: 0.5,
        };
        let p = sample_params();
        // sync = 0.5*1000*200 = 100_000; eval = 2*1000*50/2 = 50_000;
        // comm = 1*1000*0.5*10 = 5_000.
        let r = c.predict_with(1_000, &p, 1.0);
        assert!((r - 150_000.0).abs() < 1e-6, "r = {r}");
    }
}
