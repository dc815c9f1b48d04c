//! Synthetic workload generation.
//!
//! Synthetic traces exercise the machine simulator under controlled
//! conditions: when events are spread evenly (the analytical model's
//! assumption) the machine must agree with the model closely; skewed
//! variants quantify how fast the model degrades — the sensitivity
//! analysis the paper calls for.

use logicsim_sim::{EventRecord, TickRecord, TickTrace};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A parametric workload description.
///
/// ```
/// use logicsim_machine::synthetic::SyntheticWorkload;
/// let w = SyntheticWorkload::uniform(50, 450, 32.0, 2.0, 1_000);
/// let trace = w.generate(7);
/// assert_eq!(trace.busy_ticks(), 50);
/// assert!((trace.simultaneity() - 32.0).abs() < 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticWorkload {
    /// Busy ticks `B`.
    pub busy_ticks: u64,
    /// Idle ticks `I` (interleaved uniformly).
    pub idle_ticks: u64,
    /// Mean events per busy tick `N`.
    pub mean_simultaneity: f64,
    /// Mean fanout `F` (destinations per event).
    pub fanout: f64,
    /// Number of circuit components events are attributed to.
    pub components: u32,
    /// Skew: 0.0 = events spread evenly over busy ticks (the model's
    /// assumption); 1.0 = heavily bursty (a few ticks carry most
    /// events).
    pub burstiness: f64,
    /// Component-space skew: 0.0 = sources uniform over components;
    /// 1.0 = sources concentrated on a small hot set (which random
    /// partitioning turns into processor-load imbalance, `beta > 1`).
    pub hotspot: f64,
}

impl SyntheticWorkload {
    /// An even workload matching the model's assumptions.
    #[must_use]
    pub fn uniform(
        busy_ticks: u64,
        idle_ticks: u64,
        mean_simultaneity: f64,
        fanout: f64,
        components: u32,
    ) -> SyntheticWorkload {
        SyntheticWorkload {
            busy_ticks,
            idle_ticks,
            mean_simultaneity,
            fanout,
            components,
            burstiness: 0.0,
            hotspot: 0.0,
        }
    }

    /// The paper's Table 8 average workload, scaled down by `scale`
    /// (e.g. `scale = 100` gives B=81, E~103k) so machine simulations
    /// stay fast while keeping the same ratios.
    #[must_use]
    pub fn paper_average(scale: u64) -> SyntheticWorkload {
        assert!(scale >= 1);
        SyntheticWorkload::uniform(8_106 / scale, 51_894 / scale, 1_279.0, 2.1, 100_000)
    }

    /// Generates the tick trace with a seeded RNG.
    #[must_use]
    pub fn generate(&self, seed: u64) -> TickTrace {
        assert!(self.busy_ticks >= 1, "need at least one busy tick");
        assert!(self.components >= 2, "need at least two components");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let span = self.busy_ticks + self.idle_ticks;
        // Choose busy tick positions: evenly spaced.
        let stride = span as f64 / self.busy_ticks as f64;
        let mut ticks = Vec::with_capacity(self.busy_ticks as usize);
        for b in 0..self.busy_ticks {
            let tick = (b as f64 * stride) as u64;
            // Events this tick: mean N, modulated by burstiness (a
            // two-point distribution preserving the mean: heavy ticks
            // carry (1 + 4*burstiness) * N, light ticks the remainder).
            let heavy = rng.gen_bool(0.2);
            let factor = if self.burstiness == 0.0 {
                1.0
            } else if heavy {
                1.0 + 4.0 * self.burstiness
            } else {
                1.0 - self.burstiness
            };
            let n = (self.mean_simultaneity * factor).round().max(1.0) as usize;
            let mut events = Vec::with_capacity(n);
            for _ in 0..n {
                let source = self.draw_component(&mut rng);
                // Fanout: floor(F) destinations plus one more with
                // probability frac(F), preserving the mean.
                let base = self.fanout.floor() as usize;
                let extra = usize::from(rng.gen_bool(self.fanout.fract()));
                let dests = (0..base + extra)
                    .map(|_| {
                        let mut d = rng.gen_range(0..self.components);
                        if d == source {
                            d = (d + 1) % self.components;
                        }
                        d
                    })
                    .collect();
                events.push(EventRecord { source, dests });
            }
            ticks.push(TickRecord { tick, events });
        }
        TickTrace {
            start: 0,
            end: span,
            ticks,
        }
    }

    fn draw_component(&self, rng: &mut ChaCha8Rng) -> u32 {
        if self.hotspot > 0.0 && rng.gen_bool(self.hotspot) {
            // Hot set: the first 1% of components (at least 1).
            let hot = (self.components / 100).max(1);
            rng.gen_range(0..hot)
        } else {
            rng.gen_range(0..self.components)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_trace_matches_requested_aggregates() {
        let w = SyntheticWorkload::uniform(100, 900, 50.0, 2.0, 1_000);
        let t = w.generate(1);
        assert_eq!(t.busy_ticks(), 100);
        assert_eq!(t.idle_ticks(), 900);
        let n = t.simultaneity();
        assert!((n - 50.0).abs() < 2.0, "N = {n}");
        let f = t.total_messages_inf() as f64 / t.total_events() as f64;
        assert!((f - 2.0).abs() < 0.15, "F = {f}");
    }

    #[test]
    fn fractional_fanout_preserves_mean() {
        let w = SyntheticWorkload::uniform(200, 0, 100.0, 2.5, 1_000);
        let t = w.generate(2);
        let f = t.total_messages_inf() as f64 / t.total_events() as f64;
        assert!((f - 2.5).abs() < 0.05, "F = {f}");
    }

    #[test]
    fn generation_is_deterministic() {
        let w = SyntheticWorkload::uniform(10, 10, 5.0, 2.0, 100);
        assert_eq!(w.generate(7), w.generate(7));
        assert_ne!(w.generate(7), w.generate(8));
    }

    #[test]
    fn burstiness_increases_tick_variance() {
        let even = SyntheticWorkload::uniform(200, 0, 100.0, 2.0, 1_000);
        let mut bursty = even.clone();
        bursty.burstiness = 0.8;
        let var = |t: &logicsim_sim::TickTrace| {
            let counts: Vec<u64> = t.ticks.iter().map(|t| t.events.len() as u64).collect();
            let mean = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
            counts
                .iter()
                .map(|&c| (c as f64 - mean).powi(2))
                .sum::<f64>()
                / counts.len() as f64
        };
        assert!(var(&bursty.generate(3)) > 4.0 * var(&even.generate(3)));
    }

    #[test]
    fn hotspot_concentrates_sources() {
        let mut w = SyntheticWorkload::uniform(50, 0, 100.0, 2.0, 1_000);
        w.hotspot = 0.9;
        let t = w.generate(4);
        let hot_events = t
            .ticks
            .iter()
            .flat_map(|tk| tk.events.iter())
            .filter(|e| e.source < 10)
            .count();
        let total: usize = t.ticks.iter().map(|tk| tk.events.len()).sum();
        assert!(
            hot_events as f64 / total as f64 > 0.5,
            "{hot_events}/{total}"
        );
    }

    #[test]
    fn paper_average_ratios() {
        let w = SyntheticWorkload::paper_average(100);
        let t = w.generate(5);
        let bf = t.busy_ticks() as f64 / (t.busy_ticks() + t.idle_ticks()) as f64;
        assert!((bf - 0.1351).abs() < 0.01, "B/(B+I) = {bf}");
    }
}
