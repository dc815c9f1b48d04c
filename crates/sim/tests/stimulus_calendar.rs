//! The calendar-driven [`RandomStimulus`] against the full scan it
//! replaced.
//!
//! `FullScan` below is the driver as it was before the calendar: every
//! call evaluates every input at `tick` and hands every level to the
//! sink. (Its one edit is that `tick + phase` is summed in `u128`, so
//! it is defined for the arbitrary phases generated here.) The property
//! is that, from the same seed and over any sequence of ticks, both
//! leave every input holding the same level after every call, and both
//! have drawn the same number of random decisions.

use logicsim_netlist::{Level, NetId};
use logicsim_sim::{RandomStimulus, SignalRole};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

struct FullScan {
    inputs: Vec<(NetId, SignalRole)>,
    levels: Vec<Level>,
    rng: ChaCha8Rng,
}

impl FullScan {
    fn new(inputs: Vec<(NetId, SignalRole)>, seed: u64) -> FullScan {
        let levels = inputs
            .iter()
            .map(|(_, role)| match role {
                SignalRole::Const(l) => *l,
                SignalRole::Pulse { active, .. } => *active,
                _ => Level::Zero,
            })
            .collect();
        FullScan {
            inputs,
            levels,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    fn level_at(&mut self, idx: usize, tick: u64) -> Level {
        match self.inputs[idx].1 {
            SignalRole::Const(l) => l,
            SignalRole::Clock { half_period, phase } => {
                if tick < phase {
                    Level::Zero
                } else {
                    Level::from_bool(((tick - phase) / half_period) % 2 == 1)
                }
            }
            SignalRole::Random {
                period,
                phase,
                toggle_prob,
            } => {
                if (u128::from(tick) + u128::from(phase)).is_multiple_of(u128::from(period))
                    && self.rng.gen_bool(toggle_prob)
                {
                    self.levels[idx] = self.levels[idx].not();
                }
                self.levels[idx]
            }
            SignalRole::Pulse { active, width } => {
                if tick < width {
                    active
                } else {
                    active.not()
                }
            }
        }
    }

    fn apply_with(&mut self, tick: u64, mut set: impl FnMut(NetId, Level)) {
        for idx in 0..self.inputs.len() {
            let level = self.level_at(idx, tick);
            let net = self.inputs[idx].0;
            set(net, level);
        }
    }
}

/// One to 23 inputs over all four roles: periods 1..64, phases near
/// the run or anywhere in `u64`, toggle probabilities 0, 1 and between.
fn roles() -> impl Strategy<Value = Vec<SignalRole>> {
    any::<u64>().prop_perturb(|_, mut rng| {
        (0..rng.gen_range(1..24))
            .map(|_| {
                let period = rng.gen_range(1u64..64);
                let phase = if rng.gen_bool(0.5) {
                    rng.gen_range(0u64..200)
                } else {
                    rng.gen_range(0..=u64::MAX)
                };
                let level = [Level::Zero, Level::One, Level::X][rng.gen_range(0..3usize)];
                match rng.gen_range(0..4u32) {
                    0 => SignalRole::Clock {
                        half_period: period,
                        phase,
                    },
                    1 => SignalRole::Random {
                        period,
                        phase,
                        toggle_prob: match rng.gen_range(0..4u32) {
                            0 => 0.0,
                            1 => 1.0,
                            _ => rng.gen_range(0.0..1.0),
                        },
                    },
                    2 => SignalRole::Const(level),
                    _ => SignalRole::Pulse {
                        active: level,
                        width: rng.gen_range(0u64..80),
                    },
                }
            })
            .collect()
    })
}

/// Every scripted tick stays below this one, where the probes draw.
const END: u64 = 10_000;
const PROBE_PERIOD: u64 = 1 << 40;
const PROBES: usize = 32;

proptest! {
    #[test]
    fn calendar_holds_what_the_full_scan_holds(
        roles in roles(),
        rng_seed in any::<u64>(),
        start in 0u64..100,
        steps in proptest::collection::vec((0u8..4, 2u64..40), 1..150),
        back_at in any::<usize>(),
        back_by in 0u64..60,
    ) {
        let mut inputs: Vec<(NetId, SignalRole)> = roles
            .into_iter()
            .enumerate()
            .map(|(i, role)| (NetId(i as u32), role))
            .collect();
        // Probes: random data whose only draw inside the run is at END.
        // If the two drivers have drawn different numbers of decisions
        // by then, their 32 probe levels differ.
        for _ in 0..PROBES {
            inputs.push((
                NetId(inputs.len() as u32),
                SignalRole::Random {
                    period: PROBE_PERIOD,
                    phase: PROBE_PERIOD - END,
                    toggle_prob: 0.5,
                },
            ));
        }
        let n = inputs.len();
        let mut reference = FullScan::new(inputs.clone(), rng_seed);
        let mut calendar = RandomStimulus::new(inputs, rng_seed);

        let mut ticks = vec![start];
        let back_at = back_at % steps.len();
        for (i, &(kind, skip)) in steps.iter().enumerate() {
            let last = *ticks.last().unwrap();
            ticks.push(if i == back_at {
                last.saturating_sub(back_by) // back_by 0: the same tick again
            } else if kind == 0 {
                last + skip
            } else {
                last + 1
            });
        }
        prop_assert!(*ticks.iter().max().unwrap() < END);
        ticks.push(END);

        let mut want: Vec<Option<Level>> = vec![None; n];
        let mut held: Vec<Option<Level>> = vec![None; n];
        for (call, &tick) in ticks.iter().enumerate() {
            reference.apply_with(tick, |net, level| want[net.index()] = Some(level));
            let mut handed_over = 0;
            calendar.apply_with(tick, |net, level| {
                // Change-only contract: after the first call the sink
                // sees an input only when its level differs.
                assert!(call == 0 || held[net.index()] != Some(level), "tick {tick} {net}");
                held[net.index()] = Some(level);
                handed_over += 1;
            });
            if call == 0 {
                prop_assert_eq!(handed_over, n, "the first call hands over every input");
            }
            prop_assert_eq!(&held, &want, "call {} at tick {}", call, tick);
        }
    }
}
