//! The calendar-driven [`RandomStimulus`] against the full scan it
//! replaced, and [`Stimulus64`] against one `RandomStimulus` per lane.
//!
//! `FullScan` below is the driver as it was before the calendar: every
//! call evaluates every input at `tick` and hands every level to the
//! sink. (Its one edit is that `tick + phase` is summed in `u128`, so
//! it is defined for the arbitrary phases generated here.) The property
//! is that, from the same seed and over any sequence of ticks, both
//! leave every input holding the same level after every call, and both
//! have drawn the same number of random decisions. The same sequence
//! drives a `Stimulus64` at 1, 7 or 64 lanes: after every call, lane
//! `l` of every input's plane holds what a `RandomStimulus` seeded
//! `Stimulus64::lane_seed(seed, l)` holds, and every other lane is `X`.

use logicsim_netlist::{Delay, GateKind, Level, NetId, Netlist, NetlistBuilder, Plane, LANES};
use logicsim_sim::{RandomStimulus, SignalRole, Stimulus64, StimulusSpec};
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
/// the run, near `u64::MAX` (where `tick + phase` overflows) or anywhere
/// in `u64`, toggle probabilities 0, 1 and between.
fn roles() -> impl Strategy<Value = Vec<SignalRole>> {
    any::<u64>().prop_perturb(|_, mut rng| {
        (0..rng.gen_range(1..24))
            .map(|_| {
                let period = rng.gen_range(1u64..64);
                let phase = match rng.gen_range(0..4u32) {
                    0 | 1 => rng.gen_range(0u64..200),
                    2 => u64::MAX - rng.gen_range(0u64..200),
                    _ => rng.gen_range(0..=u64::MAX),
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

/// A netlist with one input `i<k>` per role, each read by a buffer, and
/// the spec that assigns role `k` to input `i<k>`.
fn circuit(roles: &[SignalRole]) -> (Netlist, StimulusSpec) {
    let mut b = NetlistBuilder::new("inputs");
    let mut spec = StimulusSpec::new();
    for (k, role) in roles.iter().enumerate() {
        let name = format!("i{k}");
        let input = b.input(name.as_str());
        let y = b.net(format!("y{k}"));
        b.gate(GateKind::Buf, &[input], y, Delay::uniform(1));
        spec = spec.with(name, role.clone());
    }
    (b.finish().expect("valid"), spec)
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
        lanes in 0usize..3,
        start in 0u64..100,
        steps in proptest::collection::vec((0u8..4, 2u64..40), 1..150),
        back_at in any::<usize>(),
        back_by in 0u64..60,
    ) {
        let lanes = [1, 7, LANES][lanes];
        let mut roles = roles;
        // Probes: random data whose only draw inside the run is at END.
        // If two drivers have drawn different numbers of decisions by
        // then, their 32 probe levels differ.
        roles.extend((0..PROBES).map(|_| SignalRole::Random {
            period: PROBE_PERIOD,
            phase: PROBE_PERIOD - END,
            toggle_prob: 0.5,
        }));
        let n = roles.len();
        let (netlist, spec) = circuit(&roles);
        let inputs: Vec<(NetId, SignalRole)> = spec
            .assignments
            .iter()
            .map(|(name, role)| (netlist.find_net(name).expect("declared"), role.clone()))
            .collect();
        let mut reference = FullScan::new(inputs.clone(), rng_seed);
        // Lane `l`'s serial driver; lane 0's is the calendar under test.
        let mut serial: Vec<RandomStimulus> = (0..lanes)
            .map(|l| RandomStimulus::new(inputs.clone(), Stimulus64::lane_seed(rng_seed, l)))
            .collect();
        let mut batch = Stimulus64::new(&spec, &netlist, rng_seed, lanes).expect("valid spec");

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

        let nets = netlist.num_nets();
        let mut want: Vec<Option<Level>> = vec![None; nets];
        let mut held: Vec<Vec<Option<Level>>> = vec![vec![None; nets]; lanes];
        let mut planes: Vec<Option<Plane>> = vec![None; nets];
        for (call, &tick) in ticks.iter().enumerate() {
            reference.apply_with(tick, |net, level| want[net.index()] = Some(level));
            for (stim, held) in serial.iter_mut().zip(&mut held) {
                let mut handed_over = 0;
                stim.apply_with(tick, |net, level| {
                    // Change-only contract: after the first call the
                    // sink sees an input only when its level differs.
                    assert!(call == 0 || held[net.index()] != Some(level), "tick {tick} {net}");
                    held[net.index()] = Some(level);
                    handed_over += 1;
                });
                if call == 0 {
                    prop_assert_eq!(handed_over, n, "the first call hands over every input");
                }
            }
            prop_assert_eq!(&held[0], &want, "call {} at tick {}", call, tick);

            let mut handed_over = 0;
            batch.apply_with(tick, |net, plane| {
                assert!(call == 0 || planes[net.index()] != Some(plane), "tick {tick} {net}");
                planes[net.index()] = Some(plane);
                handed_over += 1;
            });
            if call == 0 {
                prop_assert_eq!(handed_over, n, "the first call hands over every plane");
            }
            // A plane the sink was not handed is stale here, so this also
            // holds that every changed plane was handed over.
            for &(net, _) in &inputs {
                let plane = planes[net.index()].expect("handed over on the first call");
                for lane in 0..LANES {
                    let expect = held.get(lane).map_or(Some(Level::X), |held| held[net.index()]);
                    prop_assert_eq!(
                        Some(plane.lane(lane)), expect,
                        "call {} at tick {}, {} lane {} of {}", call, tick, net, lane, lanes
                    );
                }
            }
        }
    }
}
