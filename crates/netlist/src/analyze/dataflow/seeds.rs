//! Per-input assumptions that seed the whole-netlist analyses.
//!
//! The activity, timing, and X-reachability analyses all start from
//! facts about the primary inputs: how often they toggle, how far
//! apart their events are, and which levels they can take. Those
//! facts come from the stimulus plan when one is known (the
//! `logicsim-sim` crate derives them from `StimulusSpec` periodicity)
//! and fall back to the conservative [`InputSeed::default`] for bare
//! netlists (`lsim lint` on a file).

use crate::component::{ComponentRef, NetId};
use crate::netlist::Netlist;

/// Static assumptions about one primary input net.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InputSeed {
    /// Lower bound on the probability the input is `One` on any tick.
    pub p1_lo: f64,
    /// Upper bound on the same probability.
    pub p1_hi: f64,
    /// Expected transitions per tick (transition density), in `[0, 1]`.
    pub density: f64,
    /// Provable lower bound on the separation (in ticks) between two
    /// successive events on this input; `u32::MAX` means the input
    /// produces at most one event ever.
    pub min_separation: u32,
    /// Levels the input can reach, as a [`super::xreach::LevelSet`]
    /// bit mask.
    pub levels: u8,
}

impl Default for InputSeed {
    /// The unconstrained input: unknown bias, a toggle every other
    /// tick on average, events possibly back to back, all levels
    /// reachable.
    fn default() -> InputSeed {
        InputSeed {
            p1_lo: 0.0,
            p1_hi: 1.0,
            density: 0.5,
            min_separation: 1,
            levels: super::xreach::LevelSet::ALL.0,
        }
    }
}

/// Seeds for every primary input of one netlist, indexed by net id.
#[derive(Debug, Clone)]
pub struct InputSeeds {
    /// `Some` for primary-input nets, `None` elsewhere.
    seeds: Vec<Option<InputSeed>>,
}

impl InputSeeds {
    /// Conservative defaults for every declared input of `netlist`
    /// (and every undeclared [`ComponentRef::Input`] driver).
    #[must_use]
    pub fn unconstrained(netlist: &Netlist) -> InputSeeds {
        let mut seeds = vec![None; netlist.num_nets()];
        for (_, c) in netlist.iter() {
            if let ComponentRef::Input { net } = c {
                seeds[net.index()] = Some(InputSeed::default());
            }
        }
        InputSeeds { seeds }
    }

    /// Overrides the seed for `net` (a no-op target check is the
    /// caller's job; seeding a non-input net simply never gets read).
    pub fn set(&mut self, net: NetId, seed: InputSeed) {
        self.seeds[net.index()] = Some(seed);
    }

    /// The seed for `net`, if it is an input.
    #[must_use]
    pub fn get(&self, net: NetId) -> Option<&InputSeed> {
        self.seeds.get(net.index()).and_then(Option::as_ref)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Delay;
    use crate::{GateKind, NetlistBuilder};

    #[test]
    fn unconstrained_covers_exactly_the_inputs() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let y = b.net("y");
        b.gate(GateKind::Not, &[a], y, Delay::uniform(1));
        b.mark_output(y);
        let n = b.finish().unwrap();
        let seeds = InputSeeds::unconstrained(&n);
        assert!(seeds.get(a).is_some());
        assert!(seeds.get(y).is_none());
    }
}
