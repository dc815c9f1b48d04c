//! Four-valued logic with drive strengths.
//!
//! The simulator follows the value system of gate/switch-level simulators
//! like *lsim* \[CH85\]: a signal carries a logic [`Level`] (`0`, `1`, or the
//! unknown `X`) and a drive [`Strength`]. The familiar high-impedance `Z`
//! is represented as any level at [`Strength::HighZ`]. Strengths model MOS
//! behaviour: supply rails beat gate outputs, which beat depletion
//! pull-ups, which beat charge stored on a disconnected net.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A logic level: `0`, `1`, or unknown.
///
/// The unknown level `X` propagates pessimistically through gate
/// evaluation: a gate output is `X` unless the known inputs force it
/// (e.g. `0 AND X = 0`, but `1 AND X = X`).
///
/// The discriminants are a contract: `level as u8` is 0, 1 or 2, which
/// the gate kernel ([`GateKind::evaluate_pins`]) uses as a bit index and
/// as the parity of a known level.
///
/// [`GateKind::evaluate_pins`]: crate::GateKind::evaluate_pins
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Level {
    /// Logic low.
    Zero = 0,
    /// Logic high.
    One = 1,
    /// Unknown level (uninitialized, or a drive fight).
    X = 2,
}

impl Level {
    /// All levels, for exhaustive iteration in tests.
    pub const ALL: [Level; 3] = [Level::Zero, Level::One, Level::X];

    /// Logical NOT with `X` propagation.
    ///
    /// An inherent method rather than `std::ops::Not` so it chains
    /// naturally with [`Level::and`]/[`Level::or`] in truth-table code.
    #[must_use]
    #[allow(clippy::should_implement_trait)] // X-propagating NOT cannot go through `!`
    pub fn not(self) -> Level {
        match self {
            Level::Zero => Level::One,
            Level::One => Level::Zero,
            Level::X => Level::X,
        }
    }

    /// Logical AND with dominant-`0` semantics (`0 AND X = 0`).
    #[must_use]
    pub fn and(self, other: Level) -> Level {
        match (self, other) {
            (Level::Zero, _) | (_, Level::Zero) => Level::Zero,
            (Level::One, Level::One) => Level::One,
            _ => Level::X,
        }
    }

    /// Logical OR with dominant-`1` semantics (`1 OR X = 1`).
    #[must_use]
    pub fn or(self, other: Level) -> Level {
        match (self, other) {
            (Level::One, _) | (_, Level::One) => Level::One,
            (Level::Zero, Level::Zero) => Level::Zero,
            _ => Level::X,
        }
    }

    /// Logical XOR; `X` in yields `X` out.
    #[must_use]
    pub fn xor(self, other: Level) -> Level {
        match (self, other) {
            (Level::X, _) | (_, Level::X) => Level::X,
            (a, b) if a == b => Level::Zero,
            _ => Level::One,
        }
    }

    /// Returns `true` for a fully-determined (`0`/`1`) level.
    #[must_use]
    pub fn is_known(self) -> bool {
        !matches!(self, Level::X)
    }

    /// Converts a boolean into a level.
    #[must_use]
    pub fn from_bool(b: bool) -> Level {
        if b {
            Level::One
        } else {
            Level::Zero
        }
    }

    /// Converts the level into a boolean, `None` for `X`.
    #[must_use]
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Level::Zero => Some(false),
            Level::One => Some(true),
            Level::X => None,
        }
    }

    /// Merges two levels driven onto the same node with equal strength:
    /// equal levels survive, a conflict yields `X`.
    #[must_use]
    pub fn resolve_equal_strength(self, other: Level) -> Level {
        if self == other {
            self
        } else {
            Level::X
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Level::Zero => '0',
            Level::One => '1',
            Level::X => 'X',
        };
        write!(f, "{c}")
    }
}

/// Drive strength ordering used by the switch-level solver.
///
/// From weakest to strongest: a disconnected (high-impedance) net
/// retains only charge; a **resistive** pull-up/-down (nmos depletion
/// load) is overridden by any transistor path; a **weak** drive is a
/// gate output degraded by one or more pass transistors; a **strong**
/// drive is a direct gate output (or a rail seen through one switch — a
/// pull-down transistor must beat the depletion load *and* any
/// pass-degraded signal, which is why rails degrade to `Strong`, not
/// `Weak`); **supply** rails are unbeatable. Strengths are totally
/// ordered, so `Ord` picks winners. This five-level ladder is the
/// minimal one that makes ratioed nmos logic, pass-transistor networks,
/// and CMOS transmission gates all resolve correctly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Strength {
    /// No driver: the net floats (charge storage).
    HighZ,
    /// Resistive pull (depletion load / resistor).
    Resistive,
    /// Pass-transistor-degraded drive.
    Weak,
    /// Normal gate-output drive, or a rail behind one switch.
    Strong,
    /// Power/ground rail.
    Supply,
}

impl Strength {
    /// All strengths, weakest first.
    pub const ALL: [Strength; 5] = [
        Strength::HighZ,
        Strength::Resistive,
        Strength::Weak,
        Strength::Strong,
        Strength::Supply,
    ];

    /// The strength a signal degrades to after crossing a pass
    /// transistor: supply degrades to strong (a switched rail path still
    /// overpowers gate outputs' degraded signals and pulls), strong to
    /// weak; weak, resistive, and floating signals pass unchanged.
    #[must_use]
    pub fn through_switch(self) -> Strength {
        match self {
            Strength::Supply => Strength::Strong,
            Strength::Strong => Strength::Weak,
            s => s,
        }
    }
}

impl fmt::Display for Strength {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Strength::HighZ => "Z",
            Strength::Resistive => "R",
            Strength::Weak => "W",
            Strength::Strong => "S",
            Strength::Supply => "P",
        };
        write!(f, "{s}")
    }
}

/// A driven value: logic [`Level`] plus drive [`Strength`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Signal {
    /// The logic level carried.
    pub level: Level,
    /// How strongly it is driven.
    pub strength: Strength,
}

impl Signal {
    /// Undriven, unknown: the initial state of every net.
    pub const FLOATING: Signal = Signal {
        level: Level::X,
        strength: Strength::HighZ,
    };
    /// Strongly driven low (a gate output at `0`).
    pub const LOW: Signal = Signal {
        level: Level::Zero,
        strength: Strength::Strong,
    };
    /// Strongly driven high (a gate output at `1`).
    pub const HIGH: Signal = Signal {
        level: Level::One,
        strength: Strength::Strong,
    };
    /// Ground rail.
    pub const GND: Signal = Signal {
        level: Level::Zero,
        strength: Strength::Supply,
    };
    /// Power rail.
    pub const VDD: Signal = Signal {
        level: Level::One,
        strength: Strength::Supply,
    };

    /// Creates a signal from parts.
    #[must_use]
    pub fn new(level: Level, strength: Strength) -> Signal {
        Signal { level, strength }
    }

    /// A strongly-driven known level.
    #[must_use]
    pub fn strong(level: Level) -> Signal {
        Signal::new(level, Strength::Strong)
    }

    /// A pass-transistor-degraded level.
    #[must_use]
    pub fn weak(level: Level) -> Signal {
        Signal::new(level, Strength::Weak)
    }

    /// A resistively-pulled level (depletion load, resistor).
    #[must_use]
    pub fn resistive(level: Level) -> Signal {
        Signal::new(level, Strength::Resistive)
    }

    /// Returns `true` when nothing drives the signal.
    #[must_use]
    pub fn is_floating(self) -> bool {
        self.strength == Strength::HighZ
    }

    /// Resolves two signals driving the same node.
    ///
    /// The stronger signal wins outright. Equal strengths with equal
    /// levels agree; equal strengths with different levels are a drive
    /// fight and produce `X` at that strength (matching the pessimistic
    /// fixed-delay model the paper's data was gathered under).
    #[must_use]
    pub fn resolve(self, other: Signal) -> Signal {
        use std::cmp::Ordering;
        match self.strength.cmp(&other.strength) {
            Ordering::Greater => self,
            Ordering::Less => other,
            Ordering::Equal => Signal::new(
                self.level.resolve_equal_strength(other.level),
                self.strength,
            ),
        }
    }

    /// The signal after crossing a conducting pass transistor: the level is
    /// preserved but the strength degrades (see [`Strength::through_switch`]).
    #[must_use]
    pub fn through_switch(self) -> Signal {
        Signal::new(self.level, self.strength.through_switch())
    }
}

impl Default for Signal {
    fn default() -> Signal {
        Signal::FLOATING
    }
}

impl fmt::Display for Signal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.strength, self.level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn not_involution_on_known() {
        assert_eq!(Level::Zero.not().not(), Level::Zero);
        assert_eq!(Level::One.not().not(), Level::One);
        assert_eq!(Level::X.not(), Level::X);
    }

    #[test]
    fn and_dominant_zero() {
        for l in Level::ALL {
            assert_eq!(Level::Zero.and(l), Level::Zero);
            assert_eq!(l.and(Level::Zero), Level::Zero);
        }
        assert_eq!(Level::One.and(Level::X), Level::X);
        assert_eq!(Level::One.and(Level::One), Level::One);
    }

    #[test]
    fn or_dominant_one() {
        for l in Level::ALL {
            assert_eq!(Level::One.or(l), Level::One);
            assert_eq!(l.or(Level::One), Level::One);
        }
        assert_eq!(Level::Zero.or(Level::X), Level::X);
        assert_eq!(Level::Zero.or(Level::Zero), Level::Zero);
    }

    #[test]
    fn xor_truth_table() {
        assert_eq!(Level::Zero.xor(Level::Zero), Level::Zero);
        assert_eq!(Level::Zero.xor(Level::One), Level::One);
        assert_eq!(Level::One.xor(Level::Zero), Level::One);
        assert_eq!(Level::One.xor(Level::One), Level::Zero);
        assert_eq!(Level::X.xor(Level::One), Level::X);
    }

    #[test]
    fn demorgan_holds_for_known_levels() {
        for a in [Level::Zero, Level::One] {
            for b in [Level::Zero, Level::One] {
                assert_eq!(a.and(b).not(), a.not().or(b.not()));
                assert_eq!(a.or(b).not(), a.not().and(b.not()));
            }
        }
    }

    #[test]
    fn strength_total_order() {
        assert!(Strength::HighZ < Strength::Resistive);
        assert!(Strength::Resistive < Strength::Weak);
        assert!(Strength::Weak < Strength::Strong);
        assert!(Strength::Strong < Strength::Supply);
    }

    #[test]
    fn resolution_stronger_wins() {
        let weak1 = Signal::weak(Level::One);
        let strong0 = Signal::strong(Level::Zero);
        assert_eq!(weak1.resolve(strong0), strong0);
        assert_eq!(strong0.resolve(weak1), strong0);
        assert_eq!(Signal::VDD.resolve(strong0), Signal::VDD);
    }

    #[test]
    fn resolution_conflict_is_x() {
        let a = Signal::strong(Level::One);
        let b = Signal::strong(Level::Zero);
        let r = a.resolve(b);
        assert_eq!(r.level, Level::X);
        assert_eq!(r.strength, Strength::Strong);
    }

    #[test]
    fn resolution_identity_with_floating() {
        // Any *driven* signal wins over the floating value outright.
        for lvl in Level::ALL {
            for st in [Strength::Weak, Strength::Strong, Strength::Supply] {
                let s = Signal::new(lvl, st);
                assert_eq!(s.resolve(Signal::FLOATING), s);
                assert_eq!(Signal::FLOATING.resolve(s), s);
            }
        }
        // Stored charge (HighZ with a known level) merged with unknown
        // charge is pessimistically X.
        let charge0 = Signal::new(Level::Zero, Strength::HighZ);
        assert_eq!(charge0.resolve(Signal::FLOATING).level, Level::X);
        assert_eq!(charge0.resolve(charge0), charge0);
    }

    #[test]
    fn switch_degrades_one_rung() {
        assert_eq!(Signal::HIGH.through_switch(), Signal::weak(Level::One));
        // A rail behind a switch still overpowers degraded gate drive.
        assert_eq!(Signal::VDD.through_switch(), Signal::strong(Level::One));
        assert_eq!(
            Signal::weak(Level::Zero).through_switch(),
            Signal::weak(Level::Zero)
        );
        assert_eq!(
            Signal::resistive(Level::One).through_switch(),
            Signal::resistive(Level::One)
        );
        assert_eq!(Signal::FLOATING.through_switch(), Signal::FLOATING);
    }

    #[test]
    fn display_round_trips_visually() {
        assert_eq!(Signal::HIGH.to_string(), "S1");
        assert_eq!(Signal::FLOATING.to_string(), "ZX");
        assert_eq!(Signal::GND.to_string(), "P0");
    }
}
