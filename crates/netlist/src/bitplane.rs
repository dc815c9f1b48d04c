//! Two-plane bit-packed ternary values: 64 Kleene levels per machine word.
//!
//! The bit-parallel compiled backend (`logicsim-sim`'s `bitpar` module)
//! simulates 64 independent stimulus scenarios at once by packing one
//! [`Level`] per bit position ("lane") into a pair of `u64` planes:
//!
//! * `val`   — bit `i` is `1` iff lane `i` is at level `1`;
//! * `known` — bit `i` is `1` iff lane `i` is at a known level (`0`/`1`).
//!
//! The canonical invariant is `val & !known == 0`: an unknown lane
//! always has a zero `val` bit, so planes can be compared and hashed
//! directly. All kernels below are branch-free and implement exactly
//! the Kleene lattice of [`Level::and`]/[`Level::or`]/[`Level::xor`]/
//! [`Level::not`] (dominant-`0` AND, dominant-`1` OR, `X`-propagating
//! XOR) — the same lattice the abstract interpreter in
//! [`crate::analyze::opt`] folds constants with. A unit test checks
//! every kernel against the scalar truth tables exhaustively.

use crate::value::Level;
use serde::{Deserialize, Serialize};

/// Number of lanes packed into one plane pair.
pub const LANES: usize = 64;

/// A 64-lane ternary value: one [`Level`] per bit position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Plane {
    /// Bit `i` set iff lane `i` is `1` (only meaningful where `known`).
    pub val: u64,
    /// Bit `i` set iff lane `i` is known (`0` or `1`, not `X`).
    pub known: u64,
}

impl Plane {
    /// All lanes at `X`.
    pub const ALL_X: Plane = Plane { val: 0, known: 0 };

    /// Every lane at the same level.
    #[must_use]
    pub fn splat(level: Level) -> Plane {
        match level {
            Level::Zero => Plane { val: 0, known: !0 },
            Level::One => Plane { val: !0, known: !0 },
            Level::X => Plane::ALL_X,
        }
    }

    /// Builds a canonical plane from raw bits (masks `val` by `known`).
    #[must_use]
    pub fn new(val: u64, known: u64) -> Plane {
        Plane {
            val: val & known,
            known,
        }
    }

    /// The level in one lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64`.
    #[must_use]
    pub fn lane(self, lane: usize) -> Level {
        assert!(lane < LANES, "lane {lane} out of range");
        let bit = 1u64 << lane;
        if self.known & bit == 0 {
            Level::X
        } else if self.val & bit != 0 {
            Level::One
        } else {
            Level::Zero
        }
    }

    /// Replaces the level in one lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64`.
    #[must_use]
    pub fn with_lane(self, lane: usize, level: Level) -> Plane {
        assert!(lane < LANES, "lane {lane} out of range");
        let bit = 1u64 << lane;
        match level {
            Level::Zero => Plane {
                val: self.val & !bit,
                known: self.known | bit,
            },
            Level::One => Plane {
                val: self.val | bit,
                known: self.known | bit,
            },
            Level::X => Plane {
                val: self.val & !bit,
                known: self.known & !bit,
            },
        }
    }

    /// Lanes at a known `1`.
    #[must_use]
    #[inline]
    pub fn is_one(self) -> u64 {
        self.val
    }

    /// Lanes at a known `0`.
    #[must_use]
    #[inline]
    pub fn is_zero(self) -> u64 {
        self.known & !self.val
    }

    /// Lane-wise Kleene AND: `0` dominates, `1` is the identity.
    #[must_use]
    #[inline]
    pub fn and(self, other: Plane) -> Plane {
        let val = self.val & other.val;
        Plane {
            val,
            known: val | self.is_zero() | other.is_zero(),
        }
    }

    /// Lane-wise Kleene OR: `1` dominates, `0` is the identity.
    #[must_use]
    #[inline]
    pub fn or(self, other: Plane) -> Plane {
        let val = self.val | other.val;
        Plane {
            val,
            known: val | (self.is_zero() & other.is_zero()),
        }
    }

    /// Lane-wise Kleene XOR: any `X` input makes the lane `X`.
    #[must_use]
    #[inline]
    pub fn xor(self, other: Plane) -> Plane {
        let known = self.known & other.known;
        Plane {
            val: (self.val ^ other.val) & known,
            known,
        }
    }

    /// Lane-wise Kleene NOT: `X` stays `X`. Deliberately an inherent
    /// method (mirroring `and`/`or`/`xor`) rather than `ops::Not`,
    /// which could not express the Kleene semantics through `!`
    /// without surprising readers.
    #[must_use]
    #[inline]
    #[allow(clippy::should_implement_trait)] // Kleene NOT cannot go through `!`
    pub fn not(self) -> Plane {
        Plane {
            val: self.known & !self.val,
            known: self.known,
        }
    }

    /// Restricts the plane to `mask` lanes, forcing the rest to `X`.
    #[must_use]
    #[inline]
    pub fn masked(self, mask: u64) -> Plane {
        Plane {
            val: self.val & mask,
            known: self.known & mask,
        }
    }
}

/// A dense array of [`Plane`]s, one per net, stored as two parallel
/// `u64` arrays (structure-of-arrays, so a sweep kernel streams through
/// two contiguous vectors instead of interleaved pairs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitPlanes {
    val: Vec<u64>,
    known: Vec<u64>,
}

impl BitPlanes {
    /// `n` planes, all lanes `X`.
    #[must_use]
    pub fn new(n: usize) -> BitPlanes {
        BitPlanes {
            val: vec![0; n],
            known: vec![0; n],
        }
    }

    /// Number of planes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.val.len()
    }

    /// Whether the array is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.val.is_empty()
    }

    /// The plane at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    #[inline]
    pub fn get(&self, idx: usize) -> Plane {
        Plane {
            val: self.val[idx],
            known: self.known[idx],
        }
    }

    /// Stores a plane at `idx` (canonicalized), returning `true` when
    /// the stored value changed.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn set(&mut self, idx: usize, plane: Plane) -> bool {
        let val = plane.val & plane.known;
        let changed = self.val[idx] != val || self.known[idx] != plane.known;
        self.val[idx] = val;
        self.known[idx] = plane.known;
        changed
    }

    /// The level of one lane of one plane.
    ///
    /// # Panics
    ///
    /// Panics if `idx` or `lane` is out of range.
    #[must_use]
    pub fn lane(&self, idx: usize, lane: usize) -> Level {
        self.get(idx).lane(lane)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Level; 3] = [Level::Zero, Level::One, Level::X];

    /// A plane whose lanes 0..9 enumerate every (a, b) level pair.
    fn pair_planes() -> (Plane, Plane) {
        let mut a = Plane::ALL_X;
        let mut b = Plane::ALL_X;
        let mut lane = 0;
        for la in ALL {
            for lb in ALL {
                a = a.with_lane(lane, la);
                b = b.with_lane(lane, lb);
                lane += 1;
            }
        }
        (a, b)
    }

    #[test]
    fn kernels_match_scalar_truth_tables_exhaustively() {
        let (a, b) = pair_planes();
        let mut lane = 0;
        for la in ALL {
            for lb in ALL {
                assert_eq!(a.and(b).lane(lane), la.and(lb), "and {la:?} {lb:?}");
                assert_eq!(a.or(b).lane(lane), la.or(lb), "or {la:?} {lb:?}");
                assert_eq!(a.xor(b).lane(lane), la.xor(lb), "xor {la:?} {lb:?}");
                assert_eq!(a.not().lane(lane), la.not(), "not {la:?}");
                lane += 1;
            }
        }
    }

    #[test]
    fn canonical_invariant_holds_after_every_kernel() {
        let (a, b) = pair_planes();
        for p in [a.and(b), a.or(b), a.xor(b), a.not(), a.masked(0xff)] {
            assert_eq!(p.val & !p.known, 0, "non-canonical plane {p:?}");
        }
    }

    #[test]
    fn splat_and_lane_round_trip() {
        for l in ALL {
            let p = Plane::splat(l);
            for lane in [0, 31, 63] {
                assert_eq!(p.lane(lane), l);
            }
        }
    }

    #[test]
    fn with_lane_only_touches_one_lane() {
        let p = Plane::splat(Level::One).with_lane(7, Level::X);
        assert_eq!(p.lane(7), Level::X);
        assert_eq!(p.lane(6), Level::One);
        assert_eq!(p.lane(8), Level::One);
    }

    #[test]
    fn masked_forces_inactive_lanes_to_x() {
        let p = Plane::splat(Level::One).masked(0b11);
        assert_eq!(p.lane(0), Level::One);
        assert_eq!(p.lane(1), Level::One);
        assert_eq!(p.lane(2), Level::X);
    }

    #[test]
    fn bitplanes_set_reports_changes() {
        let mut planes = BitPlanes::new(4);
        assert!(planes.set(2, Plane::splat(Level::One)));
        assert!(!planes.set(2, Plane::splat(Level::One)));
        assert!(planes.set(2, Plane::splat(Level::Zero)));
        assert_eq!(planes.lane(2, 63), Level::Zero);
        assert_eq!(planes.lane(0, 0), Level::X);
        assert_eq!(planes.len(), 4);
        assert!(!planes.is_empty());
    }

    #[test]
    fn bitplanes_set_canonicalizes_raw_val_bits() {
        let mut planes = BitPlanes::new(1);
        // val bits outside known must be masked off.
        planes.set(
            0,
            Plane {
                val: 0b1010,
                known: 0b0011,
            },
        );
        assert_eq!(planes.get(0).val, 0b0010);
        assert_eq!(planes.lane(0, 3), Level::X);
        assert_eq!(planes.lane(0, 1), Level::One);
    }
}
