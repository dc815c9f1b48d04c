//! Property tests for the value algebra, the CSR builder and the text
//! format.

use logicsim_netlist::text;
use logicsim_netlist::{Csr, Delay, GateKind, Level, NetlistBuilder, Signal, Strength};
use proptest::prelude::*;

fn any_level() -> impl Strategy<Value = Level> {
    prop_oneof![Just(Level::Zero), Just(Level::One), Just(Level::X)]
}

fn any_strength() -> impl Strategy<Value = Strength> {
    prop_oneof![
        Just(Strength::HighZ),
        Just(Strength::Resistive),
        Just(Strength::Weak),
        Just(Strength::Strong),
        Just(Strength::Supply),
    ]
}

fn any_signal() -> impl Strategy<Value = Signal> {
    (any_level(), any_strength()).prop_map(|(l, s)| Signal::new(l, s))
}

proptest! {
    #[test]
    fn and_or_commutative(a in any_level(), b in any_level()) {
        prop_assert_eq!(a.and(b), b.and(a));
        prop_assert_eq!(a.or(b), b.or(a));
        prop_assert_eq!(a.xor(b), b.xor(a));
    }

    #[test]
    fn and_or_associative(a in any_level(), b in any_level(), c in any_level()) {
        prop_assert_eq!(a.and(b).and(c), a.and(b.and(c)));
        prop_assert_eq!(a.or(b).or(c), a.or(b.or(c)));
    }

    #[test]
    fn demorgan_with_x(a in any_level(), b in any_level()) {
        // De Morgan holds even through X because and/or/not treat X
        // symmetrically.
        prop_assert_eq!(a.and(b).not(), a.not().or(b.not()));
        prop_assert_eq!(a.or(b).not(), a.not().and(b.not()));
    }

    #[test]
    fn resolve_is_a_semilattice(a in any_signal(), b in any_signal(), c in any_signal()) {
        // Commutative, associative, idempotent: signal resolution is a
        // join, so the switch solver's fixpoint is order-independent.
        prop_assert_eq!(a.resolve(b), b.resolve(a));
        prop_assert_eq!(a.resolve(b).resolve(c), a.resolve(b.resolve(c)));
        prop_assert_eq!(a.resolve(a), a);
    }

    #[test]
    fn resolve_never_weakens(a in any_signal(), b in any_signal()) {
        let r = a.resolve(b);
        prop_assert!(r.strength >= a.strength.max(b.strength).min(r.strength));
        prop_assert_eq!(r.strength, a.strength.max(b.strength));
    }

    /// The counting-sort builder agrees with the row-by-row one on any
    /// multiset of tagged items: same rows, same order inside a row.
    /// `num_rows` runs ahead of the highest tag, so trailing (and, with
    /// no items at all, only) empty rows and the empty matrix are
    /// covered.
    #[test]
    fn csr_bucket_matches_from_rows(
        tagged in proptest::collection::vec((0u32..12, any::<u32>()), 0..80),
        spare_rows in 0usize..4,
    ) {
        let num_rows = tagged
            .iter()
            .map(|&(row, _)| row as usize + 1)
            .max()
            .unwrap_or(0)
            + spare_rows;
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); num_rows];
        for &(row, item) in &tagged {
            rows[row as usize].push(item);
        }
        let bucketed: Csr = Csr::bucket(num_rows, || tagged.iter().copied());
        prop_assert_eq!(&bucketed, &Csr::from_rows(rows.iter().map(|r| r.iter().copied())));
        prop_assert_eq!(bucketed.num_rows(), num_rows);
        prop_assert_eq!(bucketed.num_items(), tagged.len());
    }

    #[test]
    fn through_switch_never_strengthens(s in any_signal()) {
        prop_assert!(s.through_switch().strength <= s.strength);
    }

    #[test]
    fn gate_evaluation_x_is_pessimistic(
        kind in prop_oneof![
            Just(GateKind::And), Just(GateKind::Or),
            Just(GateKind::Nand), Just(GateKind::Nor),
            Just(GateKind::Xor), Just(GateKind::Xnor),
        ],
        inputs in proptest::collection::vec(any_level(), 2..6),
    ) {
        // Replacing any X input with 0 or 1 must yield either the same
        // output or a refinement of X — never flip a known output.
        let base = kind.evaluate(&inputs).level;
        for (i, l) in inputs.iter().enumerate() {
            if *l == Level::X {
                for repl in [Level::Zero, Level::One] {
                    let mut v = inputs.clone();
                    v[i] = repl;
                    let refined = kind.evaluate(&v).level;
                    if base != Level::X {
                        prop_assert_eq!(refined, base,
                            "refining X input {} changed known output", i);
                    }
                }
            }
        }
    }

    #[test]
    fn random_gate_netlists_round_trip_through_text(
        ops in proptest::collection::vec((0u8..6, 0usize..8, 0usize..8, 1u32..4), 1..30)
    ) {
        // Build a random (valid-by-construction) gate-level netlist.
        let mut b = NetlistBuilder::new("random");
        let mut nets = vec![b.input("i0"), b.input("i1")];
        for (kind_sel, x, y, d) in ops {
            let kind = [
                GateKind::And, GateKind::Or, GateKind::Nand,
                GateKind::Nor, GateKind::Xor, GateKind::Not,
            ][kind_sel as usize % 6];
            let a = nets[x % nets.len()];
            let bb = nets[y % nets.len()];
            let out = b.fresh("w");
            if kind == GateKind::Not {
                b.gate(kind, &[a], out, Delay::uniform(d));
            } else {
                b.gate(kind, &[a, bb], out, Delay::uniform(d));
            }
            nets.push(out);
        }
        let last = *nets.last().expect("nonempty");
        b.mark_output(last);
        let n = b.finish().expect("valid by construction");
        let text1 = text::serialize(&n);
        let n2 = text::parse(&text1).expect("serializer output parses");
        prop_assert_eq!(n.num_gates(), n2.num_gates());
        prop_assert_eq!(n.num_nets(), n2.num_nets());
        // Second round trip is a fixpoint.
        let text2 = text::serialize(&n2);
        prop_assert_eq!(text1, text2);
    }
}
