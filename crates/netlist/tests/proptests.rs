//! Property tests for the value algebra, the CSR builder, the columnar
//! component store and the text format.

use logicsim_circuits::Benchmark;
use logicsim_netlist::text;
use logicsim_netlist::{
    CompId, Component, ComponentRef, Csr, Delay, GateKind, Level, NetId, Netlist, NetlistBuilder,
    Signal, Strength, SwitchKind,
};
use proptest::prelude::*;

/// `parse` numbers nets by first mention and `serialize` writes no
/// declarations, so a netlist whose builder numbered them otherwise
/// comes back renumbered: the same circuit name, components in the same
/// order with the same kinds, delays and levels, every pin on the net of
/// the same *name*, the same inputs and outputs by name.
fn assert_same_up_to_net_numbering(a: &Netlist, b: &Netlist) {
    assert_eq!(a.name(), b.name());
    assert_eq!(a.num_nets(), b.num_nets());
    assert_eq!(a.num_components(), b.num_components());
    let named = |n: &Netlist, nets: &[NetId]| -> Vec<String> {
        nets.iter()
            .map(|&net| n.net_name(net).to_string())
            .collect()
    };
    let pins = |n: &Netlist, c: ComponentRef<'_>| {
        let mut nets = c.read_nets();
        nets.extend(c.driven_nets());
        named(n, &nets)
    };
    for ((id, ca), (_, cb)) in a.iter().zip(b.iter()) {
        assert_eq!(pins(a, ca), pins(b, cb), "pins of {id}");
        // With the pins equal by name, what is left must be equal as is.
        let blank = |c: ComponentRef<'_>| {
            let mut c = c.to_owned();
            match &mut c {
                Component::Gate { inputs, output, .. } => {
                    inputs.fill(NetId(0));
                    *output = NetId(0);
                }
                Component::Switch { control, a, b, .. } => {
                    (*control, *a, *b) = (NetId(0), NetId(0), NetId(0));
                }
                Component::Input { net }
                | Component::Pull { net, .. }
                | Component::Supply { net, .. } => *net = NetId(0),
            }
            c
        };
        assert_eq!(blank(ca), blank(cb), "{id}");
    }
    assert_eq!(named(a, a.inputs()), named(b, b.inputs()));
    assert_eq!(named(a, a.outputs()), named(b, b.outputs()));
}

/// The five benchmark circuits and two of their 10k tilings survive the
/// text format: one trip gives the same circuit up to net numbering,
/// and from then on `parse(serialize(n)) == n` exactly.
#[test]
fn benchmark_circuits_round_trip_through_text() {
    let mut circuits: Vec<Netlist> = Benchmark::ALL
        .iter()
        .map(|b| b.build_default().netlist)
        .collect();
    for b in [Benchmark::RtpChip, Benchmark::CrossbarSwitch] {
        circuits.push(b.build_at(10_000).netlist);
    }
    for original in circuits {
        let once = text::parse(&text::serialize(&original)).expect("serializer output parses");
        assert_same_up_to_net_numbering(&original, &once);
        let twice = text::parse(&text::serialize(&once)).expect("serializer output parses");
        assert_eq!(twice, once, "{}", original.name());
        assert_eq!(twice.structural_digest(), once.structural_digest());
    }
}

/// A file with every kind of statement in it, for the mutation test.
const EVERY_STATEMENT: &str = "\
# one of everything
circuit sampler
input a
input b   # two inputs
net early
gate NAND d=2,3 n1 a b
gate not n2 n1
gate TRI bus n2 a
switch NMOS a bus x
switch pmos b x y
pull up x
pull down y
supply vdd rail
supply gnd ground
gate XOR early rail ground
output y
output early
";

/// Whatever `parse` makes of `source`, it says so without panicking,
/// and an error names a line that exists.
fn check_parse_outcome(source: &str) {
    if let Err(e) = text::parse(source) {
        let lines = source.lines().count().max(1);
        assert!(
            (1..=lines).contains(&e.line),
            "`{e}` blames line {} of {lines}:\n{source}",
            e.line
        );
        assert!(!e.message.is_empty());
    }
}

/// One step of a random build: what to add, a pick of nets for its
/// operands, an arity in 1..=6 (clamped to the kind's), a delay, and
/// whether it goes through `add_component` instead of the builder's own
/// method.
type BuildOp = (u8, u8, Vec<usize>, u8, (u32, u32), bool);

fn any_build_op() -> impl Strategy<Value = BuildOp> {
    (
        0u8..16,
        0u8..16,
        proptest::collection::vec(any::<usize>(), 6..=6),
        1u8..=6,
        (1u32..5, 1u32..5),
        any::<bool>(),
    )
}

/// Runs `ops` on a builder and returns what went in, in order. Reads
/// draw from nets something already drives, so the result is valid.
fn build_random(ops: &[BuildOp]) -> (Netlist, Vec<Component>) {
    let mut b = NetlistBuilder::new("columns");
    let mut added = Vec::new();
    let mut driven = vec![b.input("i0")];
    added.push(Component::Input { net: driven[0] });
    for (step, (what, sub, picks, arity, (rise, fall), raw)) in ops.iter().enumerate() {
        let (what, sub, arity, rise, fall, raw) = (*what, *sub, *arity, *rise, *fall, *raw);
        let pick = |k: usize| driven[picks[k] % driven.len()];
        let fresh = b.net(format!("n{step}"));
        let comp = match what % 8 {
            // Gates are half the draws.
            0..=3 => {
                let kind = GateKind::ALL[usize::from(sub) % GateKind::ALL.len()];
                let (min, max) = kind.arity();
                let n = usize::from(arity).clamp(min, max.unwrap_or(6));
                Component::Gate {
                    kind,
                    inputs: (0..n).map(pick).collect(),
                    output: if sub >= 12 { pick(5) } else { fresh },
                    delay: Delay { rise, fall },
                }
            }
            4 => Component::Switch {
                kind: [SwitchKind::Nmos, SwitchKind::Pmos][usize::from(sub % 2)],
                control: pick(0),
                a: if sub >= 8 { pick(1) } else { fresh },
                b: pick(2),
            },
            5 => Component::Pull {
                net: if sub >= 8 { pick(0) } else { fresh },
                level: Level::ALL[usize::from(sub) % 3],
            },
            6 => Component::Supply {
                net: if sub >= 8 { pick(0) } else { fresh },
                level: Level::ALL[usize::from(sub) % 3],
            },
            _ => Component::Input { net: fresh },
        };
        let id = if raw {
            b.add_component(comp.clone())
        } else {
            match comp {
                Component::Gate {
                    kind,
                    ref inputs,
                    output,
                    delay,
                } => b.gate(kind, inputs, output, delay),
                Component::Switch {
                    kind,
                    control,
                    a,
                    b: bb,
                } => b.switch(kind, control, a, bb),
                Component::Pull { net, level } => b.pull(net, level),
                Component::Supply { net, level } => b.supply(net, level),
                Component::Input { net } => b.add_component(Component::Input { net }),
            }
        };
        assert_eq!(id.index(), added.len());
        if step % 5 == 0 {
            b.mark_output(pick(3));
        }
        driven.extend(comp.drives());
        added.push(comp);
    }
    (b.finish().expect("valid by construction"), added)
}

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
        // Every net here is first mentioned in the order the builder
        // numbered it, so the netlist comes back exactly.
        let n2 = text::parse(&text::serialize(&n)).expect("serializer output parses");
        prop_assert_eq!(n2, n);
    }

    /// The column store gives back what the builder was given: every
    /// component, in order, through `component(id).to_owned()` and
    /// column by column through `columns()` (kind, terminal, delay or
    /// channel, pins), as the engines read it; fanout and driver rows
    /// equal to a recount from those components; and a JSON round trip
    /// that is equal and keeps the digest.
    #[test]
    fn the_columnar_store_gives_back_what_went_in(
        ops in proptest::collection::vec(any_build_op(), 0..40),
    ) {
        let (n, added) = build_random(&ops);
        prop_assert_eq!(n.num_components(), added.len());
        for (i, comp) in added.iter().enumerate() {
            let id = CompId(i as u32);
            prop_assert_eq!(&n.component(id).to_owned(), comp);
            prop_assert_eq!(n.component(id), comp.as_ref());
            let pins: &[NetId] = match comp {
                Component::Gate { inputs, .. } => inputs,
                _ => &[],
            };
            prop_assert_eq!(n.gate_pins().row(i), pins);
            // The columns one at a time, as an engine reads them.
            let cols = n.columns();
            prop_assert_eq!(cols.kind(i), comp.as_ref().kind());
            prop_assert_eq!(cols.pins(i), pins);
            match *comp {
                Component::Gate { output, delay, .. } => {
                    prop_assert_eq!(cols.terminal(i), output);
                    prop_assert_eq!(cols.delay(i), delay);
                }
                Component::Switch { control, a, b, .. } => {
                    prop_assert_eq!(cols.terminal(i), control);
                    prop_assert_eq!(cols.channel(i), (a, b));
                }
                Component::Input { net } | Component::Pull { net, .. } | Component::Supply { net, .. } => {
                    prop_assert_eq!(cols.terminal(i), net);
                }
            }
        }
        prop_assert_eq!(n.columns().len(), added.len());
        let mut fanout = vec![Vec::new(); n.num_nets()];
        let mut drivers = vec![Vec::new(); n.num_nets()];
        for (i, comp) in added.iter().enumerate() {
            comp.for_each_read(|net| fanout[net.index()].push(CompId(i as u32)));
            comp.for_each_driven(|net| drivers[net.index()].push(CompId(i as u32)));
        }
        for net in 0..n.num_nets() {
            let id = NetId(net as u32);
            prop_assert_eq!(n.fanout(id), &fanout[net][..]);
            prop_assert_eq!(n.drivers(id), &drivers[net][..]);
            prop_assert_eq!(n.driver_rows().row(net), &drivers[net][..]);
        }
        let json = serde_json::to_string(&n).expect("serializes");
        let back: Netlist = serde_json::from_str(&json).expect("its own JSON deserializes");
        prop_assert_eq!(back.structural_digest(), n.structural_digest());
        prop_assert_eq!(back, n);
    }

    /// Arbitrary bytes (read as text the way `lsim` reads a file).
    #[test]
    fn parse_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        check_parse_outcome(&String::from_utf8_lossy(&bytes));
    }

    /// Bytes drawn from the format's own alphabet, so that lines start
    /// with keywords and carry operands far more often than chance.
    #[test]
    fn parse_never_panics_on_statement_soup(
        picks in proptest::collection::vec((0usize..24, 0usize..4), 0..120),
    ) {
        const WORDS: [&str; 24] = [
            "circuit", "input", "net", "gate", "switch", "pull", "supply", "output",
            "AND", "not", "TRI", "NMOS", "pmos", "up", "down", "vdd", "gnd",
            "d=1", "d=2,", "d=,3", "a", "b", "#", "\u{a0}x",
        ];
        let mut source = String::new();
        for (word, gap) in picks {
            source.push_str(WORDS[word]);
            source.push_str(["\n", " ", "\t ", "\r\n"][gap]);
        }
        check_parse_outcome(&source);
    }

    /// A valid file with a few edits of the kind a slip of the hand
    /// makes: a token dropped, doubled or replaced, a line dropped,
    /// doubled or moved, the file cut short.
    #[test]
    fn parse_never_panics_on_a_mutated_valid_file(
        edits in proptest::collection::vec((0u8..7, any::<usize>(), any::<usize>()), 1..5),
    ) {
        let mut lines: Vec<Vec<String>> = EVERY_STATEMENT
            .lines()
            .map(|l| l.split(' ').map(String::from).collect())
            .collect();
        for (kind, x, y) in edits {
            if lines.is_empty() {
                break;
            }
            let at = x % lines.len();
            match kind {
                0 => { lines.remove(at); }
                1 => { let copy = lines[at].clone(); lines.insert(at, copy); }
                2 => { let moved = lines.remove(at); lines.insert(y % (lines.len() + 1), moved); }
                3 => lines.truncate(at),
                _ if lines[at].is_empty() => {}
                4 => { let t = y % lines[at].len(); lines[at].remove(t); }
                5 => { let t = y % lines[at].len(); let copy = lines[at][t].clone(); lines[at].insert(t, copy); }
                _ => {
                    let t = y % lines[at].len();
                    let from = &lines[(y / 7) % lines.len()];
                    lines[at][t] = from.get(y % from.len().max(1)).cloned().unwrap_or_default();
                }
            }
        }
        let source: Vec<String> = lines.iter().map(|l| l.join(" ")).collect();
        check_parse_outcome(&source.join("\n"));
    }
}

#[test]
fn the_mutation_seed_file_is_valid() {
    let n = text::parse(EVERY_STATEMENT).expect("valid");
    assert_eq!((n.num_gates(), n.num_switches()), (4, 2));
}
