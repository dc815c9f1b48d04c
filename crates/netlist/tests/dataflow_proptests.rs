//! Property tests for the monotone dataflow engine (`analyze::dataflow`).
//!
//! The engine's contract has four load-bearing claims, each checked
//! here over random circuit shapes:
//!
//! 1. **Termination within the height bound** — no net's value changes
//!    more than `height + 1` times (the `+1` is the widening jump),
//!    and total transfer applications respect the documented
//!    `seeds + changes * max_fanout` bound, even with feedback.
//! 2. **Monotonicity** — joining extra information into the input
//!    vector never shrinks any transfer output (bigger in ⇒ bigger
//!    out), which is what makes the worklist fixpoint *least*.
//! 3. **Unit-interval activity** — fixpoint densities, probability
//!    intervals, and the expected-case re-propagation all stay inside
//!    `[0, 1]`.
//! 4. **Ported-absint equivalence** — the ternary analysis on the
//!    worklist engine computes exactly what the old `opt::absint`
//!    dense Jacobi iteration computed, on random circuits and on all
//!    five paper benchmarks.

use logicsim_circuits::Benchmark;
use logicsim_netlist::analyze::dataflow::activity::{Activity, ActivityAnalysis, NetActivity};
use logicsim_netlist::analyze::dataflow::seeds::{InputSeed, InputSeeds};
use logicsim_netlist::analyze::dataflow::ternary::TernaryAnalysis;
use logicsim_netlist::analyze::dataflow::{solve, Analysis};
use logicsim_netlist::analyze::Levelization;
use logicsim_netlist::{Delay, GateKind, Netlist, NetlistBuilder};
use proptest::prelude::*;

/// Builds a random layered netlist from `picks`, keeping every gate on
/// the path to the output (same construction as `analyze_proptests`).
/// With `feedback`, a pre-declared net is read by the first gate and
/// driven by a closing inverter, so the circuit contains a delayed
/// loop — the shape that forces the engine to widen.
fn build_circuit(picks: &[(u8, u8)], feedback: bool) -> Netlist {
    let mut b = NetlistBuilder::new("prop");
    let mut nets = vec![b.input("a"), b.input("b")];
    let fb = if feedback {
        let fb = b.net("fb");
        nets.push(fb);
        Some(fb)
    } else {
        None
    };
    for &(src, kind) in picks {
        let prev = *nets.last().unwrap();
        let other = nets[src as usize % nets.len()];
        let out = b.fresh("g");
        let kind = [GateKind::And, GateKind::Or, GateKind::Xor, GateKind::Nand][kind as usize % 4];
        b.gate(kind, &[prev, other], out, Delay::uniform(1));
        nets.push(out);
    }
    let last = *nets.last().unwrap();
    if let Some(fb) = fb {
        b.gate(GateKind::Not, &[last], fb, Delay::uniform(1));
    }
    b.mark_output(last);
    b.finish().expect("random netlist is structurally valid")
}

fn picks() -> impl Strategy<Value = Vec<(u8, u8)>> {
    proptest::collection::vec((any::<u8>(), any::<u8>()), 1..40)
}

/// Input seeds with proptest-chosen densities/levels for the two
/// primary inputs.
fn seeds_for(netlist: &Netlist, raw: (u16, u16)) -> InputSeeds {
    let mut seeds = InputSeeds::unconstrained(netlist);
    for (i, &net) in netlist.inputs().iter().enumerate() {
        let r = if i % 2 == 0 { raw.0 } else { raw.1 };
        seeds.set(
            net,
            InputSeed {
                density: f64::from(r % 1000) / 1000.0,
                ..InputSeed::default()
            },
        );
    }
    seeds
}

/// The activity lattice's partial order: `a ⊑ b` iff `b`'s interval
/// contains `a`'s and `b`'s density is at least `a`'s. Bottom (the
/// empty interval) is below everything.
fn leq(a: NetActivity, b: NetActivity) -> bool {
    if a.is_empty() {
        return true;
    }
    !b.is_empty() && b.p1_lo <= a.p1_lo && a.p1_hi <= b.p1_hi && a.density <= b.density
}

/// The old `opt::absint` algorithm: dense Jacobi iteration — every
/// round recomputes every net from the previous round's snapshot,
/// stopping when a full round changes nothing. No worklist, no
/// widening; on a monotone transfer of bounded height it reaches the
/// same least fixpoint as the engine.
fn jacobi<A: Analysis>(analysis: &A) -> Vec<A::Value> {
    let n = analysis.num_nets();
    let mut values: Vec<A::Value> = (0..n as u32).map(|i| analysis.bottom(i)).collect();
    // Each round either strictly raises some net or is the last; with
    // height h every net rises at most h times, so rounds are bounded.
    let max_rounds = n as u32 * (analysis.height() + 1) + 2;
    for _ in 0..max_rounds {
        let mut changed = false;
        let next: Vec<A::Value> = (0..n as u32)
            .map(|net| {
                let out = analysis.transfer(net, &values);
                let joined = analysis.join(&values[net as usize], &out);
                changed |= joined != values[net as usize];
                joined
            })
            .collect();
        values = next;
        if !changed {
            return values;
        }
    }
    panic!("jacobi failed to converge within the height bound");
}

proptest! {
    /// Claim 1: the engine terminates inside its documented effort
    /// bounds on circuits with and without feedback, and feed-forward
    /// circuits never widen.
    #[test]
    fn terminates_within_the_height_bound(
        p in picks(),
        feedback in any::<bool>(),
        raw in (any::<u16>(), any::<u16>()),
    ) {
        let n = build_circuit(&p, feedback);
        let seeds = seeds_for(&n, raw);
        let levels = Levelization::compute(&n);
        let analysis = ActivityAnalysis::new(&n, &seeds, &levels);
        let solution = solve(&analysis);
        prop_assert!(solution.max_changes <= analysis.height() + 1);
        // transfers <= seeds + total_changes * max_fanout, with
        // total_changes <= nets * (height + 1).
        let nets = n.num_nets() as u64;
        let mut max_dep = 1u64;
        for net in 0..n.num_nets() as u32 {
            let mut deps = 0u64;
            analysis.for_each_dependent(net, &mut |_| deps += 1);
            max_dep = max_dep.max(deps);
        }
        let bound = nets + nets * u64::from(analysis.height() + 1) * max_dep;
        prop_assert!(solution.transfers <= bound,
            "transfers {} > bound {bound}", solution.transfers);
        if !feedback {
            prop_assert_eq!(solution.widened, 0);
        }
    }

    /// Claim 2: the activity transfer is monotone — joining extra
    /// information into any one net's value never shrinks any output.
    #[test]
    fn activity_transfer_is_monotone(
        p in picks(),
        feedback in any::<bool>(),
        raw in (any::<u16>(), any::<u16>()),
        bump_at in any::<u16>(),
        noise in (any::<u16>(), any::<u16>(), any::<u16>()),
    ) {
        let n = build_circuit(&p, feedback);
        let seeds = seeds_for(&n, raw);
        let levels = Levelization::compute(&n);
        let analysis = ActivityAnalysis::new(&n, &seeds, &levels);
        let v = solve(&analysis).values;
        let k = bump_at as usize % v.len();
        let lo = noise.0 % 1025;
        let bump = NetActivity {
            p1_lo: lo,
            p1_hi: lo + (noise.1 % (1025 - lo)),
            density: noise.2 % 1025,
        };
        let mut w = v.clone();
        w[k] = w[k].join(bump);
        for net in 0..n.num_nets() as u32 {
            let a = analysis.transfer(net, &v);
            let b = analysis.transfer(net, &w);
            prop_assert!(leq(a, b), "net {net}: {a:?} !<= {b:?}");
        }
    }

    /// Claim 2, lattice half: `join` is a least upper bound operator.
    #[test]
    fn join_is_an_upper_bound(
        xs in (any::<u16>(), any::<u16>(), any::<u16>()),
        ys in (any::<u16>(), any::<u16>(), any::<u16>()),
    ) {
        let mk = |(lo, hi, d): (u16, u16, u16)| NetActivity {
            p1_lo: lo % 1025,
            p1_hi: hi % 1025,
            density: d % 1025,
        };
        let (a, b) = (mk(xs), mk(ys));
        // Every empty interval is the same bottom element, whatever
        // its lo/hi bytes say — compare up to that equivalence.
        let same = |x: NetActivity, y: NetActivity| {
            (x.is_empty() && y.is_empty()) || x == y
        };
        prop_assert!(same(a.join(a), a));
        prop_assert!(same(a.join(b), b.join(a)));
        prop_assert!(leq(a, a.join(b)));
        prop_assert!(leq(b, a.join(b)));
    }

    /// Claim 3: every published activity number lives in `[0, 1]` —
    /// the fixpoint bounds and the expected-case re-propagation alike.
    #[test]
    fn activity_stays_in_the_unit_interval(
        p in picks(),
        feedback in any::<bool>(),
        raw in (any::<u16>(), any::<u16>()),
    ) {
        let n = build_circuit(&p, feedback);
        let seeds = seeds_for(&n, raw);
        let levels = Levelization::compute(&n);
        let activity = Activity::analyze(&n, &seeds, &levels);
        for i in 0..n.num_nets() {
            let net = logicsim_netlist::NetId(i as u32);
            let d = activity.density(net);
            prop_assert!((0.0..=1.0).contains(&d), "net {i} density {d}");
            let (lo, hi) = activity.net(net).p1();
            prop_assert!(lo >= 0.0 && hi <= 1.0 && lo <= hi, "net {i}: [{lo}, {hi}]");
        }
        for (i, &e) in activity.expected_densities(&n, &seeds, &levels).iter().enumerate() {
            prop_assert!((0.0..=1.0).contains(&e), "net {i} expected {e}");
        }
    }

    /// Claim 4 on random circuits: the worklist engine and the dense
    /// Jacobi reference agree net-for-net on the ternary lattice.
    #[test]
    fn ternary_engine_matches_jacobi_on_random_circuits(
        p in picks(),
        feedback in any::<bool>(),
    ) {
        let n = build_circuit(&p, feedback);
        let analysis = TernaryAnalysis::new(&n);
        prop_assert_eq!(solve(&analysis).values, jacobi(&analysis));
    }
}

/// Claim 4 on the real corpus: on all five paper benchmarks the ported
/// ternary analysis reproduces the old `opt::absint` dense-iteration
/// results exactly.
#[test]
fn ternary_engine_matches_jacobi_on_all_five_benchmarks() {
    for bench in Benchmark::ALL {
        let netlist = bench.build_default().netlist;
        let analysis = TernaryAnalysis::new(&netlist);
        let engine = solve(&analysis);
        let reference = jacobi(&analysis);
        assert_eq!(
            engine.values,
            reference,
            "{} diverges from the absint reference",
            bench.paper_name()
        );
        assert_eq!(
            engine.widened,
            0,
            "{}: monotone transfer must not widen",
            bench.paper_name()
        );
    }
}
