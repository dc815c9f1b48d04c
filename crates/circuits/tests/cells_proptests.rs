//! Property tests for the arithmetic cells: hardware vs integer
//! arithmetic over random operands and widths.

use logicsim_circuits::cells;
use logicsim_netlist::{Level, NetId, NetlistBuilder};
use logicsim_sim::Simulator;
use proptest::prelude::*;

fn drive_bits(sim: &mut Simulator<'_>, nets: &[NetId], value: u64) {
    for (i, &net) in nets.iter().enumerate() {
        sim.set_input(net, Level::from_bool(value >> i & 1 == 1));
    }
}

fn read_bits(sim: &Simulator<'_>, nets: &[NetId]) -> Option<u64> {
    let mut v = 0u64;
    for (i, &net) in nets.iter().enumerate() {
        match sim.level(net).to_bool() {
            Some(true) => v |= 1 << i,
            Some(false) => {}
            None => return None,
        }
    }
    Some(v)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Ripple-carry adder == integer addition for every width 1..=8.
    #[test]
    fn adder_matches_integer_addition(
        width in 1usize..=8,
        a in any::<u64>(),
        b in any::<u64>(),
        cin in any::<bool>(),
    ) {
        let mask = (1u64 << width) - 1;
        let (av, bv) = (a & mask, b & mask);
        let mut builder = NetlistBuilder::new("adder");
        let an: Vec<NetId> = (0..width).map(|i| builder.input(format!("a{i}"))).collect();
        let bn: Vec<NetId> = (0..width).map(|i| builder.input(format!("b{i}"))).collect();
        let cn = builder.input("cin");
        let (sum, cout) = cells::ripple_adder(&mut builder, &an, &bn, cn, "add");
        let netlist = builder.finish().expect("valid");
        let mut sim = Simulator::new(&netlist).expect("pre-flight");
        drive_bits(&mut sim, &an, av);
        drive_bits(&mut sim, &bn, bv);
        sim.set_input(cn, Level::from_bool(cin));
        sim.run_to_quiescence(100_000);
        let mut got = read_bits(&sim, &sum).expect("known sum");
        if sim.level(cout) == Level::One {
            got |= 1 << width;
        }
        prop_assert_eq!(got, av + bv + u64::from(cin), "{}+{}+{} @ width {}", av, bv, cin, width);
    }

    /// The less-than comparator == integer comparison.
    #[test]
    fn lt_comparator_matches_integer_compare(
        width in 1usize..=8,
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let mask = (1u64 << width) - 1;
        let (av, bv) = (a & mask, b & mask);
        let mut builder = NetlistBuilder::new("cmp");
        let an: Vec<NetId> = (0..width).map(|i| builder.input(format!("a{i}"))).collect();
        let bn: Vec<NetId> = (0..width).map(|i| builder.input(format!("b{i}"))).collect();
        let lt = cells::lt_comparator(&mut builder, &an, &bn, "lt");
        let netlist = builder.finish().expect("valid");
        let mut sim = Simulator::new(&netlist).expect("pre-flight");
        drive_bits(&mut sim, &an, av);
        drive_bits(&mut sim, &bn, bv);
        sim.run_to_quiescence(100_000);
        prop_assert_eq!(sim.level(lt), Level::from_bool(av < bv));
    }

    /// Decoder output is exactly one-hot at the selected code.
    #[test]
    fn decoder_is_one_hot_for_all_codes(
        bits in 1usize..=4,
        code in any::<u64>(),
    ) {
        let code = code & ((1 << bits) - 1);
        let mut builder = NetlistBuilder::new("dec");
        let sel: Vec<NetId> = (0..bits).map(|i| builder.input(format!("s{i}"))).collect();
        let outs = cells::decoder(&mut builder, &sel, "d");
        let netlist = builder.finish().expect("valid");
        let mut sim = Simulator::new(&netlist).expect("pre-flight");
        drive_bits(&mut sim, &sel, code);
        sim.run_to_quiescence(100_000);
        for (i, &o) in outs.iter().enumerate() {
            prop_assert_eq!(sim.level(o), Level::from_bool(i as u64 == code), "out {}", i);
        }
    }

    /// The synchronous counter counts modulo 2^bits under random
    /// enable patterns.
    #[test]
    fn counter_counts_modulo(
        bits in 1usize..=4,
        enables in proptest::collection::vec(any::<bool>(), 1..12),
    ) {
        let mut builder = NetlistBuilder::new("cnt");
        let clk = builder.input("clk");
        let en = builder.input("en");
        let rst = builder.input("rst");
        let qs = cells::counter(&mut builder, clk, en, rst, bits, "c");
        let netlist = builder.finish().expect("valid");
        let mut sim = Simulator::new(&netlist).expect("pre-flight");
        let clock = |sim: &mut Simulator<'_>| {
            sim.set_input(clk, Level::One);
            let t = sim.now();
            sim.run_until(t + 64);
            sim.set_input(clk, Level::Zero);
            let t = sim.now();
            sim.run_until(t + 64);
        };
        // Reset.
        sim.set_input(rst, Level::One);
        sim.set_input(en, Level::One);
        sim.set_input(clk, Level::Zero);
        let t = sim.now();
        sim.run_until(t + 64);
        clock(&mut sim);
        sim.set_input(rst, Level::Zero);
        let t = sim.now();
        sim.run_until(t + 64);
        let mut expected: u64 = 0;
        let modulo = 1u64 << bits;
        for e in enables {
            sim.set_input(en, Level::from_bool(e));
            let t = sim.now();
            sim.run_until(t + 64);
            clock(&mut sim);
            if e {
                expected = (expected + 1) % modulo;
            }
            prop_assert_eq!(read_bits(&sim, &qs), Some(expected));
        }
    }
}
