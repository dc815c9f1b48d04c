//! Differential tests for the compiled switch-group solver and the flat
//! [`ChannelGroups`].
//!
//! [`reference`] holds verbatim copies of the two implementations these
//! replaced: the per-call `resolve_group_into` (binary search per switch
//! terminal, `Component` load per switch, adjacency CSR rebuilt on every
//! call) and the `HashMap`/`Vec<Vec<_>>` group construction. They exist
//! only here, as the oracle. Both paths into the one remaining kernel —
//! [`GroupImage::resolve_into`] and the [`resolve_group_into`] wrapper —
//! must reproduce the old solver's `(net, Signal)` output exactly, in
//! member order, and the flat groups must reproduce the old group ids,
//! member order and switch order exactly.

use logicsim_circuits::{scaled, Benchmark, ScaledParams};
use logicsim_netlist::{
    ChannelGroups, Level, NetId, Netlist, NetlistBuilder, Signal, Strength, SwitchKind,
};
use logicsim_sim::solver::{resolve_group_into, GroupImage, Scratch};
use proptest::prelude::*;

/// The implementations this PR replaced, kept as oracles.
mod reference {
    use logicsim_netlist::{
        ChannelGroups, CompId, ComponentRef, Level, NetId, Netlist, Signal, Strength,
    };
    use std::collections::HashMap;

    #[derive(Debug, Clone, Default)]
    pub struct Scratch {
        contrib: Vec<Signal>,
        edges: Vec<(usize, usize, bool)>,
        adj_off: Vec<u32>,
        adj: Vec<(u32, bool)>,
        fill: Vec<u32>,
        dirty: Vec<usize>,
        on_list: Vec<bool>,
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "verbatim signature of the function under comparison"
    )]
    pub fn resolve_group_into<FD, FC, FP>(
        netlist: &Netlist,
        groups: &ChannelGroups,
        group: u32,
        scratch: &mut Scratch,
        ext_drive: FD,
        control_level: FC,
        prev_level: FP,
        out: &mut Vec<(NetId, Signal)>,
    ) where
        FD: Fn(NetId) -> Signal,
        FC: Fn(NetId) -> Level,
        FP: Fn(NetId) -> Level,
    {
        let members = groups.members(group);
        let local = |net: NetId| -> usize {
            members
                .binary_search(&net)
                .or_else(|_| members.iter().position(|&m| m == net).ok_or(()))
                .expect("switch channel net must belong to its group")
        };
        let contrib = &mut scratch.contrib;
        contrib.clear();
        contrib.extend(members.iter().map(|&n| ext_drive(n)));

        let edges = &mut scratch.edges;
        edges.clear();
        for &sw in groups.switches(group) {
            if let ComponentRef::Switch {
                kind,
                control,
                a,
                b,
            } = netlist.component(sw)
            {
                let cond = kind.conducts(control_level(control));
                if cond != Some(false) {
                    edges.push((local(a), local(b), cond.is_none()));
                }
            }
        }

        let nloc = members.len();
        let adj_off = &mut scratch.adj_off;
        adj_off.clear();
        adj_off.resize(nloc + 1, 0);
        for &(a, b, _) in edges.iter() {
            adj_off[a + 1] += 1;
            adj_off[b + 1] += 1;
        }
        for i in 0..nloc {
            adj_off[i + 1] += adj_off[i];
        }
        let adj = &mut scratch.adj;
        adj.clear();
        adj.resize(2 * edges.len(), (0, false));
        let fill = &mut scratch.fill;
        fill.clear();
        fill.extend_from_slice(&adj_off[..nloc]);
        for &(a, b, unknown) in edges.iter() {
            adj[fill[a] as usize] = (b as u32, unknown);
            fill[a] += 1;
            adj[fill[b] as usize] = (a as u32, unknown);
            fill[b] += 1;
        }

        let dirty = &mut scratch.dirty;
        dirty.clear();
        dirty.extend(0..nloc);
        let on_list = &mut scratch.on_list;
        on_list.clear();
        on_list.resize(nloc, true);
        while let Some(i) = dirty.pop() {
            on_list[i] = false;
            for &(nbr, unknown) in &adj[adj_off[i] as usize..adj_off[i + 1] as usize] {
                let mut cand = contrib[i].through_switch();
                if unknown {
                    cand.level = Level::X;
                }
                if cand.strength == Strength::HighZ {
                    continue;
                }
                let dst = nbr as usize;
                let joined = contrib[dst].resolve(cand);
                if joined != contrib[dst] {
                    contrib[dst] = joined;
                    if !on_list[dst] {
                        on_list[dst] = true;
                        dirty.push(dst);
                    }
                }
            }
        }

        out.extend(members.iter().zip(contrib.iter()).map(|(&net, &sig)| {
            if sig.strength == Strength::HighZ {
                (net, Signal::new(prev_level(net), Strength::HighZ))
            } else {
                (net, sig)
            }
        }));
    }

    /// The old `ChannelGroups` fields, as `ChannelGroups::compute` used
    /// to build them.
    pub struct Groups {
        pub group_of: Vec<u32>,
        pub members: Vec<Vec<NetId>>,
        pub switches: Vec<Vec<CompId>>,
    }

    pub fn compute_groups(netlist: &Netlist) -> Groups {
        let n = netlist.num_nets();
        let mut parent: Vec<u32> = (0..n as u32).collect();
        fn find(parent: &mut [u32], x: u32) -> u32 {
            let mut root = x;
            while parent[root as usize] != root {
                root = parent[root as usize];
            }
            let mut cur = x;
            while parent[cur as usize] != root {
                let next = parent[cur as usize];
                parent[cur as usize] = root;
                cur = next;
            }
            root
        }
        for (_, comp) in netlist.iter() {
            if let ComponentRef::Switch { a, b, .. } = comp {
                let ra = find(&mut parent, a.0);
                let rb = find(&mut parent, b.0);
                if ra != rb {
                    parent[ra as usize] = rb;
                }
            }
        }
        let mut group_ids: HashMap<u32, u32> = HashMap::new();
        let mut group_of = vec![0u32; n];
        let mut members: Vec<Vec<NetId>> = Vec::new();
        for (i, slot) in group_of.iter_mut().enumerate() {
            let root = find(&mut parent, i as u32);
            let gid = *group_ids.entry(root).or_insert_with(|| {
                members.push(Vec::new());
                (members.len() - 1) as u32
            });
            *slot = gid;
            members[gid as usize].push(NetId(i as u32));
        }
        let mut switches: Vec<Vec<CompId>> = vec![Vec::new(); members.len()];
        for (id, comp) in netlist.iter() {
            if let ComponentRef::Switch { a, .. } = comp {
                switches[group_of[a.index()] as usize].push(id);
            }
        }
        Groups {
            group_of,
            members,
            switches,
        }
    }
}

/// `(pmos, control selector, terminal a, terminal b)`; selectors are
/// reduced modulo the pool sizes by [`switch_network`].
type SwitchSpec = (bool, u8, u8, u8);

/// A random switch network over `channel` channel nets and `controls`
/// primary inputs. Terminals are drawn with replacement, so parallel
/// switches on one net pair, cycles and `a == b` self-loops all occur;
/// a control may be an input or a channel net that some switch touches
/// (groups then gate each other).
fn switch_network(channel: usize, controls: usize, specs: &[SwitchSpec]) -> Netlist {
    let mut b = NetlistBuilder::new("switches");
    let inputs: Vec<NetId> = (0..controls).map(|i| b.input(format!("c{i}"))).collect();
    let nets: Vec<NetId> = (0..channel).map(|i| b.net(format!("n{i}"))).collect();
    let touched: Vec<bool> = (0..channel)
        .map(|i| {
            specs
                .iter()
                .any(|&(_, _, a, b)| a as usize % channel == i || b as usize % channel == i)
        })
        .collect();
    for &(pmos, ctl, a, bb) in specs {
        let pick = ctl as usize % (controls + channel);
        let control = match pick.checked_sub(controls) {
            Some(i) if touched[i] => nets[i],
            // An untouched channel net has no driver, so it cannot be
            // read as a control; fall back to an input.
            _ => inputs[pick % controls],
        };
        let kind = if pmos {
            SwitchKind::Pmos
        } else {
            SwitchKind::Nmos
        };
        b.switch(
            kind,
            control,
            nets[a as usize % channel],
            nets[bb as usize % channel],
        );
    }
    b.finish().expect("switch network builds")
}

const LEVELS: [Level; 3] = [Level::Zero, Level::One, Level::X];

/// Selector 0 is floating; 1..=12 walk Resistive/Weak/Strong/Supply x
/// 0/1/X.
fn drive(sel: u8) -> Signal {
    const STRENGTHS: [Strength; 4] = [
        Strength::Resistive,
        Strength::Weak,
        Strength::Strong,
        Strength::Supply,
    ];
    match sel.checked_sub(1) {
        None => Signal::FLOATING,
        Some(i) => Signal::new(LEVELS[i as usize % 3], STRENGTHS[i as usize / 3 % 4]),
    }
}

/// One assignment of values to every net: `(external drive selector,
/// current level selector, previous level selector)`.
type Values = Vec<(u8, u8, u8)>;

/// Resolves every group of `netlist` under `values` three ways — the
/// reference solver, the wrapper, the compiled image — and asserts that
/// all three agree. Scratch buffers are shared across groups, as the
/// engines share them.
fn assert_all_groups_agree(
    netlist: &Netlist,
    groups: &ChannelGroups,
    image: &GroupImage,
    values: &Values,
) {
    let at = |net: NetId| values[net.index() % values.len()];
    let ext = |net: NetId| drive(at(net).0);
    let ctl = |net: NetId| LEVELS[at(net).1 as usize % 3];
    let prev = |net: NetId| LEVELS[at(net).2 as usize % 3];
    let mut ref_scratch = reference::Scratch::default();
    let mut scratch = Scratch::default();
    let (mut want, mut wrapped, mut compiled) = (Vec::new(), Vec::new(), Vec::new());
    for group in 0..groups.num_groups() as u32 {
        want.clear();
        reference::resolve_group_into(
            netlist,
            groups,
            group,
            &mut ref_scratch,
            ext,
            ctl,
            prev,
            &mut want,
        );
        wrapped.clear();
        resolve_group_into(
            netlist,
            groups,
            group,
            &mut scratch,
            ext,
            ctl,
            prev,
            &mut wrapped,
        );
        compiled.clear();
        image.resolve_into(groups, group, &mut scratch, ext, ctl, prev, &mut compiled);
        assert_eq!(wrapped, want, "wrapper, group {group}");
        assert_eq!(compiled, want, "image, group {group}");
    }
}

/// `ChannelGroups` keeps the reference's groups that hold a switch, in
/// the reference's order, and puts every other net in no group.
fn assert_groups_match_reference(netlist: &Netlist) {
    let want = reference::compute_groups(netlist);
    let got = ChannelGroups::compute(netlist);
    // Reference group id -> ChannelGroups id, for groups with a switch.
    let mut kept = vec![ChannelGroups::NONE; want.members.len()];
    let mut next = 0;
    for (g, switches) in want.switches.iter().enumerate() {
        if !switches.is_empty() {
            kept[g] = next;
            next += 1;
        }
    }
    assert_eq!(got.num_groups(), next as usize);
    for (i, &g) in want.group_of.iter().enumerate() {
        assert_eq!(got.group_of(NetId(i as u32)), kept[g as usize], "net {i}");
    }
    for (g, (members, switches)) in want.members.iter().zip(&want.switches).enumerate() {
        let gid = kept[g];
        if gid == ChannelGroups::NONE {
            continue;
        }
        assert_eq!(got.members(gid), members.as_slice(), "group {g}");
        assert_eq!(got.switches(gid), switches.as_slice(), "group {g}");
        assert_eq!(got.is_nontrivial(gid), members.len() > 1, "group {g}");
    }
}

/// Up to 159 channel nets and 239 switches: small groups, cycles and
/// self-loops as before, and in about a third of the cases a group of
/// more than 64 members, past any small-group sizing of the kernel's
/// buffers.
fn network_strategy() -> impl Strategy<Value = Netlist> {
    (
        2usize..160,
        1usize..4,
        proptest::collection::vec(
            (any::<bool>(), any::<u8>(), any::<u8>(), any::<u8>()),
            1..240,
        ),
    )
        .prop_map(|(channel, controls, specs)| switch_network(channel, controls, &specs))
}

proptest! {
    /// Compiled kernel (both entry points) against the pre-PR solver on
    /// random switch graphs: both polarities, `X` controls, cycles,
    /// parallel switches, self-loops, every drive strength including
    /// floating, and random previous levels for charge retention.
    #[test]
    fn compiled_kernel_matches_reference_solver(
        netlist in network_strategy(),
        rounds in proptest::collection::vec(
            proptest::collection::vec((0u8..13, 0u8..3, 0u8..3), 13),
            1..5,
        ),
    ) {
        let groups = ChannelGroups::compute(&netlist);
        let image = GroupImage::build(&netlist, &groups);
        for values in &rounds {
            assert_all_groups_agree(&netlist, &groups, &image, values);
        }
    }

    /// Flat `ChannelGroups` against the `HashMap`/`Vec<Vec<_>>`
    /// construction on random netlists.
    #[test]
    fn flat_groups_match_reference_construction(netlist in network_strategy()) {
        assert_groups_match_reference(&netlist);
    }
}

/// Crossing a switch is not monotone across strength classes: a rail
/// behind a conducting switch arrives `Strong` and overrides a `Weak`
/// value its neighbour may already have forwarded. The outcome then
/// depends on the order members are visited in, which is why the
/// compiled kernel keeps the reference order instead of seeding only
/// the driven members. This is the smallest such network — rail `d`
/// and gate output `c` both reach `a`, and `b` hangs off `a` — in both
/// net numberings; on the first the reference leaves `b` at weak `X`,
/// on the second at weak `0`, and the compiled kernel must follow it
/// on each.
#[test]
fn supply_override_follows_reference_order() {
    for rail_first in [true, false] {
        let mut bld = NetlistBuilder::new("override");
        let on = bld.input("on");
        let (d, a, c) = if rail_first {
            let d = bld.net("d");
            let a = bld.net("a");
            (d, a, bld.net("c"))
        } else {
            let c = bld.net("c");
            let a = bld.net("a");
            (bld.net("d"), a, c)
        };
        let b = bld.net("b");
        bld.switch(SwitchKind::Nmos, on, d, a);
        bld.switch(SwitchKind::Nmos, on, c, a);
        bld.switch(SwitchKind::Nmos, on, a, b);
        let netlist = bld.finish().unwrap();
        let groups = ChannelGroups::compute(&netlist);
        let image = GroupImage::build(&netlist, &groups);
        let ext = |net: NetId| {
            if net == d {
                Signal::new(Level::Zero, Strength::Supply)
            } else if net == c {
                Signal::HIGH
            } else {
                Signal::FLOATING
            }
        };
        let group = groups.group_of(b);
        let (mut want, mut got) = (Vec::new(), Vec::new());
        reference::resolve_group_into(
            &netlist,
            &groups,
            group,
            &mut reference::Scratch::default(),
            ext,
            |_| Level::One,
            |_| Level::X,
            &mut want,
        );
        image.resolve_into(
            &groups,
            group,
            &mut Scratch::default(),
            ext,
            |_| Level::One,
            |_| Level::X,
            &mut got,
        );
        assert_eq!(got, want, "rail_first = {rail_first}");
        let b_level = want.iter().find(|&&(n, _)| n == b).unwrap().1;
        let expected = if rail_first { Level::X } else { Level::Zero };
        assert_eq!(b_level, Signal::weak(expected), "rail_first = {rail_first}");
    }
}

/// One `Scratch` carried across groups that straddle its buffers'
/// growth — a 130-member pass chain, a 2-member transmission gate, a
/// 65-member chain, then the three again — through both entry points.
/// Every result must equal the one from a fresh `Scratch` and the
/// reference solver's, so nothing a larger group left in the buffers
/// leaks into a smaller one.
#[test]
fn grown_scratch_matches_fresh_scratch_and_reference() {
    let mut bld = NetlistBuilder::new("sizes");
    let on = bld.input("on");
    let off = bld.input("off");
    let unknown = bld.input("unknown");
    let chain = |bld: &mut NetlistBuilder, name: &str, members: usize| {
        let head = bld.input(format!("{name}_head"));
        let mut prev = head;
        for i in 1..members {
            let next = bld.net(format!("{name}{i}"));
            // Mostly conducting, with an open and an `X` switch so the
            // far end retains charge and part of the chain reads `X`.
            let control = match i % 23 {
                11 => off,
                17 => unknown,
                _ => on,
            };
            bld.switch(SwitchKind::Nmos, control, prev, next);
            prev = next;
        }
        head
    };
    let long = chain(&mut bld, "long", 130);
    let short = chain(&mut bld, "short", 65);
    let d = bld.input("d");
    let m = bld.net("m");
    bld.transmission_gate(on, off, d, m);
    let netlist = bld.finish().unwrap();
    let groups = ChannelGroups::compute(&netlist);
    let image = GroupImage::build(&netlist, &groups);
    let sizes: Vec<(u32, usize)> = [long, d, short]
        .iter()
        .map(|&net| groups.group_of(net))
        .map(|g| (g, groups.members(g).len()))
        .collect();
    assert_eq!(
        sizes.iter().map(|&(_, n)| n).collect::<Vec<_>>(),
        [130, 2, 65]
    );

    // A rail at one end of each chain and an opposing gate output part
    // way along: where a rail and a gate output meet, the fixpoint
    // depends on visiting order, so leftover worklist state shows.
    let long_mid = netlist.find_net("long64").unwrap();
    let short_mid = netlist.find_net("short40").unwrap();
    let ext = |net: NetId| {
        if net == long {
            Signal::VDD
        } else if net == short {
            Signal::GND
        } else if net == long_mid {
            Signal::LOW
        } else if net == short_mid || net == d {
            Signal::HIGH
        } else {
            Signal::FLOATING
        }
    };
    let ctl = |net: NetId| {
        if net == on {
            Level::One
        } else if net == off {
            Level::Zero
        } else {
            Level::X
        }
    };
    let prev = |net: NetId| LEVELS[net.index() % 3];
    let mut scratch = Scratch::default();
    for &(group, _) in sizes.iter().chain(&sizes) {
        let mut want = Vec::new();
        reference::resolve_group_into(
            &netlist,
            &groups,
            group,
            &mut reference::Scratch::default(),
            ext,
            ctl,
            prev,
            &mut want,
        );
        let mut fresh = Vec::new();
        image.resolve_into(
            &groups,
            group,
            &mut Scratch::default(),
            ext,
            ctl,
            prev,
            &mut fresh,
        );
        let (mut reused, mut wrapped) = (Vec::new(), Vec::new());
        image.resolve_into(&groups, group, &mut scratch, ext, ctl, prev, &mut reused);
        resolve_group_into(
            &netlist,
            &groups,
            group,
            &mut scratch,
            ext,
            ctl,
            prev,
            &mut wrapped,
        );
        assert_eq!(fresh, want, "fresh scratch, group {group}");
        assert_eq!(reused, want, "reused scratch, group {group}");
        assert_eq!(
            wrapped, want,
            "reused scratch via the wrapper, group {group}"
        );
    }
}

/// Both comparisons on the five benchmark families at 10k components:
/// group structure against the old construction, and every group
/// resolved under three pseudo-random value assignments.
#[test]
fn five_families_at_10k_match_reference() {
    for bench in Benchmark::ALL {
        let inst = scaled::build(&ScaledParams {
            base: bench,
            target_components: 10_000,
            seed: scaled::DEFAULT_SEED,
        });
        let netlist = &inst.netlist;
        println!("{bench:?}"); // shown with a failure, which names only the group
        assert_groups_match_reference(netlist);
        let groups = ChannelGroups::compute(netlist);
        let image = GroupImage::build(netlist, &groups);
        let mut state = 0x1987_u64;
        for _ in 0..3 {
            let values: Values = (0..netlist.num_nets())
                .map(|_| {
                    // SplitMix64.
                    state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                    z ^= z >> 31;
                    ((z % 13) as u8, (z >> 8) as u8 % 3, (z >> 16) as u8 % 3)
                })
                .collect();
            assert_all_groups_agree(netlist, &groups, &image, &values);
        }
    }
}
