//! Switch-level resolution of channel-connected net groups.
//!
//! Bidirectional MOS switches connect nets into channel-connected groups
//! (computed by [`logicsim_netlist::ChannelGroups`]). Whenever any
//! external drive or switch control in a group changes, the whole group
//! is re-resolved: externally-driven values spread through conducting
//! switches, degrading in strength ([`Signal::through_switch`]), and
//! contributions meeting at a net join in the (strength, level) lattice.
//! Nets no driver reaches retain their previous level as stored charge.
//!
//! Switches whose control is `X` are handled pessimistically: they
//! propagate their source's value with level forced to `X`, so an
//! uncertain connection can never manufacture a confident `0`/`1`.
//!
//! # Compiled groups
//!
//! Everything about a group that does not depend on signal values is
//! derived once ([`GroupImage::build`], at engine construction) and laid
//! out beside [`ChannelGroups`]' flat arrays: per switch a packed
//! control word and the XOR of its two terminals' member indices, per
//! member the run of switch slots incident to it. A resolution then
//! reads each control level once into a conduction byte and relaxes over
//! that static adjacency, skipping open switches — no search, no
//! [`Component`] access, no per-call graph build. The free functions
//! [`resolve_group`]/[`resolve_group_into`] compile their one group into
//! [`Scratch`] first and run the same kernel.
//!
//! A [`Scratch`] grows once, to the largest group it has seen, and is
//! then addressed by index: a resolution of `n` members and `s` switches
//! writes `n` contributions, worklist slots and on-list flags and `s`
//! conduction bytes, and nothing else. The worklist is a slice and a
//! stack pointer; a member is on it at most once, so it never outgrows
//! `n`. On the engines' groups — 2.07 members and 2.17 switches per
//! resolution on `priority_queue@100k` — that per-call overhead, not
//! the relaxation itself, is most of the cost.

use logicsim_netlist::{
    ChannelGroups, CompId, Component, Level, NetId, Netlist, Signal, Strength, SwitchKind,
};
use std::ops::Range;

/// The value-independent structure of channel groups, in the layout the
/// relaxation kernel walks. One instance holds either every group of a
/// netlist ([`GroupImage`], indexed like [`ChannelGroups`]' flat arrays)
/// or a single group compiled on demand (inside [`Scratch`]).
#[derive(Debug, Clone)]
struct Compiled {
    /// Per switch slot: `control net << 1 | is_pmos`.
    ctl: Vec<u32>,
    /// Per switch slot: `local_a ^ local_b`, the member indices (inside
    /// the switch's group) of its two channel terminals. Arriving at one
    /// terminal, XOR gives the other (itself when `a == b`).
    span: Vec<u32>,
    /// Per member position, plus a final sentinel: offsets into `adj`.
    adj_off: Vec<u32>,
    /// Group-local switch slots incident to each member, in slot order;
    /// a switch with `a == b` is listed twice on that member.
    adj: Vec<u32>,
}

impl Default for Compiled {
    fn default() -> Compiled {
        Compiled::with_capacity(0, 0)
    }
}

impl Compiled {
    /// No groups yet, with room for `switches` slots and `members`
    /// positions.
    fn with_capacity(switches: usize, members: usize) -> Compiled {
        let mut adj_off = Vec::with_capacity(members + 1);
        adj_off.push(0);
        Compiled {
            ctl: Vec::with_capacity(switches),
            span: Vec::with_capacity(switches),
            adj_off,
            adj: Vec::with_capacity(2 * switches),
        }
    }

    fn clear(&mut self) {
        self.ctl.clear();
        self.span.clear();
        self.adj_off.truncate(1);
        self.adj.clear();
    }

    /// Appends one group: a member position per entry of `members` and a
    /// switch slot per entry of `switches` that is a switch bridging two
    /// of them (every entry, when both lists come from
    /// [`ChannelGroups::compute`] on `netlist`; anything else is
    /// skipped). `tmp` is caller-owned scratch.
    ///
    /// # Panics
    ///
    /// Panics if a control net id does not fit the packed control word.
    fn push_group(
        &mut self,
        netlist: &Netlist,
        members: &[NetId],
        switches: &[CompId],
        tmp: &mut Vec<u32>,
    ) {
        // Local indices are found by search, once, here.
        debug_assert!(members.is_sorted(), "ChannelGroups lists members ascending");
        let first_switch = self.span.len();
        let first_member = self.adj_off.len() - 1;
        let adj_base = self.adj.len() as u32;
        // Member `i`'s run starts at `off[i]` and ends at `off[i + 1]`.
        self.adj_off
            .resize(self.adj_off.len() + members.len(), adj_base);
        let off = &mut self.adj_off[first_member..];
        // Pass 1: one slot per switch; degrees counted one member up so
        // the prefix sum below turns them into run starts in place.
        // `tmp` remembers each slot's first terminal for pass 2.
        tmp.clear();
        for &sw in switches {
            let Component::Switch {
                kind,
                control,
                a,
                b,
            } = netlist.component(sw)
            else {
                continue;
            };
            assert!(
                control.0 <= u32::MAX >> 1,
                "control net id must fit 31 bits"
            );
            let (Ok(la), Ok(lb)) = (members.binary_search(a), members.binary_search(b)) else {
                continue;
            };
            let (la, lb) = (la as u32, lb as u32);
            self.ctl
                .push(control.0 << 1 | u32::from(*kind == SwitchKind::Pmos));
            self.span.push(la ^ lb);
            tmp.push(la);
            off[la as usize + 1] += 1;
            off[lb as usize + 1] += 1;
        }
        for i in 1..members.len() {
            off[i + 1] += off[i] - adj_base;
        }
        // Pass 2: fill each member's run in slot order.
        let spans = &self.span[first_switch..];
        let cursors = tmp.len();
        tmp.extend_from_slice(&off[..members.len()]);
        self.adj.resize(self.adj.len() + 2 * spans.len(), 0);
        for (slot, &span) in spans.iter().enumerate() {
            let la = tmp[slot];
            for end in [la, la ^ span] {
                let at = &mut tmp[cursors + end as usize];
                self.adj[*at as usize] = slot as u32;
                *at += 1;
            }
        }
    }

    /// The slices of one group: its `members`, whose positions start at
    /// `first_member`, and its switch slots `switches`.
    fn group<'a>(
        &'a self,
        members: &'a [NetId],
        first_member: usize,
        switches: Range<usize>,
    ) -> Group<'a> {
        Group {
            members,
            ctl: &self.ctl[switches.clone()],
            span: &self.span[switches],
            adj_off: &self.adj_off[first_member..=first_member + members.len()],
            adj: &self.adj,
        }
    }
}

/// One compiled group, as the kernel reads it.
struct Group<'a> {
    members: &'a [NetId],
    /// This group's switch slots.
    ctl: &'a [u32],
    span: &'a [u32],
    /// `members.len() + 1` offsets into `adj`.
    adj_off: &'a [u32],
    adj: &'a [u32],
}

/// Per-resolution state of the relaxation kernel, sized to the largest
/// group seen and addressed by index (see the [module docs](self)).
#[derive(Debug, Clone, Default)]
struct Work {
    /// Current contribution per member.
    contrib: Vec<Signal>,
    /// Conduction per switch slot ([`SwitchKind::conducts`]), read once
    /// per resolution.
    conducts: Vec<Option<bool>>,
    /// The worklist: a stack of member positions, live below the stack
    /// pointer.
    stack: Vec<u32>,
    /// Whether each member is on the worklist.
    on_list: Vec<bool>,
}

impl Work {
    /// Grows every buffer to hold a group of `members` nets and
    /// `switches` slots; they never shrink.
    #[cold]
    fn grow(&mut self, members: usize, switches: usize) {
        let members = members.max(self.contrib.len());
        self.contrib.resize(members, Signal::FLOATING);
        self.stack.resize(members, 0);
        self.on_list.resize(members, false);
        self.conducts
            .resize(switches.max(self.conducts.len()), None);
    }
}

/// Reusable buffers for group resolution, so the per-tick settling loop
/// performs no allocation once the buffers have grown to the size of
/// the largest group.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    work: Work,
    /// The one group [`resolve_group_into`] compiles per call.
    one: Compiled,
    tmp: Vec<u32>,
}

/// Every channel group of a netlist, compiled for the relaxation kernel
/// (see the [module docs](self)). Costs 16 bytes per switch and 4 bytes
/// per net on top of the [`ChannelGroups`] it was built from, whose
/// member arrays it indexes rather than copies.
#[derive(Debug, Clone)]
pub struct GroupImage {
    compiled: Compiled,
}

impl GroupImage {
    /// Compiles all groups. `groups` must have been computed from
    /// `netlist`, and the same `groups` must be passed to
    /// [`GroupImage::resolve_into`]: switch slots and member positions
    /// are `groups`' own.
    ///
    /// # Panics
    ///
    /// Panics if a net id used as a switch control exceeds 31 bits.
    #[must_use]
    pub fn build(netlist: &Netlist, groups: &ChannelGroups) -> GroupImage {
        let mut compiled = Compiled::with_capacity(netlist.num_switches(), netlist.num_nets());
        let mut tmp = Vec::new();
        for group in 0..groups.num_groups() as u32 {
            compiled.push_group(
                netlist,
                groups.members(group),
                groups.switches(group),
                &mut tmp,
            );
            debug_assert_eq!(compiled.ctl.len(), groups.switch_range(group).end);
        }
        GroupImage { compiled }
    }

    /// Resolves one group to a fixpoint, appending `(net, resolved)` for
    /// every member net to `out` in member order. The closures are those
    /// of [`resolve_group`].
    #[expect(
        clippy::too_many_arguments,
        reason = "resolve_group_into's closure interface plus the group tables"
    )]
    pub fn resolve_into<FD, FC, FP>(
        &self,
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
        let compiled = self.compiled.group(
            groups.members(group),
            groups.member_range(group).start,
            groups.switch_range(group),
        );
        relax(
            compiled,
            &mut scratch.work,
            ext_drive,
            control_level,
            prev_level,
            out,
        );
    }
}

/// Resolves one channel group to a fixpoint.
///
/// * `ext_drive(net)` — the join of all non-switch drivers currently on
///   `net` (gate outputs, inputs, pulls, rails).
/// * `control_level(net)` — current level of any net (used for switch
///   controls, which may lie outside the group).
/// * `prev_level(net)` — the net's level before this resolution, used
///   for charge retention.
///
/// Returns `(net, resolved)` for every member net, in member order.
///
/// The propagation only ever raises a net's contribution in the finite
/// signal join lattice, so it terminates in at most
/// `O(members * lattice_height)` relaxations regardless of switch
/// topology (including cycles).
#[must_use]
pub fn resolve_group<FD, FC, FP>(
    netlist: &Netlist,
    groups: &ChannelGroups,
    group: u32,
    ext_drive: FD,
    control_level: FC,
    prev_level: FP,
) -> Vec<(NetId, Signal)>
where
    FD: Fn(NetId) -> Signal,
    FC: Fn(NetId) -> Level,
    FP: Fn(NetId) -> Level,
{
    let mut scratch = Scratch::default();
    let mut out = Vec::new();
    resolve_group_into(
        netlist,
        groups,
        group,
        &mut scratch,
        ext_drive,
        control_level,
        prev_level,
        &mut out,
    );
    out
}

/// Allocation-free variant of [`resolve_group`]: compiles the group and
/// relaxes inside `scratch`'s buffers, appending `(net, resolved)` pairs
/// to `out` in member order. Results are identical to [`resolve_group`]
/// and to [`GroupImage::resolve_into`], which skips the compile step.
#[expect(
    clippy::too_many_arguments,
    reason = "mirrors resolve_group's closure interface plus the two buffers"
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
    let Scratch { work, one, tmp } = scratch;
    one.clear();
    one.push_group(netlist, members, groups.switches(group), tmp);
    let compiled = one.group(members, 0, 0..one.ctl.len());
    relax(compiled, work, ext_drive, control_level, prev_level, out);
}

/// The relaxation kernel: the only implementation of group resolution.
///
/// Every member starts on the worklist and the worklist is a stack, so
/// members are first visited from the highest index down, and a member's
/// incident switches are tried in slot order. That visiting order is
/// part of the result, not an implementation detail: crossing a switch
/// is not monotone across strength classes (a `Supply` source arrives
/// `Strong` and overrides a `Weak` contribution its neighbour has
/// already forwarded), so a different order can leave a different
/// fixpoint on such topologies. The golden traces pin this order.
fn relax<FD, FC, FP>(
    group: Group<'_>,
    work: &mut Work,
    ext_drive: FD,
    control_level: FC,
    prev_level: FP,
    out: &mut Vec<(NetId, Signal)>,
) where
    FD: Fn(NetId) -> Signal,
    FC: Fn(NetId) -> Level,
    FP: Fn(NetId) -> Level,
{
    let members = group.members;
    let (n, ns) = (members.len(), group.ctl.len());
    if work.contrib.len() < n || work.conducts.len() < ns {
        work.grow(n, ns);
    }
    let contrib = &mut work.contrib[..n];
    let conducts = &mut work.conducts[..ns];
    let stack = &mut work.stack[..n];
    let on_list = &mut work.on_list[..n];
    // Seed: every member on the worklist, the highest index on top.
    for (i, &net) in members.iter().enumerate() {
        contrib[i] = ext_drive(net);
        stack[i] = i as u32;
        on_list[i] = true;
    }
    for (c, &word) in conducts.iter_mut().zip(group.ctl) {
        let kind = if word & 1 == 0 {
            SwitchKind::Nmos
        } else {
            SwitchKind::Pmos
        };
        *c = kind.conducts(control_level(NetId(word >> 1)));
    }

    let mut top = n;
    while top > 0 {
        top -= 1;
        let i = stack[top] as usize;
        on_list[i] = false;
        if contrib[i].strength == Strength::HighZ {
            continue; // nothing to forward
        }
        for &slot in &group.adj[group.adj_off[i] as usize..group.adj_off[i + 1] as usize] {
            let slot = slot as usize;
            // A self-loop (`a == b`) can raise `contrib[i]` mid-scan, so
            // the candidate is re-read per switch.
            let mut cand = contrib[i].through_switch();
            match conducts[slot] {
                Some(false) => continue,
                Some(true) => {}
                // Maybe-connected: whatever arrives is of uncertain level.
                None => cand.level = Level::X,
            }
            let dst = group.span[slot] as usize ^ i;
            let joined = contrib[dst].resolve(cand);
            if joined != contrib[dst] {
                contrib[dst] = joined;
                if !on_list[dst] {
                    on_list[dst] = true;
                    stack[top] = dst as u32;
                    top += 1;
                }
            }
        }
    }

    out.extend(members.iter().zip(contrib.iter()).map(|(&net, &sig)| {
        if sig.strength == Strength::HighZ {
            // Charge retention: the net keeps its previous level,
            // flagged as undriven.
            (net, Signal::new(prev_level(net), Strength::HighZ))
        } else {
            (net, sig)
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use logicsim_netlist::{NetlistBuilder, SwitchKind};

    /// a --nmos(ctl)-- m --nmos(ctl)-- z, with `a` strongly driven.
    fn chain() -> (Netlist, NetId, NetId, NetId, NetId) {
        let mut b = NetlistBuilder::new("chain");
        let ctl = b.input("ctl");
        let a = b.input("a");
        let m = b.net("m");
        let z = b.net("z");
        b.switch(SwitchKind::Nmos, ctl, a, m);
        b.switch(SwitchKind::Nmos, ctl, m, z);
        let n = b.finish().unwrap();
        (n, ctl, a, m, z)
    }

    fn solve(
        n: &Netlist,
        drives: &[(NetId, Signal)],
        controls: &[(NetId, Level)],
    ) -> Vec<(NetId, Signal)> {
        let groups = ChannelGroups::compute(n);
        let gid = groups.group_of(drives[0].0);
        resolve_group(
            n,
            &groups,
            gid,
            |net| {
                drives
                    .iter()
                    .find(|&&(d, _)| d == net)
                    .map_or(Signal::FLOATING, |&(_, s)| s)
            },
            |net| {
                controls
                    .iter()
                    .find(|&&(c, _)| c == net)
                    .map_or(Level::X, |&(_, l)| l)
            },
            |_| Level::X,
        )
    }

    fn value_of(result: &[(NetId, Signal)], net: NetId) -> Signal {
        result.iter().find(|&&(n, _)| n == net).unwrap().1
    }

    #[test]
    fn conducting_chain_passes_degraded_value() {
        let (n, ctl, a, m, z) = chain();
        let r = solve(&n, &[(a, Signal::HIGH)], &[(ctl, Level::One)]);
        assert_eq!(value_of(&r, a), Signal::HIGH);
        assert_eq!(value_of(&r, m), Signal::weak(Level::One));
        assert_eq!(value_of(&r, z), Signal::weak(Level::One));
    }

    #[test]
    fn open_chain_retains_charge() {
        let (n, ctl, a, _, z) = chain();
        let r = solve(&n, &[(a, Signal::HIGH)], &[(ctl, Level::Zero)]);
        let vz = value_of(&r, z);
        assert_eq!(vz.strength, Strength::HighZ);
        assert_eq!(vz.level, Level::X); // prev_level closure returns X
    }

    #[test]
    fn unknown_control_propagates_x() {
        let (n, ctl, a, m, _) = chain();
        let r = solve(&n, &[(a, Signal::HIGH)], &[(ctl, Level::X)]);
        let vm = value_of(&r, m);
        assert_eq!(vm.level, Level::X);
        assert_eq!(vm.strength, Strength::Weak);
    }

    #[test]
    fn drive_fight_through_switches_is_x() {
        // a(strong 1) --sw-- m --sw-- b(strong 0), both conducting.
        let mut b = NetlistBuilder::new("fight");
        let ctl = b.input("ctl");
        let a = b.input("a");
        let bb = b.input("b");
        let m = b.net("m");
        b.switch(SwitchKind::Nmos, ctl, a, m);
        b.switch(SwitchKind::Nmos, ctl, bb, m);
        let n = b.finish().unwrap();
        let r = solve(
            &n,
            &[(a, Signal::HIGH), (bb, Signal::LOW)],
            &[(ctl, Level::One)],
        );
        let vm = value_of(&r, m);
        assert_eq!(vm.level, Level::X);
        assert_eq!(vm.strength, Strength::Weak);
    }

    #[test]
    fn stronger_external_drive_wins_on_shared_net() {
        // m is pulled weak-1 externally; a drives strong 0 through a
        // conducting switch -> weak 0 beats nothing... equal weak levels
        // conflict. Use supply-driven a: degrades to weak, ties with pull.
        let mut b = NetlistBuilder::new("tie");
        let ctl = b.input("ctl");
        let a = b.input("a");
        let m = b.net("m");
        b.switch(SwitchKind::Nmos, ctl, a, m);
        let n = b.finish().unwrap();
        let r = solve(
            &n,
            &[(a, Signal::LOW), (m, Signal::weak(Level::One))],
            &[(ctl, Level::One)],
        );
        // weak 0 (through switch) joins weak 1 (pull) -> X at weak.
        let vm = value_of(&r, m);
        assert_eq!(vm, Signal::new(Level::X, Strength::Weak));
    }

    #[test]
    fn cyclic_switch_topology_terminates() {
        // Ring of four nets connected by conducting switches, one driven.
        let mut b = NetlistBuilder::new("ring");
        let ctl = b.input("ctl");
        let n0 = b.input("n0");
        let n1 = b.net("n1");
        let n2 = b.net("n2");
        let n3 = b.net("n3");
        b.switch(SwitchKind::Nmos, ctl, n0, n1);
        b.switch(SwitchKind::Nmos, ctl, n1, n2);
        b.switch(SwitchKind::Nmos, ctl, n2, n3);
        b.switch(SwitchKind::Nmos, ctl, n3, n0);
        let n = b.finish().unwrap();
        let r = solve(&n, &[(n0, Signal::HIGH)], &[(ctl, Level::One)]);
        for net in [n1, n2, n3] {
            assert_eq!(value_of(&r, net), Signal::weak(Level::One));
        }
    }

    #[test]
    fn pmos_passes_low_when_control_low() {
        let mut b = NetlistBuilder::new("pmos");
        let ctl = b.input("ctl");
        let a = b.input("a");
        let z = b.net("z");
        b.switch(SwitchKind::Pmos, ctl, a, z);
        let n = b.finish().unwrap();
        let r = solve(&n, &[(a, Signal::LOW)], &[(ctl, Level::Zero)]);
        assert_eq!(value_of(&r, z), Signal::weak(Level::Zero));
        let r2 = solve(&n, &[(a, Signal::LOW)], &[(ctl, Level::One)]);
        assert_eq!(value_of(&r2, z).strength, Strength::HighZ);
    }

    #[test]
    fn charge_retention_keeps_previous_level() {
        let (n, ctl, a, _, z) = chain();
        let groups = ChannelGroups::compute(&n);
        let gid = groups.group_of(z);
        let r = resolve_group(
            &n,
            &groups,
            gid,
            |net| {
                if net == a {
                    Signal::HIGH
                } else {
                    Signal::FLOATING
                }
            },
            |net| if net == ctl { Level::Zero } else { Level::X },
            |net| if net == z { Level::One } else { Level::X },
        );
        assert_eq!(value_of(&r, z), Signal::new(Level::One, Strength::HighZ));
    }
}
