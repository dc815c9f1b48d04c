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
//! [`ComponentRef`] access, no per-call graph build. The free function
//! [`resolve_group_into`] compiles its one group into [`Scratch`] first
//! and runs the same kernel.
//!
//! A [`Scratch`] grows once, to the largest group it has seen, and is
//! then addressed by index: a resolution of `n` members and `s` switches
//! writes `n` contributions, worklist slots and on-list flags and `s`
//! conduction bytes, and nothing else. The worklist is a slice and a
//! stack pointer; a member is on it at most once, so it never outgrows
//! `n`. On the engines' groups — 2.07 members and 2.17 switches per
//! resolution on `priority_queue@100k` — that per-call overhead, not
//! the relaxation itself, was most of the cost, which is why the
//! engines settle pairs without the kernel.
//!
//! # Pairs
//!
//! A *pair* is a group of two members in which every switch bridges
//! them (see below); the transmission-gate latch, 98 % of the
//! resolutions on `priority_queue@100k`, is one. [`GroupImage::build`]
//! gives each pair one 40-byte record: the two member nets, the bounds
//! of each member's run of non-switch drivers, the pair's switch slots,
//! the control words of its first two switches, and the component a
//! trace names as the cause of a change on either member. The engines'
//! entry point, [`GroupImage::settle`], settles a pair from that record
//! in closed form, in the kernel's own order: fold the switches'
//! conduction, join each member's external drive, cross member 1's
//! contribution to member 0 and member 0's to member 1, and repeat the
//! crossings until one leaves its destination unchanged — what the
//! kernel's stack does on two members — then apply charge retention.
//! (On two members the order does not pick the fixpoint: the oracle
//! covers every drive, fold and previous level, and a closed form that
//! crosses 0 → 1 first passes it too.) Every other group goes through
//! the kernel, which stays the oracle of the closed form
//! (`solver::tests`).
//!
//! # When a group is settled
//!
//! A resolution is a deterministic function of the members' external
//! drives, each switch's conduction and the members' previous levels,
//! and it reads a previous level only where it keeps it unchanged (a
//! member no driver reaches). The engines write a nontrivial group's
//! member nets only from that group's resolution, so re-resolving it
//! with the same drives and conduction returns the values it already
//! holds. Drive changes dirty a group where they are applied; a switch
//! evaluation, which only says a net the switch reads has changed, need
//! dirty it only if the conduction the group reads through that switch
//! differs from what its last resolution read. [`GroupImage`] keeps that
//! rule in three calls: `record_conduction` after a resolution,
//! `conduction_read` at a switch evaluation, compared with what was
//! recorded, and `forget_conduction` for a dirty group an engine drops
//! unsettled; [`GroupImage::settle`] stores the first itself. The
//! record is one byte per switch slot, `UNSETTLED` until the first
//! resolution.
//!
//! What is compared depends on the group's shape. On a *pair* — two
//! members, every switch bridging them, none a self-loop — the kernel
//! carries one member's contribution to the other across each switch in
//! turn, and the joins of those crossings are the join of one crossing
//! through the *fold* of the switches' conduction: unknown if any is
//! unknown, else closed if any is closed, else open. Its result depends
//! on the fold alone, so a pair compares the fold, and the closed form
//! crosses once per step. On every other group a different conduction
//! vector can change the order in which members are visited, and on
//! some networks the order picks the fixpoint, so each switch compares
//! its own conduction. A one-member group's net is written outside the
//! solver, so nothing is recorded for it and every evaluation settles
//! it.

use logicsim_netlist::{
    ChannelGroups, CompId, ComponentRef, Csr, Level, NetId, Netlist, Signal, Strength, SwitchKind,
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
            let ComponentRef::Switch {
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
            let (Ok(la), Ok(lb)) = (members.binary_search(&a), members.binary_search(&b)) else {
                continue;
            };
            let (la, lb) = (la as u32, lb as u32);
            self.ctl
                .push(control.0 << 1 | u32::from(kind == SwitchKind::Pmos));
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
    /// The kernel's output inside [`GroupImage::settle`].
    out: Vec<(NetId, Signal)>,
}

/// The record of a group the engine holds no resolution of: before its
/// first, and after it drops the group unsettled. Above every code
/// [`GroupImage::conduction_read`] returns, so a switch evaluation
/// always finds it moved.
pub(crate) const UNSETTLED: u8 = 3;

/// What a switch evaluation compares to decide whether its group must
/// settle again (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// One member, whose net is written outside the solver: every
    /// evaluation settles it.
    Single,
    /// Two members and every switch bridging them: the fold of the
    /// switches' conduction.
    Pair,
    /// Anything else: each switch's own conduction.
    General,
}

/// Per group in [`GroupImage`]: a one-member group.
const SINGLE: u32 = u32::MAX;
/// Per group in [`GroupImage`]: a group that is neither a pair nor a
/// single member. Every other entry is a pair's index in `pairs`.
const GENERAL: u32 = u32::MAX - 1;

/// The record byte of a switch that does not conduct.
const OPEN: u8 = 0;
/// The record byte of a switch whose control is `X`.
const UNKNOWN: u8 = 2;

/// A conduction as a record byte: open 0, closed 1, unknown 2 — so the
/// pair fold is the maximum.
#[inline]
fn conduction_code(c: Option<bool>) -> u8 {
    match c {
        Some(false) => OPEN,
        Some(true) => 1,
        None => UNKNOWN,
    }
}

/// Everything a settle of one pair reads besides signal values, in one
/// place (see the [module docs](self)). 40 bytes.
#[derive(Debug, Clone, Copy)]
struct PairRecord {
    /// The two member nets, ascending.
    nets: [NetId; 2],
    /// Member `i`'s non-switch drivers are `GroupImage::drivers`' items
    /// `runs[i]..runs[i + 1]`.
    runs: [u32; 3],
    /// The pair's switch slots, `slots[0]..slots[1]`.
    slots: [u32; 2],
    /// The control words of the first two slots; on a one-switch pair
    /// the second repeats the first, which leaves the fold as it is.
    ctl: [u32; 2],
    /// The cause a trace names for a change on either member: the
    /// lowest-id switch, which is the first switch in both members'
    /// driver rows, since every switch of a pair drives both.
    cause: CompId,
}

/// The conduction of the switch whose packed control word is `word`.
#[inline]
fn conduction<FC: Fn(NetId) -> Level>(word: u32, control_level: FC) -> Option<bool> {
    let kind = if word & 1 == 0 {
        SwitchKind::Nmos
    } else {
        SwitchKind::Pmos
    };
    kind.conducts(control_level(NetId(word >> 1)))
}

/// Every channel group of a netlist, compiled for the relaxation kernel
/// and, for pairs, for the closed form (see the [module docs](self)).
/// On top of the [`ChannelGroups`] it was built from, whose member
/// arrays it indexes rather than copies, it costs 16 bytes per switch,
/// 8 bytes per group member plus 4 per external driver of one, 4 bytes
/// per group and 40 per pair — nothing per net — and the 8 bytes per
/// component of the table a switch evaluation looks its group and slot
/// up in.
#[derive(Debug, Clone)]
pub struct GroupImage {
    compiled: Compiled,
    /// Per group: [`SINGLE`], [`GENERAL`], or a pair's index in `pairs`.
    form: Vec<u32>,
    /// One record per pair, in group order.
    pairs: Vec<PairRecord>,
    /// Per member position: its non-switch drivers, the netlist's driver
    /// row without the switches, so a resolution reads one drive per
    /// real source.
    drivers: Csr<CompId>,
    /// Per component: a switch's `[group, slot]` — what an evaluation
    /// looks up, and what the netlist cannot hold (the group is the
    /// closure of channel connections); `[0, 0]` for the rest.
    place: Vec<[u32; 2]>,
}

impl GroupImage {
    /// Compiles all groups. `groups` must have been computed from
    /// `netlist`, and the same `groups` must be passed to every method
    /// that takes them: switch slots and member positions are `groups`'
    /// own.
    ///
    /// # Panics
    ///
    /// Panics if a net id used as a switch control exceeds 31 bits.
    #[must_use]
    pub fn build(netlist: &Netlist, groups: &ChannelGroups) -> GroupImage {
        let cols = netlist.columns();
        let drivers = Csr::bucket(groups.num_members(), || {
            let members = (0..groups.num_groups() as u32).flat_map(|g| groups.members(g));
            members.enumerate().flat_map(|(at, &net)| {
                let row = netlist.drivers(net).iter().copied();
                let sources = row.filter(move |d| !cols.kind(d.index()).is_switch());
                sources.map(move |d| (at as u32, d))
            })
        });
        let mut compiled = Compiled::with_capacity(netlist.num_switches(), groups.num_members());
        let mut form = Vec::with_capacity(groups.num_groups());
        let mut pairs = Vec::new();
        let mut tmp = Vec::new();
        for group in 0..groups.num_groups() as u32 {
            let members = groups.members(group);
            compiled.push_group(netlist, members, groups.switches(group), &mut tmp);
            let slots = groups.switch_range(group);
            debug_assert_eq!(compiled.ctl.len(), slots.end);
            // Bridging members 0 and 1 is a span of 0 ^ 1.
            let pair = members.len() == 2 && compiled.span[slots.clone()].iter().all(|&s| s == 1);
            form.push(if pair {
                pairs.len() as u32
            } else if members.len() < 2 {
                SINGLE
            } else {
                GENERAL
            });
            if pair {
                let run = |at: usize| drivers.row_range(at);
                let first = groups.member_range(group).start;
                let ctl = &compiled.ctl[slots.clone()];
                pairs.push(PairRecord {
                    nets: [members[0], members[1]],
                    runs: [run(first).start, run(first).end, run(first + 1).end].map(|o| o as u32),
                    slots: [slots.start as u32, slots.end as u32],
                    ctl: [ctl[0], ctl[ctl.len().min(2) - 1]],
                    cause: groups.switches(group)[0],
                });
            }
        }
        pairs.shrink_to_fit();
        let mut place = vec![[0; 2]; netlist.num_components()];
        for group in 0..groups.num_groups() as u32 {
            for (slot, &sw) in groups.switch_range(group).zip(groups.switches(group)) {
                place[sw.index()] = [group, slot as u32];
            }
        }
        GroupImage {
            compiled,
            form,
            pairs,
            drivers,
            place,
        }
    }

    /// What a switch evaluation in `group` compares.
    #[inline]
    fn shape(&self, group: u32) -> Shape {
        match self.form[group as usize] {
            SINGLE => Shape::Single,
            GENERAL => Shape::General,
            _ => Shape::Pair,
        }
    }

    /// The group of switch `ci` and its slot in [`ChannelGroups`]' flat
    /// switch array.
    ///
    /// # Panics
    ///
    /// Panics if `ci` is out of range; returns group 0, slot 0 for a
    /// component that is not a switch.
    #[inline]
    pub(crate) fn locate(&self, ci: u32) -> (u32, usize) {
        let [group, slot] = self.place[ci as usize];
        (group, slot as usize)
    }

    /// Heap bytes held, the [`ChannelGroups`] it indexes not included.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        let c = &self.compiled;
        (c.ctl.capacity() + c.span.capacity() + c.adj_off.capacity() + c.adj.capacity()) * 4
            + self.form.capacity() * 4
            + self.pairs.capacity() * std::mem::size_of::<PairRecord>()
            + self.drivers.heap_bytes()
            + self.place.capacity() * 8
    }

    /// A record of [`UNSETTLED`] for every switch slot: what an engine
    /// holds before it has settled any group.
    pub(crate) fn unsettled(&self) -> Vec<u8> {
        vec![UNSETTLED; self.compiled.ctl.len()]
    }

    /// The conduction `group` reads through its switch slot `slot` now,
    /// as a record byte: the fold of all its switches' conduction on a
    /// pair, the switch's own on any other group. A switch evaluation
    /// needs to settle the group again exactly when this differs from
    /// the byte [`GroupImage::record_conduction`] last stored for `slot`.
    #[inline]
    pub(crate) fn conduction_read<FC: Fn(NetId) -> Level>(
        &self,
        groups: &ChannelGroups,
        group: u32,
        slot: usize,
        control_level: FC,
    ) -> u8 {
        let slots = match self.shape(group) {
            Shape::Pair => groups.switch_range(group),
            Shape::Single | Shape::General => slot..slot + 1,
        };
        self.compiled.ctl[slots].iter().fold(OPEN, |code, &word| {
            code.max(conduction_code(conduction(word, &control_level)))
        })
    }

    /// Stores `(slot, byte)` through `store`, for every switch slot of
    /// `group`, what the resolution `scratch` ran last read — the levels
    /// of the controls before any member was written. That resolution
    /// must have been `group`'s, through this image. A one-member group
    /// stores nothing.
    pub(crate) fn record_conduction(
        &self,
        groups: &ChannelGroups,
        group: u32,
        scratch: &Scratch,
        mut store: impl FnMut(usize, u8),
    ) {
        let slots = groups.switch_range(group);
        let read = scratch.work.conducts[..slots.len()]
            .iter()
            .map(|&c| conduction_code(c));
        match self.shape(group) {
            Shape::Single => {}
            Shape::Pair => {
                let fold = read.max().unwrap_or(OPEN);
                slots.for_each(|slot| store(slot, fold));
            }
            Shape::General => slots.zip(read).for_each(|(slot, code)| store(slot, code)),
        }
    }

    /// Stores [`UNSETTLED`] for every switch slot of `group`: for a group
    /// an engine drops while it is still dirty.
    pub(crate) fn forget_conduction(
        &self,
        groups: &ChannelGroups,
        group: u32,
        mut store: impl FnMut(usize, u8),
    ) {
        groups
            .switch_range(group)
            .for_each(|slot| store(slot, UNSETTLED));
    }

    /// Resolves one group to a fixpoint, appending `(net, resolved)` for
    /// every member net to `out` in member order. The closures are those
    /// of [`resolve_group_into`].
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
            |_, net| ext_drive(net),
            control_level,
            prev_level,
            out,
        );
    }

    /// Settles `group` as the engines do: with each member's external
    /// drive joined from `drive(component)` over its non-switch drivers,
    /// and `value(net)` the current value of any net — a control's level
    /// is read from it, and so is a member's, as the charge it retains.
    /// Stores through `store` the record byte per switch slot that a
    /// switch evaluation compares, then calls `changed(net, settled,
    /// cause)` in member order for every member whose settled value
    /// differs from `value(net)`; `cause` is the component a trace names
    /// for the change, the member's first switch driver. A pair settles
    /// in closed form from its record, any other group through the
    /// kernel, with the same result (see the [module docs](self)).
    #[expect(
        clippy::too_many_arguments,
        reason = "the engines' state as closures plus the group tables"
    )]
    #[inline]
    pub fn settle<FS, FV, FR, FW>(
        &self,
        groups: &ChannelGroups,
        group: u32,
        scratch: &mut Scratch,
        drive: FS,
        value: FV,
        mut store: FR,
        mut changed: FW,
    ) where
        FS: Fn(CompId) -> Signal,
        FV: Fn(NetId) -> Signal,
        FR: FnMut(usize, u8),
        FW: FnMut(NetId, Signal, CompId),
    {
        let level = |net: NetId| value(net).level;
        if let Some(pair) = self.pairs.get(self.form[group as usize] as usize) {
            let (settled, fold) = self.settle_pair(pair, drive, level);
            (pair.slots[0]..pair.slots[1]).for_each(|slot| store(slot as usize, fold));
            for (net, v) in pair.nets.into_iter().zip(settled) {
                if value(net) != v {
                    changed(net, v, pair.cause);
                }
            }
            return;
        }
        let first = groups.member_range(group).start;
        let compiled =
            self.compiled
                .group(groups.members(group), first, groups.switch_range(group));
        let ext_drive = |i: usize, _| {
            let row = self.drivers.row(first + i).iter();
            row.fold(Signal::FLOATING, |v, &d| v.resolve(drive(d)))
        };
        let mut out = std::mem::take(&mut scratch.out);
        out.clear();
        relax(
            compiled,
            &mut scratch.work,
            ext_drive,
            level,
            level,
            &mut out,
        );
        self.record_conduction(groups, group, scratch, store);
        let switches = groups.switches(group);
        for (at, &(net, v)) in (first..).zip(&out) {
            if value(net) != v {
                // A member's first incident slot is its lowest-id switch.
                let slot = self.compiled.adj[self.compiled.adj_off[at] as usize];
                changed(net, v, switches[slot as usize]);
            }
        }
        scratch.out = out;
    }

    /// The closed form of a pair's settle: both members' values and the
    /// fold of the switches' conduction.
    #[inline]
    fn settle_pair<FS, FC>(&self, pair: &PairRecord, drive: FS, level: FC) -> ([Signal; 2], u8)
    where
        FS: Fn(CompId) -> Signal,
        FC: Fn(NetId) -> Level,
    {
        let [start, end] = pair.slots.map(|s| s as usize);
        let beyond = self.compiled.ctl.get(start + 2..end).unwrap_or_default();
        let fold = pair.ctl.iter().chain(beyond).fold(OPEN, |code, &word| {
            code.max(conduction_code(conduction(word, &level)))
        });
        let items = self.drivers.items();
        let ext = |i: usize| {
            let run = &items[pair.runs[i] as usize..pair.runs[i + 1] as usize];
            run.iter()
                .fold(Signal::FLOATING, |v, &d| v.resolve(drive(d)))
        };
        let (mut c0, mut c1) = (ext(0), ext(1));
        if fold != OPEN {
            // One crossing through the fold: the join of crossing every
            // switch in turn. A floating source forwards nothing.
            let cross = |src: Signal, dst: Signal| {
                if src.strength == Strength::HighZ {
                    return dst;
                }
                let mut cand = src.through_switch();
                if fold == UNKNOWN {
                    cand.level = Level::X;
                }
                dst.resolve(cand)
            };
            // The kernel's stack: member 1 is popped first, then 0, and
            // each pops the other only if its crossing changed it.
            c0 = cross(c1, c0);
            loop {
                let next = cross(c0, c1);
                if next == c1 {
                    break;
                }
                c1 = next;
                let next = cross(c1, c0);
                if next == c0 {
                    break;
                }
                c0 = next;
            }
        }
        let retain = |c: Signal, net: NetId| {
            if c.strength == Strength::HighZ {
                Signal::new(level(net), Strength::HighZ)
            } else {
                c
            }
        };
        ([retain(c0, pair.nets[0]), retain(c1, pair.nets[1])], fold)
    }
}

/// Resolves one channel group to a fixpoint: compiles the group and
/// relaxes inside `scratch`'s buffers, appending `(net, resolved)` for
/// every member net to `out` in member order.
///
/// * `ext_drive(net)` — the join of all non-switch drivers currently on
///   `net` (gate outputs, inputs, pulls, rails).
/// * `control_level(net)` — current level of any net (used for switch
///   controls, which may lie outside the group).
/// * `prev_level(net)` — the net's level before this resolution, used
///   for charge retention.
///
/// Results are identical to [`GroupImage::resolve_into`], which skips
/// the compile step. The propagation only ever raises a net's
/// contribution in the finite signal join lattice, so it terminates in
/// at most `O(members * lattice_height)` relaxations regardless of
/// switch topology (including cycles).
#[expect(
    clippy::too_many_arguments,
    reason = "three closures, the group tables and the two buffers"
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
    let Scratch { work, one, tmp, .. } = scratch;
    one.clear();
    one.push_group(netlist, members, groups.switches(group), tmp);
    let compiled = one.group(members, 0, 0..one.ctl.len());
    relax(
        compiled,
        work,
        |_, net| ext_drive(net),
        control_level,
        prev_level,
        out,
    );
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
/// `ext_drive(i, net)` is member `i`'s external drive.
fn relax<FD, FC, FP>(
    group: Group<'_>,
    work: &mut Work,
    ext_drive: FD,
    control_level: FC,
    prev_level: FP,
    out: &mut Vec<(NetId, Signal)>,
) where
    FD: Fn(usize, NetId) -> Signal,
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
        contrib[i] = ext_drive(i, net);
        stack[i] = i as u32;
        on_list[i] = true;
    }
    for (c, &word) in conducts.iter_mut().zip(group.ctl) {
        *c = conduction(word, &control_level);
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
        let mut out = Vec::new();
        resolve_group_into(
            n,
            &groups,
            gid,
            &mut Scratch::default(),
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
            &mut out,
        );
        out
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

    const LEVELS: [Level; 3] = [Level::Zero, Level::One, Level::X];

    /// The fold by its definition: unknown if any switch is, else closed
    /// if any is, else open.
    fn fold_by_definition(conducts: &[Option<bool>]) -> u8 {
        if conducts.contains(&None) {
            2
        } else {
            u8::from(conducts.contains(&Some(true)))
        }
    }

    /// Exhaustive over two members bridged by 1–4 parallel switches of
    /// every polarity mix, every control vector in {0, 1, X}ᵏ, every
    /// pair of member drives and every pair of previous levels: vectors
    /// with the same fold resolve alike, and `conduction_read` and
    /// `record_conduction` both report that fold on every slot.
    #[test]
    fn pair_resolution_depends_on_the_conduction_fold_alone() {
        // Floating, pull 0/1, strong 0/1/X, supply 0/1.
        let pair_drives = [
            Signal::FLOATING,
            Signal::new(Level::Zero, Strength::Resistive),
            Signal::new(Level::One, Strength::Resistive),
            Signal::LOW,
            Signal::HIGH,
            Signal::new(Level::X, Strength::Strong),
            Signal::GND,
            Signal::VDD,
        ];
        for k in 1..=4u32 {
            for polarity in 0..1u32 << k {
                let mut b = NetlistBuilder::new("pair");
                let controls: Vec<NetId> = (0..k).map(|i| b.input(format!("c{i}"))).collect();
                let (m0, m1) = (b.net("m0"), b.net("m1"));
                let kinds: Vec<SwitchKind> = (0..k)
                    .map(|i| {
                        if polarity >> i & 1 == 1 {
                            SwitchKind::Pmos
                        } else {
                            SwitchKind::Nmos
                        }
                    })
                    .collect();
                for (&kind, &c) in kinds.iter().zip(&controls) {
                    b.switch(kind, c, m0, m1);
                }
                let n = b.finish().unwrap();
                let groups = ChannelGroups::compute(&n);
                let image = GroupImage::build(&n, &groups);
                let group = groups.group_of(m0);
                assert_eq!(image.shape(group), Shape::Pair);
                let slots = groups.switch_range(group);
                let mut scratch = Scratch::default();
                let mut out = Vec::new();
                for drives in 0..pair_drives.len().pow(2) {
                    let ext =
                        |net: NetId| pair_drives[if net == m0 { drives % 8 } else { drives / 8 }];
                    for prev in 0..9 {
                        let prev_level =
                            |net: NetId| LEVELS[if net == m0 { prev % 3 } else { prev / 3 }];
                        // The first output seen per fold.
                        let mut by_fold: [Option<Vec<(NetId, Signal)>>; 3] = Default::default();
                        for vector in 0..3usize.pow(k) {
                            let ctl = |net: NetId| {
                                let i = controls.iter().position(|&c| c == net).unwrap();
                                LEVELS[vector / 3usize.pow(i as u32) % 3]
                            };
                            let conducts: Vec<Option<bool>> = kinds
                                .iter()
                                .zip(&controls)
                                .map(|(kind, &c)| kind.conducts(ctl(c)))
                                .collect();
                            let fold = fold_by_definition(&conducts);
                            out.clear();
                            image.resolve_into(
                                &groups,
                                group,
                                &mut scratch,
                                ext,
                                ctl,
                                prev_level,
                                &mut out,
                            );
                            for slot in slots.clone() {
                                assert_eq!(image.conduction_read(&groups, group, slot, ctl), fold);
                            }
                            let mut recorded = Vec::new();
                            image.record_conduction(&groups, group, &scratch, |slot, code| {
                                recorded.push((slot, code));
                            });
                            assert_eq!(
                                recorded,
                                slots.clone().map(|s| (s, fold)).collect::<Vec<_>>()
                            );
                            match &by_fold[fold as usize] {
                                None => by_fold[fold as usize] = Some(out.clone()),
                                Some(want) => assert_eq!(
                                    &out, want,
                                    "k={k} polarity={polarity:b} drives={drives} prev={prev} \
                                     vector={vector}"
                                ),
                            }
                        }
                    }
                }
            }
        }
    }

    /// The closed form against the kernel it replaces on pairs: two
    /// members bridged by 1–3 switches of every polarity mix, every
    /// control vector in {0, 1, X}ᵏ (so every conduction vector), each
    /// member's external drive over all 15 signals and its previous
    /// level over {0, 1, X}. `settle` and `resolve_into` followed by
    /// `record_conduction` agree on both members' values and store the
    /// same record bytes, the fold; every change names the member's
    /// first switch driver as its cause.
    #[test]
    fn a_pair_settles_in_closed_form_as_the_kernel_relaxes_it() {
        let signals: Vec<Signal> = Strength::ALL
            .iter()
            .flat_map(|&s| LEVELS.map(|l| Signal::new(l, s)))
            .collect();
        assert_eq!(signals.len(), 15);
        for k in 1..=3u32 {
            for polarity in 0..1u32 << k {
                let mut b = NetlistBuilder::new("pair");
                let controls: Vec<NetId> = (0..k).map(|i| b.input(format!("c{i}"))).collect();
                let members = [b.input("m0"), b.input("m1")];
                for (i, &c) in controls.iter().enumerate() {
                    let kind = if polarity >> i & 1 == 1 {
                        SwitchKind::Pmos
                    } else {
                        SwitchKind::Nmos
                    };
                    b.switch(kind, c, members[0], members[1]);
                }
                let n = b.finish().unwrap();
                let groups = ChannelGroups::compute(&n);
                let image = GroupImage::build(&n, &groups);
                let group = groups.group_of(members[0]);
                assert_eq!(image.shape(group), Shape::Pair);
                // Each member's one non-switch driver, and its first
                // switch driver: what a trace names.
                let source = members.map(|m| {
                    let row = n.drivers(m).iter();
                    *row.clone().find(|&&d| !n.component(d).is_switch()).unwrap()
                });
                let first_switch = members.map(|m| {
                    let row = n.drivers(m).iter();
                    *row.clone().find(|&&d| n.component(d).is_switch()).unwrap()
                });
                let mut scratch = Scratch::default();
                let mut want = Vec::new();
                for drives in 0..signals.len().pow(2) {
                    let drive_of = [signals[drives % 15], signals[drives / 15]];
                    let ext = |net: NetId| drive_of[usize::from(net == members[1])];
                    let drive = |d: CompId| {
                        let at = source.iter().position(|&s| s == d);
                        at.map_or(Signal::FLOATING, |i| drive_of[i])
                    };
                    for prev in 0..9 {
                        let prev_of = [LEVELS[prev % 3], LEVELS[prev / 3]];
                        for vector in 0..3usize.pow(k) {
                            let level = |net: NetId| {
                                if let Some(i) = members.iter().position(|&m| m == net) {
                                    return prev_of[i];
                                }
                                let i = controls.iter().position(|&c| c == net).unwrap();
                                LEVELS[vector / 3usize.pow(i as u32) % 3]
                            };
                            let what = format!(
                                "k={k} polarity={polarity:b} drives={drive_of:?} \
                                 prev={prev_of:?} vector={vector}"
                            );
                            want.clear();
                            image.resolve_into(
                                &groups,
                                group,
                                &mut scratch,
                                ext,
                                level,
                                level,
                                &mut want,
                            );
                            let mut want_bytes = Vec::new();
                            image.record_conduction(&groups, group, &scratch, |slot, code| {
                                want_bytes.push((slot, code));
                            });
                            // A member reads as floating at its previous
                            // level, so a retained one is unchanged.
                            let value = |net: NetId| Signal::new(level(net), Strength::HighZ);
                            let mut got: Vec<(NetId, Signal)> =
                                members.iter().map(|&m| (m, value(m))).collect();
                            let mut got_bytes = Vec::new();
                            image.settle(
                                &groups,
                                group,
                                &mut scratch,
                                drive,
                                value,
                                |slot, code| got_bytes.push((slot, code)),
                                |net, v, cause| {
                                    let i = usize::from(net == members[1]);
                                    assert_eq!(cause, first_switch[i], "{what}");
                                    got[i].1 = v;
                                },
                            );
                            assert_eq!(got, want, "{what}");
                            assert_eq!(got_bytes, want_bytes, "{what}");
                        }
                    }
                }
            }
        }
    }

    /// Which groups fold and which compare switch by switch: a pair with
    /// a self-loop, a three-net chain and a one-net group with a
    /// self-loop do not fold. A general group records and reads each
    /// switch's own conduction; a one-net group records nothing, so
    /// every evaluation finds it moved; a forgotten group reads as
    /// unsettled.
    #[test]
    fn shapes_decide_what_an_evaluation_compares() {
        let mut b = NetlistBuilder::new("shapes");
        let (on, off, x) = (b.input("on"), b.input("off"), b.input("x"));
        let (p0, p1) = (b.net("p0"), b.net("p1"));
        b.switch(SwitchKind::Nmos, on, p0, p1);
        b.switch(SwitchKind::Nmos, off, p1, p1);
        let (c0, c1, c2) = (b.net("c0"), b.net("c1"), b.net("c2"));
        b.switch(SwitchKind::Nmos, on, c0, c1);
        b.switch(SwitchKind::Pmos, x, c1, c2);
        b.switch(SwitchKind::Nmos, off, c2, c0);
        let lone = b.net("lone");
        b.switch(SwitchKind::Nmos, on, lone, lone);
        let n = b.finish().unwrap();
        let groups = ChannelGroups::compute(&n);
        let image = GroupImage::build(&n, &groups);
        let ctl = |net: NetId| {
            if net == on {
                Level::One
            } else if net == off {
                Level::Zero
            } else {
                Level::X
            }
        };
        let shape = |net| image.shape(groups.group_of(net));
        assert_eq!(shape(p0), Shape::General);
        assert_eq!(shape(c0), Shape::General);
        assert_eq!(shape(lone), Shape::Single);
        let mut scratch = Scratch::default();
        let mut out = Vec::new();
        let mut settled = image.unsettled();
        assert!(settled.iter().all(|&code| code == UNSETTLED));
        for net in [p0, c0, lone] {
            let group = groups.group_of(net);
            image.resolve_into(
                &groups,
                group,
                &mut scratch,
                |_| Signal::FLOATING,
                ctl,
                |_| Level::X,
                &mut out,
            );
            image.record_conduction(&groups, group, &scratch, |slot, code| {
                settled[slot] = code;
            });
        }
        let reads = |net: NetId| -> Vec<u8> {
            let group = groups.group_of(net);
            groups
                .switch_range(group)
                .map(|slot| image.conduction_read(&groups, group, slot, ctl))
                .collect()
        };
        let recorded =
            |settled: &[u8], net| settled[groups.switch_range(groups.group_of(net))].to_vec();
        assert_eq!(reads(p0), [1, 0]);
        assert_eq!(recorded(&settled, p0), [1, 0]);
        assert_eq!(reads(c0), [1, 2, 0]);
        assert_eq!(recorded(&settled, c0), [1, 2, 0]);
        assert_eq!(reads(lone), [1]);
        assert_eq!(recorded(&settled, lone), [UNSETTLED]);
        image.forget_conduction(&groups, groups.group_of(c0), |slot, code| {
            settled[slot] = code;
        });
        assert_eq!(recorded(&settled, c0), [UNSETTLED; 3]);
        assert_eq!(recorded(&settled, p0), [1, 0]);
    }

    #[test]
    fn charge_retention_keeps_previous_level() {
        let (n, ctl, a, _, z) = chain();
        let groups = ChannelGroups::compute(&n);
        let gid = groups.group_of(z);
        let mut r = Vec::new();
        resolve_group_into(
            &n,
            &groups,
            gid,
            &mut Scratch::default(),
            |net| {
                if net == a {
                    Signal::HIGH
                } else {
                    Signal::FLOATING
                }
            },
            |net| if net == ctl { Level::Zero } else { Level::X },
            |net| if net == z { Level::One } else { Level::X },
            &mut r,
        );
        assert_eq!(value_of(&r, z), Signal::new(Level::One, Strength::HighZ));
    }
}
