//! Bit-parallel compiled simulation: 64 stimulus scenarios per word.
//!
//! The paper's machine class is event-driven because circuit activity is
//! low (Table 6: 0.1–3%), so evaluating only active components wins —
//! per scenario. But the per-event overhead `tE` of Eq. 10 is overhead
//! a statically scheduled backend never pays: like the Yorktown
//! Simulation Engine lineage the paper surveys, this module compiles
//! the netlist into one straight-line program in levelized rank order
//! — no event list, no time wheel. An *oblivious* machine runs every
//! op of that program whether or not its inputs changed: `G x R`
//! evaluations per vector for `G` ops and `R` ranks without a
//! topological order, `G` with one (`logicsim_machine::oblivious`
//! models that bound). This engine keeps the schedule and drops the
//! obliviousness: an op runs only when one of its input planes changed
//! since it last ran (a `pending` bit per op, between feedback clusters
//! and inside them), so the measured evaluations per vector sit below
//! `G`; `G x R` is the bound, not the cost. The trick that makes a
//! static schedule profitable on a 1-core host is **bit parallelism**:
//! net state is two `u64` planes ([`logicsim_netlist::Plane`]:
//! `val`/`known`), one bit per lane, so a single branch-free Kleene
//! kernel evaluates a gate for 64 independent stimulus scenarios at
//! once.
//!
//! # One program, three kinds of op
//!
//! Real benchmark circuits are not pure gate DAGs, but every component
//! of the netlist compiles — there is no second engine behind the
//! program. Which op a net gets follows from who drives it:
//!
//! * **Gate kernels** — a gate that is the only driver of a net no
//!   switch touches writes that net's plane: a branch-free Kleene
//!   kernel over its input planes.
//! * **Tristate kernels** — a tristate in the same position is a kernel
//!   too, `d` where the enable is 1 and X elsewhere (off, the net floats
//!   to X as the event engine's switchless nets do; unknown, it is
//!   driven X). A constant-1 enable folds it to a buffer, a constant-0
//!   enable elides it.
//! * **Solver cells** — every net that has to be *resolved*: the members
//!   of a channel-connected switch sub-group, and a net without a
//!   switch that several components drive (a tristate bus, a gate
//!   fighting a pull), which is a one-member cell with no edges. A cell
//!   is the event engine's monotone (strength, level) join fixpoint
//!   ([`crate::solver`]) re-expressed over bit planes, with a 2-bit
//!   strength tier per lane (`HighZ < Resistive < Weak < Strong`).
//!   A net with a supply on it is a rail: nothing beats `Supply` and
//!   nothing propagates *through* it, so rails split the channel graph,
//!   a switch to a rail is a constant Strong branch, and whatever else
//!   drives a rail is overpowered and elided. A member's strong drivers
//!   are the cell's *sources*: a gate or primary input enters through a
//!   virtual scratch plane, a tristate as its data plane gated by its
//!   enable plane — driving where the enable is 1, driving X where it
//!   is unknown, absent where it is 0, the way a rail branch is gated
//!   by its control. The cell writes the resolved member planes; lanes
//!   nothing reaches keep their charge when the engine's channel group
//!   holds a second net and read X when it does not — bit-exactly the
//!   solver's least fixpoint. Parallel switches between two members
//!   are one edge, and a cell of two members joined by one such edge (a
//!   transmission gate) settles in closed form.
//!
//! Acyclic ops form a straight-line CSR sweep over the bit planes.
//! Feedback — latches from cross-coupled gates, a cell whose control is
//! one of its own members, refresh loops through gates and cells —
//! compiles to bounded **fixpoint loops** placed at the cluster's
//! topological rank: a per-lane Gauss–Seidel iteration over the same
//! ops, each pass evaluating only the members whose inputs moved, with
//! oscillating lanes forced to X at the bound (the compiled-mode
//! oscillation detector).
//!
//! # The zero-delay contract
//!
//! A "tick" of the backend is a *vector settle*
//! ([`BitParSim::settle_vector`]): apply one stimulus vector per lane,
//! then sweep the program once. The program has no delays, so what a
//! vector settles to is the fixpoint of the netlist's functions, never
//! the winner of a race between two component delays. The differential
//! harness (`tests/bitpar_differential.rs`) proves every lane
//! bit-identical to the serial event-driven engine run under the same
//! vector-synchronous protocol wherever that engine's result does not
//! depend on delays either: the five benchmarks under their own
//! stimulus, and buses, fights and supplied members when one input
//! changes per vector (DESIGN.md §15 has a measured bus on which two
//! delay assignments of the event engine alone disagree).

use crate::engine::PreflightError;
use crate::levelize::levelize_nodes;
use logicsim_netlist::{
    BitPlanes, ComponentRef, Csr, GateKind, Level, NetId, Netlist, Plane, SwitchKind, UnionFind,
    LANES,
};

/// One compiled evaluation in the straight-line sweep program: a gate
/// kernel or a switch-level solver cell.
#[derive(Debug, Clone, Copy)]
struct Op {
    kind: OpKind,
    /// Output plane index (gates only; `u32::MAX` for cells, which
    /// write their member planes directly).
    out: u32,
    /// Offset into the input-plane CSR items array.
    in_off: u32,
    /// Number of input planes read.
    in_len: u32,
}

/// The function evaluated by an [`Op`].
#[derive(Debug, Clone, Copy)]
enum OpKind {
    /// A Kleene gate kernel, or the tristate kernel over `[data,
    /// enable]` (a tristate with a constant-1 enable is folded to
    /// [`GateKind::Buf`], one with a constant-0 enable is elided, one
    /// that drives a cell member is a [`Source`] of that cell).
    Gate(GateKind),
    /// Index into [`BitParSim::cells`].
    Cell(u32),
}

/// Every member-to-member switch of a solver cell that bridges one
/// unordered pair of members (both ends one member for a self-loop),
/// folded into one edge at compile time: the relaxation crosses it once
/// per direction, through the fold of its switches' conduction.
#[derive(Debug, Clone, Copy)]
struct CellEdge {
    /// Local member indices of the channel terminals; `a` is the
    /// pinned one of a `feed` edge.
    a: u32,
    b: u32,
    /// The switches' control words ([`ctl_word`]) are
    /// `CellImage::ctls[ctls[0]..ctls[1]]`.
    ctls: [u32; 2],
    /// `a` is pinned: an always-on driver holds it at Strong in every
    /// lane, so no switch can move it, and what it offers across the
    /// edge is final once the members' drives are initialized. The
    /// edge is crossed once, `a` to `b`, before the relaxation.
    feed: bool,
}

/// A switch's control as one word: the control net's plane index
/// shifted left by one, the low bit set for a p-channel switch (which
/// conducts on `0`).
fn ctl_word(ctl: NetId, pmos: bool) -> u32 {
    assert!(
        ctl.0 < 1 << 31,
        "switch control net {} exceeds 31 bits",
        ctl.0
    );
    ctl.0 << 1 | u32::from(pmos)
}

/// A cell of two members and one folded edge of one or two switches
/// between them, with no sources and no rail branches: the
/// transmission gate of a flip-flop, 68 % of the cell evaluations of a
/// `priority_queue@100k` window. Everything its settle reads besides
/// planes sits in this one 28-byte record, and it settles in closed
/// form ([`settle_pair`]) instead of through the relaxation loop.
#[derive(Debug, Clone, Copy)]
struct PairCell {
    /// The two member nets, ascending.
    nets: [u32; 2],
    /// Each member's `ext_slot` entry.
    slot: [u32; 2],
    /// The edge's control words; on a one-switch pair the second
    /// repeats the first, which leaves the fold as it is.
    ctl: [u32; 2],
    /// Each member's `ext_pull` entry.
    pull: [Option<Level>; 2],
}

const _: () = assert!(std::mem::size_of::<PairCell>() == 28);

/// [`CellImage::form`] of a cell that is not a [`PairCell`].
const GENERAL: u32 = u32::MAX;

/// A switch from a cell member to a supply rail. The rail side is
/// constant — nothing propagates *through* a Supply-strength net — so
/// the branch contributes `Strong(level)` where conducting and
/// `Strong(X)` where conduction is unknown.
#[derive(Debug, Clone, Copy)]
struct RailBranch {
    /// Local member index of the non-rail terminal.
    m: u32,
    /// Control net plane index.
    ctl: u32,
    /// P-channel polarity (conducts on `0`).
    pmos: bool,
    /// The rail's static level.
    level: Level,
}

/// One strong driver of a cell member, joined into the member's drive.
/// It contributes `Strong(data)` where its enable is 1, `Strong(X)`
/// where the enable is unknown and nothing where it is 0 —
/// [`GateKind::Tristate`]'s drive, gated the way a [`RailBranch`] is
/// gated by its control.
#[derive(Debug, Clone, Copy)]
struct Source {
    /// Local member index of the driven net.
    m: u32,
    /// Plane index of the driven level: the scratch slot a gate op or
    /// [`BitParSim::set_input_plane`] writes, or a tristate's data net.
    data: u32,
    /// Plane index of a tristate's enable net; `u32::MAX` for a gate or
    /// primary input, which always drives.
    en: u32,
}

/// Every solver cell in one flat image, laid out the way [`eval_cell`]
/// walks it (as [`crate::solver`] stores its switch groups): row `c` of
/// each table is cell `c`. A cell is the switch-level solver's monotone
/// (strength, level) join fixpoint, vectorized over lanes. Members are
/// the non-rail nets of one channel sub-group, or one multiply-driven
/// net without a switch; external drive enters as per-member constants
/// (pulls) or plane reads (sources); switches to rails are folded to
/// constant branches.
#[derive(Debug, Default)]
struct CellImage {
    /// Global net indices of the members (ascending). `ext_pull` and
    /// `ext_slot` hold one entry per member, at the positions of
    /// [`Csr::row_range`].
    members: Csr,
    /// Member-member switches, one folded edge per member pair.
    edges: Csr<CellEdge>,
    /// The edges' switch control words, edge by edge.
    ctls: Vec<u32>,
    /// Member-rail switches, in netlist order.
    rails: Csr<RailBranch>,
    /// Per-member resistive pull level (statically joined when a net
    /// carries several pulls; X under a lone member that floats to X
    /// rather than keeping its charge).
    ext_pull: Vec<Option<Level>>,
    /// Per-member scratch slot of the member's first driver that is
    /// always on (`u32::MAX` when it has none). Strong in every lane, it
    /// beats the pull outright, so [`eval_cell`] starts the member from
    /// it rather than joining it in: a member with one gate or input on
    /// it costs one plane read.
    ext_slot: Vec<u32>,
    /// Every other strong driver — tristates, and whatever fights a
    /// member's first always-on driver — member by member in driver
    /// order.
    sources: Csr<Source>,
    /// Per cell: its index in `pairs`, or [`GENERAL`].
    form: Vec<u32>,
    /// The pair cells' records, in cell order.
    pairs: Vec<PairCell>,
}

/// One member's accumulated contribution during [`eval_cell`]: level
/// (`v`/`k`) plus a 2-bit strength tier per lane (`s1 s0`: `00`
/// `HighZ`, `01` Resistive, `10` Weak, `11` Strong).
#[derive(Debug, Clone, Copy, Default)]
struct Drive {
    v: u64,
    k: u64,
    s1: u64,
    s0: u64,
}

/// A folded edge that conducts in some lane of the evaluation in
/// flight, with its conduction masks (see [`fold_conduction`]).
#[derive(Debug, Clone, Copy)]
struct LiveEdge {
    a: u32,
    b: u32,
    /// Lanes where some switch of the edge is not definitely off.
    maybe: u64,
    /// Lanes where some switch has an unknown control: they pass
    /// strength, level X.
    unknown: u64,
}

/// Workspace for [`eval_cell`], sized once to the largest cell.
#[derive(Debug)]
struct CellScratch {
    /// Per-member contribution.
    drive: Vec<Drive>,
    /// The edges the relaxation walks: conduction is read once per
    /// evaluation, and an edge off in every lane is left out.
    live: Vec<LiveEdge>,
    /// Global net indices whose resolved plane changed in the last
    /// evaluation (drained by the sweep for reader marking).
    changed: Vec<u32>,
    /// Set when a relaxation ran into its guard; the sweep folds it
    /// into [`BitParSim::loop_overflow`].
    unconverged: bool,
}

/// One bit per compiled op, set when an input plane of the op changed
/// since the op last ran. Scanned a word at a time, so finding the next
/// op to run costs the set bits, not the range.
#[derive(Debug)]
struct Pending {
    words: Vec<u64>,
}

impl Pending {
    /// `n` ops, all pending.
    fn all(n: usize) -> Pending {
        let mut pending = Pending {
            words: vec![0; n.div_ceil(64)],
        };
        (0..n).for_each(|i| pending.mark(i));
        pending
    }

    #[inline]
    fn mark(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    #[inline]
    fn clear(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// The first pending op in `from..end`.
    #[inline]
    fn next(&self, from: usize, end: usize) -> Option<usize> {
        if from >= end {
            return None;
        }
        let last = (end - 1) / 64;
        let mut wi = from / 64;
        let mut w = self.words[wi] & (!0u64 << (from % 64));
        while w == 0 {
            if wi == last {
                return None;
            }
            wi += 1;
            w = self.words[wi];
        }
        let i = wi * 64 + w.trailing_zeros() as usize;
        (i < end).then_some(i)
    }
}

/// One step of the sweep program: a contiguous op range evaluated once
/// (acyclic ranks) or iterated to a per-lane fixpoint (a gate feedback
/// cluster at its topological position).
#[derive(Debug, Clone, Copy)]
enum Step {
    /// `ops[start..end]` evaluated once, in rank order.
    Block { start: u32, end: u32 },
    /// `ops[start..end]` (one latch cluster) iterated until a pass
    /// changes no lane of any plane, bounded by [`MAX_LOOP_ITERS`];
    /// still-oscillating lanes are forced to X.
    Loop { start: u32, end: u32 },
}

/// Aggregate statistics of a [`BitParSim`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitParStats {
    /// Active lanes (scenarios per sweep).
    pub lanes: usize,
    /// Gates compiled into the bit-plane sweep.
    pub compiled_gates: usize,
    /// Switch channel sub-groups compiled as vectorized solver cells.
    pub solver_cells: usize,
    /// Solver cells of two members and one folded edge between them,
    /// settled in closed form (a subset of `solver_cells`).
    pub pair_cells: usize,
    /// Switches consumed by the compiled region (cell edges, rail
    /// branches, and rail-to-rail no-ops).
    pub compiled_switches: usize,
    /// Member-member switches folded into an edge that another switch
    /// of the same member pair already holds: the cells' relaxations
    /// walk that many fewer edges than there are such switches.
    pub folded_switches: usize,
    /// Feedback clusters (gates and/or cells) compiled as in-place
    /// fixpoint loops.
    pub feedback_loops: usize,
    /// Always 0: every component compiles. Kept for the benchmark
    /// crate, which reads it.
    pub fallback_components: usize,
    /// Combinational depth (ranks) of the compiled region.
    pub ranks: u32,
    /// Vectors settled so far.
    pub vectors: u64,
    /// Compiled sweeps executed: one per vector, none for a vector
    /// that left no op pending.
    pub sweeps: u64,
    /// Ops evaluated by the sweeps, gates and solver cells alike: one
    /// per op actually run (an op whose inputs did not move is skipped
    /// and not counted), each covering all lanes.
    pub compiled_evals: u64,
    /// Always 0, like [`BitParStats::fallback_components`].
    pub fallback_events: u64,
    /// Vectors in which a feedback cluster ran into its pass bound (its
    /// oscillating lanes were forced to X) or a cell's relaxation into
    /// its guard.
    pub unconverged_vectors: u64,
}

/// Bound on fixpoint iterations per compiled latch cluster before its
/// oscillating lanes are forced to X.
const MAX_LOOP_ITERS: u32 = 64;

/// The bit-parallel compiled simulator. See the [module docs](self).
#[derive(Debug)]
pub struct BitParSim<'a> {
    netlist: &'a Netlist,
    lanes: usize,
    active_mask: u64,
    /// Compiled ops in program order (blocks and loops index into this).
    ops: Vec<Op>,
    /// CSR items: input plane indices for every op.
    op_inputs: Vec<u32>,
    /// Compiled switch-level solver cells ([`OpKind::Cell`] targets).
    cells: CellImage,
    /// Solver-cell workspace.
    scratch: CellScratch,
    /// Per-net plane index written by [`BitParSim::set_input_plane`]:
    /// identity, except that an input net that is a cell member stages
    /// through its virtual scratch plane (the cell resolves the member
    /// plane itself) and one on a rail into a plane nothing reads.
    input_redirect: Vec<u32>,
    /// The sweep program: blocks swept once, loops iterated in place.
    steps: Vec<Step>,
    /// Number of `Step::Loop` entries (compiled latch clusters).
    loops: usize,
    /// Plane index → compiled ops reading it (activity gating).
    readers: Csr,
    /// Per-op pending bit: set when an input plane changed since the
    /// op last ran. The sweep evaluates only pending ops, in blocks and
    /// inside loops alike, which is what turns the oblivious `gates x
    /// vectors` cost into `activity-union x vectors` — the same
    /// event-driven insight as the paper's machine, applied at 64-lane
    /// granularity.
    pending: Pending,
    /// Per step: a [`Step::Loop`] that was X-forced at its bound. The
    /// forcing wrote member planes behind the ops' backs, so `pending`
    /// no longer tells which members are up to date; the next entry
    /// evaluates every member once before trusting it again.
    rearm: Vec<bool>,
    /// Two-plane ternary state per plane: one per net, plus virtual
    /// scratch slots for the always-on sources of cells.
    planes: BitPlanes,
    depth: u32,
    /// Set when a loop hit [`MAX_LOOP_ITERS`] during the current vector.
    loop_overflow: bool,
    vectors: u64,
    sweeps: u64,
    compiled_evals: u64,
    unconverged_vectors: u64,
}

impl<'a> BitParSim<'a> {
    /// Builds the backend: compiles every component of `netlist` into
    /// the sweep program.
    ///
    /// # Errors
    ///
    /// [`PreflightError::Lanes`] if `lanes` is not in `1..=64`, and
    /// nothing else: every topology of inputs, gates, tristates, pulls,
    /// supplies and switches compiles. The event engines' pre-flight,
    /// which refuses a zero-delay loop (LS0001), does not apply: the
    /// program has no delays, so such a loop is an ordinary feedback
    /// cluster here, forced to X after `MAX_LOOP_ITERS` passes if it
    /// oscillates.
    ///
    /// # Panics
    ///
    /// Panics if a net id used as a switch control exceeds 31 bits.
    pub fn new(netlist: &'a Netlist, lanes: usize) -> Result<BitParSim<'a>, PreflightError> {
        if !(1..=LANES).contains(&lanes) {
            return Err(PreflightError::Lanes(lanes));
        }
        let nn = netlist.num_nets();

        // Static drive per net. A net with a Supply driver is a rail:
        // nothing beats Supply, so whatever else drives the net is
        // overpowered, and nothing propagates *through* it, so rails
        // split the channel graph; switches to a rail become constant
        // Strong branches of the neighbouring sub-group. Pulls join
        // into one Resistive level; `live` nets have a driver that is
        // neither (a switch, a gate, a primary input).
        let joined = |acc: Option<Level>, l: Level| -> Option<Level> {
            Some(acc.map_or(l, |a| a.resolve_equal_strength(l)))
        };
        let mut rail_level: Vec<Option<Level>> = vec![None; nn];
        let mut pull_level: Vec<Option<Level>> = vec![None; nn];
        let mut live = vec![false; nn];
        for (_id, comp) in netlist.iter() {
            match comp {
                ComponentRef::Supply { net, level } => {
                    rail_level[net.index()] = joined(rail_level[net.index()], level);
                }
                ComponentRef::Pull { net, level } => {
                    pull_level[net.index()] = joined(pull_level[net.index()], level);
                }
                _ => comp.for_each_driven(|net| live[net.index()] = true),
            }
        }
        // Rails and nets driven by pulls alone hold a constant plane
        // (and make constant tristate enables).
        let const_level = |i: usize| rail_level[i].or(if live[i] { None } else { pull_level[i] });
        // How a gate drives its output: always (`Some(One)`: a plain
        // gate, a tristate whose enable is constant 1), never
        // (`Some(Zero)`), or as its enable plane says.
        let enable_of = |kind: GateKind, inputs: &[NetId]| {
            if kind == GateKind::Tristate {
                const_level(inputs[1].index())
            } else {
                Some(Level::One)
            }
        };

        // Cell members: every non-rail net a switch channel touches,
        // and every net without a switch that several components drive
        // (pulls alone excepted, see above). Sub-groups are the channel
        // components over the members: union-find over switch
        // terminals, rails excluded; a member without a switch is a
        // sub-group of its own.
        let mut member = vec![false; nn];
        let mut channel = UnionFind::new(nn);
        for (_id, comp) in netlist.iter() {
            if let ComponentRef::Switch { a, b, .. } = comp {
                member[a.index()] = true;
                member[b.index()] = true;
                if rail_level[a.index()].is_none() && rail_level[b.index()].is_none() {
                    channel.union(a.0, b.0);
                }
            }
        }
        for i in 0..nn {
            let shared = live[i] && netlist.drivers(NetId(i as u32)).len() > 1;
            member[i] = rail_level[i].is_none() && (member[i] || shared);
        }
        // Sub-groups are numbered by their lowest member.
        let mut sub_of = vec![u32::MAX; nn];
        let mut num_subs = 0u32;
        {
            let mut sid_of_root = vec![u32::MAX; nn];
            for i in 0..nn {
                if !member[i] {
                    continue;
                }
                let r = channel.find(i as u32) as usize;
                if sid_of_root[r] == u32::MAX {
                    sid_of_root[r] = num_subs;
                    num_subs += 1;
                }
                sub_of[i] = sid_of_root[r];
            }
        }
        let subs: Csr = Csr::bucket(num_subs as usize, || {
            (0u32..)
                .zip(&sub_of)
                .filter_map(|(net, &sid)| (sid != u32::MAX).then_some((sid, net)))
        });

        // One cell per sub-group, reading its members' strong drivers.
        // One that always drives gets a virtual scratch plane at
        // `nn + k`: its gate op (or `set_input_plane`) writes the slot,
        // the cell writes the resolved member plane. A tristate needs
        // no op: the cell reads its data and enable nets.
        let mut slot_of_comp = vec![u32::MAX; netlist.num_components()];
        let mut input_redirect: Vec<u32> = (0..nn as u32).collect();
        let mut n_slots = 0u32;
        let mut alloc_slot = || {
            n_slots += 1;
            nn as u32 + n_slots - 1
        };
        let mut cells = CellImage::default();
        let mut local_of = vec![u32::MAX; nn];
        let mut sources: Vec<Source> = Vec::new();
        let mut bridges: Vec<[u32; 3]> = Vec::new();
        for members in subs.rows() {
            for (li, &m) in (0u32..).zip(members) {
                local_of[m as usize] = li;
                cells.ext_pull.push(pull_level[m as usize]);
                cells.ext_slot.push(u32::MAX);
                let first = cells.ext_slot.last_mut().expect("just pushed");
                let mut always_on = |data: u32, sources: &mut Vec<Source>| {
                    if *first == u32::MAX {
                        *first = data;
                    } else {
                        sources.push(Source {
                            m: li,
                            data,
                            en: u32::MAX,
                        });
                    }
                };
                let row = netlist.drivers(NetId(m));
                for (i, &d) in row.iter().enumerate() {
                    match netlist.component(d) {
                        // A member-member switch, once, from the row of
                        // its lower end (which lists a self-loop twice,
                        // side by side).
                        ComponentRef::Switch {
                            kind,
                            control,
                            a,
                            b,
                            ..
                        } => {
                            let (lo, hi) = (a.0.min(b.0), a.0.max(b.0));
                            let again = i > 0 && row[i - 1] == d;
                            if lo == m && rail_level[hi as usize].is_none() && !again {
                                let word = ctl_word(control, kind == SwitchKind::Pmos);
                                bridges.push([lo, hi, word]);
                            }
                        }
                        ComponentRef::Pull { .. } => {}
                        ComponentRef::Supply { .. } => unreachable!("a supplied net is a rail"),
                        // However many input components name the net,
                        // it is staged once.
                        ComponentRef::Input { .. } => {
                            if input_redirect[m as usize] == m {
                                input_redirect[m as usize] = alloc_slot();
                                always_on(input_redirect[m as usize], &mut sources);
                            }
                        }
                        ComponentRef::Gate { kind, inputs, .. } => match enable_of(kind, inputs) {
                            Some(Level::One) => {
                                slot_of_comp[d.index()] = alloc_slot();
                                always_on(slot_of_comp[d.index()], &mut sources);
                            }
                            Some(Level::Zero) => {}
                            Some(Level::X) | None => sources.push(Source {
                                m: li,
                                data: inputs[0].0,
                                en: inputs[1].0,
                            }),
                        },
                    }
                }
            }
            cells.members.push_row(members.iter().copied());
            cells.sources.push_row(sources.drain(..));
            for s in &mut bridges {
                let (a, b) = (local_of[s[0] as usize], local_of[s[1] as usize]);
                (s[0], s[1]) = (a.min(b), a.max(b));
            }
            cells.push_edges(&mut bridges);
            bridges.clear();
        }
        // A primary input on a rail is overpowered like any other
        // driver there: it stages into a plane nothing reads.
        for &net in netlist.inputs() {
            if rail_level[net.index()].is_some() && input_redirect[net.index()] == net.0 {
                input_redirect[net.index()] = alloc_slot();
            }
        }
        let np = nn + n_slots as usize;
        let num_cells = cells.members.num_rows();
        let mut rails: Vec<(u32, RailBranch)> = Vec::new();
        for (_id, comp) in netlist.iter() {
            let ComponentRef::Switch {
                kind,
                control,
                a,
                b,
                ..
            } = comp
            else {
                continue;
            };
            let pmos = kind == SwitchKind::Pmos;
            let (ia, ib) = (a.index(), b.index());
            match (rail_level[ia], rail_level[ib]) {
                // Rail-to-rail: conduction cannot move a Supply net.
                (Some(_), Some(_)) => {}
                (Some(level), None) | (None, Some(level)) => {
                    let m = if rail_level[ia].is_some() { ib } else { ia };
                    rails.push((
                        sub_of[m],
                        RailBranch {
                            m: local_of[m],
                            ctl: control.0,
                            pmos,
                            level,
                        },
                    ));
                }
                // Folded into the cell's edges above.
                (None, None) => {}
            }
        }
        cells.rails = Csr::bucket(num_cells, || rails.iter().copied());
        // Floating lanes. In the event engine a net nothing drives
        // keeps its charge if its channel group holds a second net
        // (`ChannelGroups::is_nontrivial`, rails included) and is the
        // plain join of its drivers, X, if not. A cell's members sit in
        // such a group exactly when the cell has a second member or a
        // switch to a rail. The cell that does not — one member, every
        // switch on it bridging it to itself, or none — gets an X
        // "pull" under its real drives: no lane of it is ever left at
        // `HighZ`, and it has no neighbour to pass the X to.
        for ci in 0..num_cells {
            if cells.members.row_len(ci) == 1 && cells.rails.row_len(ci) == 0 {
                let lone = &mut cells.ext_pull[cells.members.row_range(ci).start];
                *lone = lone.or(Some(Level::X));
            }
        }
        cells.find_pairs();

        // Node graph: one node per gate op plus one per cell, edges
        // producer → reader over real and virtual planes. The generic
        // levelizer orders it; SCCs (gate latches, ctl-feedback cells,
        // and mixed gate/cell refresh loops) become in-place fixpoint
        // steps at their condensation rank. A gate gets an op unless it
        // never drives, is overpowered on a rail, or is a tristate that
        // its cell gates itself.
        let mut node_reads = Csr::default();
        let mut gate_ops: Vec<(GateKind, u32)> = Vec::new();
        let mut producer = vec![u32::MAX; np];
        for (id, comp) in netlist.iter() {
            let ComponentRef::Gate {
                kind,
                inputs,
                output,
                ..
            } = comp
            else {
                continue;
            };
            let o = output.index();
            if rail_level[o].is_some() {
                continue;
            }
            let (kernel, pins) = match enable_of(kind, inputs) {
                Some(Level::One) if kind == GateKind::Tristate => (GateKind::Buf, &inputs[..1]),
                Some(Level::One) => (kind, inputs),
                Some(Level::Zero) => continue,
                Some(Level::X) | None if member[o] => continue,
                Some(Level::X) | None => (GateKind::Tristate, inputs),
            };
            let out = match slot_of_comp[id.index()] {
                u32::MAX => o as u32,
                slot => slot,
            };
            producer[out as usize] = gate_ops.len() as u32;
            gate_ops.push((kernel, out));
            node_reads.push_row(pins.iter().map(|n| n.0));
        }
        let ng = gate_ops.len();
        let n_nodes = ng + num_cells;
        let mut reads: Vec<u32> = Vec::new();
        for ci in 0..num_cells {
            reads.clear();
            reads.extend(
                (cells.edges.row(ci).iter())
                    .flat_map(|e| &cells.ctls[e.ctls[0] as usize..e.ctls[1] as usize])
                    .map(|&w| w >> 1)
                    .chain(cells.rails.row(ci).iter().map(|r| r.ctl))
                    .chain(cells.ext_slot[cells.members.row_range(ci)].iter().copied())
                    .chain(cells.sources.row(ci).iter().flat_map(|s| [s.data, s.en]))
                    .filter(|&p| p != u32::MAX),
            );
            reads.sort_unstable();
            reads.dedup();
            node_reads.push_row(reads.iter().copied());
            for &m in cells.members.row(ci) {
                producer[m as usize] = (ng + ci) as u32;
            }
        }
        // One edge per read plane: a node reading two planes of one
        // producer gets a parallel edge, which the levelizer allows.
        let adj = Csr::bucket(n_nodes, || {
            (0u32..).zip(node_reads.rows()).flat_map(|(ni, reads)| {
                reads
                    .iter()
                    .map(|&p| producer[p as usize])
                    .filter(|&pr| pr != u32::MAX)
                    .map(move |pr| (pr, ni))
            })
        });
        let nl = levelize_nodes(&adj);

        // Merge ranked nodes and feedback clusters into one program.
        // No edges exist inside a rank, so a stable sort by rank is a
        // valid order; each cluster lands between the ranks that feed
        // it and the ranks that read it.
        enum NItem {
            Single(u32),
            Group(Vec<u32>),
        }
        let mut items: Vec<(u32, NItem)> = Vec::with_capacity(nl.order.len() + nl.groups.len());
        for (i, &nid) in nl.order.iter().enumerate() {
            items.push((nl.ranks[i], NItem::Single(nid)));
        }
        for (rank, members) in nl.groups {
            items.push((rank, NItem::Group(members)));
        }
        items.sort_by_key(|&(r, _)| r);
        let depth = items.iter().map(|&(r, _)| r + 1).max().unwrap_or(0);

        let mut ops: Vec<Op> = Vec::new();
        let mut op_inputs: Vec<u32> = Vec::new();
        let mut steps: Vec<Step> = Vec::new();
        let mut loops = 0;
        let emit = |nid: u32, ops: &mut Vec<Op>, op_inputs: &mut Vec<u32>| {
            let reads = node_reads.row(nid as usize);
            let in_off = op_inputs.len() as u32;
            op_inputs.extend_from_slice(reads);
            let in_len = reads.len() as u32;
            let (kind, out) = match gate_ops.get(nid as usize) {
                Some(&(kernel, out)) => (OpKind::Gate(kernel), out),
                None => (OpKind::Cell(nid - ng as u32), u32::MAX),
            };
            ops.push(Op {
                kind,
                out,
                in_off,
                in_len,
            });
        };
        for (_rank, item) in &items {
            match item {
                NItem::Single(nid) => {
                    let before = ops.len() as u32;
                    emit(*nid, &mut ops, &mut op_inputs);
                    match steps.last_mut() {
                        Some(Step::Block { end, .. }) if *end == before => *end += 1,
                        _ => steps.push(Step::Block {
                            start: before,
                            end: before + 1,
                        }),
                    }
                }
                NItem::Group(nids) => {
                    let start = ops.len() as u32;
                    for &nid in nids {
                        emit(nid, &mut ops, &mut op_inputs);
                    }
                    steps.push(Step::Loop {
                        start,
                        end: ops.len() as u32,
                    });
                    loops += 1;
                }
            }
        }

        // Plane → compiled ops reading it, for pending-op marking when
        // a plane changes.
        let readers = Csr::bucket(np, || {
            (0u32..).zip(&ops).flat_map(|(i, op)| {
                op_inputs[op.in_off as usize..(op.in_off + op.in_len) as usize]
                    .iter()
                    .map(move |&p| (p, i))
            })
        });

        // Constant planes for rails and nets pulls alone drive.
        let mut planes = BitPlanes::new(np);
        for i in 0..nn {
            if let Some(l) = const_level(i) {
                planes.set(i, Plane::splat(l));
            }
        }

        Ok(BitParSim {
            netlist,
            lanes,
            active_mask: if lanes == LANES {
                !0
            } else {
                (1u64 << lanes) - 1
            },
            pending: Pending::all(ops.len()),
            rearm: vec![false; steps.len()],
            ops,
            op_inputs,
            scratch: CellScratch::sized_for(&cells),
            cells,
            input_redirect,
            steps,
            loops,
            readers,
            planes,
            depth,
            loop_overflow: false,
            vectors: 0,
            sweeps: 0,
            compiled_evals: 0,
            unconverged_vectors: 0,
        })
    }

    /// The netlist being simulated.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Number of active lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Stages one stimulus plane on a primary input net (applied by the
    /// next [`BitParSim::settle_vector`]).
    ///
    /// An input net that is a member of a solver cell stages through
    /// its virtual scratch plane: the cell resolves the member plane
    /// itself (the input is one Strong contribution among the cell's
    /// drivers, exactly as in the event engine).
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    pub fn set_input_plane(&mut self, net: NetId, plane: Plane) {
        let idx = self.input_redirect[net.index()] as usize;
        if self.planes.set(idx, plane.masked(self.active_mask)) {
            for &r in self.readers.row(idx) {
                self.pending.mark(r as usize);
            }
        }
    }

    /// The level of `net` in `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range or `lane >= self.lanes()`.
    #[must_use]
    pub fn level(&self, net: NetId, lane: usize) -> Level {
        assert!(lane < self.lanes, "lane {lane} out of range");
        self.planes.lane(net.index(), lane)
    }

    /// One vector settle: one sweep of the program if any op is
    /// pending, none otherwise. Returns `false` when a cluster's pass
    /// bound or a cell's relaxation guard was exhausted (oscillation).
    pub fn settle_vector(&mut self) -> bool {
        self.settle_with(Self::sweep)
    }

    /// [`BitParSim::settle_vector`] over the given sweep (the tests run
    /// the replaced full-pass sweep through the same protocol).
    fn settle_with(&mut self, sweep: impl Fn(&mut Self)) -> bool {
        self.vectors += 1;
        self.loop_overflow = false;
        if self.pending.any() {
            sweep(self);
        }
        self.unconverged_vectors += u64::from(self.loop_overflow);
        !self.loop_overflow
    }

    /// One activity-gated sweep, all 64 lanes at once: every pending op
    /// is evaluated in program order and marks the readers of each
    /// plane it changes; an op whose input planes did not change since
    /// it last ran is skipped — its persisted output planes are already
    /// correct. A block is scanned once. A latch-cluster loop with any
    /// pending member is scanned pass after pass, each pass running the
    /// members pending when the scan reaches them (a mark ahead of the
    /// scan runs in the same pass, a mark behind it in the next), until
    /// a pass changes no lane.
    ///
    /// Skipping inside a loop is exact: a gate op is a pure function of
    /// its input planes and [`eval_cell`] is idempotent, and neither
    /// writes a plane without changing an active lane of it, so a pass
    /// that changes no lane marks nothing and leaves no member pending.
    fn sweep(&mut self) {
        self.sweeps += 1;
        let active = self.active_mask;
        let mut evals = 0u64;
        let mut overflow = false;
        let ops = &self.ops;
        let op_inputs = &self.op_inputs;
        let cells = &self.cells;
        let scratch = &mut self.scratch;
        let readers = &self.readers;
        let planes = &mut self.planes;
        let pending = &mut self.pending;
        let mark = |net: usize, pending: &mut Pending| {
            for &r in readers.row(net) {
                pending.mark(r as usize);
            }
        };
        // Runs op `i` and marks the readers of what it changed; returns
        // the lanes that changed. A gate writes its output if it differs
        // in `gate_lanes`: anywhere for a block, in an active lane for a
        // loop, whose exit test must see every write it makes.
        let mut run = |i: usize, gate_lanes: u64, planes: &mut BitPlanes, pending: &mut Pending| {
            pending.clear(i);
            evals += 1;
            let op = &ops[i];
            match op.kind {
                OpKind::Gate(kind) => {
                    let pins = &op_inputs[op.in_off as usize..(op.in_off + op.in_len) as usize];
                    let out = eval_op(kind, pins, planes);
                    let cur = planes.get(op.out as usize);
                    let d = ((out.val ^ cur.val) | (out.known ^ cur.known)) & gate_lanes;
                    if d != 0 {
                        planes.set(op.out as usize, out);
                        mark(op.out as usize, pending);
                    }
                    d
                }
                OpKind::Cell(ci) => {
                    let d = eval_cell(cells, ci as usize, planes, scratch, active);
                    for idx in scratch.changed.drain(..) {
                        mark(idx as usize, pending);
                    }
                    d
                }
            }
        };
        for (step, rearm) in self.steps.iter().zip(&mut self.rearm) {
            match *step {
                Step::Block { start, end } => {
                    let (mut at, end) = (start as usize, end as usize);
                    while let Some(i) = pending.next(at, end) {
                        run(i, !0, planes, pending);
                        at = i + 1;
                    }
                }
                Step::Loop { start, end } => {
                    let (start, end) = (start as usize, end as usize);
                    if pending.next(start, end).is_none() {
                        continue;
                    }
                    if std::mem::take(rearm) {
                        (start..end).for_each(|i| pending.mark(i));
                    }
                    let mut iters = 0;
                    loop {
                        let mut changed = 0u64;
                        let mut at = start;
                        while let Some(i) = pending.next(at, end) {
                            changed |= run(i, active, planes, pending);
                            at = i + 1;
                        }
                        if changed == 0 {
                            break;
                        }
                        iters += 1;
                        if iters >= MAX_LOOP_ITERS {
                            // Oscillating lanes: force this cluster's
                            // outputs to X in exactly those lanes (the
                            // compiled-mode oscillation detector) and
                            // flag the vector as unconverged.
                            let mut force = |idx: usize| {
                                let cur = planes.get(idx);
                                let forced = Plane {
                                    val: cur.val & !changed,
                                    known: cur.known & !changed,
                                };
                                if planes.set(idx, forced) {
                                    mark(idx, pending);
                                }
                            };
                            for op in &ops[start..end] {
                                match op.kind {
                                    OpKind::Gate(_) => force(op.out as usize),
                                    OpKind::Cell(ci) => {
                                        for &g in cells.members.row(ci as usize) {
                                            force(g as usize);
                                        }
                                    }
                                }
                            }
                            // The cluster rests where it was forced:
                            // the marks it left on its own members are
                            // dropped, and the next entry re-arms.
                            (start..end).for_each(|i| pending.clear(i));
                            *rearm = true;
                            overflow = true;
                            break;
                        }
                    }
                }
            }
        }
        self.compiled_evals += evals;
        self.loop_overflow |= overflow | std::mem::take(&mut self.scratch.unconverged);
    }

    /// Aggregate run statistics.
    #[must_use]
    pub fn stats(&self) -> BitParStats {
        BitParStats {
            lanes: self.lanes,
            // Every op is a gate kernel or a cell, once.
            compiled_gates: self.ops.len() - self.cells.members.num_rows(),
            solver_cells: self.cells.members.num_rows(),
            pair_cells: self.cells.pairs.len(),
            compiled_switches: self.netlist.num_switches(),
            folded_switches: self.cells.ctls.len() - self.cells.edges.num_items(),
            feedback_loops: self.loops,
            fallback_components: 0,
            ranks: self.depth,
            vectors: self.vectors,
            sweeps: self.sweeps,
            compiled_evals: self.compiled_evals,
            fallback_events: 0,
            unconverged_vectors: self.unconverged_vectors,
        }
    }
}

/// Evaluates one compiled gate over the planes (branch-free per lane).
#[inline]
fn eval_op(kind: GateKind, pins: &[u32], planes: &BitPlanes) -> Plane {
    let pin = |i: usize| planes.get(pins[i] as usize);
    match kind {
        GateKind::Buf => pin(0),
        GateKind::Not => pin(0).not(),
        GateKind::And | GateKind::Nand => {
            let mut acc = pin(0);
            for i in 1..pins.len() {
                acc = acc.and(pin(i));
            }
            if kind == GateKind::Nand {
                acc.not()
            } else {
                acc
            }
        }
        GateKind::Or | GateKind::Nor => {
            let mut acc = pin(0);
            for i in 1..pins.len() {
                acc = acc.or(pin(i));
            }
            if kind == GateKind::Nor {
                acc.not()
            } else {
                acc
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            let mut acc = pin(0);
            for i in 1..pins.len() {
                acc = acc.xor(pin(i));
            }
            if kind == GateKind::Xnor {
                acc.not()
            } else {
                acc
            }
        }
        // Driving where the enable is 1; X where it is unknown (driven
        // X) and where it is 0 (a floating net without a switch).
        GateKind::Tristate => pin(0).masked(pin(1).is_one()),
    }
}

/// Per-lane conduction masks for a switch from its control plane:
/// `(on, maybe)` where `on` = definitely conducting and `maybe` = not
/// definitely off (unknown controls conduct pessimistically, with the
/// passed level forced to X — exactly [`crate::solver`]).
#[inline]
fn conduction(ctl: Plane, pmos: bool) -> (u64, u64) {
    let (on, off) = if pmos {
        (ctl.is_zero(), ctl.is_one())
    } else {
        (ctl.is_one(), ctl.is_zero())
    };
    (on, !off)
}

/// The conduction of a folded edge from its switches' control words:
/// `(maybe, unknown)`, the lanes where some switch is not definitely off
/// and those where some switch's control is unknown. Crossing the fold
/// once joins what crossing each switch in turn would: a known level
/// meets its own copy, and an unknown control's X wins at equal
/// strength.
#[inline]
fn fold_conduction<'w>(words: impl IntoIterator<Item = &'w u32>, planes: &BitPlanes) -> (u64, u64) {
    words.into_iter().fold((0, 0), |(maybe, unknown), &w| {
        let (on, m) = conduction(planes.get((w >> 1) as usize), w & 1 != 0);
        (maybe | m, unknown | (m & !on))
    })
}

/// `src` crossing a folded edge: Strong degrades to Weak, the level is
/// X where a control is unknown, and nothing passes where every switch
/// is off.
#[inline]
fn through(src: Drive, maybe: u64, unknown: u64) -> Drive {
    let k = src.k & !unknown & maybe;
    Drive {
        v: src.v & k,
        k,
        s1: src.s1 & maybe,
        s0: (src.s0 & !src.s1) & maybe,
    }
}

/// Joins one candidate contribution into `dst`, lane-parallel:
/// strictly stronger candidates replace the accumulated (strength,
/// level); equal-strength candidates resolve levels (agree → keep,
/// disagree or unknown → X). This is `Signal::resolve` over bit planes;
/// returns `true` if `dst` moved.
#[inline]
fn join(dst: &mut Drive, c: Drive) -> bool {
    let d = *dst;
    // Lanes where the candidate carries any drive at all.
    let nz = c.s1 | c.s0;
    let e1 = !(c.s1 ^ d.s1);
    // 2-bit tier compare: candidate strictly stronger / equal.
    let gt = ((c.s1 & !d.s1) | (e1 & c.s0 & !d.s0)) & nz;
    let eq = (e1 & !(c.s0 ^ d.s0)) & nz;
    // Equal strength: the level survives only where both sides agree.
    let rk = c.k & d.k & !(c.v ^ d.v);
    let rv = c.v & rk;
    let keep = !gt & !eq;
    let n = Drive {
        v: (d.v & keep) | (c.v & gt) | (rv & eq),
        k: (d.k & keep) | (c.k & gt) | (rk & eq),
        s1: (d.s1 & !gt) | (c.s1 & gt),
        s0: (d.s0 & !gt) | (c.s0 & gt),
    };
    *dst = n;
    ((n.v ^ d.v) | (n.k ^ d.k) | (n.s1 ^ d.s1) | (n.s0 ^ d.s0)) != 0
}

impl CellImage {
    /// Folds the member-member switches of the cell last pushed to
    /// `members` — `[a, b, word]`: local member indices `a <= b` and the
    /// switch's [`ctl_word`], in any order — into one [`CellEdge`] per
    /// member pair, and pushes them as the cell's row of `edges`. The
    /// cell's `ext_slot` entries must be in place: they say which edges
    /// feed.
    fn push_edges(&mut self, switches: &mut [[u32; 3]]) {
        let at = self.members.row_range(self.members.num_rows() - 1);
        switches.sort_unstable();
        let ctls = &mut self.ctls;
        let ext_slot = &self.ext_slot[at];
        self.edges
            .push_row(switches.chunk_by(|x, y| x[..2] == y[..2]).map(|run| {
                let start = ctls.len() as u32;
                ctls.extend(run.iter().map(|s| s[2]));
                let [mut a, mut b, _] = run[0];
                let pinned = |m: u32| ext_slot[m as usize] != u32::MAX;
                if pinned(b) && !pinned(a) {
                    (a, b) = (b, a);
                }
                CellEdge {
                    a,
                    b,
                    ctls: [start, ctls.len() as u32],
                    feed: pinned(a),
                }
            }));
    }

    /// Records every cell of two members and one edge of one or two
    /// switches between them, with no sources and no rail branches, as a
    /// [`PairCell`]; every other cell is [`GENERAL`]. The image must be
    /// complete.
    fn find_pairs(&mut self) {
        let num_cells = self.members.num_rows();
        self.form = Vec::with_capacity(num_cells);
        for ci in 0..num_cells {
            let (members, at) = (self.members.row(ci), self.members.row_range(ci));
            let words = match self.edges.row(ci) {
                &[e] if members.len() == 2 && e.a != e.b => {
                    &self.ctls[e.ctls[0] as usize..e.ctls[1] as usize]
                }
                _ => &[],
            };
            let bare = self.sources.row_len(ci) == 0 && self.rails.row_len(ci) == 0;
            if !(1..=2).contains(&words.len()) || !bare {
                self.form.push(GENERAL);
                continue;
            }
            self.form.push(self.pairs.len() as u32);
            self.pairs.push(PairCell {
                nets: [members[0], members[1]],
                slot: [self.ext_slot[at.start], self.ext_slot[at.start + 1]],
                ctl: [words[0], words[words.len() - 1]],
                pull: [self.ext_pull[at.start], self.ext_pull[at.start + 1]],
            });
        }
    }
}

impl CellScratch {
    /// A workspace that fits every cell of `cells`.
    fn sized_for(cells: &CellImage) -> CellScratch {
        let rows = 0..cells.members.num_rows();
        let members = rows.clone().map(|c| cells.members.row_len(c)).max();
        let edges = rows.map(|c| cells.edges.row_len(c)).max();
        CellScratch {
            drive: vec![Drive::default(); members.unwrap_or(0)],
            live: Vec::with_capacity(edges.unwrap_or(0)),
            changed: Vec::with_capacity(members.unwrap_or(0)),
            unconverged: false,
        }
    }
}

/// A member's drive before any source or switch joins in: its
/// always-on slot at Strong, else its pull at Resistive, else `HighZ`.
#[inline]
fn ext_drive(slot: u32, pull: Option<Level>, planes: &BitPlanes) -> Drive {
    let (p, s1) = if slot != u32::MAX {
        (planes.get(slot as usize), !0)
    } else if let Some(l) = pull {
        (Plane::splat(l), 0)
    } else {
        return Drive::default();
    };
    Drive {
        v: p.val,
        k: p.known,
        s1,
        s0: !0,
    }
}

/// Joins cell `ci`'s further sources and its rail branches into its
/// members' drives.
fn join_sources_and_rails(cells: &CellImage, ci: usize, planes: &BitPlanes, drive: &mut [Drive]) {
    for s in cells.sources.row(ci) {
        let data = planes.get(s.data as usize);
        let (on, maybe) = match s.en {
            u32::MAX => (!0, !0),
            en => {
                let en = planes.get(en as usize);
                (en.is_one(), !en.is_zero())
            }
        };
        join(
            &mut drive[s.m as usize],
            Drive {
                v: data.val & on,
                k: data.known & on,
                s1: maybe,
                s0: maybe,
            },
        );
    }
    // Rail branches are constant per evaluation: Supply degrades to
    // Strong through the switch, level X where conduction is unknown.
    for rb in cells.rails.row(ci) {
        let (on, maybe) = conduction(planes.get(rb.ctl as usize), rb.pmos);
        let lvl = Plane::splat(rb.level);
        join(
            &mut drive[rb.m as usize],
            Drive {
                v: lvl.val & on,
                k: lvl.known & on,
                s1: maybe,
                s0: maybe,
            },
        );
    }
}

/// Relaxes the live edges over `drive` to the least fixpoint of the
/// (strength, level) join lattice. Returns `false` if the relaxation
/// outlived its guard, which a finite ascending lattice never should.
///
/// The fixpoint does not depend on the order or grouping of the joins:
/// every contribution crosses a switch, so it is at most Weak; a member
/// at Strong got there from its own drivers and no join moves it; and
/// at or below Weak, [`through`] is monotone and idempotent. So the
/// equations are monotone on every state the loop reaches, and their
/// least fixpoint is unique — which is what lets
/// [`CellImage::push_edges`] merge parallel switches and [`settle_pair`] stop after three joins.
fn relax(drive: &mut [Drive], live: &[LiveEdge]) -> bool {
    let guard = 64 * 6 * (drive.len() as u32 + 1);
    for _ in 0..=guard {
        let mut moved = false;
        for e in live {
            for (s, d) in [(e.a, e.b), (e.b, e.a)] {
                let src = through(drive[s as usize], e.maybe, e.unknown);
                moved |= join(&mut drive[d as usize], src);
            }
        }
        if !moved {
            return true;
        }
    }
    false
}

/// The closed form of a pair cell's relaxation: three half-steps,
/// `y ⊔= T(x); x ⊔= T(y); y ⊔= T(x)`. By [`relax`]'s order freedom the
/// first lifts `y` by `x`'s drive, the second `x` by the result, and
/// the third carries back what the second changed in `x` (an X or a
/// stronger tier); a fourth would move nothing.
#[inline]
fn settle_pair(drive: &mut [Drive; 2], maybe: u64, unknown: u64) {
    let [x, y] = drive;
    join(y, through(*x, maybe, unknown));
    join(x, through(*y, maybe, unknown));
    join(y, through(*x, maybe, unknown));
}

/// Writes the resolved member planes: lanes left at `HighZ` keep the
/// previous plane as trapped charge, which makes a second evaluation
/// over unchanged inputs a no-op. Records in `changed` the members that
/// moved in a lane under `active`, and returns the lanes where any did.
#[inline]
fn write_back(
    drive: &[Drive],
    nets: &[u32],
    planes: &mut BitPlanes,
    changed: &mut Vec<u32>,
    active: u64,
) -> u64 {
    changed.clear();
    let mut diff = 0u64;
    for (d, &g) in drive.iter().zip(nets) {
        let g = g as usize;
        let highz = !(d.s1 | d.s0);
        let old = planes.get(g);
        let known = (d.k & !highz) | (old.known & highz);
        let val = ((d.v & !highz) | (old.val & highz)) & known;
        let moved = ((val ^ old.val) | (known ^ old.known)) & active;
        if moved != 0 {
            planes.set(g, Plane { val, known });
            changed.push(g as u32);
            diff |= moved;
        }
    }
    diff
}

/// Evaluates cell `ci` over the planes — the vectorized
/// [`crate::solver::resolve_group_into`]: initializes each member from
/// its external drive (strong slot, else resistive pull, else
/// high-impedance), joins the further sources and the constant rail
/// branches in, settles the member-member edges (a pair cell in closed
/// form, any other by [`relax`]) and writes back with charge retention
/// ([`write_back`]). Records the members that changed in a lane under
/// `active` in `sc.changed`, and returns the lanes where any did.
fn eval_cell(
    cells: &CellImage,
    ci: usize,
    planes: &mut BitPlanes,
    sc: &mut CellScratch,
    active: u64,
) -> u64 {
    if let Some(p) = cells.pairs.get(cells.form[ci] as usize) {
        let mut drive = [0, 1].map(|i| ext_drive(p.slot[i], p.pull[i], planes));
        let (maybe, unknown) = fold_conduction(&p.ctl, planes);
        if maybe != 0 {
            settle_pair(&mut drive, maybe, unknown);
        }
        return write_back(&drive, &p.nets, planes, &mut sc.changed, active);
    }
    let members = cells.members.row(ci);
    let at = cells.members.row_range(ci);
    let drive = &mut sc.drive[..members.len()];
    for ((d, &slot), &pull) in (drive.iter_mut())
        .zip(&cells.ext_slot[at.clone()])
        .zip(&cells.ext_pull[at])
    {
        *d = ext_drive(slot, pull, planes);
    }
    join_sources_and_rails(cells, ci, planes, drive);
    // Conduction is fixed for the whole evaluation (control planes are
    // read, never written, until the write-back below), and an edge
    // that is off in every lane offers `HighZ` to both ends: the join
    // provably moves nothing, so the relaxation never visits it. A feed
    // edge's pinned end is final already: it is crossed here, once.
    sc.live.clear();
    for e in cells.edges.row(ci) {
        let words = &cells.ctls[e.ctls[0] as usize..e.ctls[1] as usize];
        let (maybe, unknown) = fold_conduction(words, planes);
        if maybe == 0 {
            continue;
        }
        if e.feed {
            let src = through(drive[e.a as usize], maybe, unknown);
            join(&mut drive[e.b as usize], src);
        } else {
            sc.live.push(LiveEdge {
                a: e.a,
                b: e.b,
                maybe,
                unknown,
            });
        }
    }
    if !relax(drive, &sc.live) {
        sc.unconverged = true;
    }
    write_back(drive, members, planes, &mut sc.changed, active)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cyclic::{self, Wiring};
    use crate::engine::Simulator;
    use logicsim_netlist::{Component, Delay, NetlistBuilder};
    use proptest::prelude::*;

    impl BitParSim<'_> {
        /// The sweep this engine ran before feedback clusters were
        /// activity-gated, kept as the oracle of the one above: blocks
        /// evaluate their pending ops, but a loop with any pending
        /// member evaluates *every* member on every pass, once more to
        /// see that nothing moved, and drops whatever marks its members
        /// hold when it leaves.
        fn sweep_reference(&mut self) {
            self.sweeps += 1;
            let active = self.active_mask;
            let mut evals = 0u64;
            let mut overflow = false;
            let ops = &self.ops;
            let op_inputs = &self.op_inputs;
            let cells = &self.cells;
            let scratch = &mut self.scratch;
            let readers = &self.readers;
            let planes = &mut self.planes;
            let pending = &mut self.pending;
            let mark = |net: usize, pending: &mut Pending| {
                for &r in readers.row(net) {
                    pending.mark(r as usize);
                }
            };
            for step in &self.steps {
                match *step {
                    Step::Block { start, end } => {
                        let block = start as usize..end as usize;
                        for (i, op) in block.clone().zip(&ops[block]) {
                            if pending.next(i, i + 1).is_none() {
                                continue;
                            }
                            pending.clear(i);
                            evals += 1;
                            match op.kind {
                                OpKind::Gate(kind) => {
                                    let pins = &op_inputs
                                        [op.in_off as usize..(op.in_off + op.in_len) as usize];
                                    let out = eval_op(kind, pins, planes);
                                    if planes.set(op.out as usize, out) {
                                        mark(op.out as usize, pending);
                                    }
                                }
                                OpKind::Cell(ci) => {
                                    eval_cell(cells, ci as usize, planes, scratch, active);
                                    for idx in scratch.changed.drain(..) {
                                        mark(idx as usize, pending);
                                    }
                                }
                            }
                        }
                    }
                    Step::Loop { start, end } => {
                        let range = start as usize..end as usize;
                        if pending.next(range.start, range.end).is_none() {
                            continue;
                        }
                        let body = &ops[range.clone()];
                        let mut iters = 0;
                        loop {
                            let mut changed = 0u64;
                            for op in body {
                                match op.kind {
                                    OpKind::Gate(kind) => {
                                        let pins = &op_inputs
                                            [op.in_off as usize..(op.in_off + op.in_len) as usize];
                                        let out = eval_op(kind, pins, planes);
                                        let cur = planes.get(op.out as usize);
                                        let d = ((out.val ^ cur.val) | (out.known ^ cur.known))
                                            & active;
                                        if d != 0 {
                                            planes.set(op.out as usize, out);
                                            mark(op.out as usize, pending);
                                        }
                                        changed |= d;
                                    }
                                    OpKind::Cell(ci) => {
                                        let d =
                                            eval_cell(cells, ci as usize, planes, scratch, active);
                                        for idx in scratch.changed.drain(..) {
                                            mark(idx as usize, pending);
                                        }
                                        changed |= d;
                                    }
                                }
                            }
                            evals += u64::from(end - start);
                            if changed == 0 {
                                break;
                            }
                            iters += 1;
                            if iters >= MAX_LOOP_ITERS {
                                let mut force = |idx: usize| {
                                    let cur = planes.get(idx);
                                    let forced = Plane {
                                        val: cur.val & !changed,
                                        known: cur.known & !changed,
                                    };
                                    if planes.set(idx, forced) {
                                        mark(idx, pending);
                                    }
                                };
                                for op in body {
                                    match op.kind {
                                        OpKind::Gate(_) => force(op.out as usize),
                                        OpKind::Cell(ci) => {
                                            for &g in cells.members.row(ci as usize) {
                                                force(g as usize);
                                            }
                                        }
                                    }
                                }
                                overflow = true;
                                break;
                            }
                        }
                        // Marks the loop left on its own members are stale:
                        // the cluster already converged (or was X-forced).
                        range.for_each(|i| pending.clear(i));
                    }
                }
            }
            self.compiled_evals += evals;
            self.loop_overflow |= overflow | std::mem::take(&mut scratch.unconverged);
        }
    }

    /// Settles the same vectors on two engines over `netlist`, one under
    /// [`BitParSim::sweep`] and one under the reference sweep, and holds
    /// them to the same planes, counts and verdicts after every vector.
    fn agree_with_reference(
        netlist: &Netlist,
        inputs: &[NetId],
        lanes: usize,
        vectors: &[Vec<Plane>],
    ) {
        let mut new = BitParSim::new(netlist, lanes).unwrap();
        let mut old = BitParSim::new(netlist, lanes).unwrap();
        for (v, vector) in vectors.iter().enumerate() {
            for (&net, &plane) in inputs.iter().zip(vector) {
                new.set_input_plane(net, plane);
                old.set_input_plane(net, plane);
            }
            let settled = new.settle_vector();
            assert_eq!(
                settled,
                old.settle_with(BitParSim::sweep_reference),
                "v={v}: verdict"
            );
            assert_eq!(new.planes, old.planes, "v={v}: planes");
            let (n, o) = (new.stats(), old.stats());
            assert_eq!(n.sweeps, o.sweeps, "v={v}: sweeps");
            assert_eq!(n.unconverged_vectors, o.unconverged_vectors, "v={v}");
            assert!(n.compiled_evals <= o.compiled_evals, "v={v}: more evals");
            for i in 0..netlist.num_nets() {
                let net = NetId(i as u32);
                for lane in 0..lanes {
                    assert_eq!(new.level(net, lane), old.level(net, lane), "v={v}");
                }
            }
        }
    }

    #[test]
    fn cluster_forced_to_x_is_evaluated_in_full_at_its_next_entry() {
        // y = NAND(en, x), g = OR(a, x), x = AND(y, g): one cluster.
        // With a = 1, g holds 1 whatever x does, and x follows y: a
        // ring behind `en`. At the pass bound *every* member is forced
        // to X, g included, although g's inputs still say 1. The next
        // vector turns en to X: only the NAND is marked, it computes
        // the X it already holds, and a sweep that trusted the other
        // members' clear bits would leave g (and q behind it) at X.
        let mut b = NetlistBuilder::new("rearm");
        let en = b.input("en");
        let a = b.input("a");
        let (x, y, g, q) = (b.net("x"), b.net("y"), b.net("g"), b.net("q"));
        b.gate(GateKind::Nand, &[en, x], y, Delay::uniform(1));
        b.gate(GateKind::Or, &[a, x], g, Delay::uniform(1));
        b.gate(GateKind::And, &[y, g], x, Delay::uniform(1));
        b.gate(GateKind::Buf, &[g], q, Delay::uniform(1));
        let n = b.finish().unwrap();
        let mut sim = BitParSim::new(&n, 1).unwrap();
        assert_eq!(sim.stats().feedback_loops, 1);
        drive(&mut sim, a, Level::One);
        let mut vectors = Vec::new();
        for (en_level, settles, want_q) in [
            (Level::Zero, true, Level::One),
            (Level::One, false, Level::X),
            (Level::X, true, Level::One),
        ] {
            drive(&mut sim, en, en_level);
            assert_eq!(sim.settle_vector(), settles, "en={en_level}");
            assert_eq!(sim.level(q, 0), want_q, "en={en_level}");
            vectors.push(vec![Plane::splat(en_level), Plane::splat(Level::One)]);
        }
        assert_eq!(sim.stats().unconverged_vectors, 1);
        agree_with_reference(&n, &[en, a], 1, &vectors);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The oracle: on random cyclic circuits — gate latches, pass-gate
        /// cells inside feedback paths, control nets fed back into their
        /// own cell, rings that oscillate and are X-forced, buses, fights
        /// and supplied members, wired into one another at random — the
        /// activity-gated sweep and the full-pass sweep it replaced leave
        /// every plane, every count and every verdict identical, at
        /// every lane width, and the gated one never evaluates more.
        #[test]
        fn gated_sweep_agrees_with_full_pass_sweep(
            elements in proptest::collection::vec(
                (any::<u8>(), any::<usize>(), any::<usize>(), any::<usize>(), any::<usize>()), 1..7),
            gates in proptest::collection::vec(
                (any::<u8>(), any::<usize>(), any::<usize>()), 0..24),
            stimulus in proptest::collection::vec(
                proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), cyclic::INPUTS),
                8..14),
        ) {
            // A quarter of the lanes of every input plane are X.
            let vectors: Vec<Vec<Plane>> = stimulus
                .iter()
                .map(|v| v.iter().map(|&(val, k1, k2)| Plane::new(val, k1 | k2)).collect())
                .collect();
            let c = cyclic::build(&elements, &gates, Wiring::Wild);
            for lanes in [64, 7, 1] {
                agree_with_reference(&c.netlist, &c.inputs, lanes, &vectors);
            }
        }
    }

    /// One random solver cell for [`compiled_cells_settle_as_the_unfolded_relaxation_does`]:
    /// per member an always-on slot or not and a pull, switches
    /// `(a, b, ctl, pmos)` in netlist order (parallel ones and
    /// self-loops included), rail branches and sources, member indices
    /// local and taken modulo the member count.
    #[derive(Debug, Clone)]
    struct CellSpec {
        members: Vec<(bool, Option<Level>)>,
        switches: Vec<(u32, u32, u32, bool)>,
        rails: Vec<(u32, u32, bool, Level)>,
        sources: Vec<(u32, u32, Option<u32>)>,
    }

    /// Planes of the random cells: every member, then [`CTLS`] control
    /// planes, [`DATA`] data planes and one slot per pinned member.
    const CTLS: u32 = 4;
    const DATA: u32 = 4;

    /// Compiles `specs` into one image: folded and paired as
    /// [`BitParSim::new`] does, or with one edge per switch in netlist
    /// order and no pair records — the generic relaxation over the
    /// switch list as the netlist gives it. Returns the image and the
    /// number of planes it reads.
    fn cell_image(specs: &[CellSpec], fold: bool) -> (CellImage, usize) {
        let total: u32 = specs.iter().map(|c| c.members.len() as u32).sum();
        let (ctl0, data0) = (total, total + CTLS);
        let mut next_slot = data0 + DATA;
        let mut cells = CellImage::default();
        let mut first = 0u32;
        for c in specs {
            let m = c.members.len() as u32;
            cells.members.push_row(first..first + m);
            for &(pinned, pull) in &c.members {
                cells.ext_pull.push(pull);
                cells.ext_slot.push(if pinned {
                    next_slot += 1;
                    next_slot - 1
                } else {
                    u32::MAX
                });
            }
            cells
                .rails
                .push_row(c.rails.iter().map(|&(rm, ctl, pmos, level)| RailBranch {
                    m: rm % m,
                    ctl: ctl0 + ctl % CTLS,
                    pmos,
                    level,
                }));
            cells
                .sources
                .push_row(c.sources.iter().map(|&(sm, data, en)| Source {
                    m: sm % m,
                    data: data0 + data % DATA,
                    en: en.map_or(u32::MAX, |e| ctl0 + e % CTLS),
                }));
            let mut switches: Vec<[u32; 3]> = (c.switches.iter())
                .map(|&(a, b, ctl, pmos)| {
                    let (a, b) = (a % m, b % m);
                    [a.min(b), a.max(b), ctl_word(NetId(ctl0 + ctl % CTLS), pmos)]
                })
                .collect();
            if fold {
                cells.push_edges(&mut switches);
            } else {
                let first_ctl = cells.ctls.len() as u32;
                cells
                    .edges
                    .push_row((first_ctl..).zip(&switches).map(|(i, &[a, b, _])| {
                        let feed = false;
                        CellEdge {
                            a,
                            b,
                            ctls: [i, i + 1],
                            feed,
                        }
                    }));
                cells.ctls.extend(switches.iter().map(|s| s[2]));
            }
            first += m;
        }
        if fold {
            cells.find_pairs();
        } else {
            cells.form = vec![GENERAL; specs.len()];
        }
        (cells, next_slot as usize)
    }

    fn level_of(code: u8) -> Level {
        [Level::Zero, Level::One, Level::X][usize::from(code % 3)]
    }

    type CellParts = (
        Vec<(bool, Option<Level>)>,
        Vec<(u32, u32, u32, bool)>,
        Vec<(u32, u32, bool, Level)>,
        Vec<(u32, u32, Option<u32>)>,
    );

    fn cell_parts() -> impl Strategy<Value = CellParts> {
        let pull = (0u8..4).prop_map(|c| (c < 3).then(|| level_of(c)));
        (
            proptest::collection::vec((any::<bool>(), pull), 1..=6),
            proptest::collection::vec((0u32..6, 0u32..6, 0..CTLS, any::<bool>()), 0..=9),
            proptest::collection::vec(
                (0u32..6, 0..CTLS, any::<bool>(), (0u8..3).prop_map(level_of)),
                0..3,
            ),
            proptest::collection::vec(
                (
                    0u32..6,
                    0..DATA,
                    (0..=CTLS).prop_map(|e| (e < CTLS).then_some(e)),
                ),
                0..3,
            ),
        )
    }

    /// A random cell; two in three are pair-shaped: two members and one
    /// to three switches between them. Half of those are bare — one or
    /// two switches, no sources, no rail branches — so they compile to a
    /// [`PairCell`]; the rest keep what was drawn and take the generic
    /// relaxation.
    fn cell_spec() -> impl Strategy<Value = CellSpec> {
        (0u8..3, cell_parts()).prop_map(|(shape, (members, switches, rails, sources))| {
            let mut c = CellSpec {
                members,
                switches,
                rails,
                sources,
            };
            if shape > 0 {
                let most = if shape == 1 { 2 } else { 3 };
                c.members.resize(2, (false, None));
                c.switches
                    .resize(c.switches.len().clamp(1, most), (0, 1, 0, false));
                c.switches.iter_mut().for_each(|s| (s.0, s.1) = (0, 1));
            }
            if shape == 1 {
                c.rails.clear();
                c.sources.clear();
            }
            c
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Order freedom: folding each member pair's switches into one
        /// edge, crossing a pinned member's edges once ahead of the
        /// relaxation and settling pairs in closed form leave every lane
        /// of every member plane, the lanes reported changed, the changed
        /// list and the guard's verdict what the generic relaxation over
        /// the unfolded netlist-order switch list leaves — on random
        /// cells of 1–6 members with up to 9 switches (parallel ones and
        /// self-loops), rail branches, tristate and fighting sources, and
        /// random 64-lane planes (a quarter of the lanes X) under a
        /// random active mask. A second evaluation over the same inputs
        /// moves nothing.
        #[test]
        fn compiled_cells_settle_as_the_unfolded_relaxation_does(
            specs in proptest::collection::vec(cell_spec(), 1..4),
            lanes in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 64),
            active in any::<u64>(),
        ) {
            let (folded, np) = cell_image(&specs, true);
            let (unfolded, _) = cell_image(&specs, false);
            let mut planes = BitPlanes::new(np);
            for (i, &(val, k1, k2)) in lanes.iter().cycle().take(np).enumerate() {
                planes.set(i, Plane::new(val.rotate_left(i as u32), k1 | k2));
            }
            let mut oracle = planes.clone();
            let mut sc = CellScratch::sized_for(&folded);
            let mut sc_oracle = CellScratch::sized_for(&unfolded);
            for ci in 0..specs.len() {
                let d = eval_cell(&folded, ci, &mut planes, &mut sc, active);
                let d_oracle = eval_cell(&unfolded, ci, &mut oracle, &mut sc_oracle, active);
                prop_assert_eq!(d, d_oracle, "cell {}: lanes changed", ci);
                prop_assert_eq!(&sc.changed, &sc_oracle.changed, "cell {}", ci);
                prop_assert_eq!(&planes, &oracle, "cell {}: planes", ci);
                prop_assert_eq!(sc.unconverged, sc_oracle.unconverged, "cell {}", ci);
                prop_assert_eq!(eval_cell(&folded, ci, &mut planes, &mut sc, active), 0);
            }
        }
    }

    /// The closed form against its oracle, exhaustively: every per-lane
    /// combination of two members' drives (four tiers, each at 0, 1 and
    /// X), the edge's state (off, on, unknown control) and both members'
    /// prior levels, packed 64 to a plane. Three half-steps settle each
    /// to what [`relax`] settles it to, and the write-back then keeps
    /// the same charge.
    #[test]
    fn a_pair_cell_settles_in_closed_form_as_the_relaxation_does() {
        let drives: Vec<(u8, u8)> = (0..4).flat_map(|t| (0..3).map(move |l| (t, l))).collect();
        let mut cases = Vec::new();
        for &x in &drives {
            for &y in &drives {
                for edge in 0..3u8 {
                    for prior in 0..9u8 {
                        cases.push((x, y, edge, prior));
                    }
                }
            }
        }
        assert_eq!(cases.len(), 12 * 12 * 3 * 9);
        let set = |d: &mut Drive, lane: u32, (tier, level): (u8, u8)| {
            let bit = 1u64 << lane;
            if tier & 2 != 0 {
                d.s1 |= bit;
            }
            if tier & 1 != 0 {
                d.s0 |= bit;
            }
            if level < 2 {
                d.k |= bit;
            }
            if level == 1 {
                d.v |= bit;
            }
        };
        for word in cases.chunks(64) {
            let (mut x, mut y) = (Drive::default(), Drive::default());
            let (mut maybe, mut unknown) = (0u64, 0u64);
            let mut planes = BitPlanes::new(2);
            for (lane, &(dx, dy, edge, prior)) in (0u32..).zip(word) {
                set(&mut x, lane, dx);
                set(&mut y, lane, dy);
                let bit = 1u64 << lane;
                maybe |= if edge > 0 { bit } else { 0 };
                unknown |= if edge == 2 { bit } else { 0 };
                for (m, code) in [(0, prior % 3), (1, prior / 3)] {
                    let mut p = planes.get(m);
                    match level_of(code) {
                        Level::Zero => p.known |= bit,
                        Level::One => (p.val, p.known) = (p.val | bit, p.known | bit),
                        Level::X => {}
                    }
                    planes.set(m, p);
                }
            }
            let mut closed = [x, y];
            settle_pair(&mut closed, maybe, unknown);
            let mut relaxed = [x, y];
            let live = [LiveEdge {
                a: 0,
                b: 1,
                maybe,
                unknown,
            }];
            assert!(relax(&mut relaxed, &live));
            let (mut after, mut after_oracle) = (planes.clone(), planes);
            let (mut changed, mut changed_oracle) = (Vec::new(), Vec::new());
            let d = write_back(&closed, &[0, 1], &mut after, &mut changed, !0);
            let d_oracle = write_back(
                &relaxed,
                &[0, 1],
                &mut after_oracle,
                &mut changed_oracle,
                !0,
            );
            assert_eq!((d, &changed), (d_oracle, &changed_oracle));
            assert_eq!(after, after_oracle);
        }
    }

    fn adder2() -> Netlist {
        let mut b = NetlistBuilder::new("adder2");
        let a0 = b.input("a0");
        let a1 = b.input("a1");
        let b0 = b.input("b0");
        let b1 = b.input("b1");
        let s0 = b.net("s0");
        b.gate(GateKind::Xor, &[a0, b0], s0, Delay::uniform(1));
        let c0 = b.net("c0");
        b.gate(GateKind::And, &[a0, b0], c0, Delay::uniform(1));
        let x1 = b.net("x1");
        b.gate(GateKind::Xor, &[a1, b1], x1, Delay::uniform(1));
        let s1 = b.net("s1");
        b.gate(GateKind::Xor, &[x1, c0], s1, Delay::uniform(1));
        let t1 = b.net("t1");
        b.gate(GateKind::And, &[a1, b1], t1, Delay::uniform(1));
        let t2 = b.net("t2");
        b.gate(GateKind::And, &[x1, c0], t2, Delay::uniform(1));
        let c1 = b.net("c1");
        b.gate(GateKind::Or, &[t1, t2], c1, Delay::uniform(1));
        b.mark_output(s0);
        b.mark_output(s1);
        b.mark_output(c1);
        b.finish().unwrap()
    }

    #[test]
    fn all_gate_circuit_compiles_fully() {
        let n = adder2();
        let sim = BitParSim::new(&n, 64).unwrap();
        let st = sim.stats();
        assert_eq!(st.compiled_gates, n.num_gates());
        assert_eq!(st.fallback_components, 0);
    }

    #[test]
    fn adder_adds_in_all_lanes_at_once() {
        let n = adder2();
        let mut sim = BitParSim::new(&n, 64).unwrap();
        let net = |s: &str| n.find_net(s).unwrap();
        // Lane i computes i%4 + i/4%4 (16 combinations over 64 lanes).
        let mut a0 = Plane::ALL_X;
        let mut a1 = Plane::ALL_X;
        let mut b0 = Plane::ALL_X;
        let mut b1 = Plane::ALL_X;
        for lane in 0..64 {
            let (a, b) = ((lane % 4) as u32, ((lane / 4) % 4) as u32);
            a0 = a0.with_lane(lane, Level::from_bool(a & 1 == 1));
            a1 = a1.with_lane(lane, Level::from_bool(a >> 1 & 1 == 1));
            b0 = b0.with_lane(lane, Level::from_bool(b & 1 == 1));
            b1 = b1.with_lane(lane, Level::from_bool(b >> 1 & 1 == 1));
        }
        sim.set_input_plane(net("a0"), a0);
        sim.set_input_plane(net("a1"), a1);
        sim.set_input_plane(net("b0"), b0);
        sim.set_input_plane(net("b1"), b1);
        assert!(sim.settle_vector());
        for lane in 0..64 {
            let (a, b) = ((lane % 4) as u32, ((lane / 4) % 4) as u32);
            let mut sum = 0;
            if sim.level(net("s0"), lane) == Level::One {
                sum |= 1;
            }
            if sim.level(net("s1"), lane) == Level::One {
                sum |= 2;
            }
            if sim.level(net("c1"), lane) == Level::One {
                sum |= 4;
            }
            assert_eq!(sum, a + b, "lane {lane}: {a}+{b}");
        }
    }

    #[test]
    fn unknown_inputs_stay_x_per_lane() {
        let n = adder2();
        let mut sim = BitParSim::new(&n, 2).unwrap();
        let net = |s: &str| n.find_net(s).unwrap();
        // Lane 0 known, lane 1 left X.
        for name in ["a0", "a1", "b0", "b1"] {
            sim.set_input_plane(net(name), Plane::ALL_X.with_lane(0, Level::One));
        }
        assert!(sim.settle_vector());
        assert_eq!(sim.level(net("s0"), 0), Level::Zero); // 1+1 -> s0=0
        assert_eq!(sim.level(net("s0"), 1), Level::X);
    }

    #[test]
    fn pass_transistor_mux_compiles_as_solver_cell() {
        // Pass-transistor mux: sel routes a or b to z (nmos pair with
        // complementary controls), plus a compiled inverter. The whole
        // channel sub-group {a, b, z} compiles as one solver cell.
        let mut b = NetlistBuilder::new("ptmux");
        let sel = b.input("sel");
        let sel_n = b.net("sel_n");
        b.gate(GateKind::Not, &[sel], sel_n, Delay::uniform(1));
        let a = b.input("a");
        let bb = b.input("b");
        let z = b.net("z");
        b.switch(SwitchKind::Nmos, sel, a, z);
        b.switch(SwitchKind::Nmos, sel_n, bb, z);
        b.mark_output(z);
        let n = b.finish().unwrap();
        let net = |s: &str| n.find_net(s).unwrap();
        let mut sim = BitParSim::new(&n, 5).unwrap();
        let st = sim.stats();
        assert_eq!(st.compiled_gates, 1, "inverter compiles");
        assert_eq!(st.solver_cells, 1, "one channel sub-group");
        assert_eq!(st.compiled_switches, 2);
        assert_eq!(st.fallback_components, 0, "nothing falls back");
        // Lanes: (a,b,sel) varied per lane; an X select floats both
        // pass gates pessimistically, so z resolves to X.
        let tbl = [
            (Level::One, Level::Zero, Level::One, Level::One),
            (Level::One, Level::Zero, Level::Zero, Level::Zero),
            (Level::Zero, Level::One, Level::One, Level::Zero),
            (Level::Zero, Level::One, Level::Zero, Level::One),
            (Level::One, Level::Zero, Level::X, Level::X),
        ];
        let mut pa = Plane::ALL_X;
        let mut pb = Plane::ALL_X;
        let mut ps = Plane::ALL_X;
        for (lane, &(la, lb, ls, _)) in tbl.iter().enumerate() {
            pa = pa.with_lane(lane, la);
            pb = pb.with_lane(lane, lb);
            ps = ps.with_lane(lane, ls);
        }
        sim.set_input_plane(net("a"), pa);
        sim.set_input_plane(net("b"), pb);
        sim.set_input_plane(net("sel"), ps);
        assert!(sim.settle_vector());
        for (lane, &(_, _, _, want)) in tbl.iter().enumerate() {
            assert_eq!(sim.level(net("z"), lane), want, "lane {lane}");
        }
    }

    #[test]
    fn nmos_inverter_cell_resolves_pull_against_rail() {
        // Depletion-load nMOS inverter: pull-up on y, pulldown switch
        // to gnd. The rail splits off; the cell sees a constant Strong
        // branch that overrides the Resistive pull when conducting.
        let mut b = NetlistBuilder::new("nmos_inv");
        let a = b.input("a");
        let y = b.net("y");
        b.pull(y, Level::One);
        let gnd = b.net("gnd");
        b.supply(gnd, Level::Zero);
        b.switch(SwitchKind::Nmos, a, y, gnd);
        b.mark_output(y);
        let n = b.finish().unwrap();
        let net = |s: &str| n.find_net(s).unwrap();
        let mut sim = BitParSim::new(&n, 3).unwrap();
        let st = sim.stats();
        assert_eq!(st.solver_cells, 1);
        assert_eq!(st.compiled_switches, 1);
        assert_eq!(st.fallback_components, 0);
        let pa = Plane::ALL_X
            .with_lane(0, Level::One)
            .with_lane(1, Level::Zero);
        sim.set_input_plane(net("a"), pa);
        assert!(sim.settle_vector());
        assert_eq!(sim.level(net("y"), 0), Level::Zero, "pulldown on");
        assert_eq!(sim.level(net("y"), 1), Level::One, "pull-up wins");
        assert_eq!(sim.level(net("y"), 2), Level::X, "unknown gate");
    }

    #[test]
    fn dynamic_node_retains_charge_when_pass_gate_closes() {
        // Pass gate into an inverter: with the clock low the storage
        // node floats and must keep its last driven level as trapped
        // charge, exactly like the event engine's charge model.
        let mut b = NetlistBuilder::new("dyn");
        let d = b.input("d");
        let clk = b.input("clk");
        let s = b.net("s");
        b.switch(SwitchKind::Nmos, clk, d, s);
        let q = b.net("q");
        b.gate(GateKind::Not, &[s], q, Delay::uniform(1));
        b.mark_output(q);
        let n = b.finish().unwrap();
        let net = |s: &str| n.find_net(s).unwrap();
        let mut sim = BitParSim::new(&n, 1).unwrap();
        let st = sim.stats();
        assert_eq!(st.solver_cells, 1);
        assert_eq!(st.fallback_components, 0);
        let one = Plane::splat(Level::One);
        let zero = Plane::splat(Level::Zero);
        sim.set_input_plane(net("clk"), one);
        sim.set_input_plane(net("d"), one);
        assert!(sim.settle_vector());
        assert_eq!(sim.level(net("s"), 0), Level::One);
        assert_eq!(sim.level(net("q"), 0), Level::Zero);
        // Clock falls, data flips: the stored charge must hold.
        sim.set_input_plane(net("clk"), zero);
        sim.set_input_plane(net("d"), zero);
        assert!(sim.settle_vector());
        assert_eq!(sim.level(net("s"), 0), Level::One, "charge retained");
        assert_eq!(sim.level(net("q"), 0), Level::Zero);
        // Clock rises again: the new data drives through.
        sim.set_input_plane(net("clk"), one);
        assert!(sim.settle_vector());
        assert_eq!(sim.level(net("s"), 0), Level::Zero);
        assert_eq!(sim.level(net("q"), 0), Level::One);
    }

    #[test]
    fn a_transmission_gate_compiles_to_one_folded_pair_cell() {
        // Two transmission gates from inputs onto storage nodes; the
        // second node also carries a switch from itself to itself,
        // which its driver row lists twice. The first cell is a pair
        // (one edge of two switches), the second is not (a second edge,
        // the self-loop, counted once).
        let mut b = NetlistBuilder::new("tg");
        let clk = b.input("clk");
        let clk_n = b.input("clk_n");
        let (d1, d2) = (b.input("d1"), b.input("d2"));
        let (s1, s2) = (b.net("s1"), b.net("s2"));
        b.transmission_gate(clk, clk_n, d1, s1);
        b.transmission_gate(clk, clk_n, d2, s2);
        b.switch(SwitchKind::Nmos, clk, s2, s2);
        b.mark_output(s1);
        b.mark_output(s2);
        let n = b.finish().unwrap();
        let mut sim = BitParSim::new(&n, 3).unwrap();
        let st = sim.stats();
        assert_eq!((st.solver_cells, st.pair_cells), (2, 1));
        assert_eq!(st.folded_switches, 2, "one switch per transmission gate");
        // Lane 0 conducts, lane 1 is open and keeps its charge, lane 2
        // has an unknown clock and passes the data's tier at level X. In
        // the last vector the p-channel half is off in every lane, and
        // the n-channel half alone decides: the edge conducts where
        // either switch does, and is unknown where either is.
        let (one, zero, x) = (Level::One, Level::Zero, Level::X);
        let lanes = |ls: [Level; 3]| {
            let ls = ls.iter().enumerate();
            ls.fold(Plane::ALL_X, |p, (lane, &l)| p.with_lane(lane, l))
        };
        for (clk_lanes, clk_n_lanes, data, want) in [
            ([one; 3], [zero; 3], one, [one; 3]),
            ([one, zero, x], [zero, one, x], zero, [zero, one, x]),
            ([one, zero, x], [one; 3], one, [one, one, x]),
        ] {
            sim.set_input_plane(clk, lanes(clk_lanes));
            sim.set_input_plane(clk_n, lanes(clk_n_lanes));
            sim.set_input_plane(d1, Plane::splat(data));
            sim.set_input_plane(d2, Plane::splat(data));
            assert!(sim.settle_vector());
            for (lane, &w) in want.iter().enumerate() {
                assert_eq!(
                    (sim.level(s1, lane), sim.level(s2, lane)),
                    (w, w),
                    "lane {lane}"
                );
            }
        }
    }

    #[test]
    fn live_tristate_into_switch_group_is_a_gated_source_of_the_cell() {
        // A live-enable tristate driving into a pass gate: the cell
        // {y, z} reads the tristate's data and enable planes itself, so
        // the tristate costs no op of its own.
        let mut b = NetlistBuilder::new("tri_sw");
        let d = b.input("d");
        let en = b.input("en");
        let y = b.net("y");
        b.gate(GateKind::Tristate, &[d, en], y, Delay::uniform(1));
        let c = b.input("c");
        let z = b.net("z");
        b.switch(SwitchKind::Nmos, c, y, z);
        b.mark_output(z);
        let n = b.finish().unwrap();
        let net = |s: &str| n.find_net(s).unwrap();
        let mut sim = BitParSim::new(&n, 2).unwrap();
        let st = sim.stats();
        assert_eq!(st.solver_cells, 1);
        assert_eq!((st.compiled_gates, st.compiled_switches), (0, 1));
        assert_eq!(st.fallback_components, 0);
        sim.set_input_plane(net("d"), Plane::splat(Level::One));
        sim.set_input_plane(
            net("en"),
            Plane::ALL_X
                .with_lane(0, Level::One)
                .with_lane(1, Level::Zero),
        );
        sim.set_input_plane(net("c"), Plane::splat(Level::One));
        assert!(sim.settle_vector());
        assert_eq!(sim.level(net("z"), 0), Level::One, "driven through");
        assert_eq!(sim.level(net("z"), 1), Level::X, "floating source");
    }

    /// A tiny deterministic generator for the hand-rolled stimulus walks
    /// below (plain LCG; no external RNG).
    struct Lcg(u64);

    impl Lcg {
        fn level(&mut self) -> Level {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            Level::ALL[(self.0 >> 33) as usize % 3]
        }
    }

    /// Walks `n` on this backend at `LANES_WALKED` lanes and on one
    /// [`Simulator`] per lane: vector 0 draws every input from power-up,
    /// each later vector re-draws one input (round robin) over {0, 1, X}
    /// independently per lane, so no vector can race two delays. Every
    /// net must agree in every lane after every vector.
    fn agree_with_event_engine(n: &Netlist, vectors: usize) {
        const LANES_WALKED: usize = 6;
        let inputs = n.inputs();
        let mut sim = BitParSim::new(n, LANES_WALKED).expect("every topology compiles");
        assert_eq!(sim.stats().fallback_components, 0, "{}", n.name());
        let mut serial: Vec<Simulator<'_>> = (0..LANES_WALKED)
            .map(|_| Simulator::new(n).expect("pre-flight"))
            .collect();
        let mut rng = Lcg(0x1987);
        for v in 0..vectors {
            let redrawn = match v {
                0 => inputs,
                _ if inputs.is_empty() => inputs,
                _ => std::slice::from_ref(&inputs[(v - 1) % inputs.len()]),
            };
            for &net in redrawn {
                let mut plane = Plane::ALL_X;
                for (lane, ssim) in serial.iter_mut().enumerate() {
                    let level = rng.level();
                    plane = plane.with_lane(lane, level);
                    ssim.set_input(net, level);
                }
                sim.set_input_plane(net, plane);
            }
            assert!(sim.settle_vector(), "{}: v={v}", n.name());
            for (lane, ssim) in serial.iter_mut().enumerate() {
                let cap = ssim.now() + 1_000;
                assert!(ssim.run_to_quiescence(cap) < cap, "{}: v={v}", n.name());
                for i in 0..n.num_nets() {
                    let net = NetId(i as u32);
                    assert_eq!(
                        sim.level(net, lane),
                        ssim.level(net),
                        "{}: net {} lane {lane} v={v}",
                        n.name(),
                        n.net_name(net)
                    );
                }
            }
        }
    }

    /// The non-switch drivers one net can have.
    #[derive(Debug, Clone, Copy)]
    enum Driver {
        Input,
        Gate,
        /// A tristate with a primary input as its enable.
        TriLive,
        /// A tristate whose enable is the constant `0`, `1` or `X`.
        TriConst(Level),
        Pull(Level),
        Supply(Level),
    }

    const DRIVERS: [Driver; 10] = [
        Driver::Input,
        Driver::Gate,
        Driver::TriLive,
        Driver::TriConst(Level::Zero),
        Driver::TriConst(Level::One),
        Driver::TriConst(Level::X),
        Driver::Pull(Level::Zero),
        Driver::Pull(Level::One),
        Driver::Supply(Level::Zero),
        Driver::Supply(Level::One),
    ];

    #[test]
    fn every_pair_of_drivers_on_one_net_agrees_with_the_event_engine() {
        // Every multiset of at most two drivers on the net `y`, once
        // with no switch on it and once as the terminal of a pass gate
        // onto the storage node `s`; an inverter reads whichever is
        // last. 2 x (1 + 10 + 55) circuits.
        let unit = Delay::uniform(1);
        let mut multisets: Vec<Vec<Driver>> = vec![vec![]];
        for (i, &a) in DRIVERS.iter().enumerate() {
            multisets.push(vec![a]);
            multisets.extend(DRIVERS[i..].iter().map(|&b| vec![a, b]));
        }
        assert_eq!(multisets.len(), 66);
        for drivers in &multisets {
            for pass_gate in [false, true] {
                let mut b = NetlistBuilder::new(format!("{drivers:?} pass_gate={pass_gate}"));
                let y = b.net("y");
                // Constant enables: rails, and two pulls fighting to X.
                let consts = [b.net("k0"), b.net("k1"), b.net("kx")];
                b.supply(consts[0], Level::Zero);
                b.supply(consts[1], Level::One);
                b.pull(consts[2], Level::Zero);
                b.pull(consts[2], Level::One);
                for (i, driver) in drivers.iter().enumerate() {
                    match *driver {
                        Driver::Input => {
                            b.add_component(Component::Input { net: y });
                        }
                        Driver::Gate => {
                            let g = b.input(format!("g{i}"));
                            b.gate(GateKind::Buf, &[g], y, unit);
                        }
                        Driver::TriLive => {
                            let (d, e) = (b.input(format!("d{i}")), b.input(format!("e{i}")));
                            b.gate(GateKind::Tristate, &[d, e], y, unit);
                        }
                        Driver::TriConst(enable) => {
                            let d = b.input(format!("d{i}"));
                            b.gate(GateKind::Tristate, &[d, consts[enable as usize]], y, unit);
                        }
                        Driver::Pull(level) => {
                            b.pull(y, level);
                        }
                        Driver::Supply(level) => {
                            b.supply(y, level);
                        }
                    }
                }
                let mut last = y;
                if pass_gate {
                    let c = b.input("c");
                    last = b.net("s");
                    b.switch(SwitchKind::Nmos, c, y, last);
                }
                // The builder refuses a read net nothing can drive.
                if pass_gate || !drivers.is_empty() {
                    let q = b.net("q");
                    b.gate(GateKind::Not, &[last], q, unit);
                }
                let n = b.finish().expect("valid netlist");
                agree_with_event_engine(&n, 1 + 24 * n.inputs().len().max(1));
            }
        }
    }

    #[test]
    fn degenerate_shapes_compile_and_agree_with_the_event_engine() {
        let unit = Delay::uniform(1);
        // The builder admits neither a netlist without components nor
        // a read net without any driver; these are the nearest shapes.
        // A program with no op at all:
        let mut b = NetlistBuilder::new("no ops");
        b.input("a");
        b.net("unused");
        let n = b.finish().unwrap();
        let st = BitParSim::new(&n, 64).unwrap().stats();
        assert_eq!((st.compiled_gates, st.solver_cells, st.ranks), (0, 0, 0));
        agree_with_event_engine(&n, 8);

        // A switch from a net to itself: the net stays alone in its
        // channel group, so it floats to X when its tristate lets go.
        let mut b = NetlistBuilder::new("a == b");
        let (d, e, c) = (b.input("d"), b.input("e"), b.input("c"));
        let (y, q) = (b.net("y"), b.net("q"));
        b.gate(GateKind::Tristate, &[d, e], y, unit);
        b.switch(SwitchKind::Nmos, c, y, y);
        b.gate(GateKind::Not, &[y], q, unit);
        let n = b.finish().unwrap();
        agree_with_event_engine(&n, 120);

        // A tristate enabled by its own output, alone and on a bus.
        let mut b = NetlistBuilder::new("self-enabled");
        let (d0, d1, e1) = (b.input("d0"), b.input("d1"), b.input("e1"));
        let (y, bus) = (b.net("y"), b.net("bus"));
        b.gate(GateKind::Tristate, &[d0, y], y, unit);
        b.gate(GateKind::Tristate, &[d0, bus], bus, unit);
        b.gate(GateKind::Tristate, &[d1, e1], bus, unit);
        let n = b.finish().unwrap();
        assert_eq!(BitParSim::new(&n, 1).unwrap().stats().feedback_loops, 2);
        agree_with_event_engine(&n, 120);

        // A gate reading a net only switches can drive, from a net
        // nothing drives.
        let mut b = NetlistBuilder::new("undriven");
        let c = b.input("c");
        let (u, v, q) = (b.net("u"), b.net("v"), b.net("q"));
        b.switch(SwitchKind::Nmos, c, u, v);
        b.gate(GateKind::Not, &[v], q, unit);
        let n = b.finish().unwrap();
        agree_with_event_engine(&n, 16);
    }

    #[test]
    fn feedback_latch_compiles_to_loop_and_holds_state() {
        let mut b = NetlistBuilder::new("latch");
        let s = b.input("s_n");
        let r = b.input("r_n");
        let q = b.net("q");
        let qn = b.net("qn");
        b.gate(GateKind::Nand, &[s, qn], q, Delay::uniform(1));
        b.gate(GateKind::Nand, &[r, q], qn, Delay::uniform(1));
        b.mark_output(q);
        let n = b.finish().unwrap();
        let net = |s: &str| n.find_net(s).unwrap();
        let mut sim = BitParSim::new(&n, 2).unwrap();
        assert_eq!(sim.stats().compiled_gates, 2, "latch compiles in-plane");
        assert_eq!(sim.stats().feedback_loops, 1, "one latch cluster");
        assert_eq!(sim.stats().fallback_components, 0);
        // Lane 0: set; lane 1: reset.
        let ps = Plane::ALL_X
            .with_lane(0, Level::Zero)
            .with_lane(1, Level::One);
        let pr = Plane::ALL_X
            .with_lane(0, Level::One)
            .with_lane(1, Level::Zero);
        sim.set_input_plane(net("s_n"), ps);
        sim.set_input_plane(net("r_n"), pr);
        assert!(sim.settle_vector());
        assert_eq!(sim.level(net("q"), 0), Level::One);
        assert_eq!(sim.level(net("q"), 1), Level::Zero);
        // Release both: each lane holds its state.
        sim.set_input_plane(net("s_n"), Plane::splat(Level::One));
        sim.set_input_plane(net("r_n"), Plane::splat(Level::One));
        assert!(sim.settle_vector());
        assert_eq!(sim.level(net("q"), 0), Level::One);
        assert_eq!(sim.level(net("q"), 1), Level::Zero);
    }

    #[test]
    fn oscillating_loop_forces_x_and_reports_unconverged() {
        // A seeded inverter self-loop cannot reach a fixpoint: the
        // cluster loop must hit its bound, force the oscillating lane
        // to X, and report the vector unconverged.
        let mut b = NetlistBuilder::new("osc");
        let x = b.net("x");
        b.gate(GateKind::Not, &[x], x, Delay::uniform(1));
        b.mark_output(x);
        let n = b.finish().unwrap();
        let mut sim = BitParSim::new(&n, 2).unwrap();
        assert_eq!(sim.stats().feedback_loops, 1);
        // Lane 0 seeded to a known level (oscillates); lane 1 left X
        // (X is the loop's fixpoint there).
        sim.set_input_plane(x, Plane::ALL_X.with_lane(0, Level::Zero));
        assert!(!sim.settle_vector());
        assert_eq!(sim.stats().unconverged_vectors, 1);
        assert_eq!(sim.level(x, 0), Level::X);
        assert_eq!(sim.level(x, 1), Level::X);
        // Once forced to X the loop is stable again.
        assert!(sim.settle_vector());
    }

    #[test]
    fn tristate_with_rail_enable_compiles_to_buf() {
        let mut b = NetlistBuilder::new("tri_const");
        let d = b.input("d");
        let en = b.net("en");
        b.supply(en, Level::One);
        let y = b.net("y");
        b.gate(GateKind::Tristate, &[d, en], y, Delay::uniform(1));
        b.mark_output(y);
        let n = b.finish().unwrap();
        let mut sim = BitParSim::new(&n, 1).unwrap();
        assert_eq!(sim.stats().compiled_gates, 1);
        assert_eq!(sim.stats().fallback_components, 0);
        sim.set_input_plane(n.find_net("d").unwrap(), Plane::splat(Level::One));
        assert!(sim.settle_vector());
        assert_eq!(sim.level(n.find_net("y").unwrap(), 0), Level::One);
    }

    #[test]
    fn sole_live_tristate_compiles_to_a_kernel() {
        let mut b = NetlistBuilder::new("tri_live");
        let d = b.input("d");
        let en = b.input("en");
        let y = b.net("y");
        b.gate(GateKind::Tristate, &[d, en], y, Delay::uniform(1));
        b.mark_output(y);
        let n = b.finish().unwrap();
        let net = |s: &str| n.find_net(s).unwrap();
        let mut sim = BitParSim::new(&n, 2).unwrap();
        let st = sim.stats();
        assert_eq!((st.compiled_gates, st.solver_cells), (1, 0));
        assert_eq!(st.fallback_components, 0);
        let pd = Plane::splat(Level::One);
        let pe = Plane::ALL_X
            .with_lane(0, Level::One)
            .with_lane(1, Level::Zero);
        sim.set_input_plane(net("d"), pd);
        sim.set_input_plane(net("en"), pe);
        assert!(sim.settle_vector());
        assert_eq!(sim.level(net("y"), 0), Level::One);
        // Disabled: floating, level X.
        assert_eq!(sim.level(net("y"), 1), Level::X);
    }

    /// Stages `level` on `net` in the single lane of a 1-lane backend.
    fn drive(sim: &mut BitParSim<'_>, net: NetId, level: Level) {
        sim.set_input_plane(net, Plane::splat(level));
    }

    #[test]
    fn one_lane_adder_adds_vector_by_vector() {
        let n = adder2();
        let net = |s: &str| n.find_net(s).unwrap();
        let mut sim = BitParSim::new(&n, 1).unwrap();
        assert_eq!(sim.stats().feedback_loops, 0, "purely combinational");
        assert!(sim.stats().ranks >= 3, "ranks {}", sim.stats().ranks);
        for (a, b) in [(0u32, 0u32), (1, 2), (3, 3), (2, 1)] {
            drive(&mut sim, net("a0"), Level::from_bool(a & 1 == 1));
            drive(&mut sim, net("a1"), Level::from_bool(a >> 1 & 1 == 1));
            drive(&mut sim, net("b0"), Level::from_bool(b & 1 == 1));
            drive(&mut sim, net("b1"), Level::from_bool(b >> 1 & 1 == 1));
            assert!(sim.settle_vector());
            let bit = |s: &str| u32::from(sim.level(net(s), 0) == Level::One);
            assert_eq!(
                bit("s0") | bit("s1") << 1 | bit("c1") << 2,
                a + b,
                "{a}+{b}"
            );
        }
    }

    #[test]
    fn one_lane_gated_ring_is_stable_disabled_and_x_enabled() {
        // A ring oscillator behind an enable: stable while en=0, a bare
        // inverter loop while en=1. The failed settle must force the
        // loop to X and the X must reach ranked logic downstream of it.
        let mut b = NetlistBuilder::new("gated_osc");
        let en = b.input("en");
        let x = b.net("x");
        let y = b.net("y");
        let q = b.net("q");
        b.gate(GateKind::Nand, &[en, x], y, Delay::uniform(1));
        b.gate(GateKind::Buf, &[y], x, Delay::uniform(1));
        b.gate(GateKind::Buf, &[y], q, Delay::uniform(1));
        let n = b.finish().unwrap();
        let mut sim = BitParSim::new(&n, 1).unwrap();
        assert_eq!(sim.stats().feedback_loops, 1);
        drive(&mut sim, en, Level::Zero);
        assert!(sim.settle_vector(), "disabled ring is stable");
        assert_eq!(sim.level(q, 0), Level::One);
        drive(&mut sim, en, Level::One);
        assert!(!sim.settle_vector(), "enabled ring cannot settle");
        assert_eq!(sim.level(q, 0), Level::X, "downstream logic sees the X");
        assert_eq!(sim.stats().unconverged_vectors, 1);
    }

    #[test]
    fn one_lane_gate_latch_holds_through_input_changes() {
        // A transparent D latch from plain gates:
        //   q = (d AND en) OR (q AND NOT en)
        // Transparent while en=1; holds the captured bit while en=0,
        // even as d keeps moving. Every settle must converge.
        let mut b = NetlistBuilder::new("d_latch");
        let d = b.input("d");
        let en = b.input("en");
        let n_en = b.net("n_en");
        let a1 = b.net("a1");
        let a2 = b.net("a2");
        let q = b.net("q");
        b.gate(GateKind::Not, &[en], n_en, Delay::uniform(1));
        b.gate(GateKind::And, &[d, en], a1, Delay::uniform(1));
        b.gate(GateKind::And, &[q, n_en], a2, Delay::uniform(1));
        b.gate(GateKind::Or, &[a1, a2], q, Delay::uniform(1));
        let n = b.finish().unwrap();
        let mut sim = BitParSim::new(&n, 1).unwrap();
        assert_eq!(sim.stats().feedback_loops, 1, "the latch loop is a cluster");
        // Capture a 1, close the latch, then wiggle d: q must hold.
        for (d_level, en_level, want_q) in [
            (Level::One, Level::One, Level::One),
            (Level::One, Level::Zero, Level::One),
            (Level::Zero, Level::Zero, Level::One),
            (Level::Zero, Level::One, Level::Zero),
            (Level::One, Level::Zero, Level::Zero),
        ] {
            drive(&mut sim, d, d_level);
            drive(&mut sim, en, en_level);
            assert!(
                sim.settle_vector(),
                "latch must converge at d={d_level} en={en_level}"
            );
            assert_eq!(sim.level(q, 0), want_q, "d={d_level} en={en_level}");
        }
    }
}
