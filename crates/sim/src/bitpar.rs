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
//! # Hybrid structure
//!
//! Real benchmark circuits are not pure gate DAGs, so [`BitParSim`]
//! splits the netlist:
//!
//! * **Compiled gates** — gates that solely drive a trivially-resolved
//!   net and are not tristates with a live enable. Acyclic gates compile
//!   to a straight-line CSR sweep over the bit planes; gate feedback
//!   loops (latches, flip-flops built from cross-coupled gates) compile
//!   to bounded **fixpoint loops** placed at the cluster's topological
//!   rank — a per-lane Gauss–Seidel iteration over the same branch-free
//!   kernels, each pass evaluating only the members whose inputs moved,
//!   with oscillating lanes forced to X at the bound (the compiled-mode
//!   oscillation detector).
//! * **Compiled switch cells** — channel-connected switch sub-groups
//!   compile to vectorized **solver cells**: the event engine's
//!   monotone (strength, level) join fixpoint
//!   ([`crate::solver`]) re-expressed over bit planes, with a 2-bit
//!   strength tier per lane (`HighZ < Resistive < Weak < Strong`).
//!   Supply rails split the channel graph — nothing propagates
//!   *through* a rail, so a switch to a rail becomes a constant
//!   Strong branch — and strong external drivers (gates, primary
//!   inputs) enter through virtual scratch planes. The cell writes the
//!   resolved member planes, retaining charge on high-impedance lanes,
//!   bit-exactly reproducing the solver's least fixpoint.
//! * **Fallback region** — whatever remains: switch groups fought over
//!   by multiple strong drivers, live tristates, supplies on shared
//!   nets. These are simulated exactly by per-lane instances of the
//!   event-driven [`Simulator`] over a boundary-stitched sub-netlist:
//!   compiled-driven boundary nets enter the sub-circuit as primary
//!   inputs, fallback-driven boundary nets are exported back into the
//!   planes after each quiescence run.
//!
//! A "tick" of the backend is a *vector settle*
//! ([`BitParSim::settle_vector`]): apply one stimulus vector per lane,
//! then alternate compiled sweeps and fallback quiescence runs until
//! the boundary reaches a joint fixpoint. The differential harness
//! (`tests/bitpar_differential.rs`) proves every lane bit-identical to
//! the serial event-driven engine run under the same vector-synchronous
//! protocol.

use crate::engine::{PreflightError, SimConfig, Simulator};
use crate::levelize::levelize_nodes;
use logicsim_netlist::{
    BitPlanes, CompId, Component, Csr, GateKind, Level, NetId, Netlist, NetlistBuilder, Plane,
    Signal, SwitchKind, UnionFind, LANES,
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
    /// A Kleene gate kernel (tristate-with-constant-One enable is
    /// folded to [`GateKind::Buf`]; disabled tristates are elided).
    Gate(GateKind),
    /// Index into [`BitParSim::cells`].
    Cell(u32),
}

/// A member-to-member switch inside a solver cell.
#[derive(Debug, Clone, Copy)]
struct CellEdge {
    /// Local member indices of the channel terminals.
    a: u32,
    b: u32,
    /// Control net plane index.
    ctl: u32,
    /// P-channel polarity (conducts on `0`).
    pmos: bool,
}

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

/// Every compiled channel sub-group ("solver cell") in one flat image,
/// laid out the way [`eval_cell`] walks it (as [`crate::solver`] stores
/// its switch groups): row `c` of each table is cell `c`. A cell is the
/// switch-level solver's monotone (strength, level) join fixpoint,
/// vectorized over lanes. Members are the sub-group's non-rail nets;
/// external drive enters as per-member constants (pulls) or plane reads
/// (strong sources through virtual scratch planes); switches to rails
/// are folded to constant branches.
#[derive(Debug, Default)]
struct CellImage {
    /// Global net indices of the members (ascending). `ext_pull` and
    /// `ext_slot` hold one entry per member, at the positions of
    /// [`Csr::row_range`].
    members: Csr,
    /// Member-member switches, in netlist order.
    edges: Csr<CellEdge>,
    /// Member-rail switches, in netlist order.
    rails: Csr<RailBranch>,
    /// Per-member resistive pull level (statically joined when a net
    /// carries several pulls).
    ext_pull: Vec<Option<Level>>,
    /// Per-member strong external source: the plane index of the
    /// scratch slot its gate or primary input writes (`u32::MAX` when
    /// the member has no strong source).
    ext_slot: Vec<u32>,
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

/// A member-member switch that conducts in some lane of the evaluation
/// in flight, with its conduction masks (see [`conduction`]).
#[derive(Debug, Clone, Copy)]
struct LiveEdge {
    a: u32,
    b: u32,
    /// Lanes not definitely off.
    maybe: u64,
    /// Lanes whose control is unknown: they pass strength, level X.
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

/// The per-lane event-driven fallback: a boundary-stitched sub-netlist
/// simulated exactly by one [`Simulator`] per active lane.
#[derive(Debug)]
struct Fallback {
    /// One event-driven simulator per active lane, each owning a clone
    /// of the sub-netlist.
    sims: Vec<Simulator<'static>>,
    /// Original net index → sub-netlist net (for nets the sub knows).
    net_map: Vec<Option<NetId>>,
    /// Original nets with at least one fallback driver (their truth
    /// lives in the lane simulators, not the planes).
    fb_driven: Vec<bool>,
    /// Boundary *into* the fallback: `(original net index, sub input)`.
    inbound: Vec<(u32, NetId)>,
    /// Boundary *out of* the fallback: fallback-driven nets read by
    /// compiled gates, exported into the planes after each quiescence.
    outbound: Vec<(u32, NetId)>,
    /// Last plane pushed per inbound entry (suppresses redundant
    /// `set_input` calls lane by lane).
    last_applied: BitPlanes,
    /// Per-lane event count at the last outbound pull: a lane whose
    /// simulator processed no events since then cannot have moved any
    /// outbound net, so its lanes are skipped when re-exporting
    /// (`u64::MAX` forces the first pull to read every lane).
    events_at_pull: Vec<u64>,
    /// Number of sub-netlist components (fallback size statistic).
    num_components: usize,
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
    /// Switches consumed by the compiled region (cell edges, rail
    /// branches, and rail-to-rail no-ops).
    pub compiled_switches: usize,
    /// Feedback clusters (gates and/or cells) compiled as in-place
    /// fixpoint loops.
    pub feedback_loops: usize,
    /// Components simulated by the per-lane event-driven fallback.
    pub fallback_components: usize,
    /// Combinational depth (ranks) of the compiled region.
    pub ranks: u32,
    /// Vectors settled so far.
    pub vectors: u64,
    /// Compiled sweeps executed (≥ 1 per vector; more when the
    /// boundary stitching iterates).
    pub sweeps: u64,
    /// Ops evaluated by the sweeps, gates and solver cells alike: one
    /// per op actually run (an op whose inputs did not move is skipped
    /// and not counted), each covering all lanes.
    pub compiled_evals: u64,
    /// Events processed by the fallback simulators, summed over lanes.
    pub fallback_events: u64,
    /// Vectors whose boundary stitching failed to reach a fixpoint
    /// within the iteration bound.
    pub unconverged_vectors: u64,
}

/// Tick budget per fallback quiescence run before the vector is
/// declared unconverged.
const QUIESCE_BOUND: u64 = 10_000;
/// Bound on sweep/quiescence alternations per vector.
const MAX_STITCH_ITERS: u32 = 64;
/// Bound on fixpoint iterations per compiled latch cluster before its
/// oscillating lanes are forced to X.
const MAX_LOOP_ITERS: u32 = 64;

/// The bit-parallel hybrid simulator. See the [module docs](self).
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
    /// identity, except input nets that are members of a compiled cell
    /// stage through their virtual scratch plane (the cell resolves
    /// the member plane itself).
    input_redirect: Vec<u32>,
    /// Number of [`OpKind::Gate`] ops (statistics).
    num_gate_ops: usize,
    /// Switches consumed by the compiled region (statistics).
    compiled_switches: usize,
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
    /// scratch slots for strong sources into compiled cells.
    planes: BitPlanes,
    fallback: Option<Fallback>,
    depth: u32,
    /// Set when a loop hit [`MAX_LOOP_ITERS`] during the current vector.
    loop_overflow: bool,
    vectors: u64,
    sweeps: u64,
    compiled_evals: u64,
    unconverged_vectors: u64,
}

impl<'a> BitParSim<'a> {
    /// Builds the backend.
    ///
    /// # Errors
    ///
    /// Returns [`PreflightError`] if the fallback sub-netlist fails the
    /// event-driven engine's pre-flight (only possible when the source
    /// netlist itself would fail it).
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is not in `1..=64`.
    pub fn new(netlist: &'a Netlist, lanes: usize) -> Result<BitParSim<'a>, PreflightError> {
        assert!(
            (1..=LANES).contains(&lanes),
            "lanes must be 1..=64, got {lanes}"
        );
        let nn = netlist.num_nets();
        let nc = netlist.num_components();

        // Nets driven exclusively by pulls/supplies resolve to a static
        // level; they become constant planes (and constant tristate
        // enables).
        let const_level: Vec<Option<Level>> = (0..nn)
            .map(|i| {
                let ds = netlist.drivers(NetId(i as u32));
                if ds.is_empty() {
                    return None;
                }
                let mut sig: Option<Signal> = None;
                for &d in ds {
                    match netlist.component(d).static_drive() {
                        Some(s) => sig = Some(sig.map_or(s, |acc| acc.resolve(s))),
                        None => return None,
                    }
                }
                sig.map(|s| s.level)
            })
            .collect();

        // Supply rails: every non-switch driver is a Supply. Nothing
        // propagates *through* a Supply-strength net, so rails split
        // the channel graph; switches to a rail become constant Strong
        // branches of the neighbouring sub-group.
        let rail_level: Vec<Option<Level>> = (0..nn)
            .map(|i| {
                let mut lvl: Option<Level> = None;
                for &d in netlist.drivers(NetId(i as u32)) {
                    match netlist.component(d) {
                        Component::Supply { level, .. } => {
                            lvl = Some(lvl.map_or(*level, |a| a.resolve_equal_strength(*level)));
                        }
                        Component::Switch { .. } => {}
                        _ => return None,
                    }
                }
                lvl
            })
            .collect();

        // Channel sub-groups: union-find over switch terminals, rails
        // excluded. Every non-rail net touching a switch channel is a
        // member of exactly one sub-group.
        let mut has_switch = vec![false; nn];
        let mut channel = UnionFind::new(nn);
        for (_id, comp) in netlist.iter() {
            if let Component::Switch { a, b, .. } = comp {
                has_switch[a.index()] = true;
                has_switch[b.index()] = true;
                if rail_level[a.index()].is_none() && rail_level[b.index()].is_none() {
                    channel.union(a.0, b.0);
                }
            }
        }
        // Sub-groups are numbered by their lowest member.
        let mut sub_of = vec![u32::MAX; nn];
        let mut num_subs = 0u32;
        {
            let mut sid_of_root = vec![u32::MAX; nn];
            for i in 0..nn {
                if !has_switch[i] || rail_level[i].is_some() {
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

        // A sub-group compiles when the solver's inputs are statically
        // describable per member: switches (edges/rail branches), pulls
        // (a constant Resistive contribution), and at most one strong
        // source — a primary input or a sole compiled gate. Supplies on
        // a shared member net, live tristates, or strong multi-drive
        // send the whole sub-group to the event-driven fallback.
        let mut sub_ok = vec![true; subs.num_rows()];
        let mut input_strong = vec![false; nn];
        let mut gate_strong = vec![false; nn];
        for (sid, members) in subs.rows().enumerate() {
            'scan: for &m in members {
                let mut strong = 0u32;
                for &d in netlist.drivers(NetId(m)) {
                    match netlist.component(d) {
                        Component::Switch { .. } | Component::Pull { .. } => {}
                        Component::Supply { .. } => {
                            sub_ok[sid] = false;
                            break 'scan;
                        }
                        Component::Input { .. } => {
                            strong += 1;
                            input_strong[m as usize] = true;
                        }
                        Component::Gate { kind, inputs, .. } => {
                            if *kind == GateKind::Tristate {
                                match const_level[inputs[1].index()] {
                                    // Always-on: a plain strong driver.
                                    Some(Level::One) => {
                                        strong += 1;
                                        gate_strong[m as usize] = true;
                                    }
                                    // Always-off: floats, contributes
                                    // nothing (the gate op is elided).
                                    Some(Level::Zero) => {}
                                    // Live or statically-X enable.
                                    Some(Level::X) | None => {
                                        sub_ok[sid] = false;
                                        break 'scan;
                                    }
                                }
                            } else {
                                strong += 1;
                                gate_strong[m as usize] = true;
                            }
                        }
                    }
                }
                if strong > 1 {
                    sub_ok[sid] = false;
                    break 'scan;
                }
            }
        }

        // Virtual scratch planes: each member with a strong source gets
        // a slot at `nn + k`; its gate op (or `set_input_plane`) writes
        // the slot, the cell writes the resolved member plane.
        let mut slot_of_net = vec![u32::MAX; nn];
        let mut n_slots = 0u32;
        for (sid, members) in subs.rows().enumerate() {
            if !sub_ok[sid] {
                continue;
            }
            for &m in members {
                if input_strong[m as usize] || gate_strong[m as usize] {
                    slot_of_net[m as usize] = nn as u32 + n_slots;
                    n_slots += 1;
                }
            }
        }
        let np = nn + n_slots as usize;
        let mut input_redirect: Vec<u32> = (0..nn as u32).collect();
        for i in 0..nn {
            if slot_of_net[i] != u32::MAX && input_strong[i] {
                input_redirect[i] = slot_of_net[i];
            }
        }

        // Build the solver cells: one image row per compiled sub-group.
        let mut cells = CellImage::default();
        let mut cell_of_sub = vec![u32::MAX; subs.num_rows()];
        let mut local_of = vec![u32::MAX; nn];
        for (sid, members) in subs.rows().enumerate() {
            if !sub_ok[sid] {
                continue;
            }
            cell_of_sub[sid] = cells.members.num_rows() as u32;
            for (li, &m) in members.iter().enumerate() {
                local_of[m as usize] = li as u32;
                let mut pull: Option<Level> = None;
                for &d in netlist.drivers(NetId(m)) {
                    if let Component::Pull { level, .. } = netlist.component(d) {
                        pull = Some(pull.map_or(*level, |a| a.resolve_equal_strength(*level)));
                    }
                }
                cells.ext_pull.push(pull);
                cells.ext_slot.push(slot_of_net[m as usize]);
            }
            cells.members.push_row(members.iter().copied());
        }
        let num_cells = cells.members.num_rows();
        // The compiled cell a non-rail switch terminal belongs to.
        let cell_at = |net: usize| {
            let sid = sub_of[net] as usize;
            sub_ok[sid].then(|| cell_of_sub[sid])
        };
        let mut edges: Vec<(u32, CellEdge)> = Vec::new();
        let mut rails: Vec<(u32, RailBranch)> = Vec::new();
        for (_id, comp) in netlist.iter() {
            let Component::Switch {
                kind,
                control,
                a,
                b,
                ..
            } = comp
            else {
                continue;
            };
            let pmos = *kind == SwitchKind::Pmos;
            let (ia, ib) = (a.index(), b.index());
            match (rail_level[ia], rail_level[ib]) {
                // Rail-to-rail: conduction cannot move a Supply net.
                (Some(_), Some(_)) => {}
                (Some(level), None) | (None, Some(level)) => {
                    let m = if rail_level[ia].is_some() { ib } else { ia };
                    if let Some(ci) = cell_at(m) {
                        rails.push((
                            ci,
                            RailBranch {
                                m: local_of[m],
                                ctl: control.0,
                                pmos,
                                level,
                            },
                        ));
                    }
                }
                (None, None) => {
                    if let Some(ci) = cell_at(ia) {
                        edges.push((
                            ci,
                            CellEdge {
                                a: local_of[ia],
                                b: local_of[ib],
                                ctl: control.0,
                                pmos,
                            },
                        ));
                    }
                }
            }
        }
        cells.edges = Csr::bucket(num_cells, || edges.iter().copied());
        cells.rails = Csr::bucket(num_cells, || rails.iter().copied());

        // Classify: switches and their sub-group periphery compile when
        // the sub-group does; gates compile per the old sole-driver
        // rule on trivial nets, or with their sub-group on member nets;
        // everything else that still evaluates falls back.
        let mut fb_comp = vec![false; nc];
        for (id, comp) in netlist.iter() {
            fb_comp[id.index()] = match comp {
                Component::Switch { a, b, .. } => {
                    let sid = if rail_level[a.index()].is_none() {
                        sub_of[a.index()]
                    } else if rail_level[b.index()].is_none() {
                        sub_of[b.index()]
                    } else {
                        u32::MAX
                    };
                    sid != u32::MAX && !sub_ok[sid as usize]
                }
                Component::Gate {
                    kind,
                    inputs,
                    output,
                    ..
                } => {
                    let tri_live =
                        *kind == GateKind::Tristate && const_level[inputs[1].index()].is_none();
                    let o = output.index();
                    if has_switch[o] && rail_level[o].is_none() {
                        !sub_ok[sub_of[o] as usize]
                    } else {
                        netlist.drivers(*output).len() != 1 || tri_live
                    }
                }
                Component::Pull { net, .. } => {
                    let i = net.index();
                    let in_cell =
                        has_switch[i] && rail_level[i].is_none() && sub_ok[sub_of[i] as usize];
                    !in_cell && const_level[i].is_none()
                }
                // Supplies resolved in a second pass (rails follow
                // their attached switches).
                Component::Supply { .. } | Component::Input { .. } => false,
            };
        }
        for (id, comp) in netlist.iter() {
            if let Component::Supply { net, .. } = comp {
                let i = net.index();
                fb_comp[id.index()] = if has_switch[i] {
                    if rail_level[i].is_some() {
                        // A rail joins the fallback iff any attached
                        // switch did (compiled branches fold its level
                        // into the cell as a constant).
                        netlist
                            .drivers(NetId(i as u32))
                            .iter()
                            .any(|&d| netlist.component(d).is_switch() && fb_comp[d.index()])
                    } else {
                        // Supply on a shared member net: the whole
                        // sub-group fell back.
                        true
                    }
                } else {
                    const_level[i].is_none()
                };
            }
        }
        let compiled_switches = netlist
            .iter()
            .filter(|(id, c)| c.is_switch() && !fb_comp[id.index()])
            .count();

        // Node graph: one node per compiled gate op plus one per cell,
        // edges producer → reader over real and virtual planes. The
        // generic levelizer orders it; SCCs (gate latches, ctl-feedback
        // cells, and mixed gate/cell refresh loops) become in-place
        // fixpoint steps at their condensation rank.
        let mut gate_nodes: Vec<CompId> = Vec::new();
        for (id, comp) in netlist.iter() {
            let Component::Gate { kind, inputs, .. } = comp else {
                continue;
            };
            if fb_comp[id.index()] {
                continue;
            }
            // Disabled (or statically-X on a trivial net) tristates are
            // elided: their output plane stays X, nothing to sweep.
            if *kind == GateKind::Tristate && const_level[inputs[1].index()] != Some(Level::One) {
                continue;
            }
            gate_nodes.push(id);
        }
        let ng = gate_nodes.len();
        let n_nodes = ng + num_cells;
        let mut node_reads = Csr::default();
        let mut producer = vec![u32::MAX; np];
        for (ni, &g) in gate_nodes.iter().enumerate() {
            let Component::Gate {
                kind,
                inputs,
                output,
                ..
            } = netlist.component(g)
            else {
                unreachable!("gate node")
            };
            let pins: &[NetId] = if *kind == GateKind::Tristate {
                &inputs[..1]
            } else {
                inputs.as_slice()
            };
            node_reads.push_row(pins.iter().map(|n| n.0));
            let o = output.index();
            let out = if slot_of_net[o] == u32::MAX {
                o as u32
            } else {
                slot_of_net[o]
            };
            producer[out as usize] = ni as u32;
        }
        for ci in 0..num_cells {
            let slots = &cells.ext_slot[cells.members.row_range(ci)];
            let mut reads: Vec<u32> = (cells.edges.row(ci).iter().map(|e| e.ctl))
                .chain(cells.rails.row(ci).iter().map(|r| r.ctl))
                .chain(slots.iter().copied().filter(|&s| s != u32::MAX))
                .collect();
            reads.sort_unstable();
            reads.dedup();
            node_reads.push_row(reads);
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
            if (nid as usize) < ng {
                let g = gate_nodes[nid as usize];
                let Component::Gate { kind, output, .. } = netlist.component(g) else {
                    unreachable!("gate node")
                };
                let kind = if *kind == GateKind::Tristate {
                    GateKind::Buf
                } else {
                    *kind
                };
                let o = output.index();
                let out = if slot_of_net[o] == u32::MAX {
                    o as u32
                } else {
                    slot_of_net[o]
                };
                ops.push(Op {
                    kind: OpKind::Gate(kind),
                    out,
                    in_off,
                    in_len,
                });
            } else {
                ops.push(Op {
                    kind: OpKind::Cell(nid - ng as u32),
                    out: u32::MAX,
                    in_off,
                    in_len,
                });
            }
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
        let num_gate_ops = ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Gate(_)))
            .count();

        // Plane → compiled ops reading it, for pending-op marking when
        // a plane changes.
        let readers = Csr::bucket(np, || {
            (0u32..).zip(&ops).flat_map(|(i, op)| {
                op_inputs[op.in_off as usize..(op.in_off + op.in_len) as usize]
                    .iter()
                    .map(move |&p| (p, i))
            })
        });

        // Constant planes for pull/supply nets and rails.
        let mut planes = BitPlanes::new(np);
        for i in 0..nn {
            if let Some(l) = const_level[i] {
                planes.set(i, Plane::splat(l));
            } else if let Some(l) = rail_level[i] {
                planes.set(i, Plane::splat(l));
            }
        }

        // Real nets read by the compiled region (outbound targets).
        let mut read_by_compiled = vec![false; nn];
        for reads in node_reads.rows() {
            for &p in reads {
                if (p as usize) < nn {
                    read_by_compiled[p as usize] = true;
                }
            }
        }

        let fallback = build_fallback(netlist, &fb_comp, &read_by_compiled, lanes)?;

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
            num_gate_ops,
            compiled_switches,
            steps,
            loops,
            readers,
            planes,
            fallback,
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
    /// An input net that is a member of a compiled switch cell stages
    /// through its virtual scratch plane: the cell resolves the member
    /// plane itself (the input is one Strong contribution among the
    /// sub-group's drivers, exactly as in the event engine).
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    pub fn set_input_plane(&mut self, net: NetId, plane: Plane) {
        let idx = self.input_redirect[net.index()] as usize;
        if self.planes.set(idx, plane.masked(self.active_mask)) {
            self.mark_net(idx);
        }
    }

    /// Marks every compiled op reading `net` pending.
    fn mark_net(&mut self, net: usize) {
        for &r in self.readers.row(net) {
            self.pending.mark(r as usize);
        }
    }

    /// The level of `net` in `lane`.
    ///
    /// For fallback-driven nets this reads the lane's event-driven
    /// simulator (the authoritative state); for compiled, constant, and
    /// stimulus nets it reads the bit planes.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range or `lane >= self.lanes()`.
    #[must_use]
    pub fn level(&self, net: NetId, lane: usize) -> Level {
        assert!(lane < self.lanes, "lane {lane} out of range");
        if let Some(fb) = &self.fallback {
            if fb.fb_driven[net.index()] {
                if let Some(sub) = fb.net_map[net.index()] {
                    return fb.sims[lane].level(sub);
                }
            }
        }
        self.planes.lane(net.index(), lane)
    }

    /// One vector settle: alternate compiled sweeps and per-lane
    /// fallback quiescence runs until the boundary reaches a joint
    /// fixpoint. Returns `false` when the stitch-iteration bound, a
    /// lane's quiescence budget, a cluster's pass bound or a cell's
    /// relaxation guard was exhausted (oscillation).
    pub fn settle_vector(&mut self) -> bool {
        self.settle_with(Self::sweep)
    }

    /// [`BitParSim::settle_vector`] over the given sweep (the tests run
    /// the replaced full-pass sweep through the same protocol).
    fn settle_with(&mut self, sweep: impl Fn(&mut Self)) -> bool {
        self.vectors += 1;
        self.loop_overflow = false;
        let mut converged = false;
        let mut quiesced = true;
        for _iter in 0..MAX_STITCH_ITERS {
            if self.pending.any() {
                sweep(self);
            }
            let pushed = self.push_inbound();
            if pushed == 0 || self.fallback.is_none() {
                converged = true;
                break;
            }
            let fb = self.fallback.as_mut().expect("fallback present");
            for sim in &mut fb.sims {
                let target = sim.now() + QUIESCE_BOUND;
                if sim.run_to_quiescence(target) >= target {
                    quiesced = false;
                }
            }
            self.pull_outbound();
        }
        let ok = converged && quiesced && !self.loop_overflow;
        if !ok {
            self.unconverged_vectors += 1;
        }
        ok
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

    /// Pushes changed inbound boundary planes into the lane simulators;
    /// returns the number of `(net, lane)` applications made.
    fn push_inbound(&mut self) -> u64 {
        let Some(fb) = self.fallback.as_mut() else {
            return 0;
        };
        let mut pushed = 0;
        for (i, &(orig, sub)) in fb.inbound.iter().enumerate() {
            let want = self.planes.get(orig as usize);
            let have = fb.last_applied.get(i);
            let diff = ((want.val ^ have.val) | (want.known ^ have.known)) & self.active_mask;
            if diff == 0 {
                continue;
            }
            fb.last_applied.set(i, want);
            let mut m = diff;
            while m != 0 {
                let lane = m.trailing_zeros() as usize;
                m &= m - 1;
                fb.sims[lane].set_input(sub, want.lane(lane));
                pushed += 1;
            }
        }
        pushed
    }

    /// Exports fallback-driven boundary nets back into the planes.
    ///
    /// Only lanes whose simulator processed events since the last pull
    /// are re-read; the other lanes' bits already sit in the planes
    /// (compiled ops never drive a fallback-driven net, so the plane is
    /// exactly the last export).
    fn pull_outbound(&mut self) {
        let Some(fb) = self.fallback.as_mut() else {
            return;
        };
        let mut changed_lanes = 0u64;
        for (lane, sim) in fb.sims.iter().enumerate() {
            let events = sim.counters().events;
            if events != fb.events_at_pull[lane] {
                fb.events_at_pull[lane] = events;
                changed_lanes |= 1u64 << lane;
            }
        }
        if changed_lanes == 0 {
            return;
        }
        let mut changed_nets: Vec<u32> = Vec::new();
        for &(orig, sub) in &fb.outbound {
            let mut p = self.planes.get(orig as usize);
            let mut m = changed_lanes;
            while m != 0 {
                let lane = m.trailing_zeros() as usize;
                m &= m - 1;
                p = p.with_lane(lane, fb.sims[lane].level(sub));
            }
            if self.planes.set(orig as usize, p) {
                changed_nets.push(orig);
            }
        }
        for n in changed_nets {
            self.mark_net(n as usize);
        }
    }

    /// Aggregate run statistics.
    #[must_use]
    pub fn stats(&self) -> BitParStats {
        BitParStats {
            lanes: self.lanes,
            compiled_gates: self.num_gate_ops,
            solver_cells: self.cells.members.num_rows(),
            compiled_switches: self.compiled_switches,
            feedback_loops: self.loops,
            fallback_components: self.fallback.as_ref().map_or(0, |f| f.num_components),
            ranks: self.depth,
            vectors: self.vectors,
            sweeps: self.sweeps,
            compiled_evals: self.compiled_evals,
            fallback_events: self
                .fallback
                .as_ref()
                .map_or(0, |f| f.sims.iter().map(|s| s.counters().events).sum()),
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
        GateKind::Tristate => unreachable!("live tristates never compile"),
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

/// Evaluates cell `ci` over the planes: initializes each member from
/// its external drive (strong slot, else resistive pull, else
/// high-impedance), folds in the constant rail branches, then relaxes
/// the member-member switch edges to the least fixpoint of the
/// (strength, level) join lattice — the vectorized
/// [`crate::solver::resolve_group_into`]. Members left at `HighZ` keep
/// their previous plane as trapped charge, which makes a second
/// evaluation over unchanged inputs a no-op. Writes the member planes
/// that change in a lane under `active`, records them in `sc.changed`,
/// and returns the lanes where any did.
fn eval_cell(
    cells: &CellImage,
    ci: usize,
    planes: &mut BitPlanes,
    sc: &mut CellScratch,
    active: u64,
) -> u64 {
    let members = cells.members.row(ci);
    let at = cells.members.row_range(ci);
    let drive = &mut sc.drive[..members.len()];
    for ((d, &slot), &pull) in (drive.iter_mut())
        .zip(&cells.ext_slot[at.clone()])
        .zip(&cells.ext_pull[at])
    {
        *d = if slot != u32::MAX {
            let p = planes.get(slot as usize);
            Drive {
                v: p.val,
                k: p.known,
                s1: !0,
                s0: !0,
            }
        } else if let Some(l) = pull {
            let p = Plane::splat(l);
            Drive {
                v: p.val,
                k: p.known,
                s1: 0,
                s0: !0,
            }
        } else {
            Drive::default()
        };
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
    // Conduction is fixed for the whole evaluation (control planes are
    // read, never written, until the write-back below), and an edge
    // that is off in every lane offers `HighZ` to both ends: the join
    // provably moves nothing, so the relaxation never visits it.
    sc.live.clear();
    for e in cells.edges.row(ci) {
        let (on, maybe) = conduction(planes.get(e.ctl as usize), e.pmos);
        if maybe != 0 {
            sc.live.push(LiveEdge {
                a: e.a,
                b: e.b,
                maybe,
                unknown: maybe & !on,
            });
        }
    }
    // Member-member relaxation. The join only ascends a finite lattice
    // (strength tier up, then level known → X), so this terminates; a
    // relaxation that outlives the guard is reported, not trusted.
    let mut guard = 0u32;
    loop {
        let mut moved = false;
        for e in &sc.live {
            for (s, d) in [(e.a, e.b), (e.b, e.a)] {
                let src = drive[s as usize];
                // through_switch on tiers: Strong → Weak, rest as-is.
                let k = src.k & !e.unknown & e.maybe;
                moved |= join(
                    &mut drive[d as usize],
                    Drive {
                        v: src.v & k,
                        k,
                        s1: src.s1 & e.maybe,
                        s0: (src.s0 & !src.s1) & e.maybe,
                    },
                );
            }
        }
        if !moved {
            break;
        }
        guard += 1;
        if guard > 64 * 6 * (members.len() as u32 + 1) {
            sc.unconverged = true;
            break;
        }
    }
    sc.changed.clear();
    let mut diff = 0u64;
    for (d, &g) in drive.iter().zip(members) {
        let g = g as usize;
        let highz = !(d.s1 | d.s0);
        let old = planes.get(g);
        let known = (d.k & !highz) | (old.known & highz);
        let val = ((d.v & !highz) | (old.val & highz)) & known;
        let moved = ((val ^ old.val) | (known ^ old.known)) & active;
        if moved != 0 {
            planes.set(g, Plane { val, known });
            sc.changed.push(g as u32);
            diff |= moved;
        }
    }
    diff
}

/// Builds the boundary-stitched fallback sub-netlist and its per-lane
/// simulators. Returns `None` when everything compiled.
fn build_fallback(
    netlist: &Netlist,
    fb_comp: &[bool],
    read_by_compiled: &[bool],
    lanes: usize,
) -> Result<Option<Fallback>, PreflightError> {
    if !fb_comp.iter().any(|&f| f) {
        return Ok(None);
    }
    let nn = netlist.num_nets();
    let mut needed = vec![false; nn];
    let mut fb_driven = vec![false; nn];
    let mut num_components = 0;
    for (id, comp) in netlist.iter() {
        if !fb_comp[id.index()] {
            continue;
        }
        num_components += 1;
        for n in comp.read_nets() {
            needed[n.index()] = true;
        }
        for n in comp.driven_nets() {
            needed[n.index()] = true;
            fb_driven[n.index()] = true;
        }
    }

    let mut b = NetlistBuilder::new(format!("{}.bitpar-fallback", netlist.name()));
    let mut net_map: Vec<Option<NetId>> = vec![None; nn];
    let mut inbound = Vec::new();
    // A needed net whose value originates outside the fallback region
    // (primary input, compiled gate or cell, constant rail) enters the
    // sub-netlist as a primary input. A compiled *switch* driver only
    // counts when the net is not fallback-driven: a rail shared by
    // compiled and fallback switches keeps its in-sub Supply (a Strong
    // sub-input would wrongly degrade through fallback switches).
    for i in 0..nn {
        if !needed[i] {
            continue;
        }
        let any_external = netlist
            .drivers(NetId(i as u32))
            .iter()
            .any(|&d| !fb_comp[d.index()] && (!netlist.component(d).is_switch() || !fb_driven[i]));
        if any_external {
            let sub = b.input(netlist.net_name(NetId(i as u32)));
            net_map[i] = Some(sub);
            inbound.push((i as u32, sub));
        }
    }
    for i in 0..nn {
        if needed[i] && net_map[i].is_none() {
            net_map[i] = Some(b.net(netlist.net_name(NetId(i as u32))));
        }
    }
    let map = |n: NetId| net_map[n.index()].expect("needed net mapped");
    for (id, comp) in netlist.iter() {
        if !fb_comp[id.index()] {
            continue;
        }
        match comp {
            Component::Gate {
                kind,
                inputs,
                output,
                delay,
            } => {
                let pins: Vec<NetId> = inputs.iter().map(|&n| map(n)).collect();
                b.gate(*kind, &pins, map(*output), *delay);
            }
            Component::Switch {
                kind,
                control,
                a,
                b: bb,
                ..
            } => {
                b.switch(*kind, map(*control), map(*a), map(*bb));
            }
            Component::Pull { net, level } => {
                b.pull(map(*net), *level);
            }
            Component::Supply { net, level } => {
                b.supply(map(*net), *level);
            }
            Component::Input { .. } => unreachable!("inputs never classify as fallback"),
        }
    }
    let sub = b
        .finish()
        .expect("fallback sub-netlist is structurally valid");
    let outbound: Vec<(u32, NetId)> = (0..nn)
        .filter(|&i| fb_driven[i] && read_by_compiled[i])
        .map(|i| (i as u32, net_map[i].expect("boundary net mapped")))
        .collect();
    let mut sims = Vec::with_capacity(lanes);
    for _ in 0..lanes {
        sims.push(Simulator::with_config_owned(
            sub.clone(),
            SimConfig::default(),
        )?);
    }
    let num_inbound = inbound.len();
    Ok(Some(Fallback {
        events_at_pull: vec![u64::MAX; sims.len()],
        sims,
        net_map,
        fb_driven,
        inbound,
        outbound,
        last_applied: BitPlanes::new(num_inbound),
        num_components,
    }))
}

/// The cyclic-circuit generator of this crate's test suites (shared
/// with `tests/proptests.rs`).
#[cfg(test)]
#[path = "../tests/common/cyclic.rs"]
mod cyclic;

#[cfg(test)]
mod tests {
    use super::cyclic::{self, Wiring};
    use super::*;
    use logicsim_netlist::{Delay, SwitchKind};
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
                        for i in start as usize..end as usize {
                            if pending.next(i, i + 1).is_none() {
                                continue;
                            }
                            pending.clear(i);
                            let op = &ops[i];
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
            assert_eq!(n.fallback_events, o.fallback_events, "v={v}");
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
        /// own cell, rings that oscillate and are X-forced, wired into one
        /// another at random — the activity-gated sweep and the full-pass
        /// sweep it replaced leave every plane, every count and every
        /// verdict identical, at every lane width, and the gated one
        /// never evaluates more.
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
    fn live_tristate_into_switch_group_falls_back() {
        // A live-enable tristate driving into a pass gate: the member
        // net has a non-compilable strong source, so the whole
        // sub-group (tristate + switch) runs in the event fallback.
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
        assert_eq!(st.solver_cells, 0);
        assert!(st.fallback_components >= 2, "tristate and switch");
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
    fn live_tristate_falls_back() {
        let mut b = NetlistBuilder::new("tri_live");
        let d = b.input("d");
        let en = b.input("en");
        let y = b.net("y");
        b.gate(GateKind::Tristate, &[d, en], y, Delay::uniform(1));
        b.mark_output(y);
        let n = b.finish().unwrap();
        let net = |s: &str| n.find_net(s).unwrap();
        let mut sim = BitParSim::new(&n, 2).unwrap();
        assert_eq!(sim.stats().compiled_gates, 0);
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
