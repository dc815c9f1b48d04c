//! Tick-synchronous parallel simulation engine: the paper's
//! `UI/GC/Q=P/P/L` machine executed on real threads.
//!
//! [`ParSimulator`] runs the same event-driven semantics as the serial
//! [`Simulator`](crate::Simulator) across `P` threads: the calling
//! thread, which is the *master* (the paper's host processor) and also
//! executes worker party 0, and `P - 1` long-lived worker threads for
//! parties `1..P`. Components are dealt to worker parties by a
//! `logicsim-partition` assignment; each party owns a private
//! [`TimingWheel`] (the paper's per-processor event list) and the
//! per-component state of the components it owns. Every global tick is
//! a bulk-synchronous round — the machine's START/DONE handshake —
//! built from barrier-delimited phases:
//!
//! 1. **Apply**: every party drains its own wheel's current slot and
//!    applies the surviving (non-stale) output changes to its
//!    components.
//! 2. **Exchange/merge**: the master collects each party's affected
//!    nets (the cross-partition net updates; the per-party outbox/inbox
//!    slots are single-producer single-consumer mailboxes between that
//!    worker and the master), resolves ordinary nets, and routes dirty
//!    switch groups and fanout evaluation work back out.
//! 3. **Resolve**/**Eval** rounds: workers settle switch groups and
//!    evaluate fanout components in parallel, scheduling delayed output
//!    changes into their own wheels, until the tick settles exactly as
//!    in the serial engine.
//!
//! # Determinism
//!
//! The parallel engine is *bit-identical* to the serial engine — the
//! golden FNV trace digests pass unchanged for every `P` (see
//! `tests/golden_trace.rs`). The serial engine's behavior depends on
//! scheduling order only through its monotonically increasing sequence
//! counter, and that counter is incremented in a fixed program order:
//! stimulus calls first, then, within each settle round, components in
//! ascending id order. A `Stamp` `(tick, pass, rank)` — scheduling
//! tick, settle pass (stimulus = pass 0), and per-pass rank (call index
//! for stimulus, component id for evaluations) — therefore identifies
//! each schedule event, and lexicographic stamp order *is* serial
//! sequence order. Workers stamp their schedules locally with no
//! coordination; when several parties change drives onto the same net
//! in one tick, the master picks the maximum-stamp cause, which equals
//! the serial engine's last-writer-wins. Inertial descheduling compares
//! stamps for equality only, so it is local to the owning worker.
//!
//! Switch groups are settled in parallel by *coupling cluster*: groups
//! whose resolution can observe each other within a settle pass (a
//! switch in one group controlled by a net of another) are united and
//! always resolved sequentially, in ascending group order, by one
//! party. Cross-cluster resolutions touch disjoint nets, so resolving
//! clusters concurrently and merging the results in group order
//! reproduces the serial pass exactly.
//!
//! Ticks where no party has pending work are fast-forwarded by the
//! master without waking the workers, mirroring the serial engine's
//! cheap idle ticks (and the modeled machine's START/DONE-only cycles).
//! Within an executed tick, a phase in which at most one thread has
//! work skips the handshake as well: the master runs every party's
//! share itself while the workers stay parked (see `Master::phase`).

// The engine drives par_sync's unsafe accessors directly (the phase
// discipline justifying each call is engine-level knowledge, so a
// "safe" wrapper here would only hide the obligation); it is on the
// `cargo xtask lint-unsafe` allowlist and every block carries a SAFETY
// comment. See also DESIGN.md's safety argument.
#![allow(unsafe_code)]

use crate::engine::{
    relax_power_up, EvalKind, Image, PreflightError, SimConfig, StampSet, MAX_SETTLE_ROUNDS,
    OBS_CAPACITY, WHEEL_SIZE,
};
use crate::instrument::{ActivityProfile, WorkloadCounters};
use crate::obs::{self, Phase};
use crate::par_sync::{SharedSlots, SharedVec, SpinBarrier};
use crate::phase_check::{self, PhaseClock};
use crate::solver;
use crate::trace::{EventRecord, TickRecord, TickTrace};
use crate::wheel::TimingWheel;
use logicsim_netlist::{CompId, Component, Level, NetId, Netlist, Signal, UnionFind};
use logicsim_stats::{ParallelWorkload, WorkerLoad};

/// Identifies one schedule event in the serial engine's program order:
/// lexicographic `(tick, pass, rank)` order equals serial sequence
/// order (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Stamp {
    /// Tick at which the schedule call happened.
    tick: u64,
    /// Settle pass within the tick: 0 for stimulus, `p >= 1` for the
    /// `p`-th evaluation pass.
    pass: u32,
    /// Order within the pass: stimulus call index, or component id.
    rank: u32,
}

const STAMP_ZERO: Stamp = Stamp {
    tick: 0,
    pass: 0,
    rank: 0,
};

/// A scheduled output change in a party's wheel (the parallel analog of
/// the serial engine's `Change`, with the stamp playing the `seq` role).
#[derive(Debug, Clone, Copy)]
struct PChange {
    comp: u32,
    drive: Signal,
    stamp: Stamp,
}

/// Phase command published by the master before releasing the barrier.
#[derive(Debug, Clone, Copy)]
enum Cmd {
    /// Drain the party's current wheel slot and apply changes.
    Apply {
        /// Current tick (observation label only).
        tick: u64,
    },
    /// Resolve the switch groups in the party's inbox.
    Resolve {
        /// Current tick (observation label only).
        tick: u64,
    },
    /// Evaluate the fanout components in the party's inbox; stamps are
    /// `(tick, pass, component id)`.
    Eval { tick: u64, pass: u32 },
    /// Terminate the worker loop.
    Exit,
}

/// Per-party mailbox and scratch state. Each slot is owned by its party
/// during worker phases and by the master between phases (the
/// single-producer single-consumer discipline of a mailbox pair).
#[derive(Debug)]
struct PartyState {
    /// This party's event list.
    wheel: TimingWheel<PChange>,
    /// Changes popped this tick (scratch).
    changes: Vec<PChange>,
    /// Outbox: number of entries popped from the wheel this tick.
    popped: u64,
    /// Outbox: applied output changes as `(net, comp, stamp)`.
    affected: Vec<(u32, u32, Stamp)>,
    /// Inbox: switch groups to resolve, ascending.
    gids: Vec<u32>,
    /// Outbox: nets whose value changed during resolution, as
    /// `(group, net)` in resolution order.
    resolved: Vec<(u32, u32)>,
    /// Inbox: components to evaluate, ascending.
    eval_comps: Vec<u32>,
    /// Outbox: number of changes scheduled into the wheel this pass.
    scheduled: u64,
    /// Outbox: evaluations performed this pass.
    evaluations: u64,
    /// Outbox: switch groups marked dirty by this pass's evaluations.
    dirty: Vec<u32>,
    /// Scratch: gate input levels.
    levels: Vec<Level>,
    /// Scratch: one group resolution's output.
    group_out: Vec<(NetId, Signal)>,
    /// Scratch: switch-solver buffers.
    solver: solver::Scratch,
    /// Per-party phase recorder. Written only by the owning party
    /// during its phase (the slot discipline covers it), so recording
    /// takes no locks.
    obs: obs::Lane,
}

impl PartyState {
    fn new(obs: obs::Lane) -> PartyState {
        PartyState {
            wheel: TimingWheel::new(WHEEL_SIZE),
            changes: Vec::new(),
            popped: 0,
            affected: Vec::new(),
            gids: Vec::new(),
            resolved: Vec::new(),
            eval_comps: Vec::new(),
            scheduled: 0,
            evaluations: 0,
            dirty: Vec::new(),
            levels: Vec::new(),
            group_out: Vec::new(),
            solver: solver::Scratch::default(),
            obs,
        }
    }
}

/// State shared (read-only or phase-disciplined) between the master and
/// the workers.
struct Core<'a> {
    netlist: &'a Netlist,
    img: Image,
    config: SimConfig,
    /// Number of evaluator workers `P`. Party indices `0..workers` are
    /// workers; index `workers` is the master's own party (inputs,
    /// pulls, rails, and any unassigned component). Party `k >= 1` runs
    /// on worker thread `k`; parties 0 and `workers` run on the calling
    /// thread.
    workers: usize,
    /// Partition id per component (`u32::MAX` = unassigned).
    assignment: Vec<u32>,
    /// Owning party per component.
    owner: Vec<u32>,
    /// Owning party per switch group's coupling cluster (`u32::MAX` for
    /// trivial groups, which the master resolves as ordinary nets).
    group_owner: Vec<u32>,
    /// Resolved value of every net.
    net_values: SharedVec<Signal>,
    /// Output drive per component (written only by the owner).
    comp_drive: SharedVec<Signal>,
    /// Last scheduled drive per component (owner only).
    last_scheduled: SharedVec<Signal>,
    /// Outstanding schedule stamp per component (owner only).
    pending: SharedVec<Option<Stamp>>,
    /// Per-party mailboxes, wheels, and scratch.
    parties: SharedSlots<PartyState>,
    /// The current phase command (single slot).
    cmd: SharedSlots<Cmd>,
    /// Phase barrier over the `workers` threads.
    barrier: SpinBarrier,
    /// Phase clock shared with the barrier and (under `phase-check`)
    /// every recorder; the master bumps it after a run's workers join
    /// so between-run accesses get their own phase.
    clock: PhaseClock,
}

impl Core<'_> {
    fn num_parties(&self) -> usize {
        self.parties.len()
    }

    /// External (non-switch) drive on a net from the shared drive array.
    ///
    /// # Safety
    ///
    /// No party may be writing `comp_drive` entries of the net's
    /// drivers in the current phase.
    #[inline]
    unsafe fn external_drive(&self, net: NetId) -> Signal {
        let mut v = Signal::FLOATING;
        for &d in self.img.ext_drivers.row(net.index()) {
            // SAFETY: forwards this method's own contract — no party
            // writes these `comp_drive` entries in the current phase.
            v = v.resolve(unsafe { self.comp_drive.get(d as usize) });
        }
        v
    }
}

/// Master-only bookkeeping (never touched by workers).
struct Master {
    now: u64,
    /// Arithmetic mirror of the serial engine's `wheel.len()`: total
    /// entries (including stale ones) across all party wheels.
    pending_total: u64,
    /// Tick of the last stimulus call, for per-tick rank reset.
    input_tick: u64,
    /// Rank of the next stimulus call within `input_tick`.
    input_rank: u32,
    /// True between a phase's release and join barrier (for panic-safe
    /// worker shutdown).
    in_phase: bool,
    counters: WorkloadCounters,
    activity: ActivityProfile,
    trace: TickTrace,
    /// Affected nets merged across parties this tick.
    affected: StampSet,
    /// Winning cause per affected net (maximum stamp).
    affected_cause: Vec<u32>,
    affected_stamp: Vec<Stamp>,
    /// Dirty switch groups for the next resolve round.
    dirty: StampSet,
    /// Fanout components to evaluate this round.
    to_eval: StampSet,
    /// Nets whose value changed, with causes, in serial event order.
    changed_nets: Vec<(u32, u32)>,
    /// Merge buffer for per-party resolution outputs.
    merged: Vec<(u32, u32)>,
    /// Per-party did-work flags for the current tick.
    worked: Vec<bool>,
    /// Per-party load counters (last entry = master party).
    loads: Vec<WorkerLoad>,
    /// Messages between assigned components on different partitions.
    crossing: u64,
    /// Messages between assigned components (any partitions).
    component_msgs: u64,
    /// Master-control recorder (START fan-out, exchange/merge, DONE
    /// collection, barrier wait); master-only, never shared.
    obs: obs::Lane,
    #[cfg(test)]
    tally: Tally,
}

/// What the unit tests pin about the thread model: threads spawned by
/// `run_with`, and phases run with and without the handshake.
#[cfg(test)]
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Tally {
    spawned: usize,
    handshakes: u64,
    inline_phases: u64,
}

impl Master {
    fn new(
        num_nets: usize,
        num_comps: usize,
        num_groups: usize,
        num_parties: usize,
        obs: obs::Lane,
    ) -> Master {
        Master {
            now: 0,
            pending_total: 0,
            input_tick: 0,
            input_rank: 0,
            in_phase: false,
            counters: WorkloadCounters::new(),
            activity: ActivityProfile::new(num_comps),
            trace: TickTrace::new(),
            affected: StampSet::with_capacity(num_nets),
            affected_cause: vec![0; num_nets],
            affected_stamp: vec![STAMP_ZERO; num_nets],
            dirty: StampSet::with_capacity(num_groups),
            to_eval: StampSet::with_capacity(num_comps),
            changed_nets: Vec::new(),
            merged: Vec::new(),
            worked: vec![false; num_parties],
            loads: vec![WorkerLoad::default(); num_parties],
            crossing: 0,
            component_msgs: 0,
            obs,
            #[cfg(test)]
            tally: Tally::default(),
        }
    }

    /// Runs one phase of the protocol: every party executes `cmd` on
    /// its own slot.
    ///
    /// When two or more threads have work, the phase is
    /// barrier-delimited: publish `cmd`, release the workers, do the
    /// calling thread's shares (party 0 and the master party), and
    /// join. When at most one thread has work, a handshake would buy no
    /// parallelism, so the master runs every party's share itself while
    /// the workers stay parked at the release barrier — the same
    /// footing on which it touches their slots between phases.
    ///
    /// Observation: `Start` times the command publish through the
    /// release-barrier crossing (the machine's START fan-out);
    /// `Barrier` times the join wait after the calling thread's own
    /// shares — how long the slowest worker straggles past it. A phase
    /// without a handshake records neither.
    fn phase(&mut self, core: &Core<'_>, cmd: Cmd) {
        if threads_with_work(core, cmd) <= 1 {
            for party in 0..core.num_parties() {
                run_party_cmd(core, party, cmd);
            }
            #[cfg(test)]
            {
                self.tally.inline_phases += 1;
            }
            return;
        }
        let m = self.obs.mark();
        // SAFETY: workers are parked at the barrier, so the master is
        // the unique accessor of the command slot.
        unsafe {
            *core.cmd.get_mut(0) = cmd;
        }
        self.in_phase = true;
        core.barrier.wait();
        self.obs
            .rec(Phase::Start, self.now, m, core.num_parties() as u64);
        run_party_cmd(core, 0, cmd);
        run_party_cmd(core, core.workers, cmd);
        let m = self.obs.mark();
        core.barrier.wait();
        self.obs.rec(Phase::Barrier, self.now, m, 0);
        self.in_phase = false;
        #[cfg(test)]
        {
            self.tally.handshakes += 1;
        }
    }

    /// Releases the workers with [`Cmd::Exit`], completing any join the
    /// workers are still waiting on first (panic-safe).
    fn shutdown(&mut self, core: &Core<'_>) {
        if self.in_phase {
            core.barrier.wait();
            self.in_phase = false;
        }
        // SAFETY: workers are parked at the barrier.
        unsafe {
            *core.cmd.get_mut(0) = Cmd::Exit;
        }
        core.barrier.wait();
    }

    fn run(
        &mut self,
        core: &Core<'_>,
        until: u64,
        stim: &mut dyn FnMut(u64, &mut InputFrame<'_, '_>),
    ) {
        while self.now < until {
            let t = self.now;
            stim(t, &mut InputFrame { core, m: self });

            // Event-list occupancy at the tick boundary, after stimulus
            // (matching the serial measurement loop's order).
            let pending = self.pending_total;
            self.counters.event_list_peak = self.counters.event_list_peak.max(pending);
            self.counters.event_list_sum += pending;

            // Fast-forward ticks where no wheel has work: the full
            // protocol would pop nothing and settle immediately.
            // SAFETY: workers are parked at the barrier between phases.
            let has_work = (0..core.num_parties())
                .any(|p| unsafe { core.parties.get_mut(p) }.wheel.has_current());
            if has_work {
                self.execute_tick(core, t);
            } else {
                self.counters.idle_ticks += 1;
                for load in &mut self.loads {
                    load.idle_ticks += 1;
                }
            }
            for p in 0..core.num_parties() {
                // SAFETY: workers parked; master advances every wheel.
                unsafe { core.parties.get_mut(p) }.wheel.advance();
            }
            self.now += 1;
            self.trace.end = self.now;
        }
    }

    /// Executes one busy-candidate tick through the full phase protocol.
    /// All `core.parties` accesses here happen between phases, while
    /// the workers are parked at the barrier.
    // The phase protocol reads as one unit; splitting it would scatter
    // the barrier choreography across helpers.
    #[allow(clippy::too_many_lines)]
    fn execute_tick(&mut self, core: &Core<'_>, t: u64) {
        let np = core.num_parties();
        for w in &mut self.worked {
            *w = false;
        }

        // Phase 1: every party drains and applies its own wheel slot.
        self.phase(core, Cmd::Apply { tick: t });

        // Merge affected nets; maximum stamp wins = serial
        // last-writer-wins application order.
        let mut m = self.obs.mark();
        let mut popped_sum = 0u64;
        self.affected.clear();
        for p in 0..np {
            // SAFETY: workers parked (see method docs).
            let st = unsafe { core.parties.get_mut(p) };
            self.pending_total -= st.popped;
            popped_sum += st.popped;
            if !st.affected.is_empty() {
                self.worked[p] = true;
            }
            for &(net, comp, stamp) in &st.affected {
                if !self.affected.contains(net) || stamp > self.affected_stamp[net as usize] {
                    self.affected_cause[net as usize] = comp;
                    self.affected_stamp[net as usize] = stamp;
                }
                self.affected.insert(net);
            }
        }
        m = self.obs.rec(Phase::Done, t, m, popped_sum);

        // Route affected nets: ordinary nets are resolved by the master
        // right here (in ascending net order, as the serial engine
        // does); nets in nontrivial switch groups mark the group dirty.
        self.dirty.clear();
        self.changed_nets.clear();
        for &net_idx in self.affected.sorted() {
            let cause = self.affected_cause[net_idx as usize];
            let gid = core.img.groups.group_of(NetId(net_idx));
            if core.img.group_nontrivial[gid as usize] {
                self.dirty.insert(gid);
            } else {
                // SAFETY: workers parked; master is the unique accessor.
                unsafe {
                    let v = core.external_drive(NetId(net_idx));
                    if core.net_values.get(net_idx as usize) != v {
                        core.net_values.set(net_idx as usize, v);
                        self.changed_nets.push((net_idx, cause));
                    }
                }
            }
        }
        self.obs.rec(Phase::Exchange, t, m, 0);

        let mut rounds = 0u32;
        let mut pass = 0u32;
        let mut events_this_tick = 0u64;
        let mut events: Vec<EventRecord> = Vec::new();
        loop {
            if !self.dirty.is_empty() {
                // Distribute dirty groups to their cluster owners and
                // settle them in parallel.
                let m = self.obs.mark();
                for p in 0..np {
                    // SAFETY: workers parked.
                    unsafe { core.parties.get_mut(p) }.gids.clear();
                }
                for &gid in self.dirty.sorted() {
                    let owner = core.group_owner[gid as usize] as usize;
                    // SAFETY: workers parked.
                    unsafe { core.parties.get_mut(owner) }.gids.push(gid);
                }
                self.dirty.clear();
                self.obs.rec(Phase::Exchange, t, m, 0);
                self.phase(core, Cmd::Resolve { tick: t });
                // Merge per-party results back into ascending group
                // order. Each group has exactly one owner, so a stable
                // sort by group reproduces the serial resolution order
                // (ascending group, member order within a group).
                let m = self.obs.mark();
                self.merged.clear();
                for p in 0..np {
                    // SAFETY: workers parked.
                    let st = unsafe { core.parties.get_mut(p) };
                    let n = st.gids.len() as u64;
                    if n > 0 {
                        self.worked[p] = true;
                    }
                    self.counters.group_resolutions += n;
                    self.loads[p].group_resolutions += n;
                    self.merged.extend_from_slice(&st.resolved);
                }
                self.merged.sort_by_key(|&(gid, _)| gid);
                for i in 0..self.merged.len() {
                    let (_, net) = self.merged[i];
                    let cause = core.img.net_attr[net as usize];
                    self.changed_nets.push((net, cause));
                }
                self.obs.rec(Phase::Done, t, m, self.merged.len() as u64);
            }
            if self.changed_nets.is_empty() {
                break;
            }

            // Record events in serial order; build the evaluation
            // worklist; count partition-crossing messages.
            let mut m = self.obs.mark();
            let messages_before = self.counters.messages_inf;
            self.to_eval.clear();
            for &(net, cause) in &self.changed_nets {
                self.counters.events += 1;
                events_this_tick += 1;
                self.activity.record(cause as usize);
                let fanout = core.netlist.fanout(NetId(net));
                self.counters.messages_inf += fanout.len() as u64;
                if core.config.collect_trace {
                    events.push(EventRecord {
                        source: cause,
                        dests: fanout.iter().map(|f| f.0).collect(),
                    });
                }
                let pc = core.assignment[cause as usize];
                for &CompId(f) in fanout {
                    self.to_eval.insert(f);
                    let pf = core.assignment[f as usize];
                    // Self-messages (feedback into the producing
                    // component) stay processor-local under every
                    // assignment, so they are excluded from the Eq. 6
                    // base as well as from the crossing count.
                    if pc != u32::MAX && pf != u32::MAX && cause != f {
                        self.component_msgs += 1;
                        if pc != pf {
                            self.crossing += 1;
                            self.loads[pc as usize % core.workers].messages_sent += 1;
                        }
                    }
                }
            }
            self.changed_nets.clear();
            m = self.obs.rec(
                Phase::Exchange,
                t,
                m,
                self.counters.messages_inf - messages_before,
            );

            // Evaluate fanout components in parallel, each by its owner
            // in ascending id order (= serial evaluation order).
            pass += 1;
            for p in 0..np {
                // SAFETY: workers parked.
                unsafe { core.parties.get_mut(p) }.eval_comps.clear();
            }
            for &ci in self.to_eval.sorted() {
                let owner = core.owner[ci as usize] as usize;
                // SAFETY: workers parked.
                unsafe { core.parties.get_mut(owner) }.eval_comps.push(ci);
            }
            self.obs.rec(Phase::Exchange, t, m, 0);
            self.phase(core, Cmd::Eval { tick: t, pass });
            let m = self.obs.mark();
            for p in 0..np {
                // SAFETY: workers parked.
                let st = unsafe { core.parties.get_mut(p) };
                self.pending_total += st.scheduled;
                self.counters.evaluations += st.evaluations;
                self.loads[p].evaluations += st.evaluations;
                if st.evaluations > 0 {
                    self.worked[p] = true;
                }
                for &g in &st.dirty {
                    self.dirty.insert(g);
                }
            }
            self.obs.rec(Phase::Done, t, m, 0);

            if self.dirty.is_empty() {
                break;
            }
            rounds += 1;
            if rounds >= MAX_SETTLE_ROUNDS {
                self.counters.relaxation_overflows += 1;
                break;
            }
        }

        if events_this_tick > 0 {
            self.counters.busy_ticks += 1;
            if core.config.collect_trace {
                self.trace.ticks.push(TickRecord { tick: t, events });
            }
        } else {
            self.counters.idle_ticks += 1;
        }
        for p in 0..np {
            if self.worked[p] {
                self.loads[p].busy_ticks += 1;
            } else {
                self.loads[p].idle_ticks += 1;
            }
        }
    }
}

/// Stimulus handle passed to the [`ParSimulator::run_with`] callback
/// once per tick, before the tick executes.
pub struct InputFrame<'f, 'a> {
    core: &'f Core<'a>,
    m: &'f mut Master,
}

impl InputFrame<'_, '_> {
    /// Drives a primary input to `level` at the current tick.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not a primary input.
    pub fn set(&mut self, net: NetId, level: Level) {
        set_input_inner(self.core, self.m, net, level);
    }
}

/// Inertial input scheduling, mirroring the serial `set_input` +
/// `schedule_change`. Only called while no worker threads are active
/// (outside `run`, or between phases during the stimulus callback).
fn set_input_inner(core: &Core<'_>, m: &mut Master, net: NetId, level: Level) {
    let comp = core.img.input_comp[net.index()] as usize;
    assert!(comp != u32::MAX as usize, "{net} is not a primary input");
    if m.input_tick != m.now {
        m.input_tick = m.now;
        m.input_rank = 0;
    }
    let stamp = Stamp {
        tick: m.now,
        pass: 0,
        rank: m.input_rank,
    };
    m.input_rank += 1;
    let drive = Signal::strong(level);
    // SAFETY: no workers are running; the master is the unique accessor.
    unsafe {
        if core.last_scheduled.get(comp) == drive {
            return;
        }
        core.last_scheduled.set(comp, drive);
        if drive == core.comp_drive.get(comp) {
            core.pending.set(comp, None);
            return;
        }
        core.pending.set(comp, Some(stamp));
        let party = core.owner[comp] as usize;
        core.parties.get_mut(party).wheel.schedule(
            m.now,
            PChange {
                comp: comp as u32,
                drive,
                stamp,
            },
        );
    }
    m.pending_total += 1;
}

/// Number of threads that have something to do in the phase `cmd`
/// opens: a non-empty current wheel slot for Apply, a non-empty inbox
/// for Resolve and Eval. Parties 0 and `workers` share the calling
/// thread. Only called by the master between phases, while the workers
/// are parked at the barrier.
fn threads_with_work(core: &Core<'_>, cmd: Cmd) -> usize {
    let has_work = |party: usize| {
        // SAFETY: workers parked; nobody writes the slot.
        let st = unsafe { core.parties.get(party) };
        match cmd {
            Cmd::Apply { .. } => st.wheel.has_current(),
            Cmd::Resolve { .. } => !st.gids.is_empty(),
            Cmd::Eval { .. } => !st.eval_comps.is_empty(),
            Cmd::Exit => false,
        }
    };
    usize::from(has_work(0) || has_work(core.workers))
        + (1..core.workers).filter(|&p| has_work(p)).count()
}

/// Dispatches one phase command for one party.
fn run_party_cmd(core: &Core<'_>, party: usize, cmd: Cmd) {
    match cmd {
        Cmd::Apply { tick } => party_apply(core, party, tick),
        Cmd::Resolve { tick } => party_resolve(core, party, tick),
        Cmd::Eval { tick, pass } => party_eval(core, party, tick, pass),
        Cmd::Exit => {}
    }
}

/// Apply phase: drain the party's wheel slot, apply surviving changes
/// to owned components, and report affected nets.
fn party_apply(core: &Core<'_>, party: usize, tick: u64) {
    // SAFETY: this party is the unique accessor of its slot during a
    // worker phase; `pending`/`comp_drive` entries touched here belong
    // to components this party owns (only owners schedule a component).
    let st = unsafe { core.parties.get_mut(party) };
    let m = st.obs.mark();
    st.changes.clear();
    st.wheel.pop_current_into(&mut st.changes);
    st.popped = st.changes.len() as u64;
    st.affected.clear();
    for &PChange { comp, drive, stamp } in &st.changes {
        let ci = comp as usize;
        // SAFETY: see above.
        unsafe {
            if core.pending.get(ci) != Some(stamp) {
                continue; // descheduled (the inertial filter)
            }
            core.pending.set(ci, None);
            if core.comp_drive.get(ci) == drive {
                continue;
            }
            core.comp_drive.set(ci, drive);
        }
        if let Some(net) = core.img.comp_out[ci] {
            st.affected.push((net.0, comp, stamp));
        }
    }
    st.obs.rec(Phase::Apply, tick, m, st.popped);
}

/// Resolve phase: settle the switch groups assigned to this party, in
/// ascending group order, writing member-net values.
fn party_resolve(core: &Core<'_>, party: usize, tick: u64) {
    // SAFETY: unique slot access during a worker phase. Net reads and
    // writes stay inside this party's coupling clusters (or read nets
    // no party writes this phase); `comp_drive` is stable during
    // resolution.
    let st = unsafe { core.parties.get_mut(party) };
    let m = if st.gids.is_empty() {
        obs::Mark::none()
    } else {
        st.obs.mark()
    };
    st.resolved.clear();
    for &gid in &st.gids {
        st.group_out.clear();
        core.img.solver.resolve_into(
            &core.img.groups,
            gid,
            &mut st.solver,
            // SAFETY: see above.
            |net| unsafe { core.external_drive(net) },
            |net| unsafe { core.net_values.get(net.index()) }.level,
            |net| unsafe { core.net_values.get(net.index()) }.level,
            &mut st.group_out,
        );
        for &(net, v) in &st.group_out {
            // SAFETY: member nets belong to this party's cluster.
            unsafe {
                if core.net_values.get(net.index()) != v {
                    core.net_values.set(net.index(), v);
                    st.resolved.push((gid, net.0));
                }
            }
        }
    }
    let groups = st.gids.len() as u64;
    st.obs.rec(Phase::Resolve, tick, m, groups);
}

/// Eval phase: evaluate the fanout components assigned to this party
/// (ascending id order), scheduling delayed output changes into the
/// party's own wheel.
fn party_eval(core: &Core<'_>, party: usize, tick: u64, pass: u32) {
    // SAFETY: unique slot access during a worker phase; `net_values` is
    // read-only in this phase; per-component state touched here belongs
    // to owned components.
    let st = unsafe { core.parties.get_mut(party) };
    let m = if st.eval_comps.is_empty() {
        obs::Mark::none()
    } else {
        st.obs.mark()
    };
    st.scheduled = 0;
    st.evaluations = 0;
    st.dirty.clear();
    for &ci in &st.eval_comps {
        match core.img.eval[ci as usize] {
            EvalKind::Gate { kind, delay } => {
                st.evaluations += 1;
                st.levels.clear();
                st.levels.extend(
                    core.img
                        .gate_inputs
                        .row(ci as usize)
                        .iter()
                        // SAFETY: see above.
                        .map(|&n| unsafe { core.net_values.get(n as usize) }.level),
                );
                let out = kind.evaluate(&st.levels);
                let d = u64::from(delay.for_transition(out.level));
                // Inertial scheduling, mirroring `schedule_change`.
                // SAFETY: `ci` is owned by this party.
                unsafe {
                    if core.last_scheduled.get(ci as usize) != out {
                        core.last_scheduled.set(ci as usize, out);
                        if out == core.comp_drive.get(ci as usize) {
                            core.pending.set(ci as usize, None);
                        } else {
                            let stamp = Stamp {
                                tick,
                                pass,
                                rank: ci,
                            };
                            core.pending.set(ci as usize, Some(stamp));
                            st.wheel.schedule(
                                tick + d,
                                PChange {
                                    comp: ci,
                                    drive: out,
                                    stamp,
                                },
                            );
                            st.scheduled += 1;
                        }
                    }
                }
            }
            EvalKind::Switch { group } => {
                st.evaluations += 1;
                st.dirty.push(group);
            }
            EvalKind::Passive => {}
        }
    }
    let evals = st.evaluations;
    st.obs.rec(Phase::Eval, tick, m, evals);
}

/// The body of worker thread `party` (`1..workers`): wait for a
/// command, run it, join.
fn worker_loop(core: &Core<'_>, party: usize) {
    phase_check::set_party(party);
    loop {
        core.barrier.wait();
        // SAFETY: the master wrote the command before releasing the
        // barrier and does not touch it during the phase; all workers
        // may read it concurrently.
        let cmd = unsafe { *core.cmd.get(0) };
        if matches!(cmd, Cmd::Exit) {
            break;
        }
        run_party_cmd(core, party, cmd);
        core.barrier.wait();
    }
}

/// Computes the coupling-cluster owner of every nontrivial switch
/// group: groups are united when one's resolution can observe another
/// within a settle pass (a switch whose control net belongs to the
/// other nontrivial group), and clusters are dealt round-robin to
/// parties in first-group order.
fn compute_group_owner(netlist: &Netlist, img: &Image, num_parties: usize) -> Vec<u32> {
    let ng = img.groups.num_groups();
    let mut clusters = UnionFind::new(ng);
    for gid in 0..ng as u32 {
        if !img.group_nontrivial[gid as usize] {
            continue;
        }
        for &sw in img.groups.switches(gid) {
            if let Component::Switch { control, .. } = netlist.component(sw) {
                let h = img.groups.group_of(*control);
                if img.group_nontrivial[h as usize] {
                    clusters.union(gid, h);
                }
            }
        }
    }
    let mut owner = vec![u32::MAX; ng];
    let mut root_owner = vec![u32::MAX; ng];
    let mut next = 0usize;
    for gid in 0..ng as u32 {
        if !img.group_nontrivial[gid as usize] {
            continue;
        }
        let r = clusters.find(gid) as usize;
        if root_owner[r] == u32::MAX {
            root_owner[r] = (next % num_parties) as u32;
            next += 1;
        }
        owner[gid as usize] = root_owner[r];
    }
    owner
}

/// The parallel tick-synchronous simulator.
///
/// Bit-identical to [`Simulator`](crate::Simulator) for any worker
/// count (see the module docs for the determinism argument), with
/// per-worker load and cross-partition message instrumentation.
///
/// ```
/// use logicsim_netlist::{Delay, GateKind, Level, NetlistBuilder};
/// use logicsim_sim::ParSimulator;
///
/// let mut b = NetlistBuilder::new("inv");
/// let a = b.input("a");
/// let y = b.net("y");
/// b.gate(GateKind::Not, &[a], y, Delay::uniform(2));
/// let n = b.finish().unwrap();
/// // One gate (component 1) assigned to partition 0, run on 2 workers.
/// let assignment = vec![u32::MAX, 0];
/// let mut sim = ParSimulator::new(&n, &assignment, 2).expect("pre-flight");
/// sim.set_input(a, Level::Zero);
/// sim.run_until(5);
/// assert_eq!(sim.level(y), Level::One);
/// ```
pub struct ParSimulator<'a> {
    core: Core<'a>,
    m: Master,
}

impl<'a> ParSimulator<'a> {
    /// Creates a parallel simulator with default configuration.
    ///
    /// `assignment` maps every component to a partition id (`u32::MAX`
    /// for unpartitioned infrastructure — inputs, pulls, rails), as
    /// produced by `logicsim-partition` strategies. Partition `k` is
    /// executed by worker `k % workers`.
    ///
    /// # Errors
    ///
    /// Returns [`PreflightError`] as for the serial
    /// [`Simulator::new`](crate::Simulator::new).
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or `assignment.len()` differs from the
    /// netlist's component count.
    pub fn new(
        netlist: &'a Netlist,
        assignment: &[u32],
        workers: usize,
    ) -> Result<ParSimulator<'a>, PreflightError> {
        ParSimulator::with_config(netlist, assignment, workers, SimConfig::default())
    }

    /// Creates a parallel simulator with explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PreflightError`] as for [`ParSimulator::new`].
    ///
    /// # Panics
    ///
    /// Panics as for [`ParSimulator::new`].
    pub fn with_config(
        netlist: &'a Netlist,
        assignment: &[u32],
        workers: usize,
        config: SimConfig,
    ) -> Result<ParSimulator<'a>, PreflightError> {
        assert!(workers >= 1, "need at least one worker");
        assert_eq!(
            assignment.len(),
            netlist.num_components(),
            "assignment must cover every component"
        );
        let img = Image::build(netlist)?;
        let nc = netlist.num_components();
        let nn = netlist.num_nets();
        let num_groups = img.groups.num_groups();
        let num_parties = workers + 1;

        // Identical power-up state to the serial engine.
        let mut net_values = vec![Signal::FLOATING; nn];
        let mut comp_drive = img.static_drive.clone();
        let mut last_scheduled = vec![Signal::FLOATING; nc];
        relax_power_up(&img, &mut net_values, &mut comp_drive, &mut last_scheduled);

        let owner: Vec<u32> = (0..nc)
            .map(|ci| match img.eval[ci] {
                EvalKind::Gate { .. } | EvalKind::Switch { .. } => {
                    let a = assignment[ci];
                    if a == u32::MAX {
                        workers as u32
                    } else {
                        a % workers as u32
                    }
                }
                EvalKind::Passive => workers as u32,
            })
            .collect();
        let group_owner = compute_group_owner(netlist, &img, num_parties);
        // One phase clock for the whole engine: the barrier advances it
        // at every crossing, and (under `phase-check`) every shared
        // container stamps accesses with it.
        let clock = PhaseClock::new();
        // One shared time origin so every lane's samples land on a
        // single comparable timeline.
        let origin = obs::Origin::now();
        let parties = SharedSlots::from_iter(
            (0..num_parties)
                .map(|_| PartyState::new(obs::Lane::new(config.observe, origin, OBS_CAPACITY))),
            &clock,
        );
        let master_obs = obs::Lane::new(config.observe, origin, OBS_CAPACITY);

        Ok(ParSimulator {
            core: Core {
                netlist,
                img,
                config,
                workers,
                assignment: assignment.to_vec(),
                owner,
                group_owner,
                net_values: SharedVec::from_vec(net_values, &clock),
                comp_drive: SharedVec::from_vec(comp_drive, &clock),
                last_scheduled: SharedVec::from_vec(last_scheduled, &clock),
                pending: SharedVec::from_vec(vec![None; nc], &clock),
                parties,
                cmd: SharedSlots::from_iter([Cmd::Exit], &clock),
                barrier: SpinBarrier::new(workers, &clock),
                clock,
            },
            m: Master::new(nn, nc, num_groups, num_parties, master_obs),
        })
    }

    /// The netlist being simulated.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        self.core.netlist
    }

    /// Number of evaluator workers `P`.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.core.workers
    }

    /// Current simulation tick.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.m.now
    }

    /// Resolved signal on a net.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    #[must_use]
    pub fn signal(&self, net: NetId) -> Signal {
        // SAFETY: no worker threads exist outside `run_with`.
        unsafe { self.core.net_values.get(net.index()) }
    }

    /// Logic level on a net.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    #[must_use]
    pub fn level(&self, net: NetId) -> Level {
        self.signal(net).level
    }

    /// Snapshot of every net's resolved signal, indexed by net id — the
    /// post-run bulk counterpart of per-net [`ParSimulator::signal`]
    /// (e.g. for diffing whole-circuit state against the serial engine).
    #[must_use]
    pub fn signals(&self) -> Vec<Signal> {
        // No worker threads exist outside `run_with`, so the snapshot
        // cannot observe a concurrent writer.
        self.core.net_values.snapshot()
    }

    /// Workload counters accumulated so far (identical to the serial
    /// engine's for the same run).
    #[must_use]
    pub fn counters(&self) -> &WorkloadCounters {
        &self.m.counters
    }

    /// Per-component activity profile.
    #[must_use]
    pub fn activity(&self) -> &ActivityProfile {
        &self.m.activity
    }

    /// The collected trace (empty unless [`SimConfig::collect_trace`]).
    #[must_use]
    pub fn trace(&self) -> &TickTrace {
        &self.m.trace
    }

    /// Takes ownership of the collected trace, leaving an empty one.
    pub fn take_trace(&mut self) -> TickTrace {
        std::mem::take(&mut self.m.trace)
    }

    /// Per-worker load counters (busy/idle ticks, evaluations, group
    /// resolutions, cross-partition messages sent).
    #[must_use]
    pub fn worker_loads(&self) -> &[WorkerLoad] {
        &self.m.loads[..self.core.workers]
    }

    /// Measured cross-partition message count (`M_P`): messages whose
    /// source and destination components live on different partitions.
    #[must_use]
    pub fn messages_crossing(&self) -> u64 {
        self.m.crossing
    }

    /// Messages between two assigned components regardless of partition
    /// (the component-to-component `M_inf`, Eq. 6's denominator).
    #[must_use]
    pub fn messages_component(&self) -> u64 {
        self.m.component_msgs
    }

    /// Snapshot of the run's parallel instrumentation for
    /// `logicsim-stats` consumers.
    #[must_use]
    pub fn parallel_workload(&self) -> ParallelWorkload {
        ParallelWorkload {
            workers: self.worker_loads().to_vec(),
            messages_crossing: self.m.crossing,
            messages_component: self.m.component_msgs,
        }
    }

    /// Resets counters, activity, trace, per-worker instrumentation,
    /// and phase observations (not circuit state); call after a warm-up
    /// run.
    pub fn reset_measurements(&mut self) {
        self.m.counters.reset();
        self.m.activity.reset();
        self.m.trace = TickTrace {
            start: self.m.now,
            end: self.m.now,
            ticks: Vec::new(),
        };
        for load in &mut self.m.loads {
            *load = WorkerLoad::default();
        }
        self.m.crossing = 0;
        self.m.component_msgs = 0;
        self.m.obs.reset();
        for p in 0..self.core.num_parties() {
            // SAFETY: no worker threads exist outside `run_with`.
            unsafe { self.core.parties.get_mut(p) }.obs.reset();
        }
    }

    /// Snapshot of the per-phase wall-clock observations: one lane per
    /// worker, then the master lane (its own party share merged with
    /// the control work — START fan-out, exchange, DONE collection,
    /// barrier waits). Empty unless [`SimConfig::observe`] armed the
    /// recorder.
    #[must_use]
    pub fn obs_report(&self) -> obs::ObsReport {
        let mut lanes = Vec::with_capacity(self.core.workers + 1);
        let mut lane_names = Vec::with_capacity(self.core.workers + 1);
        for p in 0..self.core.workers {
            // SAFETY: no worker threads exist outside `run_with`.
            lanes.push(unsafe { self.core.parties.get_mut(p) }.obs.report());
            lane_names.push(format!("worker {p}"));
        }
        // SAFETY: no worker threads exist outside `run_with`.
        let mut master = unsafe { self.core.parties.get_mut(self.core.workers) }
            .obs
            .report();
        master.merge(self.m.obs.report());
        lanes.push(master);
        lane_names.push("master".to_string());
        obs::ObsReport { lanes, lane_names }
    }

    /// Drives a primary input to `level` at the current tick.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not a primary input.
    pub fn set_input(&mut self, net: NetId, level: Level) {
        set_input_inner(&self.core, &mut self.m, net, level);
    }

    /// Runs tick by tick until the clock reaches `tick` (exclusive).
    pub fn run_until(&mut self, tick: u64) {
        self.run_with(tick, |_, _| {});
    }

    /// Runs until `until` (exclusive), invoking `stim` once per tick
    /// before that tick executes so it can drive primary inputs — the
    /// parallel analog of
    /// [`run_with_stimulus`](crate::stimulus::run_with_stimulus).
    ///
    /// The calling thread is one of the `P` threads; the other `P - 1`
    /// are spawned once per call and live for the whole run (none at
    /// `P = 1`).
    pub fn run_with(&mut self, until: u64, mut stim: impl FnMut(u64, &mut InputFrame<'_, '_>)) {
        if self.m.now >= until {
            return;
        }
        let core = &self.core;
        let m = &mut self.m;
        std::thread::scope(|s| {
            for w in 1..core.workers {
                std::thread::Builder::new()
                    .name(format!("lsim-worker-{w}"))
                    .spawn_scoped(s, move || worker_loop(core, w))
                    .expect("spawn worker");
                #[cfg(test)]
                {
                    m.tally.spawned += 1;
                }
            }
            // Shut the workers down even if the master panics (a panic
            // with workers parked at the barrier would deadlock the
            // scope join), then resume the panic.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                m.run(core, until, &mut stim);
            }));
            m.shutdown(core);
            if let Err(p) = result {
                std::panic::resume_unwind(p);
            }
        });
        // The workers' last act was reading `Cmd::Exit` *after* the
        // shutdown barrier crossing, in the then-current phase. Open a
        // fresh phase now that they have joined, so the master's
        // between-run accesses (and the next run's first command
        // publish) never share a phase with that final read.
        self.core.clock.advance();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use logicsim_netlist::{Delay, GateKind, NetlistBuilder, SwitchKind};

    /// Assignment that deals every gate/switch round-robin to `parts`.
    fn round_robin(netlist: &Netlist, parts: u32) -> Vec<u32> {
        let mut next = 0u32;
        netlist
            .components()
            .iter()
            .map(|c| {
                if matches!(c, Component::Gate { .. } | Component::Switch { .. }) {
                    let p = next % parts;
                    next += 1;
                    p
                } else {
                    u32::MAX
                }
            })
            .collect()
    }

    fn latch_circuit() -> Netlist {
        let mut b = NetlistBuilder::new("latch");
        let s_n = b.input("s_n");
        let r_n = b.input("r_n");
        let q = b.net("q");
        let qn = b.net("qn");
        b.gate(GateKind::Nand, &[s_n, qn], q, Delay::uniform(1));
        b.gate(GateKind::Nand, &[r_n, q], qn, Delay::uniform(2));
        b.finish().unwrap()
    }

    #[test]
    fn matches_serial_on_latch_for_all_worker_counts() {
        let n = latch_circuit();
        let (s_n, r_n) = (n.find_net("s_n").unwrap(), n.find_net("r_n").unwrap());
        let (q, qn) = (n.find_net("q").unwrap(), n.find_net("qn").unwrap());

        let mut serial = Simulator::new(&n).expect("pre-flight");
        serial.set_input(s_n, Level::Zero);
        serial.set_input(r_n, Level::One);
        serial.run_until(10);
        serial.set_input(s_n, Level::One);
        serial.run_until(20);
        serial.set_input(r_n, Level::Zero);
        serial.run_until(30);

        for workers in [1, 2, 3] {
            let assignment = round_robin(&n, workers as u32);
            let mut par = ParSimulator::new(&n, &assignment, workers).expect("pre-flight");
            par.set_input(s_n, Level::Zero);
            par.set_input(r_n, Level::One);
            par.run_until(10);
            par.set_input(s_n, Level::One);
            par.run_until(20);
            par.set_input(r_n, Level::Zero);
            par.run_until(30);
            assert_eq!(par.level(q), serial.level(q), "P={workers}");
            assert_eq!(par.level(qn), serial.level(qn), "P={workers}");
            assert_eq!(par.counters(), serial.counters(), "P={workers}");
        }
    }

    #[test]
    fn switch_group_straddling_partitions_matches_serial() {
        // Pass-transistor mux whose two switches land on different
        // partitions: group resolution must still settle exactly once.
        let mut b = NetlistBuilder::new("ptmux");
        let sel = b.input("sel");
        let sel_n = b.net("sel_n");
        b.gate(GateKind::Not, &[sel], sel_n, Delay::uniform(1));
        let a = b.input("a");
        let bb = b.input("b");
        let z = b.net("z");
        b.switch(SwitchKind::Nmos, sel, a, z);
        b.switch(SwitchKind::Nmos, sel_n, bb, z);
        let n = b.finish().unwrap();
        let nets = |s: &str| n.find_net(s).unwrap();

        let drive = |sim: &mut dyn FnMut(NetId, Level)| {
            sim(nets("a"), Level::One);
            sim(nets("b"), Level::Zero);
            sim(nets("sel"), Level::One);
        };

        let mut serial = Simulator::new(&n).expect("pre-flight");
        drive(&mut |net, l| serial.set_input(net, l));
        serial.run_until(10);
        serial.set_input(nets("sel"), Level::Zero);
        serial.run_until(20);

        let assignment = round_robin(&n, 2);
        let mut par = ParSimulator::new(&n, &assignment, 2).expect("pre-flight");
        drive(&mut |net, l| par.set_input(net, l));
        par.run_until(10);
        par.set_input(nets("sel"), Level::Zero);
        par.run_until(20);

        assert_eq!(par.level(nets("z")), Level::Zero);
        assert_eq!(par.level(nets("z")), serial.level(nets("z")));
        assert_eq!(par.counters(), serial.counters());
    }

    /// Two inverters feeding an AND and an XOR; components 0 and 1 are
    /// the inputs, 2..=5 the gates in the order built.
    fn fan_circuit() -> Netlist {
        let mut b = NetlistBuilder::new("fan");
        let a = b.input("a");
        let bb = b.input("b");
        let (na, nb, y, z) = (b.net("na"), b.net("nb"), b.net("y"), b.net("z"));
        b.gate(GateKind::Not, &[a], na, Delay::uniform(1));
        b.gate(GateKind::Not, &[bb], nb, Delay::uniform(1));
        b.gate(GateKind::And, &[na, nb], y, Delay::uniform(2));
        b.gate(GateKind::Xor, &[na, bb], z, Delay::uniform(1));
        b.finish().unwrap()
    }

    /// Runs `fan_circuit` for 40 ticks on both engines, `a` toggling at
    /// ticks 0, 10, .. and `b` at `b_at`, `b_at + 10`, ..; checks every
    /// net and counter against the serial run and returns what the
    /// thread model did. The circuit is quiet again three ticks after
    /// an input changes.
    fn fan_run(gates: [u32; 4], workers: usize, b_at: u64) -> Tally {
        let n = fan_circuit();
        let (a, b) = (n.find_net("a").unwrap(), n.find_net("b").unwrap());
        let script = |tick: u64, set: &mut dyn FnMut(NetId, Level)| {
            if tick.is_multiple_of(10) {
                set(a, Level::from_bool(tick.is_multiple_of(20)));
            }
            if tick % 10 == b_at {
                set(b, Level::from_bool(tick % 20 == b_at));
            }
        };
        let mut serial = Simulator::new(&n).expect("pre-flight");
        while serial.now() < 40 {
            let now = serial.now();
            script(now, &mut |net, l| serial.set_input(net, l));
            serial.step();
        }
        let mut assignment = vec![u32::MAX; 2];
        assignment.extend(gates);
        let mut par = ParSimulator::new(&n, &assignment, workers).expect("pre-flight");
        par.run_with(40, |tick, frame| {
            script(tick, &mut |net, l| frame.set(net, l));
        });
        for i in 0..n.num_nets() {
            let net = NetId(i as u32);
            assert_eq!(par.signal(net), serial.signal(net), "{net} {gates:?}");
        }
        assert_eq!(par.counters(), serial.counters(), "{gates:?}");
        assert!(par.counters().busy_ticks > 8);
        par.m.tally
    }

    #[test]
    fn phases_with_one_busy_thread_skip_the_handshake() {
        // `b` changes while the circuit is quiet, so every phase has
        // work in one party: the master party when an input is applied
        // (and, with unassigned gates, all along), else the party that
        // holds the gates. Whichever thread that is, it is the only one.
        for gates in [[1; 4], [0; 4], [u32::MAX; 4]] {
            let tally = fan_run(gates, 2, 5);
            assert_eq!(tally.handshakes, 0, "{gates:?}");
            assert!(tally.inline_phases > 0, "{gates:?}");
            assert_eq!(tally.spawned, 1);
        }
        // `b` changes in the tick that applies `na`: the master party
        // and the gates' party both have work in that Apply phase. With
        // the gates in party 0 that is still one thread.
        assert_eq!(fan_run([0; 4], 2, 1).handshakes, 0);
        assert!(fan_run([1; 4], 2, 1).handshakes > 0);
    }

    #[test]
    fn phases_with_two_busy_threads_handshake() {
        // `na` fans out to the AND in party 0 and the XOR in party 1:
        // the Apply phase of that tick has work in party 0 only and
        // runs inline, its Eval phase handshakes.
        let tally = fan_run([0, 1, 0, 1], 2, 5);
        assert!(tally.handshakes > 0);
        assert!(tally.inline_phases > 0);
        let tally = fan_run([0, 1, 2, 1], 3, 1);
        assert!(tally.handshakes > 0);
        assert_eq!(tally.spawned, 2);
    }

    #[test]
    fn one_worker_spawns_no_thread() {
        let tally = fan_run([0, 1, 2, 3], 1, 1);
        assert_eq!(tally.spawned, 0);
        assert_eq!(tally.handshakes, 0);
        assert!(tally.inline_phases > 0);
    }

    #[test]
    fn worker_loads_cover_every_tick() {
        let n = latch_circuit();
        let s_n = n.find_net("s_n").unwrap();
        let assignment = round_robin(&n, 2);
        let mut par = ParSimulator::new(&n, &assignment, 2).expect("pre-flight");
        par.set_input(s_n, Level::Zero);
        par.run_until(25);
        for (w, load) in par.worker_loads().iter().enumerate() {
            assert_eq!(
                load.busy_ticks + load.idle_ticks,
                par.counters().total_ticks(),
                "worker {w} tick accounting"
            );
        }
        assert!(par.parallel_workload().total_evaluations() > 0);
    }

    #[test]
    fn crossing_messages_bounded_by_component_messages() {
        let n = latch_circuit();
        let s_n = n.find_net("s_n").unwrap();
        let r_n = n.find_net("r_n").unwrap();
        let assignment = round_robin(&n, 2);
        let mut par = ParSimulator::new(&n, &assignment, 2).expect("pre-flight");
        par.set_input(s_n, Level::Zero);
        par.set_input(r_n, Level::One);
        par.run_until(20);
        assert!(par.messages_crossing() <= par.messages_component());
        // The two cross-coupled NANDs sit on different partitions, so
        // every gate-to-gate message crosses.
        assert_eq!(par.messages_crossing(), par.messages_component());
        assert!(par.messages_crossing() > 0);
    }
}
