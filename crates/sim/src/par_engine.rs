//! The tick kernel: the paper's `UI/GC/Q=P/P/L` machine executed on
//! real threads, at any `P` including 1.
//!
//! The event-driven tick — apply the due output changes, settle switch
//! groups, evaluate the fanout, schedule delayed changes — is written
//! once, here, as the phases of one *party*. [`ParSimulator`] runs `P`
//! parties on `P` threads, party `k` on thread `k`: the calling thread
//! runs party 0 and is also the *master* (the paper's host processor,
//! which only synchronises the parties), and `P - 1` long-lived worker
//! threads run parties `1..P`. The serial
//! [`Simulator`](crate::Simulator) is the one-party case: one party on
//! the calling thread, every component unassigned. Components are dealt
//! to parties by a `logicsim-partition` assignment; each party owns a
//! private [`TimingWheel`] (the paper's per-processor event list) and
//! the per-component state of the components it owns.
//!
//! Delays are **inertial**, like lsim's fixed-delay model and unlike a
//! pure transport-delay simulator: each component has at most one
//! outstanding scheduled change, a re-evaluation replaces it, and a
//! re-evaluation back to the currently-driven value cancels it
//! outright. Pulses narrower than a gate's delay are therefore filtered
//! — without this, a glitch injected into a delay-matched feedback loop
//! (any latch) circulates forever and inflates the measured event
//! counts unboundedly.
//!
//! # Ownership
//!
//! Every piece of work has exactly one owning party, and only the owner
//! does it (*owner computes*). One placement pass in
//! `ParSimulator::build` gives every net one owner:
//!
//! * a net on a switch channel belongs to the party of its **coupling
//!   cluster's** lowest-id switch (see below), that switch's partition
//!   party;
//! * every other net belongs to the party of its first non-switch
//!   driver, party 0 if it has none.
//!
//! Every non-switch driver of a net runs in the net's party, and so does
//! every switch whose channel touches it: a tristate bus or a switch
//! group cut by the partition is run whole by one party. A component's
//! partition party, where the rule starts from, is `part % P` for a gate
//! or switch and party 0 for inputs, pulls, rails and unassigned
//! components. A component keeps its partition id wherever it runs, so
//! the Eq. 6 message counts are the partition's. Only the party that
//! owns a net ever changes a drive onto it or settles it, and a switch's
//! settle record is read and written by that party alone.
//!
//! Parties talk through `P × P` single-producer
//! single-consumer mailboxes (`par_sync::Mailboxes`): box `(src, dst)`
//! is filled by `src` in one phase and drained by `dst` in a later one —
//! the machine's interconnection network, with an evaluator sending
//! each output change to the processor that owns the destination.
//! Like the machine, which charges network time only for messages
//! between processors (Eq. 6), a party mails only what another party
//! owns: the components it evaluates next stay in its own `to_eval`
//! worklist (an `OrderedSet`, one bit per id, listing its members
//! ascending), and every group it dirties is its own, in its own `dirty`
//! set. So the mail is fanout alone, and at `P = 1` nothing goes
//! through a mailbox.
//!
//! The routing table behind that (`Core::place`) exists only where
//! something is routed: with one party
//! and no partition named — the [`Simulator`](crate::Simulator) case —
//! every owner is party 0, no message crosses, and the kernel reads no
//! routing array (DESIGN.md §10 lists what it then holds per element).
//!
//! # Phases
//!
//! Every global tick is a bulk-synchronous round — the machine's
//! START/DONE handshake — built from barrier-delimited phases. No phase
//! has a serial stage: between phases the master only reads the
//! mailbox lengths and the parties' `popped`, `scheduled` and `changed`
//! to pick the next command. Each party keeps its own load counters,
//! which the master folds once a run returns.
//!
//! 1. **Apply**: every party drains its own wheel's current slot and
//!    applies the surviving (non-stale) output changes to its
//!    components. A net outside the nontrivial switch groups needs
//!    nobody else's word, because its owner runs all of its drivers:
//!    the owner merges this tick's changes onto it, last writer in pop
//!    order wins, resolves it and routes the fanout of every net that
//!    changed, all inside Apply. Routing puts a fanout component the
//!    party owns into its own `to_eval` set and mails any other to its
//!    owner. A net of a nontrivial switch group puts the group into the
//!    party's own `dirty` set.
//! 2. **Resolve** (when a group is dirty): every party settles the
//!    groups in its `dirty` set in ascending group order, records what
//!    each resolution read of its switches, and routes the fanout of
//!    the nets that changed.
//! 3. **Eval** (when a net changed): every party adds its mail to its
//!    `to_eval` set and evaluates those components in ascending id
//!    order, scheduling delayed output changes into its own wheel and
//!    putting the group of an evaluated switch into its own `dirty` set
//!    when the conduction the group reads through it differs from that
//!    record (see the [`solver`] module docs, "When a group is
//!    settled"). Steps 2–3 repeat until the tick settles, or until
//!    `MAX_SETTLE_ROUNDS` passes declare a zero-delay oscillation and
//!    drop the dirty groups unsettled.
//!
//! Within a phase a party writes only what it owns (its slot and the
//! worklists in it, its outboxes, its components' state, its nets'
//! values, its groups' settle records, its causes' activity counts)
//! and reads, besides that, only what no other party writes in that
//! phase: in Apply the drives of its own components; in Resolve any
//! `comp_drive` (nobody writes them); foreign `net_values` only in Eval
//! (nobody writes them) and, in Resolve, for control nets off every
//! switch channel (written in Apply only).
//!
//! # Determinism
//!
//! The result does not depend on `P`: traces, counters and every net
//! are *bit-identical* for every `P` — the golden FNV trace digests
//! pass unchanged (see `tests/golden_trace.rs`), and `RefSim`
//! (`crates/sim/tests/differential.rs`) checks the kernel against an
//! independent gate-level reference. One party's schedules happen in a
//! fixed program order: stimulus calls first, then the tick's settle
//! passes in turn, each over its components in ascending id order. A
//! wheel slot pops its entries in the order they were scheduled, and a
//! tick schedules after every earlier one (an overflow entry reaches
//! its slot before anything can be scheduled there directly). With
//! several parties, each party's schedules are the one-party sequence
//! restricted to the components it runs, in the same order, so its
//! slot pops them in one-party order. Every change onto a net comes
//! from the wheel of the net's owner, which runs all of the net's
//! drivers; so the last change the owner pops onto a net is the
//! one-party last writer, with nothing to sort or compare across
//! parties. Inertial descheduling needs equality only: each party
//! numbers its own schedules, and a component's `pending` entry holds
//! the number of its one change in flight, so the check is local to the
//! owning party and costs 8 bytes per component. Everything else a party
//! computes is a function of the *set* of work it received (its own
//! worklists and its mail): a net's value depends on its drivers'
//! drives, a gate's output on its input nets' values, and counters are
//! sums. The one ordered output, the trace's event list, is assembled by
//! the master from the owners' changed-net lists in one order (ordinary
//! nets by net id, then group nets by group id).
//!
//! Switch groups are settled in parallel by *coupling cluster*: groups
//! whose resolution can observe each other within a settle pass (a
//! switch in one group controlled by a net of another) are united and
//! always resolved sequentially, in ascending group order, by one
//! party. Cross-cluster resolutions touch disjoint nets, so resolving
//! clusters concurrently reproduces the one-party pass exactly.
//!
//! Ticks where no party has pending work are fast-forwarded by the
//! master without waking the workers (the modeled machine's
//! START/DONE-only cycles), and a run enters the kernel once, not once
//! per tick.
//! Within an executed tick, a phase in which at most one party has
//! work skips the handshake as well: the master runs every party's
//! share itself while the workers stay parked (see `Master::phase`).

// The engine drives par_sync's unsafe accessors directly (the phase
// discipline justifying each call is engine-level knowledge, so a
// "safe" wrapper here would only hide the obligation); it is on the
// `cargo xtask lint-unsafe` allowlist and every block carries a SAFETY
// comment. See also DESIGN.md's safety argument.
#![allow(unsafe_code)]

use crate::engine::{relax_power_up, Image, PreflightError, SimConfig};
use crate::instrument::{ActivityProfile, WorkloadCounters};
use crate::obs::{self, Phase};
use crate::par_sync::{Mailboxes, SharedSlots, SharedVec, SpinBarrier};
use crate::phase_check::{self, PhaseClock};
use crate::solver;
use crate::trace::{EventRecord, TickRecord, TickTrace};
use crate::wheel::TimingWheel;
use crate::worklist::OrderedSet;
use logicsim_netlist::{
    ChannelGroups, CompId, ComponentKind, Level, NetId, Netlist, Signal, UnionFind,
};
use logicsim_stats::{ParallelWorkload, WorkerLoad};
use std::any::Any;
use std::panic::{self as unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

/// Timing-wheel size in slots; delays at or beyond it fall back to the
/// wheel's overflow map.
const WHEEL_SIZE: usize = 256;
/// Bound on intra-tick switch-group relaxation rounds before the engine
/// declares a zero-delay oscillation and stops the tick.
const MAX_SETTLE_ROUNDS: u32 = 64;
/// Per-lane capacity (in samples) of the observability ring buffer;
/// older samples are overwritten at capacity. Exact per-phase totals
/// are kept separately and never windowed.
const OBS_CAPACITY: usize = 4096;

/// A scheduled output change in a party's wheel: at its tick, `comp`
/// starts driving `drive`, if `seq` is still the component's `pending`
/// number (the inertial filter). 16 bytes.
#[derive(Debug, Clone, Copy)]
struct PChange {
    comp: u32,
    drive: Signal,
    seq: u64,
}

/// A drive change being merged onto its net: `comp` now drives `net`.
#[derive(Debug, Clone, Copy)]
struct Applied {
    net: u32,
    comp: u32,
}

/// A net whose resolved value changed — one event. `key` is the net's
/// place in the trace's event list of its settle step: the net id for an
/// ordinary net (Apply), the group id in Resolve.
#[derive(Debug, Clone, Copy)]
struct Changed {
    key: u32,
    net: u32,
    cause: u32,
}

/// Where a component lives: the party that owns it and its partition
/// id (`u32::MAX` = unassigned), side by side so routing one message
/// costs one look-up.
#[derive(Debug, Clone, Copy)]
struct Place {
    owner: u32,
    part: u32,
}

/// Phase command published by the master before releasing the barrier;
/// each carries the current tick (the observation label and busy-tick
/// key).
#[derive(Debug, Clone, Copy)]
enum Cmd {
    /// Drain the party's current wheel slot and apply changes.
    Apply { tick: u64 },
    /// Resolve the switch groups in the party's `dirty` set and
    /// inboxes and route the fanout of the nets that changed.
    Resolve { tick: u64 },
    /// Evaluate the fanout components in the party's `to_eval` set and
    /// inboxes.
    Eval { tick: u64 },
    /// Terminate the worker loop.
    Exit,
}

/// Per-party wheel, scratch and counters. Each slot is owned by its
/// party during a phase; between phases the master reads the lengths
/// and scalars that steer the protocol, and it folds the counters once
/// the run's workers are gone. Aligned like [`SpinBarrier`] so one
/// party's counters never share a cache line with another's.
#[derive(Debug)]
#[repr(align(128))]
struct PartyState {
    /// This party's event list.
    wheel: TimingWheel<PChange>,
    /// Changes popped this tick (scratch).
    changes: Vec<PChange>,
    /// Entries popped from the wheel by this tick's Apply.
    popped: u64,
    /// Scratch: this tick's changes onto this party's nets outside the
    /// nontrivial groups, in pop order.
    merged: Vec<Applied>,
    /// Scratch: the nets of `merged` already resolved (the merge scans
    /// it backwards, so the first change met on a net is its last).
    seen: OrderedSet,
    /// Nets this party changed since the master last counted them: in
    /// this tick's Apply, or in the last Resolve (within one group, in
    /// resolution order).
    changed: Vec<Changed>,
    /// Scratch: the foreign mail one Eval drains.
    inbox: Vec<u32>,
    /// The switch groups this party owns that the next Resolve settles.
    dirty: OrderedSet,
    /// The components this party owns that the next Eval evaluates:
    /// fanout of nets this party changed, or mailed to it.
    to_eval: OrderedSet,
    /// Changes the last Eval scheduled into the wheel.
    scheduled: u64,
    /// The sequence number of this party's latest schedule,
    /// pre-incremented, so no schedule carries `pending`'s 0.
    seq: u64,
    /// This party's busy ticks (it applied, resolved or evaluated
    /// something), evaluations and group resolutions since the master
    /// last absorbed them. The master derives `idle_ticks`;
    /// `messages_sent` is counted by sender below.
    load: WorkerLoad,
    /// The tick `load.busy_ticks` counted last.
    busy_tick: u64,
    /// Fanout messages routed since the master last absorbed them
    /// (this party's share of `messages_inf`).
    messages_inf: u64,
    /// Likewise: messages between assigned components on different
    /// partitions.
    crossing: u64,
    /// Likewise: messages between assigned components (any partitions).
    component_msgs: u64,
    /// Likewise: crossing messages by the sender's worker.
    messages_sent: Vec<u64>,
    /// Scratch: switch-solver buffers.
    solver: solver::Scratch,
    /// Per-party phase recorder. Written only by the owning party
    /// during its phase (the slot discipline covers it), so recording
    /// takes no locks.
    obs: obs::Lane,
    /// Items this party mailed since the master last absorbed them.
    #[cfg(test)]
    mailed: u64,
}

impl PartyState {
    /// A party of `workers` in a circuit of `nc` components, `nn` nets
    /// and `ng` switch groups.
    fn new(workers: usize, obs: obs::Lane, nc: usize, nn: usize, ng: usize) -> PartyState {
        PartyState {
            wheel: TimingWheel::new(WHEEL_SIZE),
            changes: Vec::new(),
            popped: 0,
            merged: Vec::new(),
            seen: OrderedSet::with_capacity(nn),
            changed: Vec::new(),
            inbox: Vec::new(),
            dirty: OrderedSet::with_capacity(ng),
            to_eval: OrderedSet::with_capacity(nc),
            scheduled: 0,
            seq: 0,
            load: WorkerLoad::default(),
            busy_tick: u64::MAX,
            messages_inf: 0,
            crossing: 0,
            component_msgs: 0,
            messages_sent: vec![0; workers],
            solver: solver::Scratch::default(),
            obs,
            #[cfg(test)]
            mailed: 0,
        }
    }

    /// Counts `tick` among this party's busy ticks, once.
    fn mark_busy(&mut self, tick: u64) {
        if self.busy_tick != tick {
            self.busy_tick = tick;
            self.load.busy_ticks += 1;
        }
    }
}

/// State shared (read-only or phase-disciplined) between the master and
/// the workers.
struct Core<'a> {
    netlist: &'a Netlist,
    img: Image<'a>,
    config: SimConfig,
    /// Number of parties `P`, one per thread: party 0 runs on the
    /// calling thread, party `k >= 1` on worker thread `k`.
    workers: usize,
    /// Owning party and partition id per component. Empty when one
    /// party owns everything and no component names a partition: then
    /// every owner is party 0 and no message crosses, and
    /// [`Core::owner`] answers without it.
    place: Vec<Place>,
    /// Resolved value of every net (written only by the net's owner).
    net_values: SharedVec<Signal>,
    /// Output drive per component (written only by the owner).
    comp_drive: SharedVec<Signal>,
    /// Last scheduled drive per component (owner only).
    last_scheduled: SharedVec<Signal>,
    /// Sequence number of each component's outstanding schedule, 0 when
    /// nothing is in flight (owner only). The number is the owning
    /// party's own and is compared for equality only.
    pending: SharedVec<u64>,
    /// Events caused per component. A component is named as a cause
    /// only by the owner of its output net (or, for a switch, of its
    /// group's nets), which is the party that runs it, so the writers
    /// are disjoint.
    activity: SharedVec<u64>,
    /// Per switch slot, the conduction its group's last resolution read
    /// ([`solver::GroupImage::record_conduction`]): written in Resolve
    /// and read in Eval by the party that runs the switch and owns its
    /// group.
    settled: SharedVec<u8>,
    /// Per-party wheels, scratch, and counters.
    parties: SharedSlots<PartyState>,
    /// Apply/Resolve → Eval: fanout components, to the
    /// component's owner when that is another party.
    eval_mail: Mailboxes<u32>,
    /// The current phase command (single slot).
    cmd: SharedSlots<Cmd>,
    /// Phase barrier over the `workers` threads.
    barrier: SpinBarrier,
    /// Set by a worker whose share of a phase panicked; the master
    /// reads it after each join crossing and ends the run. `Relaxed`
    /// suffices: it publishes nothing else, and the barrier crossing
    /// between the store and the load orders them.
    worker_panicked: AtomicBool,
    /// Test trigger, like [`Tally`] test-only: the worker party whose
    /// share of its next handshaken phase panics.
    #[cfg(test)]
    failing_worker: Option<usize>,
    /// Phase clock shared with the barrier and (under `phase-check`)
    /// every recorder; the master bumps it after a run's workers join
    /// so between-run accesses get their own phase.
    clock: PhaseClock,
}

impl Core<'_> {
    /// The party that owns component `ci`.
    #[inline]
    fn owner(&self, ci: usize) -> usize {
        self.place.get(ci).map_or(0, |p| p.owner as usize)
    }
}

/// Master-only bookkeeping (never touched by workers).
struct Master {
    now: u64,
    /// Total entries (stale ones included) across all party wheels:
    /// the event-list occupancy the counters sample, and what a run to
    /// quiescence waits to reach 0.
    pending_total: u64,
    /// True between a phase's release and join barrier (for panic-safe
    /// worker shutdown).
    in_phase: bool,
    counters: WorkloadCounters,
    trace: TickTrace,
    /// Scratch for the trace's event list: one phase's changed nets
    /// from every party, in trace order.
    merged: Vec<Changed>,
    /// Per-party load counters.
    loads: Vec<WorkerLoad>,
    /// Messages between assigned components on different partitions.
    crossing: u64,
    /// Messages between assigned components (any partitions).
    component_msgs: u64,
    /// Master-control recorder (START fan-out, the decisions between
    /// phases, barrier wait); master-only, never shared.
    obs: obs::Lane,
    #[cfg(test)]
    tally: Tally,
}

/// What the unit tests pin about the thread model: threads spawned by
/// `run_with`, phases run with and without the handshake, and the
/// items mailed.
#[cfg(test)]
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Tally {
    spawned: usize,
    handshakes: u64,
    inline_phases: u64,
    resolve_phases: u64,
    mailed: u64,
}

impl Master {
    fn new(workers: usize, obs: obs::Lane) -> Master {
        Master {
            now: 0,
            pending_total: 0,
            in_phase: false,
            counters: WorkloadCounters::new(),
            trace: TickTrace::new(),
            merged: Vec::new(),
            loads: vec![WorkerLoad::default(); workers],
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
    /// When two or more parties have work, the phase is
    /// barrier-delimited: publish `cmd`, release the workers, do the
    /// calling thread's share (party 0), and join. When at most one
    /// party has work, a handshake would buy no parallelism, so the
    /// master runs every party's share itself while the workers stay
    /// parked at the release barrier — the same footing on which it
    /// touches their slots between phases.
    ///
    /// Observation: `Start` times the command publish through the
    /// release-barrier crossing (the machine's START fan-out);
    /// `Barrier` times the join wait after the calling thread's own
    /// share — how long the slowest worker straggles past it. A phase
    /// without a handshake records neither.
    fn phase(&mut self, core: &Core<'_>, cmd: Cmd) {
        if parties_with_work(core, cmd) <= 1 {
            for party in 0..core.workers {
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
        self.obs.rec(Phase::Start, self.now, m, core.workers as u64);
        run_party_cmd(core, 0, cmd);
        let m = self.obs.mark();
        core.barrier.wait();
        self.obs.rec(Phase::Barrier, self.now, m, 0);
        self.in_phase = false;
        #[cfg(test)]
        {
            self.tally.handshakes += 1;
        }
        // The join crossing published the flag; `ParSimulator::run`
        // resumes the worker's own panic once every thread is back.
        assert!(
            !core.worker_panicked.load(Ordering::Relaxed),
            "a worker party panicked"
        );
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

    /// Runs ticks until the clock reaches `until`, or, if `quiesce`,
    /// until no wheel holds an entry.
    fn run(
        &mut self,
        core: &Core<'_>,
        until: u64,
        quiesce: bool,
        stim: &mut dyn FnMut(u64, &mut InputFrame<'_, '_>),
    ) {
        while self.now < until && !(quiesce && self.pending_total == 0) {
            let t = self.now;
            stim(t, &mut InputFrame { core, m: self });

            // Event-list occupancy at the tick boundary, after stimulus
            // ([WO86] statistic).
            let pending = self.pending_total;
            self.counters.event_list_peak = self.counters.event_list_peak.max(pending);
            self.counters.event_list_sum += pending;

            // Fast-forward ticks where no wheel has work: the full
            // protocol would pop nothing and settle immediately.
            // SAFETY: workers are parked at the barrier between phases.
            let has_work =
                (0..core.workers).any(|p| unsafe { core.parties.get_mut(p) }.wheel.has_current());
            if has_work {
                self.execute_tick(core, t);
            } else {
                self.counters.idle_ticks += 1;
            }
            for p in 0..core.workers {
                // SAFETY: workers parked; master advances every wheel.
                unsafe { core.parties.get_mut(p) }.wheel.advance();
            }
            self.now += 1;
            self.trace.end = self.now;
        }
    }

    /// Executes one busy-candidate tick through the full phase protocol.
    /// Between phases, while the workers are parked at the barrier, the
    /// master reads only the mailbox lengths and the parties' `popped`,
    /// `scheduled` and `changed` — every net, fanout list and component
    /// is handled by its owner inside a phase.
    fn execute_tick(&mut self, core: &Core<'_>, t: u64) {
        // SAFETY: this method reads the slots between phases only, while
        // the workers are parked and nobody writes them.
        let party = |p: usize| unsafe { core.parties.get(p) };

        self.phase(core, Cmd::Apply { tick: t });
        let m = self.obs.mark();
        let popped: u64 = (0..core.workers).map(|p| party(p).popped).sum();
        self.pending_total -= popped;
        self.obs.rec(Phase::Done, t, m, popped);

        let mut events: Vec<EventRecord> = Vec::new();
        let mut changed = self.collect_changed(core, &mut events);

        let mut rounds = 0u32;
        let mut events_this_tick = 0u64;
        loop {
            if any_dirty(core) {
                self.phase(core, Cmd::Resolve { tick: t });
                #[cfg(test)]
                {
                    self.tally.resolve_phases += 1;
                }
                let m = self.obs.mark();
                let resolved = self.collect_changed(core, &mut events);
                changed += resolved;
                self.obs.rec(Phase::Done, t, m, resolved);
            }
            if changed == 0 {
                break;
            }
            events_this_tick += changed;
            changed = 0;

            // Evaluate fanout components in parallel, each by its owner.
            self.phase(core, Cmd::Eval { tick: t });
            let m = self.obs.mark();
            self.pending_total += (0..core.workers).map(|p| party(p).scheduled).sum::<u64>();
            let dirty = any_dirty(core);
            self.obs.rec(Phase::Done, t, m, 0);

            if !dirty {
                break;
            }
            rounds += 1;
            if rounds >= MAX_SETTLE_ROUNDS {
                self.counters.relaxation_overflows += 1;
                // Drop the dirty groups unsettled, and what they last
                // read with them, so the next tick starts clean.
                for p in 0..core.workers {
                    // SAFETY: workers parked; the master is the unique
                    // accessor of every slot and of `settled`.
                    let dirty = &mut unsafe { core.parties.get_mut(p) }.dirty;
                    for &gid in dirty.sorted() {
                        core.img
                            .solver
                            .forget_conduction(&core.img.groups, gid, |slot, code| {
                                // SAFETY: as above.
                                unsafe { core.settled.set(slot, code) };
                            });
                    }
                    dirty.clear();
                }
                break;
            }
        }

        self.counters.events += events_this_tick;
        if events_this_tick > 0 {
            self.counters.busy_ticks += 1;
            if core.config.collect_trace {
                self.trace.ticks.push(TickRecord { tick: t, events });
            }
        } else {
            self.counters.idle_ticks += 1;
        }
    }

    /// Number of nets the parties changed since the last count — by
    /// this tick's Apply, or by the Resolve just run: that
    /// settle step's events. With trace collection on, also appends
    /// them to `events` in trace order: ascending `key`,
    /// and within one key (one group, so one owner) the owner's own
    /// resolution order.
    fn collect_changed(&mut self, core: &Core<'_>, events: &mut Vec<EventRecord>) -> u64 {
        // SAFETY: workers are parked between phases.
        let lists = (0..core.workers).map(|p| &unsafe { core.parties.get(p) }.changed);
        if !core.config.collect_trace {
            return lists.map(|l| l.len() as u64).sum();
        }
        self.merged.clear();
        lists.for_each(|l| self.merged.extend_from_slice(l));
        self.merged.sort_by_key(|c| c.key);
        events.extend(self.merged.iter().map(|c| {
            EventRecord {
                source: c.cause,
                dests: core
                    .netlist
                    .fanout(NetId(c.net))
                    .iter()
                    .map(|f| f.0)
                    .collect(),
            }
        }));
        self.merged.len() as u64
    }

    /// Folds the counters the parties accumulated during a run into the
    /// master's totals and loads; a party was idle in every tick it was
    /// not busy. Called once the run's workers are gone.
    fn absorb(&mut self, core: &Core<'_>) {
        for p in 0..core.workers {
            // SAFETY: no worker threads exist outside `run_with`.
            let st = unsafe { core.parties.get_mut(p) };
            let own = std::mem::take(&mut st.load);
            self.counters.evaluations += own.evaluations;
            self.counters.group_resolutions += own.group_resolutions;
            let load = &mut self.loads[p];
            load.busy_ticks += own.busy_ticks;
            load.evaluations += own.evaluations;
            load.group_resolutions += own.group_resolutions;
            self.counters.messages_inf += std::mem::take(&mut st.messages_inf);
            self.crossing += std::mem::take(&mut st.crossing);
            self.component_msgs += std::mem::take(&mut st.component_msgs);
            for (load, sent) in self.loads.iter_mut().zip(&mut st.messages_sent) {
                load.messages_sent += std::mem::take(sent);
            }
            #[cfg(test)]
            {
                self.tally.mailed += std::mem::take(&mut st.mailed);
            }
        }
        let ticks = self.counters.total_ticks();
        for load in &mut self.loads {
            load.idle_ticks = ticks - load.busy_ticks;
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

/// Inertial input scheduling, as an evaluation schedules (see
/// `party_eval`). Only called while no worker threads are active
/// (outside `run`, or between phases during the stimulus callback).
fn set_input_inner(core: &Core<'_>, m: &mut Master, net: NetId, level: Level) {
    let Some(comp) = core.img.input_comp(net) else {
        panic!("{net} is not a primary input");
    };
    let comp = comp.index();
    let drive = Signal::strong(level);
    // SAFETY: no workers are running; the master is the unique accessor.
    unsafe {
        if core.last_scheduled.get(comp) == drive {
            return;
        }
        core.last_scheduled.set(comp, drive);
        if drive == core.comp_drive.get(comp) {
            core.pending.set(comp, 0);
            return;
        }
        let st = core.parties.get_mut(core.owner(comp));
        st.seq += 1;
        core.pending.set(comp, st.seq);
        let change = PChange {
            comp: comp as u32,
            drive,
            seq: st.seq,
        };
        st.wheel.schedule(m.now, change);
    }
    m.pending_total += 1;
}

/// Whether any party has dirty switch groups waiting for a Resolve.
/// Only called by the master between phases.
fn any_dirty(core: &Core<'_>) -> bool {
    // SAFETY: workers parked; nobody writes the slots.
    (0..core.workers).any(|p| !unsafe { core.parties.get(p) }.dirty.is_empty())
}

/// Number of parties that have something to do in the phase `cmd`
/// opens: a non-empty current wheel slot for Apply, a non-empty `dirty`
/// set for Resolve, and mail or a non-empty `to_eval` set for Eval.
/// Only called by the master between phases, while the workers are
/// parked at the barrier.
fn parties_with_work(core: &Core<'_>, cmd: Cmd) -> usize {
    // SAFETY: workers parked; nobody writes the slots or the boxes.
    let has_work = |party: usize| unsafe {
        let st = core.parties.get(party);
        match cmd {
            Cmd::Apply { .. } => st.wheel.has_current(),
            Cmd::Resolve { .. } => !st.dirty.is_empty(),
            Cmd::Eval { .. } => !st.to_eval.is_empty() || core.eval_mail.has_mail(party),
            Cmd::Exit => false,
        }
    };
    (0..core.workers).filter(|&p| has_work(p)).count()
}

/// Dispatches one phase command for one party.
fn run_party_cmd(core: &Core<'_>, party: usize, cmd: Cmd) {
    match cmd {
        Cmd::Apply { tick } => party_apply(core, party, tick),
        Cmd::Resolve { tick } => party_resolve(core, party, tick),
        Cmd::Eval { tick } => party_eval(core, party, tick),
        Cmd::Exit => {}
    }
}

/// Apply phase: drain the party's wheel slot and apply surviving
/// changes to owned components. Every net they drive is this party's,
/// with all of its drivers: one outside the nontrivial switch groups is
/// merged, resolved and fanned out here and now, and one inside puts
/// its group into this party's `dirty` set.
fn party_apply(core: &Core<'_>, party: usize, tick: u64) {
    // SAFETY: this party is the unique accessor of its slot during a
    // phase; `pending`/`comp_drive` entries touched here belong to
    // components this party owns (only owners schedule a component).
    let st = unsafe { core.parties.get_mut(party) };
    let m = st.obs.mark();
    st.changes.clear();
    st.wheel.pop_current_into(&mut st.changes);
    st.popped = st.changes.len() as u64;
    st.changed.clear();
    st.merged.clear();
    let mut applied = false;
    for change in &st.changes {
        let (comp, drive) = (change.comp, change.drive);
        let ci = comp as usize;
        // SAFETY: see above.
        unsafe {
            if core.pending.get(ci) != change.seq {
                continue; // descheduled (the inertial filter)
            }
            core.pending.set(ci, 0);
            if core.comp_drive.get(ci) == drive {
                continue;
            }
            core.comp_drive.set(ci, drive);
        }
        // Only gates and inputs are scheduled: the terminal is the net
        // they drive.
        let net = core.img.comps.terminal(ci);
        applied = true;
        if core.img.groups.in_nontrivial_group(net) {
            st.dirty.insert(core.img.groups.group_of(net));
        } else {
            st.merged.push(Applied { net: net.0, comp });
        }
    }
    if applied {
        st.mark_busy(tick);
    }
    let m = st.obs.rec(Phase::Apply, tick, m, st.popped);
    if !st.merged.is_empty() {
        let routed = merge_and_route(core, party, st);
        st.obs.rec(Phase::Exchange, tick, m, routed);
    }
}

/// Merges `st.merged` (in pop order) onto its nets, last writer wins,
/// resolves those nets, and routes the fanout of every one that
/// changed. Returns the number of fanout messages.
///
/// Runs in Apply on nets this party owns with all of their drivers, so
/// the `comp_drive` entries read here are its own and already applied,
/// and only this party touches the nets' values.
fn merge_and_route(core: &Core<'_>, party: usize, st: &mut PartyState) -> u64 {
    // Of several changes onto one net the last popped wins (last writer
    // wins); scanning backwards, that is the first one met.
    for a in st.merged.iter().rev() {
        if !st.seen.insert(a.net) {
            continue;
        }
        // SAFETY: see the function docs.
        unsafe {
            let v = core
                .img
                .external_drive(NetId(a.net), |d| core.comp_drive.get(d.index()));
            if core.net_values.get(a.net as usize) != v {
                core.net_values.set(a.net as usize, v);
                st.changed.push(Changed {
                    key: a.net,
                    net: a.net,
                    cause: a.comp,
                });
            }
        }
    }
    st.seen.clear();
    route_fanout(core, party, st)
}

/// Records one event per net in `st.changed` and hands its
/// fanout components to their owners — this party's own to its
/// `to_eval` set, the others' by mail — counting the messages as the
/// machine would send them. Returns the number of fanout messages.
fn route_fanout(core: &Core<'_>, party: usize, st: &mut PartyState) -> u64 {
    let mut routed = 0u64;
    for &Changed { net, cause, .. } in &st.changed {
        // SAFETY: a component is the cause of events on nets of one
        // owner only (see `Core::activity`), and that owner is here.
        unsafe {
            core.activity
                .set(cause as usize, core.activity.get(cause as usize) + 1);
        }
        let fanout = core.netlist.fanout(NetId(net));
        routed += fanout.len() as u64;
        let Some(&from) = core.place.get(cause as usize) else {
            // One party and no partition: everything is this party's
            // own, and nothing crosses.
            for &CompId(f) in fanout {
                st.to_eval.insert(f);
            }
            continue;
        };
        for &CompId(f) in fanout {
            let to = core.place[f as usize];
            if to.owner as usize == party {
                st.to_eval.insert(f);
            } else {
                // SAFETY: only this party fills its outboxes this phase.
                unsafe { core.eval_mail.mail(party, to.owner as usize) }.push(f);
                #[cfg(test)]
                {
                    st.mailed += 1;
                }
            }
            // Self-messages (feedback into the producing component)
            // stay processor-local under every assignment, so they are
            // excluded from the Eq. 6 base as well as from the crossing
            // count.
            if from.part != u32::MAX && to.part != u32::MAX && cause != f {
                st.component_msgs += 1;
                if from.part != to.part {
                    st.crossing += 1;
                    st.messages_sent[from.part as usize % core.workers] += 1;
                }
            }
        }
    }
    st.messages_inf += routed;
    routed
}

/// Resolve phase: settle the dirty switch groups this party owns in
/// ascending group order, writing member-net values and settle records,
/// and route the fanout of every net that changed.
fn party_resolve(core: &Core<'_>, party: usize, tick: u64) {
    // SAFETY: unique slot access during a phase. Net reads and writes
    // stay inside this party's coupling clusters (or read nets no party
    // writes this phase); `comp_drive` is stable during resolution.
    let st = unsafe { core.parties.get_mut(party) };
    st.changed.clear();
    if st.dirty.is_empty() {
        return;
    }
    let m = st.obs.mark();
    let gids = st.dirty.sorted();
    for &gid in gids {
        core.img.solver.settle(
            &core.img.groups,
            gid,
            &mut st.solver,
            // SAFETY: see above.
            |d| unsafe { core.comp_drive.get(d.index()) },
            |net| unsafe { core.net_values.get(net.index()) },
            // SAFETY: a group's switch slots are this party's alone.
            |slot, code| unsafe { core.settled.set(slot, code) },
            |net, v, cause| {
                // SAFETY: member nets belong to this party's cluster.
                unsafe { core.net_values.set(net.index(), v) };
                st.changed.push(Changed {
                    key: gid,
                    net: net.0,
                    cause: cause.0,
                });
            },
        );
    }
    let resolved = gids.len() as u64;
    st.dirty.clear();
    st.load.group_resolutions += resolved;
    st.mark_busy(tick);
    let m = st.obs.rec(Phase::Resolve, tick, m, resolved);
    let routed = route_fanout(core, party, st);
    st.obs.rec(Phase::Exchange, tick, m, routed);
}

/// Eval phase: evaluate the fanout components this party owns — its
/// own set and the mail drained into it — in ascending id order,
/// scheduling delayed output changes into the party's own wheel and
/// putting an evaluated switch's group, which this party owns too, into
/// its `dirty` set when what the group reads through the switch moved.
fn party_eval(core: &Core<'_>, party: usize, tick: u64) {
    // SAFETY: unique slot access during a phase; `net_values` is
    // read-only in this phase; per-component state touched here belongs
    // to owned components.
    let st = unsafe { core.parties.get_mut(party) };
    st.scheduled = 0;
    // SAFETY: only this party drains its inboxes this phase; the
    // senders filled them in Apply or Resolve.
    unsafe { core.eval_mail.drain_into(party, &mut st.inbox) };
    if st.inbox.is_empty() && st.to_eval.is_empty() {
        return;
    }
    let m = st.obs.mark();
    for ci in st.inbox.drain(..) {
        st.to_eval.insert(ci);
    }
    let to_eval = st.to_eval.sorted();
    let m = st.obs.rec(Phase::Exchange, tick, m, 0);
    let comps = core.img.comps;
    let mut evaluations = 0u64;
    for &ci in to_eval {
        debug_assert_eq!(core.owner(ci as usize), party);
        match comps.kind(ci as usize) {
            ComponentKind::Gate(kind) => {
                evaluations += 1;
                let out = kind.evaluate_pins(comps.pins(ci as usize), |n| {
                    // SAFETY: see above.
                    unsafe { core.net_values.get(n.index()) }.level
                });
                let d = comps.delay(ci as usize).for_transition(out.level);
                // Inertial scheduling: a change replaces the one in
                // flight, and one back to the applied drive cancels it.
                // SAFETY: `ci` is owned by this party.
                unsafe {
                    if core.last_scheduled.get(ci as usize) != out {
                        core.last_scheduled.set(ci as usize, out);
                        let seq = if out == core.comp_drive.get(ci as usize) {
                            0
                        } else {
                            st.scheduled += 1;
                            st.seq += 1;
                            let change = PChange {
                                comp: ci,
                                drive: out,
                                seq: st.seq,
                            };
                            st.wheel.schedule(tick + u64::from(d), change);
                            st.seq
                        };
                        core.pending.set(ci as usize, seq);
                    }
                }
            }
            ComponentKind::Switch(_) => {
                evaluations += 1;
                let (group, slot) = core.img.solver.locate(ci);
                let read = core
                    .img
                    .solver
                    .conduction_read(&core.img.groups, group, slot, |net| {
                        // SAFETY: see above.
                        unsafe { core.net_values.get(net.index()) }.level
                    });
                // SAFETY: `settled` is written in Resolve only.
                if read != unsafe { core.settled.get(slot) } {
                    st.dirty.insert(group);
                }
            }
            ComponentKind::Input | ComponentKind::Pull(_) | ComponentKind::Supply(_) => {}
        }
    }
    st.to_eval.clear();
    if evaluations > 0 {
        st.load.evaluations += evaluations;
        st.mark_busy(tick);
    }
    st.obs.rec(Phase::Eval, tick, m, evaluations);
}

/// The body of worker thread `party` (`1..workers`): wait for a
/// command, run it, join. A panic in its share is caught and flagged,
/// and the thread goes on crossing the barrier as an idle party until
/// the master, which sees the flag after the join, shuts the run down;
/// the panic is handed back for the master to resume.
fn worker_loop(core: &Core<'_>, party: usize) -> Option<Box<dyn Any + Send>> {
    phase_check::set_party(party);
    let mut panicked = None;
    loop {
        core.barrier.wait();
        // SAFETY: the master wrote the command before releasing the
        // barrier and does not touch it during the phase; all workers
        // may read it concurrently.
        let cmd = unsafe { *core.cmd.get(0) };
        if matches!(cmd, Cmd::Exit) {
            return panicked;
        }
        if panicked.is_none() {
            let share = unwind::catch_unwind(AssertUnwindSafe(|| {
                #[cfg(test)]
                if core.failing_worker == Some(party) {
                    panic!("worker {party} panics on purpose");
                }
                run_party_cmd(core, party, cmd);
            }));
            if let Err(payload) = share {
                core.worker_panicked.store(true, Ordering::Relaxed);
                panicked = Some(payload);
            }
        }
        core.barrier.wait();
    }
}

/// The owning party of every switch group: the partition party, in
/// `place`, of the lowest-id switch of its coupling cluster. Groups are
/// united when one's resolution can observe another within a settle
/// pass (a switch whose control net lies in the other group).
fn cluster_parties(img: &Image<'_>, place: &[Place]) -> Vec<u32> {
    let ng = img.groups.num_groups();
    let mut clusters = UnionFind::new(ng);
    for gid in 0..ng as u32 {
        for &sw in img.groups.switches(gid) {
            let other = img.groups.group_of(img.comps.terminal(sw.index()));
            if other != ChannelGroups::NONE {
                clusters.union(gid, other);
            }
        }
    }
    // A group's switches ascend, so its first is its lowest.
    let mut lowest = vec![u32::MAX; ng];
    for gid in 0..ng as u32 {
        let root = clusters.find(gid) as usize;
        lowest[root] = lowest[root].min(img.groups.switches(gid)[0].0);
    }
    (0..ng as u32)
        .map(|gid| place[lowest[clusters.find(gid) as usize] as usize].owner)
        .collect()
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
    /// executed by party `k % workers`; `u32::MAX`, and every input,
    /// pull and rail, by party 0. Two exceptions keep the work on a net
    /// in one party: the non-switch drivers of a net (a tristate bus, a
    /// drive fight) follow its first one, and everything on a switch
    /// group — its switches, its nets' drivers, and any group whose
    /// switches read one of its nets — follows the lowest-id switch
    /// among them. A component keeps its partition id either way, and
    /// the message counts are the partition's.
    ///
    /// # Errors
    ///
    /// Returns [`PreflightError::NoWorkers`] if `workers == 0`,
    /// [`PreflightError::Assignment`] if `assignment.len()` differs from
    /// the netlist's component count, and otherwise [`PreflightError`]
    /// as for [`Simulator::new`](crate::Simulator::new).
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
    pub fn with_config(
        netlist: &'a Netlist,
        assignment: &[u32],
        workers: usize,
        config: SimConfig,
    ) -> Result<ParSimulator<'a>, PreflightError> {
        ParSimulator::build(netlist, Some(assignment), workers, config)
    }

    /// The engine of `workers` parties under `assignment` (`None`: every
    /// component unassigned), at power-up.
    ///
    /// # Errors
    ///
    /// As [`ParSimulator::new`]: the party count and the assignment's
    /// length are checked before anything is built.
    pub(crate) fn build(
        netlist: &'a Netlist,
        assignment: Option<&[u32]>,
        workers: usize,
        config: SimConfig,
    ) -> Result<ParSimulator<'a>, PreflightError> {
        if workers == 0 {
            return Err(PreflightError::NoWorkers);
        }
        let nc = netlist.num_components();
        if let Some(len) = assignment.map(<[u32]>::len).filter(|&len| len != nc) {
            return Err(PreflightError::Assignment {
                len,
                components: nc,
            });
        }
        let img = Image::build(netlist)?;
        let nn = netlist.num_nets();

        let mut net_values = vec![Signal::FLOATING; nn];
        let mut comp_drive = img.initial_drive();
        let mut last_scheduled = vec![Signal::FLOATING; nc];
        relax_power_up(&img, &mut net_values, &mut comp_drive, &mut last_scheduled);

        // Routing tables only where something is routed: with one party
        // and no partition named, every owner is party 0 and nothing
        // crosses (see `Core::place`).
        let assignment = assignment.filter(|a| workers > 1 || a.iter().any(|&p| p != u32::MAX));
        let mut place: Vec<Place> = assignment.map_or_else(Vec::new, |assignment| {
            (0..nc)
                .map(|ci| {
                    let part = assignment[ci];
                    let owner = match img.comps.kind(ci) {
                        ComponentKind::Gate(_) | ComponentKind::Switch(_) if part != u32::MAX => {
                            part % workers as u32
                        }
                        _ => 0,
                    };
                    Place { owner, part }
                })
                .collect()
        });
        // One placement pass: every net gets one owner — a net on a
        // switch channel its cluster's, any other net its first driver's
        // (a switch drives only channel nets) — and every component
        // driving it, switches on a channel included, runs there, each
        // keeping its partition.
        if !place.is_empty() {
            let cluster = cluster_parties(&img, &place);
            for ni in 0..nn {
                let row = img.drivers.row(ni);
                let gid = img.groups.group_of(NetId(ni as u32));
                let owner = match row.first() {
                    _ if gid != ChannelGroups::NONE => cluster[gid as usize],
                    Some(first) => place[first.index()].owner,
                    None => continue,
                };
                row.iter().for_each(|d| place[d.index()].owner = owner);
            }
        }
        // One phase clock for the whole engine: the barrier advances it
        // at every crossing, and (under `phase-check`) every shared
        // container stamps accesses with it.
        let clock = PhaseClock::new();
        // One shared time origin so every lane's samples land on a
        // single comparable timeline.
        let origin = obs::Origin::now();
        let lane = || obs::Lane::new(config.observe, origin, OBS_CAPACITY);
        let ng = img.groups.num_groups();
        let parties = SharedSlots::from_iter(
            (0..workers).map(|_| PartyState::new(workers, lane(), nc, nn, ng)),
            &clock,
        );
        let master_obs = lane();
        let settled = img.solver.unsettled();

        Ok(ParSimulator {
            core: Core {
                netlist,
                img,
                config,
                workers,
                place,
                net_values: SharedVec::from_vec(net_values, &clock),
                comp_drive: SharedVec::from_vec(comp_drive, &clock),
                last_scheduled: SharedVec::from_vec(last_scheduled, &clock),
                pending: SharedVec::from_vec(vec![0; nc], &clock),
                activity: SharedVec::from_vec(vec![0; nc], &clock),
                settled: SharedVec::from_vec(settled, &clock),
                parties,
                eval_mail: Mailboxes::new(workers, &clock),
                cmd: SharedSlots::from_iter([Cmd::Exit], &clock),
                barrier: SpinBarrier::new(workers, &clock),
                worker_panicked: AtomicBool::new(false),
                #[cfg(test)]
                failing_worker: None,
                clock,
            },
            m: Master::new(workers, master_obs),
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
    /// (e.g. for diffing whole-circuit state against another engine).
    #[must_use]
    pub fn signals(&self) -> Vec<Signal> {
        // No worker threads exist outside `run_with`, so the snapshot
        // cannot observe a concurrent writer.
        self.core.net_values.snapshot()
    }

    /// Workload counters accumulated so far (identical for every `P`
    /// on the same run).
    #[must_use]
    pub fn counters(&self) -> &WorkloadCounters {
        &self.m.counters
    }

    /// Snapshot of the per-component activity profile.
    #[must_use]
    pub fn activity(&self) -> ActivityProfile {
        // No worker threads exist outside `run_with`, so the snapshot
        // cannot observe a concurrent writer.
        ActivityProfile {
            events_per_component: self.core.activity.snapshot(),
        }
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

    /// Per-party load counters, one per worker (busy/idle ticks,
    /// evaluations, group resolutions, cross-partition messages sent).
    #[must_use]
    pub fn worker_loads(&self) -> &[WorkerLoad] {
        &self.m.loads
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
        for ci in 0..self.core.activity.len() {
            // SAFETY: no worker threads exist outside `run_with`.
            unsafe { self.core.activity.set(ci, 0) };
        }
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
        for p in 0..self.core.workers {
            // SAFETY: no worker threads exist outside `run_with`.
            unsafe { self.core.parties.get_mut(p) }.obs.reset();
        }
    }

    /// Snapshot of the per-phase wall-clock observations: one lane per
    /// party, then the master lane, which holds control work only
    /// (START fan-out, DONE collection, barrier waits). Empty unless
    /// [`SimConfig::observe`] armed the recorder.
    #[must_use]
    pub fn obs_report(&self) -> obs::ObsReport {
        let mut lanes = Vec::with_capacity(self.core.workers + 1);
        let mut lane_names = Vec::with_capacity(self.core.workers + 1);
        for p in 0..self.core.workers {
            // SAFETY: no worker threads exist outside `run_with`.
            lanes.push(unsafe { self.core.parties.get_mut(p) }.obs.report());
            lane_names.push(format!("worker {p}"));
        }
        lanes.push(self.m.obs.report());
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
    /// before that tick executes so it can drive primary inputs (as
    /// [`run_with_stimulus`](crate::stimulus::run_with_stimulus) drives
    /// `Simulator`'s one party).
    ///
    /// The calling thread is one of the `P` threads; the other `P - 1`
    /// are spawned once per call and live for the whole run (none at
    /// `P = 1`).
    pub fn run_with(&mut self, until: u64, mut stim: impl FnMut(u64, &mut InputFrame<'_, '_>)) {
        self.run(until, false, &mut stim);
    }

    /// Runs until no events remain scheduled or the clock reaches
    /// `max_tick`; returns the final tick.
    pub(crate) fn run_to_quiescence(&mut self, max_tick: u64) -> u64 {
        self.run(max_tick, true, &mut |_, _| {});
        self.m.now
    }

    /// One entry into the kernel: runs ticks as [`Master::run`] does,
    /// on the calling thread and `P - 1` workers spawned for the call.
    fn run(
        &mut self,
        until: u64,
        quiesce: bool,
        stim: &mut dyn FnMut(u64, &mut InputFrame<'_, '_>),
    ) {
        if self.m.now >= until {
            return;
        }
        let core = &self.core;
        let m = &mut self.m;
        std::thread::scope(|s| {
            let workers: Vec<_> = (1..core.workers)
                .map(|w| {
                    std::thread::Builder::new()
                        .name(format!("lsim-worker-{w}"))
                        .spawn_scoped(s, move || worker_loop(core, w))
                        .expect("spawn worker")
                })
                .collect();
            #[cfg(test)]
            {
                m.tally.spawned += workers.len();
            }
            // Shut the workers down even if the master panics (a panic
            // with workers parked at the barrier would deadlock the
            // scope join), then resume the panic: a worker's first, as
            // the master's own then only reports it.
            let result = unwind::catch_unwind(AssertUnwindSafe(|| {
                m.run(core, until, quiesce, stim);
            }));
            m.shutdown(core);
            for worker in workers {
                if let Some(payload) = worker.join().expect("a worker catches its panics") {
                    unwind::resume_unwind(payload);
                }
            }
            if let Err(payload) = result {
                unwind::resume_unwind(payload);
            }
        });
        // The workers' last act was reading `Cmd::Exit` *after* the
        // shutdown barrier crossing, in the then-current phase. Open a
        // fresh phase now that they have joined, so the master's
        // between-run accesses (and the next run's first command
        // publish) never share a phase with that final read.
        self.core.clock.advance();
        self.m.absorb(&self.core);
    }

    /// [`crate::engine::stale_groups`] of the current state.
    #[cfg(test)]
    pub(crate) fn stale_groups(&self) -> Vec<(u32, bool)> {
        // No worker threads exist outside `run_with`, so the snapshots
        // cannot observe a concurrent writer.
        crate::engine::stale_groups(
            &self.core.img,
            &self.core.net_values.snapshot(),
            &self.core.comp_drive.snapshot(),
            &self.core.settled.snapshot(),
        )
    }

    /// Heap bytes of the per-element state beyond the image: the
    /// per-component and per-net arrays, the routing tables and every
    /// party's worklist sets. What scales with the work in flight —
    /// wheels, mail, scratch — is empty before a run and not counted.
    #[cfg(test)]
    pub(crate) fn state_heap_bytes(&self) -> usize {
        let c = &self.core;
        let arrays = c.net_values.heap_bytes()
            + c.comp_drive.heap_bytes()
            + c.last_scheduled.heap_bytes()
            + c.pending.heap_bytes()
            + c.activity.heap_bytes()
            + c.settled.heap_bytes();
        let routing = std::mem::size_of_val(c.place.as_slice());
        let worklists: usize = (0..c.workers)
            .map(|p| {
                // SAFETY: no worker threads exist outside `run_with`.
                let st = unsafe { c.parties.get(p) };
                st.seen.heap_bytes() + st.dirty.heap_bytes() + st.to_eval.heap_bytes()
            })
            .sum();
        arrays + routing + worklists
    }

    /// Per party, the schedule entries its event list has room for:
    /// the wheel's buffers and the drain buffer they circulate through.
    #[cfg(test)]
    pub(crate) fn retained_schedule_capacity(&self) -> Vec<usize> {
        (0..self.core.workers)
            .map(|p| {
                // SAFETY: no worker threads exist outside `run_with`.
                let st = unsafe { self.core.parties.get(p) };
                st.wheel.retained().sum::<usize>() + st.changes.capacity()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use logicsim_circuits::Benchmark;
    use logicsim_netlist::{ComponentRef, Delay, GateKind, NetlistBuilder, SwitchKind};

    /// Assignment that deals every gate/switch round-robin to `parts`.
    fn round_robin(netlist: &Netlist, parts: u32) -> Vec<u32> {
        let mut next = 0u32;
        netlist
            .iter()
            .map(|(_, c)| {
                if matches!(c, ComponentRef::Gate { .. } | ComponentRef::Switch { .. }) {
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

        // P = 8 exceeds the latch's four components.
        for workers in [1, 2, 3, 4, 8] {
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

    /// A stimulus script: called with the tick about to execute and the
    /// engine's input setter.
    type Script<'a> = &'a dyn Fn(u64, &mut dyn FnMut(NetId, Level));

    /// Runs `script` (called once per tick, before the tick executes)
    /// for `until` ticks on the serial engine and on `ParSimulator`, both
    /// collecting traces; checks every net, the counters, the trace and
    /// the activity profile against the serial run and returns what the
    /// thread model did.
    fn run_against_serial(
        n: &Netlist,
        assignment: &[u32],
        workers: usize,
        until: u64,
        script: Script<'_>,
    ) -> (Tally, WorkloadCounters) {
        let config = SimConfig {
            collect_trace: true,
            ..SimConfig::default()
        };
        let mut serial = Simulator::with_config(n, config.clone()).expect("pre-flight");
        while serial.now() < until {
            let now = serial.now();
            script(now, &mut |net, l| serial.set_input(net, l));
            serial.step();
        }
        let mut par =
            ParSimulator::with_config(n, assignment, workers, config).expect("pre-flight");
        par.run_with(until, |tick, frame| {
            script(tick, &mut |net, l| frame.set(net, l));
        });
        let label = format!("P={workers} {assignment:?}");
        for i in 0..n.num_nets() {
            let net = NetId(i as u32);
            assert_eq!(par.signal(net), serial.signal(net), "{net} {label}");
        }
        assert_eq!(par.counters(), serial.counters(), "{label}");
        assert_eq!(par.trace(), serial.trace(), "{label}");
        assert_eq!(par.activity(), serial.activity(), "{label}");
        (par.m.tally, par.counters().clone())
    }

    /// Runs `fan_circuit` for 40 ticks on both engines, `a` toggling at
    /// ticks 0, 10, .. and `b` at `b_at`, `b_at + 10`, ..; returns what
    /// the thread model did. The circuit is quiet again three ticks
    /// after an input changes.
    fn fan_run(gates: [u32; 4], workers: usize, b_at: u64) -> Tally {
        let n = fan_circuit();
        let (a, b) = (n.find_net("a").unwrap(), n.find_net("b").unwrap());
        let mut assignment = vec![u32::MAX; 2];
        assignment.extend(gates);
        let (tally, counters) = run_against_serial(&n, &assignment, workers, 40, &|tick, set| {
            if tick.is_multiple_of(10) {
                set(a, Level::from_bool(tick.is_multiple_of(20)));
            }
            if tick % 10 == b_at {
                set(b, Level::from_bool(tick % 20 == b_at));
            }
        });
        assert!(counters.busy_ticks > 8);
        tally
    }

    #[test]
    fn phases_with_one_busy_thread_skip_the_handshake() {
        // `b` changes while the circuit is quiet, so every phase has
        // work in one party: party 0 when an input is applied (and, with
        // the gates in party 0 or unassigned, all along), else the party
        // that holds the gates. Whichever party that is, it is the only
        // one.
        for gates in [[1; 4], [0; 4], [u32::MAX; 4]] {
            let tally = fan_run(gates, 2, 5);
            assert_eq!(tally.handshakes, 0, "{gates:?}");
            assert!(tally.inline_phases > 0, "{gates:?}");
            assert_eq!(tally.spawned, 1);
        }
        // `b` changes in the tick that applies `na`: party 0 (the
        // inputs' owner) and the gates' party both have work in that
        // Apply phase. With the gates in party 0 that is one party.
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
    fn input_net_fans_out_to_both_parties_in_one_tick() {
        // `b` feeds the inverter in party 0 and the XOR in party 1.
        // Party 0, the inputs' owner, applies it and resolves the net on
        // its own (an inline Apply), and the Eval phase of the same tick
        // has mail for both parties.
        let tally = fan_run([0, 0, 0, 1], 2, 5);
        assert!(tally.handshakes >= 4, "one per change of `b`: {tally:?}");
    }

    /// Two buses with two tristate drivers each — `x` driven by
    /// components 4 and 5, `y` by 6 and 7 — read by an inverter (8) and
    /// an XOR (9); components 0..=3 are the inputs.
    fn bus_circuit() -> Netlist {
        let mut b = NetlistBuilder::new("buses");
        let (d0, d1) = (b.input("d0"), b.input("d1"));
        let (en0, en1) = (b.input("en0"), b.input("en1"));
        let (x, y, q, r) = (b.net("x"), b.net("y"), b.net("q"), b.net("r"));
        b.gate(GateKind::Tristate, &[d0, en0], x, Delay::uniform(1));
        b.gate(GateKind::Tristate, &[d1, en1], x, Delay::uniform(1));
        b.gate(GateKind::Tristate, &[d1, en0], y, Delay::uniform(1));
        b.gate(GateKind::Tristate, &[d0, en1], y, Delay::uniform(1));
        b.gate(GateKind::Not, &[x], q, Delay::uniform(1));
        b.gate(GateKind::Xor, &[x, y], r, Delay::uniform(2));
        b.finish().unwrap()
    }

    /// Drives `bus_circuit` for 60 ticks: the enables swap at tick 10
    /// (both drivers of a bus change in one tick), fight from 20, float
    /// from 40, while the data inputs keep toggling.
    fn bus_run(gates: [u32; 6], workers: usize) -> Tally {
        let n = bus_circuit();
        let net = |s: &str| n.find_net(s).unwrap();
        let (d0, d1, en0, en1) = (net("d0"), net("d1"), net("en0"), net("en1"));
        let mut assignment = vec![u32::MAX; 4];
        assignment.extend(gates);
        let (tally, counters) = run_against_serial(&n, &assignment, workers, 60, &|tick, set| {
            if tick.is_multiple_of(5) {
                set(d0, Level::from_bool(tick.is_multiple_of(10)));
                set(d1, Level::from_bool(tick.is_multiple_of(15)));
            }
            match tick {
                0 => (set(en0, Level::One), set(en1, Level::Zero)),
                10 => (set(en0, Level::Zero), set(en1, Level::One)),
                20 => (set(en0, Level::One), ()),
                40 => (set(en0, Level::Zero), set(en1, Level::Zero)),
                _ => ((), ()),
            };
        });
        assert!(counters.events > 20);
        tally
    }

    /// The party that runs each component of `n` under `assignment`.
    fn owners(n: &Netlist, assignment: &[u32], workers: usize) -> Vec<usize> {
        let par = ParSimulator::new(n, assignment, workers).expect("pre-flight");
        (0..n.num_components())
            .map(|ci| par.core.owner(ci))
            .collect()
    }

    #[test]
    fn every_driver_of_a_net_runs_in_its_first_drivers_party() {
        // Components 4..=7 drive the buses `x` (4, 5) and `y` (6, 7),
        // dealt over four partitions; the readers keep theirs.
        let n = bus_circuit();
        let assignment = [u32::MAX, u32::MAX, u32::MAX, u32::MAX, 0, 1, 2, 3, 1, 2];
        assert_eq!(owners(&n, &assignment, 4)[4..], [0, 0, 2, 2, 1, 2]);
        assert_eq!(owners(&n, &assignment, 3)[4..], [0, 0, 2, 2, 1, 2]);
        // A pull is a non-switch driver too: on `x` it is the first, so
        // party 0 runs both tristate drivers. A switch drives nothing
        // Apply merges, and its channel puts `y` and `d` in one group,
        // which follows the switch: party 1 runs the input `d`, both
        // drivers of `y` and the switch.
        let mut b = NetlistBuilder::new("pulled");
        let (d, en) = (b.input("d"), b.input("en"));
        let (x, y) = (b.net("x"), b.net("y"));
        b.pull(x, Level::One);
        b.gate(GateKind::Tristate, &[d, en], x, Delay::uniform(1));
        b.gate(GateKind::Tristate, &[en, d], x, Delay::uniform(1));
        b.gate(GateKind::Tristate, &[d, en], y, Delay::uniform(1));
        b.gate(GateKind::Tristate, &[en, d], y, Delay::uniform(1));
        b.switch(SwitchKind::Nmos, en, y, d);
        let n = b.finish().unwrap();
        let assignment = [u32::MAX, u32::MAX, u32::MAX, 1, 1, 0, 1, 1];
        assert_eq!(owners(&n, &assignment, 2), [1, 0, 0, 0, 0, 1, 1, 1]);
    }

    #[test]
    fn a_bus_cut_by_the_partition_runs_in_one_party() {
        // `x` has a driver in each partition and `y` too: each bus runs
        // whole in its first driver's party, so no party ever changes a
        // drive onto a net another party owns, and every net, counter,
        // trace row and activity count is the one-party run's. When the
        // enables swap, both drivers of a bus change in one tick.
        let n = bus_circuit();
        for (gates, workers) in [([0, 1, 0, 0, 1, 0], 2), ([0, 1, 1, 0, 1, 0], 2)] {
            let mut assignment = vec![u32::MAX; 4];
            assignment.extend(gates);
            let owner = owners(&n, &assignment, workers);
            assert_eq!(owner[4], owner[5], "{gates:?}");
            assert_eq!(owner[6], owner[7], "{gates:?}");
            bus_run(gates, workers);
        }
        // At P = 1 an unassigned driver lands in party 0 with the
        // others, and nobody shakes hands.
        let tally = bus_run([0, u32::MAX, 0, 0, 0, 0], 1);
        assert_eq!(tally.handshakes, 0, "{tally:?}");
    }

    /// Two tristate drivers on `x`, a slow one (component 4, delay 3)
    /// and a fast one (5, delay 1), read by an inverter (6); components
    /// 0..=3 are the inputs `d0`, `en0`, `d1`, `en1`.
    fn slow_fast_bus() -> Netlist {
        let mut b = NetlistBuilder::new("slow_fast");
        let (d0, en0) = (b.input("d0"), b.input("en0"));
        let (d1, en1) = (b.input("d1"), b.input("en1"));
        let (x, q) = (b.net("x"), b.net("q"));
        b.gate(GateKind::Tristate, &[d0, en0], x, Delay::uniform(3));
        b.gate(GateKind::Tristate, &[d1, en1], x, Delay::uniform(1));
        b.gate(GateKind::Not, &[x], q, Delay::uniform(1));
        b.finish().unwrap()
    }

    #[test]
    fn changes_scheduled_in_different_ticks_merge_in_pop_order() {
        // `d0` falls at tick 10 and `en1` rises at tick 12: the slow
        // driver, evaluated in tick 10, and the fast one, evaluated in
        // tick 12, both land a 0 in tick 13's slot, in that order. Both
        // drivers run in one party, so `x` is merged in Apply by pop
        // order; the serial engine's last writer, the fast driver, must
        // be the event's cause, not the first change popped.
        let n = slow_fast_bus();
        let net = |s: &str| n.find_net(s).unwrap();
        let (d0, en0, d1, en1) = (net("d0"), net("en0"), net("d1"), net("en1"));
        let script = |tick: u64, set: &mut dyn FnMut(NetId, Level)| match tick {
            0 => {
                set(d0, Level::One);
                set(en0, Level::One);
                set(d1, Level::Zero);
                set(en1, Level::Zero);
            }
            10 => set(d0, Level::Zero),
            12 => set(en1, Level::One),
            _ => {}
        };
        let mut serial = Simulator::with_config(
            &n,
            SimConfig {
                collect_trace: true,
                ..SimConfig::default()
            },
        )
        .expect("pre-flight");
        while serial.now() < 20 {
            let now = serial.now();
            script(now, &mut |net, l| serial.set_input(net, l));
            serial.step();
        }
        let tick13 = serial
            .trace()
            .ticks
            .iter()
            .find(|r| r.tick == 13)
            .expect("x falls at 13");
        assert_eq!(tick13.events[0].source, 5, "{tick13:?}");
        // The drivers in the last party, or dealt one to each party (the
        // slow one's party runs both), the inverter in party 0.
        for (workers, slow, fast) in [(1, 0, 0), (2, 1, 1), (2, 1, 0)] {
            let assignment = [u32::MAX, u32::MAX, u32::MAX, u32::MAX, slow, fast, 0];
            run_against_serial(&n, &assignment, workers, 20, &script);
        }
    }

    #[test]
    fn one_party_mails_nothing_and_two_mail_only_what_crosses() {
        // At P = 1 every fanout component, net and switch group belongs
        // to the one party: nothing goes through a mailbox.
        let none = 0;
        assert_eq!(fan_run([0, 1, 2, 3], 1, 1).mailed, none);
        assert_eq!(bus_run([0, 1, 2, 3, 4, 5], 1).mailed, none);
        let n = latch_circuit();
        let (s_n, r_n) = (n.find_net("s_n").unwrap(), n.find_net("r_n").unwrap());
        let latch_script = |tick: u64, set: &mut dyn FnMut(NetId, Level)| match tick {
            0 => (set(s_n, Level::Zero), set(r_n, Level::One)).0,
            10 => set(s_n, Level::One),
            20 => set(r_n, Level::Zero),
            _ => {}
        };
        let (tally, _) = run_against_serial(&n, &round_robin(&n, 1), 1, 30, &latch_script);
        assert_eq!(tally.mailed, none);
        // At P = 2 the latch's NANDs sit in different parties, so each
        // output change is mailed to the other one; and `na` feeds the
        // AND in party 0 and the XOR in party 1, so only the XOR's
        // evaluation is mailed from party 0.
        let (tally, _) = run_against_serial(&n, &round_robin(&n, 2), 2, 30, &latch_script);
        assert!(tally.mailed > 0, "{tally:?}");
        assert_eq!(fan_run([0, 0, 0, 0], 2, 5).mailed, none);
        assert!(fan_run([0, 1, 0, 1], 2, 5).mailed > 0);
        // The transmission-gate latch's group runs in party 1 with both
        // its switches and the input `d` on its channel; its reader and
        // the inverter making `en_n` run in party 0. Only fanout crosses:
        // `q` to the reader, `en_n` to the pMOS switch.
        let n = tg_latch();
        let (d, en) = (n.find_net("d").unwrap(), n.find_net("en").unwrap());
        let tg_script = |tick: u64, set: &mut dyn FnMut(NetId, Level)| {
            if tick.is_multiple_of(4) {
                set(d, Level::from_bool(tick.is_multiple_of(8)));
            }
            match tick {
                0 | 40 => set(en, Level::One),
                20 => set(en, Level::Zero),
                _ => {}
            }
        };
        let (tally, _) = run_against_serial(&n, &round_robin(&n, 1), 1, 60, &tg_script);
        assert_eq!(tally.mailed, none);
        let assignment = [u32::MAX, u32::MAX, 0, 1, 1, 0];
        assert_eq!(owners(&n, &assignment, 2), [1, 0, 0, 1, 1, 0]);
        let (tally, _) = run_against_serial(&n, &assignment, 2, 60, &tg_script);
        assert!(tally.mailed > 0, "{tally:?}");
    }

    #[test]
    fn switch_cluster_with_control_net_owned_elsewhere_matches_serial() {
        // The pass-transistor mux again: its one switch group {a, z, b}
        // follows its lowest-id switch, in partition 0, so party 0 runs
        // both switches and resolves the group, while its control net
        // `sel_n`, the inverter's output, belongs to party 1.
        let mut b = NetlistBuilder::new("ptmux");
        let sel = b.input("sel");
        let sel_n = b.net("sel_n");
        let a = b.input("a");
        let bb = b.input("b");
        let z = b.net("z");
        b.gate(GateKind::Not, &[sel], sel_n, Delay::uniform(1));
        b.switch(SwitchKind::Nmos, sel, a, z);
        b.switch(SwitchKind::Nmos, sel_n, bb, z);
        let n = b.finish().unwrap();
        // Components: sel, a, b, then the inverter and the switches.
        let assignment = [u32::MAX, u32::MAX, u32::MAX, 1, 0, 1];
        for workers in [2, 3] {
            assert_eq!(owners(&n, &assignment, workers)[3..], [1, 0, 0]);
            let (_, counters) = run_against_serial(&n, &assignment, workers, 40, &|tick, set| {
                if tick.is_multiple_of(10) {
                    set(sel, Level::from_bool(tick.is_multiple_of(20)));
                }
                if tick.is_multiple_of(4) {
                    set(a, Level::from_bool(tick.is_multiple_of(8)));
                    set(bb, Level::from_bool(!tick.is_multiple_of(8)));
                }
            });
            assert!(counters.group_resolutions > 8);
        }
    }

    #[test]
    fn every_switch_group_runs_whole_in_one_party() {
        // On the switch-level families, dealt round-robin, every switch
        // of a group and every component driving its nets run in one
        // party, and so does every group whose switches one of them
        // controls: no dirty mark and no settle record ever crosses.
        let families = [
            Benchmark::StopWatch,
            Benchmark::AssocMem,
            Benchmark::PriorityQueue,
            Benchmark::RtpChip,
        ];
        for bench in families {
            let n = bench.build_default().netlist;
            for workers in [2, 3, 8] {
                let par = ParSimulator::new(&n, &round_robin(&n, workers as u32), workers)
                    .expect("pre-flight");
                let (img, owner) = (&par.core.img, |ci: usize| par.core.owner(ci));
                let groups = &img.groups;
                let party_of = |gid: u32| owner(groups.switches(gid)[0].index());
                let mut cut = 0;
                for gid in 0..groups.num_groups() as u32 {
                    let party = party_of(gid);
                    for &sw in groups.switches(gid) {
                        cut += usize::from(owner(sw.index()) != party);
                        let control = groups.group_of(img.comps.terminal(sw.index()));
                        if control != ChannelGroups::NONE {
                            cut += usize::from(party_of(control) != party);
                        }
                    }
                    for net in groups.members(gid) {
                        for d in img.drivers.row(net.index()) {
                            cut += usize::from(owner(d.index()) != party);
                        }
                    }
                }
                assert_eq!(cut, 0, "{bench:?} at P={workers}");
            }
        }
    }

    #[test]
    fn a_switch_on_one_net_runs_with_the_nets_owner() {
        // `y = NOT a` with an nMOS from `y` to `y` gated by `a`, read by
        // `z = NOT y`: the switch's group has one net. Components: `a`,
        // the inverter making `y`, the switch, the reader.
        let mut b = NetlistBuilder::new("self_loop");
        let a = b.input("a");
        let (y, z) = (b.net("y"), b.net("z"));
        b.gate(GateKind::Not, &[a], y, Delay::uniform(1));
        b.switch(SwitchKind::Nmos, a, y, y);
        b.gate(GateKind::Not, &[y], z, Delay::uniform(1));
        let n = b.finish().unwrap();
        let script = |tick: u64, set: &mut dyn FnMut(NetId, Level)| match tick % 12 {
            0 => set(a, Level::One),
            4 => set(a, Level::Zero),
            8 => set(a, Level::X),
            _ => {}
        };
        // The switch's partition maps to party 0, to party 1, and (at
        // P = 3) to a party that neither `y`'s driver's partition nor
        // the reader's maps to; the driver runs with the switch every
        // time.
        for (workers, gates) in [
            (2, [1, 0, 1]),
            (2, [0, 1, 0]),
            (3, [2, 1, 0]),
            (3, [0, 2, 1]),
        ] {
            let mut assignment = vec![u32::MAX];
            assignment.extend(gates);
            let owner = owners(&n, &assignment, workers);
            assert_eq!(owner[1], owner[2], "P={workers} {gates:?}");
            let (_, counters) = run_against_serial(&n, &assignment, workers, 48, &script);
            assert!(counters.group_resolutions > 0, "{counters:?}");
        }
        // The one-net group's net controls a switch of a two-net group
        // (an nMOS from the input `p` to `q`, read by `r = NOT q`). `y`
        // is a tristate's output with a pull-up, so while the tristate
        // is off and `c` is X, settling `y` forces it to X; a settle that
        // forces `y` and one that reads it can fall in one Resolve pass,
        // so the two groups form one cluster, run by the party of its
        // lowest-id switch, the one on `y`. Components: `c`, `a`, `en`,
        // `p`, the tristate, the pull, the switch on `y`, the switch from
        // `p` to `q`, the reader.
        let mut b = NetlistBuilder::new("self_loop_cluster");
        let (c, a, en, p) = (b.input("c"), b.input("a"), b.input("en"), b.input("p"));
        let (y, q, r) = (b.net("y"), b.net("q"), b.net("r"));
        b.gate(GateKind::Tristate, &[a, en], y, Delay::uniform(1));
        b.pull(y, Level::One);
        b.switch(SwitchKind::Nmos, c, y, y);
        b.switch(SwitchKind::Nmos, y, p, q);
        b.gate(GateKind::Not, &[q], r, Delay::uniform(1));
        let n = b.finish().unwrap();
        let script = |tick: u64, set: &mut dyn FnMut(NetId, Level)| {
            if tick.is_multiple_of(3) {
                set(p, Level::from_bool(tick.is_multiple_of(6)));
            }
            match tick % 20 {
                0 => (set(c, Level::X), set(a, Level::Zero), set(en, Level::One)).0,
                4 | 12 => set(en, Level::Zero),
                8 => set(en, Level::One),
                14 => set(c, Level::One),
                16 => set(en, Level::One),
                _ => {}
            }
        };
        for (workers, parts) in [(2, [1, 1, 0, 0]), (2, [0, 1, 0, 1]), (3, [2, 0, 1, 2])] {
            let mut assignment = vec![u32::MAX; 4];
            assignment.extend([parts[0], u32::MAX, parts[1], parts[2], parts[3]]);
            let owner = owners(&n, &assignment, workers);
            let party = parts[1] as usize % workers;
            assert_eq!(owner[3..8], [party; 5], "P={workers} {parts:?}");
            let (_, counters) = run_against_serial(&n, &assignment, workers, 80, &script);
            assert!(counters.group_resolutions > 8, "{counters:?}");
        }
    }

    #[test]
    fn a_worker_panic_reaches_the_caller() {
        // `na` fans out to the AND in party 0 and the XOR in party 1, so
        // the Eval phase that follows handshakes, and worker 1 panics in
        // its share. The run must end with that panic, not spin at the
        // barrier; it runs on a thread of its own so that a hang fails
        // the test instead of stalling the suite.
        let n: &'static Netlist = Box::leak(Box::new(fan_circuit()));
        let (a, b) = (n.find_net("a").unwrap(), n.find_net("b").unwrap());
        let assignment = [u32::MAX, u32::MAX, 0, 1, 0, 1];
        let mut par = ParSimulator::new(n, &assignment, 2).expect("pre-flight");
        par.core.failing_worker = Some(1);
        let (done, outcome) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let run = unwind::catch_unwind(AssertUnwindSafe(|| {
                par.run_with(40, |tick, frame| {
                    frame.set(a, Level::from_bool(tick.is_multiple_of(20)));
                    frame.set(b, Level::from_bool(tick % 20 < 5));
                });
            }));
            let message = run.err().map(|payload| match payload.downcast::<String>() {
                Ok(message) => *message,
                Err(_) => "a panic without a message".to_string(),
            });
            done.send(message).expect("the test waits");
        });
        let message = outcome
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the run ended instead of hanging");
        runner.join().expect("the run's thread caught the panic");
        assert_eq!(message.as_deref(), Some("worker 1 panics on purpose"));
    }

    /// A transmission-gate latch: `d` passes onto the storage node `q`
    /// while `en` is 1 (an nMOS gated by `en`, a pMOS by `en_n`, the
    /// inverted `en`), and `q` is read by an inverter. Components: `d`,
    /// `en`, the inverter making `en_n`, the two switches, the reader.
    fn tg_latch() -> Netlist {
        let mut b = NetlistBuilder::new("tg_latch");
        let (d, en) = (b.input("d"), b.input("en"));
        let (en_n, q, y) = (b.net("en_n"), b.net("q"), b.net("y"));
        b.gate(GateKind::Not, &[en], en_n, Delay::uniform(1));
        b.transmission_gate(en, en_n, d, q);
        b.gate(GateKind::Not, &[q], y, Delay::uniform(1));
        b.finish().unwrap()
    }

    #[test]
    fn a_latch_settles_in_one_resolve_phase_per_tick() {
        // `d` toggles every 4 ticks; the latch closes at 20 and opens
        // again at 40. A tick that settles the group — `d` moving while
        // the latch is open, `en_n` closing the last switch — runs one
        // Resolve phase: the switches the settle re-evaluates (their
        // channel ends changed) read the conduction it read. Closing
        // `en` while `en_n` still conducts settles nothing. Settling on
        // every switch evaluation, as the engine once did, ran 35 Resolve
        // phases in 18 ticks here, all but one tick ending on an idle
        // second phase.
        let n = tg_latch();
        let (d, en) = (n.find_net("d").unwrap(), n.find_net("en").unwrap());
        let script = |tick: u64, set: &mut dyn FnMut(NetId, Level)| {
            if tick.is_multiple_of(4) {
                set(d, Level::from_bool(tick.is_multiple_of(8)));
            }
            match tick {
                0 | 40 => set(en, Level::One),
                20 => set(en, Level::Zero),
                _ => {}
            }
        };
        let assignment = round_robin(&n, 2);
        let (tally, counters) = run_against_serial(&n, &assignment, 2, 60, &script);
        // Tick by tick, the ticks that settled anything.
        let mut par = ParSimulator::new(&n, &assignment, 2).expect("pre-flight");
        let mut settling = 0;
        for t in 0..60 {
            let before = par.counters().group_resolutions;
            par.run_with(t + 1, |tick, frame| {
                script(tick, &mut |net, l| frame.set(net, l));
            });
            settling += u64::from(par.counters().group_resolutions > before);
        }
        assert_eq!(tally.resolve_phases, settling, "{tally:?}");
        assert_eq!(counters.group_resolutions, settling);
        assert_eq!(settling, 17);
    }

    #[test]
    fn settle_round_overflow_forgets_dirty_groups_like_serial() {
        // Three switch-level inverters (`n = !c`) in a ring whose links
        // are pass switches on `en`, with `rst` pulling every `c` low.
        // Reset, release, then close the links: the ring oscillates
        // inside one tick until the round bound stops it, its group
        // still dirty. The next tick must start clean, as the serial
        // engine's does.
        let mut b = NetlistBuilder::new("ring");
        let (rst, en) = (b.input("rst"), b.input("en"));
        let g = b.net("g");
        b.supply(g, Level::Zero);
        let n = [b.net("n1"), b.net("n2"), b.net("n3")];
        let c = [b.net("c1"), b.net("c2"), b.net("c3")];
        for k in 0..3 {
            b.pull(n[k], Level::One);
            b.switch(SwitchKind::Nmos, c[k], n[k], g);
            b.switch(SwitchKind::Nmos, en, n[(k + 2) % 3], c[k]);
            b.switch(SwitchKind::Nmos, rst, c[k], g);
        }
        let y = b.net("y");
        b.gate(GateKind::Buf, &[n[1]], y, Delay::uniform(1));
        let netlist = b.finish().unwrap();
        let assignment = round_robin(&netlist, 2);
        for workers in [1, 2] {
            let (_, counters) = run_against_serial(
                &netlist,
                &assignment,
                workers,
                40,
                &|tick, set| match tick {
                    0 => (set(en, Level::Zero), set(rst, Level::One)).0,
                    5 => set(rst, Level::Zero),
                    10 | 30 => set(en, Level::One),
                    20 => set(en, Level::Zero),
                    _ => (),
                },
            );
            assert_eq!(counters.relaxation_overflows, 2, "{counters:?}");
            // Two overflowing ticks of `MAX_SETTLE_ROUNDS` = 64 settle
            // passes each, and two ticks that settle the ring at once.
            assert_eq!(counters.group_resolutions, 2 * 64 + 2, "{counters:?}");
        }
    }

    #[test]
    fn every_worker_count_matches_serial() {
        // Six and ten components: at P = 8 some parties own nothing.
        for workers in [1, 2, 3, 4, 8] {
            let parts = workers as u32;
            fan_run([0, 1 % parts, 2 % parts, 3 % parts], workers, 1);
            let deal: Vec<u32> = (0..6).map(|g| g % parts).collect();
            bus_run(deal.try_into().unwrap(), workers);
        }
    }

    #[test]
    fn a_wheel_entry_is_16_bytes() {
        assert_eq!(std::mem::size_of::<PChange>(), 16);
    }

    #[test]
    fn worker_loads_cover_every_tick() {
        let n = latch_circuit();
        let s_n = n.find_net("s_n").unwrap();
        let assignment = round_robin(&n, 2);
        let mut par = ParSimulator::new(&n, &assignment, 2).expect("pre-flight");
        par.set_input(s_n, Level::Zero);
        // Two runs, so the parties' counters are folded twice.
        par.run_until(25);
        par.set_input(s_n, Level::One);
        par.run_until(40);
        assert_eq!(par.worker_loads().len(), 2);
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
