//! Synchronization primitives for the parallel engine.
//!
//! The parallel engine ([`crate::par_engine`]) runs in strict
//! bulk-synchronous phases: the master publishes a command, every party
//! does its share of the phase, and a barrier separates the phases. All
//! shared state is written by exactly one party per phase (single-writer
//! discipline), and the barrier's release/acquire pair provides the
//! happens-before edge that makes the next phase's reads sound. The
//! types here encode that discipline: a sense-reversing spin barrier,
//! two `UnsafeCell`-based containers whose `unsafe` accessors document
//! the phase-ownership obligation, and the party-to-party mailboxes
//! built on them.
//!
//! The discipline is *checked*, not just documented, on three levels:
//!
//! * compiling with `RUSTFLAGS="--cfg loom"` swaps the primitives
//!   ([`crate::sync_shim`]) for the vendored loom model checker, and
//!   the `loom_*` tests below explore every interleaving of small
//!   barrier/container schedules and one tick of the engine's mailbox
//!   protocol in miniature, including negative tests proving the
//!   checker rejects a broken barrier, an undisciplined writer and an
//!   inbox drained before the barrier;
//! * building with `--features phase-check` records every accessor
//!   call per element and phase ([`crate::phase_check`]) and panics on
//!   single-writer violations at full engine scale;
//! * `cargo xtask lint-unsafe` confines `unsafe` to this module, the
//!   shim, and the engine, and insists on `// SAFETY:` comments.

// The parallel engine's only unsafe code lives in this module, the
// sync shim, and par_engine (workspace lints deny it elsewhere); every
// block carries a SAFETY comment tied to the phase discipline above.
#![allow(unsafe_code)]

use crate::phase_check::{PhaseClock, Recorder};
use crate::sync_shim::{hint, thread, AtomicUsize, Ordering, UnsafeCell};

/// A reusable sense-reversing spin barrier for a fixed number of
/// parties.
///
/// The last arriver resets the count and bumps the generation with
/// `Release`; waiters spin on the generation with `Acquire`, so
/// everything written before a party's `wait` is visible to every party
/// after the barrier opens. After a short spin the waiters yield, which
/// keeps the barrier usable even when the host has fewer cores than
/// parties (including the single-core worst case).
///
/// The barrier also drives the phase-discipline clock: the last
/// arriver advances the [`PhaseClock`] just before reopening the
/// barrier, so (with `--features phase-check`) the access epoch
/// changes exactly when a new phase begins and never while any party
/// is mid-phase.
///
/// Aligned to its own cache lines: every party writes `count` and spins
/// on `generation`, and the barrier sits inline in the engine's shared
/// core beside fields all parties read in their hot loops. Unaligned,
/// which of those fields share a line with the counters (and so get
/// invalidated at every crossing) depends on the sizes of unrelated
/// structs.
#[derive(Debug)]
#[repr(align(128))]
pub(crate) struct SpinBarrier {
    parties: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
    clock: PhaseClock,
}

impl SpinBarrier {
    /// Creates a barrier for `parties` participants, advancing `clock`
    /// at each crossing.
    pub(crate) fn new(parties: usize, clock: &PhaseClock) -> SpinBarrier {
        assert!(parties > 0, "a barrier needs at least one party");
        SpinBarrier {
            parties,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            clock: clock.clone(),
        }
    }

    /// Blocks until all parties have arrived.
    pub(crate) fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        let arrived = self.count.fetch_add(1, Ordering::AcqRel) + 1;
        if arrived == self.parties {
            self.count.store(0, Ordering::Relaxed);
            // Before the Release bump: parties released by the bump
            // must already see the new epoch.
            self.clock.advance();
            self.generation.fetch_add(1, Ordering::Release);
            return;
        }
        let mut spins = 0u32;
        while self.generation.load(Ordering::Acquire) == gen {
            spins += 1;
            if spins < 64 {
                hint::spin_loop();
            } else {
                thread::yield_now();
            }
        }
    }
}

/// A fixed-length array of `Copy` values shared between parties, one
/// `UnsafeCell` per element (so no `&mut` to the whole array ever
/// exists and per-element access from different threads is not UB by
/// construction — only a data race on the *same* element would be).
///
/// # Safety contract
///
/// Callers must uphold the engine's phase discipline: within one
/// barrier-delimited phase, each element is written by at most one
/// party, and no party reads an element another party writes in the
/// same phase. The barrier orders cross-phase accesses.
#[derive(Debug)]
pub(crate) struct SharedVec<T> {
    cells: Box<[UnsafeCell<T>]>,
    recorder: Recorder,
}

// SAFETY: access is coordinated by the engine's barrier phases per the
// safety contract above; the cells themselves are plain data.
unsafe impl<T: Send> Sync for SharedVec<T> {}

impl<T: Copy> SharedVec<T> {
    /// Wraps a vector's elements in per-element cells, recording
    /// accesses against `clock`'s phases.
    pub(crate) fn from_vec(v: Vec<T>, clock: &PhaseClock) -> SharedVec<T> {
        let recorder = Recorder::new(clock, v.len());
        SharedVec {
            cells: into_cells(v),
            recorder,
        }
    }

    /// Number of elements.
    pub(crate) fn len(&self) -> usize {
        self.cells.len()
    }

    /// Reads element `i`.
    ///
    /// # Safety
    ///
    /// No other party may be writing element `i` in the current phase.
    #[inline]
    pub(crate) unsafe fn get(&self, i: usize) -> T {
        self.recorder.on_read(i);
        // SAFETY: per the caller's contract no party writes element `i`
        // this phase, so this shared read cannot race.
        self.cells[i].with(|p| unsafe { *p })
    }

    /// Writes element `i`.
    ///
    /// # Safety
    ///
    /// The caller must be the unique party accessing element `i` in the
    /// current phase.
    #[inline]
    pub(crate) unsafe fn set(&self, i: usize, v: T) {
        self.recorder.on_write(i);
        // SAFETY: per the caller's contract this party is the only one
        // touching element `i` this phase, so the exclusive write
        // cannot race and no other reference to the element exists.
        self.cells[i].with_mut(|p| unsafe { *p = v });
    }

    /// Heap bytes of the elements.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<T>()
    }

    /// Copies the contents out (single-threaded contexts only).
    pub(crate) fn snapshot(&self) -> Vec<T> {
        // SAFETY: callers invoke this only while no worker threads are
        // running (between `run` calls), so no concurrent writers exist.
        (0..self.len()).map(|i| unsafe { self.get(i) }).collect()
    }
}

/// The vector's allocation taken over as cells, element for element,
/// without a pass over it: a zeroed vector's pages stay untouched (and
/// out of the resident set) until the engine writes them, as a plain
/// `vec![0; n]`'s do.
#[cfg(not(loom))]
fn into_cells<T>(v: Vec<T>) -> Box<[UnsafeCell<T>]> {
    let raw = Box::into_raw(v.into_boxed_slice());
    // SAFETY: the shim's `UnsafeCell<T>` is `repr(transparent)` over
    // `std::cell::UnsafeCell<T>`, which has `T`'s in-memory
    // representation, so the two slices have one layout and the box is
    // handed back to the allocator with the layout it was made with.
    unsafe { Box::from_raw(raw as *mut [UnsafeCell<T>]) }
}

/// The vector's elements, each wrapped in loom's tracked cell.
#[cfg(loom)]
fn into_cells<T>(v: Vec<T>) -> Box<[UnsafeCell<T>]> {
    v.into_iter().map(UnsafeCell::new).collect()
}

/// A fixed set of per-party slots holding arbitrary (non-`Copy`) state,
/// accessed by `&mut` through an index.
///
/// # Safety contract
///
/// Same phase discipline as [`SharedVec`], at slot granularity: each
/// slot is touched by exactly one thread per phase (the thread that
/// runs its owner during a handshaken phase; the master between
/// phases and throughout a phase it runs without a handshake, while
/// the workers are parked at the barrier).
#[derive(Debug)]
pub(crate) struct SharedSlots<T> {
    slots: Box<[UnsafeCell<T>]>,
    recorder: Recorder,
}

// SAFETY: slot access is coordinated by the engine's barrier phases per
// the safety contract above.
unsafe impl<T: Send> Sync for SharedSlots<T> {}

impl<T> SharedSlots<T> {
    /// Builds the slots from an iterator, one per party, recording
    /// accesses against `clock`'s phases.
    pub(crate) fn from_iter(it: impl IntoIterator<Item = T>, clock: &PhaseClock) -> SharedSlots<T> {
        let slots: Box<[UnsafeCell<T>]> = it.into_iter().map(UnsafeCell::new).collect();
        let recorder = Recorder::new(clock, slots.len());
        SharedSlots { slots, recorder }
    }

    /// Shared access to slot `i` (e.g. every worker reading the phase
    /// command the master published before the barrier).
    ///
    /// # Safety
    ///
    /// No party may be writing slot `i` in the current phase.
    #[inline]
    pub(crate) unsafe fn get(&self, i: usize) -> &T {
        self.recorder.on_read(i);
        let p = self.slots[i].with(|p| p);
        // SAFETY: per the caller's contract nobody writes slot `i` this
        // phase, so shared references to it cannot alias a `&mut`.
        unsafe { &*p }
    }

    /// Mutable access to slot `i`.
    ///
    /// # Safety
    ///
    /// The caller must be the unique party accessing slot `i` in the
    /// current phase, and must not hold two references to the same slot.
    #[inline]
    #[allow(clippy::mut_from_ref)] // interior mutability guarded by the phase protocol
    pub(crate) unsafe fn get_mut(&self, i: usize) -> &mut T {
        self.recorder.on_write(i);
        let p = self.slots[i].with_mut(|p| p);
        // SAFETY: per the caller's contract this party is the only one
        // touching slot `i` this phase and holds no other reference to
        // it, so handing out `&mut` is exclusive.
        unsafe { &mut *p }
    }
}

/// One mailbox on cache lines of its own, so two parties pushing in the
/// same phase never write the same `Vec` header line (the layout rule
/// [`SpinBarrier`] follows).
#[derive(Debug)]
#[repr(align(128))]
struct Padded<T>(T);

/// `n × n` single-producer single-consumer mailboxes between `n`
/// parties: box `(src, dst)` is filled by `src` in one phase and
/// drained by `dst` in a later one, with a barrier crossing (or the
/// master running both shares itself) in between.
///
/// # Safety contract
///
/// The [`SharedSlots`] discipline at box granularity: within one phase
/// a box is touched by the thread running `src` or by the thread
/// running `dst`, never both.
#[derive(Debug)]
pub(crate) struct Mailboxes<T> {
    parties: usize,
    boxes: SharedSlots<Padded<Vec<T>>>,
}

impl<T> Mailboxes<T> {
    /// Empty mailboxes between `parties` parties, recording accesses
    /// against `clock`'s phases.
    pub(crate) fn new(parties: usize, clock: &PhaseClock) -> Mailboxes<T> {
        Mailboxes {
            parties,
            boxes: SharedSlots::from_iter(
                (0..parties * parties).map(|_| Padded(Vec::new())),
                clock,
            ),
        }
    }

    /// The box `src` fills for `dst`.
    ///
    /// # Safety
    ///
    /// The caller must be the unique party accessing box `(src, dst)`
    /// in the current phase (`src` in a phase that fills it, `dst` in a
    /// phase that drains it), and must not hold two references to it.
    #[inline]
    #[allow(clippy::mut_from_ref)] // interior mutability guarded by the phase protocol
    pub(crate) unsafe fn mail(&self, src: usize, dst: usize) -> &mut Vec<T> {
        debug_assert!(src < self.parties && dst < self.parties);
        // SAFETY: forwards this method's contract to the slot.
        &mut unsafe { self.boxes.get_mut(src * self.parties + dst) }.0
    }

    /// Moves all mail addressed to `dst` to the end of `into`, in
    /// source order.
    ///
    /// # Safety
    ///
    /// The caller must be the unique party accessing the boxes
    /// addressed to `dst` in the current phase (`dst` itself, in a phase
    /// that drains them).
    pub(crate) unsafe fn drain_into(&self, dst: usize, into: &mut Vec<T>) {
        for src in 0..self.parties {
            // SAFETY: forwards this method's contract.
            into.append(unsafe { self.mail(src, dst) });
        }
    }

    /// Whether any party has left mail for `dst`.
    ///
    /// # Safety
    ///
    /// No party may be filling or draining a box addressed to `dst` in
    /// the current phase.
    pub(crate) unsafe fn has_mail(&self, dst: usize) -> bool {
        (0..self.parties).any(|src| {
            // SAFETY: per the caller's contract nobody writes the box.
            !unsafe { self.boxes.get(src * self.parties + dst) }
                .0
                .is_empty()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn barrier_synchronizes_counters() {
        let barrier = SpinBarrier::new(4, &PhaseClock::new());
        let counter = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    for round in 1..=10u64 {
                        counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        barrier.wait();
                        // All parties incremented before anyone proceeds.
                        assert_eq!(
                            counter.load(std::sync::atomic::Ordering::Relaxed),
                            round * 3
                        );
                        barrier.wait();
                    }
                });
            }
            for round in 1..=10u64 {
                barrier.wait();
                assert_eq!(
                    counter.load(std::sync::atomic::Ordering::Relaxed),
                    round * 3
                );
                barrier.wait();
            }
        });
    }

    #[test]
    fn shared_vec_roundtrip() {
        let v = SharedVec::from_vec(vec![1u32, 2, 3], &PhaseClock::new());
        assert_eq!(v.len(), 3);
        // SAFETY: single-threaded test.
        unsafe {
            v.set(1, 9);
            assert_eq!(v.get(1), 9);
        }
        assert_eq!(v.snapshot(), vec![1, 9, 3]);
    }

    /// A seeded single-writer violation through the real accessors is
    /// caught deterministically: one thread, party id switched between
    /// the two writes, no barrier crossing in between.
    #[cfg(feature = "phase-check")]
    #[test]
    #[should_panic(expected = "phase-discipline violation")]
    fn seeded_two_writer_violation_is_caught() {
        let clock = PhaseClock::new();
        let v = SharedVec::from_vec(vec![0u32; 4], &clock);
        crate::phase_check::set_party(0);
        // SAFETY: single-threaded — the *phase* discipline (not memory
        // safety) is deliberately violated to prove the checker fires.
        unsafe { v.set(2, 1) };
        crate::phase_check::set_party(1);
        // SAFETY: see above — second party, same element, same phase.
        unsafe { v.set(2, 2) };
    }

    #[test]
    fn mailboxes_keep_one_box_per_pair() {
        let m: Mailboxes<u32> = Mailboxes::new(3, &PhaseClock::new());
        // SAFETY: single-threaded test.
        unsafe {
            m.mail(0, 2).push(7);
            m.mail(1, 2).push(8);
            assert!(m.has_mail(2) && !m.has_mail(0) && !m.has_mail(1));
            assert_eq!(m.mail(0, 2).as_slice(), &[7]);
            assert!(m.mail(2, 0).is_empty());
            let mut got = vec![6];
            m.drain_into(2, &mut got);
            assert_eq!(got, [6, 7, 8]);
            assert!(!m.has_mail(2));
        }
        // Neighbouring boxes never share a cache line pair.
        assert_eq!(std::mem::align_of::<Padded<Vec<u32>>>(), 128);
    }

    #[test]
    fn shared_slots_indexing() {
        let s = SharedSlots::from_iter(vec![vec![0u8; 0], vec![7u8]], &PhaseClock::new());
        // SAFETY: single-threaded test.
        unsafe {
            s.get_mut(0).push(5);
            assert_eq!(s.get_mut(0).as_slice(), &[5]);
            assert_eq!(s.get_mut(1).as_slice(), &[7]);
        }
    }
}

/// Model-checked schedules: run with
/// `RUSTFLAGS="--cfg loom" cargo test -p logicsim-sim --lib loom_`.
///
/// The two-party barrier tests are exhaustive (every interleaving);
/// the three-party and mini-engine tests bound preemptions
/// (CHESS-style), which is where essentially all concurrency bugs live
/// for programs this small.
#[cfg(all(loom, test))]
mod loom_tests {
    use super::*;
    use loom::sync::Arc;

    /// Two parties crossing the barrier twice, passing a message each
    /// way through a `SharedVec`. Exhaustive: proves the generation
    /// bump/reset protocol provides the happens-before edge the
    /// single-writer discipline relies on, across barrier reuse.
    #[test]
    fn loom_barrier_two_parties_message_passing() {
        loom::model(|| {
            let clock = PhaseClock::new();
            let barrier = Arc::new(SpinBarrier::new(2, &clock));
            let vals = Arc::new(SharedVec::from_vec(vec![0u32, 0], &clock));
            let b = Arc::clone(&barrier);
            let v = Arc::clone(&vals);
            let worker = loom::thread::spawn(move || {
                // Phase 1: worker writes element 1.
                // SAFETY: element 1 is worker-owned this phase.
                unsafe { v.set(1, 7) };
                b.wait();
                // Phase 2: worker reads the master's element 0.
                // SAFETY: nobody writes element 0 after the barrier.
                unsafe { v.get(0) }
            });
            // Phase 1: master writes element 0.
            // SAFETY: element 0 is master-owned this phase.
            unsafe { vals.set(0, 3) };
            barrier.wait();
            // Phase 2: master reads the worker's element 1.
            // SAFETY: nobody writes element 1 after the barrier.
            let got = unsafe { vals.get(1) };
            assert_eq!(got, 7);
            assert_eq!(worker.join().unwrap(), 3);
        });
    }

    /// Two parties reusing the barrier for two full generations, with
    /// alternating element ownership. Exhaustive: proves the
    /// count-reset (`store(0, Relaxed)`) cannot corrupt a subsequent
    /// generation's arrival count.
    #[test]
    fn loom_barrier_two_parties_reuse_two_generations() {
        loom::model(|| {
            let clock = PhaseClock::new();
            let barrier = Arc::new(SpinBarrier::new(2, &clock));
            let vals = Arc::new(SharedVec::from_vec(vec![0u32], &clock));
            let b = Arc::clone(&barrier);
            let v = Arc::clone(&vals);
            let worker = loom::thread::spawn(move || {
                // SAFETY: element 0 is worker-owned in phase 1.
                unsafe { v.set(0, 1) };
                b.wait();
                b.wait();
                // SAFETY: phase 3 reads the master's phase-2 write.
                unsafe { v.get(0) }
            });
            barrier.wait();
            // SAFETY: element 0 is master-owned in phase 2.
            unsafe { vals.set(0, 2) };
            barrier.wait();
            assert_eq!(worker.join().unwrap(), 2);
        });
    }

    /// Three parties, one crossing, disjoint writes then a gather.
    /// Preemption-bounded: 3-thread interleavings are too many to
    /// enumerate outright, and bound 3 covers every schedule reachable
    /// with up to three forced preemptions.
    #[test]
    fn loom_barrier_three_parties_bounded() {
        let mut b = loom::model::Builder::new();
        b.preemption_bound = Some(3);
        b.check(|| {
            let clock = PhaseClock::new();
            let barrier = Arc::new(SpinBarrier::new(3, &clock));
            let vals = Arc::new(SharedVec::from_vec(vec![0u32, 0, 0], &clock));
            let mut handles = Vec::new();
            for w in 0..2usize {
                let b = Arc::clone(&barrier);
                let v = Arc::clone(&vals);
                handles.push(loom::thread::spawn(move || {
                    // SAFETY: element `w` is owned by worker `w` this
                    // phase.
                    unsafe { v.set(w, w as u32 + 1) };
                    b.wait();
                }));
            }
            // SAFETY: element 2 is master-owned this phase.
            unsafe { vals.set(2, 3) };
            barrier.wait();
            // SAFETY: after the barrier all writes are ordered before
            // this gather and nobody writes anymore.
            let sum = (0..3).map(|i| unsafe { vals.get(i) }).sum::<u32>();
            assert_eq!(sum, 6);
            for h in handles {
                h.join().unwrap();
            }
        });
    }

    /// Commands of the miniature engine below.
    const EXIT: u32 = 0;
    const APPLY: u32 = 1;
    const RESOLVE: u32 = 2;
    const EVAL: u32 = 3;

    /// `par_engine`'s tick protocol in miniature at `P = 2`: three
    /// parties on two threads (the calling thread runs party 0 and the
    /// master party 2, a spawned worker runs party 1), the engine's own
    /// `Mailboxes`, `SharedVec`, `SharedSlots` and `SpinBarrier`, and
    /// one net, owned by party 0 with both of its drivers, read by a
    /// switch in each of parties 1 and 2. Each switch's group belongs to
    /// the switch's party, which marks it dirty, settles it and mails the
    /// fanout of its net back to party 0: the one mailbox kind, fanout.
    struct Mini {
        barrier: SpinBarrier,
        cmd: SharedSlots<u32>,
        /// Apply/Resolve → Eval: fanout, to the reader's owner.
        eval: Mailboxes<u32>,
        /// Per party, whether its group is dirty: written by the party
        /// in its phases, read by the master between them.
        dirty: SharedVec<u32>,
        /// One net value per owning party.
        value: SharedVec<u32>,
        /// One evaluation result per party.
        out: SharedVec<u32>,
    }

    impl Mini {
        fn new() -> Arc<Mini> {
            let clock = PhaseClock::new();
            Arc::new(Mini {
                barrier: SpinBarrier::new(2, &clock),
                cmd: SharedSlots::from_iter(vec![EXIT], &clock),
                eval: Mailboxes::new(3, &clock),
                dirty: SharedVec::from_vec(vec![0; 3], &clock),
                value: SharedVec::from_vec(vec![0; 3], &clock),
                out: SharedVec::from_vec(vec![0; 3], &clock),
            })
        }

        /// One party's share of one phase, as `par_engine::run_party_cmd`
        /// would run it.
        fn run(&self, party: usize, cmd: u32) {
            // SAFETY: the phase discipline under test, for the whole body — a
            // party fills only its own outboxes, drains only its own
            // inboxes, writes only its own elements, and reads foreign
            // ones only in a phase nobody writes them.
            unsafe {
                match cmd {
                    APPLY if party == 0 => {
                        // Both drivers' changes, 1 then 2, pop from the
                        // owner's own wheel; the last popped wins, and
                        // every reader gets a message.
                        self.value.set(0, 2);
                        for dst in 1..3 {
                            self.eval.mail(0, dst).push(10 * dst as u32);
                        }
                    }
                    EVAL => {
                        let mut mail = Vec::new();
                        self.eval.drain_into(party, &mut mail);
                        let mail: u32 = mail.iter().sum();
                        if mail > 0 {
                            self.out.set(party, mail + self.value.get(0));
                            if party != 0 {
                                self.dirty.set(party, 1);
                            }
                        }
                    }
                    RESOLVE if self.dirty.get(party) != 0 => {
                        // The party's own group settles to what its
                        // switch read, and party 0 reads the net.
                        self.dirty.set(party, 0);
                        self.value.set(party, self.out.get(party));
                        self.eval.mail(party, 0).push(party as u32);
                    }
                    _ => {}
                }
            }
        }

        /// `par_engine::worker_loop` for party 1; hands back the value
        /// its settle produced.
        fn worker(&self) -> u32 {
            loop {
                self.barrier.wait();
                // SAFETY: the master publishes the command before the
                // release crossing and leaves it alone during the phase.
                let cmd = *unsafe { self.cmd.get(0) };
                if cmd == EXIT {
                    // SAFETY: nobody writes after the exit release.
                    return unsafe { self.value.get(1) };
                }
                self.run(1, cmd);
                self.barrier.wait();
            }
        }

        /// `Master::phase` with one busy party: the master runs every
        /// party's share itself while the worker stays parked.
        fn inline(&self, cmd: u32) {
            for party in 0..3 {
                self.run(party, cmd);
            }
        }

        /// `Master::phase` with two busy threads: publish, release, the
        /// calling thread's shares (after `between`, which stands for
        /// whatever the master does first), join.
        fn handshaken(&self, cmd: u32, between: impl FnOnce()) {
            self.release(cmd);
            between();
            self.run(0, cmd);
            self.run(2, cmd);
            self.barrier.wait();
        }

        fn release(&self, cmd: u32) {
            // SAFETY: the worker is parked at the release barrier.
            *unsafe { self.cmd.get_mut(0) } = cmd;
            self.barrier.wait();
        }
    }

    /// One tick of the owner-computes protocol: Apply (only party 0 has
    /// work — it merges its own drivers' changes onto its net and mails
    /// the fanout — so the master runs every party's share itself while
    /// the worker stays parked: the skipped handshake), Eval (parties 1
    /// and 2 have mail; handshaken; each marks its own group dirty),
    /// Resolve (both dirty; handshaken; each settles its group and mails
    /// the fanout to party 0), Eval (only party 0 has mail; inline),
    /// exit. Sound because each release crossing orders the writes and
    /// pushes before it ahead of the phase's reads and drains, and each
    /// join crossing orders the worker's writes and pushes ahead of the
    /// master's reads between phases and of the next inline share.
    /// Preemption-bounded: five crossings of a spinning barrier are too
    /// many schedules to enumerate outright.
    #[test]
    fn loom_mini_engine_inline_apply_then_handshaken_eval() {
        let mut b = loom::model::Builder::new();
        b.preemption_bound = Some(2);
        b.check(|| {
            let mini = Mini::new();
            let m = Arc::clone(&mini);
            let worker = loom::thread::spawn(move || m.worker());
            mini.inline(APPLY);
            mini.handshaken(EVAL, || {});
            // SAFETY: between phases; the worker is parked.
            assert!((1..3).all(|p| unsafe { mini.dirty.get(p) } == 1));
            mini.handshaken(RESOLVE, || {});
            // SAFETY: as above.
            assert!(unsafe { mini.eval.has_mail(0) });
            mini.inline(EVAL);
            mini.release(EXIT);
            // Party 1's net: message 10 plus the last driver's 2.
            assert_eq!(worker.join().unwrap(), 12);
            // SAFETY: the worker has exited.
            let (value, out) = unsafe { (mini.value.get(2), mini.out.get(0)) };
            // Party 0's reader: messages 1 and 2 plus its own net's 2.
            assert_eq!((value, out), (22, 5));
        });
    }

    /// The broken twin: party 0 drains its inbox *inside* the Resolve
    /// phase, before the join crossing that would order the worker's
    /// push before it, and the checker flags the data race. (The yield
    /// stands for the master's own share: cell accesses are not
    /// scheduling points of the vendored checker, so without one the
    /// worker could never run between the crossing and the stray
    /// drain.)
    #[test]
    #[should_panic(expected = "data race")]
    fn loom_mini_engine_inbox_read_before_the_barrier_races() {
        let mut b = loom::model::Builder::new();
        b.preemption_bound = Some(2);
        b.check(|| {
            let mini = Mini::new();
            let m = Arc::clone(&mini);
            let worker = loom::thread::spawn(move || m.worker());
            mini.inline(APPLY);
            mini.handshaken(EVAL, || {});
            mini.handshaken(RESOLVE, || {
                thread::yield_now();
                // SAFETY: deliberately violates the contract — box
                // (1, 0) is the released worker's to fill this phase;
                // loom reports the race instead of exhibiting UB.
                unsafe { mini.eval.drain_into(0, &mut Vec::new()) };
            });
            mini.release(EXIT);
            worker.join().unwrap();
        });
    }

    /// Negative control: a barrier whose generation bump is `Relaxed`
    /// provides no happens-before edge, so the cross-phase hand-off
    /// that the real barrier makes sound is flagged as a data race.
    /// This proves the checker can actually see the failure mode the
    /// `Release`/`Acquire` pair exists to prevent.
    #[test]
    #[should_panic(expected = "data race")]
    fn loom_broken_relaxed_barrier_races() {
        loom::model(|| {
            let flag = Arc::new(AtomicUsize::new(0));
            let cell = Arc::new(UnsafeCell::new(0u32));
            let f = Arc::clone(&flag);
            let c = Arc::clone(&cell);
            let worker = loom::thread::spawn(move || {
                c.with_mut(|p| {
                    // SAFETY: modeled access; loom reports the race.
                    unsafe { *p = 42 };
                });
                // Broken hand-off: Relaxed carries no release edge.
                f.store(1, Ordering::Relaxed);
            });
            while flag.load(Ordering::Relaxed) == 0 {
                hint::spin_loop();
            }
            let got = cell.with(|p| {
                // SAFETY: modeled access; loom reports the race.
                unsafe { *p }
            });
            assert_eq!(got, 42);
            worker.join().unwrap();
        });
    }

    /// Negative control: two parties writing the same `SharedVec`
    /// element in the same phase — the exact single-writer violation
    /// the phase discipline forbids — is flagged as a data race.
    #[test]
    #[should_panic(expected = "data race")]
    fn loom_shared_vec_two_writers_race() {
        loom::model(|| {
            let clock = PhaseClock::new();
            let vals = Arc::new(SharedVec::from_vec(vec![0u32], &clock));
            let v = Arc::clone(&vals);
            let worker = loom::thread::spawn(move || {
                // SAFETY: deliberately violates the contract (both
                // parties write element 0 with no barrier between);
                // loom reports the race instead of exhibiting UB.
                unsafe { v.set(0, 1) };
            });
            // SAFETY: see above — intentional violation under the model.
            unsafe { vals.set(0, 2) };
            worker.join().unwrap();
        });
    }
}
