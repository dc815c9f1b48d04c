//! Ulrich-style timing wheel for event scheduling.
//!
//! The paper's run-time model assumes "near-constant-time event-list
//! management capabilities \[UL78\]"; this module provides exactly that: a
//! circular array of slots for the near future plus a sorted overflow map
//! for events scheduled beyond the wheel horizon. Scheduling and popping
//! are O(1) amortized for delays shorter than the wheel size, and
//! [`TimingWheel::has_current`] tells in O(1) whether the current tick
//! has anything to pop, which is all an engine asks before each tick.
//!
//! # Memory
//!
//! A slot owns an allocation only while it holds items. Draining a slot
//! into an empty buffer hands the slot's buffer over whole and keeps
//! the caller's emptied one on a free list (draining into a non-empty
//! buffer appends and keeps the slot's emptied one); the next schedule
//! into an empty slot takes its buffer from that list, and overflow
//! items move into their slot as the `Vec` they already were. A drain
//! trims the free list to one buffer more than there are non-empty
//! slots. So what the wheel retains follows the ticks in flight, not
//! its size or how long it has run: with delays of 1–2 and one reused
//! drain buffer, three buffers circulate between the wheel and its
//! caller.

use std::collections::BTreeMap;

/// A timing wheel holding items of type `T` keyed by an absolute tick.
///
/// Items scheduled within `wheel_size` ticks of the current time live in
/// the circular slot array; farther items go to the overflow
/// [`BTreeMap`] and migrate into the wheel as time advances past them.
/// A size of 0 makes a one-slot wheel: only the current tick lives in
/// the slot, every later one in the overflow map.
///
/// ```
/// use logicsim_sim::TimingWheel;
/// let mut w: TimingWheel<&str> = TimingWheel::new(16);
/// w.schedule(0, "now");
/// w.schedule(2, "later");
/// assert_eq!(w.pop_current(), vec!["now"]);
/// w.advance();
/// w.advance();
/// assert_eq!(w.pop_current(), vec!["later"]);
/// ```
#[derive(Debug, Clone)]
pub struct TimingWheel<T> {
    slots: Vec<Vec<T>>,
    /// Absolute tick the cursor points at.
    now: u64,
    cursor: usize,
    /// Events beyond `now + slots.len() - 1`.
    overflow: BTreeMap<u64, Vec<T>>,
    /// Number of items currently stored (wheel + overflow).
    len: usize,
    /// Count of nonempty slots, which bounds the free list.
    nonempty_slots: usize,
    /// Empty buffers with capacity, for the next slots to fill; at most
    /// `nonempty_slots + 1` of them (a drain trims the rest).
    free: Vec<Vec<T>>,
}

impl<T> TimingWheel<T> {
    /// Creates a wheel with the given number of slots (the horizon); 0
    /// makes a one-slot wheel.
    #[must_use]
    pub fn new(wheel_size: usize) -> TimingWheel<T> {
        let wheel_size = wheel_size.max(1);
        TimingWheel {
            slots: (0..wheel_size).map(|_| Vec::new()).collect(),
            now: 0,
            cursor: 0,
            overflow: BTreeMap::new(),
            len: 0,
            nonempty_slots: 0,
            free: Vec::new(),
        }
    }

    /// The current tick (the earliest tick whose events have not been
    /// popped).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Total number of scheduled items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when nothing is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules an item at an absolute tick.
    ///
    /// # Panics
    ///
    /// Panics if `tick` is in the past (`tick < now()`); the simulator
    /// never schedules into the past, and silently accepting would corrupt
    /// the event order the paper's B/I accounting depends on.
    pub fn schedule(&mut self, tick: u64, item: T) {
        assert!(
            tick >= self.now,
            "cannot schedule at tick {tick}, wheel is at {}",
            self.now
        );
        let n = self.slots.len();
        let offset = tick - self.now;
        if offset < n as u64 {
            // `cursor < n` and `offset < n`: one subtraction wraps it.
            let mut idx = self.cursor + offset as usize;
            if idx >= n {
                idx -= n;
            }
            if self.slots[idx].is_empty() {
                self.nonempty_slots += 1;
                if let Some(buf) = self.free.pop() {
                    self.slots[idx] = buf;
                }
            }
            self.slots[idx].push(item);
        } else {
            self.overflow.entry(tick).or_default().push(item);
        }
        self.len += 1;
    }

    /// Removes and returns all items scheduled for the current tick, in
    /// scheduling order. Does not advance time.
    pub fn pop_current(&mut self) -> Vec<T> {
        let mut items = Vec::new();
        self.pop_current_into(&mut items);
        items
    }

    /// Drains all items scheduled for the current tick into `out`, in
    /// scheduling order. Does not advance time.
    ///
    /// An empty `out` receives the slot's buffer itself, and its own
    /// allocation stays with the wheel for a later slot; a non-empty one
    /// has the items appended. Either way the drained slot owns no
    /// allocation afterwards, and draining an empty slot leaves `out`
    /// untouched.
    pub fn pop_current_into(&mut self, out: &mut Vec<T>) {
        let slot = &mut self.slots[self.cursor];
        if slot.is_empty() {
            return;
        }
        self.len -= slot.len();
        if out.is_empty() {
            std::mem::swap(slot, out);
        } else {
            out.append(slot);
        }
        let buf = std::mem::take(slot);
        self.nonempty_slots -= 1;
        self.free.truncate(self.nonempty_slots);
        if buf.capacity() > 0 {
            self.free.push(buf);
        }
    }

    /// Advances the wheel by one tick, migrating any overflow items that
    /// now fall within the horizon.
    pub fn advance(&mut self) {
        debug_assert!(
            self.slots[self.cursor].is_empty(),
            "advancing past unpopped events"
        );
        let vacated = self.cursor;
        self.now += 1;
        self.cursor += 1;
        if self.cursor == self.slots.len() {
            self.cursor = 0;
        }
        // The slot the cursor vacated now represents tick
        // `now + horizon - 1`; pull matching overflow in.
        let incoming_tick = self.now + self.slots.len() as u64 - 1;
        if let Some(items) = self.overflow.remove(&incoming_tick) {
            let slot = &mut self.slots[vacated];
            if slot.is_empty() {
                *slot = items;
                self.nonempty_slots += 1;
            } else {
                slot.extend(items);
            }
        }
    }

    /// Whether anything is scheduled for the current tick, in O(1): an
    /// item due now always sits in the current slot (the overflow map
    /// only holds ticks at least a full horizon away, and `advance`
    /// migrates them before they come due).
    #[must_use]
    #[inline]
    pub fn has_current(&self) -> bool {
        !self.slots[self.cursor].is_empty()
    }

    /// The capacity of every buffer the wheel holds an allocation for:
    /// slots, free list and overflow map.
    #[cfg(test)]
    pub(crate) fn retained(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots
            .iter()
            .chain(&self.free)
            .chain(self.overflow.values())
            .map(Vec::capacity)
            .filter(|&c| c > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_and_pop_in_order() {
        let mut w: TimingWheel<u32> = TimingWheel::new(8);
        w.schedule(0, 1);
        w.schedule(0, 2);
        w.schedule(3, 3);
        assert_eq!(w.len(), 3);
        assert_eq!(w.pop_current(), vec![1, 2]);
        assert_eq!(w.len(), 1);
        for _ in 0..3 {
            assert!(w.pop_current().is_empty());
            w.advance();
        }
        assert_eq!(w.now(), 3);
        assert_eq!(w.pop_current(), vec![3]);
        assert!(w.is_empty());
    }

    #[test]
    fn overflow_migrates_into_wheel() {
        let mut w: TimingWheel<&str> = TimingWheel::new(4);
        w.schedule(10, "far");
        assert_eq!((w.len(), w.overflow.len(), w.nonempty_slots), (1, 1, 0));
        while w.now() < 10 {
            assert!(w.pop_current().is_empty());
            w.advance();
        }
        assert_eq!(w.pop_current(), vec!["far"]);
    }

    /// A far item waits in the overflow map while a near one scheduled
    /// after it sits in its slot, and each pops at its own tick.
    #[test]
    fn near_items_pop_before_far_ones_scheduled_earlier() {
        let mut w: TimingWheel<u32> = TimingWheel::new(4);
        assert!(w.is_empty() && !w.has_current());
        w.schedule(100, 1);
        w.schedule(2, 2);
        assert_eq!((w.len(), w.overflow.len(), w.nonempty_slots), (2, 1, 1));
        let mut popped = Vec::new();
        while !w.is_empty() {
            popped.extend(w.pop_current().into_iter().map(|i| (w.now(), i)));
            w.advance();
        }
        assert_eq!(popped, [(2, 2), (100, 1)]);
    }

    #[test]
    #[should_panic(expected = "cannot schedule")]
    fn scheduling_in_past_panics() {
        let mut w: TimingWheel<u32> = TimingWheel::new(4);
        w.advance();
        w.schedule(0, 1);
    }

    #[test]
    fn wraparound_is_correct_over_many_laps() {
        let mut w: TimingWheel<u64> = TimingWheel::new(4);
        // Schedule an item every 3 ticks for 50 ticks; pop and verify.
        for t in (0..50).step_by(3) {
            w.schedule(t, t);
        }
        let mut seen = Vec::new();
        while !w.is_empty() {
            for item in w.pop_current() {
                assert_eq!(item, w.now());
                seen.push(item);
            }
            w.advance();
        }
        assert_eq!(seen, (0..50).step_by(3).collect::<Vec<_>>());
    }

    #[test]
    fn same_tick_items_preserve_fifo() {
        let mut w: TimingWheel<u32> = TimingWheel::new(4);
        for i in 0..10 {
            w.schedule(1, i);
        }
        assert!(w.pop_current().is_empty());
        w.advance();
        assert_eq!(w.pop_current(), (0..10).collect::<Vec<_>>());
    }

    /// The drain contract: an empty slot leaves `out` as it was; an
    /// empty `out` receives the slot's buffer itself, and its own
    /// allocation is what the next empty slot fills; a non-empty `out`
    /// has the items appended. The drained slot owns no allocation.
    #[test]
    fn pop_current_into_hands_the_slot_buffer_over() {
        let mut w: TimingWheel<u32> = TimingWheel::new(4);
        let mut buf = Vec::with_capacity(8);
        buf.push(7);
        let (ptr, cap) = (buf.as_ptr(), buf.capacity());
        w.pop_current_into(&mut buf);
        assert_eq!(
            (buf.as_slice(), buf.as_ptr(), buf.capacity()),
            (&[7][..], ptr, cap)
        );

        buf.clear();
        w.schedule(0, 1);
        w.schedule(0, 2);
        let slot_ptr = w.slots[0].as_ptr();
        w.pop_current_into(&mut buf);
        assert_eq!(buf, [1, 2]);
        assert_eq!(buf.as_ptr(), slot_ptr, "the slot's buffer is handed over");
        assert_eq!(w.slots[0].capacity(), 0);
        assert!(w.is_empty() && !w.has_current());
        w.schedule(1, 3);
        assert_eq!(
            w.slots[1].as_ptr(),
            ptr,
            "the caller's buffer fills the next slot"
        );

        w.advance();
        w.pop_current_into(&mut buf);
        assert_eq!(buf, [1, 2, 3]);
        assert_eq!(buf.as_ptr(), slot_ptr, "a non-empty buffer is appended to");
        assert_eq!(w.slots[1].capacity(), 0);
    }

    /// The engine's shape: a 256-slot wheel, about 1 000 items a tick
    /// at delays 1–2, drained into one reused buffer. The wheel never
    /// holds more than four buffers with capacity.
    #[test]
    fn a_busy_wheel_retains_only_what_is_in_flight() {
        let mut w: TimingWheel<u64> = TimingWheel::new(256);
        let mut buf = Vec::new();
        let mut lcg: u64 = 0x1987;
        for _ in 0..10_000 {
            buf.clear();
            w.pop_current_into(&mut buf);
            for _ in 0..1_000 {
                lcg = lcg
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                w.schedule(w.now() + 1 + (lcg >> 63), lcg);
            }
            w.advance();
            let held = w.retained().count();
            assert!(held <= 4, "{held} buffers at tick {}", w.now());
        }
    }

    /// Size 0 is a one-slot wheel: every later tick overflows and
    /// migrates on the advance that reaches it.
    #[test]
    fn a_zero_size_wheel_has_one_slot() {
        let mut w: TimingWheel<u32> = TimingWheel::new(0);
        assert_eq!(w.slots.len(), 1);
        w.schedule(0, 1);
        w.schedule(1, 2);
        w.schedule(3, 3);
        assert_eq!(w.overflow.len(), 2);
        assert!(w.has_current());
        assert_eq!(w.pop_current(), [1]);
        w.advance();
        assert_eq!(w.pop_current(), [2]);
        w.advance();
        assert!(!w.has_current());
        assert_eq!((w.len(), w.overflow.len()), (1, 1));
        w.advance();
        assert_eq!(w.pop_current(), [3]);
        assert!(w.is_empty());
    }

    /// The boundary case: `now + wheel_size` is the first tick *outside*
    /// the horizon, so it must land in the overflow map, not in a slot,
    /// and migrate into the wheel on the first `advance()`.
    #[test]
    fn overflow_edge_at_exactly_now_plus_wheel_size() {
        let size = 4;
        let mut w: TimingWheel<&str> = TimingWheel::new(size);
        w.schedule(size as u64 - 1, "inside"); // last in-horizon tick
        w.schedule(size as u64, "edge"); // first tick past the horizon
        assert_eq!(w.nonempty_slots, 1, "edge item must not occupy a slot");
        assert_eq!(w.overflow.len(), 1);
        assert_eq!(w.len(), 2);
        assert!(!w.has_current());

        // The first advance vacates the slot that then represents
        // exactly tick `size` (= new now + horizon - 1), so the edge
        // item migrates immediately.
        assert!(w.pop_current().is_empty());
        w.advance();
        assert!(w.overflow.is_empty(), "edge item must have migrated");
        assert_eq!(w.nonempty_slots, 2);
        assert_eq!(w.len(), 2);

        for t in 1..size as u64 - 1 {
            assert!(w.pop_current().is_empty(), "tick {t} should be empty");
            w.advance();
        }
        assert_eq!(w.pop_current(), vec!["inside"]);
        w.advance();
        assert_eq!(w.now(), size as u64);
        assert!(w.has_current());
        assert_eq!(w.pop_current(), vec!["edge"]);
        assert!(w.is_empty());
    }

    /// `has_current` against a count of the items due at each tick,
    /// over a script that crosses the overflow edge: a one-slot wheel
    /// (every later tick overflows and migrates on the advance that
    /// reaches it) and a four-slot one.
    #[test]
    fn has_current_tells_whether_the_current_tick_is_due() {
        for size in [1usize, 4] {
            let mut w: TimingWheel<u64> = TimingWheel::new(size);
            let mut due: BTreeMap<u64, usize> = BTreeMap::new();
            let check = |w: &TimingWheel<u64>, due: &BTreeMap<u64, usize>| {
                assert_eq!(
                    w.has_current(),
                    due.contains_key(&w.now()),
                    "size {size} tick {}",
                    w.now()
                );
                assert_eq!(w.len(), due.values().sum::<usize>());
            };
            check(&w, &due);
            for t in 0..40u64 {
                // In-horizon, exactly at the edge, and far beyond it.
                for d in [0, 2, size as u64 - 1, size as u64, 3 * size as u64 + 1] {
                    if (t + d) % 3 == 0 {
                        w.schedule(t + d, t);
                        *due.entry(t + d).or_default() += 1;
                        check(&w, &due);
                    }
                }
                let popped = w.pop_current().len();
                assert_eq!(popped, due.remove(&t).unwrap_or(0));
                check(&w, &due);
                w.advance();
                check(&w, &due);
            }
        }
    }

    /// A pending slot *behind* the cursor (physical index wrapped
    /// around zero) pops at its tick.
    #[test]
    fn a_slot_behind_the_cursor_pops_at_its_tick() {
        let mut w: TimingWheel<u32> = TimingWheel::new(8);
        for _ in 0..6 {
            w.advance();
        }
        // cursor = 6; now = 6; tick 11 lands at physical (6 + 5) % 8 = 3.
        w.schedule(11, 42);
        assert_eq!(w.slots[3], [42]);
        while w.now() < 11 {
            assert!(w.pop_current().is_empty());
            w.advance();
        }
        assert_eq!(w.pop_current(), vec![42]);
    }

    /// A binary-heap event list: the conventional alternative to
    /// Ulrich's timing wheel (a priority queue over `(tick, seq)`), with
    /// the wheel's interface. It is the reference `wheel_equals_heap`
    /// holds the wheel to; its cost against the wheel is recorded in
    /// EXPERIMENTS.md, "Event-list ablation".
    mod heap_list {
        use std::cmp::Reverse;
        use std::collections::{BinaryHeap, HashMap};

        /// A heap-backed event list keyed by absolute tick, preserving
        /// FIFO order among items scheduled for the same tick.
        pub struct HeapEventList<T> {
            heap: BinaryHeap<Reverse<(u64, u64)>>,
            items: HashMap<u64, T>,
            now: u64,
            seq: u64,
        }

        impl<T> HeapEventList<T> {
            pub fn new() -> HeapEventList<T> {
                HeapEventList {
                    heap: BinaryHeap::new(),
                    items: HashMap::new(),
                    now: 0,
                    seq: 0,
                }
            }

            pub fn len(&self) -> usize {
                self.heap.len()
            }

            pub fn is_empty(&self) -> bool {
                self.heap.is_empty()
            }

            /// Schedules an item at an absolute tick.
            ///
            /// # Panics
            ///
            /// Panics if `tick` is before the current tick.
            pub fn schedule(&mut self, tick: u64, item: T) {
                assert!(
                    tick >= self.now,
                    "cannot schedule at tick {tick}, list is at {}",
                    self.now
                );
                let seq = self.seq;
                self.seq += 1;
                self.heap.push(Reverse((tick, seq)));
                self.items.insert(seq, item);
            }

            /// Removes and returns all items scheduled for the current
            /// tick, in scheduling order.
            pub fn pop_current(&mut self) -> Vec<T> {
                let mut out = Vec::new();
                while let Some(&Reverse((tick, seq))) = self.heap.peek() {
                    if tick != self.now {
                        break;
                    }
                    self.heap.pop();
                    out.push(self.items.remove(&seq).expect("item for key"));
                }
                out
            }

            /// Advances to the next tick.
            pub fn advance(&mut self) {
                debug_assert!(
                    self.heap.peek().is_none_or(|&Reverse((t, _))| t > self.now),
                    "advancing past unpopped events"
                );
                self.now += 1;
            }

            /// Whether anything is scheduled for the current tick.
            pub fn has_current(&self) -> bool {
                self.heap
                    .peek()
                    .is_some_and(|&Reverse((t, _))| t == self.now)
            }
        }

        #[test]
        fn behaves_like_a_timing_wheel() {
            let mut h: HeapEventList<u32> = HeapEventList::new();
            h.schedule(0, 1);
            h.schedule(0, 2);
            h.schedule(3, 3);
            assert_eq!(h.pop_current(), vec![1, 2]);
            assert_eq!(h.len(), 1);
            assert!(!h.has_current());
            for _ in 0..3 {
                assert!(h.pop_current().is_empty());
                h.advance();
            }
            assert_eq!(h.pop_current(), vec![3]);
            assert!(h.is_empty());
        }

        #[test]
        fn same_tick_fifo_order() {
            let mut h: HeapEventList<u32> = HeapEventList::new();
            for i in 0..20 {
                h.schedule(5, i);
            }
            for _ in 0..5 {
                h.pop_current();
                h.advance();
            }
            assert_eq!(h.pop_current(), (0..20).collect::<Vec<_>>());
        }

        #[test]
        #[should_panic(expected = "cannot schedule")]
        fn past_scheduling_panics() {
            let mut h: HeapEventList<u32> = HeapEventList::new();
            h.advance();
            h.schedule(0, 1);
        }
    }

    proptest::proptest! {
        /// The timing wheel and the binary-heap list are observationally
        /// equivalent under arbitrary interleavings of schedule/advance,
        /// whichever way the slots are drained: into a fresh buffer, a
        /// reused empty one, or one already holding items. After every
        /// advance no empty slot owns an allocation, and the free list
        /// holds at most one buffer more than there are non-empty slots.
        #[test]
        fn wheel_equals_heap(
            script in proptest::collection::vec((0u64..40, proptest::prelude::any::<u16>()), 1..120)
        ) {
            let mut wheel: TimingWheel<u16> = TimingWheel::new(8); // tiny: force overflow
            let mut heap = heap_list::HeapEventList::new();
            let mut buf = Vec::new();
            let mut drain = |wheel: &mut TimingWheel<u16>, style: u16| match style % 3 {
                0 => wheel.pop_current(),
                1 => {
                    buf.clear();
                    wheel.pop_current_into(&mut buf);
                    buf.clone()
                }
                _ => {
                    buf.clear();
                    buf.push(u16::MAX);
                    wheel.pop_current_into(&mut buf);
                    buf[1..].to_vec()
                }
            };
            let in_flight_only = |w: &TimingWheel<u16>| {
                w.slots.iter().all(|s| !s.is_empty() || s.capacity() == 0)
                    && w.retained().count() <= 2 * w.nonempty_slots + 1 + w.overflow.len()
            };
            for (delay, item) in script {
                // Drain/advance with probability encoded in the item.
                if item % 3 == 0 {
                    proptest::prop_assert_eq!(drain(&mut wheel, item / 3), heap.pop_current());
                    wheel.advance();
                    heap.advance();
                    proptest::prop_assert!(in_flight_only(&wheel));
                }
                let tick = wheel.now() + delay;
                wheel.schedule(tick, item);
                heap.schedule(tick, item);
                proptest::prop_assert_eq!(wheel.len(), heap.len());
                proptest::prop_assert_eq!(wheel.has_current(), heap.has_current());
            }
            // Drain to empty.
            while !wheel.is_empty() || !heap.is_empty() {
                let style = wheel.now() as u16;
                proptest::prop_assert_eq!(drain(&mut wheel, style), heap.pop_current());
                wheel.advance();
                heap.advance();
                proptest::prop_assert!(in_flight_only(&wheel));
            }
        }
    }
}
