//! Ulrich-style timing wheel for event scheduling.
//!
//! The paper's run-time model assumes "near-constant-time event-list
//! management capabilities \[UL78\]"; this module provides exactly that: a
//! circular array of slots for the near future plus a sorted overflow map
//! for events scheduled beyond the wheel horizon. Scheduling and popping
//! are O(1) amortized for delays shorter than the wheel size, and
//! [`TimingWheel::next_pending_tick`] answers from a per-slot occupancy
//! bitmap (word-scanned, O(slots/64)) or the overflow map's first key
//! (O(log n)) — never by touching the slot vectors themselves.

use std::collections::BTreeMap;

/// A timing wheel holding items of type `T` keyed by an absolute tick.
///
/// Items scheduled within `wheel_size` ticks of the current time live in
/// the circular slot array; farther items go to the overflow
/// [`BTreeMap`] and migrate into the wheel as time advances past them.
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
    /// Count of nonempty slots, to short-circuit the bitmap scan when
    /// everything pending lives in the overflow map.
    nonempty_slots: usize,
    /// Occupancy bitmap over *physical* slot indices; bit set iff the
    /// slot is nonempty.
    occupied: Vec<u64>,
}

impl<T> TimingWheel<T> {
    /// Creates a wheel with the given number of slots (the horizon).
    ///
    /// # Panics
    ///
    /// Panics if `wheel_size == 0`.
    #[must_use]
    pub fn new(wheel_size: usize) -> TimingWheel<T> {
        assert!(wheel_size > 0, "wheel size must be positive");
        TimingWheel {
            slots: (0..wheel_size).map(|_| Vec::new()).collect(),
            now: 0,
            cursor: 0,
            overflow: BTreeMap::new(),
            len: 0,
            nonempty_slots: 0,
            occupied: vec![0u64; wheel_size.div_ceil(64)],
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

    #[inline]
    fn mark_occupied(&mut self, idx: usize) {
        self.nonempty_slots += 1;
        self.occupied[idx / 64] |= 1u64 << (idx % 64);
    }

    #[inline]
    fn mark_vacant(&mut self, idx: usize) {
        self.nonempty_slots -= 1;
        self.occupied[idx / 64] &= !(1u64 << (idx % 64));
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
        let horizon = self.slots.len() as u64;
        if tick < self.now + horizon {
            let idx = (self.cursor + (tick - self.now) as usize) % self.slots.len();
            if self.slots[idx].is_empty() {
                self.mark_occupied(idx);
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

    /// Drains all items scheduled for the current tick into `out`
    /// (appended in scheduling order), reusing the caller's allocation.
    /// Does not advance time.
    pub fn pop_current_into(&mut self, out: &mut Vec<T>) {
        let slot = &mut self.slots[self.cursor];
        if !slot.is_empty() {
            self.len -= slot.len();
            out.append(slot);
            self.mark_vacant(self.cursor);
        }
    }

    /// Advances the wheel by one tick, migrating any overflow items that
    /// now fall within the horizon.
    pub fn advance(&mut self) {
        debug_assert!(
            self.slots[self.cursor].is_empty(),
            "advancing past unpopped events"
        );
        self.now += 1;
        self.cursor = (self.cursor + 1) % self.slots.len();
        // The slot the cursor vacated now represents tick
        // `now + horizon - 1`; pull matching overflow in.
        let incoming_tick = self.now + self.slots.len() as u64 - 1;
        if let Some(items) = self.overflow.remove(&incoming_tick) {
            let idx = (self.cursor + self.slots.len() - 1) % self.slots.len();
            if self.slots[idx].is_empty() && !items.is_empty() {
                self.mark_occupied(idx);
            }
            self.slots[idx].extend(items);
        }
    }

    /// Whether anything is scheduled for the current tick, in O(1):
    /// the same answer as `next_pending_tick() == Some(now())`, because
    /// an item due now always sits in the current slot (the overflow
    /// map only holds ticks at least a full horizon away, and `advance`
    /// migrates them before they come due).
    #[must_use]
    #[inline]
    pub fn has_current(&self) -> bool {
        !self.slots[self.cursor].is_empty()
    }

    /// The next tick (>= now) that has scheduled items, or `None` when
    /// the wheel is empty. Used by the engine to skip idle ticks in
    /// event-increment mode while still counting them.
    ///
    /// Answers from the occupancy bitmap when any slot is nonempty, and
    /// from the overflow map's first key otherwise, so a wheel whose
    /// pending work is entirely beyond the horizon responds in O(log n)
    /// without scanning slots.
    #[must_use]
    pub fn next_pending_tick(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        if self.nonempty_slots > 0 {
            if let Some(phys) = self
                .find_occupied(self.cursor, self.slots.len())
                .or_else(|| self.find_occupied(0, self.cursor))
            {
                let offset = if phys >= self.cursor {
                    phys - self.cursor
                } else {
                    phys + self.slots.len() - self.cursor
                };
                return Some(self.now + offset as u64);
            }
        }
        self.overflow.keys().next().copied()
    }

    /// First set bit in `occupied` over physical indices `[from, to)`,
    /// scanned word-wise.
    fn find_occupied(&self, from: usize, to: usize) -> Option<usize> {
        if from >= to {
            return None;
        }
        let first_word = from / 64;
        let last_word = (to - 1) / 64;
        for w in first_word..=last_word {
            let mut bits = self.occupied[w];
            if w == first_word {
                bits &= !0u64 << (from % 64);
            }
            if w == last_word {
                let top = to - w * 64;
                if top < 64 {
                    bits &= (1u64 << top) - 1;
                }
            }
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
        }
        None
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
        assert_eq!(w.next_pending_tick(), Some(10));
        while w.now() < 10 {
            assert!(w.pop_current().is_empty());
            w.advance();
        }
        assert_eq!(w.pop_current(), vec!["far"]);
    }

    #[test]
    fn next_pending_tick_prefers_wheel_then_overflow() {
        let mut w: TimingWheel<u32> = TimingWheel::new(4);
        assert_eq!(w.next_pending_tick(), None);
        w.schedule(100, 1);
        assert_eq!(w.next_pending_tick(), Some(100));
        w.schedule(2, 2);
        assert_eq!(w.next_pending_tick(), Some(2));
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

    #[test]
    fn pop_current_into_reuses_buffer() {
        let mut w: TimingWheel<u32> = TimingWheel::new(4);
        w.schedule(0, 1);
        w.schedule(0, 2);
        let mut buf = Vec::with_capacity(8);
        w.pop_current_into(&mut buf);
        assert_eq!(buf, vec![1, 2]);
        assert!(w.is_empty());
        assert_eq!(w.next_pending_tick(), None);
        // Draining an empty slot appends nothing and keeps the buffer.
        buf.clear();
        w.pop_current_into(&mut buf);
        assert!(buf.is_empty());
        assert!(buf.capacity() >= 8);
    }

    /// The boundary case: `now + wheel_size` is the first tick *outside*
    /// the horizon, so it must land in the overflow map, be reported by
    /// `next_pending_tick` without any slot being occupied, and migrate
    /// into the wheel on the first `advance()`.
    #[test]
    fn overflow_edge_at_exactly_now_plus_wheel_size() {
        let size = 4;
        let mut w: TimingWheel<&str> = TimingWheel::new(size);
        w.schedule(size as u64 - 1, "inside"); // last in-horizon tick
        w.schedule(size as u64, "edge"); // first tick past the horizon
        assert_eq!(w.nonempty_slots, 1, "edge item must not occupy a slot");
        assert_eq!(w.overflow.len(), 1);
        assert_eq!(w.next_pending_tick(), Some(size as u64 - 1));

        // The first advance vacates the slot that then represents
        // exactly tick `size` (= new now + horizon - 1), so the edge
        // item migrates immediately.
        assert!(w.pop_current().is_empty());
        w.advance();
        assert!(w.overflow.is_empty(), "edge item must have migrated");
        assert_eq!(w.nonempty_slots, 2);
        assert_eq!(w.next_pending_tick(), Some(size as u64 - 1));

        for t in 1..size as u64 - 1 {
            assert!(w.pop_current().is_empty(), "tick {t} should be empty");
            w.advance();
        }
        assert_eq!(w.pop_current(), vec!["inside"]);
        w.advance();
        assert_eq!(w.next_pending_tick(), Some(size as u64));
        assert_eq!(w.pop_current(), vec!["edge"]);
        assert!(w.is_empty());
    }

    /// `has_current` against the bitmap scan it replaces in the engines'
    /// idle-tick test, over a script that crosses the overflow edge: a
    /// one-slot wheel (every later tick overflows and migrates on the
    /// advance that reaches it) and a four-slot one.
    #[test]
    fn has_current_agrees_with_next_pending_tick() {
        for size in [1usize, 4] {
            let mut w: TimingWheel<u64> = TimingWheel::new(size);
            let check = |w: &TimingWheel<u64>| {
                assert_eq!(
                    w.has_current(),
                    w.next_pending_tick() == Some(w.now()),
                    "size {size} tick {}",
                    w.now()
                );
            };
            check(&w);
            for t in 0..40u64 {
                // In-horizon, exactly at the edge, and far beyond it.
                for d in [0, 2, size as u64 - 1, size as u64, 3 * size as u64 + 1] {
                    if (t + d) % 3 == 0 {
                        w.schedule(t + d, t);
                        check(&w);
                    }
                }
                let due = w.has_current();
                assert_eq!(!w.pop_current().is_empty(), due);
                check(&w);
                w.advance();
                check(&w);
            }
        }
    }

    /// Bitmap scan must handle a pending slot *behind* the cursor
    /// (physical index wrapped around zero).
    #[test]
    fn next_pending_tick_across_physical_wraparound() {
        let mut w: TimingWheel<u32> = TimingWheel::new(8);
        for _ in 0..6 {
            w.advance();
        }
        // cursor = 6; now = 6; tick 11 lands at physical (6 + 5) % 8 = 3.
        w.schedule(11, 42);
        assert_eq!(w.next_pending_tick(), Some(11));
        while w.now() < 11 {
            assert!(w.pop_current().is_empty());
            w.advance();
        }
        assert_eq!(w.pop_current(), vec![42]);
    }
}
