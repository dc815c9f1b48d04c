//! Online machine-parameter observability: per-phase wall-clock timing
//! of both engines.
//!
//! The paper's model (Eq. 1–10) is driven by machine parameters the
//! seed repo only *assumed* from Table 2: the per-tick synchronization
//! costs `tS` (START fan-out) and `tD` (DONE collection), the
//! evaluation time `tE` per event, and the message time `tM` per
//! inter-processor message. This module measures them from the running
//! engines, extending the counter-based instrumentation of
//! [`crate::instrument`] with wall-clock phase timing:
//!
//! * every engine phase — START fan-out, change application, switch
//!   resolution, fanout evaluation, message exchange/merge, DONE
//!   collection, and barrier wait — is timestamped into a per-lane
//!   (per-worker, plus master) fixed-capacity ring buffer
//!   ([`PhaseRing`]): no allocation and no locking on the hot path,
//!   wrap-around overwrites the oldest sample;
//! * exact running totals per phase ([`PhaseTotal`]) survive
//!   wrap-around, so derived per-event/per-message parameters are never
//!   windowed;
//! * an [`ObsReport`] aggregates the lanes into `logicsim-stats`
//!   histograms (p50/p95/p99 via `PhaseSummary`) and exports a Chrome
//!   `trace_event` JSON ([`ObsReport::chrome_trace`]) with one `tid`
//!   lane per worker plus the master.
//!
//! Recording has one gate: [`SimConfig::observe`](crate::SimConfig)
//! arms it at runtime (a disarmed lane costs one predictable branch per
//! phase), so one binary can compare armed vs. unarmed runs directly.
//! Timing never feeds back into simulation state, so traces and
//! counters are bit-identical with observation armed — the golden
//! digest tests pin this.

/// Engine phases distinguished by the recorder.
///
/// The mapping onto the paper's parameters: [`Phase::Start`] and
/// [`Phase::Done`] together with [`Phase::Barrier`] make up the per-tick
/// synchronization cost `tS + tD`; [`Phase::Eval`] time per evaluation
/// is `tE`; [`Phase::Exchange`] time per routed message is `tM`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Phase {
    /// Master: command publish + release-barrier crossing (`tS`).
    Start = 0,
    /// Party: drain own wheel slot and apply surviving changes.
    Apply = 1,
    /// Party: settle assigned switch groups.
    Resolve = 2,
    /// Party: evaluate fanout components (`tE` per evaluation).
    Eval = 3,
    /// Party: the owner's side of the exchange — merge the changes onto
    /// its nets (last writer in pop order), resolve them, route the
    /// fanout to the readers' owners, its own into its worklist and the
    /// others' by mail (`tM` per message, `items` = messages routed) —
    /// and the listing of its evaluation worklist (`items == 0`). Recorded
    /// on the lane of the party that did it, never on the master lane;
    /// the serial engine records its own merge and fan-out loops here.
    Exchange = 4,
    /// Master: read the mailbox lengths and the parties' scalars that
    /// steer the protocol after a phase and pick the next command
    /// (`tD`).
    Done = 5,
    /// Master: join-barrier wait after its own share — the straggler
    /// skew of the slowest worker.
    Barrier = 6,
}

/// Number of distinct [`Phase`] values (array dimension).
pub const NUM_PHASES: usize = 7;

impl Phase {
    /// All phases, in discriminant order.
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::Start,
        Phase::Apply,
        Phase::Resolve,
        Phase::Eval,
        Phase::Exchange,
        Phase::Done,
        Phase::Barrier,
    ];

    /// Stable lower-case name (used in the Chrome trace and reports).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::Start => "start",
            Phase::Apply => "apply",
            Phase::Resolve => "resolve",
            Phase::Eval => "eval",
            Phase::Exchange => "exchange",
            Phase::Done => "done",
            Phase::Barrier => "barrier",
        }
    }

    /// Discriminant as an array index.
    #[must_use]
    pub fn idx(self) -> usize {
        self as usize
    }
}

mod imp {
    use super::{Phase, NUM_PHASES};
    use logicsim_stats::{Histogram, PhaseSummary};
    use std::time::Instant;

    /// One timed phase occurrence.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct PhaseSample {
        /// Which phase this sample timed.
        pub phase: Phase,
        /// Simulation tick the phase belonged to.
        pub tick: u64,
        /// Start offset from the engine's time origin, nanoseconds.
        pub start_ns: u64,
        /// Duration, nanoseconds.
        pub dur_ns: u64,
        /// Work items covered (changes applied, evaluations, routed
        /// messages, …; 0 for pure-overhead samples).
        pub items: u64,
    }

    /// Exact per-phase running totals; unlike ring samples these are
    /// never dropped, so per-item parameters stay unwindowed.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct PhaseTotal {
        /// Number of samples recorded.
        pub count: u64,
        /// Total duration, nanoseconds.
        pub total_ns: u64,
        /// Total work items.
        pub items: u64,
    }

    impl PhaseTotal {
        fn add(&mut self, dur_ns: u64, items: u64) {
            self.count += 1;
            self.total_ns += dur_ns;
            self.items += items;
        }

        /// Folds another total into this one.
        pub fn merge(&mut self, other: &PhaseTotal) {
            self.count += other.count;
            self.total_ns += other.total_ns;
            self.items += other.items;
        }
    }

    /// Fixed-capacity ring of [`PhaseSample`]s. All storage is
    /// allocated up front; at capacity, a push overwrites the oldest
    /// sample and bumps the dropped counter.
    #[derive(Debug, Clone)]
    pub struct PhaseRing {
        buf: Vec<PhaseSample>,
        /// Index of the oldest sample once the buffer is full.
        head: usize,
        /// Oldest samples overwritten so far.
        dropped: u64,
        cap: usize,
    }

    impl PhaseRing {
        /// Creates a ring holding up to `capacity` samples (clamped to
        /// at least 1) with all storage allocated up front.
        #[must_use]
        pub fn with_capacity(capacity: usize) -> PhaseRing {
            let cap = capacity.max(1);
            PhaseRing {
                buf: Vec::with_capacity(cap),
                head: 0,
                dropped: 0,
                cap,
            }
        }

        /// Appends a sample, overwriting the oldest one at capacity.
        /// Never allocates after the ring has filled once.
        #[inline]
        pub fn push(&mut self, s: PhaseSample) {
            if self.buf.len() < self.cap {
                self.buf.push(s);
            } else {
                self.buf[self.head] = s;
                self.head = (self.head + 1) % self.cap;
                self.dropped += 1;
            }
        }

        /// Number of samples currently held.
        #[must_use]
        pub fn len(&self) -> usize {
            self.buf.len()
        }

        /// Whether the ring holds no samples.
        #[must_use]
        pub fn is_empty(&self) -> bool {
            self.buf.is_empty()
        }

        /// Configured capacity.
        #[must_use]
        pub fn capacity(&self) -> usize {
            self.cap
        }

        /// Samples overwritten by wrap-around so far.
        #[must_use]
        pub fn dropped(&self) -> u64 {
            self.dropped
        }

        /// Iterates the held samples oldest first.
        pub fn iter_oldest_first(&self) -> impl Iterator<Item = &PhaseSample> {
            let (tail, head) = self.buf.split_at(self.head);
            head.iter().chain(tail.iter())
        }

        /// Empties the ring and resets the dropped counter, keeping the
        /// allocation.
        pub fn clear(&mut self) {
            self.buf.clear();
            self.head = 0;
            self.dropped = 0;
        }
    }

    /// Shared time origin for every lane of one engine, so samples from
    /// different workers land on one comparable timeline.
    #[derive(Debug, Clone, Copy)]
    pub struct Origin(Instant);

    impl Origin {
        /// Captures the current instant as the origin.
        #[must_use]
        pub fn now() -> Origin {
            Origin(Instant::now())
        }
    }

    /// An in-flight phase start, returned by [`Lane::mark`].
    #[derive(Debug, Clone, Copy)]
    pub struct Mark(Option<Instant>);

    impl Mark {
        /// A mark that records nothing (used on paths that decide not
        /// to observe, e.g. idle ticks).
        #[must_use]
        pub fn none() -> Mark {
            Mark(None)
        }
    }

    /// One lane's recorder: a ring of samples plus exact totals. Each
    /// worker (and the master) owns its lane exclusively, so recording
    /// takes no locks; with the lane disarmed, [`Lane::mark`] and
    /// [`Lane::rec`] are branch-and-return.
    #[derive(Debug)]
    pub struct Lane {
        enabled: bool,
        origin: Instant,
        ring: PhaseRing,
        totals: [PhaseTotal; NUM_PHASES],
    }

    impl Lane {
        /// Creates a lane; `enabled == false` makes every operation a
        /// no-op (the runtime disarm of `SimConfig::observe == false`).
        #[must_use]
        pub fn new(enabled: bool, origin: Origin, capacity: usize) -> Lane {
            Lane {
                enabled,
                origin: origin.0,
                // Disarmed lanes never push; skip the up-front storage.
                ring: PhaseRing::with_capacity(if enabled { capacity } else { 1 }),
                totals: [PhaseTotal::default(); NUM_PHASES],
            }
        }

        /// Starts timing a phase (one clock read when armed).
        #[inline]
        #[must_use]
        pub fn mark(&self) -> Mark {
            if self.enabled {
                Mark(Some(Instant::now()))
            } else {
                Mark(None)
            }
        }

        /// Finishes timing a phase started at `mark`, recording a
        /// sample, and returns a mark at the finish time so adjacent
        /// phases can chain with a single clock read per boundary.
        #[inline]
        pub fn rec(&mut self, phase: Phase, tick: u64, mark: Mark, items: u64) -> Mark {
            let Mark(Some(t0)) = mark else {
                return Mark(None);
            };
            let now = Instant::now();
            let start_ns = t0.duration_since(self.origin).as_nanos() as u64;
            let dur_ns = now.duration_since(t0).as_nanos() as u64;
            self.ring.push(PhaseSample {
                phase,
                tick,
                start_ns,
                dur_ns,
                items,
            });
            self.totals[phase.idx()].add(dur_ns, items);
            Mark(Some(now))
        }

        /// Clears all recorded samples and totals (keeps the arming and
        /// the ring allocation); called from `reset_measurements`.
        pub fn reset(&mut self) {
            self.ring.clear();
            self.totals = [PhaseTotal::default(); NUM_PHASES];
        }

        /// Snapshots the lane into an owned report.
        #[must_use]
        pub fn report(&self) -> LaneReport {
            LaneReport {
                samples: self.ring.iter_oldest_first().copied().collect(),
                dropped: self.ring.dropped(),
                totals: self.totals,
            }
        }
    }

    /// Owned snapshot of one lane.
    #[derive(Debug, Clone, Default)]
    pub struct LaneReport {
        /// Ring samples, oldest first (a window when wrap-around
        /// dropped samples).
        pub samples: Vec<PhaseSample>,
        /// Samples lost to wrap-around.
        pub dropped: u64,
        /// Exact totals per phase, indexed by [`Phase::idx`].
        pub totals: [PhaseTotal; NUM_PHASES],
    }

    /// Aggregated observation of one run: one lane per worker plus the
    /// master lane last.
    #[derive(Debug, Clone, Default)]
    pub struct ObsReport {
        /// Per-lane snapshots; by engine convention workers come first
        /// and the master lane is last.
        pub lanes: Vec<LaneReport>,
        /// Display name per lane (`"worker 0"`, …, `"master"`).
        pub lane_names: Vec<String>,
    }

    impl ObsReport {
        /// Histogram of one phase's sample durations in one lane.
        #[must_use]
        pub fn lane_histogram(&self, lane: usize, phase: Phase) -> Histogram {
            self.lanes[lane]
                .samples
                .iter()
                .filter(|s| s.phase == phase)
                .map(|s| s.dur_ns)
                .collect()
        }

        /// Histogram of one phase's sample durations merged across all
        /// lanes (built per lane, then merged — the same result as a
        /// single observer of the combined stream).
        #[must_use]
        pub fn histogram(&self, phase: Phase) -> Histogram {
            let mut h = Histogram::new();
            for lane in 0..self.lanes.len() {
                h.merge(&self.lane_histogram(lane, phase));
            }
            h
        }

        /// p50/p95/p99 + totals summary of one phase across all lanes
        /// (`None` when the phase never ran).
        #[must_use]
        pub fn summary(&self, phase: Phase) -> Option<PhaseSummary> {
            PhaseSummary::from_histogram(&self.histogram(phase))
        }

        /// Exact totals of one phase summed across all lanes.
        #[must_use]
        pub fn total(&self, phase: Phase) -> PhaseTotal {
            let mut t = PhaseTotal::default();
            for lane in &self.lanes {
                t.merge(&lane.totals[phase.idx()]);
            }
            t
        }

        /// Number of ticks that went through the full phase protocol
        /// (the first lane's `Apply` count: the serial engine, or party
        /// 0, applies in every executed tick; idle ticks are
        /// fast-forwarded without recording).
        #[must_use]
        pub fn executed_ticks(&self) -> u64 {
            self.lanes
                .first()
                .map_or(0, |l| l.totals[Phase::Apply.idx()].count)
        }

        /// Total samples lost to ring wrap-around across all lanes.
        #[must_use]
        pub fn dropped(&self) -> u64 {
            self.lanes.iter().map(|l| l.dropped).sum()
        }

        /// Renders the report as Chrome `trace_event` JSON (load via
        /// `chrome://tracing` or <https://ui.perfetto.dev>). One `tid`
        /// per lane under a single `pid`; complete (`"ph":"X"`) events
        /// with microsecond timestamps; field order is fixed so golden
        /// tests can compare byte-for-byte.
        #[must_use]
        pub fn chrome_trace(&self) -> String {
            let mut events: Vec<String> = Vec::new();
            events.push(
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
                 \"args\":{\"name\":\"lsim\"}}"
                    .to_string(),
            );
            for (tid, name) in self.lane_names.iter().enumerate() {
                events.push(format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    escape_json(name)
                ));
            }
            for (tid, lane) in self.lanes.iter().enumerate() {
                for s in &lane.samples {
                    events.push(format!(
                        "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                         \"pid\":1,\"tid\":{tid},\"args\":{{\"tick\":{},\"items\":{}}}}}",
                        s.phase.name(),
                        s.start_ns as f64 / 1000.0,
                        s.dur_ns as f64 / 1000.0,
                        s.tick,
                        s.items,
                    ));
                }
            }
            let mut out = String::from("{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n");
            out.push_str(&events.join(",\n"));
            out.push_str("\n]\n}\n");
            out
        }
    }

    fn escape_json(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
}

pub use imp::{Lane, LaneReport, Mark, ObsReport, Origin, PhaseRing, PhaseSample, PhaseTotal};

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(phase: Phase, start_ns: u64, dur_ns: u64) -> PhaseSample {
        PhaseSample {
            phase,
            tick: 0,
            start_ns,
            dur_ns,
            items: 1,
        }
    }

    #[test]
    fn ring_wraps_dropping_oldest() {
        let mut r = PhaseRing::with_capacity(3);
        for i in 0..5u64 {
            r.push(sample(Phase::Eval, i, i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let starts: Vec<u64> = r.iter_oldest_first().map(|s| s.start_ns).collect();
        assert_eq!(starts, vec![2, 3, 4]);
    }

    #[test]
    fn lane_totals_survive_wraparound() {
        let mut lane = Lane::new(true, Origin::now(), 2);
        for _ in 0..10 {
            let m = lane.mark();
            lane.rec(Phase::Eval, 0, m, 3);
        }
        let rep = lane.report();
        assert_eq!(rep.samples.len(), 2);
        assert_eq!(rep.dropped, 8);
        assert_eq!(rep.totals[Phase::Eval.idx()].count, 10);
        assert_eq!(rep.totals[Phase::Eval.idx()].items, 30);
    }

    #[test]
    fn disarmed_lane_records_nothing() {
        let mut lane = Lane::new(false, Origin::now(), 64);
        let m = lane.mark();
        lane.rec(Phase::Apply, 1, m, 5);
        let rep = lane.report();
        assert!(rep.samples.is_empty());
        assert_eq!(rep.totals[Phase::Apply.idx()].count, 0);
    }

    #[test]
    fn chained_marks_produce_monotone_starts() {
        let mut lane = Lane::new(true, Origin::now(), 64);
        let m = lane.mark();
        let m = lane.rec(Phase::Apply, 0, m, 1);
        let m = lane.rec(Phase::Exchange, 0, m, 1);
        lane.rec(Phase::Done, 0, m, 0);
        let rep = lane.report();
        assert_eq!(rep.samples.len(), 3);
        for w in rep.samples.windows(2) {
            assert!(w[0].start_ns <= w[1].start_ns);
            // Chained: the next phase starts where the previous ended.
            assert_eq!(w[0].start_ns + w[0].dur_ns, w[1].start_ns);
        }
    }

    #[test]
    fn report_aggregation_and_trace_shape() {
        let lane_a = LaneReport {
            samples: vec![sample(Phase::Eval, 0, 10), sample(Phase::Eval, 20, 30)],
            dropped: 0,
            totals: Default::default(),
        };
        let lane_b = LaneReport {
            samples: vec![sample(Phase::Eval, 5, 50)],
            dropped: 1,
            totals: Default::default(),
        };
        let rep = ObsReport {
            lanes: vec![lane_a, lane_b],
            lane_names: vec!["worker 0".into(), "master".into()],
        };
        let h = rep.histogram(Phase::Eval);
        assert_eq!(h.len(), 3);
        assert_eq!(h.max(), Some(50));
        assert_eq!(rep.dropped(), 1);
        let json = rep.chrome_trace();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"tid\":1"));
    }
}
