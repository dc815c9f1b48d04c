//! Property tests for the `obs` layer's data structures: the
//! fixed-capacity [`PhaseRing`] and the per-lane aggregation that the
//! parallel engine's report path relies on.
//!
//! * wrap-around keeps exactly the newest `capacity` samples, drops the
//!   oldest, and never panics, for any push count and capacity;
//! * per-worker histograms merged in any grouping equal the histogram a
//!   single observer of the combined stream would have built;
//! * [`LaneReport::merge`] adds totals exactly and keeps samples sorted
//!   by start time.

use logicsim_sim::obs::{LaneReport, ObsReport, PhaseRing, PhaseSample, PhaseTotal};
use logicsim_sim::{Phase, NUM_PHASES};
use logicsim_stats::Histogram;
use proptest::prelude::*;

fn phase_of(code: u8) -> Phase {
    Phase::ALL[code as usize % NUM_PHASES]
}

fn sample(code: u8, start_ns: u64, dur_ns: u64) -> PhaseSample {
    PhaseSample {
        phase: phase_of(code),
        tick: u64::from(code),
        start_ns,
        dur_ns,
        items: 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ring_keeps_newest_capacity_samples(
        durs in proptest::collection::vec(0u64..1_000_000, 0..200),
        capacity in 0usize..40,
    ) {
        let mut ring = PhaseRing::with_capacity(capacity);
        let cap = capacity.max(1); // constructor clamps to >= 1
        for (i, &d) in durs.iter().enumerate() {
            ring.push(sample(0, i as u64, d));
        }
        prop_assert_eq!(ring.capacity(), cap);
        prop_assert_eq!(ring.len(), durs.len().min(cap));
        prop_assert_eq!(ring.dropped(), durs.len().saturating_sub(cap) as u64);
        // Exactly the newest samples survive, oldest first.
        let kept: Vec<u64> = ring.iter_oldest_first().map(|s| s.dur_ns).collect();
        let expect: Vec<u64> = durs
            .iter()
            .copied()
            .skip(durs.len().saturating_sub(cap))
            .collect();
        prop_assert_eq!(kept, expect);
        ring.clear();
        prop_assert!(ring.is_empty());
        prop_assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn merged_lane_histograms_equal_single_stream(
        stream in proptest::collection::vec((0u8..NUM_PHASES as u8, 0u64..100_000), 0..300),
        workers in 1usize..9,
    ) {
        // One observer of the whole stream.
        let single = ObsReport {
            lanes: vec![LaneReport {
                samples: stream
                    .iter()
                    .enumerate()
                    .map(|(i, &(p, d))| sample(p, i as u64, d))
                    .collect(),
                dropped: 0,
                totals: Default::default(),
            }],
            lane_names: vec!["single".to_string()],
        };
        // The same stream dealt round-robin across per-worker lanes.
        let mut lanes = vec![Vec::new(); workers];
        for (i, &(p, d)) in stream.iter().enumerate() {
            lanes[i % workers].push(sample(p, i as u64, d));
        }
        let split = ObsReport {
            lanes: lanes
                .into_iter()
                .map(|samples| LaneReport { samples, dropped: 0, totals: Default::default() })
                .collect(),
            lane_names: (0..workers).map(|w| format!("worker {w}")).collect(),
        };
        for phase in Phase::ALL {
            prop_assert_eq!(split.histogram(phase), single.histogram(phase));
            prop_assert_eq!(split.summary(phase), single.summary(phase));
        }
    }

    #[test]
    fn lane_merge_adds_totals_and_sorts_samples(
        a in proptest::collection::vec((0u8..NUM_PHASES as u8, 0u64..10_000, 0u64..500), 0..60),
        b in proptest::collection::vec((0u8..NUM_PHASES as u8, 0u64..10_000, 0u64..500), 0..60),
    ) {
        let build = |spec: &[(u8, u64, u64)]| -> LaneReport {
            let mut totals = [PhaseTotal::default(); NUM_PHASES];
            let mut samples = Vec::new();
            for &(p, start, d) in spec {
                let s = sample(p, start, d);
                totals[s.phase.idx()].count += 1;
                totals[s.phase.idx()].total_ns += d;
                totals[s.phase.idx()].items += s.items;
                samples.push(s);
            }
            samples.sort_by_key(|s| s.start_ns);
            LaneReport { samples, dropped: spec.len() as u64, totals }
        };
        let la = build(&a);
        let lb = build(&b);
        let mut merged = la.clone();
        merged.merge(lb.clone());

        prop_assert_eq!(merged.samples.len(), la.samples.len() + lb.samples.len());
        prop_assert!(merged.samples.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
        prop_assert_eq!(merged.dropped, la.dropped + lb.dropped);
        for i in 0..NUM_PHASES {
            prop_assert_eq!(merged.totals[i].count, la.totals[i].count + lb.totals[i].count);
            prop_assert_eq!(
                merged.totals[i].total_ns,
                la.totals[i].total_ns + lb.totals[i].total_ns
            );
            prop_assert_eq!(merged.totals[i].items, la.totals[i].items + lb.totals[i].items);
        }
        // Totals feed executed_ticks/parameter derivation; cross-check
        // against the histogram path for one phase.
        let rep = ObsReport {
            lanes: vec![merged],
            lane_names: vec!["merged".to_string()],
        };
        for phase in Phase::ALL {
            let h: Histogram = rep.histogram(phase);
            prop_assert_eq!(h.len(), rep.total(phase).count);
        }
    }
}
