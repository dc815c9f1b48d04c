//! Property tests for the `obs` layer's data structures: the
//! fixed-capacity [`PhaseRing`] and the per-lane aggregation that the
//! parallel engine's report path relies on.
//!
//! * wrap-around keeps exactly the newest `capacity` samples, drops the
//!   oldest, and never panics, for any push count and capacity;
//! * per-worker histograms merged in any grouping equal the histogram a
//!   single observer of the combined stream would have built.

use logicsim_sim::obs::{LaneReport, ObsReport, PhaseRing, PhaseSample};
use logicsim_sim::{Phase, NUM_PHASES};
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
}
