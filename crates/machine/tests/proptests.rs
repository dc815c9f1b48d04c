//! Property tests for the machine simulator: conservation, floors, and
//! model-ordering invariants over random workloads and configurations.

use logicsim_core::taxonomy::TimeAdvance;
use logicsim_machine::network::{drain, Message};
use logicsim_machine::sim::{random_component_partition, simulate_trace};
use logicsim_machine::synthetic::SyntheticWorkload;
use logicsim_machine::{MachineConfig, NetworkKind};
use proptest::prelude::*;

fn any_network() -> impl Strategy<Value = NetworkKind> {
    prop_oneof![
        (1u32..5).prop_map(|width| NetworkKind::BusSet { width }),
        Just(NetworkKind::Crossbar),
        Just(NetworkKind::Delta),
    ]
}

fn any_config() -> impl Strategy<Value = MachineConfig> {
    (1u32..12, 1u32..7, any_network(), 1.0f64..200.0, 1.0f64..4.0)
        .prop_map(|(p, l, net, h, tm)| MachineConfig::paper_design(p, l, net, h, tm))
}

fn any_workload() -> impl Strategy<Value = SyntheticWorkload> {
    (
        1u64..30,
        0u64..200,
        1.0f64..60.0,
        1.0f64..3.5,
        20u32..500,
        0.0f64..0.9,
        0.0f64..0.9,
    )
        .prop_map(|(b, i, n, f, c, burst, hot)| {
            let mut w = SyntheticWorkload::uniform(b, i, n, f, c);
            w.burstiness = burst;
            w.hotspot = hot;
            w
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Conservation: the machine evaluates exactly the trace's events,
    /// and sends no more messages than M_inf.
    #[test]
    fn event_and_message_conservation(
        cfg in any_config(),
        w in any_workload(),
        seed in any::<u64>(),
    ) {
        let trace = w.generate(seed);
        let part = random_component_partition(w.components, cfg.processors, seed ^ 9);
        let r = simulate_trace(&cfg, &trace, &part);
        prop_assert_eq!(r.events, trace.total_events());
        prop_assert!(r.messages <= trace.total_messages_inf());
        prop_assert_eq!(r.busy_ticks, trace.busy_ticks());
        prop_assert_eq!(r.ticks, trace.end - trace.start);
    }

    /// Timing floors: the run can never be faster than sync alone, the
    /// serial evaluation floor, or the network capacity floor.
    #[test]
    fn run_time_floors(
        cfg in any_config(),
        w in any_workload(),
        seed in any::<u64>(),
    ) {
        let trace = w.generate(seed);
        let part = random_component_partition(w.components, cfg.processors, seed ^ 9);
        let r = simulate_trace(&cfg, &trace, &part);
        let sync_floor = match cfg.time_advance {
            TimeAdvance::UnitIncrement => (trace.end - trace.start) as f64 * cfg.t_sync(),
            TimeAdvance::EventBased => trace.busy_ticks() as f64 * cfg.t_sync(),
        };
        prop_assert!(r.total_cycles >= sync_floor - 1e-6);
        // Aggregate evaluation work spread perfectly over P pipelines.
        let work_floor = r.events as f64 * cfg.stage_time() / f64::from(cfg.processors);
        prop_assert!(r.total_cycles + 1e-6 >= work_floor.min(r.total_cycles));
        // Utilization and bottleneck classification stay in range.
        let u = r.slave_utilization();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&u), "utilization {u}");
        // Per-slave accounting is consistent with the aggregate.
        let per: f64 = r.per_slave_busy.iter().sum();
        prop_assert!((per - r.slave_busy).abs() < 1e-6 * r.slave_busy.max(1.0));
    }

    /// EI never loses to UI on the same trace, and saves exactly the
    /// idle sync when nothing else changes.
    #[test]
    fn ei_dominates_ui(
        cfg in any_config(),
        w in any_workload(),
        seed in any::<u64>(),
    ) {
        let trace = w.generate(seed);
        let part = random_component_partition(w.components, cfg.processors, seed ^ 9);
        let ui = simulate_trace(&cfg, &trace, &part);
        let ei_cfg = cfg.clone().with_event_increment();
        let ei = simulate_trace(&ei_cfg, &trace, &part);
        let saved = ui.total_cycles - ei.total_cycles;
        let expected = trace.idle_ticks() as f64 * cfg.t_sync();
        prop_assert!((saved - expected).abs() < 1e-6, "saved {saved} vs {expected}");
    }

    /// A wider bus-set never slows the machine down.
    #[test]
    fn wider_network_never_hurts(
        p in 2u32..10,
        l in 1u32..6,
        w in any_workload(),
        seed in any::<u64>(),
    ) {
        let trace = w.generate(seed);
        let part = random_component_partition(w.components, p, seed ^ 9);
        let mut prev = f64::INFINITY;
        for width in [1u32, 2, 4] {
            let cfg = MachineConfig::paper_design(
                p, l, NetworkKind::BusSet { width }, 50.0, 3.0,
            );
            let r = simulate_trace(&cfg, &trace, &part);
            prop_assert!(r.total_cycles <= prev + 1e-6);
            prev = r.total_cycles;
        }
    }

    /// Network drain invariants: finish >= every ready time + t_msg,
    /// and a width-1 bus serializes exactly.
    #[test]
    fn network_drain_invariants(
        msgs in proptest::collection::vec((0.0f64..100.0, 0u32..8, 0u32..8), 0..40),
        tm in 0.5f64..4.0,
        net in any_network(),
    ) {
        let mut sorted: Vec<Message> = msgs;
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        let (finish, busy) = drain(net, 8, &sorted, tm);
        prop_assert!((busy - sorted.len() as f64 * tm).abs() < 1e-9);
        if let Some(last) = sorted.last() {
            prop_assert!(finish >= last.0 + tm - 1e-9);
        } else {
            prop_assert_eq!(finish, 0.0);
        }
        // Single bus: finish >= total service demand.
        let (f1, _) = drain(NetworkKind::BusSet { width: 1 }, 8, &sorted, tm);
        prop_assert!(f1 + 1e-9 >= sorted.len() as f64 * tm);
        // And every other network is at least as fast as the single bus.
        prop_assert!(finish <= f1 + 1e-9);
    }
}
