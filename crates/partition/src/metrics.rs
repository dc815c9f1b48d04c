//! Measured partition quality against a simulation trace.
//!
//! The paper models `M_P` analytically (Eq. 6); these functions measure
//! the real thing: replay a [`TickTrace`] against a [`Partition`] and
//! count the messages whose source and destination components live on
//! different processors, and the per-tick per-processor load imbalance
//! `beta` the partition induces.

use crate::Partition;
use logicsim_netlist::{CompId, ConnectivityGraph, Netlist};
use logicsim_sim::TickTrace;
use logicsim_stats::beta_from_tick_loads;

/// Static cut size of a partition: total connectivity weight between
/// components on different processors, **excluding dead logic**.
///
/// Components flagged dead by the LS0003 analysis (unreachable from any
/// primary output) carry zero partitioning weight everywhere else in
/// this crate, so edges incident to them must not count toward the cut
/// either: a "cut" wire into logic whose activity is never observable
/// does not represent real communication pressure. Counting them (as a
/// naive edge walk does) makes strategies look worse exactly on the
/// circuits where dead-weight elimination matters.
#[must_use]
pub fn cut_size(netlist: &Netlist, partition: &Partition) -> u64 {
    let graph = ConnectivityGraph::build(netlist, 16);
    cut_size_with(&graph, partition)
}

/// [`cut_size`] against an already-built connectivity graph.
///
/// Building the graph dominates the cost of `cut_size` at the 100k+
/// scales the `scale_study` bench sweeps; callers comparing several
/// partitions of the same netlist should build the graph once and use
/// this variant.
#[must_use]
pub fn cut_size_with(graph: &ConnectivityGraph, partition: &Partition) -> u64 {
    let mut cut = 0u64;
    for node in 0..graph.num_nodes() as u32 {
        if graph.node_weight(node) == 0 {
            continue; // dead source (LS0003)
        }
        let Some(a) = partition.part_of(graph.component(node)) else {
            continue;
        };
        for &(nb, w) in graph.neighbors(node) {
            if nb > node
                && graph.node_weight(nb) != 0
                && partition.part_of(graph.component(nb)) != Some(a)
            {
                cut += u64::from(w);
            }
        }
    }
    cut
}

/// Measured message volume `M_P`: messages crossing processor
/// boundaries under `partition` when the circuit executes `trace`.
///
/// Messages whose source or destination is not a simulated component
/// (e.g. primary-input events) never cross a boundary and are not
/// counted, matching the model's definition (component-to-component
/// propagations).
#[must_use]
pub fn measured_messages(trace: &TickTrace, partition: &Partition) -> u64 {
    trace
        .message_pairs()
        .filter(|&(src, dst)| {
            match (
                partition.part_of(CompId(src)),
                partition.part_of(CompId(dst)),
            ) {
                (Some(a), Some(b)) => a != b,
                _ => false,
            }
        })
        .count() as u64
}

/// Measured load-imbalance factor `beta`: for each busy tick, events
/// are attributed to the processor owning their source component, and
/// `beta` is the work-weighted mean of `max_load / (total/P)`
/// (see `logicsim_stats::beta_from_tick_loads`).
#[must_use]
pub fn measured_beta(trace: &TickTrace, partition: &Partition) -> f64 {
    let parts = partition.num_parts() as usize;
    let loads: Vec<Vec<u64>> = trace
        .ticks
        .iter()
        .map(|t| {
            let mut per = vec![0u64; parts];
            for e in &t.events {
                if let Some(p) = partition.part_of(CompId(e.source)) {
                    per[p as usize] += 1;
                }
            }
            per
        })
        .collect();
    beta_from_tick_loads(&loads)
}

/// A quality report for one (strategy, P) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionQuality {
    /// Strategy name.
    pub strategy: &'static str,
    /// Processor count.
    pub parts: u32,
    /// Messages crossing processor boundaries.
    pub messages: u64,
    /// The model's random-partitioning prediction `M_inf (1 - 1/P)`.
    pub predicted_random: f64,
    /// Measured load imbalance.
    pub beta: f64,
}

impl PartitionQuality {
    /// Evaluates a partition against a trace.
    #[must_use]
    pub fn evaluate(
        strategy: &'static str,
        trace: &TickTrace,
        partition: &Partition,
    ) -> PartitionQuality {
        let p = partition.num_parts();
        let m_inf = trace.total_messages_inf() as f64;
        PartitionQuality {
            strategy,
            parts: p,
            messages: measured_messages(trace, partition),
            predicted_random: m_inf * (1.0 - 1.0 / f64::from(p)),
            beta: measured_beta(trace, partition),
        }
    }

    /// Ratio of measured to model-predicted message volume (1.0 means
    /// the Eq. 6 random model is exact; below 1.0 the strategy beats
    /// random partitioning).
    #[must_use]
    pub fn reduction_vs_random(&self) -> f64 {
        if self.predicted_random == 0.0 {
            0.0
        } else {
            self.messages as f64 / self.predicted_random
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::{Partitioner, RandomPartitioner};
    use logicsim_netlist::{Delay, GateKind, Level, NetlistBuilder, SwitchKind};
    use logicsim_sim::{EventRecord, TickRecord};

    /// Four live switches from one rail to outputs of their own, split
    /// two and two: the rail is all they share, and it carries no
    /// message, so nothing is cut. A fifth switch sharing an output with
    /// the first, placed across from it, is.
    #[test]
    fn a_split_between_switches_that_share_only_a_rail_cuts_nothing() {
        let mut b = NetlistBuilder::new("rail");
        let vdd = b.net("vdd");
        b.supply(vdd, Level::One);
        let mut outs = Vec::new();
        let switches: Vec<CompId> = (0..4)
            .map(|i| {
                let (ctl, x) = (b.input(format!("c{i}")), b.net(format!("x{i}")));
                b.mark_output(x);
                outs.push(x);
                b.switch(SwitchKind::Pmos, ctl, vdd, x)
            })
            .collect();
        let ctl = b.input("c4");
        let fifth = b.switch(SwitchKind::Nmos, ctl, vdd, outs[0]);
        let n = b.finish().unwrap();
        assert_eq!(ConnectivityGraph::build(&n, 16).total_node_weight(), 5);

        let mut parts = vec![u32::MAX; n.num_components()];
        for (i, s) in switches.iter().enumerate() {
            parts[s.index()] = i as u32 % 2;
        }
        parts[fifth.index()] = 0;
        assert_eq!(cut_size(&n, &Partition::new(parts.clone(), 2)), 0);
        parts[fifth.index()] = 1;
        assert_eq!(cut_size(&n, &Partition::new(parts, 2)), 1);
    }

    #[test]
    fn cut_size_excludes_dead_logic() {
        // Two live inverters in series (a -> y0 -> y1 -> output) plus a
        // dead branch (y0 -> w0 -> w1, never reaching an output).
        let mut b = NetlistBuilder::new("half-dead");
        let a = b.input("a");
        let y0 = b.net("y0");
        let y1 = b.net("y1");
        let live0 = b.gate(GateKind::Not, &[a], y0, Delay::uniform(1));
        let live1 = b.gate(GateKind::Not, &[y0], y1, Delay::uniform(1));
        let w0 = b.net("w0");
        let w1 = b.net("w1");
        let dead0 = b.gate(GateKind::Buf, &[y0], w0, Delay::uniform(1));
        let dead1 = b.gate(GateKind::Buf, &[w0], w1, Delay::uniform(1));
        b.mark_output(y1);
        let n = b.finish().unwrap();

        // Everything on one part: no cut at all.
        let mut together = vec![u32::MAX; n.num_components()];
        for id in [live0, live1, dead0, dead1] {
            together[id.index()] = 0;
        }
        assert_eq!(cut_size(&n, &Partition::new(together.clone(), 2)), 0);

        // Split the *dead* chain across the boundary (and away from its
        // live feeder): only live-live edges may count, and both live
        // gates share part 0, so the cut must stay zero.
        let mut dead_split = together.clone();
        dead_split[dead0.index()] = 0;
        dead_split[dead1.index()] = 1;
        let p = Partition::new(dead_split, 2);
        assert_eq!(
            cut_size(&n, &p),
            0,
            "edges into LS0003-dead logic must not count toward the cut"
        );

        // Split the live pair: now there is a real cut.
        let mut live_split = together;
        live_split[live1.index()] = 1;
        assert!(cut_size(&n, &Partition::new(live_split, 2)) > 0);
    }

    /// A synthetic trace: component i sends to component i+1, ids 0..n.
    fn chain_trace(n: u32) -> TickTrace {
        TickTrace {
            start: 0,
            end: 10,
            ticks: vec![TickRecord {
                tick: 0,
                events: (0..n - 1)
                    .map(|i| EventRecord {
                        source: i,
                        dests: vec![i + 1],
                    })
                    .collect(),
            }],
        }
    }

    fn assign(parts: u32, v: Vec<u32>) -> Partition {
        Partition::new(v, parts)
    }

    #[test]
    fn messages_count_only_cross_partition() {
        let trace = chain_trace(4);
        // comps 0,1 on part 0; comps 2,3 on part 1: only 1->2 crosses.
        let p = assign(2, vec![0, 0, 1, 1]);
        assert_eq!(measured_messages(&trace, &p), 1);
        // All on one part: nothing crosses.
        let p1 = assign(1, vec![0, 0, 0, 0]);
        assert_eq!(measured_messages(&trace, &p1), 0);
        // Fully interleaved: everything crosses.
        let px = assign(2, vec![0, 1, 0, 1]);
        assert_eq!(measured_messages(&trace, &px), 3);
    }

    #[test]
    fn unassigned_components_do_not_cross() {
        let trace = chain_trace(3);
        let p = assign(2, vec![u32::MAX, 0, 1]);
        // 0->1 has unassigned source; only 1->2 counts.
        assert_eq!(measured_messages(&trace, &p), 1);
    }

    #[test]
    fn beta_of_single_processor_is_one() {
        let trace = chain_trace(5);
        let p = assign(1, vec![0; 5]);
        assert!((measured_beta(&trace, &p) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn beta_detects_skew() {
        let trace = chain_trace(5); // sources 0,1,2,3 active
        let skewed = assign(2, vec![0, 0, 0, 0, 1]); // all sources on part 0
        assert!((measured_beta(&trace, &skewed) - 2.0).abs() < 1e-12);
        let balanced = assign(2, vec![0, 1, 0, 1, 0]);
        assert!((measured_beta(&trace, &balanced) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn random_partition_tracks_eq6_on_uniform_traffic() {
        // A dense random-ish traffic pattern over 200 components.
        let n = 200u32;
        let ticks = vec![TickRecord {
            tick: 0,
            events: (0..n)
                .map(|i| EventRecord {
                    source: i,
                    dests: vec![(i * 17 + 3) % n, (i * 29 + 11) % n],
                })
                .collect(),
        }];
        let trace = TickTrace {
            start: 0,
            end: 1,
            ticks,
        };
        // Build a fake netlist-like assignment directly: the random
        // partitioner needs a netlist, so emulate with a plain shuffle.
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        for parts in [2u32, 4, 8] {
            let mut ids: Vec<u32> = (0..n).collect();
            ids.shuffle(&mut rng);
            let mut v = vec![0u32; n as usize];
            for (pos, id) in ids.iter().enumerate() {
                v[*id as usize] = (pos as u32) % parts;
            }
            let p = Partition::new(v, parts);
            let measured = measured_messages(&trace, &p) as f64;
            let predicted = trace.total_messages_inf() as f64 * (1.0 - 1.0 / f64::from(parts));
            let err = (measured - predicted).abs() / predicted;
            assert!(err < 0.15, "P={parts}: measured {measured} vs {predicted}");
        }
        let _ = RandomPartitioner::new(0).name();
    }
}
