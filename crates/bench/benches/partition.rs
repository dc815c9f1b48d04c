//! `fm::refine_passes`, one level of the multilevel hierarchy at a time.
//!
//! The delay-estimation half of the partition crate's
//! `bucketed_fm_matches_reference` proptests. The hierarchy is the one
//! the multilevel partitioner climbs on `rtp@10k` under activity
//! weights (`multilevel::coarsen` until a level has at most 192 nodes);
//! every level is refined from the bisection projected up from the
//! level below, as in the V-cycle, so each row starts where the
//! partitioner's own call starts. Two rows per level:
//!
//! * `kernel` — `refine_passes` as it is: gains computed once per call
//!   and carried across passes, boundary vertices only in the buckets,
//!   a pass over 1024 moves after its last new best prefix, the rest
//!   flipped back.
//! * `exhaustive_oracle` — the pass loop this kernel replaced, kept
//!   here verbatim as the timing oracle: every pass recomputes all `n`
//!   gains, fills two `n`-entry ordered sets, moves every vertex once
//!   and keeps a prefix.
//!
//! The two stop differently, so their bisections differ; before timing,
//! each is checked not to raise the cut it was handed and the cuts are
//! printed side by side. The benchmark's traced
//! `partition.multilevel.partition_s` times the whole partitioner.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use logicsim::circuits::Benchmark;
use logicsim::partition::fm::{refine_passes, WorkGraph};
use logicsim::partition::multilevel::{coarsen, min_side_weight, COARSEN_TARGET, MAX_PASSES};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;

const SEED: u64 = 0x1987;

/// `fm::refine_passes` at commit `f8e9338`.
fn exhaustive_refine_passes(g: &WorkGraph, side: &mut [bool], min_w: u64, max_passes: u32) {
    let n = g.num_nodes();
    if n <= 1 {
        return;
    }
    let mut weights = g.side_weights(side);
    let gain_of = |side: &[bool], v: usize| -> i64 {
        g.neighbors(v)
            .map(|(j, w)| if side[j as usize] != side[v] { w } else { -w })
            .sum()
    };
    for _ in 0..max_passes {
        let mut work = side.to_vec();
        let mut w = weights;
        let mut gains: Vec<i64> = (0..n).map(|v| gain_of(&work, v)).collect();
        let mut locked = vec![false; n];
        let mut buckets: [BTreeSet<(i64, u32)>; 2] = [BTreeSet::new(), BTreeSet::new()];
        for v in 0..n {
            buckets[usize::from(work[v])].insert((gains[v], v as u32));
        }
        let mut history: Vec<(usize, i64)> = Vec::with_capacity(n);
        for _ in 0..n {
            let mut candidate: Option<(i64, u32)> = None;
            for (s, bucket) in buckets.iter().enumerate() {
                for &(gain, v32) in bucket.iter().rev().take(8) {
                    let vw = g.vertex_weight(v32 as usize);
                    if w[s] >= min_w + vw || vw == 0 {
                        candidate = candidate.max(Some((gain, v32)));
                        break;
                    }
                }
            }
            let Some((gain, v32)) = candidate else { break };
            let v = v32 as usize;
            let from = usize::from(work[v]);
            buckets[from].remove(&(gain, v32));
            w[from] -= g.vertex_weight(v);
            work[v] = !work[v];
            w[1 - from] += g.vertex_weight(v);
            locked[v] = true;
            history.push((v, gain));
            for (j32, ew) in g.neighbors(v) {
                let j = j32 as usize;
                if locked[j] {
                    continue;
                }
                let s = usize::from(work[j]);
                buckets[s].remove(&(gains[j], j32));
                if work[j] != work[v] {
                    gains[j] += 2 * ew;
                } else {
                    gains[j] -= 2 * ew;
                }
                buckets[s].insert((gains[j], j32));
            }
        }
        let mut best_sum = 0i64;
        let mut sum = 0i64;
        let mut best_k = 0usize;
        for (k, &(_, gain)) in history.iter().enumerate() {
            sum += gain;
            if sum > best_sum {
                best_sum = sum;
                best_k = k + 1;
            }
        }
        if best_k == 0 {
            break;
        }
        for &(v, _) in history.iter().take(best_k) {
            let from = usize::from(side[v]);
            weights[from] -= g.vertex_weight(v);
            side[v] = !side[v];
            weights[1 - from] += g.vertex_weight(v);
        }
    }
}

/// One level: its graph and the bisection refinement starts from.
struct Level {
    graph: WorkGraph,
    start: Vec<bool>,
}

/// The hierarchy of `rtp@10k`, coarsest level first, each with the
/// bisection the V-cycle hands its refinement.
fn levels() -> Vec<Level> {
    let netlist = Benchmark::RtpChip.build_at(10_000).netlist;
    let connectivity = logicsim::partition::activity_graph(&netlist, true);
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let mut graphs = vec![WorkGraph::from_connectivity(&connectivity)];
    let mut maps: Vec<Vec<u32>> = Vec::new();
    while graphs.last().expect("nonempty").num_nodes() > COARSEN_TARGET {
        let (graph, map) = coarsen(graphs.last().expect("nonempty"), &mut rng).into_parts();
        assert!(
            graph.num_nodes() < graphs.last().expect("nonempty").num_nodes(),
            "coarsening stalled"
        );
        graphs.push(graph);
        maps.push(map);
    }
    // Coarsest: the first vertices by index up to half the weight.
    let coarsest = graphs.last().expect("nonempty");
    let half = coarsest.total_vwgt() / 2;
    let mut acc = 0;
    let mut start: Vec<bool> = (0..coarsest.num_nodes())
        .map(|v| {
            acc += coarsest.vertex_weight(v);
            acc <= half
        })
        .collect();
    let mut out = Vec::new();
    while let Some(graph) = graphs.pop() {
        let mut refined = start.clone();
        let min_w = min_side_weight(graph.total_vwgt());
        refine_passes(&graph, &mut refined, min_w, MAX_PASSES);
        let projected = maps
            .pop()
            .map(|map| map.iter().map(|&c| refined[c as usize]).collect());
        out.push(Level { graph, start });
        match projected {
            Some(side) => start = side,
            None => break,
        }
    }
    out
}

fn partition_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("refine_passes");
    for level in levels() {
        let Level { graph, start } = &level;
        let min_w = min_side_weight(graph.total_vwgt());
        let before = graph.cut_weight(start);
        let refined_by = |refine: fn(&WorkGraph, &mut [bool], u64, u32)| {
            let mut side = start.clone();
            refine(graph, &mut side, min_w, MAX_PASSES);
            let cut = graph.cut_weight(&side);
            assert!(
                cut <= before,
                "refinement raised the cut: {before} -> {cut}"
            );
            cut
        };
        let n = graph.num_nodes();
        println!(
            "rtp@10k n={n}: cut {before} -> kernel {}, exhaustive {}",
            refined_by(refine_passes),
            refined_by(exhaustive_refine_passes)
        );
        group.throughput(Throughput::Elements(n as u64));
        for (name, refine) in [
            (
                "kernel",
                refine_passes as fn(&WorkGraph, &mut [bool], u64, u32),
            ),
            ("exhaustive_oracle", exhaustive_refine_passes),
        ] {
            group.bench_function(format!("rtp@10k/n{n}/{name}"), |b| {
                b.iter_batched(
                    || start.clone(),
                    |mut side| {
                        refine(graph, &mut side, min_w, MAX_PASSES);
                        side
                    },
                    BatchSize::LargeInput,
                );
            });
        }
    }
    group.finish();
}

criterion_group!(benches, partition_benches);
criterion_main!(benches);
