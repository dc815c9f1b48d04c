//! `fm::refine_passes`, one level of the multilevel hierarchy at a time,
//! and the graph it starts from.
//!
//! The delay-estimation half of the FM kernel's tests (the partition
//! crate's `partition_pins` and proptests, and `fm`'s gain-heap
//! proptest). The hierarchies are the ones the multilevel partitioner
//! climbs on `rtp@10k` and `crossbar@10k` under activity weights
//! (`multilevel::coarsen` until a level has at most 192 nodes); every
//! level is refined from the bisection projected up from the level
//! below, as in the V-cycle, so each row starts where the partitioner's
//! own call starts. The crossbar's coarse levels have high-degree
//! nodes, where refinement is most of a level's cost. One row per level
//! times `refine_passes` as it is: gains computed once per call and
//! carried across passes, boundary vertices only in the gain heaps, a
//! pass over 1024 moves after its last new best prefix, the rest
//! flipped back.
//! Before timing, the refinement is checked not to raise the cut it was
//! handed, and the cut before and after is printed. The benchmark's
//! traced `partition.multilevel.partition_s` times the whole
//! partitioner.
//!
//! The `coarsen` group times `multilevel::coarsen`, heavy-edge clustering
//! under the weight cap, on the same two activity graphs: one level (the
//! finest graph, the root bisection's first contraction) and the whole
//! chain of levels down to the target. Its test is the partition crate's
//! `multilevel::tests::coarsening_preserves_weight_and_is_surjective`.
//! Before timing, each graph's levels are printed with their node and
//! adjacency-item counts. Throughput counts the finest graph's adjacency
//! items in both rows.
//!
//! The `activity_graph` group times the partitioners' input on `rtp@10k`,
//! `crossbar@10k` and `assoc_mem@10k`, the family with the most switches
//! on supply rails: static activity weights plus the connectivity graph,
//! built node by node with rails joining no pair (its differential test
//! is the netlist crate's `graph::tests::rows_equal_the_pair_walk`).
//! Throughput counts adjacency items, so ns per item is 1e9 / elem/s.
//!
//! The `levelize` group times `Levelization::compute`, the logic depths
//! `ml-act`'s activity weights start from, on the same three circuits.
//! A net that two or more switches share (a supply rail, a pass-gate
//! bus) enters its dependency graph once, as a hub; its differential
//! test is the netlist crate's
//! `depgraph::tests::hubs_give_the_clique_graphs_depths_and_cycles`.
//! `crossbar@10k` has no such net: its row times the hub detection
//! alone. Throughput counts components.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use logicsim::circuits::Benchmark;
use logicsim::netlist::analyze::Levelization;
use logicsim::partition::activity_graph;
use logicsim::partition::fm::{refine_passes, WorkGraph};
use logicsim::partition::multilevel::{coarsen, min_side_weight, COARSEN_TARGET, MAX_PASSES};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const SEED: u64 = 0x1987;

/// One level: its graph and the bisection refinement starts from.
struct Level {
    graph: WorkGraph,
    start: Vec<bool>,
}

/// The activity graph `ml-act` partitions, of `base` at 10k.
fn graph_at_10k(base: Benchmark) -> WorkGraph {
    let netlist = base.build_at(10_000).netlist;
    WorkGraph::from_connectivity(activity_graph(&netlist, true)).0
}

/// The coarse levels the V-cycle climbs from `graph` down to the target,
/// finest first, each with the fine→coarse map from the level above.
fn coarse_levels(graph: &WorkGraph) -> Vec<(WorkGraph, Vec<u32>)> {
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let mut out: Vec<(WorkGraph, Vec<u32>)> = Vec::new();
    loop {
        let fine = out.last().map_or(graph, |(g, _)| g);
        if fine.num_nodes() <= COARSEN_TARGET {
            return out;
        }
        let (coarse, map) = coarsen(fine, &mut rng).into_parts();
        assert!(coarse.num_nodes() < fine.num_nodes(), "coarsening stalled");
        out.push((coarse, map));
    }
}

/// The hierarchy of `base` at 10k, coarsest level first, each with the
/// bisection the V-cycle hands its refinement.
fn levels(base: Benchmark) -> Vec<Level> {
    let graph = graph_at_10k(base);
    let (coarse, mut maps): (Vec<_>, Vec<_>) = coarse_levels(&graph).into_iter().unzip();
    let mut graphs = vec![graph];
    graphs.extend(coarse);
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
    for (name, base) in [
        ("rtp", Benchmark::RtpChip),
        ("crossbar", Benchmark::CrossbarSwitch),
    ] {
        for level in levels(base) {
            let Level { graph, start } = &level;
            let min_w = min_side_weight(graph.total_vwgt());
            let before = graph.cut_weight(start);
            let mut side = start.clone();
            refine_passes(graph, &mut side, min_w, MAX_PASSES);
            let cut = graph.cut_weight(&side);
            assert!(
                cut <= before,
                "refinement raised the cut: {before} -> {cut}"
            );
            let n = graph.num_nodes();
            println!("{name}@10k n={n}: cut {before} -> kernel {cut}");
            group.throughput(Throughput::Elements(n as u64));
            group.bench_function(format!("{name}@10k/n{n}/kernel"), |b| {
                b.iter_batched(
                    || start.clone(),
                    |mut side| {
                        refine_passes(graph, &mut side, min_w, MAX_PASSES);
                        side
                    },
                    BatchSize::LargeInput,
                );
            });
        }
    }
    group.finish();
}

fn coarsen_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("coarsen");
    for (name, base) in [
        ("rtp", Benchmark::RtpChip),
        ("crossbar", Benchmark::CrossbarSwitch),
    ] {
        let graph = graph_at_10k(base);
        let items = |g: &WorkGraph| {
            (0..g.num_nodes())
                .map(|v| g.neighbors(v).count())
                .sum::<usize>()
        };
        let sizes: Vec<String> = std::iter::once(&graph)
            .chain(coarse_levels(&graph).iter().map(|(g, _)| g))
            .map(|g| format!("{} ({} items)", g.num_nodes(), items(g)))
            .collect();
        println!(
            "{name}@10k: {} levels: {}",
            sizes.len() - 1,
            sizes.join(" -> ")
        );
        group.throughput(Throughput::Elements(items(&graph) as u64));
        group.bench_function(format!("{name}@10k/level"), |b| {
            b.iter(|| coarsen(&graph, &mut ChaCha8Rng::seed_from_u64(SEED)));
        });
        group.bench_function(format!("{name}@10k/chain"), |b| {
            b.iter(|| coarse_levels(&graph));
        });
    }
    group.finish();
}

fn graph_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("activity_graph");
    for (name, base) in [
        ("rtp", Benchmark::RtpChip),
        ("crossbar", Benchmark::CrossbarSwitch),
        ("assoc_mem", Benchmark::AssocMem),
    ] {
        let netlist = base.build_at(10_000).netlist;
        let items = activity_graph(&netlist, true).adjacency().num_items();
        println!("{name}@10k: {items} adjacency items");
        group.throughput(Throughput::Elements(items as u64));
        group.bench_function(format!("{name}@10k"), |b| {
            b.iter(|| activity_graph(&netlist, true));
        });
    }
    group.finish();
}

fn levelize_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("levelize");
    for (name, base) in [
        ("rtp", Benchmark::RtpChip),
        ("assoc_mem", Benchmark::AssocMem),
        ("crossbar", Benchmark::CrossbarSwitch),
    ] {
        let netlist = base.build_at(10_000).netlist;
        let depth = Levelization::compute(&netlist).max_depth();
        println!("{name}@10k: max depth {depth}");
        group.throughput(Throughput::Elements(netlist.num_components() as u64));
        group.bench_function(format!("{name}@10k"), |b| {
            b.iter(|| Levelization::compute(&netlist));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    partition_benches,
    coarsen_benches,
    graph_benches,
    levelize_benches
);
criterion_main!(benches);
