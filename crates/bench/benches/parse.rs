//! `text::parse`, in bytes of netlist text per second.
//!
//! The delay-estimation half of the netlist crate's parser proptests:
//! the serialized `rtp` tiling at 10k, 100k and 1M components (0.6,
//! 5.7 and 60 MB of text), parsed into a validated `Netlist` —
//! tokenising, name interning, component construction, the fanout and
//! driver indices and the undriven-net check — and dropped. The 100k
//! text is the `eval-serial` workload's input and the 1M text
//! `scale-1m`'s; the benchmark's traced `netlist.text.parse_s` times
//! the same call once per job. At 1M the name table (16 MiB of slots)
//! is larger than the cache: that row is the one the parser's
//! overlapped slot reads are for. Each row also prints once what the
//! parsed netlist holds per component (`Netlist::memory_footprint`:
//! the component columns, the pin array, the name arena and the
//! fanout/driver indices).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use logicsim::circuits::Benchmark;
use logicsim::netlist::text;

fn parse_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("parse");
    for (scale, label) in [
        (10_000, "rtp@10k"),
        (100_000, "rtp@100k"),
        (1_000_000, "rtp@1m"),
    ] {
        let source = text::serialize(&Benchmark::RtpChip.build_at(scale).netlist);
        let parsed = text::parse(&source).expect("serializer output parses");
        println!(
            "parse/{label}: {:.1} bytes per component held by the parsed netlist \
             ({} components, {} pins)",
            parsed.memory_footprint() as f64 / parsed.num_components() as f64,
            parsed.num_components(),
            parsed.gate_pins().num_items()
        );
        drop(parsed);
        group.throughput(Throughput::Bytes(source.len() as u64));
        group.bench_function(label, |b| {
            b.iter(|| text::parse(&source).expect("serializer output parses"));
        });
    }
    group.finish();
}

criterion_group!(benches, parse_benches);
criterion_main!(benches);
