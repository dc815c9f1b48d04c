//! Tiled scaling of the five benchmarks to 10k–1M+ components.
//!
//! The paper notes its circuits "could be scaled to larger versions";
//! this module does so mechanically: a target size is met by
//! instantiating `ceil(target / base_size)` **tiles** of a base
//! benchmark and wiring them together so the result behaves like one
//! large chip rather than a disconnected forest:
//!
//! * **Tile 0 is the base instance verbatim** — identical net names and
//!   component order — so the benchmark's stimulus plan (which resolves
//!   inputs by name) drives the scaled circuit unchanged.
//! * **Global signals** (inputs with `Clock`, `Const`, or `Pulse` roles
//!   in the base stimulus) are distributed, not replicated: tile `t>0`
//!   receives a local buffered copy of tile 0's net — a one-level clock
//!   tree, exactly how real chips ship a clock across a die.
//! * **Data inputs** (random-role or unassigned) of tile `t>0` are
//!   rewired to *outputs of earlier tiles* through a 2-tick buffer:
//!   mostly the neighboring tile `t-1`, with every fourth input
//!   reaching back to the head of the tile's column — short local
//!   wires plus occasional long hops, like a placed-and-routed
//!   floorplan. Tiles are grouped into *columns* of a height chosen
//!   from the base circuit's logic depth so that the longest
//!   combinational chain through the array stays below the LS0005
//!   lint threshold; column heads draw their data from tile 0. The
//!   donor output is chosen by a seeded RNG, so the wiring (and the
//!   netlist's [structural digest]) is a pure function of
//!   `(benchmark, target, seed)`.
//! * Every tile's copy of the base outputs is observable, so the
//!   LS0003 liveness cone covers each tile exactly as it covers the
//!   base circuit: a lint-clean base scales to a lint-clean tile array.
//!
//! Tiles are connected into a DAG (donors always have a smaller tile
//! index), so scaling can never introduce a combinational cycle that
//! the base circuit did not have.
//!
//! [structural digest]: logicsim_netlist::Netlist::structural_digest

use crate::{Benchmark, BenchmarkInstance};
use logicsim_netlist::analyze::Levelization;
use logicsim_netlist::{Component, ComponentRef, Delay, GateKind, NetId, NetlistBuilder};
use logicsim_sim::SignalRole;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Parameters for [`build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaledParams {
    /// The base benchmark to tile.
    pub base: Benchmark,
    /// Minimum number of simulated components in the result.
    pub target_components: usize,
    /// Seed for the inter-tile wiring choices.
    pub seed: u64,
}

/// The default wiring seed (the paper's year, like the stimulus seed).
pub const DEFAULT_SEED: u64 = 0x1987;

/// Builds a scaled benchmark instance by tiling (see module docs).
///
/// Targets at or below the base size return the base instance
/// unchanged; otherwise the result has at least `target_components`
/// simulated components.
#[must_use]
pub fn build(params: &ScaledParams) -> BenchmarkInstance {
    let base = params.base.build_default();
    let base_size = base.netlist.num_simulated_components();
    let tiles = params.target_components.div_ceil(base_size.max(1));
    if tiles <= 1 {
        return base;
    }
    let nl = &base.netlist;
    let n = nl.num_nets();

    // Classify base input nets: global (clock/const/pulse) vs data.
    let mut global = vec![false; n];
    for (name, role) in &base.stimulus.assignments {
        if let Some(net) = nl.find_net(name) {
            if !matches!(role, SignalRole::Random { .. }) {
                global[net.index()] = true;
            }
        }
    }

    let name_bytes: usize = (0..n).map(|i| nl.net_name(NetId(i as u32)).len() + 6).sum();
    let mut b = NetlistBuilder::new(format!("{}x{tiles}", nl.name()));
    b.reserve(
        tiles * n,
        name_bytes * tiles,
        tiles * nl.num_components() + tiles * nl.inputs().len(),
    );

    // All nets, tile-major: net (t, i) has id t*n + i. Tile 0 keeps the
    // base names (interned, so the stimulus spec still resolves);
    // later tiles get prefixed arena-only names.
    for i in 0..n {
        b.net(nl.net_name(NetId(i as u32)));
    }
    for t in 1..tiles {
        for i in 0..n {
            b.bulk_net(format_args!("t{t}|{}", nl.net_name(NetId(i as u32))));
        }
    }

    // Column height: every hop through a tile adds at most
    // `base_depth + 1` combinational levels (the buffer plus the
    // deepest input-to-output path), and a column chains `height`
    // tiles off tile 0, so `(height + 1) * (depth + 2)` is kept under
    // the LS0005 threshold (512) with margin.
    let base_depth = Levelization::compute(nl).max_depth() as usize;
    let height = (480 / (base_depth + 2)).saturating_sub(1).max(1);
    let mut rng = ChaCha8Rng::seed_from_u64(params.seed);
    let exports = nl.outputs();
    assert!(
        !exports.is_empty(),
        "base benchmark has no outputs to export"
    );

    // A gate's pins in tile `t`, reused from gate to gate.
    let mut pins: Vec<NetId> = Vec::new();
    for t in 0..tiles {
        let at = |net: NetId| NetId((t * n + net.index()) as u32);
        let mut data_inputs = 0usize;
        for (_, comp) in nl.iter() {
            match comp {
                ComponentRef::Input { net } if t > 0 => {
                    let (source, delay) = if global[net.index()] {
                        // Local copy of the shared global: one buffer
                        // level off tile 0's net.
                        (net, Delay::uniform(1))
                    } else {
                        // Data input: wired to an exported output of an
                        // earlier tile. Within a column tiles chain off
                        // their neighbor; column heads (and every fourth
                        // input, as a long hop) draw from the column
                        // head or tile 0.
                        let pos = (t - 1) % height;
                        let head = t - pos;
                        let donor = if pos == 0 {
                            0
                        } else if data_inputs % 4 == 3 {
                            head
                        } else {
                            t - 1
                        };
                        data_inputs += 1;
                        let out = exports[rng.gen_range(0..exports.len())];
                        (NetId((donor * n + out.index()) as u32), Delay::uniform(2))
                    };
                    b.gate(GateKind::Buf, &[source], at(net), delay);
                }
                ComponentRef::Input { net } => {
                    b.add_component(Component::Input { net: at(net) });
                }
                ComponentRef::Gate {
                    kind,
                    inputs,
                    output,
                    delay,
                } => {
                    pins.clear();
                    pins.extend(inputs.iter().map(|&i| at(i)));
                    b.gate(kind, &pins, at(output), delay);
                }
                ComponentRef::Switch {
                    kind,
                    control,
                    a,
                    b: bb,
                } => {
                    b.switch(kind, at(control), at(a), at(bb));
                }
                ComponentRef::Pull { net, level } => {
                    b.pull(at(net), level);
                }
                ComponentRef::Supply { net, level } => {
                    b.supply(at(net), level);
                }
            }
        }
        for &out in exports {
            b.mark_output(at(out));
        }
    }

    let netlist = b.finish().expect("tiled netlist is valid by construction");
    BenchmarkInstance {
        netlist,
        stimulus: base.stimulus,
        technology: base.technology,
        clocking: base.clocking,
        vector_period: base.vector_period,
    }
}

/// Parses a human scale suffix: `2500`, `10k`, `100K`, `1m`, `1M`
/// (k = 1 000, m = 1 000 000).
#[must_use]
pub fn parse_scale(s: &str) -> Option<usize> {
    let (digits, mult) = match s.as_bytes().last()? {
        b'k' | b'K' => (&s[..s.len() - 1], 1_000usize),
        b'm' | b'M' => (&s[..s.len() - 1], 1_000_000usize),
        _ => (s, 1),
    };
    if digits.is_empty() {
        return None;
    }
    digits.parse::<usize>().ok()?.checked_mul(mult)
}

/// Parses a benchmark spec `family` or `family@scale` (e.g.
/// `stopwatch@100k`) into the benchmark and optional component target.
#[must_use]
pub fn parse_spec(spec: &str) -> Option<(Benchmark, Option<usize>)> {
    match spec.split_once('@') {
        None => Some((Benchmark::from_slug(spec)?, None)),
        Some((family, scale)) => Some((Benchmark::from_slug(family)?, Some(parse_scale(scale)?))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logicsim_netlist::analyze::{analyze, Severity};

    #[test]
    fn parse_scale_understands_suffixes() {
        assert_eq!(parse_scale("2500"), Some(2500));
        assert_eq!(parse_scale("10k"), Some(10_000));
        assert_eq!(parse_scale("100K"), Some(100_000));
        assert_eq!(parse_scale("1m"), Some(1_000_000));
        assert_eq!(parse_scale("1M"), Some(1_000_000));
        assert_eq!(parse_scale(""), None);
        assert_eq!(parse_scale("k"), None);
        assert_eq!(parse_scale("12q"), None);
    }

    #[test]
    fn parse_spec_handles_families_and_scales() {
        assert_eq!(
            parse_spec("stopwatch@100k"),
            Some((Benchmark::StopWatch, Some(100_000)))
        );
        assert_eq!(
            parse_spec("crossbar"),
            Some((Benchmark::CrossbarSwitch, None))
        );
        assert_eq!(
            parse_spec("rtp_chip@10k"),
            Some((Benchmark::RtpChip, Some(10_000)))
        );
        assert_eq!(parse_spec("nope@10k"), None);
        assert_eq!(parse_spec("stopwatch@"), None);
    }

    #[test]
    fn meets_target_and_keeps_base_below_it() {
        for bench in Benchmark::ALL {
            let base = bench.build_default();
            let small = build(&ScaledParams {
                base: bench,
                target_components: 10,
                seed: DEFAULT_SEED,
            });
            assert_eq!(
                small.netlist.structural_digest(),
                base.netlist.structural_digest(),
                "{}: tiny targets must return the base instance",
                bench.paper_name()
            );
            let scaled = build(&ScaledParams {
                base: bench,
                target_components: 10_000,
                seed: DEFAULT_SEED,
            });
            let size = scaled.netlist.num_simulated_components();
            assert!(size >= 10_000, "{}: {size}", bench.paper_name());
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed_and_scale() {
        for bench in [Benchmark::StopWatch, Benchmark::CrossbarSwitch] {
            let d = |seed| {
                build(&ScaledParams {
                    base: bench,
                    target_components: 10_000,
                    seed,
                })
                .netlist
                .structural_digest()
            };
            assert_eq!(d(1), d(1), "{}", bench.paper_name());
            assert_ne!(
                d(1),
                d(2),
                "{}: wiring seed must matter",
                bench.paper_name()
            );
        }
    }

    #[test]
    fn stimulus_still_resolves_by_name() {
        for bench in Benchmark::ALL {
            let scaled = build(&ScaledParams {
                base: bench,
                target_components: 10_000,
                seed: DEFAULT_SEED,
            });
            assert!(
                scaled.stimulus.build(&scaled.netlist, 1).is_ok(),
                "{}: stimulus no longer resolves",
                bench.paper_name()
            );
        }
    }

    #[test]
    fn tiled_instances_stay_lint_clean() {
        // Tile-boundary wiring must not introduce warnings the base
        // does not have (dead logic, floating groups, drive fights).
        for bench in Benchmark::ALL {
            let base_report = analyze(&bench.build_default().netlist);
            let scaled = build(&ScaledParams {
                base: bench,
                target_components: 10_000,
                seed: DEFAULT_SEED,
            });
            let report = analyze(&scaled.netlist);
            assert!(
                !report.has_errors(),
                "{}: scaled instance has lint errors",
                bench.paper_name()
            );
            assert!(
                report.count(Severity::Warning) == 0
                    || report.count(Severity::Warning) <= base_report.count(Severity::Warning),
                "{}: scaling added warnings ({} vs base {})",
                bench.paper_name(),
                report.count(Severity::Warning),
                base_report.count(Severity::Warning)
            );
        }
    }
}
