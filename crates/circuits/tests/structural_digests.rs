//! The structure of every benchmark family, pinned: the five base
//! circuits and their @10k tilings, each by its
//! [`structural_digest`](logicsim_netlist::Netlist::structural_digest)
//! and by a digest of its text and JSON forms.
//!
//! The structural digest folds every component's kind, pins, delay and
//! terminals in id order, the net names and the input and output lists,
//! so a change to how a netlist is stored or built that moves any id,
//! pin or name fails here before any simulation runs; the two form
//! digests hold `text::serialize` and the serde JSON byte for byte.
//! After a deliberate change to a generator, print the new pins with
//! `cargo test --release -p logicsim-circuits --test structural_digests -- --nocapture`.

use logicsim_circuits::{scaled, Benchmark, ScaledParams};
use logicsim_netlist::{text, Netlist};

/// The four digests of one netlist: structure, text form, JSON form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    structure: u64,
    text: u64,
    json: u64,
}

/// `(family, base, @10k)`.
const PINS: [(Benchmark, Pin, Pin); 5] = [
    (
        Benchmark::StopWatch,
        pin(0x019b06cd43df46d6, 0x0c05ff7f6bdd0dcb, 0x0d59e75f7601700f),
        pin(0xacfb65a7874d708f, 0x05934375e422370c, 0xf8cabc5ba9765e1d),
    ),
    (
        Benchmark::AssocMem,
        pin(0x43f5ef7042ee332e, 0x3bdf1c89c4f9fe57, 0x5096c7cbcef4201f),
        pin(0xe888103e93b0e129, 0xb652bf897798c7d8, 0x23d8389fc871dd2c),
    ),
    (
        Benchmark::PriorityQueue,
        pin(0xfd6c457e3dd29b6b, 0x94cf3bcec31b82e7, 0x75ce1664ce457880),
        pin(0x584ee15d1952b12c, 0x4f741e0462b135ae, 0xebfedc675c5afdf8),
    ),
    (
        Benchmark::RtpChip,
        pin(0x1bcb44200d17ac79, 0xb17a6de9533a3815, 0x272045f9d1369015),
        pin(0x425689370f5fd305, 0x21d2bca2bbec6515, 0xd3ed0158510625f2),
    ),
    (
        Benchmark::CrossbarSwitch,
        pin(0x9486265c8ba276ea, 0x12fcc6cce58fb3d7, 0x92ed0bb366defbe2),
        pin(0x6f68e1e7bb94fabf, 0x70d1a3f4fc936596, 0x77e9c1d17704559d),
    ),
];

const fn pin(structure: u64, text: u64, json: u64) -> Pin {
    Pin {
        structure,
        text,
        json,
    }
}

/// 64-bit FNV-1a over `bytes`.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digests(netlist: &Netlist) -> Pin {
    let json = serde_json::to_string(netlist).expect("a netlist serializes");
    pin(
        netlist.structural_digest(),
        fnv(text::serialize(netlist).as_bytes()),
        fnv(json.as_bytes()),
    )
}

#[test]
fn structural_digests_of_the_five_families_are_pinned() {
    let mut mismatches = Vec::new();
    for (bench, base_pin, tiled_pin) in PINS {
        let base = digests(&bench.build_default().netlist);
        let tiled = digests(
            &scaled::build(&ScaledParams {
                base: bench,
                target_components: 10_000,
                seed: scaled::DEFAULT_SEED,
            })
            .netlist,
        );
        let show = |p: Pin| {
            format!(
                "pin({:#018x}, {:#018x}, {:#018x})",
                p.structure, p.text, p.json
            )
        };
        println!(
            "    (Benchmark::{bench:?}, {}, {}),",
            show(base),
            show(tiled)
        );
        if (base, tiled) != (base_pin, tiled_pin) {
            mismatches.push(bench.slug());
        }
    }
    assert!(mismatches.is_empty(), "digests moved: {mismatches:?}");
}
