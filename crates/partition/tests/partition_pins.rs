//! Every partitioner's exact output, pinned.
//!
//! `messages_crossing`, the per-party loads of the parallel engine and
//! the benchmark's verification all read a [`Partition`]; a refactor of
//! the partitioners must leave every assignment where it was. The
//! digests below are an FNV-1a over `Partition::as_slice()` for all
//! seven strategies plus the two activity-weighted variants at
//! P in {2, 4, 8}, on the five base circuits and on `rtp@10k` /
//! `crossbar@10k`. On a mismatch the test prints the whole computed
//! table in source form, so a deliberate change can re-pin it.

use logicsim_circuits::Benchmark;
use logicsim_netlist::Netlist;
use logicsim_partition::{
    BfsClusterPartitioner, FanoutGreedyPartitioner, FiducciaMattheysesPartitioner,
    KernighanLinPartitioner, MultilevelPartitioner, Partitioner, RandomPartitioner,
    RoundRobinPartitioner,
};

const SEED: u64 = 0x1987;

fn strategies() -> Vec<Box<dyn Partitioner>> {
    vec![
        Box::new(RandomPartitioner::new(SEED)),
        Box::new(RoundRobinPartitioner),
        Box::new(FanoutGreedyPartitioner),
        Box::new(BfsClusterPartitioner),
        Box::new(KernighanLinPartitioner::new(SEED)),
        Box::new(FiducciaMattheysesPartitioner::new(SEED)),
        Box::new(MultilevelPartitioner::new(SEED)),
        Box::new(FiducciaMattheysesPartitioner::new(SEED).with_activity_weights()),
        Box::new(MultilevelPartitioner::new(SEED).with_activity_weights()),
    ]
}

fn circuits() -> Vec<(String, Netlist)> {
    let mut out: Vec<(String, Netlist)> = Benchmark::ALL
        .iter()
        .map(|b| (b.slug().to_string(), b.build_default().netlist))
        .collect();
    for b in [Benchmark::RtpChip, Benchmark::CrossbarSwitch] {
        out.push((format!("{}@10k", b.slug()), b.build_at(10_000).netlist));
    }
    out
}

fn fnv(assignment: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &a in assignment {
        for b in a.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `(circuit, strategy, digests at P = 2, 4, 8)`, recorded at commit
/// `75f5376` (before the partitioners shared a pass kernel and a
/// bisection driver).
#[rustfmt::skip]
const PINS: &[(&str, &str, [u64; 3])] = &[
    ("stopwatch", "random", [0x25a69b1d82ea513c, 0xa67c163a31d9d3bc, 0x6a785e9ac4ece6f4]),
    ("stopwatch", "round-robin", [0x5eee1d1f38edfc1c, 0x63dee553e5657e3c, 0xd40e8135048507fc]),
    ("stopwatch", "block", [0x74ece3ea33bebdac, 0x6a7b2944b399b45d, 0x23eb1a2ce722ab9d]),
    ("stopwatch", "bfs-cluster", [0xdc681d124a0d469c, 0x997713c5a71e94fd, 0xcc20a0c9e6d066d5]),
    ("stopwatch", "kernighan-lin", [0xdf9276167ec7cedc, 0x2ac51f436d4b487f, 0x15cccf100034dbc1]),
    ("stopwatch", "fiduccia-mattheyses", [0xc36b14dc542ddfcd, 0x4c30ef5d1b3c8a0c, 0x108508cecb942cde]),
    ("stopwatch", "multilevel", [0xb0617cfba91de44c, 0xe846e1ea375d573e, 0x45ebbeb7c3602dab]),
    ("stopwatch", "fm-act", [0x0e37b49eca260bcd, 0xce7159018ca0ffbd, 0xf26d4a3ccdd3196d]),
    ("stopwatch", "ml-act", [0x004f9814ebf1eb3d, 0x0190fe408578264c, 0xe6943e716465195e]),
    ("assoc_mem", "random", [0x08711bc97daaa435, 0xd19e61276f35be75, 0xeb692b2bd629d3d1]),
    ("assoc_mem", "round-robin", [0x697584c8b3277e45, 0xd4086304c85163e5, 0xc44dbb358a7134a1]),
    ("assoc_mem", "block", [0x76c6178785f02125, 0x3d536fd1df3eca66, 0x71dcd97c6a43f27a]),
    ("assoc_mem", "bfs-cluster", [0x812f3880d52068e5, 0x03216c47da1a5b96, 0xf6704b7b0686abea]),
    ("assoc_mem", "kernighan-lin", [0x783a6f6906236be4, 0xfcc47ad98a9c8b56, 0x37c9e8ac7fdd4f8b]),
    ("assoc_mem", "fiduccia-mattheyses", [0x0a5b25dbf580e964, 0x437667e18a574426, 0x66b083d25720c5e3]),
    ("assoc_mem", "multilevel", [0x924fcfeaffb8d9f5, 0x59e4cb8815435634, 0x88e6fdea810ea806]),
    ("assoc_mem", "fm-act", [0x8da385df809e1185, 0x26bcc4a583e2ada4, 0x5548dad0403baab7]),
    ("assoc_mem", "ml-act", [0x924fcfeaffb8d9f5, 0x1623e4fcd287d2a5, 0x4d62ff35e21ef804]),
    ("priority_queue", "random", [0x789b3234e362eeb4, 0x79b3e09154fcd674, 0x04513525bec17dbc]),
    ("priority_queue", "round-robin", [0x0824c163dc1ad254, 0x1d2380bbef82e694, 0x2a98da8a613fc614]),
    ("priority_queue", "block", [0xeed1c259af052274, 0x7e4e88a29f6fc095, 0x23ab14331a276b75]),
    ("priority_queue", "bfs-cluster", [0xd5ec0765755bbd74, 0x6beb4173f2114415, 0xd121791e221457c5]),
    ("priority_queue", "kernighan-lin", [0xf2d763c66a537fc4, 0x7f05f0ffa3ac9b87, 0xcaaa0bc8793e1b09]),
    ("priority_queue", "fiduccia-mattheyses", [0x9305c0bab7df87d5, 0x6295436974d281d4, 0x90dc05e1408bed16]),
    ("priority_queue", "multilevel", [0x424b7bc3c9998924, 0x09dda2f69fb35b67, 0xa950386f8279a771]),
    ("priority_queue", "fm-act", [0x1c3b4d09e6e2e674, 0x097ebd1bb4953c76, 0x011bd16751e6a133]),
    ("priority_queue", "ml-act", [0x9321c69210716cc4, 0x84048a7cc8c0f106, 0x62456ca5863c2623]),
    ("rtp", "random", [0x2a88c11f0ea14de1, 0xf8991f1546819d81, 0x8658da1e2f495fe5]),
    ("rtp", "round-robin", [0x832f6b829cad57f1, 0xeb812cc57045a911, 0x7ed31d346cda18e5]),
    ("rtp", "block", [0xc3897165a7eb0d91, 0xf3aa1ea4a9690212, 0xc47526eeb2666fe6]),
    ("rtp", "bfs-cluster", [0x79da5941a1f3d741, 0x8a5cf329a6135352, 0x3aba53a4ac338696]),
    ("rtp", "kernighan-lin", [0x1a99dad09b592130, 0x956a8d6ba7e69dc2, 0x14a73d7841a63d47]),
    ("rtp", "fiduccia-mattheyses", [0xfdc6ad0be6ab5990, 0xdf4c6e606532be12, 0xabb2f32aa50a92de]),
    ("rtp", "multilevel", [0x150651ba8991d9b1, 0xc042e92b6ef75271, 0xdf7e5039773f4528]),
    ("rtp", "fm-act", [0x68a10686e037fdb1, 0x8784af76212e9650, 0xa1b9e09d2f29aa0a]),
    ("rtp", "ml-act", [0x6c00e1e440b28c00, 0xad1a8ed697fc7352, 0xf72a0d08bfb87be7]),
    ("crossbar", "random", [0x5d2d1a766c21e445, 0x3b46122239388105, 0x1613150eb0fb544d]),
    ("crossbar", "round-robin", [0xe36b6e3bb1641dc5, 0xa5114742de5fd0e5, 0x6963f13e06d90d65]),
    ("crossbar", "block", [0x37606d3dd4e47605, 0x5f80ccb49057b515, 0x693e2b6e226b0365]),
    ("crossbar", "bfs-cluster", [0xfe327ca4245b90f5, 0x56665b1fda03d745, 0x922a1e954ad8c815]),
    ("crossbar", "kernighan-lin", [0x8f13833d7e7fb5d5, 0xb50c6f5c994577d5, 0x6f33e5b7f9b7624d]),
    ("crossbar", "fiduccia-mattheyses", [0x3bcaf72f0452c044, 0xa1b5ca48bf2baa76, 0x6661520dd3c86ba3]),
    ("crossbar", "multilevel", [0x0689f1e602610424, 0xb226d88db2aa1016, 0xc7d3572f477dcfd2]),
    ("crossbar", "fm-act", [0xd87b1a937e079105, 0x8649284471e1d594, 0xe398904dde253fde]),
    ("crossbar", "ml-act", [0x293d9594a218b405, 0xa699163220ae4b35, 0x8d7249c6c88065c5]),
    ("rtp@10k", "random", [0xb5f7330d34dd8509, 0x0a67bfee9ceeb709, 0xa972ed5a70ef5c89]),
    ("rtp@10k", "round-robin", [0xc7ca996c00bea509, 0xadc9d39a65663309, 0xca05e67feebb23c9]),
    ("rtp@10k", "block", [0x8b7ef59abba3b189, 0xe07f3a4b4313a75a, 0xf05f21510735ed3e]),
    ("rtp@10k", "bfs-cluster", [0xb78514b71b38ce09, 0x5d6caf186c037d2a, 0x59aab1bb05d7f99e]),
    ("rtp@10k", "kernighan-lin", [0x7e28a7d7d3bc8608, 0xd196e410a5643dda, 0x22f09aa800ed42d6]),
    ("rtp@10k", "fiduccia-mattheyses", [0xf80a5168b81cb8d8, 0xcb28077750a000fa, 0xb6142b6b05828b97]),
    ("rtp@10k", "multilevel", [0x81ac1eca2a68b0c8, 0x9817406fffb23e8b, 0x6642aaa02ae04bcd]),
    ("rtp@10k", "fm-act", [0x32965a1c0a612809, 0xf5c44844db6c4508, 0x99e8c126093cfa9b]),
    ("rtp@10k", "ml-act", [0x31df06a349344589, 0x1d5d8b524ac5f8b9, 0x0546da83a33660c8]),
    ("crossbar@10k", "random", [0x48a28dcb1beb89e5, 0xb4bb3b1fac04d965, 0x5e556a8e7fb27c65]),
    ("crossbar@10k", "round-robin", [0xbecfeead3f004e85, 0x1c67eb102dd95665, 0x0e6ac437816f2165]),
    ("crossbar@10k", "block", [0x5d80acefe8661525, 0x400630c95a8f01a5, 0x295b2e6d52fe04a5]),
    ("crossbar@10k", "bfs-cluster", [0xd2b45146aaa8d905, 0xb5000d53bb0e6c55, 0xd9ce588e57b99f25]),
    ("crossbar@10k", "kernighan-lin", [0x9d8b075302f63d15, 0x1b25ab9048be8c05, 0x5cba5b923b741725]),
    ("crossbar@10k", "fiduccia-mattheyses", [0x0156f4d807a019a4, 0x2946ca6886bdc6a7, 0xe14a75b139b46ef9]),
    ("crossbar@10k", "multilevel", [0xdd71d9971bf35c25, 0x480623918385e314, 0x9181184b50fb9a57]),
    ("crossbar@10k", "fm-act", [0xc8db840da61c51c4, 0xe88c8aec9d9088e7, 0x994d2dd4a695ede9]),
    ("crossbar@10k", "ml-act", [0xee9ec39ba44391a4, 0x331ee3babf523677, 0x064867837350fdd1]),
];

#[test]
fn every_strategy_reproduces_its_pinned_assignment() {
    let mut got: Vec<(String, &'static str, [u64; 3])> = Vec::new();
    for (circuit, netlist) in circuits() {
        for s in strategies() {
            let digests = [2u32, 4, 8].map(|p| fnv(s.partition(&netlist, p).as_slice()));
            got.push((circuit.clone(), s.name(), digests));
        }
    }
    let same = got.len() == PINS.len()
        && got
            .iter()
            .zip(PINS)
            .all(|(g, p)| (g.0.as_str(), g.1, g.2) == *p);
    if !same {
        for (c, s, d) in &got {
            println!(
                "    ({c:?}, {s:?}, [{:#018x}, {:#018x}, {:#018x}]),",
                d[0], d[1], d[2]
            );
        }
        panic!("partition digests differ from the pinned table (computed table printed above)");
    }
}
