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
/// bisection driver). The rows of the four strategies built on the FM
/// pass kernel — `fiduccia-mattheyses`, `multilevel`, `fm-act`,
/// `ml-act` — were recorded again by the change on top of `f8e9338`
/// that made a pass pick from the vertices on the cut and stop 1024
/// moves after its last new best prefix, the multilevel partitioner
/// keep the best of 16 coarsest-level starts, and both name the sides
/// of a bisection by their lowest member; the other five strategies'
/// rows are as they were. The rows of the six strategies that cut the
/// connectivity graph (`bfs-cluster`, `kernighan-lin` and the four
/// above) on the four circuits with supply rails — `stopwatch`,
/// `assoc_mem`, `rtp`, `rtp@10k` — were recorded again when a rail
/// stopped joining the components on it; the 39 other rows held. The
/// 14 `multilevel` and `ml-act` rows were recorded again when coarsening
/// came to contract heavy-edge clusters instead of a heavy-edge
/// matching; the other 49 rows held.
#[rustfmt::skip]
const PINS: &[(&str, &str, [u64; 3])] = &[
    ("stopwatch", "random", [0x25a69b1d82ea513c, 0xa67c163a31d9d3bc, 0x6a785e9ac4ece6f4]),
    ("stopwatch", "round-robin", [0x5eee1d1f38edfc1c, 0x63dee553e5657e3c, 0xd40e8135048507fc]),
    ("stopwatch", "block", [0x74ece3ea33bebdac, 0x6a7b2944b399b45d, 0x23eb1a2ce722ab9d]),
    ("stopwatch", "bfs-cluster", [0x8c3127e50cfeb9bc, 0x997713c5a71e94fd, 0xcc20a0c9e6d066d5]),
    ("stopwatch", "kernighan-lin", [0xdf9276167ec7cedc, 0xd01973b5fec7c2df, 0xae683761847f1091]),
    ("stopwatch", "fiduccia-mattheyses", [0xa7079f8bfa264b3d, 0xae2995fcaec86d8d, 0x6dac777707fde6fc]),
    ("stopwatch", "multilevel", [0x7a5141eb82bc4afd, 0x9242a5f76f45ecac, 0xcfac1081d261e67f]),
    ("stopwatch", "fm-act", [0x45e3fd22fdee09ac, 0x66b8e1c2711a9d5e, 0xfacf023d17107bda]),
    ("stopwatch", "ml-act", [0xe2ea5d76041e925d, 0x92d3400ecdb21ecc, 0x60ad9a3b952224cf]),
    ("assoc_mem", "random", [0x08711bc97daaa435, 0xd19e61276f35be75, 0xeb692b2bd629d3d1]),
    ("assoc_mem", "round-robin", [0x697584c8b3277e45, 0xd4086304c85163e5, 0xc44dbb358a7134a1]),
    ("assoc_mem", "block", [0x76c6178785f02125, 0x3d536fd1df3eca66, 0x71dcd97c6a43f27a]),
    ("assoc_mem", "bfs-cluster", [0x812f3880d52068e5, 0xce766f22d3758236, 0x9a1d266bf8b7246a]),
    ("assoc_mem", "kernighan-lin", [0x06ba8b4d0baadf84, 0x1d7e5cac55ac5a26, 0xc902bc03d61b4023]),
    ("assoc_mem", "fiduccia-mattheyses", [0xe7ef6fcbd440bb14, 0x4f292193a669dab6, 0xa3680147841250bb]),
    ("assoc_mem", "multilevel", [0xc155f6cb92fbd9e5, 0x976612feaf555254, 0x3a0ff03697c4b536]),
    ("assoc_mem", "fm-act", [0x49508a09052026c4, 0x82ebc026a4a91786, 0xdeeaa2cc37b6071a]),
    ("assoc_mem", "ml-act", [0x1f5d8010bc855954, 0x0968c739b584d457, 0xb95f5f9ca8015f78]),
    ("priority_queue", "random", [0x789b3234e362eeb4, 0x79b3e09154fcd674, 0x04513525bec17dbc]),
    ("priority_queue", "round-robin", [0x0824c163dc1ad254, 0x1d2380bbef82e694, 0x2a98da8a613fc614]),
    ("priority_queue", "block", [0xeed1c259af052274, 0x7e4e88a29f6fc095, 0x23ab14331a276b75]),
    ("priority_queue", "bfs-cluster", [0xd5ec0765755bbd74, 0x6beb4173f2114415, 0xd121791e221457c5]),
    ("priority_queue", "kernighan-lin", [0xf2d763c66a537fc4, 0x7f05f0ffa3ac9b87, 0xcaaa0bc8793e1b09]),
    ("priority_queue", "fiduccia-mattheyses", [0x62996e2dc05d4345, 0x0d36a27f7fd458a4, 0xa30e36234b464cb7]),
    ("priority_queue", "multilevel", [0xb9cacb7878a4fcf5, 0xdd526837c5c4c934, 0x9a31ebeb22e73456]),
    ("priority_queue", "fm-act", [0x778f31ecf485cbf5, 0xd94b65deeccb0c05, 0x357e912335eb7314]),
    ("priority_queue", "ml-act", [0x78dfdb49da411e55, 0x602fa623f5407274, 0x344d3acfd8f0f466]),
    ("rtp", "random", [0x2a88c11f0ea14de1, 0xf8991f1546819d81, 0x8658da1e2f495fe5]),
    ("rtp", "round-robin", [0x832f6b829cad57f1, 0xeb812cc57045a911, 0x7ed31d346cda18e5]),
    ("rtp", "block", [0xc3897165a7eb0d91, 0xf3aa1ea4a9690212, 0xc47526eeb2666fe6]),
    ("rtp", "bfs-cluster", [0xa4b62d98112b5731, 0xcf76df26b0f6d1c2, 0x7f2d9120ef105c0e]),
    ("rtp", "kernighan-lin", [0x7f6d1c9a2011b260, 0x67c17c98b2918ea2, 0xb89b45ed58c7857f]),
    ("rtp", "fiduccia-mattheyses", [0xbd4e3adca553b4e0, 0x1b2bc7035ee51233, 0x66454bce9847acac]),
    ("rtp", "multilevel", [0x11bd851161e1d8a0, 0xab3e5dad618d2c73, 0x92aa336b71e595a5]),
    ("rtp", "fm-act", [0x9616a669f04c1e30, 0x18b868e0b344d433, 0x4c597a361cc0426d]),
    ("rtp", "ml-act", [0x5971ee9670f1b3e0, 0x4c5ee660131619f2, 0xa73815dd126eab16]),
    ("crossbar", "random", [0x5d2d1a766c21e445, 0x3b46122239388105, 0x1613150eb0fb544d]),
    ("crossbar", "round-robin", [0xe36b6e3bb1641dc5, 0xa5114742de5fd0e5, 0x6963f13e06d90d65]),
    ("crossbar", "block", [0x37606d3dd4e47605, 0x5f80ccb49057b515, 0x693e2b6e226b0365]),
    ("crossbar", "bfs-cluster", [0xfe327ca4245b90f5, 0x56665b1fda03d745, 0x922a1e954ad8c815]),
    ("crossbar", "kernighan-lin", [0x8f13833d7e7fb5d5, 0xb50c6f5c994577d5, 0x6f33e5b7f9b7624d]),
    ("crossbar", "fiduccia-mattheyses", [0xc93a507e0a6b8d84, 0xfb25d8f9febf8837, 0xf6019a63f618da80]),
    ("crossbar", "multilevel", [0x6596eb828aa5ff55, 0xaa83611d35073224, 0x328779a2ab0e939e]),
    ("crossbar", "fm-act", [0xb7af0a8cdd2787f5, 0x101256d0f5b837e5, 0x6da6342b3f3f182d]),
    ("crossbar", "ml-act", [0x34eed0ef2e98f8b4, 0xa2f393268a338447, 0x82b7007111d50818]),
    ("rtp@10k", "random", [0xb5f7330d34dd8509, 0x0a67bfee9ceeb709, 0xa972ed5a70ef5c89]),
    ("rtp@10k", "round-robin", [0xc7ca996c00bea509, 0xadc9d39a65663309, 0xca05e67feebb23c9]),
    ("rtp@10k", "block", [0x8b7ef59abba3b189, 0xe07f3a4b4313a75a, 0xf05f21510735ed3e]),
    ("rtp@10k", "bfs-cluster", [0x8fc26d5b78972539, 0xce2a362c516e3b4a, 0x0ef3d0f4c571ce3e]),
    ("rtp@10k", "kernighan-lin", [0x9932daea7f3fb988, 0xf26ffa32c231125a, 0x9aff70201585f25e]),
    ("rtp@10k", "fiduccia-mattheyses", [0x0f126afaafbf08e9, 0x6b735f19fa2be868, 0x28cf149a0da8d9ca]),
    ("rtp@10k", "multilevel", [0x057e0c17fd967689, 0x1571914241aa9339, 0xd9f0c25119ba63e9]),
    ("rtp@10k", "fm-act", [0xf3890d66583e2979, 0xad0828dae6a8eed9, 0x82f26a7009824150]),
    ("rtp@10k", "ml-act", [0x057e0c17fd967689, 0x1571914241aa9339, 0x6c797cf2ec219998]),
    ("crossbar@10k", "random", [0x48a28dcb1beb89e5, 0xb4bb3b1fac04d965, 0x5e556a8e7fb27c65]),
    ("crossbar@10k", "round-robin", [0xbecfeead3f004e85, 0x1c67eb102dd95665, 0x0e6ac437816f2165]),
    ("crossbar@10k", "block", [0x5d80acefe8661525, 0x400630c95a8f01a5, 0x295b2e6d52fe04a5]),
    ("crossbar@10k", "bfs-cluster", [0xd2b45146aaa8d905, 0xb5000d53bb0e6c55, 0xd9ce588e57b99f25]),
    ("crossbar@10k", "kernighan-lin", [0x9d8b075302f63d15, 0x1b25ab9048be8c05, 0x5cba5b923b741725]),
    ("crossbar@10k", "fiduccia-mattheyses", [0xa3f16730f5aede54, 0x9b83f19b6b373756, 0xfd8f5c67fee52db2]),
    ("crossbar@10k", "multilevel", [0x4d9d6537349e9fc4, 0x3710133518d7a267, 0xf32b24d55f043100]),
    ("crossbar@10k", "fm-act", [0xea3bdc90627f5b25, 0x6d1191b05b3c54b5, 0x2a89e5b39870c99c]),
    ("crossbar@10k", "ml-act", [0x4d9d6537349e9fc4, 0x842953cce74b2d17, 0x34be81b176088b21]),
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
