//! Differential property test for table-driven replica placement.
//!
//! A [`Ring`] answers placement lookups from a table it builds once per ring
//! epoch. Before the table, every lookup walked the ring: clockwise over the
//! vnode tokens from the key's token (hash partitioner), or in node-id order
//! over the alive nodes from `slice % node_count` (ordered partitioner),
//! taking the first RF distinct nodes under the replication strategy. Those
//! walks are kept here as the reference model, and the table must return
//! exactly their replica lists, in order, on random rings: both
//! partitioners, both strategies, RF 1..=5, 1–3 datacenters, 1..=32 vnodes
//! and random crash sets, down to every node crashed (zero replicas).
//!
//! A cluster-level check then pins that `Cluster::replicas_of` follows the
//! ring epoch through a crash and a recovery.

use concord_cluster::{
    Cluster, ClusterConfig, Key, Partitioner, ReplicationStrategy, Ring, ORDERED_SLICE_KEYS,
};
use concord_sim::{NodeId, RegionId, SimRng, Topology};
use proptest::prelude::*;

/// The ring hash (SplitMix64 finalizer), as the partitioner defines it.
fn ring_hash(value: u64) -> u64 {
    let mut z = value.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-lookup placement walks: the pre-table ring, preserved as the
/// reference model.
struct ReferenceRing {
    /// `(token, owner)`, sorted by token; later nodes win token collisions.
    tokens: Vec<(u64, NodeId)>,
    alive: Vec<bool>,
    node_dc: Vec<u16>,
    dc_count: usize,
    rf: usize,
    strategy: ReplicationStrategy,
    partitioner: Partitioner,
}

impl ReferenceRing {
    fn new(
        topology: &Topology,
        rf: u32,
        strategy: ReplicationStrategy,
        vnodes: u32,
        partitioner: Partitioner,
        crashed: &[bool],
    ) -> Self {
        let mut token_map = std::collections::BTreeMap::new();
        for node in topology.nodes().filter(|n| !crashed[n.0 as usize]) {
            for v in 0..vnodes {
                let token = ring_hash(((node.0 as u64) << 32) ^ (v as u64) ^ 0xA5A5_5A5A);
                token_map.insert(token, node);
            }
        }
        let alive: Vec<bool> = crashed.iter().map(|&c| !c).collect();
        let survivors = alive.iter().filter(|&&a| a).count();
        ReferenceRing {
            tokens: token_map.into_iter().collect(),
            alive,
            node_dc: topology.nodes().map(|n| topology.dc_of(n).0).collect(),
            dc_count: topology.dc_count(),
            rf: (rf as usize).min(survivors),
            strategy,
            partitioner,
        }
    }

    fn replicas(&self, key: Key) -> Vec<NodeId> {
        let mut out = Vec::new();
        if self.rf == 0 {
            return out;
        }
        match self.partitioner {
            Partitioner::Hash => {
                let token = ring_hash(key.0 ^ 0x5117_BEEF_0000_0001);
                let start = self.tokens.partition_point(|&(t, _)| t < token);
                let walk = self.tokens[start..]
                    .iter()
                    .chain(self.tokens[..start].iter())
                    .map(|&(_, node)| node);
                self.fill(walk, &mut out);
            }
            Partitioner::Ordered => {
                let total = self.alive.len();
                let start = ((key.0 / ORDERED_SLICE_KEYS) % total as u64) as usize;
                let walk = (start..start + total)
                    .map(|i| NodeId((i % total) as u32))
                    .filter(|n| self.alive[n.0 as usize]);
                self.fill(walk, &mut out);
            }
        }
        out
    }

    /// The first `rf` distinct nodes of a walk under the strategy.
    fn fill(&self, walk: impl Iterator<Item = NodeId>, out: &mut Vec<NodeId>) {
        match self.strategy {
            ReplicationStrategy::Simple => {
                for node in walk {
                    if !out.contains(&node) {
                        out.push(node);
                        if out.len() == self.rf {
                            break;
                        }
                    }
                }
            }
            ReplicationStrategy::NetworkTopology => {
                let quota = self.rf.div_ceil(self.dc_count);
                let mut per_dc: Vec<(u16, usize)> = Vec::new();
                let mut skipped: Vec<NodeId> = Vec::new();
                for node in walk {
                    if out.len() == self.rf {
                        break;
                    }
                    if out.contains(&node) {
                        continue;
                    }
                    let dc = self.node_dc[node.0 as usize];
                    let taken = match per_dc.iter_mut().find(|e| e.0 == dc) {
                        Some(entry) if entry.1 < quota => {
                            entry.1 += 1;
                            true
                        }
                        Some(_) => false,
                        None => {
                            per_dc.push((dc, 1));
                            true
                        }
                    };
                    if taken {
                        out.push(node);
                    } else if !skipped.contains(&node) {
                        skipped.push(node);
                    }
                }
                for node in skipped {
                    if out.len() == self.rf {
                        break;
                    }
                    if !out.contains(&node) {
                        out.push(node);
                    }
                }
            }
        }
    }
}

/// A topology of `nodes` nodes over `dcs` datacenters (1..=3).
fn topology(nodes: usize, dcs: usize) -> Topology {
    let all = [
        ("dc-a", RegionId(0)),
        ("dc-b", RegionId(0)),
        ("dc-c", RegionId(1)),
    ];
    if dcs == 1 {
        Topology::single_dc(nodes)
    } else {
        Topology::spread(nodes, &all[..dcs])
    }
}

/// Keys to probe: a dense prefix (consecutive ids and slice boundaries),
/// keys far beyond any record count, and the ends of the key space.
fn probe_keys(rng: &mut SimRng) -> Vec<Key> {
    let mut keys: Vec<Key> = (0..600).map(Key).collect();
    for slice in 0..40u64 {
        keys.push(Key(slice * ORDERED_SLICE_KEYS));
        keys.push(Key(slice * ORDERED_SLICE_KEYS + ORDERED_SLICE_KEYS - 1));
    }
    keys.extend((0..400).map(|_| Key(rng.next_bounded(u64::MAX))));
    keys.extend([Key(u64::MAX), Key(u64::MAX - 1), Key(1 << 40)]);
    keys
}

fn run_differential(seed: u64) {
    let mut rng = SimRng::new(seed);
    let nodes = 1 + rng.next_bounded(12) as usize;
    let dcs = 1 + rng.next_bounded(nodes.min(3) as u64) as usize;
    let rf = 1 + rng.next_bounded(nodes.min(5) as u64) as u32;
    let vnodes = 1 + rng.next_bounded(32) as u32;
    let strategy = if rng.next_bounded(2) == 0 {
        ReplicationStrategy::Simple
    } else {
        ReplicationStrategy::NetworkTopology
    };
    let topo = topology(nodes, dcs);
    // Crash sets: none, a random subset, or (one case in six) every node.
    let crashed: Vec<bool> = match rng.next_bounded(6) {
        0 => vec![false; nodes],
        1 => vec![true; nodes],
        _ => {
            let p = rng.next_f64();
            (0..nodes).map(|_| rng.next_f64() < p).collect()
        }
    };
    let keys = probe_keys(&mut rng);
    for partitioner in [Partitioner::Hash, Partitioner::Ordered] {
        let reference = ReferenceRing::new(&topo, rf, strategy, vnodes, partitioner, &crashed);
        let ring = Ring::excluding(&topo, rf, strategy, vnodes, partitioner, |n| {
            crashed[n.0 as usize]
        });
        prop_assert_eq!(ring.replication_factor() as usize, reference.rf);
        if !crashed.contains(&true) {
            let full = Ring::new(&topo, rf, strategy, vnodes, partitioner);
            prop_assert_eq!(full.replication_factor(), rf);
            for &key in &keys[..100] {
                prop_assert_eq!(full.placement(key), ring.placement(key));
            }
        }
        let mut scratch = vec![NodeId(99)];
        for &key in &keys {
            let expected = reference.replicas(key);
            prop_assert_eq!(
                ring.placement(key),
                &expected[..],
                "{:?}/{:?} rf {} vnodes {} dcs {} crashed {:?}: key {} diverged",
                partitioner,
                strategy,
                rf,
                vnodes,
                dcs,
                crashed,
                key.0
            );
            ring.replicas_into(key, &mut scratch);
            prop_assert_eq!(&scratch, &expected);
            prop_assert_eq!(ring.replicas(key), expected.clone());
            if let Some(&primary) = expected.first() {
                prop_assert_eq!(ring.primary(key), primary);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn placement_table_matches_the_ring_walks(seed in 0u64..u64::MAX) {
        run_differential(seed);
    }
}

/// A crash builds a new ring epoch without the node, and recovery restores
/// the original placements exactly: `replicas_of` must follow both.
#[test]
fn replicas_of_follows_the_ring_epoch_through_crash_and_recover() {
    for partitioner in [Partitioner::Hash, Partitioner::Ordered] {
        let mut config = ClusterConfig::lan_test(6, 3);
        config.partitioner = partitioner;
        let (strategy, vnodes) = (config.strategy, config.vnodes);
        let keys: Vec<u64> = (0..20_000).step_by(37).collect();
        let mut cluster = Cluster::new(config, 7);
        let before: Vec<Vec<NodeId>> = keys.iter().map(|&k| cluster.replicas_of(k)).collect();
        let crashed = NodeId(2);
        assert!(
            before.iter().any(|r| r.contains(&crashed)),
            "{partitioner:?}: the crashed node must own something"
        );

        cluster.crash_node(crashed);
        let topo = cluster.config().topology.clone();
        let epoch = Ring::excluding(&topo, 3, strategy, vnodes, partitioner, |n| n == crashed);
        for (&k, old) in keys.iter().zip(&before) {
            let now = cluster.replicas_of(k);
            assert_eq!(now, epoch.replicas(Key(k)), "{partitioner:?}: key {k}");
            assert_eq!(now.len(), 3);
            assert!(!now.contains(&crashed), "{partitioner:?}: key {k}");
            // Survivors keep their positions: the old list minus the crashed
            // node is a prefix of the new one.
            let survivors: Vec<NodeId> = old.iter().copied().filter(|&n| n != crashed).collect();
            assert_eq!(&now[..survivors.len()], &survivors[..]);
        }

        cluster.recover_node(crashed);
        let after: Vec<Vec<NodeId>> = keys.iter().map(|&k| cluster.replicas_of(k)).collect();
        assert_eq!(
            after, before,
            "{partitioner:?}: recovery restores placement"
        );
    }
}
