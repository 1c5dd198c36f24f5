//! Differential property test for the anti-entropy page diff.
//!
//! A page diff streams the records of the sender's page that are strictly
//! newer than the receiver's copy *and* that the receiver replicates under
//! the current ring. It used to be computed record by record: collect every
//! occupied slot of the sender's page, peek the receiver's copy of each, and
//! gate the survivors on ring membership. That pipeline is kept here as the
//! reference model. The production path,
//! [`ReplicaStore::newer_in_page`] masked by the receiver's ownership bitmap,
//! must yield the same records in the same (ascending-key) order on random
//! summary-enabled stores over random rings: both partitioners, both
//! replication strategies, up to RF crashed nodes (down to an empty ring),
//! and sender and/or receiver pages that were never allocated.

use concord_cluster::paged::{PAGE_SLOTS, PAGE_WORDS};
use concord_cluster::{Key, Partitioner, ReplicaStore, ReplicationStrategy, Ring, Version};
use concord_sim::{NodeId, RegionId, SimRng, Topology};
use proptest::prelude::*;

/// Pages the stores may populate; the page after them is never written by
/// anyone, so every pair also diffs a page allocated on neither side.
const PAGES: usize = 3;

type Record = (Key, Version, u32);

/// The per-record pipeline the bitmap walk replaced: every occupied slot of
/// `from`'s page in slot order, filtered by "strictly newer than `to`'s
/// copy", then by "`to` is a current replica of the key".
fn reference_diff(
    from: &ReplicaStore,
    to: &ReplicaStore,
    to_node: NodeId,
    page: usize,
    members: &[Vec<NodeId>],
) -> Vec<Record> {
    let base = (page * PAGE_SLOTS) as u64;
    let collected: Vec<Record> = (0..PAGE_SLOTS)
        .filter_map(|i| {
            let key = Key(base + i as u64);
            from.peek(key).map(|v| (key, v.version, v.size))
        })
        .collect();
    collected
        .into_iter()
        .filter(|&(key, version, _)| version > to.peek(key).map_or(Version::NONE, |v| v.version))
        .filter(|&(key, _, _)| members[key.0 as usize].contains(&to_node))
        .collect()
}

/// `node`'s ownership bitmap of `page`, from the ring's placements.
fn ownership_mask(members: &[Vec<NodeId>], page: usize, node: NodeId) -> [u64; PAGE_WORDS] {
    let mut mask = [0u64; PAGE_WORDS];
    for slot in 0..PAGE_SLOTS {
        if members[page * PAGE_SLOTS + slot].contains(&node) {
            mask[slot / 64] |= 1 << (slot % 64);
        }
    }
    mask
}

fn run_differential(seed: u64) {
    let mut rng = SimRng::new(seed);
    let nodes = 2 + rng.next_bounded(6) as usize;
    let rf = 1 + rng.next_bounded(nodes.min(3) as u64) as u32;
    let partitioner = if rng.next_bounded(2) == 0 {
        Partitioner::Hash
    } else {
        Partitioner::Ordered
    };
    let (topology, strategy) = if rng.next_bounded(2) == 0 {
        (Topology::single_dc(nodes), ReplicationStrategy::Simple)
    } else {
        (
            Topology::spread(nodes, &[("dc-a", RegionId(0)), ("dc-b", RegionId(1))]),
            ReplicationStrategy::NetworkTopology,
        )
    };
    let vnodes = 1 + rng.next_bounded(16) as u32;
    // Crash 0..=RF nodes: the ring withdraws them (all of them when RF
    // equals the node count, leaving an empty ring).
    let crashes = rng.next_bounded(rf as u64 + 1) as usize;
    let mut crashed = vec![false; nodes];
    for _ in 0..crashes {
        crashed[rng.next_bounded(nodes as u64) as usize] = true;
    }
    let ring = Ring::excluding(&topology, rf, strategy, vnodes, partitioner, |n| {
        crashed[n.0 as usize]
    });
    let members: Vec<Vec<NodeId>> = (0..(PAGES + 1) * PAGE_SLOTS)
        .map(|k| ring.replicas(Key(k as u64)))
        .collect();

    // Random histories: each node skips some pages entirely (unallocated
    // on that side) and writes a random mix of fresh and stale versions
    // on the rest, so peers share some keys at equal, older and newer
    // versions and hold others alone.
    let mut stores: Vec<ReplicaStore> =
        (0..nodes).map(|_| ReplicaStore::with_summaries()).collect();
    let mut version = 0u64;
    for store in &mut stores {
        let skipped: Vec<bool> = (0..PAGES).map(|_| rng.next_bounded(3) == 0).collect();
        for _ in 0..1_500u64 {
            let page = rng.next_bounded(PAGES as u64) as usize;
            if skipped[page] {
                continue;
            }
            // A narrow hot range makes peers collide on keys often.
            let slot = if rng.next_bounded(2) == 0 {
                rng.next_bounded(256)
            } else {
                rng.next_bounded(PAGE_SLOTS as u64)
            };
            let key = Key((page * PAGE_SLOTS) as u64 + slot);
            let v = if rng.next_bounded(3) == 0 && version > 1 {
                1 + rng.next_bounded(version)
            } else {
                version += 1;
                version
            };
            let size = 10 + rng.next_bounded(500) as u32;
            if rng.next_bounded(4) == 0 {
                store.preload(key, Version(v), size);
            } else {
                store.apply_write(key, Version(v), size);
            }
        }
    }

    let mut out = Vec::new();
    for from in 0..nodes {
        for to in (0..nodes).filter(|&to| to != from) {
            let to_node = NodeId(to as u32);
            for page in 0..=PAGES {
                let expected = reference_diff(&stores[from], &stores[to], to_node, page, &members);
                let mask = ownership_mask(&members, page, to_node);
                out.clear();
                stores[from].newer_in_page(&stores[to], page, &mask, &mut out);
                prop_assert_eq!(
                    &out,
                    &expected,
                    "page {} diff {} -> {} diverged ({:?}, rf {}, crashed {:?})",
                    page,
                    from,
                    to,
                    partitioner,
                    rf,
                    crashed
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn masked_page_diff_matches_the_per_record_reference(seed in 0u64..u64::MAX) {
        run_differential(seed);
    }
}
