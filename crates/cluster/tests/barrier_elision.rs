//! Barrier elision must be an *optimization*, never a semantic change.
//!
//! The sharded engine closes every lookahead window by delivering staged
//! cross-shard data-plane messages, but since the elision PR the serial
//! control-plane fold (oracle updates, deferred read classification,
//! output publication) only runs when staged control effects or the
//! deferred-completion buffer demand it. This suite pins the contract from
//! both sides:
//!
//! * **Property test**: randomized open-loop fault/arrival scripts must
//!   produce byte-identical observable fingerprints with elision on
//!   (`eager_folds = false`, the default) and off (`eager_folds = true`)
//!   at 2 and 4 shards. Only the fold-accounting counters may differ —
//!   a fold can never be skipped when a window staged control effects or
//!   fold-time RNG draws, so everything observable is invariant. The
//!   scripts are open-loop (`submit_batch` plus tick-scripted faults)
//!   because a *closed-loop* driver that reacts to outputs mid-run is
//!   allowed to diverge: elision batches output publication, so reaction
//!   points shift.
//! * **Counters**: a quiet-period scenario (two bursts separated by a long
//!   idle gap) must elide barriers and fast-forward across the gap, and a
//!   one-shard run must report every sync counter as exactly zero.

use concord_cluster::{
    BatchOp, Cluster, ClusterConfig, ClusterOutput, ConsistencyLevel, ReplicationStrategy,
};
use concord_sim::{
    DcId, NetworkModel, NodeId, RegionId, ShardMetrics, SimDuration, SimTime, Topology,
};

/// Deterministic script generator (xorshift64*); the suite must not depend
/// on ambient randomness, so each property-test case derives everything
/// from its explicit seed.
struct Script(u64);

impl Script {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Everything observable about a drained run *except* the fold-accounting
/// counters (`barrier_folds` / `elided_barriers` differ between the two
/// modes by construction — that is the optimization).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Observable {
    ops: u64,
    timeouts: u64,
    stale: u64,
    latency_sum_us: u64,
    checksum: u64,
    events: u64,
    now_us: u64,
    messages: u64,
    messages_lost: u64,
    traffic_total: u64,
    storage_ops: (u64, u64),
    retries: u64,
    oracle_stale: u64,
    // Window geometry is fold-independent: the end of a window depends
    // only on lane contents, which elision never changes.
    windows: u64,
    staged: u64,
    violations: u64,
    fast_forwards: u64,
}

fn drain(c: &mut Cluster, mut on_tick: impl FnMut(&mut Cluster, u64)) -> Observable {
    let mut ops = 0u64;
    let mut timeouts = 0u64;
    let mut stale = 0u64;
    let mut latency_sum_us = 0u64;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let fnv = |h: &mut u64, x: u64| {
        *h ^= x;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    while let Some(out) = c.advance() {
        match out {
            ClusterOutput::Tick { id, .. } => on_tick(c, id),
            ClusterOutput::Completed(op) => {
                ops += 1;
                if op.status == concord_cluster::OpStatus::Timeout {
                    timeouts += 1;
                }
                if op.stale {
                    stale += 1;
                }
                latency_sum_us += op.latency().as_micros();
                fnv(&mut h, op.completed_at.as_micros());
                fnv(&mut h, op.returned_version.0);
                fnv(&mut h, op.staleness_depth as u64);
                fnv(&mut h, op.records_returned as u64);
            }
        }
    }
    let m = c.shard_metrics();
    Observable {
        ops,
        timeouts,
        stale,
        latency_sum_us,
        checksum: h,
        events: c.events_processed(),
        now_us: c.now().as_micros(),
        messages: c.metrics().messages,
        messages_lost: c.metrics().messages_lost,
        traffic_total: c.metrics().traffic.total(),
        storage_ops: (c.metrics().storage_read_ops, c.metrics().storage_write_ops),
        retries: c.metrics().retries,
        oracle_stale: c.oracle().stale_reads(),
        windows: m.windows,
        staged: m.staged,
        violations: m.violations,
        fast_forwards: m.fast_forwards,
    }
}

/// A two-site geo cluster (DC-aligned shard cut at `shards = 2`).
fn two_site_config(shards: u32, eager_folds: bool) -> ClusterConfig {
    let mut cfg = ClusterConfig::lan_test(6, 3);
    cfg.topology = Topology::spread(
        6,
        &[("site-east", RegionId(0)), ("site-south", RegionId(0))],
    );
    cfg.network = NetworkModel::grid5000_like();
    cfg.strategy = ReplicationStrategy::NetworkTopology;
    cfg.read_repair = true;
    cfg.op_timeout = SimDuration::from_millis(80);
    cfg.retry_on_timeout = 1;
    cfg.shards = shards;
    cfg.eager_folds = eager_folds;
    cfg
}

/// One randomized open-loop case: a scripted arrival batch (reads, writes,
/// scans at jittered gaps over a hot key range) plus a scripted fault
/// timeline (crash/recover one node, partition/heal the two sites) whose
/// tick times are drawn off any delay grid.
fn run_case(seed: u64, shards: u32, eager_folds: bool) -> Observable {
    let mut c = Cluster::new(two_site_config(shards, eager_folds), seed);
    c.load_records((0..48u64).map(|k| (k, 150)));
    c.set_levels(ConsistencyLevel::One, ConsistencyLevel::One);

    let mut s = Script(seed | 1);
    let mut at = 0u64;
    let mut batch = Vec::with_capacity(2_500);
    for _ in 0..2_500 {
        at += 120 + s.below(700);
        let key = s.below(48);
        let t = SimTime::from_micros(at);
        batch.push(match s.below(10) {
            0..=3 => BatchOp::write(t, key, 100 + s.below(150) as u32),
            9 => BatchOp::scan(t, key, 2 + s.below(20) as u32),
            _ => BatchOp::read(t, key),
        });
    }
    c.submit_batch(batch);

    // Fault timeline: windows ordered by construction, times jittered off
    // the link-delay grid so ticks land mid-window.
    let span = at; // the arrival horizon, in µs
    let crash_at = span / 5 + s.below(10_000) + 137;
    let recover_at = crash_at + span / 4 + s.below(10_000);
    let part_at = recover_at + span / 10 + s.below(10_000);
    let heal_at = part_at + span / 6 + s.below(10_000);
    c.schedule_tick(SimTime::from_micros(crash_at), 1);
    c.schedule_tick(SimTime::from_micros(recover_at), 2);
    c.schedule_tick(SimTime::from_micros(part_at), 3);
    c.schedule_tick(SimTime::from_micros(heal_at), 4);
    let victim = NodeId(s.below(6) as u32);
    drain(&mut c, |c, id| match id {
        1 => c.crash_node(victim),
        2 => c.recover_node(victim),
        3 => c.partition_dcs(DcId(0), DcId(1)),
        4 => c.heal_dcs(DcId(0), DcId(1)),
        _ => {}
    })
}

/// Satellite (PR 10): elision on vs off is observably byte-identical at 2
/// and 4 shards across randomized fault/arrival scripts — a fold may be
/// *deferred*, never *changed*.
#[test]
fn elision_on_and_off_are_byte_identical() {
    for seed in [11u64, 29, 83] {
        for shards in [2u32, 4] {
            let elided = run_case(seed, shards, false);
            let eager = run_case(seed, shards, true);
            assert_eq!(
                elided, eager,
                "seed {seed}, {shards} shards: elision perturbed the run"
            );
            assert!(elided.ops > 0, "the script must complete operations");
        }
    }
}

/// With elision on (the default), the same scripts must actually elide
/// folds — otherwise the property test above is vacuous — while the eager
/// mode folds every window.
#[test]
fn elision_actually_elides_and_eager_mode_does_not() {
    let mut c = Cluster::new(two_site_config(2, false), 11);
    c.load_records((0..48u64).map(|k| (k, 150)));
    let mut at = SimTime::ZERO;
    for i in 0..1_000u64 {
        at += SimDuration::from_micros(400);
        if i % 2 == 0 {
            c.submit_write_at(i % 48, 150, at);
        } else {
            c.submit_read_at(i % 48, at);
        }
    }
    drain(&mut c, |_, _| {});
    let m = c.shard_metrics();
    assert!(
        m.elided_barriers > 0,
        "a healthy open-loop run must skip folds on quiet windows"
    );
    assert!(
        m.barrier_folds + m.elided_barriers >= m.windows,
        "every window either folds or is counted as elided"
    );

    let mut c = Cluster::new(two_site_config(2, true), 11);
    c.load_records((0..48u64).map(|k| (k, 150)));
    let mut at = SimTime::ZERO;
    for i in 0..1_000u64 {
        at += SimDuration::from_micros(400);
        if i % 2 == 0 {
            c.submit_write_at(i % 48, 150, at);
        } else {
            c.submit_read_at(i % 48, at);
        }
    }
    drain(&mut c, |_, _| {});
    let m = c.shard_metrics();
    assert_eq!(m.elided_barriers, 0, "eager mode must fold every window");
    assert!(
        m.barrier_folds >= m.windows,
        "eager mode folds at least once per window"
    );
}

/// A quiet-period scenario — two bursts separated by a long idle gap —
/// must both elide barriers (healthy windows stage no control effects)
/// and fast-forward across the gap instead of marching barrier-by-barrier
/// through empty simulated time.
#[test]
fn quiet_periods_elide_and_fast_forward() {
    let mut cfg = ClusterConfig::lan_test(6, 3);
    cfg.shards = 2;
    let mut c = Cluster::new(cfg, 7);
    c.load_records((0..32u64).map(|k| (k, 120)));
    let burst = |start_us: u64| {
        (0..400u64).map(move |i| {
            let t = SimTime::from_micros(start_us + i * 250);
            if i % 2 == 0 {
                BatchOp::write(t, i % 32, 120)
            } else {
                BatchOp::read(t, i % 32)
            }
        })
    };
    // Two bursts, 5 simulated seconds of silence in between.
    c.submit_batch(burst(0).chain(burst(5_000_000)).collect::<Vec<_>>());
    drain(&mut c, |_, _| {});
    let m = c.shard_metrics();
    assert!(m.windows > 0);
    assert!(
        m.elided_barriers > 0,
        "quiet windows must skip the serial fold"
    );
    assert!(
        m.fast_forwards > 0,
        "the idle gap must be crossed by a cursor jump, not barrier-by-barrier"
    );
}

/// A lone shard synchronizes with no peer, so every `ShardMetrics` field
/// must read exactly zero at `shards = 1` — for an open-loop run and for a
/// closed loop alike. The closed loop also pins the one-shard window rule:
/// a window ends at its first output, so each completion is returned with
/// the clock at its own `completed_at`, and a client resubmitting at that
/// instant never falls behind `now()`.
#[test]
fn serial_runs_report_zero_elision_counters() {
    let one_shard = || {
        let mut cfg = ClusterConfig::lan_test(5, 3);
        cfg.shards = 1;
        let mut c = Cluster::new(cfg, 7);
        c.load_records((0..16u64).map(|k| (k, 120)));
        c
    };
    let submit = |c: &mut Cluster, i: u64, at: SimTime| {
        if i.is_multiple_of(2) {
            c.submit_write_at(i % 16, 120, at);
        } else {
            c.submit_read_at(i % 16, at);
        }
    };

    let mut c = one_shard();
    let mut at = SimTime::ZERO;
    for i in 0..500u64 {
        at += SimDuration::from_micros(300);
        submit(&mut c, i, at);
    }
    let fp = drain(&mut c, |_, _| {});
    assert_eq!(fp.ops, 500);
    assert_eq!(
        c.shard_metrics(),
        ShardMetrics::default(),
        "a one-shard open-loop run must report all-zero sync counters"
    );

    // Closed loop: 8 clients, each resubmitting at its completion instant.
    let mut c = one_shard();
    let mut submitted = 0u64;
    for _ in 0..8 {
        submit(&mut c, submitted, SimTime::ZERO);
        submitted += 1;
    }
    let mut completed = 0u64;
    while let Some(out) = c.advance() {
        let ClusterOutput::Completed(op) = out else {
            continue;
        };
        completed += 1;
        assert_eq!(
            c.now(),
            op.completed_at,
            "a one-shard completion must be returned at its own instant"
        );
        if submitted < 500 {
            let at = op.completed_at;
            assert!(
                at >= c.now(),
                "resubmission at {}us falls behind now() = {}us",
                at.as_micros(),
                c.now().as_micros()
            );
            submit(&mut c, submitted, at);
            submitted += 1;
        }
    }
    assert_eq!(completed, 500, "every closed-loop op completes");
    assert_eq!(
        c.shard_metrics(),
        ShardMetrics::default(),
        "a one-shard closed-loop run must report all-zero sync counters"
    );
}
