//! Hot-path throughput benchmark: how fast does the simulator itself run?
//!
//! This binary measures the *wall-clock* cost of the discrete-event engine
//! and the cluster simulator — events per second and nanoseconds per
//! simulated client operation — on these substrates:
//!
//! * `event_queue`: schedule + pop of randomly-timed events through the raw
//!   [`concord_sim::EventQueue`] (the engine floor);
//! * `store`: raw [`concord_cluster::ReplicaStore`] point reads / versioned
//!   writes / short range scans (the storage floor — the paged direct-index
//!   table in isolation, for before/after comparison of storage-layer
//!   changes);
//! * `cluster_substrate`: the full Cassandra-like cluster hot path (an
//!   8-node RF-3 LAN cluster under a 50/50 read/write closed workload),
//!   which is what paper-scale runs pay per operation;
//! * `cluster_bulk`: the same cluster driven **open-loop** — a sorted
//!   arrival schedule from `CoreWorkload::timed_ops` bulk-loaded through
//!   [`Cluster::submit_batch`], so client arrivals ride the event queue's
//!   O(1) bulk FIFO lane instead of paying one heap push each;
//! * `anti_entropy`: repair-plane convergence on a diverged multi-node
//!   store — an 8-node RF-3 cluster with anti-entropy sweeps on takes one
//!   node down at a time, writes past it at level ONE, and times only the
//!   sweeps that stream the missed writes back once it returns. Its
//!   `ANTI_ENTROPY_DATAPOINT` line reports ns per compared page and per
//!   streamed record (the measurement's `ops` are compared pages, its
//!   `events` streamed records);
//! * `setup`: what every EXP-A1 grid point pays before its first simulated
//!   op — EXP-A1's Grid'5000 platform (`--cluster-scale`, 21 nodes by
//!   default) bulk-loaded with the slim paper workload's records at
//!   `--scale` (capped at the 1% scale of the benchmark's `paper_sweep`,
//!   150k records), plus the `CoreWorkload` construction and the ring's
//!   placement lookup in isolation. Its `SETUP_DATAPOINT` line reports ns
//!   per loaded record, ns per placement lookup and ms per workload
//!   construction (the measurement's `ops` and `events` are the records
//!   loaded, its time the load alone);
//! * `sharded` (plain invocations only, i.e. without `--shards`): the
//!   bulk workload re-run at shards 1, 2 and 4 **in one invocation** —
//!   the pure engine-overhead curve — printing one greppable
//!   `BARRIER_DATAPOINT {json}` line per shard count with the window /
//!   fold / elision / fast-forward counters next to the throughput, so
//!   nightly CI can chart how much synchronization each run actually
//!   paid for.
//!
//! The measurement grid runs through the shared `run_timed_grid` harness
//! (points run one at a time — wall-clock points must not compete with each
//! other for cores). `--shards N` runs both cluster substrates on the
//! conservative-PDES sharded engine, with each window's shard batches
//! dispatched on the `--threads`-sized pool, and prints one greppable
//! `SHARDED_DATAPOINT` line per cluster substrate carrying both knobs, so
//! the nightly shards × threads matrix can plot the wall-clock curve.
//!
//! ```text
//! cargo run --release -p concord-bench --bin exp_throughput -- --scale 0.05
//! cargo run --release -p concord-bench --bin exp_throughput -- --scale 0.05 --out BENCH.json
//! ```
//!
//! `--scale 1.0` sizes the cluster scenarios at 2 M operations (the paper's
//! Grid'5000 op count per run); the default (0.002, from `parse_scale`)
//! keeps smoke runs fast, and perf comparisons should use `--scale 0.25
//! --repeat 5`. Results are printed as one JSON measurement object;
//! `--out FILE` additionally writes that object to a file. The committed
//! `BENCH_hotpath.json` at the workspace root is assembled by hand from two
//! such runs (before/after, same release profile) — see its `methodology`
//! field; it is a record to compare against, not a file this binary
//! overwrites.

use concord_bench::{run_timed_grid, slim, Harness, Scale};
use concord_cluster::{
    BatchOp, Cluster, ClusterConfig, ConsistencyLevel, Key, Partitioner, RepairConfig, RepairMode,
    ReplicaStore, Ring,
};
use concord_sim::{EventQueue, NodeId, ShardMetrics, SimDuration, SimRng, SimTime};
use concord_workload::{presets, ArrivalProcess, CoreWorkload, OperationType, WorkloadConfig};
use std::time::Instant;

/// One measured substrate.
struct Measurement {
    name: &'static str,
    ops: u64,
    events: u64,
    elapsed_secs: f64,
}

impl Measurement {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.elapsed_secs
    }

    fn ns_per_op(&self) -> f64 {
        self.elapsed_secs * 1e9 / self.ops as f64
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"ops\":{},\"events\":{},\"elapsed_secs\":{:.6},\
             \"events_per_sec\":{:.0},\"ns_per_op\":{:.1}}}",
            self.name,
            self.ops,
            self.events,
            self.elapsed_secs,
            self.events_per_sec(),
            self.ns_per_op()
        )
    }
}

/// Raw event-queue schedule+pop throughput (no cluster logic).
fn bench_event_queue(rounds: u64) -> Measurement {
    const EVENTS_PER_ROUND: u64 = 100_000;
    let t0 = Instant::now();
    let mut checksum = 0u64;
    for round in 0..rounds {
        let mut rng = SimRng::new(round + 1);
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..EVENTS_PER_ROUND {
            q.schedule_at(SimTime::from_micros(rng.next_bounded(1_000_000)), i);
        }
        while let Some((_, v)) = q.pop() {
            checksum = checksum.wrapping_add(v);
        }
    }
    std::hint::black_box(checksum);
    Measurement {
        name: "event_queue",
        ops: rounds * EVENTS_PER_ROUND,
        events: rounds * EVENTS_PER_ROUND,
        elapsed_secs: t0.elapsed().as_secs_f64(),
    }
}

/// Raw [`ReplicaStore`] read/write loop: the storage-layer floor, measuring
/// the paged direct-index table in isolation (no events, no network). The
/// op mix is 50/50 point read / versioned write over a dense key space with
/// a periodic short range scan, driven by `SimRng` so before/after builds
/// replay the identical key sequence.
fn bench_store(total_ops: u64) -> Measurement {
    const KEYS: u64 = 100_000;
    let mut store = ReplicaStore::new();
    for k in 0..KEYS {
        store.preload(
            concord_cluster::Key(k),
            concord_cluster::Version(k + 1),
            1_000,
        );
    }
    let mut rng = SimRng::new(7);
    let mut version = KEYS;
    let mut checksum = 0u64;
    let t0 = Instant::now();
    for i in 0..total_ops {
        let key = concord_cluster::Key(rng.next_bounded(KEYS));
        match i % 20 {
            0 => {
                // One short scan per 20 ops (the YCSB-E shape).
                let r = store.read_range(key, 10);
                checksum = checksum
                    .wrapping_add(r.bytes)
                    .wrapping_add(r.records as u64);
            }
            n if n % 2 == 1 => {
                version += 1;
                store.apply_write(key, concord_cluster::Version(version), 1_000);
            }
            _ => {
                if let Some(v) = store.read(key) {
                    checksum = checksum.wrapping_add(v.version.0);
                }
            }
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    std::hint::black_box(checksum);
    std::hint::black_box(store.bytes_stored());
    Measurement {
        name: "store",
        ops: total_ops,
        events: store.read_ops() + store.write_ops(),
        elapsed_secs: elapsed,
    }
}

fn micro_cluster(partitioner: Partitioner, shards: u32) -> (Cluster, u64) {
    const KEYS: u64 = 500;
    let mut cfg = ClusterConfig::lan_test(8, 3);
    cfg.partitioner = partitioner;
    cfg.shards = shards;
    let mut cluster = Cluster::new(cfg, 11);
    cluster.load_records((0..KEYS).map(|k| (k, 1_000)));
    cluster.set_levels(ConsistencyLevel::One, ConsistencyLevel::One);
    (cluster, KEYS)
}

/// The full cluster hot path: closed-loop windows over the micro cluster.
fn bench_cluster(total_ops: u64, partitioner: Partitioner, shards: u32) -> Measurement {
    let (mut cluster, keys) = micro_cluster(partitioner, shards);

    // Submit in windows so the pending-op tables stay at realistic sizes
    // (a closed loop, like the runtime) rather than pre-queueing millions.
    const WINDOW: u64 = 10_000;
    let mut submitted = 0u64;
    let mut completed = 0u64;
    let t0 = Instant::now();
    let mut at = SimTime::ZERO;
    while completed < total_ops {
        while submitted < total_ops && submitted < completed + WINDOW {
            at += SimDuration::from_micros(100);
            if submitted.is_multiple_of(2) {
                cluster.submit_write_at(submitted % keys, 1_000, at);
            } else {
                cluster.submit_read_at(submitted % keys, at);
            }
            submitted += 1;
        }
        completed += cluster.run_to_completion(u64::MAX).len() as u64;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    std::hint::black_box(cluster.metrics().stale_read_rate());
    Measurement {
        name: "cluster_substrate",
        ops: completed,
        events: cluster.events_processed(),
        elapsed_secs: elapsed,
    }
}

/// Anti-entropy convergence on a diverged store. Each round takes the next
/// node down, writes `WRITES` random keys past it at level ONE (no hints,
/// so the node misses them), drains, brings it back up and times the
/// sweep cycle that converges it. Only that last phase is timed; `ops` is
/// the pages it compared and `events` the records it streamed.
fn bench_anti_entropy(rounds: u64, partitioner: Partitioner, shards: u32) -> Measurement {
    const NODES: u32 = 8;
    const KEYS: u64 = 16 * 4096;
    const WRITES: u64 = 4_096;
    let mut cfg = ClusterConfig::lan_test(NODES as usize, 3);
    cfg.partitioner = partitioner;
    cfg.shards = shards;
    cfg.repair = RepairConfig::with_mode(RepairMode::AntiEntropy);
    let mut cluster = Cluster::new(cfg, 17);
    cluster.load_records((0..KEYS).map(|k| (k, 1_000)));
    let mut rng = SimRng::new(17);
    let (mut pages, mut records, mut elapsed) = (0u64, 0u64, 0.0f64);
    for round in 0..rounds {
        let victim = NodeId((round % NODES as u64) as u32);
        cluster.set_node_down(victim);
        let start = cluster.now();
        for i in 0..WRITES {
            let at = start + SimDuration::from_micros(100 * (i + 1));
            let key = rng.next_bounded(KEYS);
            cluster.submit_write_with(key, 1_000, ConsistencyLevel::One, at);
        }
        cluster.run_to_completion(u64::MAX);
        cluster.set_node_up(victim);
        let before = cluster.metrics();
        let t0 = Instant::now();
        cluster.run_to_completion(u64::MAX);
        elapsed += t0.elapsed().as_secs_f64();
        let after = cluster.metrics();
        pages += after.repair_pages_compared - before.repair_pages_compared;
        records += after.repair_records_streamed - before.repair_records_streamed;
    }
    Measurement {
        name: "anti_entropy",
        ops: pages,
        events: records,
        elapsed_secs: elapsed,
    }
}

/// The open-loop bulk path: a sorted `timed_ops` arrival schedule from the
/// workload generator, bulk-loaded in windows through `Cluster::submit_batch`
/// (the event queue's O(1) bulk lane carries every client arrival).
fn bench_cluster_bulk(total_ops: u64, partitioner: Partitioner, shards: u32) -> Measurement {
    bench_cluster_bulk_inner(total_ops, partitioner, shards).0
}

/// The bulk substrate plus the engine's synchronization counters — the
/// `sharded` substrate reads the fold/elision accounting off the same
/// measured run instead of re-simulating.
fn bench_cluster_bulk_inner(
    total_ops: u64,
    partitioner: Partitioner,
    shards: u32,
) -> (Measurement, ShardMetrics) {
    let (mut cluster, keys) = micro_cluster(partitioner, shards);
    let mut workload = CoreWorkload::new(WorkloadConfig {
        record_count: keys,
        operation_count: total_ops,
        read_proportion: 0.5,
        update_proportion: 0.5,
        field_count: 1,
        field_length: 1_000,
        ..WorkloadConfig::default()
    });
    // 10 k ops/s offered load, the same mean arrival gap (100 µs) as the
    // closed-loop substrate drives.
    let process = ArrivalProcess::OpenLoopUniform {
        ops_per_sec: 10_000.0,
    };

    const WINDOW: usize = 10_000;
    let mut rng = SimRng::new(11);
    let mut completed = 0u64;
    let t0 = Instant::now();
    let mut timed = workload.timed_ops(process, SimTime::ZERO, &mut rng);
    loop {
        // Windowed bulk loads keep the arrival lane and op slab bounded
        // while still amortizing submission over O(1) pushes. Each window
        // drains only up to its last arrival, so the clock never runs ahead
        // of the next window's first arrival.
        let window: Vec<BatchOp> = timed
            .by_ref()
            .take(WINDOW)
            .map(|(at, op)| match op.op {
                OperationType::Read => BatchOp::read(at, op.key),
                OperationType::Scan => BatchOp::scan(at, op.key, op.scan_length),
                _ => BatchOp::write(at, op.key, op.value_size),
            })
            .collect();
        let Some(last) = window.last() else { break };
        let window_end = last.at;
        cluster.submit_batch(window);
        completed += cluster.run_until(window_end).len() as u64;
    }
    completed += cluster.run_to_completion(u64::MAX).len() as u64;
    let elapsed = t0.elapsed().as_secs_f64();
    std::hint::black_box(cluster.metrics().stale_read_rate());
    let m = Measurement {
        name: "cluster_bulk",
        ops: completed,
        events: cluster.events_processed(),
        elapsed_secs: elapsed,
    };
    (m, cluster.shard_metrics())
}

/// Pure engine overhead in one invocation: the open-loop bulk workload at
/// shards 1, 2 and 4, with one `BARRIER_DATAPOINT` line per shard count
/// carrying the synchronization counters (windows crossed, folds run,
/// folds elided, fast-forwards) next to the throughput. The grid's
/// headline measurement is the 4-shard cell — the deepest engine
/// configuration, and the one the elision work targets. Counters come
/// from the best (fastest) run; they are identical across repeats anyway,
/// because each shard count is a fixed deterministic universe.
fn bench_sharded(
    total_ops: u64,
    partitioner: Partitioner,
    repeat: u32,
    threads: u64,
) -> Measurement {
    let mut headline = None;
    for shards in [1u32, 2, 4] {
        let (m, sync) = (0..repeat)
            .map(|_| bench_cluster_bulk_inner(total_ops, partitioner, shards))
            .min_by(|a, b| {
                a.0.elapsed_secs
                    .partial_cmp(&b.0.elapsed_secs)
                    .expect("elapsed times are finite")
            })
            .expect("at least one run");
        println!(
            "BARRIER_DATAPOINT {{\"shards\":{shards},\"threads\":{threads},\
             \"windows\":{},\"barrier_folds\":{},\"elided_barriers\":{},\
             \"fast_forwards\":{},\"events_per_sec\":{:.0},\"ns_per_op\":{:.1}}}",
            sync.windows,
            sync.barrier_folds,
            sync.elided_barriers,
            sync.fast_forwards,
            m.events_per_sec(),
            m.ns_per_op()
        );
        headline = Some(m);
    }
    let mut m = headline.expect("three shard counts ran");
    m.name = "sharded";
    m
}

/// Per-point set-up of a paper-shaped cluster, best of `repeat` runs per
/// phase: bulk load (`Cluster::load_records`), placement lookups
/// (`Ring::replicas_into` over the loaded keys) and workload construction
/// (`CoreWorkload::new`). Prints the `SETUP_DATAPOINT` line; the returned
/// measurement carries the load phase.
fn bench_setup(scale: Scale, partitioner: Partitioner, repeat: u32) -> Measurement {
    // At least a million lookups, so the placement timing is measurable.
    const MIN_LOOKUPS: u64 = 1_000_000;
    let workload = slim(presets::harmony_grid5000_workload(scale.workload.min(0.01)));
    let mut cfg = concord::platforms::grid5000_harmony(scale.cluster).cluster;
    cfg.partitioner = partitioner;
    let records = workload.record_count;
    let ring = Ring::new(
        &cfg.topology,
        cfg.replication_factor,
        cfg.strategy,
        cfg.vnodes,
        partitioner,
    );
    let lookups = records.max(MIN_LOOKUPS);
    let (mut load, mut placement, mut workload_new) = (f64::MAX, f64::MAX, f64::MAX);
    for _ in 0..repeat {
        let mut cluster = Cluster::new(cfg.clone(), 11);
        let t0 = Instant::now();
        cluster.load_records((0..records).map(|k| (k, workload.record_size())));
        load = load.min(t0.elapsed().as_secs_f64());
        drop(cluster);

        let mut scratch = Vec::new();
        let t0 = Instant::now();
        for k in 0..lookups {
            ring.replicas_into(Key(k % records), &mut scratch);
            std::hint::black_box(&scratch);
        }
        placement = placement.min(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        std::hint::black_box(CoreWorkload::new(workload.clone()));
        workload_new = workload_new.min(t0.elapsed().as_secs_f64());
    }
    println!(
        "SETUP_DATAPOINT {{\"records\":{records},\"nodes\":{},\"rf\":{},\
         \"partitioner\":\"{}\",\"load_ns_per_record\":{:.1},\
         \"placement_ns_per_lookup\":{:.2},\"workload_new_ms\":{:.3}}}",
        cfg.topology.node_count(),
        cfg.replication_factor,
        partitioner.label(),
        load * 1e9 / records as f64,
        placement * 1e9 / lookups as f64,
        workload_new * 1e3
    );
    Measurement {
        name: "setup",
        ops: records,
        events: records,
        elapsed_secs: load,
    }
}

/// Best (highest events/sec) of `repeat` runs — wall-clock benchmarks on a
/// shared machine are noisy, and the best run is the closest estimate of the
/// code's actual cost.
fn best_of(repeat: u32, run: impl Fn() -> Measurement) -> Measurement {
    (0..repeat)
        .map(|_| run())
        .min_by(|a, b| {
            a.elapsed_secs
                .partial_cmp(&b.elapsed_secs)
                .expect("elapsed times are finite")
        })
        .expect("at least one run")
}

/// The measurement grid: which substrate, sized how.
#[derive(Clone, Copy)]
enum Substrate {
    Queue { rounds: u64 },
    Store { ops: u64 },
    Cluster { ops: u64 },
    ClusterBulk { ops: u64 },
    AntiEntropy { rounds: u64 },
    Setup,
    Sharded { ops: u64 },
}

fn main() {
    let harness = Harness::from_env();
    harness.forbid_workload_override("the wall-clock scenarios fix their own op mixes");
    harness.forbid_arrival_override("the wall-clock scenarios fix their own arrival shapes");
    // `--partitioner ordered` re-times the cluster substrates under ordered
    // placement (contiguous ownership, coverage-faithful scans).
    let partitioner = harness.partitioner.unwrap_or_default();
    // `--shards N` re-times the cluster substrates on the conservative-PDES
    // sharded engine (per-node-group event lanes, lookahead windows, window
    // batches dispatched on the worker pool). Each shard count samples its
    // own deterministic universe, so cross-shard-count comparisons are
    // engine cost plus sampling noise; within a shard count, `--threads` is
    // the pure-performance axis.
    let shards = harness.shards.unwrap_or(1);
    let threads = rayon::current_num_threads() as u64;
    let args = &harness.args;
    let scale = harness.scale.workload;
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let repeat: u32 = args
        .iter()
        .position(|a| a == "--repeat")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
        .max(1);

    // --scale 1.0 = 2 M cluster ops (one paper-sized Grid'5000 run).
    let cluster_ops = ((2_000_000.0 * scale) as u64).max(2_000);
    let queue_rounds = ((20.0 * scale.max(0.05)) as u64).max(1);

    eprintln!(
        "exp_throughput: cluster_ops={cluster_ops} queue_rounds={queue_rounds} \
         partitioner={} shards={shards} threads={threads} (best of {repeat})",
        partitioner.label()
    );
    // The store substrate is cheap per op; run 4× the cluster count so its
    // wall-clock stays measurable at small scales.
    let store_ops = cluster_ops * 4;
    let mut grid = vec![
        Substrate::Queue {
            rounds: queue_rounds,
        },
        Substrate::Store { ops: store_ops },
        Substrate::Cluster { ops: cluster_ops },
        Substrate::ClusterBulk { ops: cluster_ops },
        Substrate::AntiEntropy {
            rounds: (cluster_ops / 2_000).max(2),
        },
        Substrate::Setup,
    ];
    // The engine-overhead curve only belongs to plain invocations: with an
    // explicit `--shards N` the caller is already sweeping shard counts
    // one cell at a time (the nightly SHARDED_DATAPOINT matrix), and
    // re-running {1, 2, 4} inside each cell would triple its cost.
    if harness.shards.is_none() {
        grid.push(Substrate::Sharded { ops: cluster_ops });
    }
    let measurements = run_timed_grid(grid, |point| {
        let m = match point {
            Substrate::Queue { rounds } => best_of(repeat, || bench_event_queue(rounds)),
            Substrate::Store { ops } => best_of(repeat, || bench_store(ops)),
            Substrate::Cluster { ops } => {
                best_of(repeat, || bench_cluster(ops, partitioner, shards))
            }
            Substrate::ClusterBulk { ops } => {
                best_of(repeat, || bench_cluster_bulk(ops, partitioner, shards))
            }
            Substrate::AntiEntropy { rounds } => {
                best_of(repeat, || bench_anti_entropy(rounds, partitioner, shards))
            }
            Substrate::Setup => bench_setup(harness.scale, partitioner, repeat),
            // best_of lives inside: each shard count picks its own best
            // run, and the BARRIER_DATAPOINT lines print per shard count.
            Substrate::Sharded { ops } => bench_sharded(ops, partitioner, repeat, threads),
        };
        eprintln!(
            "  {:<20} {:>12.0} events/s  {:>8.1} ns/op  ({} events for {} ops)",
            m.name,
            m.events_per_sec(),
            m.ns_per_op(),
            m.events,
            m.ops
        );
        m
    });

    // The placement mode, shard count and pool size change the cluster
    // substrates' costs, so every recorded measurement carries them — runs
    // of different configurations must never be mistaken for A/B pairs of
    // the same one.
    let json = format!(
        "{{\"scale\":{scale},\"partitioner\":\"{}\",\"shards\":{shards},\
         \"threads\":{threads},\"benches\":[{}]}}",
        partitioner.label(),
        measurements
            .iter()
            .map(Measurement::to_json)
            .collect::<Vec<_>>()
            .join(",")
    );
    println!("{json}");
    // Machine-readable sharded-engine datapoint, greppable from CI logs the
    // same way exp_sweep's MULTICORE_DATAPOINT is: the nightly shards ×
    // threads loop collects one line per (shard count, pool size) cell so
    // the wall-clock speedup curve lands in the workflow artifact next to
    // the multicore sweep figures.
    for m in &measurements {
        if m.name.starts_with("cluster") {
            println!(
                "SHARDED_DATAPOINT {{\"shards\":{shards},\"threads\":{threads},\
                 \"substrate\":\"{}\",\"events_per_sec\":{:.0},\"ns_per_op\":{:.1}}}",
                m.name,
                m.events_per_sec(),
                m.ns_per_op()
            );
        }
    }
    // Per-layer repair-plane figures: the same timed phase divided by the
    // pages it compared and by the records it streamed.
    for m in measurements.iter().filter(|m| m.name == "anti_entropy") {
        println!(
            "ANTI_ENTROPY_DATAPOINT {{\"shards\":{shards},\"threads\":{threads},\
             \"pages_compared\":{},\"records_streamed\":{},\"ns_per_page\":{:.1},\
             \"ns_per_record\":{:.1}}}",
            m.ops,
            m.events,
            m.ns_per_op(),
            m.elapsed_secs * 1e9 / m.events.max(1) as f64
        );
    }
    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(&path, format!("{json}\n")) {
            eprintln!("error: cannot write --out file {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
}
