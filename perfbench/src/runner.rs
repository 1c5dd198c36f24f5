//! The two ways the benchmark runs a grid point.
//!
//! * **Untraced**: exactly `Experiment::run_policy` — `build_cluster`,
//!   `CoreWorkload::new`, `AdaptiveRuntime::run_scenario` — with the set-up
//!   calls timed apart from the run. End-to-end metrics come only from here.
//! * **Traced**: a benchmark-side copy of `AdaptiveRuntime::run_scenario`
//!   that makes the same public calls in the same order, with a span around
//!   each call into a layer, and the policy wrapped in a timing
//!   [`ConsistencyPolicy`] that forwards to the real one. Its report must
//!   match the untraced one field for field (see
//!   [`crate::report::Fingerprint`]); a mismatch means the copy drifted from
//!   `run_scenario` and fails the run.

use crate::trace::{Layer, Span, Tracer};
use crate::workloads::Point;
use concord_cluster::{BatchOp, Cluster, ClusterOutput, OpKind, OpStatus};
use concord_core::{
    AdaptiveRuntime, ClusterProfile, ConsistencyPolicy, LatencySummary, LevelChange, LevelDecision,
    PolicyContext, RunReport, RuntimeConfig,
};
use concord_cost::{Bill, ResourceUsage};
use concord_monitor::{AccessMonitor, MonitorConfig};
use concord_sim::{SimDuration, SimRng, SimTime};
use concord_workload::{CoreWorkload, OperationType, WorkloadOp};
use std::time::Instant;

/// Tick ids at or above this base address the fault script (the runtime's
/// own convention).
const FAULT_TICK_BASE: u64 = 1 << 32;

/// A grid point's cluster and workload, built and loaded.
pub struct Prepared {
    /// The loaded cluster.
    pub cluster: Cluster,
    /// The workload generator.
    pub workload: CoreWorkload,
    /// Host seconds `Cluster::new` + `load_records` + `CoreWorkload::new`
    /// took.
    pub setup_s: f64,
}

/// The outcome of one grid point.
#[derive(Debug, Clone)]
pub struct PointRun {
    /// The run report.
    pub report: RunReport,
    /// Host seconds of set-up (see [`Prepared::setup_s`]).
    pub setup_s: f64,
    /// Host seconds of the run itself, set-up excluded.
    pub run_s: f64,
    /// Operations whose final status was not OK.
    pub failed_ops: u64,
}

/// The runtime configuration `Experiment::run_policy` uses.
pub fn runtime_config(point: &Point) -> RuntimeConfig {
    let exp = &point.experiment;
    RuntimeConfig {
        clients: exp.clients,
        think_time: SimDuration::ZERO,
        adaptation_interval: exp.adaptation_interval,
        monitor: MonitorConfig::default(),
        pricing: Some(exp.platform.pricing),
        max_outputs: u64::MAX,
    }
}

/// Build and load a point's cluster and workload, timing the set-up.
pub fn prepare(point: &Point) -> Prepared {
    let start = Instant::now();
    let cluster = point.experiment.build_cluster();
    let workload = CoreWorkload::new(point.experiment.workload.clone());
    Prepared {
        cluster,
        workload,
        setup_s: start.elapsed().as_secs_f64(),
    }
}

/// Run a prepared point through `AdaptiveRuntime::run_scenario`.
pub fn run_untraced(point: &Point, prepared: Prepared) -> PointRun {
    let Prepared {
        mut cluster,
        mut workload,
        setup_s,
    } = prepared;
    let mut policy = point.spec.instantiate(&point.experiment.platform);
    let mut runtime = AdaptiveRuntime::new(runtime_config(point), point.experiment.seed);
    let scenario = point.experiment.scenario();
    let start = Instant::now();
    let mut report = runtime.run_scenario(&mut cluster, &mut workload, policy.as_mut(), &scenario);
    let run_s = start.elapsed().as_secs_f64();
    report.policy = point.spec.label();
    PointRun {
        failed_ops: report.timeouts,
        report,
        setup_s,
        run_s,
    }
}

/// What the traced runner measured beyond the spans.
#[derive(Debug, Clone, Default)]
pub struct RunnerStats {
    /// Closed-loop resubmissions whose target time was already behind
    /// `Cluster::now()` when they were submitted.
    pub late_submits: u64,
    /// `now() − completed_at` of every completion when the runner received
    /// it, in simulated ms.
    pub publish_lag_ms: Vec<f64>,
    /// Simulator events processed (`Cluster::events_processed`).
    pub events: u64,
    /// Replica-level storage reads and writes (`storage_op_totals`).
    pub store_reads: u64,
    /// See `store_reads`.
    pub store_writes: u64,
    /// Reads the staleness oracle classified.
    pub oracle_reads: u64,
}

/// The outcome of one traced grid point.
pub struct TracedRun {
    /// The point's report, set-up and run times and failed operations.
    pub run: PointRun,
    /// Every span recorded, set-up included.
    pub tracer: Tracer,
    /// Runner-side measurements.
    pub stats: RunnerStats,
}

/// A [`ConsistencyPolicy`] that times every `decide` of the policy it
/// wraps and otherwise forwards unchanged.
struct TimedPolicy<'a> {
    inner: &'a mut dyn ConsistencyPolicy,
    origin: Instant,
    spans: Vec<Span>,
}

impl ConsistencyPolicy for TimedPolicy<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn decide(&mut self, ctx: &PolicyContext) -> LevelDecision {
        let start = self.origin.elapsed().as_nanos() as u64;
        let decision = self.inner.decide(ctx);
        let end = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            layer: Layer::PolicyDecide,
            parent: Some(Layer::Runtime),
            start_ns: start,
            dur_ns: end - start,
        });
        decision
    }

    fn is_adaptive(&self) -> bool {
        self.inner.is_adaptive()
    }
}

/// The `timed_ops` stream with a `workload.gen` span around every
/// generated operation (the generator runs inside `submit_batch`).
struct TracedTimedOps<'a, I> {
    inner: I,
    tracer: &'a mut Tracer,
}

impl<I: Iterator<Item = (SimTime, WorkloadOp)>> Iterator for TracedTimedOps<'_, I> {
    type Item = BatchOp;

    fn next(&mut self) -> Option<BatchOp> {
        let start = self.tracer.now();
        let next = self.inner.next();
        self.tracer
            .finish(Layer::WorkloadGen, Some(Layer::ClusterSubmit), start);
        next.map(|(at, op)| batch_op(at, &op))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

fn submit(cluster: &mut Cluster, op: &WorkloadOp, at: SimTime) {
    match op.op {
        OperationType::Read => {
            cluster.submit_read_at(op.key, at);
        }
        OperationType::Scan => {
            cluster.submit_scan_at(op.key, op.scan_length, at);
        }
        OperationType::Update | OperationType::Insert | OperationType::ReadModifyWrite => {
            cluster.submit_write_at(op.key, op.value_size, at);
        }
    }
}

fn batch_op(at: SimTime, op: &WorkloadOp) -> BatchOp {
    match op.op {
        OperationType::Read => BatchOp::read(at, op.key),
        OperationType::Scan => BatchOp::scan(at, op.key, op.scan_length),
        OperationType::Update | OperationType::Insert | OperationType::ReadModifyWrite => {
            BatchOp::write(at, op.key, op.value_size)
        }
    }
}

/// Build, load and run a point through the traced copy of `run_scenario`.
pub fn run_traced(point: &Point) -> TracedRun {
    let exp = &point.experiment;
    let mut t = Tracer::new();

    // Set-up: `Experiment::build_cluster` and `CoreWorkload::new`, one span
    // per call.
    let setup_start = Instant::now();
    let mut cluster = t.span(Layer::ClusterNew, None, || {
        Cluster::new(exp.platform.cluster.clone(), exp.seed)
    });
    let record_size = exp.workload.record_size();
    let records = exp.workload.record_count;
    t.span(Layer::ClusterLoad, None, || {
        cluster.load_records((0..records).map(move |k| (k, record_size)))
    });
    let mut workload = t.span(Layer::WorkloadNew, None, || {
        CoreWorkload::new(exp.workload.clone())
    });
    let setup_s = setup_start.elapsed().as_secs_f64();

    let config = runtime_config(point);
    let scenario = exp.scenario();
    let mut real_policy = point.spec.instantiate(&exp.platform);
    let mut policy = TimedPolicy {
        inner: real_policy.as_mut(),
        origin: t.origin(),
        spans: Vec::new(),
    };
    let mut rng = SimRng::new(exp.seed);
    let mut stats = RunnerStats::default();
    let run = Some(Layer::Runtime);

    let wall = Instant::now();
    let run_start = t.now();
    // From here on: `AdaptiveRuntime::run_scenario`, call for call.
    let profile = ClusterProfile::from_cluster(&cluster, workload.config().record_size());
    let mut monitor = t.span(Layer::Monitor, run, || AccessMonitor::new(config.monitor));
    let start = cluster.now();

    let mut adaptation_steps = 0u64;
    let mut level_timeline: Vec<LevelChange> = Vec::new();
    let snapshot = t.span(Layer::Monitor, run, || monitor.snapshot(start));
    let initial = policy.decide(&PolicyContext {
        now: start,
        snapshot,
        profile,
    });
    t.span(Layer::ClusterControl, run, || initial.apply(&mut cluster));
    adaptation_steps += 1;
    level_timeline.push(LevelChange {
        at_secs: start.as_secs_f64(),
        read_replicas: cluster.config().required_acks(initial.read),
        write_replicas: cluster.config().required_acks(initial.write),
    });

    let total_ops = workload.config().operation_count;
    let mut submitted = 0u64;
    let closed_clients = scenario.arrival.concurrency();
    let think_time = scenario.arrival.think_time();
    match closed_clients {
        Some(clients) => {
            let initial_clients = (clients as u64).min(total_ops);
            for i in 0..initial_clients {
                let op = t.span(Layer::WorkloadGen, run, || workload.next_op(&mut rng));
                t.span(Layer::ClusterSubmit, run, || {
                    submit(&mut cluster, &op, start + SimDuration::from_micros(i * 13))
                });
                submitted += 1;
            }
        }
        None => {
            let submit_start = t.now();
            let timed = TracedTimedOps {
                inner: workload.timed_ops(scenario.arrival, start, &mut rng),
                tracer: &mut t,
            };
            submitted = cluster.submit_batch(timed) as u64;
            t.finish(Layer::ClusterSubmit, run, submit_start);
        }
    }

    for (i, fault) in scenario.faults.iter().enumerate() {
        t.span(Layer::ClusterControl, run, || {
            cluster.schedule_tick(start + fault.at, FAULT_TICK_BASE + i as u64)
        });
    }
    let mut faults_injected = 0u64;

    let mut tick_id = 0u64;
    t.span(Layer::ClusterControl, run, || {
        cluster.schedule_tick(start + config.adaptation_interval, tick_id)
    });

    let mut completed = 0u64;
    let mut outputs = 0u64;
    let mut failed_ops = 0u64;
    while completed < submitted.max(1) && outputs < config.max_outputs {
        let Some(output) = t.span(Layer::ClusterAdvance, run, || cluster.advance()) else {
            break;
        };
        outputs += 1;
        match output {
            ClusterOutput::Completed(op) => {
                completed += 1;
                stats
                    .publish_lag_ms
                    .push(cluster.now().since(op.completed_at).as_millis_f64());
                if op.status != OpStatus::Ok {
                    failed_ops += 1;
                }
                t.span(Layer::Monitor, run, || match op.kind {
                    OpKind::Read => monitor.record_read(op.completed_at, op.latency()),
                    OpKind::Write => monitor.record_write(op.completed_at, op.latency()),
                });
                if closed_clients.is_some() && submitted < total_ops && !workload.is_exhausted() {
                    let next = t.span(Layer::WorkloadGen, run, || workload.next_op(&mut rng));
                    let at = op.completed_at + think_time;
                    if at < cluster.now() {
                        stats.late_submits += 1;
                    }
                    t.span(Layer::ClusterSubmit, run, || {
                        submit(&mut cluster, &next, at)
                    });
                    submitted += 1;
                }
            }
            ClusterOutput::Tick { at: _, id } if id >= FAULT_TICK_BASE => {
                let fault = &scenario.faults[(id - FAULT_TICK_BASE) as usize];
                t.span(Layer::ClusterControl, run, || {
                    fault.action.apply(&mut cluster)
                });
                faults_injected += 1;
            }
            ClusterOutput::Tick { at, .. } => {
                let samples = t.span(Layer::ClusterControl, run, || {
                    cluster.drain_propagation_samples()
                });
                t.span(Layer::Monitor, run, || {
                    for sample in samples {
                        monitor.record_propagation(sample);
                    }
                });
                if policy.is_adaptive() {
                    let snapshot = t.span(Layer::Monitor, run, || monitor.snapshot(at));
                    let ctx = PolicyContext {
                        now: at,
                        snapshot,
                        profile,
                    };
                    let decision = policy.decide(&ctx);
                    t.span(Layer::ClusterControl, run, || decision.apply(&mut cluster));
                    adaptation_steps += 1;
                    let read_replicas = cluster.config().required_acks(decision.read);
                    let write_replicas = cluster.config().required_acks(decision.write);
                    if level_timeline.last().is_none_or(|last| {
                        last.read_replicas != read_replicas || last.write_replicas != write_replicas
                    }) {
                        level_timeline.push(LevelChange {
                            at_secs: at.as_secs_f64(),
                            read_replicas,
                            write_replicas,
                        });
                    }
                }
                if completed < total_ops {
                    tick_id += 1;
                    t.span(Layer::ClusterControl, run, || {
                        cluster.schedule_tick(at + config.adaptation_interval, tick_id)
                    });
                }
            }
        }
    }

    let makespan = cluster.now() - start;
    let (shard_metrics, metrics) = t.span(Layer::ClusterControl, run, || {
        (cluster.shard_metrics(), cluster.metrics())
    });
    let (usage, bill) = t.span(Layer::CostBill, run, || {
        let usage = ResourceUsage::from_cluster(&cluster, makespan);
        let bill = config.pricing.map(|p| Bill::compute(&p, &usage));
        (usage, bill)
    });
    let oracle = cluster.oracle();

    let report = RunReport {
        policy: policy.name(),
        scenario: scenario.label(),
        total_ops: metrics.ops_completed(),
        reads: metrics.reads_completed,
        writes: metrics.writes_completed,
        timeouts: metrics.timeouts,
        retries: metrics.retries,
        faults_injected,
        messages_lost: metrics.messages_lost,
        makespan,
        throughput_ops_per_sec: metrics.throughput(makespan),
        read_latency_ms: LatencySummary::from_stats(&metrics.read_latency),
        write_latency_ms: LatencySummary::from_stats(&metrics.write_latency),
        stale_reads: metrics.stale_reads,
        stale_read_rate: metrics.stale_read_rate(),
        mean_staleness_depth: oracle.mean_staleness_depth(),
        mean_read_replicas: metrics.mean_read_fanout(),
        adaptation_steps,
        hints_queued: metrics.hints_queued,
        hints_replayed: metrics.hints_replayed,
        hints_dropped: metrics.hints_dropped,
        repair_pages_compared: metrics.repair_pages_compared,
        repair_records_streamed: metrics.repair_records_streamed,
        repair_traffic: metrics.repair_traffic,
        hedged_requests: metrics.hedged_requests,
        hedge_wins: metrics.hedge_wins,
        backoff_retries: metrics.backoff_retries,
        breaker_opens: metrics.breaker_opens,
        hedge_bytes: metrics.hedge_traffic.total(),
        shards: cluster.shards() as u64,
        shard_windows: shard_metrics.windows,
        cross_shard_staged: shard_metrics.staged,
        lookahead_violations: shard_metrics.violations,
        parallel_batches: shard_metrics.parallel_batches,
        barrier_folds: shard_metrics.barrier_folds,
        max_batch_len: shard_metrics.max_batch_len,
        elided_barriers: shard_metrics.elided_barriers,
        fast_forwards: shard_metrics.fast_forwards,
        level_timeline,
        usage,
        bill,
    };
    // End of the copy of `run_scenario`.
    t.finish(Layer::Runtime, None, run_start);
    let run_s = wall.elapsed().as_secs_f64();

    for span in policy.spans {
        t.record(span);
    }

    stats.events = cluster.events_processed();
    (stats.store_reads, stats.store_writes) = cluster.storage_op_totals();
    stats.oracle_reads = oracle.stale_reads() + oracle.fresh_reads();
    TracedRun {
        run: PointRun {
            report: RunReport {
                policy: point.spec.label(),
                ..report
            },
            setup_s,
            run_s,
            failed_ops,
        },
        tracer: t,
        stats,
    }
}
