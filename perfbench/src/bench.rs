//! One benchmark run: repeat a workload's round for the requested host
//! time, check every grid point's outputs, and reduce the rounds to the
//! metrics of [`crate::catalog`] (medians over rounds).
//!
//! A **round** runs every grid point of the workload once on the
//! workload's pool. Each point's set-up (`Cluster::new`, `load_records`,
//! `CoreWorkload::new`) is timed apart from its run, so `sim_ops_per_s`
//! excludes set-up and `setup_s` is the set-up alone. Every round of a run
//! replays the same seeded inputs, so every round must also reproduce the
//! same physics digests.
//!
//! **Host seconds are wall-clock seconds discounted by the hypervisor's
//! steal time.** On a shared virtual machine a vCPU is sometimes
//! descheduled by the host (`steal` in `/proc/stat`); the wall clock keeps
//! running while the program gets no CPU. Episodes of 10-30% steal lasting
//! minutes moved every workload's wall-clock throughput by as much, which
//! no regression bound can tell apart from a real slowdown. Each round
//! therefore scales its wall times by `1 − s`, where `s` is the share of
//! the CPU time the machine's busy vCPUs wanted that was stolen over the
//! round (`Δsteal / (Δbusy + Δsteal)`); idle vCPUs accrue no steal, so the
//! share is that of the vCPUs the benchmark kept busy. The raw wall-clock
//! throughput and the steal share of every round are printed beside the
//! result.
//!
//! A traced run alternates an untraced round with a traced one: the traced
//! round gives the per-layer numbers, the untraced one the fingerprints the
//! traced runner must match and the base of the tracing overhead.

use crate::catalog::{metrics_for, Metric};
use crate::report::{check_point, fidelity, little_gap, median, quantile, ratio, Fingerprint};
use crate::runner::{prepare, run_traced, run_untraced, PointRun, TracedRun};
use crate::trace::{Layer, TraceSummary};
use crate::workloads::{Point, Size, Workload};
use concord_core::RunReport;
use rayon::prelude::*;
use rayon::ThreadPool;
use std::collections::BTreeMap;
use std::time::Instant;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The seed every input is derived from.
    pub seed: u64,
    /// Host seconds to keep starting rounds for.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Grid-point size.
    pub size: Size,
}

/// The result of a run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output check (and, traced, the runner fidelity check) passed.
    pub correct: bool,
    /// Simulated operations attempted over all measured points.
    pub attempted: u64,
    /// Simulated operations of points that failed a check.
    pub failed: u64,
    /// Each metric of [`metrics_for`] with its value, in catalog order.
    pub metrics: Vec<(Metric, f64)>,
    /// Human-readable lines: digests, failed checks, the span table.
    pub log: Vec<String>,
}

impl Outcome {
    /// The last line of the benchmark's output.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(*v),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// One untraced round.
struct Round {
    runs: Vec<PointRun>,
    /// Host seconds of the points' run phases on the pool: the round's
    /// wall time minus the set-up each pool thread did (set-up runs inside
    /// the point's task, as in `Sweep::run`, so that no more clusters are
    /// alive at once than the real sweep holds), discounted by steal.
    wall_s: f64,
    /// Host seconds of pool construction plus every point's set-up,
    /// discounted by steal.
    setup_s: f64,
    /// Share of the busy vCPUs' time the hypervisor stole over the round.
    steal: f64,
}

fn pool(threads: usize) -> ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("building a thread-count scope cannot fail")
}

/// Busy and stolen CPU ticks of the whole machine, from `/proc/stat`.
#[derive(Debug, Clone, Copy)]
struct CpuTicks {
    busy: u64,
    steal: u64,
}

fn cpu_ticks() -> CpuTicks {
    let stat = std::fs::read_to_string("/proc/stat").expect("/proc/stat is readable");
    let fields: Vec<u64> = stat
        .lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .expect("/proc/stat has an aggregate cpu line")
        .split_whitespace()
        .map(|f| f.parse().expect("/proc/stat counters are integers"))
        .collect();
    // user nice system idle iowait irq softirq steal ...
    CpuTicks {
        busy: fields[0] + fields[1] + fields[2] + fields[5] + fields[6],
        steal: fields[7],
    }
}

/// Share of the busy vCPUs' wanted time that was stolen between two
/// readings.
fn steal_share(before: CpuTicks, after: CpuTicks) -> f64 {
    let steal = after.steal.saturating_sub(before.steal) as f64;
    let busy = after.busy.saturating_sub(before.busy) as f64;
    ratio(steal, busy + steal)
}

fn untraced_round(points: &[Point], threads: usize) -> Round {
    let ticks = cpu_ticks();
    let start = Instant::now();
    let pool = pool(threads);
    let pool_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let runs: Vec<PointRun> = pool.install(|| {
        points
            .par_iter()
            .map(|p| run_untraced(p, prepare(p)))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let steal = steal_share(ticks, cpu_ticks());
    let point_setup_s: f64 = runs.iter().map(|r| r.setup_s).sum();
    let pool_threads = threads.min(points.len()) as f64;
    Round {
        runs,
        wall_s: (wall_s - point_setup_s / pool_threads) * (1.0 - steal),
        setup_s: (pool_s + point_setup_s) * (1.0 - steal),
        steal,
    }
}

fn traced_round(points: &[Point], threads: usize) -> Vec<TracedRun> {
    pool(threads).install(|| points.par_iter().map(run_traced).collect())
}

/// Median host ns of one `rayon::par_for_each_mut` over two no-op items on
/// a two-thread pool: the fixed cost of dispatching one two-shard window to
/// two threads.
fn dispatch_ns() -> f64 {
    const REPS: usize = 400;
    let mut items = [0u64; 2];
    let samples: Vec<f64> = pool(2).install(|| {
        (0..REPS)
            .map(|_| {
                let start = Instant::now();
                rayon::par_for_each_mut(&mut items, |_, x| *x = std::hint::black_box(*x));
                start.elapsed().as_nanos() as f64
            })
            .collect()
    });
    median(&samples)
}

/// Host peak resident set size of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM");
    kb / 1024.0
}

/// Checks, digests and operation counts accumulated over a run's rounds.
#[derive(Default)]
struct Audit {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    digests: Option<Vec<u64>>,
    log: Vec<String>,
}

impl Audit {
    fn fail(&mut self, line: String) {
        if !self.failures.contains(&line) {
            self.failures.push(line);
        }
    }

    /// Check every point of an untraced round, and that it reproduced the
    /// first round's physics.
    fn round(&mut self, workload: Workload, points: &[Point], round: &Round) {
        let digests: Vec<u64> = round
            .runs
            .iter()
            .map(|r| Fingerprint::of(&r.report).digest())
            .collect();
        if self.digests.is_none() {
            for ((point, run), digest) in points.iter().zip(&round.runs).zip(&digests) {
                self.log
                    .push(digest_line(workload, point, &run.report, *digest));
            }
            self.digests = Some(digests.clone());
        }
        let reproduced = self.digests.as_ref() == Some(&digests);
        if !reproduced {
            self.fail(format!(
                "CHECK_FAILED {}: identical rounds produced different physics digests",
                workload.name()
            ));
        }
        for (point, run) in points.iter().zip(&round.runs) {
            let ops = point.experiment.workload.operation_count;
            self.attempted += ops;
            let failed = check_point(point, &run.report);
            if !failed.is_empty() || !reproduced {
                self.failed += ops;
            }
            for f in failed {
                self.fail(format!(
                    "CHECK_FAILED {} {} seed {}: {f}",
                    workload.name(),
                    run.report.policy,
                    point.experiment.seed
                ));
            }
        }
    }

    /// The traced runner must reproduce the untraced runner's physics.
    fn traced(
        &mut self,
        workload: Workload,
        points: &[Point],
        round: &Round,
        traced: &[TracedRun],
    ) {
        for ((point, plain), t) in points.iter().zip(&round.runs).zip(traced) {
            let ops = point.experiment.workload.operation_count;
            self.attempted += ops;
            let (a, b) = (
                Fingerprint::of(&plain.report),
                Fingerprint::of(&t.run.report),
            );
            if a != b || t.run.failed_ops != plain.failed_ops {
                self.failed += ops;
                self.fail(format!(
                    "CHECK_FAILED {} {} seed {}: traced-runner fidelity: traced {b:?} != untraced {a:?}",
                    workload.name(),
                    plain.report.policy,
                    point.experiment.seed
                ));
            }
        }
    }
}

fn digest_line(workload: Workload, point: &Point, r: &RunReport, digest: u64) -> String {
    format!(
        "PHYSICS_DIGEST workload={} policy={} seed={} digest={digest:016x} ops={} stale_reads={} timeouts={} makespan_us={} traffic_bytes={} cost_usd={:.6}",
        workload.name(),
        r.policy,
        point.experiment.seed,
        r.total_ops,
        r.stale_reads,
        r.timeouts,
        r.makespan.as_micros(),
        r.usage.traffic.total(),
        r.total_cost_usd(),
    )
}

/// The end-to-end values of one untraced round (peak RSS is per process and
/// added at the end).
fn end_to_end(points: &[Point], round: &Round) -> BTreeMap<&'static str, f64> {
    let ops: u64 = round.runs.iter().map(|r| r.report.total_ops).sum();
    let attempted: u64 = points
        .iter()
        .map(|p| p.experiment.workload.operation_count)
        .sum();
    let failed: u64 = round.runs.iter().map(|r| r.failed_ops).sum();
    let worst_fidelity = points
        .iter()
        .zip(&round.runs)
        .map(|(p, r)| fidelity(p.experiment.scenario().arrival, &r.report))
        .fold(f64::INFINITY, f64::min);
    BTreeMap::from([
        ("sim_ops_per_s", ratio(ops as f64, round.wall_s)),
        (
            "wall_clock_ops_per_s",
            ratio(ops as f64, round.wall_s / (1.0 - round.steal)),
        ),
        ("steal", round.steal),
        ("setup_s", round.setup_s),
        ("sim_time_fidelity", worst_fidelity),
        ("success_rate", 1.0 - ratio(failed as f64, attempted as f64)),
    ])
}

/// The per-layer values of one traced round.
fn per_layer(
    points: &[Point],
    round: &Round,
    traced: &[TracedRun],
    trace: &TraceSummary,
    dispatch_ns: f64,
    threads: usize,
) -> BTreeMap<&'static str, f64> {
    let reports: Vec<&RunReport> = traced.iter().map(|t| &t.run.report).collect();
    let sum = |f: fn(&RunReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>() as f64;
    let stat = |f: fn(&crate::runner::RunnerStats) -> u64| {
        traced.iter().map(|t| f(&t.stats)).sum::<u64>() as f64
    };
    let ns = |layer: Layer| -> Vec<f64> {
        trace
            .layer(layer)
            .durations_ns
            .iter()
            .map(|&d| d as f64)
            .collect()
    };
    let gen = trace.layer(Layer::WorkloadGen);
    let advance = trace.layer(Layer::ClusterAdvance);
    let decide = trace.layer(Layer::PolicyDecide);
    let monitor = trace.layer(Layer::Monitor);
    let events = stat(|s| s.events);
    let windows = sum(|r| r.shard_windows);
    let lags: Vec<f64> = traced
        .iter()
        .flat_map(|t| t.stats.publish_lag_ms.iter().copied())
        .collect();
    let worst_gap = points
        .iter()
        .zip(&reports)
        .map(|(p, r)| little_gap(p.experiment.scenario().arrival, r))
        .fold(f64::NEG_INFINITY, f64::max);
    let plain_run_s: f64 = round.runs.iter().map(|r| r.run_s).sum();
    let traced_run_s: f64 = traced.iter().map(|t| t.run.run_s).sum();
    let makespan_s: f64 = reports.iter().map(|r| r.makespan.as_secs_f64()).sum();
    let read_p95: Vec<f64> = reports.iter().map(|r| r.read_latency_ms.p95).collect();
    BTreeMap::from([
        ("workload.gen_s", gen.total_s()),
        (
            "workload.ns_per_op",
            ratio(gen.total_ns as f64, gen.calls as f64),
        ),
        ("cluster.new_s", trace.layer(Layer::ClusterNew).total_s()),
        ("cluster.load_s", trace.layer(Layer::ClusterLoad).total_s()),
        ("cluster.advance_s", advance.total_s()),
        ("cluster.advance_calls", advance.calls as f64),
        (
            "cluster.advance_ns.p50",
            quantile(&ns(Layer::ClusterAdvance), 0.5),
        ),
        (
            "cluster.advance_ns.p999",
            quantile(&ns(Layer::ClusterAdvance), 0.999),
        ),
        ("cluster.events", events),
        (
            "cluster.ns_per_event",
            ratio(advance.total_ns as f64, events),
        ),
        (
            "cluster.submit_s",
            trace.layer(Layer::ClusterSubmit).self_s(),
        ),
        (
            "cluster.control_s",
            trace.layer(Layer::ClusterControl).total_s(),
        ),
        ("cluster.timeouts", sum(|r| r.timeouts)),
        ("cluster.retries", sum(|r| r.retries)),
        ("shard.windows", windows),
        ("shard.parallel_batches", sum(|r| r.parallel_batches)),
        ("shard.barrier_folds", sum(|r| r.barrier_folds)),
        ("shard.elided_barriers", sum(|r| r.elided_barriers)),
        ("shard.fast_forwards", sum(|r| r.fast_forwards)),
        ("shard.cross_shard_staged", sum(|r| r.cross_shard_staged)),
        (
            "shard.max_batch_len",
            reports.iter().map(|r| r.max_batch_len).max().unwrap_or(0) as f64,
        ),
        (
            "shard.lookahead_violations",
            sum(|r| r.lookahead_violations),
        ),
        ("shard.events_per_batch", ratio(events, windows)),
        ("rayon.dispatch_ns", dispatch_ns),
        (
            "rayon.dispatch_share",
            ratio(dispatch_ns * windows, advance.total_ns as f64),
        ),
        ("sweep.points", points.len() as f64),
        (
            "sweep.efficiency",
            ratio(plain_run_s, threads as f64 * round.wall_s),
        ),
        ("runtime.self_s", trace.layer(Layer::Runtime).self_s()),
        ("runtime.late_submits", stat(|s| s.late_submits)),
        ("runtime.publish_lag_ms.p50", quantile(&lags, 0.5)),
        ("runtime.publish_lag_ms.p99", quantile(&lags, 0.99)),
        ("runtime.little_gap", worst_gap),
        ("oracle.reads_classified", stat(|s| s.oracle_reads)),
        ("oracle.stale_reads", sum(|r| r.stale_reads)),
        ("store.reads", stat(|s| s.store_reads)),
        ("store.writes", stat(|s| s.store_writes)),
        ("repair.hints_queued", sum(|r| r.hints_queued)),
        (
            "repair.hint_replay_ratio",
            ratio(sum(|r| r.hints_replayed), sum(|r| r.hints_queued)),
        ),
        ("repair.pages_compared", sum(|r| r.repair_pages_compared)),
        (
            "repair.records_streamed",
            sum(|r| r.repair_records_streamed),
        ),
        ("repair.bytes", sum(|r| r.repair_traffic.total())),
        ("resilience.hedged", sum(|r| r.hedged_requests)),
        (
            "resilience.hedge_win_ratio",
            ratio(sum(|r| r.hedge_wins), sum(|r| r.hedged_requests)),
        ),
        ("resilience.backoff_retries", sum(|r| r.backoff_retries)),
        ("resilience.breaker_opens", sum(|r| r.breaker_opens)),
        ("monitor.s", monitor.total_s()),
        ("monitor.calls", monitor.calls as f64),
        ("policy.decide_calls", decide.calls as f64),
        (
            "policy.decide_us.p50",
            quantile(&ns(Layer::PolicyDecide), 0.5) / 1e3,
        ),
        (
            "policy.decide_us.p90",
            quantile(&ns(Layer::PolicyDecide), 0.9) / 1e3,
        ),
        ("policy.s", decide.total_s()),
        ("cost.bill_s", trace.layer(Layer::CostBill).total_s()),
        (
            "physics.sim_ops_per_sim_s",
            ratio(sum(|r| r.total_ops), makespan_s),
        ),
        (
            "physics.stale_rate",
            ratio(sum(|r| r.stale_reads), sum(|r| r.reads)),
        ),
        ("physics.read_p95_ms", median(&read_p95)),
        ("physics.traffic_bytes", sum(|r| r.usage.traffic.total())),
        (
            "physics.cost_usd",
            reports.iter().map(|r| r.total_cost_usd()).sum(),
        ),
        ("trace.overhead_s", traced_run_s - plain_run_s),
        (
            "trace.overhead_ratio",
            ratio(traced_run_s - plain_run_s, plain_run_s),
        ),
    ])
}

/// The spans of every point of a traced round, summarised per layer.
fn merged(traced: &[TracedRun]) -> TraceSummary {
    let mut trace = TraceSummary::default();
    for t in traced {
        trace.merge(&t.tracer.summary());
    }
    trace
}

/// One line per layer: calls, total and self time of a round's spans.
fn span_table(trace: &TraceSummary) -> Vec<String> {
    Layer::ALL
        .iter()
        .map(|&layer| {
            let l = trace.layer(layer);
            format!(
                "SPANS layer={} calls={} total_s={:.6} self_s={:.6}",
                layer.name(),
                l.calls,
                l.total_s(),
                l.self_s()
            )
        })
        .collect()
}

/// Run the benchmark.
pub fn run(opts: Options) -> Outcome {
    let points = opts.workload.points(opts.seed, opts.size);
    let start = Instant::now();
    let mut audit = Audit::default();
    let mut rounds: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut last_trace = TraceSummary::default();
    let threads = opts.workload.threads();
    let dispatch = if opts.trace { dispatch_ns() } else { 0.0 };
    while rounds.is_empty() || start.elapsed().as_secs_f64() < opts.seconds {
        let round = untraced_round(&points, threads);
        audit.round(opts.workload, &points, &round);
        if opts.trace {
            let traced = traced_round(&points, threads);
            audit.traced(opts.workload, &points, &round, &traced);
            let trace = merged(&traced);
            rounds.push(per_layer(
                &points, &round, &traced, &trace, dispatch, threads,
            ));
            last_trace = trace;
        } else {
            rounds.push(end_to_end(&points, &round));
        }
    }
    let rss = peak_rss_mb();
    let metrics = metrics_for(opts.trace)
        .iter()
        .map(|m| {
            let value = if m.name == "peak_rss_mb" {
                rss
            } else {
                let values: Vec<f64> = rounds.iter().map(|r| r[m.name]).collect();
                median(&values)
            };
            (*m, value)
        })
        .collect();
    let mut log = audit.log;
    log.push(format!(
        "RUN workload={} seed={} rounds={} threads={} nproc={} host_s={:.3}",
        opts.workload.name(),
        opts.seed,
        rounds.len(),
        threads,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        start.elapsed().as_secs_f64()
    ));
    if opts.trace {
        log.extend(span_table(&last_trace));
    } else {
        let column = |name: &str, scale: f64| -> String {
            let values: Vec<String> = rounds
                .iter()
                .map(|r| format!("{:.1}", r[name] * scale))
                .collect();
            values.join(",")
        };
        log.push(format!(
            "ROUNDS sim_ops_per_s={} wall_clock_ops_per_s={} steal_pct={}",
            column("sim_ops_per_s", 1.0),
            column("wall_clock_ops_per_s", 1.0),
            column("steal", 100.0)
        ));
    }
    log.extend(audit.failures.iter().cloned());
    Outcome {
        correct: audit.failures.is_empty(),
        attempted: audit.attempted,
        failed: audit.failed,
        metrics,
        log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_is_the_stolen_part_of_wanted_cpu_time() {
        let before = CpuTicks {
            busy: 100,
            steal: 10,
        };
        let after = CpuTicks {
            busy: 190,
            steal: 20,
        };
        assert!((steal_share(before, after) - 0.1).abs() < 1e-12);
        assert_eq!(steal_share(before, before), 0.0);
        let now = cpu_ticks();
        assert!(now.busy > 0);
    }
}
