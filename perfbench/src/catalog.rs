//! Every metric the benchmark prints, with its unit and direction.
//! `BENCHMARK.json` lists exactly these (a test pins the two together).

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric's name, unit and direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by an untraced run (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    m("sim_ops_per_s", "ops/s", Higher),
    m("setup_s", "s", Lower),
    m("peak_rss_mb", "MB", Lower),
    m("sim_time_fidelity", "ratio", Higher),
    m("success_rate", "ratio", Higher),
];

/// Per-layer metrics, printed by a traced run (`--trace 1`).
pub const PER_LAYER: &[Metric] = &[
    m("workload.gen_s", "s", Lower),
    m("workload.ns_per_op", "ns", Lower),
    m("cluster.new_s", "s", Lower),
    m("cluster.load_s", "s", Lower),
    m("cluster.advance_s", "s", Lower),
    m("cluster.advance_calls", "count", Lower),
    m("cluster.advance_ns.p50", "ns", Lower),
    m("cluster.advance_ns.p999", "ns", Lower),
    m("cluster.events", "count", Lower),
    m("cluster.ns_per_event", "ns", Lower),
    m("cluster.submit_s", "s", Lower),
    m("cluster.control_s", "s", Lower),
    m("cluster.timeouts", "count", Lower),
    m("cluster.retries", "count", Lower),
    m("shard.windows", "count", Lower),
    m("shard.parallel_batches", "count", Lower),
    m("shard.barrier_folds", "count", Lower),
    m("shard.elided_barriers", "count", Higher),
    m("shard.fast_forwards", "count", Higher),
    m("shard.cross_shard_staged", "count", Lower),
    m("shard.max_batch_len", "count", Higher),
    m("shard.lookahead_violations", "count", Lower),
    m("shard.events_per_batch", "count", Higher),
    m("rayon.dispatch_ns", "ns", Lower),
    m("rayon.dispatch_share", "ratio", Lower),
    m("sweep.points", "count", Higher),
    m("sweep.efficiency", "ratio", Higher),
    m("runtime.self_s", "s", Lower),
    m("runtime.late_submits", "count", Lower),
    m("runtime.publish_lag_ms.p50", "ms", Lower),
    m("runtime.publish_lag_ms.p99", "ms", Lower),
    m("runtime.little_gap", "ratio", Lower),
    m("oracle.reads_classified", "count", Lower),
    m("oracle.stale_reads", "count", Lower),
    m("store.reads", "count", Lower),
    m("store.writes", "count", Lower),
    m("repair.hints_queued", "count", Lower),
    m("repair.hint_replay_ratio", "ratio", Higher),
    m("repair.pages_compared", "count", Lower),
    m("repair.records_streamed", "count", Lower),
    m("repair.bytes", "bytes", Lower),
    m("resilience.hedged", "count", Lower),
    m("resilience.hedge_win_ratio", "ratio", Higher),
    m("resilience.backoff_retries", "count", Lower),
    m("resilience.breaker_opens", "count", Lower),
    m("monitor.s", "s", Lower),
    m("monitor.calls", "count", Lower),
    m("policy.decide_calls", "count", Lower),
    m("policy.decide_us.p50", "us", Lower),
    m("policy.decide_us.p90", "us", Lower),
    m("policy.s", "s", Lower),
    m("cost.bill_s", "s", Lower),
    m("physics.sim_ops_per_sim_s", "ops/s", Higher),
    m("physics.stale_rate", "ratio", Lower),
    m("physics.read_p95_ms", "ms", Lower),
    m("physics.traffic_bytes", "bytes", Lower),
    m("physics.cost_usd", "usd", Lower),
    m("trace.overhead_s", "s", Lower),
    m("trace.overhead_ratio", "ratio", Lower),
];

/// The metrics a run prints: per-layer when traced, end-to-end otherwise.
pub fn metrics_for(trace: bool) -> &'static [Metric] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}
