//! The benchmark's three workloads, built the way the experiment binaries
//! build them: one `concord::Experiment` per grid point.
//!
//! * `paper_sweep` — EXP-A1 exactly as `exp_harmony` sets it up, as a
//!   (policy × seed) grid on a two-thread sweep pool. Serial engine
//!   (`shards = 1`): the window engine does no work, so this is the bypass
//!   workload for window, fold and per-window dispatch changes, and the one
//!   that pins the coarse per-point use of the pool.
//! * `geo_open_faults` — one Harmony-20% run on the same platform, cut into
//!   one shard per site, under an open-loop Poisson schedule with
//!   `exp_faults`' fault script plus a gray failure, with the repair plane
//!   and the resilience layer on. Cross-shard staging, control-effect folds
//!   and the bulk arrival lane carry the work.
//! * `closed_sharded` — the EXP-A1 Harmony-20% closed loop at two shards:
//!   completions drive resubmissions through the event queue and are only
//!   published at folds, which is where late closed-loop submissions
//!   distort simulated time.
//!
//! The two sharded workloads run their windows on one thread. The vendored
//! pool spawns a thread per window dispatch, so at two threads every
//! window waits for both virtual CPUs: on a shared two-core virtual machine
//! their host throughput then follows the hypervisor's steal time
//! (`closed_sharded` swung 2x between identical runs, `geo_open_faults`
//! spread 19-54% over ten seeds) — more than any regression bound can
//! hold. Physics is thread-invariant, so what they measure is otherwise
//! the same; the cost of a two-thread window dispatch is measured on its
//! own (`rayon.dispatch_ns`).

use concord::platforms::{self, Platform};
use concord::{Experiment, PolicySpec};
use concord_bench::slim;
use concord_cluster::{RepairConfig, RepairMode, ReplicaSelection};
use concord_core::{FaultAction, FaultEvent, Scenario};
use concord_sim::{LinkClass, SimDuration};
use concord_workload::presets;

/// Closed-loop client count of EXP-A1.
pub const CLIENTS: u32 = 32;

/// Offered load of `geo_open_faults`, in operations per simulated second.
const GEO_RATE: f64 = 1_500.0;

/// Cluster scale shared by every workload: the harness default, 21 nodes
/// of the 84-node Grid'5000 deployment.
const CLUSTER_SCALE: f64 = 0.25;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// EXP-A1 as a (policy × seed) grid on the serial engine.
    PaperSweep,
    /// One Harmony-20% open-loop run at two shards under faults.
    GeoOpenFaults,
    /// The EXP-A1 Harmony-20% closed loop at two shards.
    ClosedSharded,
}

/// How much work one grid point does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size: 1% of the paper's operation and record counts.
    Full,
    /// A smoke-test size that runs in well under a second.
    Tiny,
}

impl Size {
    fn workload_scale(self) -> f64 {
        match self {
            Size::Full => 0.01,
            Size::Tiny => 0.0005,
        }
    }
}

/// One grid point: an experiment (platform, workload, scenario, seed) and
/// the policy it runs.
#[derive(Debug, Clone)]
pub struct Point {
    /// The experiment the point belongs to, with the point's own seed.
    pub experiment: Experiment,
    /// The policy the point runs.
    pub spec: PolicySpec,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperSweep,
        Workload::GeoOpenFaults,
        Workload::ClosedSharded,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::GeoOpenFaults => "geo_open_faults",
            Workload::ClosedSharded => "closed_sharded",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads of the workload's pool (see the module docs for why
    /// the sharded workloads use one).
    pub fn threads(self) -> usize {
        match self {
            Workload::PaperSweep => 2,
            Workload::GeoOpenFaults | Workload::ClosedSharded => 1,
        }
    }

    /// The grid points one round of the workload runs, all derived from
    /// `seed`.
    pub fn points(self, seed: u64, size: Size) -> Vec<Point> {
        let scale = size.workload_scale();
        let workload = slim(presets::harmony_grid5000_workload(scale));
        match self {
            Workload::PaperSweep => {
                let experiment = exp_a1(platforms::grid5000_harmony(CLUSTER_SCALE), workload);
                let policies = [
                    PolicySpec::Eventual,
                    PolicySpec::Strong,
                    PolicySpec::Harmony { tolerance: 0.20 },
                    PolicySpec::Harmony { tolerance: 0.40 },
                ];
                // Policy-major, seed-minor: the order `Sweep::run` uses.
                policies
                    .iter()
                    .flat_map(|spec| {
                        [seed, seed.wrapping_add(1)].map(|s| Point {
                            experiment: experiment.clone().with_seed(s),
                            spec: spec.clone(),
                        })
                    })
                    .collect()
            }
            Workload::GeoOpenFaults => {
                let mut platform = platforms::grid5000_harmony(CLUSTER_SCALE);
                platform.cluster.shards = 2;
                platform.cluster.op_timeout = SimDuration::from_secs(1);
                platform.cluster.retry_on_timeout = 1;
                platform.cluster.repair = RepairConfig::with_mode(RepairMode::Full);
                platform.cluster.resilience.hedge_delay = SimDuration::from_millis(2);
                platform.cluster.resilience.backoff = true;
                platform.cluster.read_selection = ReplicaSelection::Dynamic;
                let span_secs = workload.operation_count as f64 / GEO_RATE;
                let experiment = Experiment::new(platform, workload)
                    .with_adaptation_interval(SimDuration::from_millis(100))
                    .with_seed(seed)
                    .with_scenario(geo_scenario(span_secs));
                vec![Point {
                    experiment,
                    spec: PolicySpec::Harmony { tolerance: 0.20 },
                }]
            }
            Workload::ClosedSharded => {
                let mut platform = platforms::grid5000_harmony(CLUSTER_SCALE);
                platform.cluster.shards = 2;
                vec![Point {
                    experiment: exp_a1(platform, workload).with_seed(seed),
                    spec: PolicySpec::Harmony { tolerance: 0.20 },
                }]
            }
        }
    }
}

/// EXP-A1's experiment settings (`exp_harmony`): 32 closed-loop clients and
/// a 100 ms adaptation interval.
fn exp_a1(platform: Platform, workload: concord_workload::WorkloadConfig) -> Experiment {
    Experiment::new(platform, workload)
        .with_clients(CLIENTS)
        .with_adaptation_interval(SimDuration::from_millis(100))
}

/// `exp_faults`' fault script over an arrival span of `span_secs`, plus one
/// gray failure (node 3 serving 10× slow) over the middle of the run.
fn geo_scenario(span_secs: f64) -> Scenario {
    let at = |frac: f64| span_secs * frac;
    Scenario::open_poisson(GEO_RATE).with_faults(vec![
        FaultEvent::at_secs(at(0.15), FaultAction::CrashNode(1)),
        FaultEvent::at_secs(at(0.25), FaultAction::NodeDown(2)),
        FaultEvent::at_secs(at(0.30), FaultAction::SlowNode(3, 10.0)),
        FaultEvent::at_secs(at(0.35), FaultAction::NodeUp(2)),
        FaultEvent::at_secs(at(0.40), FaultAction::RecoverNode(1)),
        FaultEvent::at_secs(at(0.50), FaultAction::PartitionDcs(0, 1)),
        FaultEvent::at_secs(at(0.70), FaultAction::HealDcs(0, 1)),
        FaultEvent::at_secs(at(0.70), FaultAction::RestoreNode(3)),
        FaultEvent::at_secs(at(0.80), FaultAction::DegradeLink(LinkClass::InterDc, 8.0)),
        FaultEvent::at_secs(at(0.95), FaultAction::RestoreLink(LinkClass::InterDc)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn points_match_the_workload_shapes() {
        let sweep = Workload::PaperSweep.points(7, Size::Full);
        assert_eq!(sweep.len(), 8);
        assert!(sweep
            .iter()
            .all(|p| p.experiment.platform.cluster.shards == 1));
        assert_eq!(sweep[0].experiment.seed, 7);
        assert_eq!(sweep[1].experiment.seed, 8);
        assert_eq!(
            sweep[0].experiment.platform.cluster.topology.node_count(),
            21
        );
        let geo = &Workload::GeoOpenFaults.points(7, Size::Full)[0];
        assert_eq!(geo.experiment.platform.cluster.shards, 2);
        assert!(!geo.experiment.scenario().is_closed_loop());
        let closed = &Workload::ClosedSharded.points(7, Size::Full)[0];
        assert_eq!(closed.experiment.platform.cluster.shards, 2);
        assert!(closed.experiment.scenario().is_closed_loop());
    }
}
