//! What the benchmark derives from `RunReport`s: the output checks, the
//! fidelity of simulated time, the physics fingerprint and the small
//! statistics helpers.

use crate::workloads::Point;
use concord::PolicySpec;
use concord_core::RunReport;
use concord_workload::ArrivalProcess;

/// Op-weighted mean client latency (reads and writes) of a run, in seconds.
pub fn mean_latency_s(report: &RunReport) -> f64 {
    let ops = report.reads + report.writes;
    if ops == 0 {
        return 0.0;
    }
    let weighted = report.reads as f64 * report.read_latency_ms.mean
        + report.writes as f64 * report.write_latency_ms.mean;
    weighted / ops as f64 / 1e3
}

/// The simulated throughput a run's arrival model implies: Little's law
/// `N / (R̄ + Z)` for a closed loop of `N` clients with think time `Z`, the
/// offered rate for an open loop.
pub fn implied_throughput(arrival: ArrivalProcess, report: &RunReport) -> f64 {
    match arrival {
        ArrivalProcess::ClosedLoop {
            clients,
            think_time_us,
        } => ratio(
            clients as f64,
            mean_latency_s(report) + think_time_us as f64 / 1e6,
        ),
        ArrivalProcess::OpenLoopPoisson { ops_per_sec }
        | ArrivalProcess::OpenLoopUniform { ops_per_sec } => ops_per_sec,
    }
}

/// Simulated throughput as a share of what the arrival model implies
/// (`X·R̄/N` in a closed loop, `X/λ` in an open loop). About 1 when
/// simulated time is undistorted.
pub fn fidelity(arrival: ArrivalProcess, report: &RunReport) -> f64 {
    ratio(
        report.throughput_ops_per_sec,
        implied_throughput(arrival, report),
    )
}

/// Little's-law gap `1 − X·R̄/N` (closed loop; `1 − X/λ` in an open loop).
pub fn little_gap(arrival: ArrivalProcess, report: &RunReport) -> f64 {
    1.0 - fidelity(arrival, report)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The physics of a run that the traced runner must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Completed operations.
    pub ops: u64,
    /// Completed reads.
    pub reads: u64,
    /// Completed writes.
    pub writes: u64,
    /// Stale reads.
    pub stale_reads: u64,
    /// Timed-out operations.
    pub timeouts: u64,
    /// Simulated makespan, µs.
    pub makespan_us: u64,
    /// Network bytes.
    pub traffic_bytes: u64,
    /// Bill total, as the bits of its `f64`.
    pub cost_bits: u64,
}

impl Fingerprint {
    /// The fingerprint of a report.
    pub fn of(report: &RunReport) -> Self {
        Fingerprint {
            ops: report.total_ops,
            reads: report.reads,
            writes: report.writes,
            stale_reads: report.stale_reads,
            timeouts: report.timeouts,
            makespan_us: report.makespan.as_micros(),
            traffic_bytes: report.usage.traffic.total(),
            cost_bits: report.total_cost_usd().to_bits(),
        }
    }

    /// A 64-bit FNV-1a digest of the fingerprint.
    pub fn digest(&self) -> u64 {
        let fields = [
            self.ops,
            self.reads,
            self.writes,
            self.stale_reads,
            self.timeouts,
            self.makespan_us,
            self.traffic_bytes,
            self.cost_bits,
        ];
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in fields.iter().flat_map(|f| f.to_le_bytes()) {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// The output checks one grid point must pass; returns one line per failed
/// check.
pub fn check_point(point: &Point, report: &RunReport) -> Vec<String> {
    let mut failed = Vec::new();
    let expected = point.experiment.workload.operation_count;
    if report.total_ops != expected {
        failed.push(format!(
            "every submitted operation completes: total_ops {} != operation_count {expected}",
            report.total_ops
        ));
    }
    match point.spec {
        PolicySpec::Strong if report.stale_reads != 0 => failed.push(format!(
            "strong(ALL) reads are never stale (R + W > RF): {} stale reads",
            report.stale_reads
        )),
        PolicySpec::Harmony { tolerance } if report.stale_read_rate > tolerance => {
            failed.push(format!(
                "harmony keeps its tolerance: stale rate {:.4} > {tolerance}",
                report.stale_read_rate
            ))
        }
        _ => {}
    }
    if report.lookahead_violations != 0 {
        failed.push(format!(
            "no lookahead violations: {}",
            report.lookahead_violations
        ));
    }
    failed
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Size, Workload};
    use concord_core::LatencySummary;
    use concord_sim::SimDuration;

    /// A synthetic report: `reads`/`writes` at the given mean latencies,
    /// completed in `makespan_s` simulated seconds.
    fn synthetic(
        reads: u64,
        writes: u64,
        read_ms: f64,
        write_ms: f64,
        makespan_s: f64,
    ) -> RunReport {
        let json = Workload::ClosedSharded.points(1, Size::Tiny)[0]
            .experiment
            .run_spec(&PolicySpec::Eventual)
            .to_json();
        let mut r: RunReport = serde_json::from_str(&json).expect("a report parses back");
        r.reads = reads;
        r.writes = writes;
        r.total_ops = reads + writes;
        r.stale_reads = 0;
        r.stale_read_rate = 0.0;
        r.lookahead_violations = 0;
        r.read_latency_ms = LatencySummary {
            mean: read_ms,
            ..Default::default()
        };
        r.write_latency_ms = LatencySummary {
            mean: write_ms,
            ..Default::default()
        };
        r.makespan = SimDuration::from_secs_f64(makespan_s);
        r.throughput_ops_per_sec = (reads + writes) as f64 / makespan_s;
        r
    }

    #[test]
    fn little_gap_is_zero_when_littles_law_holds() {
        // 32 clients, 1 ms per op, 32 000 ops/s: N = X·R exactly.
        let r = synthetic(24_000, 8_000, 1.0, 1.0, 1.0);
        let closed = ArrivalProcess::closed(32);
        assert!((mean_latency_s(&r) - 1e-3).abs() < 1e-12);
        assert!(little_gap(closed, &r).abs() < 1e-9);
        assert!((fidelity(closed, &r) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn little_gap_measures_a_stretched_makespan() {
        // Same work stretched over 100 s: X is 1% of N/R.
        let r = synthetic(24_000, 8_000, 1.0, 1.0, 100.0);
        let closed = ArrivalProcess::closed(32);
        assert!((little_gap(closed, &r) - 0.99).abs() < 1e-9);
        // Op-weighted latency: 3/4 of the ops at 2 ms, 1/4 at 6 ms → 3 ms.
        let r = synthetic(3_000, 1_000, 2.0, 6.0, 1.0);
        assert!((mean_latency_s(&r) - 3e-3).abs() < 1e-12);
        assert!((fidelity(closed, &r) - 4_000.0 * 3e-3 / 32.0).abs() < 1e-9);
    }

    #[test]
    fn open_loop_fidelity_compares_with_the_offered_rate() {
        let r = synthetic(1_500, 500, 1.0, 1.0, 2.0);
        let open = ArrivalProcess::OpenLoopPoisson {
            ops_per_sec: 1_250.0,
        };
        assert!((fidelity(open, &r) - 0.8).abs() < 1e-9);
        assert!((little_gap(open, &r) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn ratios_guard_a_zero_base() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }

    #[test]
    fn fingerprint_sees_every_physics_field() {
        let base = synthetic(3_000, 1_000, 2.0, 6.0, 1.0);
        let fp = Fingerprint::of(&base);
        assert_eq!(fp, Fingerprint::of(&base.clone()));
        assert_eq!(fp.digest(), Fingerprint::of(&base.clone()).digest());
        let mut changed: Vec<RunReport> = vec![base.clone(); 6];
        changed[0].stale_reads += 1;
        changed[1].timeouts += 1;
        changed[2].makespan = SimDuration::from_secs(2);
        changed[3].usage.traffic.intra_dc += 1;
        changed[4].writes += 1;
        changed[5].bill = None;
        for r in &changed {
            assert_ne!(Fingerprint::of(r), fp);
            assert_ne!(Fingerprint::of(r).digest(), fp.digest());
        }
    }

    #[test]
    fn checks_catch_each_violation() {
        let point = &Workload::PaperSweep.points(1, Size::Tiny)[2]; // strong(ALL)
        assert!(matches!(point.spec, PolicySpec::Strong));
        let mut r = synthetic(1_000, 0, 1.0, 1.0, 1.0);
        r.total_ops = point.experiment.workload.operation_count;
        assert!(check_point(point, &r).is_empty());
        r.stale_reads = 1;
        r.lookahead_violations = 2;
        r.total_ops -= 1;
        assert_eq!(check_point(point, &r).len(), 3);
        let harmony = &Workload::ClosedSharded.points(1, Size::Tiny)[0];
        let mut r = synthetic(1_000, 0, 1.0, 1.0, 1.0);
        r.total_ops = harmony.experiment.workload.operation_count;
        r.stale_read_rate = 0.25;
        assert_eq!(check_point(harmony, &r).len(), 1);
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
    }
}
