//! The concord repository benchmark: simulator throughput, set-up time,
//! memory and the fidelity of simulated time on three paper-shaped
//! workloads, plus a traced run that attributes host time to layers.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_sweep --seed 2013 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`,
//! with the end-to-end metrics of [`catalog::END_TO_END`] for `--trace 0`
//! and the per-layer metrics of [`catalog::PER_LAYER`] for `--trace 1`.

pub mod bench;
pub mod catalog;
pub mod report;
pub mod runner;
pub mod trace;
pub mod workloads;
