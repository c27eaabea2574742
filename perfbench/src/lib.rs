//! End-to-end and per-layer benchmark of the Triple-C reproduction.
//!
//! One command runs one workload (`replay1024`, `live16x128` or
//! `storm256`) from a seed, checks its outputs, and prints the
//! end-to-end metrics (untraced run) or the per-layer metrics with the
//! attribution of each rung (traced run). See `perfbench/README.md`.

pub mod check;
pub mod closed;
pub mod host;
pub mod inputs;
pub mod ladder;
pub mod layers;
pub mod live;
pub mod report;
pub mod stats;
pub mod watchdog;

use crate::closed::ClosedParams;
use crate::live::LiveParams;
use crate::report::RunResult;
use crate::watchdog::Progress;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy)]
pub enum Workload {
    Closed(ClosedParams),
    Live(LiveParams),
}

impl Workload {
    /// The workload called `name` at its benchmark size.
    pub fn named(name: &str) -> Option<Workload> {
        match name {
            "replay1024" => Some(Workload::Closed(ClosedParams::REPLAY1024)),
            "storm256" => Some(Workload::Closed(ClosedParams::STORM256)),
            "live16x128" => Some(Workload::Live(LiveParams::LIVE16X128)),
            _ => None,
        }
    }

    /// Runs the workload once.
    pub fn run(&self, seed: u64, seconds: f64, traced: bool, progress: &Progress) -> RunResult {
        match self {
            Workload::Closed(p) => closed::run(p, seed, seconds, traced, progress),
            Workload::Live(p) => live::run(p, seed, seconds, traced, progress),
        }
    }
}
