//! The per-layer metric set of a traced run, and the attribution of
//! each rung to its parts.
//!
//! Every traced run prints every per-layer metric. A layer a workload
//! does not exercise reads 0 (the service tier on a single stream, for
//! instance). Times that take part in an attribution are means, so
//! parts and residual add up to the whole.

use crate::ladder::{task_family, EngineRun, ManualRun, FAMILIES};
use crate::report::{Clock, Metric};
use crate::stats::{mean, percentile, Attribution};
use triple_c::platform::trace::FrameRecord;
use triple_c::runtime::StreamResult;

/// Raw per-layer measurements of one traced run.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub synth_ms: Vec<f64>,
    pub process_ms: f64,
    pub probe_ms: f64,
    pub pipeline_residual_ms: f64,
    pub stripes_mean: f64,
    pub modelled_over_wall: f64,
    /// (mean ms per run, runs) per task family, in [`FAMILIES`] order.
    pub families: Vec<(f64, usize)>,
    pub pool_bytes: f64,
    pub warm_allocs: f64,
    pub pred_accuracy: f64,
    pub p95_coverage: f64,
    pub plan_us: f64,
    pub absorb_us: f64,
    pub promotions: f64,
    pub quarantines: f64,
    pub engine_residual_ms: f64,
    pub retained_display_mb: f64,
    pub submit_ms: Vec<f64>,
    pub gen_lag_ms: Vec<f64>,
    pub admission_wait_ms: Vec<f64>,
    pub evictions_per_kframe: f64,
    pub dropped_frames: f64,
    pub exec_ms: Vec<f64>,
    pub trace_overhead_pct: f64,
    pub failed_ratio: f64,
}

/// Each attribution as a one-line identity followed by the markdown
/// "where the time goes" table.
pub fn where_time_goes(attributions: &[(Attribution, &str)]) -> Vec<String> {
    let mut lines: Vec<String> = attributions
        .iter()
        .map(|(a, unit)| a.render(unit))
        .collect();
    lines.push("| rung | part | per frame | share |".into());
    lines.push("|---|---|---|---|".into());
    for (a, unit) in attributions {
        lines.extend(a.table_rows(unit));
    }
    lines
}

/// Retained display bytes of stream results, MB (10^6 bytes).
pub fn retained_display_mb<'a>(results: impl IntoIterator<Item = &'a StreamResult>) -> f64 {
    let bytes: usize = results
        .into_iter()
        .flat_map(|r| r.displays.iter().flatten())
        .map(|d| d.byte_size())
        .sum();
    bytes as f64 / 1e6
}

/// Frame-weighted prediction accuracy and p95 coverage of results.
pub fn model_quality<'a>(results: impl IntoIterator<Item = &'a StreamResult>) -> (f64, f64) {
    let (mut acc, mut cov, mut n_acc, mut n_cov) = (0.0, 0.0, 0.0, 0.0);
    for r in results {
        acc += r.accuracy.mean_accuracy * r.accuracy.count as f64;
        n_acc += r.accuracy.count as f64;
        cov += r.calibration.p95_coverage * r.calibration.frames as f64;
        n_cov += r.calibration.frames as f64;
    }
    (acc / n_acc.max(1.0), cov / n_cov.max(1.0))
}

/// Mean RDG stripes and modelled-latency over wall-time ratio of
/// executed frames.
pub fn stripes_and_modelled_share<'a>(
    results: impl IntoIterator<Item = &'a StreamResult>,
) -> (f64, f64) {
    let (mut stripes, mut frames, mut modelled, mut wall) = (0.0, 0.0, 0.0, 0.0);
    for r in results {
        stripes += r.stripes.iter().sum::<usize>() as f64;
        frames += r.stripes.len() as f64;
        modelled += r.trace.latencies().iter().sum::<f64>();
        wall += r.frame_wall_ms.iter().sum::<f64>();
    }
    (stripes / frames.max(1.0), modelled / wall.max(1e-9))
}

impl Layers {
    /// Fills the frame- and stream-rung layers from an engine loop and
    /// its hand-driven twin over the same frames.
    pub fn from_ladder(&mut self, engine: &EngineRun, manual: &ManualRun) {
        self.process_ms = mean(&manual.process_ms);
        self.probe_ms = mean(&manual.probe_ms);
        self.pipeline_residual_ms = self.frame_attribution(&manual.records).residual;
        self.pool_bytes = manual.pool_bytes as f64;
        self.warm_allocs = manual.warm_allocs as f64;
        self.plan_us = mean(&manual.plan_us);
        self.absorb_us = mean(&manual.absorb_us);
        self.promotions = engine.promotions as f64;
        self.quarantines = engine.quarantines as f64;
        self.engine_residual_ms = self.stream_attribution(manual).residual;
        // traced engine against its untraced twin, frame by frame
        let untraced = percentile(&manual.untraced_step_ms, 0.5).unwrap_or(0.0);
        let traced = percentile(&engine.step_ms, 0.5).unwrap_or(0.0);
        self.trace_overhead_pct = if untraced > 0.0 {
            (traced - untraced) / untraced * 100.0
        } else {
            0.0
        };
    }

    /// Fills the task-family layers from executed frame records.
    pub fn set_families(&mut self, records: &[&FrameRecord]) {
        self.families = FAMILIES
            .iter()
            .map(|(_, tasks)| task_family(records, tasks))
            .collect();
    }

    /// Frame rung: `process_frame_observed` wall time = task times (as
    /// the program records them) + structure probe + residual.
    pub fn frame_attribution(&self, records: &[FrameRecord]) -> Attribution {
        let frames = records.len().max(1) as f64;
        let mut parts: Vec<(&'static str, f64)> = FAMILIES
            .iter()
            .map(|(name, tasks)| {
                let total: f64 = records
                    .iter()
                    .flat_map(|r| r.task_times.iter())
                    .filter(|(t, _)| tasks.contains(t))
                    .map(|(_, ms)| ms)
                    .sum();
                (*name, total / frames)
            })
            .collect();
        parts.push(("probe", self.probe_ms));
        Attribution::new("frame", "process_frame_observed", self.process_ms, parts)
    }

    /// Stream rung: untraced `step` = plan + process + absorb + residual.
    pub fn stream_attribution(&self, manual: &ManualRun) -> Attribution {
        Attribution::new(
            "stream",
            "StreamEngine::step",
            mean(&manual.untraced_step_ms),
            vec![
                ("plan", self.plan_us / 1e3),
                ("process", self.process_ms),
                ("absorb", self.absorb_us / 1e3),
            ],
        )
    }

    /// Every per-layer metric, in the order of `BENCHMARK.json`.
    pub fn metrics(&self) -> Vec<Metric> {
        let one = |name, unit, v| Metric::single(name, unit, Clock::None, v);
        let wall = |name, v| Metric::single(name, "ms", Clock::Wall, v);
        let fam = |i: usize| self.families.get(i).copied().unwrap_or((0.0, 0));
        let mut m = vec![
            Metric::median("xray.synth_ms", "ms", Clock::Wall, &self.synth_ms),
            wall("pipeline.process_ms", self.process_ms),
            wall("pipeline.probe_ms", self.probe_ms),
            wall("pipeline.residual_ms", self.pipeline_residual_ms),
            one("pipeline.stripes_mean", "count", self.stripes_mean),
            one(
                "pipeline.modelled_over_wall",
                "ratio",
                self.modelled_over_wall,
            ),
        ];
        let names: [(&'static str, &'static str); 5] = [
            ("imaging.rdg_ms", "imaging.rdg_runs"),
            ("imaging.mkx_ms", "imaging.mkx_runs"),
            ("imaging.gw_ms", "imaging.gw_runs"),
            ("imaging.enh_ms", "imaging.enh_runs"),
            ("imaging.zoom_ms", "imaging.zoom_runs"),
        ];
        for (i, (ms, runs)) in names.into_iter().enumerate() {
            m.push(wall(ms, fam(i).0));
            m.push(one(runs, "count", fam(i).1 as f64));
        }
        m.extend([
            one("imaging.pool_bytes", "bytes", self.pool_bytes),
            one("imaging.warm_allocs", "count", self.warm_allocs),
            one("triplec.pred_accuracy", "ratio", self.pred_accuracy),
            one("triplec.p95_coverage", "ratio", self.p95_coverage),
            Metric::single("runtime.manager.plan_us", "us", Clock::Wall, self.plan_us),
            Metric::single(
                "runtime.manager.absorb_us",
                "us",
                Clock::Wall,
                self.absorb_us,
            ),
            one("runtime.manager.promotions", "count", self.promotions),
            one("runtime.manager.quarantines", "count", self.quarantines),
            wall("runtime.engine.residual_ms", self.engine_residual_ms),
            one(
                "runtime.engine.retained_display_mb",
                "MB",
                self.retained_display_mb,
            ),
            Metric::tail(
                "runtime.service.submit_ms_p99",
                "ms",
                Clock::Wall,
                &self.submit_ms,
                0.99,
            ),
            Metric::tail(
                "runtime.service.gen_lag_ms_p99",
                "ms",
                Clock::Wall,
                &self.gen_lag_ms,
                0.99,
            ),
            Metric::median(
                "runtime.service.admission_wait_ms_p50",
                "ms",
                Clock::Wall,
                &self.admission_wait_ms,
            ),
            Metric::tail(
                "runtime.service.admission_wait_ms_p99",
                "ms",
                Clock::Wall,
                &self.admission_wait_ms,
                0.99,
            ),
            one(
                "runtime.service.evictions_per_kframe",
                "1/kframe",
                self.evictions_per_kframe,
            ),
            one(
                "runtime.service.dropped_frames",
                "count",
                self.dropped_frames,
            ),
            Metric::median(
                "runtime.service.exec_ms_p50",
                "ms",
                Clock::Wall,
                &self.exec_ms,
            ),
            Metric::tail(
                "runtime.service.exec_ms_p99",
                "ms",
                Clock::Wall,
                &self.exec_ms,
                0.99,
            ),
            one("trace.overhead_pct", "%", self.trace_overhead_pct),
            one("failed_ratio", "ratio", self.failed_ratio),
        ]);
        m
    }
}
