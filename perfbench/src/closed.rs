//! The single-stream closed-loop workloads: `replay1024` (the paper's
//! geometry, imaging-bound) and `storm256` (a scenario storm that
//! exercises the predictor's write path).

use crate::check::{digest, mismatches, SerialPass};
use crate::host::RssSampler;
use crate::inputs::{dynamic_sequence, render_all, storm_script, sub_seed, Playback};
use crate::ladder::{self, EngineLoop, HandDriven, StreamSettings};
use crate::layers::{
    model_quality, retained_display_mb, stripes_and_modelled_share, where_time_goes, Layers,
};
use crate::report::{Clock, Metric, RunResult};
use crate::watchdog::Progress;
use std::time::Instant;
use triple_c::pipeline::app::AppConfig;
use triple_c::runtime::{ManagerConfig, RecoveryPolicy, SelectionConfig, StreamEngine, StreamSpec};
use triple_c::triplec::triple::TripleC;
use triple_c::xray::SequenceConfig;

/// Sizes of a closed-loop workload.
#[derive(Debug, Clone, Copy)]
pub struct ClosedParams {
    pub name: &'static str,
    /// Frame edge, pixels.
    pub size: usize,
    /// Frames of the training sequence.
    pub train_frames: usize,
    /// Timed sequences, played one after another (see [`Playback`]).
    pub sequences: usize,
    /// Frames rendered per timed sequence.
    pub timed_frames: usize,
    /// Timed frames a run makes at least (p99 needs 1000).
    pub min_frames: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Scenario storm, on a one-core grant.
    pub storm: bool,
}

/// Frames the storm script covers; a run stops there at the latest so
/// every timed frame is scripted.
pub const STORM_SCRIPT_FRAMES: usize = 60_000;

impl ClosedParams {
    pub const REPLAY1024: ClosedParams = ClosedParams {
        name: "replay1024",
        size: 1024,
        train_frames: 32,
        sequences: 8,
        timed_frames: 16,
        min_frames: 1000,
        setups: 7,
        storm: false,
    };

    pub const STORM256: ClosedParams = ClosedParams {
        name: "storm256",
        size: 256,
        train_frames: 48,
        sequences: 8,
        timed_frames: 24,
        min_frames: 1000,
        setups: 7,
        storm: true,
    };

    fn settings(&self) -> StreamSettings {
        let default = ManagerConfig::default();
        let manager = ManagerConfig {
            // the storm runs on a one-core grant, so its frames do not
            // stripe across the host's cores and a preempted core does
            // not stall every full-service frame
            cores: if self.storm { 1 } else { default.cores },
            // both closed loops exercise the predictor's write path
            selection: SelectionConfig {
                enabled: true,
                ..Default::default()
            },
            ..default
        };
        let recovery = RecoveryPolicy {
            drift_threshold: Some(0.5),
            ..Default::default()
        };
        StreamSettings { manager, recovery }
    }

    fn app(&self, seed: u64) -> AppConfig {
        AppConfig {
            scenario_script: self
                .storm
                .then(|| storm_script(sub_seed(seed, 3), STORM_SCRIPT_FRAMES)),
            ..Default::default()
        }
    }
}

/// Runs one closed-loop workload.
pub fn run(
    p: &ClosedParams,
    seed: u64,
    seconds: f64,
    traced: bool,
    progress: &Progress,
) -> RunResult {
    // inputs: rendered before anything is timed
    let mut cfgs = vec![dynamic_sequence(p.size, p.train_frames, sub_seed(seed, 1))];
    cfgs.extend((0..p.sequences).map(|s| timed_sequence(p, seed, s)));
    let mut rendered = render_all(cfgs, 2, progress);
    let synth_ms: Vec<f64> = rendered.iter().flat_map(|r| r.synth_ms.clone()).collect();
    let train = rendered.remove(0).frames;
    let frames = Playback {
        sequences: rendered.into_iter().map(|r| r.frames).collect(),
    };
    let app = p.app(seed);
    let settings = p.settings();
    let rss = RssSampler::start();

    let build = |model: &TripleC| {
        let spec = StreamSpec::builder(timed_sequence(p, seed, 0), app.clone(), model.clone())
            .manager_cfg(settings.manager)
            .recovery(settings.recovery)
            .build();
        StreamEngine::new(0, spec, settings.manager.cores)
    };

    // set-up: profile run + training + engine construction, repeated
    let mut setup_s = Vec::with_capacity(p.setups);
    let mut prepared = None;
    for _ in 0..p.setups.max(1) {
        let t = Instant::now();
        let model = ladder::train(&train, p.size, true, progress);
        let engine = build(&model);
        setup_s.push(t.elapsed().as_secs_f64());
        prepared = Some((model, engine));
    }
    let (model, engine) = prepared.expect("at least one set-up");

    // timed stretches, each followed by the serial pass over its frames
    let max_frames = if p.storm {
        STORM_SCRIPT_FRAMES
    } else {
        usize::MAX
    };
    let mut hand =
        traced.then(|| HandDriven::new(build(&model), model, settings, &app, frames.dims()));
    let mut stepper = EngineLoop::new(engine, traced, Some(rss), p.min_frames, max_frames);
    let mut serial = SerialPass::new((p.size, p.size), &app);
    let mut reference = Vec::new();
    stepper.run_until(
        &frames,
        seconds,
        if traced { 0 } else { p.min_frames },
        progress,
        hand.as_mut(),
        |stepped| {
            for k in stepped {
                reference.push(serial.digest(k, frames.frame(k)));
                progress.beat();
            }
        },
    );
    let engine_run = stepper.finish();
    let manual = hand.map(HandDriven::finish);
    let peak_rss_mb = engine_run.peak_rss_bytes as f64 / 1e6;

    // output check against the serial pass over the same frames
    let result = &engine_run.result;
    let executed = result.trace.len();
    let got: Vec<u64> = result.displays.iter().map(|d| digest(d.as_ref())).collect();
    let mut bad = mismatches(&got, &reference[..executed]);
    let mut notes = vec![format!(
        "check {}: {} of {} engine displays equal the serial pass",
        p.name,
        executed - bad.min(executed),
        executed
    )];
    if let Some(m) = &manual {
        for (what, digests) in [
            ("untraced", &m.untraced_digests),
            ("hand-driven", &m.digests),
        ] {
            let n = digests.len();
            let wrong = mismatches(digests, &reference[..n]);
            notes.push(format!(
                "check {}: {} of {} {what} displays equal the serial pass",
                p.name,
                n - wrong.min(n),
                n
            ));
            bad += wrong;
        }
    }

    // the hand-driven loop has no failure path: every frame it offers
    // returns an output
    let (twin_steps, twin_done, manual_frames) = manual.as_ref().map_or((0, 0, 0), |m| {
        (
            m.untraced_step_ms.len(),
            m.untraced_digests.len(),
            m.digests.len(),
        )
    });
    let attempted = (engine_run.step_ms.len() + twin_steps + manual_frames) as u64;
    let failed = attempted - (executed + twin_done + manual_frames) as u64;
    let mut metrics = Vec::new();
    if let Some(m) = &manual {
        let mut layers = Layers {
            synth_ms,
            failed_ratio: failed as f64 / attempted.max(1) as f64,
            retained_display_mb: retained_display_mb([result]),
            ..Default::default()
        };
        (layers.pred_accuracy, layers.p95_coverage) = model_quality([result]);
        (layers.stripes_mean, layers.modelled_over_wall) = stripes_and_modelled_share([result]);
        layers.from_ladder(&engine_run, m);
        layers.set_families(&m.records.iter().collect::<Vec<_>>());
        notes.extend(where_time_goes(&[
            (layers.frame_attribution(&m.records), "ms"),
            (layers.stream_attribution(m), "ms"),
        ]));
        metrics = layers.metrics();
    } else {
        let step_ms = &engine_run.step_ms;
        let modelled = result.trace.latencies();
        metrics.extend([
            Metric::interquartile_mean("frame_ms_iqm", "ms", Clock::Wall, step_ms),
            Metric::tail("frame_ms_p99", "ms", Clock::Wall, step_ms, 0.99),
            Metric::single(
                "frames_per_s",
                "1/s",
                Clock::Wall,
                executed as f64 / engine_run.wall_s,
            ),
            Metric::interquartile_mean("modelled_ms_iqm", "ms", Clock::Modelled, &modelled),
            Metric::single("peak_rss_mb", "MB", Clock::None, peak_rss_mb),
            Metric::median("setup_s", "s", Clock::Wall, &setup_s),
        ]);
    }
    RunResult {
        workload: p.name,
        seed,
        traced,
        correct: bad == 0 && failed == 0,
        attempted,
        failed,
        metrics,
        notes,
    }
}

/// Timed sequence `s` of a run (its own sub-seed, so its own tree).
fn timed_sequence(p: &ClosedParams, seed: u64, s: usize) -> SequenceConfig {
    dynamic_sequence(p.size, p.timed_frames, sub_seed(seed, 2 + 16 * s as u64))
}
