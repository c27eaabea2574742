//! The measurement ladder of one stream, driven through the program's
//! public entry points: model training, `StreamEngine::step` in a closed
//! loop, and the same loop taken apart into `ResourceManager::plan`,
//! `process_frame_observed`, `ResourceManager::absorb` plus a separately
//! timed `structure_probe`.

use crate::check::digest;
use crate::host::RssSampler;
use crate::inputs::Playback;
use crate::watchdog::Progress;
use std::hint::black_box;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use triple_c::imaging::image::ImageU16;
use triple_c::pipeline::app::{structure_probe, AppConfig, AppState};
use triple_c::pipeline::executor::{process_frame, process_frame_observed, ExecutionPolicy};
use triple_c::pipeline::runner::ProfileRun;
use triple_c::platform::bus::{DegradeMode, FrameEvent};
use triple_c::platform::metrics::Observability;
use triple_c::platform::trace::FrameRecord;
use triple_c::runtime::{
    ManagerConfig, RecoveryPolicy, ResourceManager, StreamEngine, StreamResult,
};
use triple_c::triplec::triple::{TripleC, TripleCConfig};
use triple_c::triplec::FrameGeometry;

/// Trains a model the way a deployment does: a serial profile run over
/// the training frames, then `TripleC::train` on its task series.
pub fn train(frames: &[ImageU16], size: usize, online: bool, progress: &Progress) -> TripleC {
    let app = AppConfig::default();
    let policy = ExecutionPolicy::default();
    let mut state = AppState::new(size, size);
    let mut profile = ProfileRun::new();
    for (i, f) in frames.iter().enumerate() {
        profile.absorb(process_frame(i, f, &mut state, &app, &policy));
        progress.beat();
    }
    let cfg = TripleCConfig {
        geometry: FrameGeometry {
            width: size,
            height: size,
        },
        ..Default::default()
    };
    let mut model = TripleC::train(&profile.task_series(), &profile.scenarios, cfg);
    model.set_online_training(online);
    model
}

/// Manager and recovery settings of a single-stream workload.
#[derive(Debug, Clone, Copy)]
pub struct StreamSettings {
    pub manager: ManagerConfig,
    pub recovery: RecoveryPolicy,
}

/// Longest stretch of stepping between two pauses of a loop, s.
pub const STRETCH_SECONDS: f64 = 1.0;

/// A closed loop of `StreamEngine::step` calls.
pub struct EngineRun {
    pub result: StreamResult,
    /// Wall time of each `step` call, ms.
    pub step_ms: Vec<f64>,
    /// Wall time spent stepping (pauses between stretches excluded), s.
    pub wall_s: f64,
    pub promotions: usize,
    pub quarantines: usize,
    /// Resident-set high-water mark above the sampler's baseline up to
    /// the loop's `rss_frames`-th frame (or the end of a shorter loop).
    pub peak_rss_bytes: u64,
}

/// A closed loop of `StreamEngine::step` over the playback, run in
/// stretches of at most [`STRETCH_SECONDS`]. Between stretches the
/// caller checks the frames just stepped, or runs other work, so a
/// run's timed frames spread over its whole wall time instead of one
/// block of it: the host's speed drifts over seconds, and a slow phase
/// then weighs on a run's figures only by its share of the run.
///
/// Traced (with a [`HandDriven`] twin), the engine carries an
/// [`Observability`] instance and a bus subscriber that counts
/// champion promotions and model quarantines, and the twin processes
/// each frame next to the engine, first on odd frames and second on
/// even ones, so both loops see the same host conditions. Untraced,
/// nothing is attached.
pub struct EngineLoop {
    engine: StreamEngine,
    step_ms: Vec<f64>,
    stepping: Duration,
    promotions: Arc<AtomicUsize>,
    quarantines: Arc<AtomicUsize>,
    rss: Option<RssSampler>,
    /// Frames after which `rss` is read out, so the memory figure
    /// covers the same work however fast the frames run.
    rss_frames: usize,
    peak_rss_bytes: u64,
    max_frames: usize,
}

impl EngineLoop {
    pub fn new(
        mut engine: StreamEngine,
        traced: bool,
        rss: Option<RssSampler>,
        rss_frames: usize,
        max_frames: usize,
    ) -> EngineLoop {
        let promotions = Arc::new(AtomicUsize::new(0));
        let quarantines = Arc::new(AtomicUsize::new(0));
        if traced {
            engine.attach_observability(&Observability::new());
            let (p, q) = (Arc::clone(&promotions), Arc::clone(&quarantines));
            engine
                .manager_mut()
                .subscribe(Box::new(move |e: &FrameEvent| match e {
                    FrameEvent::ChallengerPromoted { .. } => {
                        p.fetch_add(1, Ordering::Relaxed);
                    }
                    FrameEvent::DegradedMode {
                        mode: DegradeMode::ModelQuarantine,
                        ..
                    } => {
                        q.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {}
                }));
        }
        EngineLoop {
            engine,
            step_ms: Vec::new(),
            stepping: Duration::ZERO,
            promotions,
            quarantines,
            rss,
            rss_frames,
            peak_rss_bytes: 0,
            max_frames,
        }
    }

    /// Frames stepped so far.
    pub fn frames(&self) -> usize {
        self.step_ms.len()
    }

    /// Steps until the loop has stepped `seconds` in all and at least
    /// `min_frames` frames (at most `max_frames`), in stretches; after
    /// each stretch `pause` gets the stream frames it stepped.
    pub fn run_until(
        &mut self,
        frames: &Playback,
        seconds: f64,
        min_frames: usize,
        progress: &Progress,
        mut hand: Option<&mut HandDriven>,
        mut pause: impl FnMut(Range<usize>),
    ) {
        let total = Duration::from_secs_f64(seconds);
        let stretch = Duration::from_secs_f64(STRETCH_SECONDS);
        while self.frames() < self.max_frames
            && (self.stepping < total || self.frames() < min_frames)
        {
            let budget = total.saturating_sub(self.stepping).min(stretch);
            let budget = if budget.is_zero() { stretch } else { budget };
            let first = self.frames();
            let start = Instant::now();
            while self.frames() < self.max_frames
                && (self.frames() == first || start.elapsed() < budget)
            {
                self.step(frames, progress, hand.as_deref_mut());
            }
            self.stepping += start.elapsed();
            pause(first..self.frames());
        }
    }

    fn step(&mut self, frames: &Playback, progress: &Progress, mut hand: Option<&mut HandDriven>) {
        let k = self.frames();
        let frame = frames.frame(k);
        let twin_first = k % 2 == 1;
        if let (Some(hand), true) = (hand.as_deref_mut(), twin_first) {
            hand.frame(k, frame, progress);
        }
        progress.offer(1);
        let t = Instant::now();
        let stepped = self.engine.step(k, frame);
        self.step_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if stepped.is_ok() {
            progress.complete(1);
        }
        if let (Some(hand), false) = (hand, twin_first) {
            hand.frame(k, frame, progress);
        }
        if self.frames() == self.rss_frames {
            self.peak_rss_bytes = self.rss.take().map_or(0, RssSampler::finish);
        }
    }

    pub fn finish(mut self) -> EngineRun {
        if let Some(sampler) = self.rss.take() {
            self.peak_rss_bytes = sampler.finish();
        }
        EngineRun {
            result: self.engine.finish(),
            step_ms: self.step_ms,
            wall_s: self.stepping.as_secs_f64(),
            promotions: self.promotions.load(Ordering::Relaxed),
            quarantines: self.quarantines.load(Ordering::Relaxed),
            peak_rss_bytes: self.peak_rss_bytes,
        }
    }
}

/// The stream loop taken apart at its public entry points, next to an
/// untraced engine over the same frames.
#[derive(Default)]
pub struct ManualRun {
    /// Wall time of each `step` call of the untraced engine, ms.
    pub untraced_step_ms: Vec<f64>,
    /// Display digests of the untraced engine.
    pub untraced_digests: Vec<u64>,
    pub plan_us: Vec<f64>,
    pub process_ms: Vec<f64>,
    pub absorb_us: Vec<f64>,
    /// `structure_probe` timed on its own over the same frame (the call
    /// inside `process_frame` is not timed by the program).
    pub probe_ms: Vec<f64>,
    pub records: Vec<FrameRecord>,
    pub digests: Vec<u64>,
    /// Pool storage after the loop, bytes.
    pub pool_bytes: usize,
    /// Pool allocations after the first `WARMUP_FRAMES` frames.
    pub warm_allocs: usize,
}

/// Frames after which pools count as warm.
pub const WARMUP_FRAMES: usize = 16;

fn pool_allocations(s: &AppState) -> usize {
    s.rdg_bufs.allocations() + s.par_rdg.allocations() + s.par_gw.allocations()
}

fn pool_bytes(s: &AppState) -> usize {
    s.rdg_bufs.byte_size()
        + s.par_rdg.byte_size()
        + s.par_gw.byte_size()
        + s.mkx_bufs.byte_size()
        + s.enh_state.byte_size()
        + s.gw_scratch.byte_size()
        + s.zoom_scratch.byte_size()
}

/// The twin of a traced engine: an untraced `StreamEngine` (nothing
/// attached) and the plan → process → absorb loop driven by hand on its
/// own manager and pipeline state, each entry point timed.
pub struct HandDriven {
    untraced: StreamEngine,
    manager: ResourceManager,
    state: AppState,
    app: AppConfig,
    run: ManualRun,
    warm: Option<usize>,
}

impl HandDriven {
    /// `untraced` is built like the traced engine it runs next to.
    pub fn new(
        untraced: StreamEngine,
        model: TripleC,
        settings: StreamSettings,
        app: &AppConfig,
        dims: (usize, usize),
    ) -> Self {
        HandDriven {
            untraced,
            manager: ResourceManager::for_stream(model, settings.manager, 0),
            state: AppState::new(dims.0, dims.1),
            app: app.clone(),
            run: ManualRun::default(),
            warm: None,
        }
    }

    /// Processes stream frame `k` on the untraced engine, then by hand.
    pub fn frame(&mut self, k: usize, frame: &ImageU16, progress: &Progress) {
        progress.offer(1);
        let t = Instant::now();
        let stepped = self.untraced.step(k, frame);
        self.run
            .untraced_step_ms
            .push(t.elapsed().as_secs_f64() * 1e3);
        if stepped.is_ok() {
            progress.complete(1);
        }
        let (w, h) = frame.dims();
        progress.offer(1);
        let roi_kpixels = self
            .state
            .current_roi
            .map_or((w * h) as f64 / 1000.0, |r| r.area() as f64 / 1000.0);
        let t0 = Instant::now();
        let plan = self.manager.plan(roi_kpixels);
        let t1 = Instant::now();
        let out = process_frame_observed(
            k,
            frame,
            &mut self.state,
            &self.app,
            &plan.policy,
            0,
            self.manager.bus_mut(),
        );
        let t2 = Instant::now();
        self.manager.absorb(&out);
        let t3 = Instant::now();
        black_box(structure_probe(black_box(frame), self.app.probe_block));
        let t4 = Instant::now();
        progress.complete(1);
        let run = &mut self.run;
        run.plan_us.push((t1 - t0).as_secs_f64() * 1e6);
        run.process_ms.push((t2 - t1).as_secs_f64() * 1e3);
        run.absorb_us.push((t3 - t2).as_secs_f64() * 1e6);
        run.probe_ms.push((t4 - t3).as_secs_f64() * 1e3);
        run.digests.push(digest(out.display.as_ref()));
        run.records.push(out.record);
        if run.records.len() == WARMUP_FRAMES {
            self.warm = Some(pool_allocations(&self.state));
        }
    }

    pub fn finish(mut self) -> ManualRun {
        self.run.pool_bytes = pool_bytes(&self.state);
        let now = pool_allocations(&self.state);
        self.run.warm_allocs = self.warm.map_or(0, |w0| now - w0);
        let untraced = self.untraced.finish();
        self.run.untraced_digests = untraced
            .displays
            .iter()
            .map(|d| digest(d.as_ref()))
            .collect();
        self.run
    }
}

/// Mean milliseconds per executed run of each task family, and runs.
pub fn task_family(records: &[&FrameRecord], tasks: &[&str]) -> (f64, usize) {
    let mut total = 0.0;
    let mut runs = 0;
    for r in records {
        let mut ran = false;
        for &(task, ms) in &r.task_times {
            if tasks.contains(&task) {
                total += ms;
                ran = true;
            }
        }
        runs += usize::from(ran);
    }
    (if runs == 0 { 0.0 } else { total / runs as f64 }, runs)
}

/// Task families reported by the imaging layer (RDG runs at frame or
/// ROI granularity; the remaining tasks are the small serial ones).
pub const FAMILIES: [(&str, &[&str]); 6] = [
    ("rdg", &["RDG_FULL", "RDG_ROI"]),
    ("mkx", &["MKX_EXT"]),
    ("gw", &["GW_EXT"]),
    ("enh", &["ENH"]),
    ("zoom", &["ZOOM"]),
    ("other", &["CPLS_SEL", "REG", "ROI_EST"]),
];
