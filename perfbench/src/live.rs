//! `live16x128`: sixteen 128² streams fed through `ServiceCore::spawn`
//! by one open-loop generator thread, staggered at 100 fps per stream,
//! above the service's capacity.

use crate::check::{digest, mismatches, serial_digests, SerialPass};
use crate::host::RssSampler;
use crate::inputs::{dynamic_sequence, render_all, sub_seed, Playback};
use crate::ladder::{self, EngineLoop, EngineRun, HandDriven, ManualRun, StreamSettings};
use crate::layers::{
    model_quality, retained_display_mb, stripes_and_modelled_share, where_time_goes, Layers,
};
use crate::report::{Clock, Metric, RunResult};
use crate::stats::Attribution;
use crate::watchdog::Progress;
use std::time::{Duration, Instant};
use triple_c::imaging::image::ImageU16;
use triple_c::pipeline::app::AppConfig;
use triple_c::platform::metrics::Observability;
use triple_c::runtime::service::SubmitOutcome;
use triple_c::runtime::{
    predict_demand, BackpressurePolicy, EvictionPolicy, ManagerConfig, RecoveryPolicy,
    ServiceConfig, ServiceCore, ServiceHandle, ServiceReport, StreamEngine, StreamResult,
    StreamSpec,
};
use triple_c::xray::SequenceConfig;

/// Sizes of the live workload.
#[derive(Debug, Clone, Copy)]
pub struct LiveParams {
    pub size: usize,
    pub streams: usize,
    /// Offered rate per stream, frames per second.
    pub fps_per_stream: f64,
    pub train_frames: usize,
    /// Distinct frames rendered per stream for ping-pong playback.
    pub stream_frames: usize,
    /// Service rounds per run, each with its own set-up and an equal
    /// share of the run's seconds; `frames_per_s` and `setup_s` are
    /// their medians.
    pub rounds: usize,
    /// Seconds of the lone stream over every stream's frames.
    pub ladder_seconds: f64,
    /// Lone-stream frames an untraced run makes at least (p99 needs
    /// 1000).
    pub ladder_min_frames: usize,
}

impl LiveParams {
    pub const LIVE16X128: LiveParams = LiveParams {
        size: 128,
        streams: 16,
        fps_per_stream: 100.0,
        train_frames: 48,
        stream_frames: 32,
        rounds: 5,
        ladder_seconds: 10.0,
        ladder_min_frames: 1000,
    };

    /// Stream `s`'s input sequence (its own sub-seed, so its own tree).
    fn stream_sequence(&self, seed: u64, s: usize) -> SequenceConfig {
        dynamic_sequence(
            self.size,
            self.stream_frames,
            sub_seed(seed, 100 + s as u64),
        )
    }

    fn service(&self) -> ServiceConfig {
        ServiceConfig {
            total_cores: 8,
            queue_capacity: 4,
            backpressure: BackpressurePolicy::DropOldest,
            eviction: EvictionPolicy::TimeSlice { frames: 5 },
            max_concurrent: 8,
            ..Default::default()
        }
    }
}

/// Runs the live workload.
pub fn run(
    p: &LiveParams,
    seed: u64,
    seconds: f64,
    traced: bool,
    progress: &Progress,
) -> RunResult {
    let mut cfgs = vec![dynamic_sequence(p.size, p.train_frames, sub_seed(seed, 1))];
    cfgs.extend((0..p.streams).map(|s| p.stream_sequence(seed, s)));
    let mut rendered = render_all(cfgs, 2, progress);
    let synth_ms: Vec<f64> = rendered.iter().flat_map(|r| r.synth_ms.clone()).collect();
    let train = rendered.remove(0).frames;
    let streams: Vec<Playback> = rendered
        .into_iter()
        .map(|r| Playback {
            sequences: vec![r.frames],
        })
        .collect();
    let app = AppConfig::default();
    let mut notes = Vec::new();

    let mut lone = Lone::new(p, seed, &streams, &train, &app, traced, progress);
    let mut ok = true;

    // rounds, each a piece of the lone stream, then a service set-up
    // (training a frozen model + service construction) and an open loop
    // of `seconds / rounds`
    let obs = traced.then(Observability::new);
    let rounds = p.rounds.max(1);
    let mut setup_s = Vec::with_capacity(rounds);
    let mut done = Vec::with_capacity(rounds);
    for round in 1..=rounds {
        lone.run_until(p.ladder_seconds * round as f64 / rounds as f64, progress);
        let t = Instant::now();
        let model = ladder::train(&train, p.size, false, progress);
        let specs: Vec<StreamSpec> = (0..p.streams)
            .map(|s| {
                StreamSpec::builder(p.stream_sequence(seed, s), app.clone(), model.clone()).build()
            })
            .collect();
        let mut core = ServiceCore::new(p.service());
        if let Some(o) = &obs {
            core = core.with_observability(o.clone());
        }
        let handle = core.spawn(specs);
        setup_s.push(t.elapsed().as_secs_f64());
        let mut round = open_loop(p, handle, &streams, seconds / rounds as f64, progress);
        ok &= check_round(p, &round, &streams, &app, progress, &mut notes);
        // the service keeps every display until `finish`; once checked
        // they are not needed, and a later round must not inherit them
        round.retained_mb = retained_display_mb(&round.report.session.streams);
        for r in &mut round.report.session.streams {
            r.displays = Vec::new();
        }
        done.push(round);
    }

    let lone = lone.finish();
    notes.push(format!(
        "check live16x128 lone stream: {} of {} displays differ from the serial pass",
        lone.bad, lone.checked
    ));
    ok &= lone.bad == 0;

    let offered: usize = done.iter().map(|r| r.offered.iter().sum::<usize>()).sum();
    let executed: usize = done.iter().map(|r| r.executed).sum();
    let dropped: usize = done.iter().map(|r| r.dropped()).sum();
    let attempted = offered + lone.attempted;
    let unanswered = attempted - executed - lone.done;
    // the offered rate exceeds capacity, so drop-oldest ingress sheds
    // frames by design: `failed_ratio` counts them, the result's
    // `failed` counts only frames lost otherwise
    let failed = (unanswered - dropped) as u64;
    let frames_per_s: Vec<f64> = done.iter().map(|r| r.executed as f64 / r.wall_s).collect();
    let metrics = if let Some(manual) = &lone.manual {
        let results: Vec<&StreamResult> = done
            .iter()
            .flat_map(|r| r.report.session.streams.iter())
            .collect();
        let exec_ms: Vec<f64> = results
            .iter()
            .flat_map(|r| r.frame_wall_ms.iter().copied())
            .collect();
        let mut layers = Layers {
            synth_ms,
            retained_display_mb: done.iter().map(|r| r.retained_mb).fold(0.0, f64::max),
            submit_ms: done.iter().flat_map(|r| r.submit_ms.clone()).collect(),
            gen_lag_ms: done.iter().flat_map(|r| r.gen_lag_ms.clone()).collect(),
            admission_wait_ms: obs
                .as_ref()
                .map(|o| {
                    o.spans()
                        .records()
                        .iter()
                        .filter(|r| r.name == "admitted")
                        .flat_map(|r| r.args.iter().filter(|(k, _)| *k == "queued_ms"))
                        .map(|(_, v)| *v)
                        .collect()
                })
                .unwrap_or_default(),
            evictions_per_kframe: done
                .iter()
                .flat_map(|r| r.report.streams.iter())
                .map(|s| s.evictions)
                .sum::<usize>() as f64
                * 1000.0
                / executed.max(1) as f64,
            dropped_frames: dropped as f64,
            exec_ms: exec_ms.clone(),
            failed_ratio: unanswered as f64 / attempted.max(1) as f64,
            ..Default::default()
        };
        (layers.pred_accuracy, layers.p95_coverage) = model_quality(results.iter().copied());
        (layers.stripes_mean, layers.modelled_over_wall) =
            stripes_and_modelled_share(results.iter().copied());
        layers.set_families(
            &results
                .iter()
                .flat_map(|r| r.trace.records())
                .collect::<Vec<_>>(),
        );
        notes.push(format!(
            "service workers: step wall {:.1} ms in {:.1} ms of run wall on {} host cores \
             (step wall includes time a worker waits for a core)",
            exec_ms.iter().sum::<f64>(),
            done.iter().map(|r| r.wall_s).sum::<f64>() * 1e3,
            crate::host::host_cores()
        ));
        let service = Attribution::new(
            "service",
            "frames offered",
            offered as f64,
            vec![
                ("executed", executed as f64),
                ("dropped at ingress", dropped as f64),
            ],
        );
        layers.from_ladder(&lone.run, manual);
        notes.extend(where_time_goes(&[
            (service, "frames"),
            (layers.frame_attribution(&manual.records), "ms"),
            (layers.stream_attribution(manual), "ms"),
        ]));
        layers.metrics()
    } else {
        let step_ms = &lone.run.step_ms;
        let modelled = lone.run.result.trace.latencies();
        vec![
            Metric::interquartile_mean("frame_ms_iqm", "ms", Clock::Wall, step_ms),
            Metric::tail("frame_ms_p99", "ms", Clock::Wall, step_ms, 0.99),
            Metric::median("frames_per_s", "1/s", Clock::Wall, &frames_per_s),
            Metric::interquartile_mean("modelled_ms_iqm", "ms", Clock::Modelled, &modelled),
            Metric::single(
                "peak_rss_mb",
                "MB",
                Clock::None,
                lone.run.peak_rss_bytes as f64 / 1e6,
            ),
            Metric::median("setup_s", "s", Clock::Wall, &setup_s),
        ]
    };
    RunResult {
        workload: "live16x128",
        seed,
        traced,
        correct: ok && failed == 0,
        attempted: attempted as u64,
        failed,
        metrics,
        notes,
    }
}

/// One service round: its report and what the generator saw.
struct Round {
    report: ServiceReport,
    /// Frames offered per stream.
    offered: Vec<usize>,
    /// Submits the service refused.
    rejected: usize,
    executed: usize,
    submit_ms: Vec<f64>,
    gen_lag_ms: Vec<f64>,
    /// From the first submit to `finish` returning, s.
    wall_s: f64,
    retained_mb: f64,
}

impl Round {
    fn dropped(&self) -> usize {
        self.report.streams.iter().map(|s| s.queue.dropped).sum()
    }
}

/// Offers frames to `handle` for `seconds` in an open loop: event i
/// goes to stream i % S, due at i / (S * fps); then finishes the
/// service.
fn open_loop(
    p: &LiveParams,
    handle: ServiceHandle,
    streams: &[Playback],
    seconds: f64,
    progress: &Progress,
) -> Round {
    let rate = p.fps_per_stream * p.streams as f64;
    let events = (seconds * rate).round() as usize;
    let mut offered = vec![0usize; p.streams];
    let mut rejected = 0usize;
    let mut submit_ms = Vec::with_capacity(events);
    let mut gen_lag_ms = Vec::with_capacity(events);
    let t0 = Instant::now();
    for i in 0..events {
        let due = Duration::from_secs_f64(i as f64 / rate);
        let now = t0.elapsed();
        if due > now {
            std::thread::sleep(due - now);
        }
        let (s, k) = (i % p.streams, i / p.streams);
        let image = streams[s].frame(k).clone();
        let ts = Instant::now();
        gen_lag_ms.push((ts - t0).saturating_sub(due).as_secs_f64() * 1e3);
        let outcome = handle.submit(s as u32, k, image);
        submit_ms.push(ts.elapsed().as_secs_f64() * 1e3);
        progress.offer(1);
        offered[s] += 1;
        if !matches!(
            outcome,
            SubmitOutcome::Accepted | SubmitOutcome::DroppedOldest
        ) {
            rejected += 1;
        }
    }
    let report = handle.finish();
    let wall_s = t0.elapsed().as_secs_f64();
    let executed: usize = report.session.streams.iter().map(|r| r.trace.len()).sum();
    progress.complete(executed as u64);
    Round {
        report,
        offered,
        rejected,
        executed,
        submit_ms,
        gen_lag_ms,
        wall_s,
        retained_mb: 0.0,
    }
}

/// Checks a round: no submit refused, every stream ends exactly once,
/// executed + dropped == offered, and every display equals a serial
/// pass over the frames the stream executed.
fn check_round(
    p: &LiveParams,
    round: &Round,
    streams: &[Playback],
    app: &AppConfig,
    progress: &Progress,
    notes: &mut Vec<String>,
) -> bool {
    let report = &round.report;
    let mut ok = round.rejected == 0;
    for (s, &offered) in round.offered.iter().enumerate() {
        let results = report
            .session
            .streams
            .iter()
            .filter(|r| r.stream as usize == s);
        let failures = report
            .session
            .failures
            .iter()
            .filter(|f| f.stream as usize == s);
        let ends = results.count() + failures.count();
        let stats = &report.streams[s];
        let ran = report
            .session
            .streams
            .iter()
            .find(|r| r.stream as usize == s)
            .map_or(0, |r| r.trace.len());
        let balanced = ran + stats.queue.dropped == offered && stats.queue.enqueued == offered;
        if ends != 1 || !balanced {
            ok = false;
            notes.push(format!(
                "check live16x128: stream {s} ended {ends} times; offered {offered} executed {ran} dropped {}",
                stats.queue.dropped
            ));
        }
    }
    let bad_displays: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = report
            .session
            .streams
            .chunks(report.session.streams.len().div_ceil(2).max(1))
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|r| {
                            let frames = &streams[r.stream as usize];
                            let want = serial_digests(
                                r.trace
                                    .records()
                                    .iter()
                                    .map(|rec| (rec.frame, frames.frame(rec.frame))),
                                (p.size, p.size),
                                app,
                                || progress.beat(),
                            );
                            let got: Vec<u64> =
                                r.displays.iter().map(|d| digest(d.as_ref())).collect();
                            mismatches(&got, &want)
                        })
                        .sum::<usize>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("check thread"))
            .sum()
    });
    notes.push(format!(
        "check live16x128: {} streams ended once each with executed + dropped == offered: {}; \
         {} of {} displays equal the serial pass",
        p.streams,
        ok,
        round.executed - bad_displays.min(round.executed),
        round.executed
    ));
    ok && bad_displays == 0
}

/// The lone stream of a live run and the check of its displays.
struct LoneStream {
    run: EngineRun,
    manual: Option<ManualRun>,
    /// Frames offered to its loops, and frames they answered.
    attempted: usize,
    done: usize,
    /// Displays checked against the serial pass, and mismatches.
    checked: usize,
    bad: usize,
}

/// A lone `StreamEngine` (and, traced, its untraced and hand-driven
/// twins) stepping over every stream's frames in turn, one ping-pong
/// period each, with the core grant the service's admission gives a
/// stream. It steps in pieces, one before each service round, so its
/// frame times spread over the whole run. Its first piece runs at least
/// `ladder_min_frames` frames before any service round, so its memory
/// figure starts from the level reached after the inputs are rendered
/// and covers a fixed number of frames: the service keeps every display
/// until `finish`, so its own memory grows with the frames it delivers.
struct Lone {
    frames: Playback,
    stepper: EngineLoop,
    hand: Option<HandDriven>,
    serial: SerialPass,
    reference: Vec<u64>,
    min_frames: usize,
}

impl Lone {
    fn new(
        p: &LiveParams,
        seed: u64,
        streams: &[Playback],
        train: &[ImageU16],
        app: &AppConfig,
        traced: bool,
        progress: &Progress,
    ) -> Lone {
        let frames = Playback {
            sequences: streams.iter().map(|s| s.sequences[0].clone()).collect(),
        };
        let model = ladder::train(train, p.size, false, progress);
        let spec =
            || StreamSpec::builder(p.stream_sequence(seed, 0), app.clone(), model.clone()).build();
        let first = spec();
        let cores = predict_demand(&first, p.service().total_cores, first.admission).cores;
        let settings = StreamSettings {
            manager: ManagerConfig {
                cores,
                ..Default::default()
            },
            recovery: RecoveryPolicy::default(),
        };
        let min_frames = if traced { 0 } else { p.ladder_min_frames };
        let rss = RssSampler::start();
        let hand = traced.then(|| {
            let untraced = StreamEngine::new(0, spec(), cores);
            HandDriven::new(untraced, model.clone(), settings, app, frames.dims())
        });
        let engine = StreamEngine::new(0, first, cores);
        Lone {
            serial: SerialPass::new(frames.dims(), app),
            stepper: EngineLoop::new(engine, traced, Some(rss), min_frames, usize::MAX),
            frames,
            hand,
            reference: Vec::new(),
            min_frames,
        }
    }

    /// Steps until `seconds` of stepping in all, checking as it goes.
    fn run_until(&mut self, seconds: f64, progress: &Progress) {
        let (frames, serial, reference) = (&self.frames, &mut self.serial, &mut self.reference);
        self.stepper.run_until(
            frames,
            seconds,
            self.min_frames,
            progress,
            self.hand.as_mut(),
            |stepped| {
                for k in stepped {
                    reference.push(serial.digest(k, frames.frame(k)));
                    progress.beat();
                }
            },
        );
    }

    fn finish(self) -> LoneStream {
        let mut run = self.stepper.finish();
        let manual = self.hand.map(HandDriven::finish);
        let got: Vec<u64> = run
            .result
            .displays
            .iter()
            .map(|d| digest(d.as_ref()))
            .collect();
        // the displays are checked; nothing later needs them
        run.result.displays = Vec::new();
        let empty = ManualRun::default();
        let twin = manual.as_ref().unwrap_or(&empty);
        let bad = [&got, &twin.untraced_digests, &twin.digests]
            .iter()
            .map(|d| mismatches(d, &self.reference[..d.len().min(self.reference.len())]))
            .sum();
        let twin_done = twin.untraced_digests.len() + twin.digests.len();
        // the hand-driven loop has no failure path: every frame it offers
        // returns an output
        let attempted = run.step_ms.len() + twin.untraced_step_ms.len() + twin.digests.len();
        LoneStream {
            attempted,
            done: run.result.trace.len() + twin_done,
            checked: got.len() + twin_done,
            bad,
            run,
            manual,
        }
    }
}
