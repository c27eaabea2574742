//! A tiny run of each workload: same code path as the benchmark, small
//! frames and a fraction of a second, asserting the run checks out and
//! reports every metric it owes.

use triplec_perfbench::closed::{self, ClosedParams};
use triplec_perfbench::ladder::STRETCH_SECONDS;
use triplec_perfbench::live::{self, LiveParams};
use triplec_perfbench::report::RunResult;
use triplec_perfbench::watchdog::Progress;

const END_TO_END: [&str; 6] = [
    "frame_ms_iqm",
    "frame_ms_p99",
    "frames_per_s",
    "modelled_ms_iqm",
    "peak_rss_mb",
    "setup_s",
];

fn tiny_closed(p: ClosedParams) -> ClosedParams {
    ClosedParams {
        size: 96,
        train_frames: 8,
        timed_frames: 8,
        min_frames: 24,
        setups: 2,
        ..p
    }
}

fn tiny_live() -> LiveParams {
    LiveParams {
        size: 96,
        streams: 3,
        fps_per_stream: 40.0,
        train_frames: 8,
        stream_frames: 6,
        rounds: 2,
        ladder_seconds: 0.2,
        ladder_min_frames: 20,
    }
}

fn assert_end_to_end(r: &RunResult) {
    assert!(r.correct, "{:?}", r.notes);
    assert!(r.attempted > 0);
    for name in END_TO_END {
        let m = r.metric(name).unwrap_or_else(|| panic!("{name} missing"));
        assert!(m.value.is_finite() && m.value > 0.0, "{name} = {}", m.value);
    }
    assert_eq!(r.metrics.len(), END_TO_END.len());
}

fn assert_traced(r: &RunResult) {
    assert!(r.correct, "{:?}", r.notes);
    assert!(r.metric("pipeline.process_ms").unwrap().value > 0.0);
    assert!(r.metric("frame_ms_iqm").is_none());
    for rung in ["attribution frame", "attribution stream"] {
        assert!(r.notes.iter().any(|n| n.starts_with(rung)), "{:?}", r.notes);
    }
    let overhead = r.metric("trace.overhead_pct").unwrap().value;
    assert!(overhead.is_finite() && overhead != 0.0, "{overhead}");
}

#[test]
fn replay_runs_and_checks_out() {
    let p = tiny_closed(ClosedParams::REPLAY1024);
    let r = closed::run(&p, 3, 0.3, false, &Progress::default());
    assert_end_to_end(&r);
    assert_eq!(r.failed, 0);
    assert!(r.attempted >= 24, "min_frames honoured");
    let t = closed::run(&p, 3, 0.3, true, &Progress::default());
    assert_traced(&t);
    assert_eq!(
        t.metric("runtime.service.dropped_frames").unwrap().value,
        0.0
    );
}

#[test]
fn closed_loop_checks_every_stretch() {
    // more than two stretches, so the serial pass of the output check
    // runs in three pieces between them and must still cover every frame
    let p = tiny_closed(ClosedParams::REPLAY1024);
    let r = closed::run(
        &p,
        6,
        2.0 * STRETCH_SECONDS + 0.2,
        false,
        &Progress::default(),
    );
    assert_end_to_end(&r);
    let n = r.attempted;
    let all = format!("{n} of {n} engine displays equal the serial pass");
    assert!(r.notes.iter().any(|l| l.ends_with(&all)), "{:?}", r.notes);
}

#[test]
fn storm_runs_and_checks_out() {
    let p = tiny_closed(ClosedParams::STORM256);
    let r = closed::run(&p, 4, 0.3, false, &Progress::default());
    assert_end_to_end(&r);
    let t = closed::run(&p, 4, 0.3, true, &Progress::default());
    assert_traced(&t);
}

#[test]
fn live_runs_and_checks_out() {
    let p = tiny_live();
    let r = live::run(&p, 5, 0.5, false, &Progress::default());
    assert_end_to_end(&r);
    // 3 streams x 40 fps x 0.5 s offered, plus the ladder's frames
    assert!(r.attempted >= 60 + 20, "{}", r.attempted);
    let t = live::run(&p, 5, 0.5, true, &Progress::default());
    assert_traced(&t);
    let service = t
        .notes
        .iter()
        .find(|n| n.starts_with("attribution service"));
    assert!(
        service.unwrap().ends_with("residual +0.0000"),
        "{service:?}"
    );
}
