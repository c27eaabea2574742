//! Host facts recorded with every result: core count, source revision
//! and resident memory.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Host cores visible to the process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out revision when the benchmark runs inside a git
/// checkout (read from `.git` without running git), else `"unknown"`.
pub fn revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.chars().take(12).collect();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().chars().take(12).collect();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .map(|l| l.chars().take(12).collect())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Current resident set size in bytes (`VmRSS`), 0 where unavailable.
pub fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// Samples the resident set every few milliseconds on a helper thread
/// and keeps the high-water mark above a baseline.
pub struct RssSampler {
    peak: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    baseline: u64,
}

impl RssSampler {
    /// Starts sampling; the baseline is the resident set right now.
    pub fn start() -> RssSampler {
        let baseline = rss_bytes();
        let peak = Arc::new(AtomicU64::new(baseline));
        let stop = Arc::new(AtomicBool::new(false));
        let (p, s) = (Arc::clone(&peak), Arc::clone(&stop));
        let handle = std::thread::spawn(move || {
            while !s.load(Ordering::Relaxed) {
                p.fetch_max(rss_bytes(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        RssSampler {
            peak,
            stop,
            handle: Some(handle),
            baseline,
        }
    }

    /// Stops sampling (after a last sample) and returns the high-water
    /// mark above the baseline, in bytes.
    pub fn finish(mut self) -> u64 {
        self.peak.fetch_max(rss_bytes(), Ordering::Relaxed);
        self.halt();
        self.peak
            .load(Ordering::Relaxed)
            .saturating_sub(self.baseline)
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for RssSampler {
    fn drop(&mut self) {
        self.halt();
    }
}
