//! Stall watchdog: ends a run that stops making progress instead of
//! letting it hang.
//!
//! The driving loop counts frames it offers and frames whose result it
//! has seen; every count is a heartbeat. When no heartbeat arrives for
//! the timeout, the watchdog hands the counts to its stall handler (the
//! command-line handler prints a failed result and exits non-zero).
//!
//! The defect this guards against: with a single producer and
//! `BackpressurePolicy::Block`, the service deadlocks once streams
//! outnumber admission slots. A worker blocks in `FrameQueue::pop`
//! before it re-checks its time slice, while the producer blocks on a
//! parked stream's full queue.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Frames offered to the system and frames whose result was seen.
#[derive(Debug, Default)]
pub struct Progress {
    offered: AtomicU64,
    done: AtomicU64,
    beats: AtomicU64,
}

impl Progress {
    pub fn offer(&self, n: u64) {
        self.offered.fetch_add(n, Ordering::Relaxed);
        self.beat();
    }

    pub fn complete(&self, n: u64) {
        self.done.fetch_add(n, Ordering::Relaxed);
        self.beat();
    }

    /// Progress that is neither an offer nor a result (a reference
    /// pass, a setup step).
    pub fn beat(&self) {
        self.beats.fetch_add(1, Ordering::Relaxed);
    }

    pub fn offered(&self) -> u64 {
        self.offered.load(Ordering::Relaxed)
    }

    /// Frames offered whose result has not been seen.
    pub fn unfinished(&self) -> u64 {
        self.offered()
            .saturating_sub(self.done.load(Ordering::Relaxed))
    }
}

/// Watches a [`Progress`] from a helper thread.
pub struct Watchdog {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Watchdog {
    /// Starts watching. `on_stall` runs once, on the watchdog thread,
    /// when `progress` has not moved for `timeout`.
    pub fn start(
        progress: Arc<Progress>,
        timeout: Duration,
        on_stall: impl FnOnce(&Progress) + Send + 'static,
    ) -> Watchdog {
        let stop = Arc::new(AtomicBool::new(false));
        let halt = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut seen = progress.beats.load(Ordering::Relaxed);
            let mut since = Instant::now();
            while !halt.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(20));
                let now = progress.beats.load(Ordering::Relaxed);
                if now != seen {
                    seen = now;
                    since = Instant::now();
                } else if since.elapsed() >= timeout {
                    on_stall(&progress);
                    return;
                }
            }
        });
        Watchdog {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops watching and joins the helper thread.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.halt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn fires_when_progress_stops_and_reports_unfinished_frames() {
        let progress = Arc::new(Progress::default());
        let (tx, rx) = mpsc::channel();
        let dog = Watchdog::start(
            Arc::clone(&progress),
            Duration::from_millis(100),
            move |p| {
                tx.send(p.unfinished()).unwrap();
            },
        );
        progress.offer(5);
        progress.complete(3);
        let unfinished = rx.recv_timeout(Duration::from_secs(5)).expect("stall seen");
        assert_eq!(unfinished, 2);
        dog.stop();
    }

    #[test]
    fn stays_quiet_while_heartbeats_arrive() {
        let progress = Arc::new(Progress::default());
        let (tx, rx) = mpsc::channel::<()>();
        let dog = Watchdog::start(
            Arc::clone(&progress),
            Duration::from_millis(200),
            move |_| {
                tx.send(()).unwrap();
            },
        );
        for _ in 0..20 {
            progress.offer(1);
            progress.complete(1);
            std::thread::sleep(Duration::from_millis(20));
        }
        dog.stop();
        assert!(rx.try_recv().is_err());
    }
}
