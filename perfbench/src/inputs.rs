//! Benchmark inputs: seeded sequence configurations, frames rendered
//! before any timing starts, ping-pong playback order and the storm
//! scenario script.

use crate::watchdog::Progress;
use std::time::Instant;
use triple_c::imaging::image::ImageU16;
use triple_c::triplec::scenario::{ScenarioScript, ScriptSegment};
use triple_c::xray::{HiddenEpisode, NoiseConfig, PhantomConfig, ScenarioConfig};
use triple_c::xray::{SequenceConfig, SequenceGenerator};

/// SplitMix64: the benchmark's own deterministic generator, so inputs
/// depend on `--seed` alone.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// Derives an independent sub-seed for one input stream of a run (the
/// training sequence and each timed sequence get distinct tags).
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    SplitMix::new(seed ^ tag.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// A dynamic angiography sequence: a dense vessel tree that shows only
/// during two contrast boluses (the RDG switch turns on), both inside
/// `frames` so ping-pong playback keeps them. Between boluses the
/// frames hold the device, background and noise only. The tree is
/// dense, the contrast scripted and the noise moderate so that the
/// scenario mix, and with it the work per frame, follows the episode
/// script rather than the seed: at 128² to 1024² the structure probe
/// stays below the RDG threshold between boluses and above the
/// fine-scale threshold during them. There is no table pan: its offset
/// persists against the registration reference, inflates every later
/// tracking ROI and made the cost of the second bolus depend on the
/// seed.
pub fn dynamic_sequence(size: usize, frames: usize, seed: u64) -> SequenceConfig {
    SequenceConfig {
        width: size,
        height: size,
        frames,
        seed,
        phantom: PhantomConfig {
            branches: 12,
            ..Default::default()
        },
        noise: NoiseConfig {
            quantum_scale: 0.8,
            ..Default::default()
        },
        scenario: ScenarioConfig {
            base_contrast: 0.0,
            drift_amp: 0.0,
            ar_std: 0.0,
            bolus: vec![
                HiddenEpisode {
                    start: frames / 6,
                    len: (frames / 8).max(1),
                },
                HiddenEpisode {
                    start: 2 * frames / 3,
                    len: (frames / 8).max(1),
                },
            ],
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Frames rendered ahead of timing, with the synthesis cost per frame.
pub struct Rendered {
    pub frames: Vec<ImageU16>,
    pub synth_ms: Vec<f64>,
}

/// Renders every configured sequence, spreading them over `threads`
/// host threads (synthesis is sequential within a sequence). Every
/// rendered frame is a heartbeat.
pub fn render_all(cfgs: Vec<SequenceConfig>, threads: usize, progress: &Progress) -> Vec<Rendered> {
    let threads = threads.clamp(1, cfgs.len().max(1));
    let mut slots: Vec<Option<Rendered>> = (0..cfgs.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let chunks: Vec<Vec<(usize, SequenceConfig)>> = (0..threads)
            .map(|t| {
                cfgs.iter()
                    .cloned()
                    .enumerate()
                    .filter(|(i, _)| i % threads == t)
                    .collect()
            })
            .collect();
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .into_iter()
                        .map(|(i, cfg)| (i, render(cfg, progress)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("render thread") {
                slots[i] = Some(r);
            }
        }
    });
    slots.into_iter().map(|r| r.expect("rendered")).collect()
}

fn render(cfg: SequenceConfig, progress: &Progress) -> Rendered {
    let mut frames = Vec::with_capacity(cfg.frames);
    let mut synth_ms = Vec::with_capacity(cfg.frames);
    let mut gen = SequenceGenerator::new(cfg);
    loop {
        let t = Instant::now();
        let Some(f) = gen.next() else { break };
        synth_ms.push(t.elapsed().as_secs_f64() * 1e3);
        frames.push(f.image);
        progress.beat();
    }
    Rendered { frames, synth_ms }
}

/// Ping-pong playback: frame `k` of an endless stream shows rendered
/// frame `pingpong(k, n)`, running 0, 1, .., n-1, n-2, .., 1, 0, 1, ..
/// so consecutive frames are always neighbours in the sequence.
pub fn pingpong(k: usize, n: usize) -> usize {
    assert!(n > 0, "no frames to play");
    if n == 1 {
        return 0;
    }
    let period = 2 * (n - 1);
    let j = k % period;
    if j < n {
        j
    } else {
        period - j
    }
}

/// Endless playback of pre-rendered sequences of equal length: each
/// sequence plays one ping-pong period, then the next one takes over
/// at its first frame. The device sits at the same place in every
/// sequence, so tracking carries across the switch; the vessel trees
/// differ, which averages the tree-dependent work of a run over all
/// sequences instead of one.
#[derive(Debug, Clone)]
pub struct Playback {
    pub sequences: Vec<Vec<ImageU16>>,
}

impl Playback {
    /// The sequence and frame shown at stream frame `k`.
    pub fn index(&self, k: usize) -> (usize, usize) {
        let n = self.sequences[0].len();
        let period = if n == 1 { 1 } else { 2 * (n - 1) };
        ((k / period) % self.sequences.len(), pingpong(k % period, n))
    }

    /// The frame shown at stream frame `k`.
    pub fn frame(&self, k: usize) -> &ImageU16 {
        let (s, i) = self.index(k);
        &self.sequences[s][i]
    }

    /// Frame dimensions.
    pub fn dims(&self) -> (usize, usize) {
        self.sequences[0][0].dims()
    }
}

/// A scenario storm: alternates full service (7), held for 2..=4
/// frames, and idle (0), held for 1..=3 frames, covering `frames`
/// frames. Full service fills about 60 % of the frames, so the median
/// frame lies inside one population instead of on the edge between
/// two. The storm opens with full service, so the budget the first
/// frame sets is the same kind of frame on every seed.
pub fn storm_script(seed: u64, frames: usize) -> ScenarioScript {
    let mut rng = SplitMix::new(seed);
    let mut segments = Vec::new();
    let mut covered = 0;
    let mut scenario = 7;
    while covered < frames {
        let (lo, hi) = if scenario == 7 { (2, 4) } else { (1, 3) };
        let len = rng.range(lo, hi).min(frames - covered);
        segments.push(ScriptSegment {
            scenario,
            frames: len,
        });
        covered += len;
        scenario = 7 - scenario;
    }
    ScenarioScript::new(segments)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pingpong_runs_forward_then_backward() {
        let order: Vec<usize> = (0..10).map(|k| pingpong(k, 4)).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 2, 1, 0, 1, 2, 3]);
        assert!((0..5).all(|k| pingpong(k, 1) == 0));
        assert_eq!(pingpong(2, 2), 0);
    }

    #[test]
    fn pingpong_motion_is_continuous_across_the_wrap() {
        for n in 2..9 {
            for k in 0..5 * n {
                let (a, b) = (pingpong(k, n), pingpong(k + 1, n));
                assert_eq!(a.abs_diff(b), 1, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn playback_cycles_sequences_one_pingpong_period_each() {
        let seq = |s: u16| {
            (0..3).map(move |i| {
                let mut img = ImageU16::new(1, 1);
                img.set(0, 0, s * 10 + i);
                img
            })
        };
        let p = Playback {
            sequences: vec![seq(0).collect(), seq(1).collect()],
        };
        let shown: Vec<u16> = (0..10).map(|k| p.frame(k).get(0, 0)).collect();
        assert_eq!(shown, vec![0, 1, 2, 1, 10, 11, 12, 11, 0, 1]);
        assert_eq!(p.index(4), (1, 0));
        let single = Playback {
            sequences: vec![seq(0).collect()],
        };
        assert!((0..12).all(|k| single.index(k) == (0, pingpong(k, 3))));
    }

    #[test]
    fn storm_thrashes_idle_and_full_service() {
        let s = storm_script(7, 400);
        assert_eq!(s.len_frames(), 400);
        let segs = s.segments();
        assert!(segs.iter().all(|g| g.scenario == 0 || g.scenario == 7));
        assert!(segs.iter().all(|g| (1..=4).contains(&g.frames)));
        assert!(segs.windows(2).all(|w| w[0].scenario != w[1].scenario));
        assert_eq!(segs[0].scenario, 7);
        let full: usize = segs
            .iter()
            .filter(|g| g.scenario == 7)
            .map(|g| g.frames)
            .sum();
        assert!(
            (200..280).contains(&full),
            "{full} of 400 frames at full service"
        );
        assert_eq!(storm_script(7, 400), s);
        assert_ne!(storm_script(8, 400), s);
    }

    #[test]
    fn sub_seeds_differ_per_tag() {
        assert_ne!(sub_seed(1, 1), sub_seed(1, 2));
        assert_eq!(sub_seed(5, 3), sub_seed(5, 3));
    }
}
