//! Output checks: every display a run produced must equal the display of
//! a serial `process_frame` pass over the same frames (the repository's
//! striped == serial invariant).

use triple_c::imaging::image::ImageU16;
use triple_c::pipeline::app::{AppConfig, AppState};
use triple_c::pipeline::executor::{process_frame, ExecutionPolicy};

/// FNV-1a over the display's dimensions and pixels; `None` (no display
/// this frame) digests to 0.
pub fn digest(display: Option<&ImageU16>) -> u64 {
    let Some(img) = display else { return 0 };
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let (w, ht) = img.dims();
    for v in [w as u64, ht as u64]
        .into_iter()
        .chain(img.as_slice().iter().map(|&p| p as u64))
    {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h | 1
}

/// A serial `process_frame` pass with its own pipeline state, fed a
/// frame at a time, so a run can check its displays in pieces between
/// its timed stretches.
pub struct SerialPass {
    state: AppState,
    app: AppConfig,
    policy: ExecutionPolicy,
}

impl SerialPass {
    pub fn new(size: (usize, usize), app: &AppConfig) -> SerialPass {
        SerialPass {
            state: AppState::new(size.0, size.1),
            app: app.clone(),
            policy: ExecutionPolicy::default(),
        }
    }

    /// Display digest of stream frame `index`, the next frame of the pass.
    pub fn digest(&mut self, index: usize, frame: &ImageU16) -> u64 {
        let out = process_frame(index, frame, &mut self.state, &self.app, &self.policy);
        digest(out.display.as_ref())
    }
}

/// Display digests of a serial pass over `(index, frame)` pairs, in
/// order, with fresh pipeline state. `beat` runs after every frame.
pub fn serial_digests<'a>(
    frames: impl IntoIterator<Item = (usize, &'a ImageU16)>,
    size: (usize, usize),
    app: &AppConfig,
    mut beat: impl FnMut(),
) -> Vec<u64> {
    let mut pass = SerialPass::new(size, app);
    frames
        .into_iter()
        .map(|(index, frame)| {
            let d = pass.digest(index, frame);
            beat();
            d
        })
        .collect()
}

/// Number of positions where `got` differs from `want` (a length
/// mismatch counts every missing position).
pub fn mismatches(got: &[u64], want: &[u64]) -> usize {
    let common = got.iter().zip(want).filter(|(a, b)| a != b).count();
    common + got.len().abs_diff(want.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_separates_pixels_shapes_and_absence() {
        let a = ImageU16::new(4, 2);
        let b = ImageU16::new(2, 4);
        let mut c = ImageU16::new(4, 2);
        c.set(1, 1, 7);
        assert_ne!(digest(Some(&a)), digest(Some(&b)));
        assert_ne!(digest(Some(&a)), digest(Some(&c)));
        assert_ne!(digest(Some(&a)), digest(None));
        assert_eq!(digest(Some(&a)), digest(Some(&a.clone())));
    }

    #[test]
    fn mismatches_counts_length_differences() {
        assert_eq!(mismatches(&[1, 2, 3], &[1, 2, 3]), 0);
        assert_eq!(mismatches(&[1, 9, 3], &[1, 2, 3]), 1);
        assert_eq!(mismatches(&[1, 2], &[1, 2, 3]), 1);
    }
}
