//! Order statistics for the benchmark's own reporting.
//!
//! Percentiles are nearest-rank over the raw samples. A tail percentile
//! is only reported when at least [`MIN_BEYOND`] samples lie beyond it,
//! so a p99 needs at least 1000 samples.

use triple_c::platform::metrics::percentile as nearest_rank;

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `xs` (`p` in `[0, 1]`), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it (or `xs` is empty).
/// The median is always reportable for a non-empty series.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let n = xs.len();
    // the rank `nearest_rank` picks
    let rank = ((p.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || (p > 0.5 && n - rank < MIN_BEYOND) {
        return None;
    }
    Some(nearest_rank(xs, p))
}

/// Median with quartiles and sample count of one measured series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: usize,
}

impl Summary {
    /// Summarises a non-empty series (nearest-rank quartiles).
    pub fn of(xs: &[f64]) -> Summary {
        assert!(!xs.is_empty(), "summary of an empty series");
        Summary {
            median: nearest_rank(xs, 0.5),
            q1: nearest_rank(xs, 0.25),
            q3: nearest_rank(xs, 0.75),
            samples: xs.len(),
        }
    }

    /// A single value (a count or a ratio measured once per run).
    pub fn single(x: f64) -> Summary {
        Summary {
            median: x,
            q1: x,
            q3: x,
            samples: 1,
        }
    }
}

/// Arithmetic mean; 0 for an empty series.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Interquartile mean: the mean of the samples left after the lowest
/// and the highest quarter (`n / 4` samples each) are dropped; the mean
/// of a series shorter than four. Unlike the median it moves in
/// proportion when a share of the samples shifts, so on a host whose
/// speed flips between two states it follows the share of time spent in
/// each instead of jumping to whichever state held most samples.
pub fn interquartile_mean(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    mean(&sorted[cut..sorted.len() - cut])
}

/// Whole split into named parts plus a signed residual:
/// `parts + residual == whole` by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    pub rung: &'static str,
    pub whole_name: &'static str,
    pub whole: f64,
    pub parts: Vec<(&'static str, f64)>,
    pub residual: f64,
}

impl Attribution {
    pub fn new(
        rung: &'static str,
        whole_name: &'static str,
        whole: f64,
        parts: Vec<(&'static str, f64)>,
    ) -> Attribution {
        let residual = whole - parts.iter().map(|(_, v)| v).sum::<f64>();
        Attribution {
            rung,
            whole_name,
            whole,
            parts,
            residual,
        }
    }

    /// One line: `rung: whole = a + b + ... + residual`.
    pub fn render(&self, unit: &str) -> String {
        let mut s = format!(
            "attribution {}: {} {:.4} {unit} =",
            self.rung, self.whole_name, self.whole
        );
        for (i, (name, v)) in self.parts.iter().enumerate() {
            let sep = if i == 0 { "" } else { " +" };
            s.push_str(&format!("{sep} {name} {v:.4}"));
        }
        s.push_str(&format!(" + residual {:+.4}", self.residual));
        s
    }

    /// The same split as markdown table rows (`| rung | part | value |
    /// share |`), the form the benchmark notes quote.
    pub fn table_rows(&self, unit: &str) -> Vec<String> {
        let share = |v: f64| {
            if self.whole == 0.0 {
                0.0
            } else {
                v / self.whole * 100.0
            }
        };
        let mut rows: Vec<String> = self
            .parts
            .iter()
            .chain(std::iter::once(&("residual", self.residual)))
            .map(|(name, v)| {
                format!(
                    "| {} | {name} | {v:.3} {unit} | {:.1} % |",
                    self.rung,
                    share(*v)
                )
            })
            .collect();
        rows.push(format!(
            "| {} | **{}** | **{:.3} {unit}** | 100 % |",
            self.rung, self.whole_name, self.whole
        ));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_series() {
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
        // nearest rank: ceil(0.5 * 4) = 2nd smallest
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 0.5), Some(2.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // rank ceil(0.99 * 1000) = 990, ten samples beyond it
        assert_eq!(percentile(&xs, 0.99), Some(990.0));
        assert_eq!(percentile(&xs[..999], 0.99), None);
        // p90 of 100 samples: rank 90, ten beyond
        assert_eq!(percentile(&xs[..100], 0.9), Some(90.0));
        assert_eq!(percentile(&xs[..99], 0.9), None);
    }

    #[test]
    fn summary_quartiles_are_nearest_rank() {
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0, 6.0, 7.0, 8.0]);
        assert_eq!((s.q1, s.median, s.q3, s.samples), (2.0, 4.0, 6.0, 8));
    }

    #[test]
    fn interquartile_mean_drops_a_quarter_each_side() {
        // 8 samples: drop 2 low and 2 high, mean of 3, 4, 5, 6
        let xs = [100.0, 6.0, 1.0, 4.0, 5.0, 2.0, 3.0, -50.0];
        assert_eq!(interquartile_mean(&xs), 3.5);
        assert_eq!(interquartile_mean(&[2.0, 4.0, 9.0]), 5.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }

    #[test]
    fn interquartile_mean_follows_a_shifting_share() {
        // two clusters, 2 and 3: the median jumps from 3 to 2 as the
        // share of 2s passes one half, the interquartile mean moves by
        // steps of 1/(n/2) per sample
        let series = |fast: usize| -> Vec<f64> {
            (0..100).map(|i| if i < fast { 2.0 } else { 3.0 }).collect()
        };
        assert_eq!(percentile(&series(45), 0.5), Some(3.0));
        assert_eq!(percentile(&series(55), 0.5), Some(2.0));
        let (a, b) = (
            interquartile_mean(&series(45)),
            interquartile_mean(&series(55)),
        );
        assert!(
            (a - 2.6).abs() < 1e-12 && (b - 2.4).abs() < 1e-12,
            "{a} {b}"
        );
    }

    #[test]
    fn attribution_residual_is_signed() {
        let a = Attribution::new("frame", "process", 10.0, vec![("a", 4.0), ("b", 3.5)]);
        assert_eq!(a.residual, 2.5);
        // overlapping stripes: parts sum CPU time beyond the wall time
        let b = Attribution::new("frame", "process", 5.0, vec![("a", 4.0), ("b", 3.0)]);
        assert_eq!(b.residual, -2.0);
        let sum: f64 = b.parts.iter().map(|(_, v)| v).sum::<f64>() + b.residual;
        assert_eq!(sum, b.whole);
        assert!(b.render("ms").ends_with("residual -2.0000"));
        let rows = b.table_rows("ms");
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[2], "| frame | residual | -2.000 ms | -40.0 % |");
    }
}
