//! Run results: the metric table, the detail line and the final JSON
//! result line (`correct`, `attempted`, `failed`, `metrics`).

use crate::stats::{interquartile_mean, percentile, Summary, MIN_BEYOND};

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall time.
    Wall,
    /// The modelled 8-core platform the manager budgets against.
    Modelled,
    /// Not a time: a count, a size or a ratio.
    None,
}

impl Clock {
    fn label(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Modelled => "modelled",
            Clock::None => "none",
        }
    }
}

/// One reported metric: its value plus the series it was read from.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub value: f64,
    pub series: Summary,
    /// The percentile actually reported when a tail metric had too few
    /// samples for its nominal one (see [`tail`]).
    pub percentile: Option<f64>,
}

impl Metric {
    /// A value measured once per run.
    pub fn single(name: &'static str, unit: &'static str, clock: Clock, value: f64) -> Metric {
        Metric {
            name,
            unit,
            clock,
            value,
            series: Summary::single(value),
            percentile: None,
        }
    }

    /// The median of a series.
    pub fn median(name: &'static str, unit: &'static str, clock: Clock, xs: &[f64]) -> Metric {
        let series = if xs.is_empty() {
            Summary::single(0.0)
        } else {
            Summary::of(xs)
        };
        Metric {
            name,
            unit,
            clock,
            value: series.median,
            series,
            percentile: Some(0.5),
        }
    }

    /// The interquartile mean of a series (see [`interquartile_mean`]).
    pub fn interquartile_mean(
        name: &'static str,
        unit: &'static str,
        clock: Clock,
        xs: &[f64],
    ) -> Metric {
        Metric {
            value: interquartile_mean(xs),
            percentile: None,
            ..Metric::median(name, unit, clock, xs)
        }
    }

    /// A tail percentile of a series (see [`tail`]).
    pub fn tail(
        name: &'static str,
        unit: &'static str,
        clock: Clock,
        xs: &[f64],
        p: f64,
    ) -> Metric {
        let (value, used) = tail(xs, p);
        Metric {
            series: if xs.is_empty() {
                Summary::single(0.0)
            } else {
                Summary::of(xs)
            },
            percentile: Some(used),
            ..Metric::single(name, unit, clock, value)
        }
    }
}

/// Percentile `p` of `xs` when at least [`MIN_BEYOND`] samples lie
/// beyond it; otherwise the highest percentile that has that many
/// (the maximum of a series shorter than that). Returns the value and
/// the percentile used; `(0, p)` for an empty series.
pub fn tail(xs: &[f64], p: f64) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, p);
    }
    if let Some(v) = percentile(xs, p) {
        return (v, p);
    }
    let n = xs.len();
    let rank = n.saturating_sub(MIN_BEYOND).max(1);
    let used = rank as f64 / n as f64;
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let value = if n <= MIN_BEYOND {
        sorted[n - 1]
    } else {
        sorted[rank - 1]
    };
    (value, if n <= MIN_BEYOND { 1.0 } else { used })
}

/// Everything one run reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result (check verdicts,
    /// attribution per rung).
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The lines printed to standard output; the last one is the result
    /// object.
    pub fn render(&self, host_cores: usize, rev: &str) -> Vec<String> {
        let mut lines = self.notes.clone();
        for m in &self.metrics {
            let pct = match m.percentile {
                Some(p) => format!(" p={p}"),
                None => String::new(),
            };
            lines.push(format!(
                "metric {:<38} {:>14.4} {:<6} clock={} median={:.4} q1={:.4} q3={:.4} n={}{}",
                m.name,
                m.value,
                m.unit,
                m.clock.label(),
                m.series.median,
                m.series.q1,
                m.series.q3,
                m.series.samples,
                pct
            ));
        }
        let detail: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"clock\": \"{}\", \"median\": {}, \"q1\": {}, \"q3\": {}, \"samples\": {}, \"percentile\": {}}}",
                    m.name,
                    num(m.value),
                    m.unit,
                    m.clock.label(),
                    num(m.series.median),
                    num(m.series.q1),
                    num(m.series.q3),
                    m.series.samples,
                    m.percentile.map_or("null".to_string(), num)
                )
            })
            .collect();
        lines.push(format!(
            "{{\"detail\": {{\"workload\": \"{}\", \"seed\": {}, \"traced\": {}, \"host_cores\": {}, \"rev\": \"{}\", \"metrics\": {{{}}}}}}}",
            self.workload,
            self.seed,
            self.traced,
            host_cores,
            rev,
            detail.join(", ")
        ));
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    num(m.value),
                    m.unit
                )
            })
            .collect();
        lines.push(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ));
        lines
    }
}

/// A JSON number with every digit Rust's shortest round-trip form
/// gives; non-finite values (never expected) become 0.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_falls_back_to_the_highest_reportable_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs, 0.9), (90.0, 0.9));
        // p99 of 100 samples has one beyond: report rank 90 instead
        assert_eq!(tail(&xs, 0.99), (90.0, 0.9));
        assert_eq!(tail(&xs[..5], 0.99), (5.0, 1.0));
        assert_eq!(tail(&[], 0.99), (0.0, 0.99));
    }

    #[test]
    fn result_line_has_exactly_the_result_keys() {
        let r = RunResult {
            workload: "w",
            seed: 1,
            traced: false,
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric::median("x_ms", "ms", Clock::Wall, &[1.0, 2.0, 3.0])],
            notes: vec![],
        };
        let lines = r.render(2, "abc");
        assert_eq!(
            lines.last().unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"x_ms\": {\"value\": 2.0, \"unit\": \"ms\"}}}"
        );
    }
}
