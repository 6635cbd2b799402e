//! Metrics, summary statistics, and the two output forms: a table for
//! people and the one-line JSON result the benchmark ends with.

use crate::run::{Checks, Digest};
use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// What one invocation reports.
#[derive(Debug, Default)]
pub struct Report {
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Figures printed in the table only: the workload-specific end-to-end
    /// numbers that not every workload has.
    pub extra: Vec<Metric>,
    /// Free-form lines for the log (digests, counts, files written).
    pub notes: Vec<String>,
    /// Operations attempted and failed.
    pub checks: Checks,
    /// The untraced stream's transcript and answer digests.
    pub digests: Option<(Digest, Digest)>,
}

impl Report {
    /// Appends a result-line metric.
    pub fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value: finite(value),
        });
    }

    /// Appends a table-only figure.
    pub fn extra(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.extra.push(Metric {
            name: name.into(),
            unit,
            value: finite(value),
        });
    }

    /// Failed over attempted operations.
    pub fn error_rate(&self) -> f64 {
        self.checks.failed as f64 / self.checks.attempted.max(1) as f64
    }

    /// The human-readable table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for line in &self.notes {
            let _ = writeln!(out, "# {line}");
        }
        for note in &self.checks.notes {
            let _ = writeln!(out, "# FAILED: {note}");
        }
        let _ = writeln!(out, "{:<36} {:>16}  unit", "metric", "value");
        for (metric, tag) in self
            .metrics
            .iter()
            .map(|m| (m, ""))
            .chain(self.extra.iter().map(|m| (m, "  (table only)")))
        {
            let _ = writeln!(
                out,
                "{:<36} {:>16.6}  {}{tag}",
                metric.name, metric.value, metric.unit
            );
        }
        let _ = writeln!(
            out,
            "{:<36} {:>16.6}  ratio  ({} failed of {} attempted)",
            "error_rate",
            self.error_rate(),
            self.checks.failed,
            self.checks.attempted
        );
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// with its unit.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.checks.failed == 0 && self.checks.attempted > 0,
            self.checks.attempted.max(1),
            self.checks.failed
        );
        for (i, metric) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name, metric.value, metric.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// NaN and infinities have no JSON form; an empty sample reads 0.
fn finite(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        0.0
    }
}

/// The `p`-th percentile (nearest rank) of nanosecond samples, or 0 for
/// none.
pub fn percentile(samples: &[u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// The median of floating-point samples, or 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 0 {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The process's peak resident set (`VmHWM`) in MB, or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
