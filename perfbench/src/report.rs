//! What one benchmark invocation reports: the operation tally, the
//! metrics, and the one-line JSON result.

use std::fmt::Write as _;

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Observations behind `value` (repetitions, runs or jobs); 0 marks a
    /// metric that does not apply to the workload and is reported as 0.
    pub samples: usize,
    /// For a tail percentile: observations strictly beyond it.
    pub beyond: Option<usize>,
}

/// The outcome of one invocation.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed operation or check (the first few are printed).
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Counts one operation, failed when `error` is set.
    pub fn op(&mut self, error: Option<String>) {
        self.attempted += 1;
        if let Some(e) = error {
            self.fail(e);
        }
    }

    /// Counts a failure of an already attempted operation, or of a check
    /// that is not an operation of its own.
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        self.errors.push(error);
    }

    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
            beyond: None,
        });
    }

    /// A tail percentile of `sorted`, recording how many samples lie
    /// beyond it.
    pub fn percentile(&mut self, name: &'static str, unit: &'static str, sorted: &[f64], p: f64) {
        let (value, beyond) = percentile(sorted, p);
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples: sorted.len(),
            beyond: Some(beyond),
        });
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The human-readable table: every metric with unit and sample count.
    pub fn table(&self, workload: &str) -> String {
        let mut out = format!("workload {workload}\n");
        let _ = writeln!(
            out,
            "  {:<30} {:>16}  {:<9} samples",
            "metric", "value", "unit"
        );
        for m in &self.metrics {
            let samples = match (m.samples, m.beyond) {
                (0, _) => "n/a on this workload".to_string(),
                (n, Some(b)) => format!("{n} ({b} beyond)"),
                (n, None) => n.to_string(),
            };
            let _ = writeln!(
                out,
                "  {:<30} {:>16.6}  {:<9} {}",
                m.name, m.value, m.unit, samples
            );
        }
        let _ = writeln!(
            out,
            "  {:<30} {:>16.6}  {:<9} {} failed of {} attempted",
            "error_rate",
            self.error_rate(),
            "fraction",
            self.failed,
            self.attempted
        );
        for e in self.errors.iter().take(10) {
            let _ = writeln!(out, "  error: {e}");
        }
        if self.errors.len() > 10 {
            let _ = writeln!(out, "  ... {} more errors", self.errors.len() - 10);
        }
        out
    }

    /// The result line: one JSON object, last line of standard output.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Full-precision JSON number (non-finite values, which no metric should
/// produce, become 0 so the line stays valid JSON).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

/// Median of unsorted samples (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples.to_vec()), 50.0).0
}

/// Nearest-rank percentile of sorted samples, and the number of samples
/// strictly greater than it.
pub fn percentile(sorted: &[f64], p: f64) -> (f64, usize) {
    if sorted.is_empty() {
        return (0.0, 0);
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    let value = sorted[rank.min(sorted.len()) - 1];
    let beyond = sorted.iter().filter(|&&x| x > value).count();
    (value, beyond)
}

/// Sorts samples for [`percentile`].
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), (50.0, 50));
        assert_eq!(percentile(&xs, 99.0), (99.0, 1));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut r = Report::default();
        r.op(None);
        r.metric("setup_s", "s", 0.25, 3);
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
