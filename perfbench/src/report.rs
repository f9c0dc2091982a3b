//! What one benchmark run reports: named metrics with units and sample
//! counts, the attempted/failed tally, and the output checks. Printed as
//! a human-readable table followed by one JSON line, which is always the
//! last line of standard output.

use std::fmt::Write as _;

/// One reported number.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// How many measurements the value summarizes (1 for a single
    /// reading or a deterministic count).
    pub samples: usize,
}

/// The result of one workload run.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Readings shown in the table but not in the JSON line.
    pub info: Vec<Metric>,
}

impl Outcome {
    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.check(value.is_finite(), || format!("{name} is not finite"));
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value: if value.is_finite() { value } else { f64::MAX },
            samples,
        });
    }

    pub fn info(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.info.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Prints the table (standard output), the problems (standard
    /// error), and the JSON result line last.
    pub fn print(&self, workload: &str, trace: bool) {
        println!(
            "{workload} ({}): {} attempted, {} failed",
            if trace { "traced" } else { "untraced" },
            self.attempted,
            self.failed
        );
        for (m, note) in self
            .metrics
            .iter()
            .map(|m| (m, ""))
            .chain(self.info.iter().map(|m| (m, " (not gated)")))
        {
            println!(
                "  {:<28} {:>16.4} {:<6} n={}{note}",
                m.name, m.value, m.unit, m.samples
            );
        }
        for p in &self.problems {
            eprintln!("CHECK FAILED: {p}");
        }
        println!("{}", self.to_json());
    }

    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// `value` as a JSON number with every digit Rust's shortest round-trip
/// formatting gives (integral values keep a trailing `.0`).
fn json_number(value: f64) -> String {
    let s = format!("{value:?}");
    if s.contains("inf") || s.contains("NaN") {
        format!("{:?}", f64::MAX)
    } else {
        s
    }
}

/// Nearest-rank percentile of an ascending slice (0 for an empty one).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy ascending (NaN-free input assumed; `total_cmp` keeps it
/// total either way).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for even counts; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The better quartile of per-block readings (nearest rank): the 25th
/// percentile when lower is better, the 75th when higher is.
///
/// The VM this benchmark was tuned on flips between two speeds about
/// 1.55× apart every 0.1-2 s (a fixed CPU loop read either ~25 or ~39 ms),
/// in proportions that drift over an hour. A median over a run follows
/// that proportion; the better quartile over blocks of a run reads the
/// fast mode whenever it holds a quarter of the blocks, while a slower
/// program is slower in every block.
pub fn best_quartile(blocks: &[f64], lower_is_better: bool) -> f64 {
    percentile(&sorted(blocks), if lower_is_better { 25.0 } else { 75.0 })
}

/// `numerator / denominator`, or 0 when the denominator is 0.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_and_median() {
        let v = sorted(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 99.0), 4.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let blocks = [5.0, 1.0, 4.0, 2.0, 3.0, 6.0, 7.0, 8.0];
        assert_eq!(best_quartile(&blocks, true), 2.0);
        assert_eq!(best_quartile(&blocks, false), 6.0);
    }

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("setup_s", "s", 0.5, 1);
        o.metric("count", "count", 7.0, 1);
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"count\": {\"value\": 7.0, \"unit\": \"count\"}}}"
        );
        o.check(false, || "broken".to_string());
        assert!(o.to_json().starts_with("{\"correct\": false"));
    }
}
