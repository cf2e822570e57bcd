//! Raw-sample statistics and the metric report.
//!
//! Percentiles are nearest-rank over the raw samples (`sorted[⌈q·n⌉ − 1]`),
//! never read from bucketed histograms, and every metric carries the number
//! of samples it was computed from.

use std::fmt::Write as _;

/// Nearest-rank percentile of an unsorted sample; 0 for an empty one.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Samples strictly above the nearest-rank `q` percentile.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// The tail percentile every latency is reported at. p90 rather than p99:
/// a percentile needs at least [`MIN_BEYOND`] samples beyond it, so a p99
/// needs 1,000 per mode, more than a run collects.
pub const TAIL: f64 = 0.90;
pub const MIN_BEYOND: usize = 10;

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
    pub note: String,
}

/// The metrics of one run, in the order they were added.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn add(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.add_noted(name, unit, value, samples, String::new());
    }

    pub fn add_noted(
        &mut self,
        name: &str,
        unit: &'static str,
        value: f64,
        samples: usize,
        note: String,
    ) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
            note,
        });
    }

    /// A latency tail: the [`TAIL`] percentile of `samples` (in the unit
    /// given), noting when fewer than [`MIN_BEYOND`] samples lie beyond it.
    pub fn add_tail(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        let n = samples.len();
        let b = beyond(n, TAIL);
        let note = if b < MIN_BEYOND {
            format!("only {b} samples beyond the percentile")
        } else {
            format!("{b} samples beyond")
        };
        self.add_noted(name, unit, percentile(samples, TAIL), n, note);
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// One human-readable line per metric: name, value, unit, sample count.
    pub fn print_table(&self) {
        for m in &self.metrics {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("  ({})", m.note)
            };
            println!(
                "metric {:<36} {:>16.6} {:<6} n={}{}",
                m.name, m.value, m.unit, m.samples, note
            );
        }
    }

    /// The `metrics` object of the result line, restricted to `names`.
    pub fn json_object(&self, names: &[&str]) -> String {
        let mut out = String::from("{");
        for (i, name) in names.iter().enumerate() {
            let m = self
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push('}');
        out
    }
}

pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 10.0);
        assert_eq!(percentile(&s, 0.95), 19.0);
        assert_eq!(percentile(&s, 1.0), 20.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(beyond(200, 0.95), 10);
        assert_eq!(beyond(199, 0.95), 9);
    }
}
