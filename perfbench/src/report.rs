//! Metric collection, summary statistics and the result line.

use std::fmt::Write as _;

/// One reported metric. `samples` is the number of observations behind
/// the value (1 for a count or a single measurement).
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// The metrics of one run, in the order they were added.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

impl Report {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        let name = name.into();
        debug_assert!(self.metrics.iter().all(|m| m.name != name), "duplicate metric {name}");
        self.metrics.push(Metric { name, value, unit, samples });
    }

    /// Human-readable lines (stdout, before the result line).
    pub fn print_table(&self) {
        for m in &self.metrics {
            println!("  {:<44} {:>14.6} {:<6} (n={})", m.name, m.value, m.unit, m.samples);
        }
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ =
                write!(s, "{sep}\"{}\": {{\"value\": {v:e}, \"unit\": \"{}\"}}", m.name, m.unit);
        }
        s.push_str("}}");
        s
    }
}

/// Linear-interpolated quantile of `v` (sorted in place), `q` in [0, 1].
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// The highest of p90/p99/p99.9 that has at least ten samples beyond it,
/// as `(label, value)`; `None` below 100 samples.
pub fn supported_tail(v: &mut [f64]) -> Option<(&'static str, f64)> {
    [("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)]
        .into_iter()
        .find(|&(_, q)| (v.len() as f64) * (1.0 - q) >= 10.0)
        .map(|(label, q)| (label, quantile(v, q)))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host line: core count and CPU model string.
pub fn host() -> (usize, String) {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    (nproc, cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert!((median(&mut v) - 2.5).abs() < 1e-12);
        assert!((quantile(&mut v, 1.0) - 4.0).abs() < 1e-12);
        let mut few: Vec<f64> = (0..50).map(f64::from).collect();
        assert!(supported_tail(&mut few).is_none());
        let mut many: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(supported_tail(&mut many).map(|t| t.0), Some("p99"));
    }
}
