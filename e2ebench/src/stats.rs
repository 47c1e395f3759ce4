//! Exact statistics over raw samples, and the result record a run prints.
//!
//! Every latency the benchmark reports is a quantile of raw client-side
//! samples held in nanoseconds, never a histogram bucket bound. Each
//! quantile is printed next to its sample count, and a quantile with
//! fewer than [`MIN_TAIL`] samples beyond it is flagged in the report.

use std::time::{Duration, Instant};

/// Samples that must lie beyond a reported percentile for it to count
/// as measured rather than guessed.
pub const MIN_TAIL: usize = 10;

/// Raw duration samples in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, d: Duration) {
        self.push_ns(d.as_nanos() as u64);
    }

    pub fn push_ns(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    pub fn sum_ns(&self) -> u128 {
        self.ns.iter().map(|&n| n as u128).sum()
    }

    pub fn mean_ns(&self) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        self.sum_ns() as f64 / self.ns.len() as f64
    }

    /// Exact `q`-quantile in ns, linearly interpolated between the two
    /// closest ranks (0 when empty).
    pub fn quantile_ns(&mut self, q: f64) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        let pos = q.clamp(0.0, 1.0) * (self.ns.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.ns[lo] as f64 * (1.0 - frac) + self.ns[hi] as f64 * frac
    }

    pub fn quantile_us(&mut self, q: f64) -> f64 {
        self.quantile_ns(q) / 1e3
    }

    pub fn quantile_ms(&mut self, q: f64) -> f64 {
        self.quantile_ns(q) / 1e6
    }

    /// Whether at least [`MIN_TAIL`] samples lie beyond the `q`-quantile.
    pub fn tail_ok(&self, q: f64) -> bool {
        (self.ns.len() as f64 * (1.0 - q)).floor() as usize >= MIN_TAIL
    }
}

/// Samples bucketed into fixed-width windows of wall time. The host's
/// speed drifts from second to second, so the end-to-end figures are
/// medians over windows: a burst of outside load moves one window, not
/// the result. Only windows that lie wholly inside the measured span
/// count.
#[derive(Debug, Clone)]
pub struct Windows {
    start: Instant,
    width: Duration,
    full: usize,
    windows: Vec<(Samples, f64)>,
}

impl Windows {
    /// Windows of `width` covering `span` from `start`.
    pub fn new(start: Instant, width: Duration, span: Duration) -> Self {
        let full = (span.as_secs_f64() / width.as_secs_f64()).floor().max(1.0) as usize;
        Windows {
            start,
            width,
            full,
            windows: vec![(Samples::new(), 0.0); full],
        }
    }

    fn slot(&mut self, at: Instant) -> Option<&mut (Samples, f64)> {
        let i = (at.saturating_duration_since(self.start).as_secs_f64() / self.width.as_secs_f64())
            as usize;
        self.windows.get_mut(i)
    }

    /// Record a latency sample and the work it completed, at `at`.
    pub fn record(&mut self, at: Instant, sample: Duration, work: f64) {
        if let Some(w) = self.slot(at) {
            w.0.push(sample);
            w.1 += work;
        }
    }

    pub fn merge(&mut self, other: &Windows) {
        for (mine, theirs) in self.windows.iter_mut().zip(&other.windows) {
            mine.0.extend(&theirs.0);
            mine.1 += theirs.1;
        }
    }

    pub fn count(&self) -> usize {
        self.full
    }

    /// Median over windows of each window's `q`-quantile, µs.
    pub fn median_quantile_us(&mut self, q: f64) -> f64 {
        let per: Vec<f64> = self
            .windows
            .iter_mut()
            .filter(|w| !w.0.is_empty())
            .map(|w| w.0.quantile_us(q))
            .collect();
        median(&per)
    }

    /// Median over windows of work per second of wall time.
    pub fn median_rate(&self) -> f64 {
        let width = self.width.as_secs_f64();
        let per: Vec<f64> = self.windows.iter().map(|w| w.1 / width).collect();
        median(&per)
    }

    /// Each window's `q`-quantile, µs, in time order.
    pub fn quantiles_us(&mut self, q: f64) -> Vec<f64> {
        self.windows
            .iter_mut()
            .map(|w| w.0.quantile_us(q))
            .collect()
    }

    /// Fewest samples in any window.
    pub fn min_samples(&self) -> usize {
        self.windows.iter().map(|w| w.0.len()).min().unwrap_or(0)
    }
}

/// Median of a small set of values (e.g. repeated set-up times).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// A run's outcome: the correctness tally, the metrics that go into the
/// final JSON line, and human-readable lines printed before it.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Mismatch descriptions (the first few are printed).
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    pub lines: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// A human-readable line (printed, not part of the JSON).
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// A human line for a quantile, with its sample count and a flag when
    /// too few samples lie beyond it.
    pub fn quantile_line(&mut self, name: &str, samples: &mut Samples, q: f64, scale: Scale) {
        let value = match scale {
            Scale::Us => samples.quantile_us(q),
            Scale::Ms => samples.quantile_ms(q),
        };
        let flag = if samples.tail_ok(q) {
            ""
        } else {
            "  (fewer than 10 samples beyond this quantile)"
        };
        self.line(format!(
            "{name} {value:.3} {} (n={}){flag}",
            scale.unit(),
            samples.len()
        ));
    }

    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.errors.len() < 16 {
            self.errors.push(what.into());
        }
    }

    /// Fold another tally (e.g. a load-generator thread's) into this one.
    pub fn absorb(&mut self, attempted: u64, failed: u64, errors: Vec<String>) {
        self.attempted += attempted;
        self.failed += failed;
        for e in errors {
            if self.errors.len() < 16 {
                self.errors.push(e);
            }
        }
    }

    /// The result object: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn to_json(&self, correct: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            out.push_str(&format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            ));
        }
        out.push_str("}}");
        out
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Scale {
    Us,
    Ms,
}

impl Scale {
    fn unit(self) -> &'static str {
        match self {
            Scale::Us => "us",
            Scale::Ms => "ms",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_ranks() {
        let mut s = Samples::new();
        for ns in 1..=101u64 {
            s.push_ns(ns * 1000);
        }
        assert_eq!(s.quantile_ns(0.5), 51_000.0);
        assert_eq!(s.quantile_ns(0.99), 100_000.0);
        assert_eq!(s.quantile_ns(1.0), 101_000.0);
        assert!(!s.tail_ok(0.99));
        assert!(s.tail_ok(0.9));
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
