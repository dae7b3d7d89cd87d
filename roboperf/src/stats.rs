//! Sample statistics, host provenance and the result line.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Values below this read as zero.
const FLOOR: f64 = 1e-3;
/// Ratio between neighbouring bucket bounds: 0.1 % resolution.
const STEP: f64 = 1.001;
/// Buckets from [`FLOOR`] up to about 1e9.
const BUCKETS: usize = 27_700;

/// A log-bucketed histogram of samples (HdrHistogram-style, 0.1 %
/// resolution) plus requests that never got a response (shed or
/// rejected), which count as misses in every percentile. Its size is
/// fixed, so a run's own bookkeeping does not grow with its throughput
/// and `peak_rss_mb` stays a measure of the program.
#[derive(Debug, Clone)]
pub struct Samples {
    counts: Vec<u64>,
    taken: u64,
    misses: u64,
}

impl Default for Samples {
    #[allow(clippy::slow_vector_initialization)]
    fn default() -> Self {
        // Written out rather than `vec![0; BUCKETS]`: a zeroed allocation
        // maps its pages lazily, and the pages a run happened to touch
        // would show up as noise in `peak_rss_mb`.
        let mut counts = Vec::with_capacity(BUCKETS);
        counts.resize(BUCKETS, 0);
        Self {
            counts,
            taken: 0,
            misses: 0,
        }
    }
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        let i = if v > FLOOR {
            ((v / FLOOR).ln() / STEP.ln()) as usize + 1
        } else {
            0
        };
        self.counts[i.min(BUCKETS - 1)] += 1;
        self.taken += 1;
    }

    pub fn miss(&mut self) {
        self.misses += 1;
    }

    pub fn extend(&mut self, other: &Samples) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.taken += other.taken;
        self.misses += other.misses;
    }

    /// Samples taken, misses included.
    pub fn count(&self) -> u64 {
        self.taken + self.misses
    }

    /// Nearest-rank percentile `p` in `[0, 1]`, read as the geometric
    /// middle of its bucket; a rank that falls among the misses reads as
    /// infinity.
    pub fn percentile(&self, p: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return f64::NAN;
        }
        let rank = ((p * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i == 0 {
                    0.0
                } else {
                    FLOOR * STEP.powf(i as f64 - 0.5)
                };
            }
        }
        f64::INFINITY
    }

    pub fn median(&self) -> f64 {
        self.percentile(0.5)
    }
}

/// Length of a throughput window.
const WINDOW: Duration = Duration::from_millis(500);

/// Completions counted in consecutive windows of wall time. A segment's
/// throughput is the median window rate, so a host slowdown over part of
/// a run moves it less than it moves the mean.
#[derive(Debug, Default, Clone)]
pub struct Rate {
    window_start: Option<Instant>,
    count: u64,
    rates: Vec<f64>,
}

impl Rate {
    /// Opens the first window.
    pub fn start(&mut self, at: Instant) {
        self.window_start = Some(at);
        self.count = 0;
    }

    /// Counts one completion at `now`, closing the window once it is
    /// [`WINDOW`] long. A run's last, partial window is dropped.
    pub fn tick(&mut self, now: Instant) {
        self.count += 1;
        let start = *self.window_start.get_or_insert(now);
        let open = now - start;
        if open >= WINDOW {
            self.rates.push(self.count as f64 / open.as_secs_f64());
            self.start(now);
        }
    }

    pub fn extend(&mut self, other: &Rate) {
        self.rates.extend_from_slice(&other.rates);
    }

    /// Median window rate, or `None` before the first window closes.
    pub fn median(&self) -> Option<f64> {
        (!self.rates.is_empty()).then(|| median(&self.rates))
    }
}

/// Exact median of a small set of repeated measurements.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// One named metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A finite JSON number (JSON has no NaN or infinity; those become
/// `null` and fail the run's correctness instead).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn misses_rank_above_every_sample() {
        let mut s = Samples::default();
        for v in [3.0, 1.0, 2.0] {
            s.push(v);
        }
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-3 * b;
        assert!(close(s.median(), 2.0));
        s.miss();
        s.miss();
        assert_eq!(s.count(), 5);
        assert!(close(s.percentile(0.5), 3.0));
        assert_eq!(s.percentile(0.9), f64::INFINITY);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn rate_is_the_median_window() {
        let t0 = Instant::now();
        let mut r = Rate::default();
        r.start(t0);
        assert_eq!(r.median(), None);
        // 10 completions in the first window, 40 in the second.
        for k in 1..=10 {
            r.tick(t0 + WINDOW * k / 10);
        }
        for k in 1..=40 {
            r.tick(t0 + WINDOW + WINDOW * k / 40);
        }
        r.tick(t0 + WINDOW * 2 + WINDOW / 4);
        let per_s = |n: f64| n / WINDOW.as_secs_f64();
        assert!((r.median().unwrap() - 0.5 * (per_s(10.0) + per_s(40.0))).abs() < 1e-6);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_json(true, 10, 0, &[metric("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
