//! The result line and the order statistics behind it.

use std::time::{Duration, Instant};

/// Set-ups timed before a run's measured window, and as many again
/// after it; `setup_s` is the median of them all, so a slow spell of
/// the host at either end moves at most half the samples.
pub const SETUPS: usize = 16;

/// Consecutive slices a run's latencies are cut into; each latency
/// percentile reported is the median of the slices' percentiles.
pub const WINDOWS: usize = 10;

/// Times [`SETUPS`] calls of `setup`, dropping each result before the
/// next call starts; returns the last result and the times in seconds.
pub fn timed_setups<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), times)
}

/// One run's verdict: what was attempted, what failed, whether every
/// checked output was right, and the named metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    /// Records metric `name` in `unit`.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite value: it would make the result line
    /// invalid JSON, and it means a measurement took no samples.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is {value}");
        self.metrics.push((name, value, unit));
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Nearest-rank percentile (`q` in (0, 1]) of unsorted samples — the
/// convention `milr_serve::LatencyStats` uses.
///
/// # Panics
///
/// Panics on an empty sample set.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted samples (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Median over `windows` consecutive equal slices of `samples` (in the
/// order taken) of each slice's `q` percentile. A stall that lands in
/// one slice moves one slice's figure, not the reported one.
///
/// # Panics
///
/// Panics when there are fewer samples than windows.
pub fn windowed_percentile(samples: &[f64], q: f64, windows: usize) -> f64 {
    assert!(samples.len() >= windows, "fewer samples than windows");
    let per = samples.len() / windows;
    let figures: Vec<f64> = samples
        .chunks_exact(per)
        .take(windows)
        .map(|w| percentile(w, q))
        .collect();
    median(&figures)
}

/// Prints the p90 and p99 of a run's latencies, taken as the
/// end-to-end p50 is, on standard error. They are not result metrics:
/// a busy host moves them by far more than any bound (README.md).
pub fn eprint_tails(workload: &str, latencies_ms: &[f64]) {
    eprintln!(
        "{workload}: latency p90/p99 ms {:.2}/{:.2} (median of {WINDOWS} slices)",
        windowed_percentile(latencies_ms, 0.90, WINDOWS),
        windowed_percentile(latencies_ms, 0.99, WINDOWS)
    );
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0]), 3.0);
    }

    #[test]
    fn one_stalled_window_does_not_move_the_figure() {
        let mut v: Vec<f64> = (0..1000).map(|i| f64::from(i % 100)).collect();
        let calm = windowed_percentile(&v, 0.99, 10);
        for x in &mut v[300..400] {
            *x += 1000.0;
        }
        assert_eq!(windowed_percentile(&v, 0.99, 10), calm);
        assert!(percentile(&v, 0.99) > 1000.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut o = Outcome::new();
        o.attempted = 3;
        o.metric("latency_p50_ms", 1.25, "ms");
        o.metric("setup_s", 0.5, "s");
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
