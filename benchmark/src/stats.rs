//! The arithmetic every reported number goes through.
//!
//! The sandbox shares physical cores with other guests, and that
//! interference only ever adds time (README, "What the sandbox
//! forced"): one 20 s run saw 250 ms slices between 1,213 and 2,114
//! queries/s on unchanged code, slow for more than half of them, so
//! neither a mean nor a median of slices is steady. Every distinct
//! input is therefore replayed for the whole run and charged its
//! **fastest** repeat ([`BestOf`]); one-shot phases are repeated and
//! charged their fastest repeat too.

/// Median of the values (mean of the two middle ones for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of the values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of p99 / p95 / p90 with at least ten samples beyond it;
/// the median when even p90 has fewer (below 100 samples).
pub fn supported_tail(n: usize) -> f64 {
    [(99.0, 1000), (95.0, 200), (90.0, 100)]
        .into_iter()
        .find(|&(_, need)| n >= need)
        .map_or(50.0, |(p, _)| p)
}

pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method) — the driver's spread is `(q3 - q1) / median`.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let q = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(1), q(2), q(3))
}

/// `(q3 - q1) / median`, the run-to-run spread the driver computes.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, _, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Per-input fastest latency over every repeat of a closed-loop replay.
#[derive(Debug, Clone)]
pub struct BestOf {
    best: Vec<f64>,
    samples: usize,
}

impl BestOf {
    pub fn new(inputs: usize) -> Self {
        Self {
            best: vec![f64::INFINITY; inputs],
            samples: 0,
        }
    }

    pub fn record(&mut self, input: usize, secs: f64) {
        self.samples += 1;
        if secs < self.best[input] {
            self.best[input] = secs;
        }
    }

    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Fastest latency of `input`, if it was ever replayed.
    pub fn best(&self, input: usize) -> Option<f64> {
        Some(self.best[input]).filter(|s| s.is_finite())
    }

    /// Fastest latencies of the inputs seen at least once.
    pub fn seen(&self) -> Vec<f64> {
        (0..self.best.len()).filter_map(|i| self.best(i)).collect()
    }

    /// Requests per second of one client replaying the seen inputs back
    /// to back at their fastest latencies.
    pub fn rate(&self) -> f64 {
        let seen = self.seen();
        seen.len() as f64 / seen.iter().sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // 10 samples: p95 rounds up to the 10th.
        let w: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&w, 95.0), 10.0);
        assert_eq!(percentile(&w, 90.0), 9.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(99), 50.0);
        assert_eq!(supported_tail(100), 90.0);
        assert_eq!(supported_tail(200), 95.0);
        assert_eq!(supported_tail(999), 95.0);
        assert_eq!(supported_tail(1000), 99.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, _, q3) = quartiles(&[2.0, 1.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }

    #[test]
    fn best_of_charges_each_input_its_fastest_repeat() {
        let mut b = BestOf::new(3);
        // Input 2 is never replayed: it must not count as free.
        for (i, s) in [(0, 0.004), (1, 0.010), (0, 0.002), (1, 0.006), (0, 0.003)] {
            b.record(i, s);
        }
        assert_eq!(b.samples(), 5);
        assert_eq!(b.seen(), vec![0.002, 0.006]);
        assert_eq!((b.best(0), b.best(2)), (Some(0.002), None));
        assert!((b.rate() - 2.0 / 0.008).abs() < 1e-9);
    }
}
