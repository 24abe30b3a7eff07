//! Sample summaries: medians and the tail percentile the sample count
//! can support.

/// Durations (or any measurements) collected over one phase of a run.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, x: f64) {
        self.0.push(x);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn count(&self) -> usize {
        self.0.len()
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between the
    /// two nearest order statistics; 0 for an empty sample.
    pub fn percentile(&self, q: f64) -> f64 {
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        match sorted.len() {
            0 => 0.0,
            n => {
                let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
                let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
                sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
            }
        }
    }

    pub fn median(&self) -> f64 {
        self.percentile(0.5)
    }
}

/// How many samples lie strictly beyond the `q`-quantile of `n` samples.
fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// The highest of p99.9 / p99 / p95 / p90 that still has at least ten
/// samples beyond it — a tail the sample count can support. `None` below
/// 100 samples.
pub fn supported_tail(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.90]
        .into_iter()
        .find(|&q| samples_beyond(n, q) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(xs: &[f64]) -> Samples {
        Samples(xs.to_vec())
    }

    #[test]
    fn percentile_interpolates_and_ignores_input_order() {
        let s = samples(&[40.0, 10.0, 30.0, 20.0]);
        assert_eq!(s.count(), 4);
        assert_eq!(s.percentile(0.0), 10.0);
        assert_eq!(s.percentile(1.0), 40.0);
        assert_eq!(s.median(), 25.0);
        assert!((s.percentile(0.25) - 17.5).abs() < 1e-12);
        assert_eq!(samples(&[7.0]).median(), 7.0);
        assert_eq!(samples(&[3.0, 1.0, 2.0]).median(), 2.0);
    }

    #[test]
    fn empty_samples_summarize_to_zero() {
        let s = Samples::default();
        assert_eq!((s.count(), s.median()), (0, 0.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(2000, 0.99), 20);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(0.90));
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
    }
}
