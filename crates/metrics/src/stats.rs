//! Supplementary statistics: the delay distribution.
//!
//! The paper reports scalar means; the percentiles and jitter drawn from
//! this distribution are used by the examples and when debugging why a
//! variant behaves as it does. Per-interval delivery is in the obs time
//! series (`obs::SampleRow`'s cumulative `originated` and `delivered`).

/// Accumulates a sample distribution and reports order statistics.
#[derive(Debug, Clone, Default)]
pub struct Distribution {
    samples: Vec<f64>,
}

impl Distribution {
    /// Creates an empty distribution.
    pub fn new() -> Self {
        Distribution::default()
    }

    /// Adds one sample.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite.
    pub fn record(&mut self, value: f64) {
        assert!(value.is_finite(), "non-finite sample {value}");
        self.samples.push(value);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (!self.samples.is_empty())
            .then(|| self.samples.iter().sum::<f64>() / self.samples.len() as f64)
    }

    /// The `q`-quantile (0..=1) by the nearest-rank method, or `None` when
    /// empty.
    ///
    /// The copy is sorted in place, without a stable sort's scratch
    /// buffer. Samples are finite, so the total order ranks them as the
    /// numeric one does, but for `-0.0`, which it puts below `0.0`; delays
    /// are never `-0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Some(sorted[rank - 1])
    }

    /// [`Distribution::quantile`] as it was, over a stable sort.
    #[cfg(test)]
    fn quantile_by_stable_sort(&self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Some(sorted[rank - 1])
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.samples.iter().copied().fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Mean absolute difference between consecutive samples in insertion
    /// order, or `None` with fewer than two samples. Over the end-to-end
    /// delays of successively delivered packets this is the classic
    /// delivery-jitter estimator (RFC 3550 flavored, without smoothing).
    pub fn mean_abs_delta(&self) -> Option<f64> {
        if self.samples.len() < 2 {
            return None;
        }
        let total: f64 = self.samples.windows(2).map(|w| (w[1] - w[0]).abs()).sum();
        Some(total / (self.samples.len() - 1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use sim_core::testkit::cases;

    use super::*;

    /// Delay-like samples (non-negative, ties and exact zeros common) give
    /// every quantile the stable sort gave, to the bit.
    #[test]
    fn quantiles_match_the_stable_sort() {
        cases("quantiles_match_the_stable_sort", 0..128, |_, rng| {
            let mut d = Distribution::new();
            for _ in 0..rng.random_range(1..400usize) {
                let ns = match rng.random_range(0..4u32) {
                    0 => 0,
                    1 => rng.random_range(0..8u64) * 1_000_000,
                    _ => rng.random_range(0..3_000_000_000u64),
                };
                d.record(ns as f64 * 1e-9);
            }
            for q in
                [0.0, 0.01, 0.25, 0.5, 0.95, 0.99, 1.0, rng.random_range(0..=1000u32) as f64 / 1e3]
            {
                let (got, want) = (d.quantile(q), d.quantile_by_stable_sort(q));
                assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "q = {q}");
            }
        });
    }

    #[test]
    fn distribution_mean_and_quantiles() {
        let mut d = Distribution::new();
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            d.record(v);
        }
        assert_eq!(d.len(), 5);
        assert_eq!(d.mean(), Some(3.0));
        assert_eq!(d.quantile(0.5), Some(3.0));
        assert_eq!(d.quantile(1.0), Some(5.0));
        assert_eq!(d.quantile(0.0), Some(1.0));
        assert_eq!(d.max(), Some(5.0));
    }

    #[test]
    fn mean_abs_delta_follows_insertion_order() {
        let mut d = Distribution::new();
        assert_eq!(d.mean_abs_delta(), None);
        d.record(1.0);
        assert_eq!(d.mean_abs_delta(), None, "one sample has no deltas");
        d.record(3.0); // |3-1| = 2
        d.record(2.0); // |2-3| = 1
        assert_eq!(d.mean_abs_delta(), Some(1.5));
    }

    #[test]
    fn empty_distribution_returns_none() {
        let d = Distribution::new();
        assert!(d.is_empty());
        assert_eq!(d.mean(), None);
        assert_eq!(d.quantile(0.5), None);
        assert_eq!(d.max(), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn quantile_validates_range() {
        let mut d = Distribution::new();
        d.record(1.0);
        let _ = d.quantile(1.5);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn distribution_rejects_nan() {
        Distribution::new().record(f64::NAN);
    }
}
