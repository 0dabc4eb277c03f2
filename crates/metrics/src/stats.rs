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
    /// The sample of that rank is selected in place, without copying or
    /// sorting: an MSB-first radix select over the [`f64::total_cmp`] key,
    /// eight passes of a 256-bin histogram over the samples. The total
    /// order ranks finite samples as the numeric one does, but for `-0.0`,
    /// which it puts below `0.0`; delays are never `-0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if self.samples.is_empty() {
            return None;
        }
        let len = self.samples.len();
        let rank = ((q * len as f64).ceil() as usize).clamp(1, len);
        Some(from_key(select_key(&self.samples, rank - 1)))
    }

    /// [`Distribution::quantile`] over a stable sort of a copy in the total
    /// order.
    #[cfg(test)]
    fn quantile_by_stable_sort(&self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
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

/// `x`'s bits mapped so that unsigned order is [`f64::total_cmp`] order:
/// a negative's bits all flip (larger magnitudes sort lower), a
/// non-negative's sign bit sets (above every negative).
fn key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The inverse of [`key`].
fn from_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 { key & !(1 << 63) } else { !key })
}

/// The key of the `k`-th smallest (from 0) of `samples` in the total
/// order. Each pass counts, by their next byte, the keys that share the
/// bytes already fixed, and fixes the byte whose bin holds rank `k`.
fn select_key(samples: &[f64], mut k: usize) -> u64 {
    let mut prefix = 0u64;
    for pass in 0..8 {
        let shift = 56 - 8 * pass;
        // The bits above this byte, which the passes before fixed.
        let high = u64::MAX.checked_shl(shift + 8).unwrap_or(0);
        let mut bins = [0usize; 256];
        for &x in samples {
            let key = key(x);
            if key & high == prefix {
                bins[(key >> shift) as usize & 0xff] += 1;
            }
        }
        let mut byte = 0;
        while k >= bins[byte] {
            k -= bins[byte];
            byte += 1;
        }
        prefix |= (byte as u64) << shift;
    }
    prefix
}

#[cfg(test)]
mod tests {
    use sim_core::testkit::cases;

    use super::*;

    /// Every quantile is the stable sort's, to the bit, over delay-like
    /// samples (non-negative, ties and exact zeros common) and over the
    /// corners of the total order: negatives, `-0.0` beside `0.0`,
    /// subnormals, magnitudes near `f64::MAX` and heavy ties.
    #[test]
    fn quantiles_match_the_stable_sort() {
        cases("quantiles_match_the_stable_sort", 0..256, |_, rng| {
            let mut d = Distribution::new();
            let mut drawn: Vec<f64> = Vec::new();
            for _ in 0..rng.random_range(1..=2000usize) {
                let sign = if rng.random_range(0..2u32) == 0 { 1.0 } else { -1.0 };
                let v = match rng.random_range(0..8u32) {
                    0 => 0.0,
                    1 => rng.random_range(0..8u64) as f64 * 1e-3,
                    2 | 3 => rng.random_range(0..3_000_000_000u64) as f64 * 1e-9,
                    4 => sign * 0.0,
                    5 => sign * f64::from_bits(rng.random_range(1..1u64 << 52)),
                    6 => sign * f64::MAX / rng.random_range(1..1_000u64) as f64,
                    _ => match drawn.len() {
                        0 => sign * rng.random_range(0..1_000u64) as f64,
                        n => drawn[rng.random_range(0..n.min(8))],
                    },
                };
                drawn.push(v);
                d.record(v);
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
