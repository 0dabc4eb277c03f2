//! Seeded, labelled random-number streams.
//!
//! A simulation study needs two properties from its randomness:
//!
//! 1. **Reproducibility** — one scenario seed fully determines the run.
//! 2. **Stream independence** — changing how one component consumes
//!    randomness (say, MAC backoff) must not perturb another component's
//!    sequence (say, the mobility scenario). The paper relies on this:
//!    *"Identical mobility and traffic scenarios are used across all
//!    protocol variations."*
//!
//! [`RngFactory`] derives an independent [`SimRng`] per `(label, index)`
//! pair via SplitMix64 seed mixing, so the mobility stream for seed 7 is the
//! same no matter which DSR variant runs on top of it.

use std::ops::{Range, RangeInclusive};

/// The one generator of the simulator: xoshiro256++, seeded through
/// SplitMix64.
///
/// Every committed CSV, scenario digest and benchmark golden is a function
/// of this exact bit stream (`known_answers` below pins it), so the draw
/// methods are a contract: each consumes exactly one [`SimRng::next_u64`].
/// Streams come from [`RngFactory::stream`]; nothing here is
/// security-sensitive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Expands `state` into the four state words, one SplitMix64 step each.
    fn seed_from_u64(mut state: u64) -> Self {
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = splitmix64(state);
            state = state.wrapping_add(GOLDEN_GAMMA);
        }
        // xoshiro forbids the all-zero state.
        if s == [0, 0, 0, 0] {
            s = [1, 2, 3, 4];
        }
        SimRng { s }
    }

    /// The next 64 bits of the stream.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A `u64` over its whole domain, or an `f64` in `[0, 1)` with 53 random
    /// bits.
    #[inline]
    pub fn random<T: Sample>(&mut self) -> T {
        T::sample(self)
    }

    /// A value uniform over `range`.
    ///
    /// # Panics
    ///
    /// Panics if `range` is empty.
    #[inline]
    pub fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// `true` with probability `p`.
    #[inline]
    pub fn random_bool(&mut self, p: f64) -> bool {
        self.random::<f64>() < p
    }

    /// Multiply-shift onto `0..n`; the bias is negligible for simulation use.
    #[inline]
    fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// A type [`SimRng::random`] can draw.
pub trait Sample {
    /// One draw from `rng`.
    fn sample(rng: &mut SimRng) -> Self;
}

impl Sample for u64 {
    #[inline]
    fn sample(rng: &mut SimRng) -> u64 {
        rng.next_u64()
    }
}

impl Sample for f64 {
    #[inline]
    fn sample(rng: &mut SimRng) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A range [`SimRng::random_range`] can draw from.
pub trait SampleRange<T> {
    /// One draw from `rng`, uniform over `self`.
    fn sample(self, rng: &mut SimRng) -> T;
}

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample(self, rng: &mut SimRng) -> f64 {
        assert!(self.start < self.end, "empty range");
        let v = self.start + (self.end - self.start) * rng.random::<f64>();
        // Guard the half-open contract against floating-point rounding.
        if v >= self.end {
            self.end - (self.end - self.start) * f64::EPSILON
        } else {
            v
        }
    }
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample(self, rng: &mut SimRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample(self, rng: &mut SimRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // Full-domain inclusive range.
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(rng.below(span) as $t)
            }
        }
    )*};
}

int_ranges!(u16, u32, u64, usize, i32);

/// Derives independent named RNG streams from a single scenario seed.
///
/// # Example
///
/// ```
/// use sim_core::RngFactory;
///
/// let f = RngFactory::new(7);
/// let mut mobility = f.stream("mobility", 0);
/// let mut backoff = f.stream("mac-backoff", 3);
/// let a: f64 = mobility.random();
/// let b: f64 = backoff.random();
/// assert_ne!(a, b);
/// // Re-deriving the same stream replays the same sequence.
/// let mut mobility2 = RngFactory::new(7).stream("mobility", 0);
/// assert_eq!(a, mobility2.random::<f64>());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngFactory {
    seed: u64,
}

impl RngFactory {
    /// Creates a factory rooted at `seed`.
    pub const fn new(seed: u64) -> Self {
        RngFactory { seed }
    }

    /// The root scenario seed.
    pub const fn seed(self) -> u64 {
        self.seed
    }

    /// Returns the RNG stream for component `label`, instance `index`
    /// (typically a node id).
    pub fn stream(self, label: &str, index: u64) -> SimRng {
        let mut h = self.seed;
        for &b in label.as_bytes() {
            h = splitmix64(h ^ u64::from(b));
        }
        h = splitmix64(h ^ index.wrapping_mul(GOLDEN_GAMMA));
        SimRng::seed_from_u64(h)
    }
}

/// SplitMix64's increment (2^64 / golden ratio, odd).
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer: a bijective avalanche mix used for seed derivation.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draws a sample from `U(lo, hi)`.
///
/// # Panics
///
/// Panics if `lo > hi` or either bound is not finite.
// Deliberately not `#[inline]`: the range check and its panic message stay one
// out-of-line copy instead of landing in every agent and fault-engine caller.
pub fn uniform(rng: &mut SimRng, lo: f64, hi: f64) -> f64 {
    assert!(lo.is_finite() && hi.is_finite() && lo <= hi, "invalid uniform range [{lo}, {hi}]");
    if lo == hi {
        return lo;
    }
    rng.random_range(lo..hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit stream every committed CSV, digest and golden was made with,
    /// recorded at the last commit that linked the `rand` stand-in: stream
    /// derivation and seeding first, then one value per draw form a call
    /// site uses, each from a fresh stream.
    #[test]
    fn known_answers() {
        let first4 = |seed, label, index| {
            let mut rng = RngFactory::new(seed).stream(label, index);
            [rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64()]
        };
        assert_eq!(
            first4(1, "mobility", 0),
            [0x175800dc2e44a1c6, 0x601c0ce5ebb3583b, 0x6a6fa9279a383aa2, 0xa2edf01fa2f061c0]
        );
        assert_eq!(
            first4(7, "mac-backoff", 99),
            [0xecfb53dc65323064, 0x1963c14c9b3262aa, 0x75ef7593a24f4bf0, 0x64ed9e936c2462ed]
        );
        assert_eq!(
            first4(u64::MAX, "fault", 0),
            [0x7a8ae5cc87dcbf2d, 0x21fe0e8458414449, 0x6c7100e528cd2746, 0x24120310476de47f]
        );

        let fresh = |index| RngFactory::new(42).stream("known-answer", index);
        assert_eq!(fresh(0).random::<u64>(), 0x3e929cec873cad0f);
        assert_eq!(fresh(0).random::<f64>().to_bits(), 0x3fcf494e76439e54);
        // Agents' jitter and `FaultState::draw_corrupted`.
        assert_eq!(uniform(&mut fresh(0), 0.0, 0.01).to_bits(), 0x3f6405f4c691ad03);
        assert_eq!(uniform(&mut fresh(0), 0.0, 1.0).to_bits(), 0x3fcf494e76439e54);
        // `Dcf` backoff at CWmin and CWmax, `traffic` endpoints.
        assert_eq!(fresh(0).random_range(0..=31u32), 7);
        assert_eq!(fresh(0).random_range(0..=1023u32), 250);
        assert_eq!(fresh(0).random_range(0..100u16), 24);
        assert_eq!(fresh(0).random_range(0..10usize), 2);
        assert_eq!(fresh(0).random_range(-5..5i32), -3);
        assert_eq!(fresh(0).random_range(1..=6u64), 2);
        // Wide enough that the low half of the 128-bit product decides.
        assert_eq!(fresh(0).random_range(1..=1_000_000_000_000u64), 244_424_636_599);
        assert_eq!(fresh(0).random_range(0..=u64::MAX), 0x3e929cec873cad0f);
        let mut rng = fresh(0);
        let bools = (0..32).fold(0u32, |mask, i| mask | u32::from(rng.random_bool(0.3)) << i);
        assert_eq!(bools, 0x21220325);
        // One ulp wide: stream 1's first unit float (0.906) rounds onto `end`,
        // so the half-open guard runs.
        let end = 1f64.next_up();
        assert_eq!(fresh(1).random_range(1.0..end).to_bits(), 0x3ff0000000000001);
    }

    /// The largest unit float, `1 - 2^-53`, rounds `0.5 + 0.5 * unit` up to
    /// `end`; the guard must hand back a value inside the range.
    #[test]
    fn float_range_stays_half_open_at_the_top_of_the_stream() {
        let mut rng = SimRng { s: [0, 0, 0, u64::MAX] };
        assert_eq!(rng.clone().next_u64(), u64::MAX);
        assert_eq!(rng.random_range(0.5..1.0), 1.0 - f64::EPSILON / 2.0);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = RngFactory::new(1).stream("x", 0);
        let mut b = RngFactory::new(1).stream("x", 0);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_labels_differ() {
        let mut a = RngFactory::new(1).stream("x", 0);
        let mut b = RngFactory::new(1).stream("y", 0);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn different_indices_differ() {
        let mut a = RngFactory::new(1).stream("x", 0);
        let mut b = RngFactory::new(1).stream("x", 1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = RngFactory::new(1).stream("x", 0);
        let mut b = RngFactory::new(2).stream("x", 0);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = RngFactory::new(3).stream("u", 0);
        for _ in 0..1000 {
            let v = uniform(&mut rng, 2.0, 5.0);
            assert!((2.0..5.0).contains(&v));
        }
    }

    #[test]
    fn uniform_degenerate_range() {
        let mut rng = RngFactory::new(3).stream("u", 0);
        assert_eq!(uniform(&mut rng, 4.2, 4.2), 4.2);
    }

    #[test]
    #[should_panic(expected = "invalid uniform range")]
    fn uniform_rejects_inverted_range() {
        let mut rng = RngFactory::new(5).stream("u", 0);
        let _ = uniform(&mut rng, 5.0, 2.0);
    }
}
