//! Simulated time represented as integer nanoseconds.
//!
//! Floating-point clocks accumulate rounding error and make event ordering
//! platform-dependent; an integer clock keeps the whole simulation exactly
//! reproducible. One nanosecond of resolution is ample for 802.11 timing
//! (a slot is 20 µs) while `u64` still covers ~584 simulated years.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulated clock, in nanoseconds since the
/// start of the run.
///
/// # Example
///
/// ```
/// use sim_core::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_millis(1.5);
/// assert_eq!(t.as_secs(), 0.0015);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
///
/// Unlike [`SimTime`], a duration is a relative quantity; subtracting two
/// instants yields a duration, and adding a duration to an instant yields
/// an instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

/// `x.round() as u64` for finite `x >= 0`, in integer steps: `f64::round`
/// is a libm call that is never inlined, and the arrival planner converts
/// a delay per receiver in range. The cast truncates (and saturates);
/// below 2^52 the fraction `x - trunc(x)` is exact, above it is zero, so
/// "half or more rounds away from zero" is one comparison.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    let t = x as u64;
    if x - t as f64 >= 0.5 && t < u64::MAX {
        t + 1
    } else {
        t
    }
}

impl SimTime {
    /// The beginning of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinite" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates an instant from whole microseconds.
    pub const fn from_micros_u64(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates an instant from (possibly fractional) seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid simulation time {secs}");
        SimTime(round_to_u64(secs * 1e9))
    }

    /// Raw nanoseconds since the start of the run.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is in
    /// the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked subtraction; `None` when `earlier` is after `self`.
    pub fn checked_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration; useful as an "infinite" sentinel.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from whole microseconds.
    pub const fn from_micros_u64(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from (possibly fractional) microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `us` is negative or not finite.
    #[inline]
    pub fn from_micros(us: f64) -> Self {
        assert!(us.is_finite() && us >= 0.0, "invalid duration {us}us");
        SimDuration(round_to_u64(us * 1e3))
    }

    /// Creates a duration from (possibly fractional) milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is negative or not finite.
    #[inline]
    pub fn from_millis(ms: f64) -> Self {
        assert!(ms.is_finite() && ms >= 0.0, "invalid duration {ms}ms");
        SimDuration(round_to_u64(ms * 1e6))
    }

    /// Creates a duration from (possibly fractional) seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid duration {secs}s");
        SimDuration(round_to_u64(secs * 1e9))
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This duration expressed in seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating duration subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies the duration by a non-negative float, rounding to the
    /// nearest nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(factor.is_finite() && factor >= 0.0, "invalid factor {factor}");
        SimDuration(round_to_u64(self.0 as f64 * factor))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("simulation clock overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("simulation clock underflow"))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("negative simulated duration"))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("negative duration"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("duration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_roundtrips_through_seconds() {
        let t = SimTime::from_secs(12.345678);
        assert!((t.as_secs() - 12.345678).abs() < 1e-9);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_micros(20.0), SimDuration::from_micros_u64(20));
        assert_eq!(SimDuration::from_millis(1.0), SimDuration::from_micros(1000.0));
        assert_eq!(SimDuration::from_secs(1.0), SimDuration::from_millis(1000.0));
    }

    #[test]
    fn instant_plus_duration() {
        let t = SimTime::from_secs(1.0) + SimDuration::from_millis(500.0);
        assert_eq!(t, SimTime::from_secs(1.5));
        assert_eq!(t - SimTime::from_secs(1.0), SimDuration::from_millis(500.0));
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_secs(1.0));
    }

    #[test]
    fn checked_since_detects_future() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a.checked_since(b).is_none());
        assert_eq!(b.checked_since(a), Some(SimDuration::from_secs(1.0)));
    }

    #[test]
    fn mul_f64_rounds_to_nanosecond() {
        let d = SimDuration::from_nanos(3);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_nanos(2)); // 1.5 rounds to 2
        assert_eq!(d.mul_f64(2.0), SimDuration::from_nanos(6));
    }

    #[test]
    fn integer_rounding_equals_libm_round() {
        let same =
            |x: f64| assert_eq!(round_to_u64(x), x.round() as u64, "{x:e} ({:#x})", x.to_bits());
        let pow2 = |e: i32| 2f64.powi(e);
        let edges = [0.0, f64::MIN_POSITIVE, 0.49999999999999994, 0.5, 1.5, 2.5];
        let huge = [pow2(52) - 0.5, pow2(52), pow2(53), pow2(63), pow2(64) - 2048.0, pow2(64)];
        for x in edges.into_iter().chain(huge).chain([1e300, f64::MAX]) {
            same(x);
        }
        let mut rng = crate::RngFactory::new(20).stream("round-to-u64", 0);
        for _ in 0..5_000_000 {
            let bits: u64 = rng.random();
            // Any finite non-negative double: sign cleared, NaN/inf skipped.
            let raw = f64::from_bits(bits >> 1);
            if raw.is_finite() {
                same(raw);
            }
            // Ties, at every magnitude where a double still has a half.
            let k = (bits >> rng.random_range(11..64u32)) as f64;
            same(k + 0.5);
            same((k + 0.5).next_down());
            same((k + 0.5).next_up());
            // Dyadic fractions k / 2^j, which land on and around ties.
            same(k / pow2(rng.random_range(1..40i32)));
            // What the simulator feeds it: a draw read as seconds, ms, us and
            // as metres of propagation, each scaled to nanoseconds.
            let draw = rng.random_range(0.0..2000.0);
            same(draw * 1e9);
            same(draw * 1e6);
            same(draw * 1e3);
            same(draw / 299_792_458.0 * 1e9);
        }
    }

    #[test]
    #[should_panic(expected = "negative simulated duration")]
    fn subtracting_later_time_panics() {
        let _ = SimTime::from_secs(1.0) - SimTime::from_secs(2.0);
    }

    #[test]
    fn duration_scalar_ops() {
        let d = SimDuration::from_micros_u64(20);
        assert_eq!(d * 3, SimDuration::from_micros_u64(60));
        assert_eq!((d * 3) / 2, SimDuration::from_micros_u64(30));
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", SimTime::ZERO).is_empty());
        assert!(!format!("{}", SimDuration::ZERO).is_empty());
    }
}
