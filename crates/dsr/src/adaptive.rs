//! Adaptive timeout selection for timer-based route expiry.
//!
//! From the paper: *"We propose a heuristic for adaptive selection of
//! timeouts locally at each node based on the average route lifetime and
//! the time between link breaks seen by the node. [...] the timeout period
//! `T` is calculated as `T = max(alpha * average route lifetime, time since
//! last link breakage)`."*
//!
//! The first term tracks route stability when breaks occur uniformly in
//! time; the second corrects the estimate during quiet periods so `T` keeps
//! growing when nothing is breaking (otherwise a burst of past breaks would
//! keep expiring perfectly good routes forever). `alpha` is
//! [`ADAPTIVE_ALPHA`] and the floor [`ADAPTIVE_MIN_TIMEOUT`].

use sim_core::{SimDuration, SimTime};

use crate::config::{ADAPTIVE_ALPHA, ADAPTIVE_MIN_TIMEOUT};

/// Per-node adaptive timeout estimator.
///
/// # Example
///
/// ```
/// use dsr::AdaptiveTimeout;
/// use sim_core::{SimDuration, SimTime};
///
/// let mut est = AdaptiveTimeout::new();
/// est.observe_break(SimDuration::from_secs(4.0), SimTime::from_secs(10.0));
/// // 1.25 * avg lifetime = 5 s; 2 s since the break => T = 5 s.
/// let t = est.timeout(SimTime::from_secs(12.0));
/// assert_eq!(t, SimDuration::from_secs(5.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct AdaptiveTimeout {
    lifetime_sum: f64,
    lifetime_count: u64,
    last_break: SimTime,
}

impl AdaptiveTimeout {
    /// Creates an estimator that has observed no break.
    ///
    /// Until the first observed break, "time since last link breakage" is
    /// measured from the start of the run.
    pub fn new() -> Self {
        AdaptiveTimeout::default()
    }

    /// Records that a cached route with the given `lifetime` (time since it
    /// was last entered in the cache) broke at `now` — via link-layer
    /// feedback or a received route error.
    pub fn observe_break(&mut self, lifetime: SimDuration, now: SimTime) {
        self.lifetime_sum += lifetime.as_secs();
        self.lifetime_count += 1;
        self.last_break = self.last_break.max(now);
    }

    /// Average lifetime of all routes observed to break so far, if any.
    pub fn average_lifetime(&self) -> Option<SimDuration> {
        (self.lifetime_count > 0)
            .then(|| SimDuration::from_secs(self.lifetime_sum / self.lifetime_count as f64))
    }

    /// Number of route breaks observed.
    pub fn breaks_observed(&self) -> u64 {
        self.lifetime_count
    }

    /// The current timeout `T` at instant `now`.
    pub fn timeout(&self, now: SimTime) -> SimDuration {
        let since_break = now.saturating_since(self.last_break);
        let scaled_avg = self
            .average_lifetime()
            .map(|avg| avg.mul_f64(ADAPTIVE_ALPHA))
            .unwrap_or(SimDuration::ZERO);
        scaled_avg.max(since_break).max(ADAPTIVE_MIN_TIMEOUT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn d(s: f64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn floor_applies_before_any_breaks() {
        let est = AdaptiveTimeout::new();
        assert_eq!(est.timeout(t(0.0)), d(1.0));
    }

    #[test]
    fn quiet_start_grows_with_time() {
        // No breaks yet: T = time since start.
        let est = AdaptiveTimeout::new();
        assert_eq!(est.timeout(t(42.0)), d(42.0));
    }

    #[test]
    fn average_lifetime_accumulates() {
        let mut est = AdaptiveTimeout::new();
        est.observe_break(d(2.0), t(1.0));
        est.observe_break(d(6.0), t(2.0));
        assert_eq!(est.average_lifetime(), Some(d(4.0)));
        assert_eq!(est.breaks_observed(), 2);
    }

    #[test]
    fn alpha_scales_the_average_term() {
        let mut est = AdaptiveTimeout::new();
        est.observe_break(d(4.0), t(10.0));
        // Right after the break: since_break ~ 0, so T = alpha * 4 s.
        assert_eq!(est.timeout(t(10.0)), d(4.0).mul_f64(ADAPTIVE_ALPHA));
    }

    #[test]
    fn quiet_period_term_takes_over() {
        let mut est = AdaptiveTimeout::new();
        est.observe_break(d(2.0), t(10.0));
        // 2.5 s scaled average, but 30 s of silence since: T tracks the
        // silence.
        assert_eq!(est.timeout(t(40.0)), d(30.0));
    }

    #[test]
    fn bursty_breaks_do_not_collapse_timeout_later() {
        let mut est = AdaptiveTimeout::new();
        for i in 0..5 {
            est.observe_break(d(0.5), t(5.0 + 0.1 * f64::from(i)));
        }
        // Average lifetime is tiny, but long silence dominates.
        assert!(est.timeout(t(100.0)) >= d(90.0));
    }

    #[test]
    fn min_timeout_floors_small_estimates() {
        let mut est = AdaptiveTimeout::new();
        // 1.25 * 0.6 s = 0.75 s, under the 1 s floor.
        est.observe_break(d(0.6), t(5.0));
        assert!(d(0.6).mul_f64(ADAPTIVE_ALPHA) < ADAPTIVE_MIN_TIMEOUT);
        assert_eq!(est.timeout(t(5.0)), ADAPTIVE_MIN_TIMEOUT);
    }
}
