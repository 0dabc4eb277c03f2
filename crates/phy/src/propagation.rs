//! Radio propagation: received-power computation.
//!
//! Implements the ns-2 WaveLAN model the paper's simulations use: free-space
//! (Friis) attenuation up to the crossover distance, two-ray ground
//! reflection beyond it. The stock ns-2 constants give a nominal 250 m
//! reception range and ~550 m carrier-sense range at 914 MHz — exactly the
//! radio the paper describes ("a shared-media radio with a nominal bit-rate
//! of 2 Mb/sec and a nominal radio range of 250 meters"). The link budget
//! is the ns-2 `Phy/WirelessPhy` one, named once below; [`RadioConfig`]
//! carries only the reception threshold.

/// Speed of light in m/s, for propagation delay.
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// Transmit power in watts (ns-2 `Pt_`).
pub const TX_POWER_W: f64 = 0.281_838_15;

/// Transmit/receive antenna gain, unitless (ns-2 `Gt_`, `Gr_`).
pub const ANTENNA_GAIN: f64 = 1.0;

/// Antenna height above ground in meters (ns-2 `Z_`).
pub const ANTENNA_HEIGHT_M: f64 = 1.5;

/// Carrier wavelength in meters (914 MHz, ns-2 `lambda_`).
pub const WAVELENGTH_M: f64 = 0.328_227;

/// Minimum power that keeps the carrier busy in watts (ns-2 `CSThresh_`:
/// 550 m under two-ray ground).
pub const CS_THRESHOLD_W: f64 = 1.559e-11;

/// Capture ratio: a locked frame survives interference whose power is at
/// least this factor below it (ns-2 `CPThresh_`).
pub const CAPTURE_RATIO: f64 = 10.0;

/// Received power in watts at `distance_m` meters.
///
/// Friis free-space up to the crossover distance `4 * pi * ht * hr /
/// lambda`, two-ray ground beyond it (the two are equal at the crossover).
///
/// # Panics
///
/// Panics if `distance_m` is negative or not finite.
pub fn rx_power_w(distance_m: f64) -> f64 {
    assert!(distance_m.is_finite() && distance_m >= 0.0, "invalid distance {distance_m}");
    let g2 = ANTENNA_GAIN * ANTENNA_GAIN;
    if distance_m < 1e-3 {
        // Co-located nodes: cap at transmit power.
        return TX_POWER_W;
    }
    let crossover = 4.0 * std::f64::consts::PI * ANTENNA_HEIGHT_M * ANTENNA_HEIGHT_M / WAVELENGTH_M;
    if distance_m <= crossover {
        // Friis: Pt * G^2 * lambda^2 / ((4 pi d)^2)
        let denom = 4.0 * std::f64::consts::PI * distance_m / WAVELENGTH_M;
        TX_POWER_W * g2 / (denom * denom)
    } else {
        // Two-ray ground: Pt * G^2 * ht^2 * hr^2 / d^4
        let h2 = ANTENNA_HEIGHT_M * ANTENNA_HEIGHT_M;
        TX_POWER_W * g2 * h2 * h2 / (distance_m.powi(4))
    }
}

/// One-way propagation delay over `distance_m` meters, in seconds.
pub fn propagation_delay_s(distance_m: f64) -> f64 {
    distance_m / SPEED_OF_LIGHT
}

/// The reception threshold, the one radio setting a scenario carries.
/// Everything else about the radio is the fixed WaveLAN link budget above.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadioConfig {
    /// Minimum power for successful reception in watts
    /// (ns-2 `RXThresh_`: 3.652e-10 W == 250 m under two-ray ground).
    pub rx_threshold_w: f64,
}

impl RadioConfig {
    /// The WaveLAN-like radio of the paper: 250 m range, 550 m carrier
    /// sense, capture ratio 10.
    pub fn wavelan() -> Self {
        RadioConfig { rx_threshold_w: 3.652e-10 }
    }

    /// The nominal reception range in meters, solved numerically from the
    /// RX threshold. For the WaveLAN defaults this is ~250 m.
    pub fn nominal_range_m(&self) -> f64 {
        solve_range(self.rx_threshold_w)
    }

    /// The carrier-sense range in meters (~550 m for WaveLAN defaults).
    pub fn carrier_sense_range_m(&self) -> f64 {
        solve_range(CS_THRESHOLD_W)
    }
}

/// The distance at which the received power falls to `threshold`.
fn solve_range(threshold: f64) -> f64 {
    // rx_power_w is monotone decreasing; bisect.
    let (mut lo, mut hi) = (0.0, 100_000.0);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if rx_power_w(mid) >= threshold {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wavelan_ranges_match_ns2() {
        let cfg = RadioConfig::wavelan();
        let rx = cfg.nominal_range_m();
        let cs = cfg.carrier_sense_range_m();
        assert!((rx - 250.0).abs() < 5.0, "rx range {rx}");
        assert!((cs - 550.0).abs() < 15.0, "cs range {cs}");
    }

    #[test]
    fn power_decreases_with_distance() {
        let mut last = f64::INFINITY;
        for d in [1.0, 10.0, 50.0, 86.0, 87.0, 100.0, 250.0, 500.0, 1000.0] {
            let p = rx_power_w(d);
            assert!(p < last, "power not monotone at {d} m");
            last = p;
        }
    }

    #[test]
    fn friis_and_two_ray_continuous_at_crossover() {
        let crossover =
            4.0 * std::f64::consts::PI * ANTENNA_HEIGHT_M * ANTENNA_HEIGHT_M / WAVELENGTH_M;
        let before = rx_power_w(crossover * 0.999);
        let after = rx_power_w(crossover * 1.001);
        assert!((before / after - 1.0).abs() < 0.05, "discontinuity: {before} vs {after}");
    }

    #[test]
    fn range_predicates_agree_with_thresholds() {
        let rx = RadioConfig::wavelan().rx_threshold_w;
        assert!(rx_power_w(200.0) >= rx);
        assert!(rx_power_w(300.0) < rx);
        assert!(rx_power_w(300.0) >= CS_THRESHOLD_W);
        assert!(rx_power_w(500.0) >= CS_THRESHOLD_W);
        assert!(rx_power_w(600.0) < CS_THRESHOLD_W);
    }

    #[test]
    fn colocated_nodes_capped_at_tx_power() {
        assert_eq!(rx_power_w(0.0), TX_POWER_W);
    }

    #[test]
    fn propagation_delay_scales_linearly() {
        let d250 = propagation_delay_s(250.0);
        assert!((d250 - 250.0 / SPEED_OF_LIGHT).abs() < 1e-18);
        assert!((propagation_delay_s(500.0) / d250 - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid distance")]
    fn negative_distance_rejected() {
        let _ = rx_power_w(-1.0);
    }
}
