//! 802.11 DSSS timing and framing constants.
//!
//! The paper runs one stack throughout: the ns-2 CMU Monarch 802.11 DCF
//! over a 2 Mb/s WaveLAN radio. Its timing, contention window, retry
//! limits, frame sizes and interface queue are the IEEE 802.11-1997 DSSS
//! values (the queue is ns-2's CMU `PriQueue`), named once below. Every
//! unicast uses RTS/CTS (ns-2's `RTSThreshold` of 0, which makes the
//! paper's RTS/CTS overhead counts meaningful). A frame's airtime follows
//! from its size, the PLCP overhead and the 2 Mb/s data rate.

use sim_core::SimDuration;

/// Slot time (DSSS: 20 µs).
pub const SLOT: SimDuration = SimDuration::from_micros_u64(20);

/// Short interframe space (DSSS: 10 µs).
pub const SIFS: SimDuration = SimDuration::from_micros_u64(10);

/// DCF interframe space (SIFS + 2 slots = 50 µs).
pub const DIFS: SimDuration = SimDuration::from_micros_u64(50);

/// Minimum contention window (CWmin = 31).
pub const CW_MIN: u32 = 31;

/// Maximum contention window (CWmax = 1023).
pub const CW_MAX: u32 = 1023;

/// RTS attempts before the frame is dropped (dot11ShortRetryLimit = 7).
pub const SHORT_RETRY_LIMIT: u32 = 7;

/// DATA attempts before the frame is dropped (dot11LongRetryLimit = 4).
pub const LONG_RETRY_LIMIT: u32 = 4;

/// RTS frame size in bytes.
pub const RTS_BYTES: usize = 20;

/// CTS frame size in bytes.
pub const CTS_BYTES: usize = 14;

/// ACK frame size in bytes.
pub const ACK_BYTES: usize = 14;

/// MAC header + FCS added to every data frame, in bytes.
pub const DATA_HEADER_BYTES: usize = 28;

/// Interface queue capacity in packets (ns-2 CMU `PriQueue`: 50).
pub const QUEUE_CAPACITY: usize = 50;

/// PLCP preamble + header, transmitted at 1 Mb/s (DSSS: 192 µs).
pub const PLCP_OVERHEAD: SimDuration = SimDuration::from_micros_u64(192);

/// MPDU bit-rate in bits per second (WaveLAN: 2 Mb/s).
pub const DATA_RATE_BPS: f64 = 2.0e6;

/// Airtime of a frame of `bytes` bytes: PLCP overhead plus the MPDU at
/// the data rate.
pub fn frame_duration(bytes: usize) -> SimDuration {
    PLCP_OVERHEAD + SimDuration::from_secs(bytes as f64 * 8.0 / DATA_RATE_BPS)
}

/// Airtime of a CTS frame.
pub fn cts_duration() -> SimDuration {
    frame_duration(CTS_BYTES)
}

/// Airtime of an ACK frame.
pub fn ack_duration() -> SimDuration {
    frame_duration(ACK_BYTES)
}

/// How long an RTS sender waits for the CTS before declaring the attempt
/// failed: SIFS + CTS airtime + 2 slots of grace (propagation and
/// turnaround).
pub fn cts_timeout() -> SimDuration {
    SIFS + cts_duration() + SLOT * 2
}

/// How long a DATA sender waits for the ACK.
pub fn ack_timeout() -> SimDuration {
    SIFS + ack_duration() + SLOT * 2
}

/// The MAC as a scenario carries it. Every 802.11 value is a constant of
/// this module, so it holds none; it names the airtime of a data frame for
/// callers that hold a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct MacConfig;

impl MacConfig {
    /// Airtime of a data frame with the given network-layer payload size.
    pub fn data_duration(&self, payload_bytes: usize) -> SimDuration {
        frame_duration(DATA_HEADER_BYTES + payload_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn difs_is_sifs_plus_two_slots() {
        assert_eq!(DIFS, SIFS + SLOT * 2);
    }

    #[test]
    fn frame_duration_scales_with_bytes() {
        // 512-byte payload + 28-byte header at 2 Mb/s = 2160 µs + 192 µs PLCP.
        let d = MacConfig.data_duration(512);
        assert_eq!(d, SimDuration::from_micros_u64(192 + (512 + 28) * 4));
    }

    #[test]
    fn control_frames_are_short() {
        let rts = frame_duration(RTS_BYTES);
        assert!(rts < MacConfig.data_duration(512));
        assert!(cts_duration() <= rts);
        assert_eq!(cts_duration(), ack_duration());
        assert_eq!(cts_duration(), SimDuration::from_micros_u64(248));
    }

    #[test]
    fn timeouts_cover_the_response() {
        assert!(cts_timeout() > SIFS + cts_duration());
        assert!(ack_timeout() > SIFS + ack_duration());
    }
}
