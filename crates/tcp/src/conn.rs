//! A simplified Reno-style TCP sender/receiver state machine.
//!
//! Models the mechanisms that matter for the Holland & Vaidya observation
//! (stale MANET routes stall TCP): slow start, congestion avoidance,
//! triple-duplicate-ACK fast retransmit, Jacobson/Karn RTO estimation with
//! exponential backoff, and cumulative ACKs with out-of-order buffering at
//! the receiver. No connection setup/teardown, SACK, or window scaling —
//! a single long-lived bulk transfer is the experiment's workload.

use std::collections::{BTreeMap, VecDeque};

use sim_core::{SimDuration, SimTime};

/// Congestion-control and RTO parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpConfig {
    /// Initial slow-start threshold, in segments.
    pub initial_ssthresh: f64,
    /// Minimum retransmission timeout.
    pub min_rto: SimDuration,
    /// Maximum retransmission timeout.
    pub max_rto: SimDuration,
    /// Cap on the congestion window, in segments (receiver window stand-in).
    pub max_window: f64,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            initial_ssthresh: 32.0,
            min_rto: SimDuration::from_millis(200.0),
            max_rto: SimDuration::from_secs(60.0),
            max_window: 32.0,
        }
    }
}

/// What the sender wants done after an input (the host layer turns these
/// into DSR sends and timers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SenderAction {
    /// Transmit (or retransmit) the segment with this sequence number.
    Transmit {
        /// TCP sequence number of the segment.
        seq: u64,
        /// Whether this is a retransmission.
        retransmit: bool,
    },
    /// (Re)arm the retransmission timer to fire after the current RTO.
    ArmRto,
    /// No segments are outstanding: cancel the retransmission timer.
    CancelRto,
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    sent_at: SimTime,
    retransmitted: bool,
}

/// Sender half of one TCP connection.
#[derive(Debug, Clone)]
pub struct TcpSender {
    cfg: TcpConfig,
    /// Next sequence number the application has not yet claimed.
    next_app_seq: u64,
    /// Segments written by the app but never transmitted.
    backlog: VecDeque<u64>,
    /// Unacknowledged transmitted segments.
    inflight: BTreeMap<u64, InFlight>,
    cwnd: f64,
    ssthresh: f64,
    srtt_s: Option<f64>,
    rttvar_s: f64,
    rto: SimDuration,
    dup_acks: u32,
    /// Highest cumulative ACK received (next byte expected by receiver).
    acked_through: u64,
}

impl TcpSender {
    /// Creates a fresh sender in slow start.
    pub fn new(cfg: TcpConfig) -> Self {
        TcpSender {
            next_app_seq: 0,
            backlog: VecDeque::new(),
            inflight: BTreeMap::new(),
            cwnd: 1.0,
            ssthresh: cfg.initial_ssthresh,
            srtt_s: None,
            rttvar_s: 0.0,
            rto: SimDuration::from_secs(3.0),
            dup_acks: 0,
            acked_through: 0,
            cfg,
        }
    }

    /// Congestion window in segments.
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Current retransmission timeout.
    pub fn rto(&self) -> SimDuration {
        self.rto
    }

    /// Segments transmitted but not yet acknowledged.
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// Segments written but not yet transmitted.
    pub fn backlog(&self) -> usize {
        self.backlog.len()
    }

    /// The application writes one segment; returns the actions to apply.
    pub fn app_write(&mut self, now: SimTime) -> Vec<SenderAction> {
        let seq = self.next_app_seq;
        self.next_app_seq += 1;
        self.backlog.push_back(seq);
        self.pump(now)
    }

    /// A cumulative ACK for everything below `ack_seq` arrived.
    pub fn on_ack(&mut self, ack_seq: u64, now: SimTime) -> Vec<SenderAction> {
        let mut actions = Vec::new();
        if ack_seq <= self.acked_through {
            // Duplicate ACK.
            if !self.inflight.is_empty() {
                self.dup_acks += 1;
                if self.dup_acks == 3 {
                    // Fast retransmit + multiplicative decrease.
                    self.ssthresh = (self.inflight.len() as f64 / 2.0).max(2.0);
                    self.cwnd = self.ssthresh;
                    if let Some((&seq, info)) = self.inflight.iter_mut().next() {
                        info.retransmitted = true;
                        info.sent_at = now;
                        actions.push(SenderAction::Transmit { seq, retransmit: true });
                        actions.push(SenderAction::ArmRto);
                    }
                }
            }
            return actions;
        }
        self.dup_acks = 0;
        // RTT sample from the newest non-retransmitted segment (Karn).
        let mut newly_acked = 0;
        let acked: Vec<u64> = self.inflight.range(..ack_seq).map(|(&s, _)| s).collect();
        for seq in acked {
            let info = self.inflight.remove(&seq).expect("segment was in flight");
            newly_acked += 1;
            if !info.retransmitted && seq + 1 == ack_seq {
                self.rtt_sample(now.saturating_since(info.sent_at));
            }
        }
        self.acked_through = ack_seq;
        // Window growth: slow start doubles per RTT, congestion avoidance
        // adds ~1 segment per RTT.
        for _ in 0..newly_acked {
            if self.cwnd < self.ssthresh {
                self.cwnd += 1.0;
            } else {
                self.cwnd += 1.0 / self.cwnd;
            }
            self.cwnd = self.cwnd.min(self.cfg.max_window);
        }
        actions.extend(self.pump(now));
        if self.inflight.is_empty() {
            actions.push(SenderAction::CancelRto);
        } else {
            actions.push(SenderAction::ArmRto);
        }
        actions
    }

    /// The retransmission timer fired.
    pub fn on_rto(&mut self, now: SimTime) -> Vec<SenderAction> {
        let mut actions = Vec::new();
        if self.inflight.is_empty() {
            return actions;
        }
        // Timeout: collapse to slow start, back the timer off (Karn).
        self.ssthresh = (self.inflight.len() as f64 / 2.0).max(2.0);
        self.cwnd = 1.0;
        self.dup_acks = 0;
        self.rto = (self.rto * 2).min(self.cfg.max_rto);
        if let Some((&seq, info)) = self.inflight.iter_mut().next() {
            info.retransmitted = true;
            info.sent_at = now;
            actions.push(SenderAction::Transmit { seq, retransmit: true });
        }
        actions.push(SenderAction::ArmRto);
        actions
    }

    fn rtt_sample(&mut self, rtt: SimDuration) {
        let r = rtt.as_secs();
        match self.srtt_s {
            None => {
                self.srtt_s = Some(r);
                self.rttvar_s = r / 2.0;
            }
            Some(srtt) => {
                self.rttvar_s = 0.75 * self.rttvar_s + 0.25 * (srtt - r).abs();
                self.srtt_s = Some(0.875 * srtt + 0.125 * r);
            }
        }
        let rto_s = self.srtt_s.expect("just set") + 4.0 * self.rttvar_s;
        self.rto = SimDuration::from_secs(rto_s).max(self.cfg.min_rto).min(self.cfg.max_rto);
    }

    /// Transmit backlog segments while the window allows.
    fn pump(&mut self, now: SimTime) -> Vec<SenderAction> {
        let mut actions = Vec::new();
        while (self.inflight.len() as f64) < self.cwnd && !self.backlog.is_empty() {
            let seq = self.backlog.pop_front().expect("backlog checked non-empty");
            self.inflight.insert(seq, InFlight { sent_at: now, retransmitted: false });
            actions.push(SenderAction::Transmit { seq, retransmit: false });
        }
        if !actions.is_empty() {
            actions.push(SenderAction::ArmRto);
        }
        actions
    }
}

/// Receiver half: cumulative ACKs with out-of-order buffering. Segments
/// carry opaque app metadata `M` (the host keeps delivery bookkeeping in
/// it).
#[derive(Debug, Clone)]
pub struct TcpReceiver<M> {
    expected: u64,
    out_of_order: BTreeMap<u64, M>,
}

impl<M> Default for TcpReceiver<M> {
    fn default() -> Self {
        TcpReceiver { expected: 0, out_of_order: BTreeMap::new() }
    }
}

impl<M> TcpReceiver<M> {
    /// Creates a receiver expecting sequence 0.
    pub fn new() -> Self {
        TcpReceiver::default()
    }

    /// Next in-order sequence number expected (also the cumulative ACK to
    /// send).
    pub fn expected(&self) -> u64 {
        self.expected
    }

    /// A segment arrived; returns the app metadata of every segment that
    /// became deliverable in order (empty for duplicates/gaps). The caller
    /// sends back an ACK with [`TcpReceiver::expected`] afterwards.
    pub fn on_segment(&mut self, seq: u64, meta: M) -> Vec<M> {
        if seq < self.expected {
            return Vec::new(); // duplicate of something delivered
        }
        self.out_of_order.entry(seq).or_insert(meta);
        let mut delivered = Vec::new();
        while let Some(m) = self.out_of_order.remove(&self.expected) {
            delivered.push(m);
            self.expected += 1;
        }
        delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn transmits(actions: &[SenderAction]) -> Vec<u64> {
        actions
            .iter()
            .filter_map(|a| match a {
                SenderAction::Transmit { seq, .. } => Some(*seq),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn slow_start_opens_window() {
        let mut s = TcpSender::new(TcpConfig::default());
        // First write goes straight out (cwnd 1).
        assert_eq!(transmits(&s.app_write(t(0.0))), vec![0]);
        // Second write waits for the window.
        assert!(transmits(&s.app_write(t(0.01))).is_empty());
        assert_eq!(s.backlog(), 1);
        // ACK of segment 0 doubles the window: both pending flow out.
        s.app_write(t(0.02));
        let actions = s.on_ack(1, t(0.1));
        assert_eq!(transmits(&actions), vec![1, 2]);
        assert!(s.cwnd() >= 2.0);
    }

    #[test]
    fn triple_dup_ack_fast_retransmits() {
        let mut s = TcpSender::new(TcpConfig::default());
        for i in 0..8 {
            s.app_write(t(0.01 * f64::from(i)));
        }
        s.on_ack(1, t(0.2));
        s.on_ack(2, t(0.3)); // window now lets several out
        let before = s.cwnd();
        // Three duplicate ACKs for 2: fast retransmit of segment 2.
        assert!(transmits(&s.on_ack(2, t(0.4))).is_empty());
        assert!(transmits(&s.on_ack(2, t(0.45))).is_empty());
        let third = s.on_ack(2, t(0.5));
        assert_eq!(transmits(&third), vec![2]);
        assert!(s.cwnd() < before, "multiplicative decrease");
    }

    #[test]
    fn rto_collapses_to_slow_start_and_backs_off() {
        let mut s = TcpSender::new(TcpConfig::default());
        for i in 0..4 {
            s.app_write(t(0.01 * f64::from(i)));
        }
        s.on_ack(1, t(0.1));
        let rto_before = s.rto();
        let actions = s.on_rto(t(3.0));
        assert_eq!(transmits(&actions).len(), 1, "retransmit oldest only");
        assert_eq!(s.cwnd(), 1.0);
        assert_eq!(s.rto(), (rto_before * 2).min(SimDuration::from_secs(60.0)));
    }

    #[test]
    fn rtt_estimator_tracks_samples() {
        let mut s = TcpSender::new(TcpConfig::default());
        s.app_write(t(0.0));
        s.on_ack(1, t(0.1)); // 100 ms sample
        let rto1 = s.rto();
        assert!(rto1 >= SimDuration::from_millis(200.0));
        assert!(rto1 < SimDuration::from_secs(1.0), "rto should track the 100ms RTT: {rto1}");
    }

    #[test]
    fn karn_ignores_retransmitted_samples() {
        let mut s = TcpSender::new(TcpConfig::default());
        s.app_write(t(0.0));
        s.on_rto(t(3.0)); // segment 0 retransmitted
        let rto_backed_off = s.rto();
        // ACK arrives much later; must not poison the estimator with the
        // retransmission's ambiguous RTT.
        s.on_ack(1, t(9.0));
        assert!(s.rto() <= rto_backed_off);
    }

    #[test]
    fn receiver_delivers_in_order_only() {
        let mut r: TcpReceiver<&'static str> = TcpReceiver::new();
        assert_eq!(r.on_segment(1, "b"), Vec::<&str>::new());
        assert_eq!(r.expected(), 0);
        assert_eq!(r.on_segment(0, "a"), vec!["a", "b"]);
        assert_eq!(r.expected(), 2);
        // Duplicate of delivered data: nothing.
        assert_eq!(r.on_segment(1, "b2"), Vec::<&str>::new());
    }

    #[test]
    fn window_never_exceeds_cap() {
        let cfg = TcpConfig { max_window: 4.0, ..TcpConfig::default() };
        let mut s = TcpSender::new(cfg);
        for i in 0..50 {
            s.app_write(t(0.001 * f64::from(i)));
        }
        for i in 0..30u32 {
            s.on_ack(u64::from(i) + 1, t(1.0 + 0.05 * f64::from(i)));
        }
        assert!(s.cwnd() <= 4.0);
        assert!(s.inflight() <= 4);
    }
}
