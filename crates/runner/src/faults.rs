//! Fault-window state: which nodes are down, which regional windows are
//! open, and the corruption RNG.
//!
//! The driver owns *when* faults fire (they are queue events) and what
//! they do to the other layers (radio wipes, MAC resets, agent reboots);
//! this struct owns only the bookkeeping those handlers and the arrival
//! gates consult, so the counters that make the hot-path probes O(1)
//! (`down_count`, `region_active`) cannot drift from the flags they
//! summarize.

use mobility::Point;
use sim_core::{SimRng, SimTime};

use crate::config::FaultEvent;

pub(crate) struct FaultState {
    /// Per-node crash/sleep flag ([`FaultEvent::NodeDown`],
    /// [`FaultEvent::NodeChurn`], [`FaultEvent::RadioDutyCycle`]).
    node_down: Vec<bool>,
    /// Number of `true` entries in `node_down`.
    down_count: u32,
    /// When each down node comes back up (meaningful while down).
    node_up_at: Vec<SimTime>,
    /// A [`FaultEvent::NodeChurn`] owes this node a protocol-state reset
    /// at whichever wake-up actually revives it (overlapping crashes can
    /// extend the outage past the churn's own end event).
    churn_reset_pending: Vec<bool>,
    /// Number of currently open regional suppression windows
    /// ([`FaultEvent::RegionBlackout`]).
    region_active: u32,
    /// Whether window fault `idx` of the plan is currently open.
    active: Vec<bool>,
    /// Whether fault `idx` was already counted in the metrics.
    fired: Vec<bool>,
    /// Dedicated stream for corruption draws, independent of every
    /// protocol stream so adding faults never perturbs protocol behaviour.
    rng: SimRng,
}

impl FaultState {
    pub(crate) fn new(nodes: usize, faults: usize, rng: SimRng) -> Self {
        FaultState {
            node_down: vec![false; nodes],
            down_count: 0,
            node_up_at: vec![SimTime::ZERO; nodes],
            churn_reset_pending: vec![false; nodes],
            region_active: 0,
            active: vec![false; faults],
            fired: vec![false; faults],
            rng,
        }
    }

    #[inline]
    pub(crate) fn is_down(&self, node: usize) -> bool {
        self.node_down[node]
    }

    /// When down node `node` wakes: suspended timers re-arm for then.
    pub(crate) fn up_at(&self, node: usize) -> SimTime {
        self.node_up_at[node]
    }

    /// Whether a receiver at `p` sits inside an open blackout window of
    /// `plan`.
    #[inline]
    pub(crate) fn in_blackout(&self, plan: &[FaultEvent], p: Point) -> bool {
        if self.region_active == 0 {
            return false;
        }
        plan.iter().enumerate().any(|(idx, f)| {
            self.active[idx]
                && matches!(f, FaultEvent::RegionBlackout { zone, .. } if zone.contains(p))
        })
    }

    /// Whether any suppression window is open anywhere — the planner's cue
    /// to back every arrival boundary with a real event so the window can
    /// gate it at dispatch time.
    #[inline]
    pub(crate) fn suppression_active(&self) -> bool {
        self.down_count > 0 || self.region_active > 0
    }

    /// Per-arrival corruption probability right now: the union of all open
    /// [`FaultEvent::FrameCorruption`] windows of `plan`.
    pub(crate) fn corruption_prob(&self, plan: &[FaultEvent]) -> f64 {
        let mut p_ok = 1.0f64;
        for (idx, f) in plan.iter().enumerate() {
            if let FaultEvent::FrameCorruption { prob, .. } = f {
                if self.active[idx] {
                    p_ok *= 1.0 - prob.clamp(0.0, 1.0);
                }
            }
        }
        1.0 - p_ok
    }

    /// Draws one arrival's corruption verdict. No draw is made outside
    /// corruption windows, so fault-free runs never touch the stream.
    #[inline]
    pub(crate) fn draw_corrupted(&mut self, p_corrupt: f64) -> bool {
        p_corrupt > 0.0 && sim_core::rng::uniform(&mut self.rng, 0.0, 1.0) < p_corrupt
    }

    /// `true` the first time fault `idx` fires, so the metrics count it
    /// once however often its activation event re-fires (a duty cycle, an
    /// [`FaultEvent::EventStorm`]).
    pub(crate) fn count_once(&mut self, idx: usize) -> bool {
        !std::mem::replace(&mut self.fired[idx], true)
    }

    /// Marks `node` down until at least `until`; an overlapping outage can
    /// only extend the wake-up.
    pub(crate) fn take_down(&mut self, node: usize, until: SimTime) {
        if !self.node_down[node] {
            self.node_down[node] = true;
            self.down_count += 1;
        }
        if until > self.node_up_at[node] {
            self.node_up_at[node] = until;
        }
    }

    /// Records that `node` must reboot its protocol state when it wakes.
    pub(crate) fn owe_churn_reset(&mut self, node: usize) {
        self.churn_reset_pending[node] = true;
    }

    /// A wake-up event for `node` fired at `now`: brings the node up
    /// unless a later outage still holds it down. Returns whether the
    /// caller owes it a churn revival reset.
    pub(crate) fn wake(&mut self, node: usize, now: SimTime) -> bool {
        if !self.node_down[node] || now < self.node_up_at[node] {
            return false;
        }
        self.node_down[node] = false;
        self.down_count -= 1;
        std::mem::take(&mut self.churn_reset_pending[node])
    }

    /// Opens window fault `idx`; `regional` windows suppress arrivals.
    pub(crate) fn open_window(&mut self, idx: usize, regional: bool) {
        self.active[idx] = true;
        self.region_active += u32::from(regional);
    }

    /// Closes window fault `idx`.
    pub(crate) fn close_window(&mut self, idx: usize, regional: bool) {
        self.active[idx] = false;
        self.region_active -= u32::from(regional);
    }
}
