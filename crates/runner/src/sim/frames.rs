//! The frame store: each transmission's [`MacFrame`], kept once for all of
//! its receivers (DESIGN.md §9, "The frame store").
//!
//! A receiver's pending entry and lock carry only the [`TxId`]; a decode
//! looks the frame up here. Frames sit in a ring in tx-id order, and the
//! oldest one leaves once simulated time has passed its transmission's end
//! plus the longest propagation delay among its links: every decode of the
//! frame falls at `start + delay + airtime`, at or before that instant.
//! The driver releases lazily, when a transmission starts, and the ring's
//! slots are recycled, so the store allocates only while it grows.

use std::collections::VecDeque;

use mac::MacFrame;
use phy::TxId;
use sim_core::SimTime;

/// One transmission's frame and the last instant it can be decoded at.
#[derive(Debug)]
struct Slot<P> {
    tx_id: TxId,
    last_decode: SimTime,
    frame: MacFrame<P>,
}

/// The frames of the transmissions still on the air somewhere, oldest
/// first.
#[derive(Debug)]
pub(super) struct Frames<P> {
    ring: VecDeque<Slot<P>>,
}

impl<P> Frames<P> {
    pub(super) fn new() -> Self {
        Frames { ring: VecDeque::new() }
    }

    /// Keeps `frame`, of transmission `tx_id`, until simulated time has
    /// passed `last_decode`. Transmissions arrive in tx-id order.
    pub(super) fn insert(&mut self, tx_id: TxId, last_decode: SimTime, frame: MacFrame<P>) {
        debug_assert!(
            self.ring.back().is_none_or(|last| last.tx_id + 1 == tx_id),
            "tx ids are handed out in sequence"
        );
        self.ring.push_back(Slot { tx_id, last_decode, frame });
    }

    /// Releases, oldest first, every frame whose last decode lies before
    /// `now`. A frame behind an older one that is still live waits for it.
    pub(super) fn release_before(&mut self, now: SimTime) {
        while self.ring.front().is_some_and(|slot| slot.last_decode < now) {
            self.ring.pop_front();
        }
    }

    /// The frame of transmission `tx_id`, or `None` once it is released.
    pub(super) fn get(&self, tx_id: TxId) -> Option<&MacFrame<P>> {
        let oldest = self.ring.front()?.tx_id;
        let slot = self.ring.get(usize::try_from(tx_id.checked_sub(oldest)?).ok()?)?;
        debug_assert_eq!(slot.tx_id, tx_id, "the ring holds consecutive tx ids");
        Some(&slot.frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mac::FrameKind;
    use sim_core::{NodeId, SimDuration};

    fn frame(src: u16, payload: Option<u32>) -> MacFrame<u32> {
        MacFrame {
            kind: if payload.is_some() { FrameKind::Data } else { FrameKind::Ack },
            src: NodeId::new(src),
            dst: NodeId::new(0),
            bytes: 100,
            nav: SimDuration::ZERO,
            seq: 0,
            payload,
        }
    }

    fn us(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1_000)
    }

    #[test]
    fn a_frame_stays_through_its_last_decode_and_then_goes_in_order() {
        let mut frames = Frames::new();
        frames.insert(7, us(500), frame(1, Some(11)));
        frames.insert(8, us(100), frame(2, None));
        frames.insert(9, us(300), frame(3, Some(33)));
        assert_eq!(frames.get(6), None, "never stored");
        assert_eq!(frames.get(10), None, "not yet stored");
        assert_eq!(frames.get(8).map(|f| f.src), Some(NodeId::new(2)));
        // A decode at exactly the last instant still finds the frame.
        frames.release_before(us(500));
        assert_eq!(frames.get(7).and_then(|f| f.payload), Some(11));
        // Past it, the oldest goes, and with it every younger frame whose
        // own instant has passed too; the rest keep their ids.
        frames.release_before(us(501));
        assert_eq!(frames.get(7), None);
        assert_eq!(frames.get(8), None);
        assert_eq!(frames.get(9), None);
        frames.insert(10, us(900), frame(4, Some(44)));
        assert_eq!(frames.get(10).and_then(|f| f.payload), Some(44));
    }

    #[test]
    fn a_young_frame_waits_behind_an_older_live_one() {
        let mut frames = Frames::new();
        frames.insert(0, us(900), frame(1, Some(1)));
        frames.insert(1, us(100), frame(2, Some(2)));
        frames.release_before(us(200));
        assert_eq!(frames.get(1).and_then(|f| f.payload), Some(2), "released lazily");
        assert_eq!(frames.get(0).and_then(|f| f.payload), Some(1));
    }

    #[test]
    fn recycled_slots_keep_the_ring_at_its_peak() {
        let mut frames = Frames::new();
        for tx_id in 0..10_000u64 {
            frames.release_before(us(tx_id));
            frames.insert(tx_id, us(tx_id + 3), frame(1, Some(tx_id as u32)));
            assert_eq!(frames.get(tx_id).and_then(|f| f.payload), Some(tx_id as u32));
        }
        assert!(frames.ring.len() <= 4 && frames.ring.capacity() <= 8, "{:?}", frames.ring.len());
    }

    /// The store's peak heap is the peak number of frames in flight times
    /// a slot, rounded up to the ring's power-of-two capacity: 16 bytes
    /// over a DSR frame.
    #[test]
    fn slot_layout_is_pinned() {
        use packet::RoutingAgent;
        type Dsr = <dsr::DsrNode as RoutingAgent>::Packet;
        assert_eq!(std::mem::size_of::<MacFrame<Dsr>>(), 104);
        assert_eq!(std::mem::size_of::<Slot<Dsr>>(), 120);
    }
}
