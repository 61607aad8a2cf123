//! Link state: drop-tail queues, serialization, and utilization estimation.
//!
//! Each directed link owns a FIFO byte-bounded queue (default 1000 MSS, the
//! paper's buffer size) and a Hula-style decaying utilization estimator
//! that the dataplane reads when updating probe metric vectors.
//!
//! A busy link serializes one packet at a time: every serialization start
//! schedules its own `TxDone` completion, and that completion starts the
//! next queued packet.

use crate::packet::Packet;
use crate::time::{tx_time, Time};
use std::collections::VecDeque;

/// Decaying byte counter: `u ← u·(1 − Δt/τ) + size`, reset after a full
/// idle window. Normalized against `bandwidth · τ` this estimates link
/// utilization on the probe timescale — exactly the estimator Hula uses,
/// which Contra's `path.util` inherits.
#[derive(Debug, Clone)]
pub struct UtilEstimator {
    bytes: f64,
    last: Time,
    tau: Time,
}

impl UtilEstimator {
    /// New estimator with averaging window `tau`.
    pub fn new(tau: Time) -> UtilEstimator {
        assert!(tau.0 > 0, "estimator window must be positive");
        UtilEstimator {
            bytes: 0.0,
            last: Time::ZERO,
            tau,
        }
    }

    fn decay(&mut self, now: Time) {
        let dt = now.saturating_sub(self.last);
        if dt >= self.tau {
            self.bytes = 0.0;
        } else {
            self.bytes *= 1.0 - dt.0 as f64 / self.tau.0 as f64;
        }
        self.last = self.last.max(now);
    }

    /// Records a transmission of `size` bytes at `now`.
    pub fn on_tx(&mut self, size: u32, now: Time) {
        self.decay(now);
        self.bytes += size as f64;
    }

    /// Forces the estimator to read exactly `util` for a link of the given
    /// capacity when sampled at `at`. For protocol harnesses and fault
    /// injection in tests — production code only feeds [`UtilEstimator::on_tx`].
    pub fn force_utilization(&mut self, bandwidth_bps: f64, util: f64, at: Time) {
        assert!(util >= 0.0 && util.is_finite());
        self.last = at;
        self.bytes = util * bandwidth_bps * self.tau.as_secs_f64() / 8.0;
    }

    /// Estimated utilization in `[0, ~2]` of a link with the given
    /// capacity, decayed to `now`.
    pub fn utilization(&self, bandwidth_bps: f64, now: Time) -> f64 {
        let dt = now.saturating_sub(self.last);
        if dt >= self.tau {
            return 0.0;
        }
        let decayed = self.bytes * (1.0 - dt.0 as f64 / self.tau.0 as f64);
        let window_bytes = bandwidth_bps * self.tau.as_secs_f64() / 8.0;
        decayed / window_bytes
    }
}

/// Why a packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DropReason {
    /// Tail drop: the queue was full.
    QueueFull,
    /// The link was down.
    LinkDown,
    /// TTL reached zero (forwarding loop safety net).
    TtlExpired,
    /// The routing logic had no usable entry / policy forbade the path.
    NoRoute,
}

/// Runtime state of one directed link.
#[derive(Debug)]
pub struct LinkState {
    /// Capacity (bits/second), copied from the topology.
    pub bandwidth_bps: f64,
    /// One-way propagation delay.
    pub delay: Time,
    /// Queue capacity in bytes.
    pub qcap_bytes: u32,
    /// Queued packets (head is next to transmit).
    queue: VecDeque<Packet>,
    /// Bytes of queued packets (drop-tail capacity and queue-occupancy
    /// sampling both measure this).
    queued_bytes: u32,
    /// Whether a packet is currently being serialized.
    busy: bool,
    /// Link up/down.
    pub up: bool,
    /// Utilization estimator fed by transmissions on this link.
    pub estimator: UtilEstimator,
    /// Lifetime counters.
    pub bytes_tx: u64,
    /// Packets dropped at this link's queue.
    pub drops: u64,
    /// Bumped on every `set_down`, so in-flight serializer-completion
    /// events from before a failure can be recognized as stale.
    pub epoch: u64,
    /// Whether the utilization estimator is fed at all. The engine
    /// clears this before a run when nothing can observe the estimate —
    /// no installed logic reads utilization
    /// ([`crate::switch::SwitchLogic::reads_link_util`]) and no
    /// telemetry recorder samples links — so purely static systems
    /// (ECMP, SP, SPAIN) skip the per-transmission decay fold.
    pub(crate) track_util: bool,
    /// Last `(size, tx_time)` computed for this link. Capacity is fixed
    /// for a link's lifetime and traffic on one *directed* link is
    /// near-homogeneous (full segments one way, ACKs the other), so this
    /// one-entry memo removes the floating-point round from almost every
    /// serialization. Pure memoization: identical values, byte-identical
    /// schedules.
    tx_memo: (u32, Time),
}

/// What `enqueue` decided.
#[derive(Debug, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// Packet queued; the link was idle, so serialization of this packet
    /// starts immediately — caller must schedule `start_tx`.
    StartTx,
    /// Packet queued behind others.
    Queued,
    /// Packet dropped.
    Dropped(DropReason),
}

impl LinkState {
    /// Fresh link state.
    pub fn new(bandwidth_bps: f64, delay: Time, qcap_bytes: u32, tau: Time) -> LinkState {
        LinkState {
            bandwidth_bps,
            delay,
            qcap_bytes,
            queue: VecDeque::new(),
            queued_bytes: 0,
            busy: false,
            up: true,
            estimator: UtilEstimator::new(tau),
            bytes_tx: 0,
            drops: 0,
            epoch: 0,
            track_util: true,
            // Size 0 never occurs (every packet carries headers), so the
            // sentinel can never mask a real lookup.
            tx_memo: (0, Time::ZERO),
        }
    }

    /// Serialization time of `bytes` on this link, through the one-entry
    /// memo.
    #[inline]
    fn tx_of(&mut self, bytes: u32) -> Time {
        if self.tx_memo.0 == bytes {
            return self.tx_memo.1;
        }
        let t = tx_time(bytes, self.bandwidth_bps);
        self.tx_memo = (bytes, t);
        t
    }

    /// Offers a packet to the queue.
    pub fn enqueue(&mut self, pkt: Packet) -> EnqueueOutcome {
        if !self.up {
            self.drops += 1;
            return EnqueueOutcome::Dropped(DropReason::LinkDown);
        }
        if self.queued_bytes + pkt.size_bytes > self.qcap_bytes {
            self.drops += 1;
            return EnqueueOutcome::Dropped(DropReason::QueueFull);
        }
        self.queued_bytes += pkt.size_bytes;
        self.queue.push_back(pkt);
        if self.busy {
            EnqueueOutcome::Queued
        } else {
            self.busy = true;
            EnqueueOutcome::StartTx
        }
    }

    /// Begins serializing the head packet at `now`. Returns the packet and
    /// its transmission time; the caller schedules arrival (`+ delay`) and
    /// the next `tx_done`.
    pub fn start_tx(&mut self, now: Time) -> Option<(Packet, Time)> {
        debug_assert!(self.busy);
        let pkt = self.queue.pop_front()?;
        self.queued_bytes -= pkt.size_bytes;
        if self.track_util {
            self.estimator.on_tx(pkt.size_bytes, now);
        }
        self.bytes_tx += pkt.size_bytes as u64;
        let t = self.tx_of(pkt.size_bytes);
        Some((pkt, t))
    }

    /// Called when the serializer finishes a packet. Returns `true` if
    /// another packet is waiting (caller should `start_tx` again).
    pub fn tx_done(&mut self) -> bool {
        if self.queue.is_empty() {
            self.busy = false;
            false
        } else {
            true
        }
    }

    /// Takes the link down, discarding every packet whose serialization
    /// had not started. Returns the flushed packets so the caller can
    /// account the drops; the packet on the wire, if any, still arrives.
    pub fn set_down(&mut self) -> VecDeque<Packet> {
        self.up = false;
        self.busy = false;
        self.epoch += 1;
        self.drops += self.queue.len() as u64;
        self.queued_bytes = 0;
        std::mem::take(&mut self.queue)
    }

    /// Brings the link back up.
    pub fn set_up(&mut self) {
        self.up = true;
    }

    /// Estimated utilization at `now`.
    pub fn utilization(&self, now: Time) -> f64 {
        self.estimator.utilization(self.bandwidth_bps, now)
    }

    /// Bytes awaiting serialization.
    pub fn queued_bytes(&self) -> u32 {
        self.queued_bytes
    }

    /// Packets awaiting serialization.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Queued packets (auditor view).
    pub(crate) fn audit_queue(&self) -> impl Iterator<Item = &Packet> {
        self.queue.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, PacketKind, INITIAL_TTL};
    use contra_topology::NodeId;

    fn pkt(size: u32) -> Packet {
        Packet {
            id: 0,
            kind: PacketKind::Udp,
            src_host: NodeId(0),
            dst_host: NodeId(1),
            dst_switch: NodeId(1),
            flow: FlowId(0),
            seq: 0,
            size_bytes: size,
            sent_at: Time::ZERO,
            tag: 0,
            pid: 0,
            ttl: INITIAL_TTL,
            flow_hash: 0,
        }
    }

    #[test]
    fn estimator_decays_to_zero() {
        let mut e = UtilEstimator::new(Time::us(100));
        // Saturate a 10 Gbps link for the whole window: 125 kB / 100 µs.
        e.on_tx(125_000, Time::ZERO);
        let u0 = e.utilization(10e9, Time::ZERO);
        assert!((u0 - 1.0).abs() < 1e-9, "{u0}");
        let u_half = e.utilization(10e9, Time::us(50));
        assert!((u_half - 0.5).abs() < 1e-9, "{u_half}");
        assert_eq!(e.utilization(10e9, Time::us(100)), 0.0);
    }

    #[test]
    fn estimator_accumulates() {
        let mut e = UtilEstimator::new(Time::us(100));
        for i in 0..10 {
            e.on_tx(12_500, Time::us(i * 10));
        }
        let u = e.utilization(10e9, Time::us(90));
        assert!(u > 0.5 && u < 1.1, "{u}");
    }

    #[test]
    fn queue_tail_drop() {
        let mut l = LinkState::new(10e9, Time::us(1), 3_000, Time::us(100));
        assert_eq!(l.enqueue(pkt(1_500)), EnqueueOutcome::StartTx);
        assert_eq!(l.enqueue(pkt(1_500)), EnqueueOutcome::Queued);
        assert_eq!(
            l.enqueue(pkt(1_500)),
            EnqueueOutcome::Dropped(DropReason::QueueFull)
        );
        assert_eq!(l.drops, 1);
        assert_eq!(l.queue_len(), 2);
    }

    #[test]
    fn serialization_cycle() {
        let mut l = LinkState::new(10e9, Time::us(1), 10_000, Time::us(100));
        l.enqueue(pkt(1_500));
        l.enqueue(pkt(1_500));
        let (p1, t1) = l.start_tx(Time::ZERO).unwrap();
        assert_eq!(p1.size_bytes, 1_500);
        assert_eq!(t1, Time::ns(1_200));
        assert!(l.tx_done(), "second packet pending");
        let (_p2, _) = l.start_tx(t1).unwrap();
        assert!(!l.tx_done(), "queue drained");
        assert_eq!(l.bytes_tx, 3_000);
    }

    #[test]
    fn down_link_drops_everything() {
        let mut l = LinkState::new(10e9, Time::us(1), 10_000, Time::us(100));
        l.enqueue(pkt(1_500));
        l.enqueue(pkt(1_500));
        let lost = l.set_down();
        assert_eq!(lost.len(), 2);
        assert_eq!(
            l.enqueue(pkt(100)),
            EnqueueOutcome::Dropped(DropReason::LinkDown)
        );
        l.set_up();
        assert_eq!(l.enqueue(pkt(100)), EnqueueOutcome::StartTx);
    }
}
