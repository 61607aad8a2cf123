//! The engine's link-layer driver: how packets enter serializers and
//! how completions fan back into the event loop.
//!
//! Split out of `engine.rs` so the dispatcher stays a readable core; the
//! methods here are the only code that schedules link events.

use super::{Event, SimCore};
use crate::link::{DropReason, EnqueueOutcome};
use crate::packet::{Packet, PacketKind};
use crate::stats::TrafficKind;
use crate::switch::SwitchLogic;
use contra_topology::{LinkId, NodeId};

impl<L: SwitchLogic> SimCore<L> {
    /// Queues `pkt` on the link `from → to`, starting the serializer if
    /// idle. Handles TTL decrement on switch-to-switch hops.
    pub(super) fn transmit(&mut self, from: NodeId, to: NodeId, mut pkt: Packet) {
        if let Some(aud) = self.audit.as_deref_mut() {
            aud.offered += 1;
        }
        let Some(lid) = self.topo.link_between(from, to) else {
            debug_assert!(false, "no link {from}→{to}");
            if let Some(aud) = self.audit.as_deref_mut() {
                aud.lost += 1;
            }
            let probe = matches!(pkt.kind, PacketKind::Probe(_));
            self.stats.on_drop_at(DropReason::NoRoute, self.now, probe);
            self.traces.forget(pkt.id);
            return;
        };
        if self.fabric_link[lid.0 as usize]
            && (pkt.carries_payload() || matches!(pkt.kind, PacketKind::Ack { .. }))
        {
            if pkt.ttl == 0 {
                if self.debug_ttl {
                    eprintln!(
                        "TTL death: {:?} flow={:?} seq={} dst_sw={} trace_tail={:?}",
                        pkt.kind,
                        pkt.flow,
                        pkt.seq,
                        pkt.dst_switch,
                        self.traces.tail(pkt.id),
                    );
                }
                if let Some(aud) = self.audit.as_deref_mut() {
                    aud.lost += 1;
                }
                self.stats
                    .on_drop_at(DropReason::TtlExpired, self.now, false);
                self.traces.forget(pkt.id);
                if let Some(rec) = self.telem.as_deref_mut() {
                    rec.drop_event(self.now, DropReason::TtlExpired, Some(lid.0));
                }
                return;
            }
            pkt.ttl -= 1;
        }
        self.enqueue_on(lid, pkt);
    }

    /// Applies one [`crate::transport::TransportEffect::SendBurst`]:
    /// mints and enqueues `count` consecutive data segments onto the
    /// host's access link. The link is resolved once for the whole burst,
    /// and the TTL branch of [`SimCore::transmit`] is skipped statically —
    /// a host's access link is never a fabric link, so `transmit` would
    /// never take it for these packets. Per-packet accounting (audit
    /// offers, wire stats, drop handling) is unchanged: each segment goes
    /// through [`SimCore::enqueue_on`] exactly as a per-packet `Send`
    /// would.
    pub(super) fn send_burst(
        &mut self,
        flow: u32,
        src: NodeId,
        via: NodeId,
        first_seq: u32,
        count: u32,
    ) {
        let Some(lid) = self.topo.link_between(src, via) else {
            // No access link: fall back to per-packet `transmit`, whose
            // missing-link path carries the accounting.
            for seq in first_seq..first_seq + count {
                if let Some(pkt) = self.transport.mint_data(flow, seq, self.now) {
                    self.transmit(src, via, pkt);
                }
            }
            return;
        };
        debug_assert!(!self.fabric_link[lid.0 as usize], "access links only");
        for seq in first_seq..first_seq + count {
            let Some(pkt) = self.transport.mint_data(flow, seq, self.now) else {
                // Vacated flow slot (cannot happen between a handler and
                // its effect application; defensive).
                continue;
            };
            if let Some(aud) = self.audit.as_deref_mut() {
                aud.offered += 1;
            }
            self.enqueue_on(lid, pkt);
        }
    }

    /// The shared enqueue tail of [`SimCore::transmit`] and
    /// [`SimCore::send_burst`]: hands `pkt` to `lid`'s serializer and
    /// performs the per-packet wire/drop accounting.
    fn enqueue_on(&mut self, lid: LinkId, pkt: Packet) {
        let kind = traffic_kind(&pkt);
        let size = pkt.size_bytes;
        let id = pkt.id;
        let link = &mut self.links[lid.0 as usize];
        match link.enqueue(pkt) {
            EnqueueOutcome::StartTx => {
                self.stats.on_wire(kind, size);
                if let Some(rec) = self.telem.as_deref_mut() {
                    // Idle→busy transition: a fresh serializer busy period.
                    rec.tx_start(self.now, lid.0);
                }
                self.start_tx(lid);
            }
            EnqueueOutcome::Queued => {
                self.stats.on_wire(kind, size);
            }
            EnqueueOutcome::Dropped(reason) => {
                if let Some(aud) = self.audit.as_deref_mut() {
                    aud.lost += 1;
                }
                self.stats
                    .on_drop_at(reason, self.now, kind == TrafficKind::Probe);
                self.traces.forget(id);
                if let Some(rec) = self.telem.as_deref_mut() {
                    rec.drop_event(self.now, reason, Some(lid.0));
                }
            }
        }
    }

    /// Starts serializing the link's head packet: schedules its arrival
    /// at the far end and the serializer completion that starts the next.
    pub(super) fn start_tx(&mut self, lid: LinkId) {
        let link = &mut self.links[lid.0 as usize];
        let Some((pkt, tx)) = link.start_tx(self.now) else {
            return;
        };
        let delay = link.delay;
        let epoch = link.epoch;
        let l = self.topo.link(lid);
        let (from, to) = (l.src, l.dst);
        let arrive_at = self.now + tx + delay;
        let done_at = self.now + tx;
        if arrive_at > self.cfg.stop_at {
            // The arrival below is never enqueued: the packet stays in
            // the pool at end of run by design, not as a leak.
            if let Some(aud) = self.audit.as_deref_mut() {
                aud.stop_cut += 1;
            }
        }
        let (slot, gen) = self.pool.insert(pkt);
        self.push_arrival(
            arrive_at,
            lid,
            Event::Arrive {
                node: to,
                from,
                pkt: slot,
                gen,
            },
        );
        self.push_completion(done_at, Event::TxDone { link: lid, epoch });
    }

    /// Serializer completion: starts the next queued packet, if any.
    /// Stale completions from before a failure (epoch mismatch) are
    /// ignored — were they honored, a flap could double-start the
    /// serializer.
    pub(super) fn on_tx_done(&mut self, lid: LinkId, epoch: u64) {
        let link = &mut self.links[lid.0 as usize];
        // Audit: an event addressed to the *current* epoch of a down
        // link would mean `set_down` failed to bump the epoch — every
        // legitimately stale completion carries an older epoch.
        if self.audit.is_some() && !link.up && link.epoch == epoch {
            panic!(
                "audit: TxDone addressed to live epoch {epoch} of down link {} at {}",
                lid.0, self.now
            );
        }
        if !link.up || link.epoch != epoch {
            return; // stale completion from before a failure
        }
        if link.tx_done() {
            self.start_tx(lid);
        }
    }

    /// A cable direction fails: packets whose serialization had not
    /// started are lost and counted ([`DropReason::LinkDown`]), and the
    /// link epoch advances so in-flight completions are recognized as
    /// stale. The packet already on the wire still arrives.
    pub(super) fn take_link_down(&mut self, lid: LinkId) {
        let flushed = self.links[lid.0 as usize].set_down();
        if let Some(aud) = self.audit.as_deref_mut() {
            aud.lost += flushed.len() as u64;
        }
        for pkt in &flushed {
            let probe = matches!(pkt.kind, PacketKind::Probe(_));
            self.stats.on_drop_at(DropReason::LinkDown, self.now, probe);
            self.traces.forget(pkt.id);
            if let Some(rec) = self.telem.as_deref_mut() {
                rec.drop_event(self.now, DropReason::LinkDown, Some(lid.0));
            }
        }
    }
}

fn traffic_kind(pkt: &Packet) -> TrafficKind {
    match pkt.kind {
        PacketKind::Data => TrafficKind::Data,
        PacketKind::Ack { .. } => TrafficKind::Ack,
        PacketKind::Udp => TrafficKind::Udp,
        PacketKind::Probe(_) => TrafficKind::Probe,
    }
}
