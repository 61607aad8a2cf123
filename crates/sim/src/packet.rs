//! Packets: the unit of everything the simulator moves.
//!
//! One struct covers data, ACKs, UDP and probes; routing systems read and
//! write the Contra header fields (`tag`, `pid`) which double as the path
//! selector for SPAIN's static multipath. Sizes are explicit so byte
//! accounting (Fig 16, traffic overhead) is exact.

use crate::time::Time;
use contra_topology::NodeId;

/// Flow identifier (index into the simulator's flow table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u32);

/// Ethernet+IP+transport header bytes accounted per data/ACK packet.
pub const HDR_BYTES: u32 = 40;
/// Maximum segment size for data packets (bytes of payload).
pub const MSS: u32 = 1460;
/// Base size of a Contra/Hula probe before per-metric fields (origin,
/// pid, version, tag and framing).
pub const PROBE_BASE_BYTES: u32 = 24;

/// What a packet is.
#[derive(Debug, Clone, PartialEq)]
pub enum PacketKind {
    /// TCP-like data segment.
    Data,
    /// Cumulative acknowledgement.
    Ack {
        /// Next expected sequence number at the receiver.
        ack_seq: u32,
        /// Echo of the triggering segment's send timestamp (RTT sampling).
        echo_ts: Time,
    },
    /// Constant-rate datagram (failure-recovery experiment, Fig 14).
    Udp,
    /// A routing probe (Contra or Hula).
    Probe(Probe),
}

/// The probe header of the synthesized protocol (Fig 7: `origin`, `pid`,
/// `mv`, `tag`, plus the §5.1 version number).
#[derive(Debug, Clone, PartialEq)]
pub struct Probe {
    /// Topology location of the originating (destination) switch.
    pub origin: NodeId,
    /// Probe id — which decomposed subpolicy this probe serves.
    pub pid: u8,
    /// Per-origin round number; stale probes are recognizable (§5.1).
    pub version: u32,
    /// Product-graph virtual node the probe currently sits at.
    pub tag: u32,
    /// Metric vector `[util, lat_seconds, len_hops]`.
    pub mv: [f64; 3],
}

/// A simulated packet.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// Globally unique id (assigned by the engine).
    pub id: u64,
    /// Payload class.
    pub kind: PacketKind,
    /// Sending host (or switch, for probes).
    pub src_host: NodeId,
    /// Destination host (meaningless for probes).
    pub dst_host: NodeId,
    /// Access switch of the destination host — the routing key.
    pub dst_switch: NodeId,
    /// Flow this packet belongs to.
    pub flow: FlowId,
    /// Sequence number within the flow (data/ACK).
    pub seq: u32,
    /// Wire size in bytes (headers included).
    pub size_bytes: u32,
    /// Send timestamp at the source host (echoed by ACKs for RTT).
    pub sent_at: Time,
    /// Contra packet tag: the product-graph virtual node the packet is
    /// *arriving at*; also reused as SPAIN's path index.
    pub tag: u32,
    /// Contra probe-id the forwarding entry was selected from.
    pub pid: u8,
    /// Hop budget; packets are dropped at zero (loop safety net).
    pub ttl: u8,
    /// Hash of the flow five-tuple — flowlet tables key on this.
    pub flow_hash: u64,
}

/// Initial TTL for data traffic.
pub const INITIAL_TTL: u8 = 64;

impl Packet {
    /// True for probe packets.
    pub fn is_probe(&self) -> bool {
        matches!(self.kind, PacketKind::Probe(_))
    }

    /// True for data or UDP payload-carrying packets.
    pub fn carries_payload(&self) -> bool {
        matches!(self.kind, PacketKind::Data | PacketKind::Udp)
    }
}

/// Slab of in-flight packets referenced by scheduled arrival events.
/// Slots are recycled LIFO, so the working set stays cache-resident.
///
/// Each slot carries a **generation** counter, bumped on every release:
/// an arrival event addresses `(slot, gen)`. Every scheduled arrival owns
/// its packet's slot exactly once — nothing cancels an arrival, not even
/// a link failure, which only drops packets still queued — so a stale
/// generation is an engine bug and [`PacketPool::take`] panics on it,
/// even if the slot has been reused since.
#[derive(Debug, Default)]
pub(crate) struct PacketPool {
    /// Generation lives beside its packet so a take touches one slot,
    /// not two parallel arrays.
    slots: Vec<(u32, Option<Packet>)>,
    free: Vec<u32>,
}

impl PacketPool {
    /// Stores a packet, returning its `(slot, generation)` handle.
    #[inline]
    pub(crate) fn insert(&mut self, pkt: Packet) -> (u32, u32) {
        match self.free.pop() {
            Some(i) => {
                let slot = &mut self.slots[i as usize];
                debug_assert!(slot.1.is_none());
                slot.1 = Some(pkt);
                (i, slot.0)
            }
            None => {
                self.slots.push((0, Some(pkt)));
                ((self.slots.len() - 1) as u32, 0)
            }
        }
    }

    /// Removes and returns the packet behind a handle.
    ///
    /// # Panics
    ///
    /// On a stale handle: every scheduled arrival is taken exactly once,
    /// so a second take (or one from before the slot was recycled) means
    /// the engine scheduled an arrival twice.
    #[inline]
    pub(crate) fn take(&mut self, slot: u32, gen: u32) -> Packet {
        let s = &mut self.slots[slot as usize];
        assert!(
            s.0 == gen,
            "packet pool: stale arrival handle (slot {slot}, gen {gen}, live gen {}) — \
             every scheduled arrival must take its packet exactly once",
            s.0
        );
        let pkt = s.1.take().expect("packet slot is live");
        s.0 = s.0.wrapping_add(1);
        self.free.push(slot);
        pkt
    }

    /// Number of live packets (auditor view; off the hot path, so a scan
    /// beats carrying a counter every insert/take).
    pub(crate) fn live(&self) -> u64 {
        self.slots.iter().filter(|(_, p)| p.is_some()).count() as u64
    }

    /// Ids of live packets (auditor view).
    pub(crate) fn live_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots
            .iter()
            .filter_map(|(_, p)| p.as_ref().map(|p| p.id))
    }
}

/// Deterministic 64-bit mix of a flow id (stand-in for a five-tuple hash).
/// SplitMix64 finalizer: well distributed, stable across runs.
///
/// The salt is spread by a large odd multiplier before mixing so that
/// `(flow=n, salt=1)` can never alias `(flow=n+1, salt=0)` — real
/// five-tuple hashes of a flow and its reverse are independent, and the
/// forward/reverse hashes of *different* flows must be too (an early
/// version added the salt directly, and ACKs of one flow hit the flowlet
/// pins of the next flow's data, ping-ponging packets to TTL death).
pub fn flow_hash(flow: FlowId, salt: u64) -> u64 {
    let mut z = (flow.0 as u64)
        .wrapping_add(salt.wrapping_mul(0xD1B54A32D192ED03))
        .wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_hash_is_deterministic_and_spread() {
        let a = flow_hash(FlowId(1), 0);
        let b = flow_hash(FlowId(1), 0);
        let c = flow_hash(FlowId(2), 0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Different salt decorrelates.
        assert_ne!(flow_hash(FlowId(1), 7), a);
    }

    #[test]
    fn forward_and_reverse_hashes_never_alias_across_flows() {
        // Regression: (flow n, salt 1) must differ from (flow m, salt 0)
        // for all nearby n, m — otherwise one flow's ACKs ride another
        // flow's flowlet pins.
        for n in 0..512u32 {
            for m in 0..512u32 {
                assert_ne!(
                    flow_hash(FlowId(n), 1),
                    flow_hash(FlowId(m), 0),
                    "rev({n}) == fwd({m})"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "every scheduled arrival must take its packet exactly once")]
    fn stale_pool_handle_panics() {
        let mut pool = PacketPool::default();
        let p = Packet {
            id: 0,
            kind: PacketKind::Udp,
            src_host: NodeId(0),
            dst_host: NodeId(1),
            dst_switch: NodeId(1),
            flow: FlowId(0),
            seq: 0,
            size_bytes: 100,
            sent_at: Time::ZERO,
            tag: 0,
            pid: 0,
            ttl: INITIAL_TTL,
            flow_hash: 0,
        };
        let (slot, gen) = pool.insert(p.clone());
        assert_eq!(pool.take(slot, gen), p);
        // The slot is recycled under a new generation; the old handle
        // must not reach the new occupant.
        assert_eq!(pool.insert(p), (slot, gen + 1));
        pool.take(slot, gen);
    }

    #[test]
    fn kind_predicates() {
        let p = Packet {
            id: 0,
            kind: PacketKind::Probe(Probe {
                origin: NodeId(0),
                pid: 0,
                version: 1,
                tag: 0,
                mv: [0.0; 3],
            }),
            src_host: NodeId(0),
            dst_host: NodeId(0),
            dst_switch: NodeId(0),
            flow: FlowId(0),
            seq: 0,
            size_bytes: 32,
            sent_at: Time::ZERO,
            tag: 0,
            pid: 0,
            ttl: INITIAL_TTL,
            flow_hash: 0,
        };
        assert!(p.is_probe());
        assert!(!p.carries_payload());
    }
}
