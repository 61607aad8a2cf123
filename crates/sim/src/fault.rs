//! Fault injection: typed validation errors and the runtime invariant
//! auditor.
//!
//! The engine's fault API (`Simulator::{try_fail_link_at,
//! try_recover_link_at, try_fail_node_at, try_recover_node_at}`) rejects
//! unknown cables and nodes with a [`FaultError`] instead of the old
//! asymmetric assert-on-fail / silently-accept-on-recover behavior.
//!
//! The [`Auditor`] turns the engine's implicit conservation laws into
//! hard failures. It is pure observation: it never touches `SimStats`
//! or engine behavior, so golden fingerprints are byte-identical with
//! auditing on or off. It maintains four counters fed by the link
//! layer and checks, at every fault epoch and at end of run:
//!
//! * **Packet conservation** — every packet offered to a link is either
//!   taken at its arrival, lost to an accounted drop, in the packet
//!   pool (on the wire), or sitting in a link queue.
//!   `offered = taken + lost + pool + queued`, at every instant.
//! * **Queue occupancy** — per link, `queued_bytes` both matches the
//!   sum of queued packet sizes and stays within `qcap_bytes`.
//! * **Pool leak freedom** (end of run) — the only packets left in the
//!   pool are those whose arrival was scheduled past `stop_at` (the
//!   engine never enqueues such events, so they are stranded by
//!   design, and their count is tracked exactly as `stop_cut`).
//! * **Trace-table leak freedom** — every live trace belongs to an
//!   in-flight packet (pool or link queue); packets that died in
//!   flight must have been forgotten.
//!
//! A fifth check lives in the engine's completion handler: a `TxDone`
//! carrying a link's *current* epoch while the link is down would mean
//! an event was addressed to a dead epoch (`set_down` always bumps the
//! epoch, so this cannot happen unless the bump was bypassed).

use crate::link::LinkState;
use crate::packet::PacketPool;
use crate::time::Time;
use crate::trace::TraceTable;
use contra_topology::NodeId;

/// Why a fault-injection call was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultError {
    /// No cable connects the two nodes, in either direction.
    UnknownCable {
        /// One endpoint as given.
        a: NodeId,
        /// The other endpoint as given.
        b: NodeId,
    },
    /// The node id is not in the topology.
    UnknownNode {
        /// The offending id.
        node: NodeId,
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::UnknownCable { a, b } => write!(f, "no cable {a}–{b}"),
            FaultError::UnknownNode { node } => write!(f, "no node {node}"),
        }
    }
}

impl std::error::Error for FaultError {}

/// The runtime invariant auditor (`SimConfig::audit`). Counters are fed
/// by the engine's link driver; [`Auditor::verify`] is called at each
/// fault epoch and once after the event loop drains.
#[derive(Debug, Default)]
pub(crate) struct Auditor {
    /// Packets offered to `transmit` (every hop attempt).
    pub(crate) offered: u64,
    /// Arrivals realized (successful pool takes).
    pub(crate) taken: u64,
    /// Packets lost on a link leg: TTL death, missing link, enqueue
    /// rejection, failure flush.
    pub(crate) lost: u64,
    /// Pool entries whose scheduled arrival lies past `stop_at` — the
    /// engine never enqueues those events, so the packets legitimately
    /// remain in the pool at end of run.
    pub(crate) stop_cut: u64,
}

impl Auditor {
    /// Checks every invariant the current state can express. Panics
    /// with a diagnostic on any violation.
    pub(crate) fn verify(
        &self,
        phase: &str,
        now: Time,
        links: &[LinkState],
        pool: &PacketPool,
        traces: &TraceTable,
        end_of_run: bool,
    ) {
        let mut queued = 0u64;
        for (i, link) in links.iter().enumerate() {
            let bytes: u64 = link.audit_queue().map(|p| p.size_bytes as u64).sum();
            assert!(
                bytes == link.queued_bytes() as u64,
                "audit[{phase}] at {now}: link {i} queued_bytes={} but packets sum to {bytes}",
                link.queued_bytes(),
            );
            assert!(
                link.queued_bytes() <= link.qcap_bytes,
                "audit[{phase}] at {now}: link {i} occupancy {} exceeds capacity {}",
                link.queued_bytes(),
                link.qcap_bytes,
            );
            queued += link.audit_queue().count() as u64;
        }
        let in_pool = pool.live();
        assert!(
            self.offered == self.taken + self.lost + in_pool + queued,
            "audit[{phase}] at {now}: packet conservation violated: offered={} \
             != taken={} + lost={} + pool={in_pool} + queued={queued}",
            self.offered,
            self.taken,
            self.lost,
        );
        if end_of_run {
            assert!(
                in_pool == self.stop_cut,
                "audit[{phase}] at {now}: packet pool leaks {} entries \
                 ({in_pool} live, {} stranded past stop_at)",
                in_pool as i64 - self.stop_cut as i64,
                self.stop_cut,
            );
        }
        // Trace-table leak freedom: every live trace must belong to a
        // packet that is still in flight (pool or link queue).
        if traces.enabled() {
            let in_flight: std::collections::BTreeSet<u64> = pool
                .live_ids()
                .chain(links.iter().flat_map(|l| l.audit_queue().map(|p| p.id)))
                .collect();
            for id in traces.live_ids() {
                assert!(
                    in_flight.contains(&id),
                    "audit[{phase}] at {now}: trace table leaks packet {id} \
                     (traced but not in flight)"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_error_display() {
        let e = FaultError::UnknownCable {
            a: NodeId(3),
            b: NodeId(9),
        };
        assert_eq!(e.to_string(), "no cable n3–n9");
        let e = FaultError::UnknownNode { node: NodeId(42) };
        assert_eq!(e.to_string(), "no node n42");
    }

    #[test]
    fn clean_auditor_verifies_empty_state() {
        let aud = Auditor::default();
        aud.verify(
            "test",
            Time::ZERO,
            &[],
            &PacketPool::default(),
            &TraceTable::new(false),
            true,
        );
    }

    #[test]
    #[should_panic(expected = "packet conservation violated")]
    fn conservation_violation_panics() {
        let aud = Auditor {
            offered: 2,
            taken: 1,
            lost: 0,
            stop_cut: 0,
        };
        aud.verify(
            "test",
            Time::ZERO,
            &[],
            &PacketPool::default(),
            &TraceTable::new(false),
            false,
        );
    }

    #[test]
    #[should_panic(expected = "packet pool leaks")]
    fn pool_leak_panics_at_end_of_run() {
        let mut pool = PacketPool::default();
        pool.insert(crate::packet::Packet {
            id: 7,
            kind: crate::packet::PacketKind::Udp,
            src_host: NodeId(0),
            dst_host: NodeId(1),
            dst_switch: NodeId(1),
            flow: crate::packet::FlowId(0),
            seq: 0,
            size_bytes: 100,
            sent_at: Time::ZERO,
            tag: 0,
            pid: 0,
            ttl: crate::packet::INITIAL_TTL,
            flow_hash: 0,
        });
        let aud = Auditor {
            offered: 1,
            taken: 0,
            lost: 0,
            stop_cut: 0,
        };
        aud.verify(
            "test",
            Time::ZERO,
            &[],
            &pool,
            &TraceTable::new(false),
            true,
        );
    }
}
