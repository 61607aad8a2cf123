//! Failure-path regression tests for the link layer, run under **both**
//! schedulers: every assertion here must hold with identical numbers in
//! both configurations.
//!
//! * Packets discarded by `LinkState::set_down` — every queued packet
//!   whose serialization had not started — are counted as
//!   [`DropReason::LinkDown`] in `SimStats` (they used to be invisible to
//!   per-reason accounting when the flush happened mid-burst).
//! * A `TxDone` whose epoch predates a `set_down`/`set_up` flap is
//!   ignored and cannot double-start the serializer: the completion of
//!   the packet on the wire outlives the failure by construction.

use contra_sim::{
    DropReason, FaultError, FlowSpec, Packet, SchedulerKind, SimConfig, SimStats, Simulator,
    SwitchCtx, SwitchLogic, Time,
};
use contra_topology::{paths, NodeId, Topology};

/// Minimal static routing: precomputed next hop per destination switch,
/// plus host delivery.
struct StaticLogic {
    next_hop: std::collections::BTreeMap<NodeId, NodeId>,
}

impl SwitchLogic for StaticLogic {
    fn on_packet(&mut self, ctx: &mut SwitchCtx<'_>, pkt: Packet, _from: NodeId) {
        if pkt.dst_switch == ctx.switch {
            let host = pkt.dst_host;
            ctx.send(host, pkt);
        } else if let Some(&nh) = self.next_hop.get(&pkt.dst_switch) {
            ctx.send(nh, pkt);
        } else {
            ctx.drop_no_route(pkt);
        }
    }
}

fn install_static(sim: &mut Simulator) {
    let topo = sim.topology().clone();
    for sw in topo.switches() {
        let mut next_hop = std::collections::BTreeMap::new();
        for other in topo.switches() {
            if other != sw {
                if let Some(p) = paths::shortest_path(&topo, sw, other) {
                    next_hop.insert(other, p[1]);
                }
            }
        }
        sim.install(sw, Box::new(StaticLogic { next_hop }));
    }
}

/// h0 –10G– s0 –1G– s1 –10G– h1: the s0→s1 cable is a 10× bottleneck, so
/// bursts pile up in its queue.
fn bottleneck() -> Topology {
    let mut t = Topology::builder();
    let s0 = t.switch("s0");
    let s1 = t.switch("s1");
    let h0 = t.host("h0");
    let h1 = t.host("h1");
    t.biline(s0, s1, 1e9, 1_000);
    t.biline(h0, s0, 10e9, 500);
    t.biline(h1, s1, 10e9, 500);
    t.build()
}

/// Both engine schedulers, which must agree bit for bit.
const SCHEDULERS: [SchedulerKind; 2] = [SchedulerKind::Wheel, SchedulerKind::Heap];

fn fingerprint(s: &SimStats) -> String {
    format!(
        "delivered={} drops={:?} wire={} events={}",
        s.delivered_packets,
        s.drops,
        s.wire_bytes.values().sum::<u64>(),
        s.events_processed,
    )
}

/// A 10-packet TCP burst piles up behind the 1 Gbps bottleneck; the cable
/// fails mid-burst with the queue full. Every packet whose serialization
/// had not started must surface as a `LinkDown` drop.
///
/// Timeline (all figures exact): the burst serializes onto h0→s0 at
/// 1.2 µs/packet, arriving at s0 from 1.7 µs. The bottleneck serializes
/// 12 µs/packet, so starts happen at 1.7/13.7/25.7 µs — at the 30 µs
/// failure exactly 3 packets have started (the third still on the wire)
/// and **7 are unstarted**, still queued. After the failure, ACKs of the surviving deliveries clock out
/// 3 more transmissions that die at the down cable's `enqueue`
/// (already-working accounting), for 10 `LinkDown` drops in total — the
/// run stopped at the failure instant shows the flush alone is 7.
#[test]
fn mid_burst_failure_counts_linkdown_drops() {
    let mut prints = Vec::new();
    for scheduler in SCHEDULERS {
        let topo = bottleneck();
        let h0 = topo.find("h0").unwrap();
        let h1 = topo.find("h1").unwrap();
        let s0 = topo.find("s0").unwrap();
        let s1 = topo.find("s1").unwrap();
        let mut sim = Simulator::new(
            topo,
            SimConfig {
                stop_at: Time::ms(2),
                scheduler,
                ..SimConfig::default()
            },
        );
        install_static(&mut sim);
        sim.add_flow(FlowSpec::Tcp {
            src: h0,
            dst: h1,
            bytes: 10 * 1460,
            start: Time::ZERO,
        });
        sim.fail_link_at(s0, s1, Time::us(30));
        let stats = sim.run();
        assert_eq!(
            stats.drops.get(&DropReason::LinkDown),
            Some(&10),
            "unstarted mid-burst packets must be accounted ({scheduler:?})"
        );
        // The packet on the wire at failure time still arrives: 3 of 10
        // data packets are delivered.
        assert_eq!(stats.delivered_packets, 3);
        // Same scenario stopped at the failure instant (the stop bound is
        // inclusive, so the flush runs and nothing after it): the flush
        // alone accounts exactly the 7 unstarted packets.
        {
            let topo = bottleneck();
            let mut sim = Simulator::new(
                topo,
                SimConfig {
                    stop_at: Time::us(30),
                    scheduler,
                    ..SimConfig::default()
                },
            );
            install_static(&mut sim);
            sim.add_flow(FlowSpec::Tcp {
                src: h0,
                dst: h1,
                bytes: 10 * 1460,
                start: Time::ZERO,
            });
            sim.fail_link_at(s0, s1, Time::us(30));
            let flush_only = sim.run();
            assert_eq!(
                flush_only.drops.get(&DropReason::LinkDown),
                Some(&7),
                "set_down flush alone ({scheduler:?})"
            );
        }
        prints.push(fingerprint(&stats));
    }
    assert!(
        prints.windows(2).all(|w| w[0] == w[1]),
        "schedulers disagree: {prints:#?}"
    );
}

/// A down/up flap in the middle of a busy period: the in-flight packet's
/// `TxDone` carries the pre-failure epoch and must be ignored after
/// recovery — honoring it would double-start the serializer and deliver
/// packets early. The UDP stream keeps the link busy across the flap, so
/// a resurrected serializer would visibly inflate the delivered count or
/// reorder deliveries; instead both schedulers agree exactly.
#[test]
fn stale_txdone_across_flap_is_ignored() {
    let mut prints = Vec::new();
    for scheduler in SCHEDULERS {
        let topo = bottleneck();
        let h0 = topo.find("h0").unwrap();
        let h1 = topo.find("h1").unwrap();
        let s0 = topo.find("s0").unwrap();
        let s1 = topo.find("s1").unwrap();
        let mut sim = Simulator::new(
            topo,
            SimConfig {
                stop_at: Time::ms(1),
                scheduler,
                ..SimConfig::default()
            },
        );
        install_static(&mut sim);
        // 2 Gbps offered into a 1 Gbps bottleneck: the queue never
        // drains, so a completion is always in flight when the cable
        // flaps.
        sim.add_flow(FlowSpec::Udp {
            src: h0,
            dst: h1,
            rate_bps: 2e9,
            start: Time::ZERO,
            stop: Time::us(900),
        });
        // Fail inside a serialization window and recover before the
        // pre-failure completion instant, so the stale TxDone fires at a
        // moment the link is up and busy again.
        sim.fail_link_at(s0, s1, Time::us(100));
        sim.recover_link_at(s0, s1, Time::us(103));
        let stats = sim.run();
        assert!(
            *stats.drops.get(&DropReason::LinkDown).unwrap_or(&0) > 0,
            "the flap must flush something"
        );
        prints.push((
            stats.delivered_packets,
            fingerprint(&stats),
            format!("{scheduler:?}"),
        ));
    }
    for w in prints.windows(2) {
        assert_eq!(
            (w[0].0, &w[0].1),
            (w[1].0, &w[1].1),
            "{} vs {}",
            w[0].2,
            w[1].2
        );
    }
}

/// Scheduling a fault on a cable that does not exist is a typed error —
/// and, critically, `try_fail_link_at` and `try_recover_link_at` apply
/// the *same* validation. Recovery used to accept unknown cables
/// silently, so a typo'd recovery no-opped while its paired failure
/// stuck forever.
#[test]
fn fault_scheduling_validates_symmetrically() {
    let topo = bottleneck();
    let s0 = topo.find("s0").unwrap();
    let s1 = topo.find("s1").unwrap();
    let h0 = topo.find("h0").unwrap();
    let h1 = topo.find("h1").unwrap();
    let mut sim = Simulator::new(topo, SimConfig::default());

    // h0 and h1 hang off different switches: no cable in either
    // direction. Failure and recovery must reject it identically.
    assert_eq!(
        sim.try_fail_link_at(h0, h1, Time::us(1)),
        Err(FaultError::UnknownCable { a: h0, b: h1 })
    );
    assert_eq!(
        sim.try_recover_link_at(h0, h1, Time::us(1)),
        Err(FaultError::UnknownCable { a: h0, b: h1 })
    );
    // Existing cables pass in both orientations.
    assert_eq!(sim.try_fail_link_at(s0, s1, Time::us(1)), Ok(()));
    assert_eq!(sim.try_recover_link_at(s1, s0, Time::us(2)), Ok(()));

    // Node validation: any id past the node table is rejected by both
    // directions.
    let bogus = contra_topology::NodeId(1_000);
    assert_eq!(
        sim.try_fail_node_at(bogus, Time::us(1)),
        Err(FaultError::UnknownNode { node: bogus })
    );
    assert_eq!(
        sim.try_recover_node_at(bogus, Time::us(1)),
        Err(FaultError::UnknownNode { node: bogus })
    );
    assert_eq!(sim.try_fail_node_at(s1, Time::us(3)), Ok(()));
    assert_eq!(sim.try_recover_node_at(s1, Time::us(4)), Ok(()));
}

/// The panicking convenience wrapper surfaces the typed error's message.
#[test]
#[should_panic(expected = "no cable")]
fn recover_unknown_cable_panics() {
    let topo = bottleneck();
    let h0 = topo.find("h0").unwrap();
    let h1 = topo.find("h1").unwrap();
    let mut sim = Simulator::new(topo, SimConfig::default());
    sim.recover_link_at(h0, h1, Time::us(1));
}

/// `LinkDown` on an already-down link and `LinkUp` on an already-up link
/// are explicit no-ops: a doubled failure (or doubled recovery) produces
/// byte-identical statistics to the single one, under both schedulers. This idempotence is what lets chaos plans overlap
/// failures without any bookkeeping.
#[test]
fn doubled_fault_events_are_noops() {
    let run = |scheduler, doubled: bool| {
        let topo = bottleneck();
        let h0 = topo.find("h0").unwrap();
        let h1 = topo.find("h1").unwrap();
        let s0 = topo.find("s0").unwrap();
        let s1 = topo.find("s1").unwrap();
        let mut sim = Simulator::new(
            topo,
            SimConfig {
                stop_at: Time::ms(1),
                scheduler,
                ..SimConfig::default()
            },
        );
        install_static(&mut sim);
        sim.add_flow(FlowSpec::Udp {
            src: h0,
            dst: h1,
            rate_bps: 2e9,
            start: Time::ZERO,
            stop: Time::us(900),
        });
        sim.fail_link_at(s0, s1, Time::us(100));
        sim.recover_link_at(s0, s1, Time::us(150));
        if doubled {
            // Second failure while already down, second recovery while
            // already up — both must change nothing, not even a fault
            // epoch (no state transition, no epoch).
            sim.fail_link_at(s0, s1, Time::us(120));
            sim.recover_link_at(s0, s1, Time::us(180));
        }
        let stats = sim.run();
        assert_eq!(
            stats.fault_epochs.len(),
            2,
            "exactly one down + one up epoch regardless of doubling"
        );
        let traffic = format!(
            "delivered={} drops={:?} wire={}",
            stats.delivered_packets,
            stats.drops,
            stats.wire_bytes.values().sum::<u64>(),
        );
        (traffic, stats.events_processed)
    };
    for scheduler in SCHEDULERS {
        let (single, single_events) = run(scheduler, false);
        let (doubled, doubled_events) = run(scheduler, true);
        assert_eq!(
            single, doubled,
            "doubled fault events must be invisible ({scheduler:?})"
        );
        // The two redundant events are popped and discarded — the only
        // trace they leave is the event count itself.
        assert_eq!(doubled_events, single_events + 2);
    }
}

/// A node failure downs every incident link atomically (flushing their
/// queues), and the recovery brings them all back; the numbers agree
/// across both schedulers. Killing s1
/// mid-stream severs both the s0→s1 bottleneck and the s1→h1 edge.
#[test]
fn node_failure_downs_all_incident_links() {
    let mut prints = Vec::new();
    for scheduler in SCHEDULERS {
        let topo = bottleneck();
        let h0 = topo.find("h0").unwrap();
        let h1 = topo.find("h1").unwrap();
        let s1 = topo.find("s1").unwrap();
        let mut sim = Simulator::new(
            topo,
            SimConfig {
                stop_at: Time::ms(1),
                scheduler,
                ..SimConfig::default()
            },
        );
        install_static(&mut sim);
        sim.add_flow(FlowSpec::Udp {
            src: h0,
            dst: h1,
            rate_bps: 2e9,
            start: Time::ZERO,
            stop: Time::us(900),
        });
        sim.fail_node_at(s1, Time::us(100));
        sim.recover_node_at(s1, Time::us(300));
        let stats = sim.run();
        // One epoch per transition that changed anything: the node down
        // and the node up.
        assert_eq!(stats.fault_epochs.len(), 2, "{:#?}", stats.fault_epochs);
        assert!(stats.fault_epochs[0].is_down);
        assert!(stats.fault_epochs[0].label.contains("node s1"));
        assert!(
            *stats.drops.get(&DropReason::LinkDown).unwrap_or(&0) > 0,
            "severing s1 mid-stream must flush packets"
        );
        assert!(
            stats.delivered_packets > 0,
            "traffic must resume after the node recovers"
        );
        prints.push(fingerprint(&stats));
    }
    assert!(
        prints.windows(2).all(|w| w[0] == w[1]),
        "schedulers disagree: {prints:#?}"
    );
}
