//! # contra-sim — packet-level discrete-event network simulator
//!
//! The ns-3 stand-in for the Contra reproduction. It models:
//!
//! * **Links** with store-and-forward serialization, propagation delay and
//!   drop-tail queues (default 1000 MSS, §6.3), plus the Hula-style decaying
//!   utilization estimator that feeds `path.util`.
//! * **Hosts** running a lightweight NewReno-flavored TCP (slow start,
//!   AIMD, triple-dup-ACK fast retransmit, go-back-N timeout with back-off)
//!   and constant-rate UDP sources for the failure-recovery experiment.
//! * **Switches** as pluggable [`SwitchLogic`] implementations — the
//!   software analogue of one switch's P4 program. The Contra dataplane
//!   (`contra-dataplane`) and all baselines (`contra-baselines`) implement
//!   this trait.
//! * **Routing systems** as [`RoutingSystem`] values — whole schemes
//!   (Contra-with-a-policy, Hula, ECMP, …) that install themselves on a
//!   simulator through an [`InstallCtx`], sharing policy compilation via
//!   [`CompileCache`]. This is the seam the experiment layer
//!   (`contra-experiments`) sweeps over.
//! * **Failures**: cable down/up events, with queued packets lost.
//! * **Measurement**: flow completion times, per-kind wire bytes (traffic
//!   overhead), drops by cause, queue-occupancy sampling, UDP goodput
//!   timelines, exact per-packet loop accounting (opt-in tracing).
//!
//! Determinism: the event queue — a hierarchical timing wheel by default,
//! the original binary heap behind `SimConfig::scheduler` — is totally
//! ordered by (time, class-encoded key); there is no hidden randomness.
//! The same inputs give identical results on every run, under either
//! scheduler — a property the test suite checks (see
//! `tests/sched_diff.rs`).
//!
//! The crate is layered (PR 5): [`sched`] (event order), [`link`]
//! (serializers and queues), [`transport`] (host endpoints), [`switch`]
//! (dataplane programs), [`trace`] (path side table), [`stats`]
//! (measurement), with [`engine`] as the dispatcher that composes them
//! and [`config`] naming the knobs.

pub mod config;
pub mod engine;
pub mod fault;
pub mod fx;
pub mod link;
pub mod packet;
pub mod recorder;
pub mod sched;
pub mod stats;
pub mod switch;
pub mod system;
pub mod time;
pub mod trace;
pub mod transport;

pub use config::SimConfig;
pub use engine::{RunOutput, SimCore, Simulator};
pub use fault::FaultError;
pub use fx::{fx_mix64, FxBuildHasher, FxHashMap, FxHasher64};
pub use link::{DropReason, LinkState, UtilEstimator};
pub use packet::{
    flow_hash, FlowId, Packet, PacketKind, Probe, HDR_BYTES, INITIAL_TTL, MSS, PROBE_BASE_BYTES,
};
pub use recorder::{Recorder, TelemetryConfig};
pub use sched::{EventQueue, HeapQueue, SchedCounters, SchedEntry, SchedulerKind, TimingWheel};
pub use stats::{
    percentile, FaultEpoch, FlowRecord, GoodputDip, QueueSample, SimStats, TrafficKind, WireBytes,
    QUEUE_SAMPLE_CAP,
};
pub use switch::{SwitchCtx, SwitchLogic};
pub use system::{CompileCache, InstallCtx, InstallError, RoutingSystem};
pub use time::{tx_time, Time};
pub use trace::TraceTable;
pub use transport::{FlowSpec, Transport};

#[cfg(test)]
mod tests {
    use super::*;
    use contra_topology::{NodeId, Topology};

    /// Minimal static routing for tests: precomputed next hop per
    /// destination switch, plus host delivery.
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

    /// h0 – s0 – s1 – h1 line, 10 Gbps everywhere.
    fn line() -> Topology {
        let mut t = Topology::builder();
        let s0 = t.switch("s0");
        let s1 = t.switch("s1");
        let h0 = t.host("h0");
        let h1 = t.host("h1");
        t.biline(s0, s1, 10e9, 1_000);
        t.biline(h0, s0, 10e9, 500);
        t.biline(h1, s1, 10e9, 500);
        t.build()
    }

    fn install_static(sim: &mut Simulator) {
        let topo = sim.topology().clone();
        for sw in topo.switches() {
            let mut next_hop = std::collections::BTreeMap::new();
            for other in topo.switches() {
                if other != sw {
                    if let Some(p) = contra_topology::paths::shortest_path(&topo, sw, other) {
                        next_hop.insert(other, p[1]);
                    }
                }
            }
            sim.install(sw, Box::new(StaticLogic { next_hop }));
        }
    }

    #[test]
    fn single_flow_completes() {
        let topo = line();
        let h0 = topo.find("h0").unwrap();
        let h1 = topo.find("h1").unwrap();
        let mut sim = Simulator::new(
            topo,
            SimConfig {
                stop_at: Time::ms(50),
                ..SimConfig::default()
            },
        );
        install_static(&mut sim);
        sim.add_flow(FlowSpec::Tcp {
            src: h0,
            dst: h1,
            bytes: 1_000_000,
            start: Time::ZERO,
        });
        let stats = sim.run();
        assert_eq!(stats.completion_rate(), 1.0);
        let fct = stats.flows[0].fct().unwrap();
        // 1 MB at 10 Gbps is ≥ 800 µs of pure serialization.
        assert!(fct >= Time::us(800), "{fct}");
        assert!(fct <= Time::ms(20), "{fct}");
        assert_eq!(stats.flows[0].retransmits, 0);
        assert!(stats.sched_peak_pending > 0, "occupancy telemetry recorded");
    }

    /// The stop condition is inclusive and lives in exactly one place
    /// (`Simulator::push`): an event scheduled at exactly `stop_at` still
    /// runs; one a nanosecond later is never enqueued. The boundary was
    /// previously untested and enforced in two separate loop checks.
    #[test]
    fn event_exactly_at_stop_at_is_processed() {
        let topo = line();
        let run_with_sample_at = |every: Time| {
            let mut sim = Simulator::new(
                topo.clone(),
                SimConfig {
                    stop_at: Time::ms(5),
                    queue_sample_every: Some(every),
                    ..SimConfig::default()
                },
            );
            install_static(&mut sim);
            sim.run()
        };
        // First (and only) queue sample lands exactly on stop_at.
        let stats = run_with_sample_at(Time::ms(5));
        assert_eq!(stats.events_processed, 1, "boundary event must run");
        assert_eq!(stats.queue_samples.len(), 2, "both fabric links sampled");
        // One nanosecond past the stop: nothing ever runs.
        let stats = run_with_sample_at(Time(Time::ms(5).0 + 1));
        assert_eq!(stats.events_processed, 0);
        assert!(stats.queue_samples.is_empty());
    }

    #[test]
    fn deterministic_repeat() {
        let run = || {
            let topo = line();
            let h0 = topo.find("h0").unwrap();
            let h1 = topo.find("h1").unwrap();
            let mut sim = Simulator::new(
                topo,
                SimConfig {
                    stop_at: Time::ms(30),
                    ..SimConfig::default()
                },
            );
            install_static(&mut sim);
            for i in 0..5 {
                sim.add_flow(FlowSpec::Tcp {
                    src: h0,
                    dst: h1,
                    bytes: 200_000 + i * 10_000,
                    start: Time::us(i * 50),
                });
            }
            let s = sim.run();
            (
                s.flows.iter().map(|f| f.finish).collect::<Vec<_>>(),
                s.total_wire_bytes(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn congestion_two_flows_share_bottleneck() {
        let topo = line();
        let h0 = topo.find("h0").unwrap();
        let h1 = topo.find("h1").unwrap();
        let mut sim = Simulator::new(
            topo,
            SimConfig {
                stop_at: Time::ms(100),
                ..SimConfig::default()
            },
        );
        install_static(&mut sim);
        // Two 2 MB flows share one 10 Gbps path: each alone takes ~1.7 ms;
        // together the slower one must take noticeably longer.
        sim.add_flow(FlowSpec::Tcp {
            src: h0,
            dst: h1,
            bytes: 2_000_000,
            start: Time::ZERO,
        });
        sim.add_flow(FlowSpec::Tcp {
            src: h0,
            dst: h1,
            bytes: 2_000_000,
            start: Time::ZERO,
        });
        let stats = sim.run();
        assert_eq!(stats.completion_rate(), 1.0);
        let slowest = stats.flows.iter().map(|f| f.fct().unwrap()).max().unwrap();
        assert!(
            slowest >= Time::us(3_000),
            "sharing must slow flows: {slowest}"
        );
    }

    #[test]
    fn link_failure_drops_then_rto_recovers_via_same_path() {
        let topo = line();
        let h0 = topo.find("h0").unwrap();
        let h1 = topo.find("h1").unwrap();
        let s0 = topo.find("s0").unwrap();
        let s1 = topo.find("s1").unwrap();
        let mut sim = Simulator::new(
            topo,
            SimConfig {
                stop_at: Time::ms(200),
                ..SimConfig::default()
            },
        );
        install_static(&mut sim);
        sim.add_flow(FlowSpec::Tcp {
            src: h0,
            dst: h1,
            bytes: 5_000_000,
            start: Time::ZERO,
        });
        sim.fail_link_at(s0, s1, Time::us(300));
        sim.recover_link_at(s0, s1, Time::ms(2));
        let stats = sim.run();
        assert_eq!(
            stats.completion_rate(),
            1.0,
            "flow must finish after recovery"
        );
        assert!(
            stats.flows[0].retransmits > 0,
            "failure must cost retransmissions"
        );
        assert!(*stats.drops.get(&DropReason::LinkDown).unwrap_or(&0) > 0);
    }

    #[test]
    fn udp_goodput_matches_offered_rate() {
        let topo = line();
        let h0 = topo.find("h0").unwrap();
        let h1 = topo.find("h1").unwrap();
        let mut sim = Simulator::new(
            topo,
            SimConfig {
                stop_at: Time::ms(20),
                ..SimConfig::default()
            },
        );
        install_static(&mut sim);
        sim.add_flow(FlowSpec::Udp {
            src: h0,
            dst: h1,
            rate_bps: 2e9,
            start: Time::ZERO,
            stop: Time::ms(20),
        });
        let stats = sim.run();
        let good = stats.udp_goodput_gbps();
        assert!(!good.is_empty());
        // Steady-state buckets should carry ≈ 2 Gbps of payload (slightly
        // less after headers).
        let mid = good[good.len() / 2].1;
        assert!(mid > 1.5 && mid < 2.1, "{mid}");
    }

    #[test]
    fn tracing_records_paths_and_no_loops_on_line() {
        let topo = line();
        let h0 = topo.find("h0").unwrap();
        let h1 = topo.find("h1").unwrap();
        let s0 = topo.find("s0").unwrap();
        let s1 = topo.find("s1").unwrap();
        let mut sim = Simulator::new(
            topo,
            SimConfig {
                stop_at: Time::ms(20),
                trace_paths: true,
                ..SimConfig::default()
            },
        );
        install_static(&mut sim);
        sim.add_flow(FlowSpec::Tcp {
            src: h0,
            dst: h1,
            bytes: 100_000,
            start: Time::ZERO,
        });
        let (stats, traces) = sim.run_traced();
        assert_eq!(stats.looped_packets, 0);
        assert!(!traces.is_empty());
        for (_flow, t) in &traces {
            assert_eq!(t, &vec![s0, s1]);
        }
    }

    #[test]
    fn wire_bytes_split_by_kind() {
        let topo = line();
        let h0 = topo.find("h0").unwrap();
        let h1 = topo.find("h1").unwrap();
        let mut sim = Simulator::new(
            topo,
            SimConfig {
                stop_at: Time::ms(30),
                ..SimConfig::default()
            },
        );
        install_static(&mut sim);
        sim.add_flow(FlowSpec::Tcp {
            src: h0,
            dst: h1,
            bytes: 150_000,
            start: Time::ZERO,
        });
        let stats = sim.run();
        let data = stats.wire_bytes[&TrafficKind::Data];
        let ack = stats.wire_bytes[&TrafficKind::Ack];
        // 150 kB of payload crosses 3 links from host to host.
        assert!(data > 3 * 150_000, "{data}");
        assert!(ack > 0 && ack < data, "{ack} vs {data}");
    }

    #[test]
    fn queue_sampling_produces_fabric_samples() {
        let topo = line();
        let h0 = topo.find("h0").unwrap();
        let h1 = topo.find("h1").unwrap();
        let mut sim = Simulator::new(
            topo,
            SimConfig {
                stop_at: Time::ms(10),
                queue_sample_every: Some(Time::us(100)),
                ..SimConfig::default()
            },
        );
        install_static(&mut sim);
        sim.add_flow(FlowSpec::Tcp {
            src: h0,
            dst: h1,
            bytes: 1_000_000,
            start: Time::ZERO,
        });
        let stats = sim.run();
        assert!(!stats.queue_samples.is_empty());
        // Only the 2 fabric links (s0→s1, s1→s0) are sampled.
        let links: std::collections::BTreeSet<u32> =
            stats.queue_samples.iter().map(|s| s.link).collect();
        assert_eq!(links.len(), 2);
    }

    /// Queue-sample retention is bounded: past the cap, sampling keeps
    /// running (so the event schedule — and `events_processed` — is
    /// unchanged) but samples are counted instead of stored.
    #[test]
    fn queue_sampling_is_capped() {
        let run_with_cap = |cap: usize| {
            let mut sim = Simulator::new(
                line(),
                SimConfig {
                    stop_at: Time::ms(1),
                    queue_sample_every: Some(Time::us(100)),
                    queue_sample_cap: cap,
                    ..SimConfig::default()
                },
            );
            install_static(&mut sim);
            sim.run()
        };
        let unbounded = run_with_cap(usize::MAX);
        assert_eq!(unbounded.queue_samples_capped, 0);
        let capped = run_with_cap(4);
        assert_eq!(capped.queue_samples.len(), 4);
        assert_eq!(
            capped.queue_samples_capped,
            unbounded.queue_samples.len() as u64 - 4
        );
        assert_eq!(
            capped.events_processed, unbounded.events_processed,
            "the cap must not perturb the event schedule"
        );
    }

    /// The flow arena vacates retired slots and reuses them (LIFO), and
    /// the generation check makes the retired flow's still-queued
    /// `FlowStart` a no-op instead of kicking the slot's new occupant.
    /// Both schedulers, since timer events ride the event queue.
    #[test]
    fn flow_arena_reuses_retired_slots() {
        for sched in [SchedulerKind::Wheel, SchedulerKind::Heap] {
            let topo = line();
            let h0 = topo.find("h0").unwrap();
            let h1 = topo.find("h1").unwrap();
            let mut sim = Simulator::new(
                topo,
                SimConfig {
                    stop_at: Time::ms(50),
                    scheduler: sched,
                    ..SimConfig::default()
                },
            );
            install_static(&mut sim);
            let spec = |start| FlowSpec::Tcp {
                src: h0,
                dst: h1,
                bytes: 400_000,
                start,
            };
            let a = sim.add_flow(spec(Time::ZERO));
            assert!(sim.retire_flow(a), "slot was live");
            assert!(!sim.retire_flow(a), "second retirement finds it vacant");
            let b = sim.add_flow(spec(Time::us(10)));
            assert_eq!(a, b, "the vacated slot must be reused");
            let c = sim.add_flow(spec(Time::us(20)));
            assert_ne!(b, c, "a fresh flow past the free list grows the arena");
            let stats = sim.run();
            // Records append forever (slot reuse must not alias them):
            // the retired flow's stays unfinished, the other two finish.
            assert_eq!(stats.flows.len(), 3);
            assert!(
                stats.flows[0].finish.is_none(),
                "retired flow must not run ({sched:?})"
            );
            assert!(stats.flows[1].finish.is_some(), "{sched:?}");
            assert!(stats.flows[2].finish.is_some(), "{sched:?}");
        }
    }

    /// A mid-flight scheduled retirement: the slot vacates at the chosen
    /// instant, and every timer armed against it — notably the RTO that
    /// pops later — hits a stale generation and must be a no-op rather
    /// than retransmitting into (or panicking on) a dead flow.
    #[test]
    fn scheduled_retirement_invalidates_armed_timers() {
        for sched in [SchedulerKind::Wheel, SchedulerKind::Heap] {
            let topo = line();
            let h0 = topo.find("h0").unwrap();
            let h1 = topo.find("h1").unwrap();
            let mut sim = Simulator::new(
                topo,
                SimConfig {
                    stop_at: Time::ms(50),
                    scheduler: sched,
                    ..SimConfig::default()
                },
            );
            install_static(&mut sim);
            // Alone, 5 MB at 10 Gbps finishes in ~4 ms — well before
            // stop_at, so an ignored retirement would show as a finish.
            let f = sim.add_flow(FlowSpec::Tcp {
                src: h0,
                dst: h1,
                bytes: 5_000_000,
                start: Time::ZERO,
            });
            assert!(sim.retire_flow_at(f, Time::us(200)));
            let stats = sim.run();
            assert!(
                stats.flows[0].finish.is_none(),
                "flow must die at retirement ({sched:?})"
            );
            assert!(
                stats.delivered_packets > 0,
                "it must have moved packets first ({sched:?})"
            );
            assert!(
                stats.delivered_packets < 5_000_000 / MSS as u64,
                "delivery must stop at retirement ({sched:?})"
            );
        }
    }

    /// Burst batching must not change cwnd telemetry semantics: one
    /// sample per transport action (per ACK), never per emitted packet,
    /// so the series is bit-identical to the per-send oracle's and its
    /// length stays bounded by the ACK count.
    #[test]
    fn cwnd_sampling_is_per_ack_under_bursts() {
        let run = |burst: bool| {
            let topo = line();
            let h0 = topo.find("h0").unwrap();
            let h1 = topo.find("h1").unwrap();
            let mut sim = Simulator::new(
                topo,
                SimConfig {
                    stop_at: Time::ms(20),
                    burst_sends: burst,
                    telemetry: Some(TelemetryConfig::default()),
                    ..SimConfig::default()
                },
            );
            install_static(&mut sim);
            sim.add_flow(FlowSpec::Tcp {
                src: h0,
                dst: h1,
                bytes: 500_000,
                start: Time::ZERO,
            });
            sim.run_full()
        };
        let bursty = run(true);
        let single = run(false);
        let (Some(tb), Some(ts)) = (&bursty.telemetry, &single.telemetry) else {
            assert!(
                crate::recorder::telemetry_from_env() == Some(false),
                "report must exist unless CONTRA_TELEM forced telemetry off"
            );
            return;
        };
        let pb = tb.metrics.points("cwnd", "flow0").unwrap_or(&[]);
        let ps = ts.metrics.points("cwnd", "flow0").unwrap_or(&[]);
        assert_eq!(pb, ps, "batching must not move a single cwnd sample");
        assert!(pb.len() >= 2, "slow start must record cwnd growth");
        // One cumulative ACK per delivered data packet, plus the start
        // and timeout samples: per-packet sampling would blow past this.
        assert!(
            pb.len() as u64 <= bursty.stats.delivered_packets + 2,
            "{} cwnd samples for {} delivered packets",
            pb.len(),
            bursty.stats.delivered_packets
        );
    }

    /// Telemetry is pure observation: stats are byte-identical with the
    /// recorder on or off, and the exported trace is non-trivial.
    #[test]
    fn telemetry_recorder_is_observationally_neutral() {
        let run = |telemetry: Option<TelemetryConfig>| {
            let topo = line();
            let h0 = topo.find("h0").unwrap();
            let h1 = topo.find("h1").unwrap();
            let mut sim = Simulator::new(
                topo,
                SimConfig {
                    stop_at: Time::ms(10),
                    telemetry,
                    ..SimConfig::default()
                },
            );
            install_static(&mut sim);
            sim.add_flow(FlowSpec::Tcp {
                src: h0,
                dst: h1,
                bytes: 500_000,
                start: Time::ZERO,
            });
            sim.run_full()
        };
        // `CONTRA_TELEM`, when set, forces both arms to the same state —
        // the equality below still holds, it just stops being a contrast.
        let off = run(None);
        let on = run(Some(TelemetryConfig::default()));
        assert_eq!(
            format!("{:?}", off.stats),
            format!("{:?}", on.stats),
            "recorder must not perturb the run"
        );
        if let Some(report) = &on.telemetry {
            assert!(!report.events.is_empty());
            assert!(report.metrics.total_points() > 0);
        } else {
            assert!(
                crate::recorder::telemetry_from_env() == Some(false),
                "report must exist unless CONTRA_TELEM forced telemetry off"
            );
        }
    }
}
