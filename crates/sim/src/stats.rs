//! Measurement: everything the paper's figures read out of a run.

use crate::link::DropReason;
use crate::packet::FlowId;
use crate::time::Time;
use std::collections::BTreeMap;

/// Traffic categories for byte accounting (Fig 16).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TrafficKind {
    /// TCP-like data segments.
    Data,
    /// Acknowledgements.
    Ack,
    /// UDP datagrams.
    Udp,
    /// Routing probes.
    Probe,
}

/// Lifecycle record of one flow.
#[derive(Debug, Clone)]
pub struct FlowRecord {
    /// Flow id.
    pub id: FlowId,
    /// Bytes the application asked to transfer.
    pub size_bytes: u64,
    /// When the flow was offered to the transport.
    pub start: Time,
    /// When the last byte was acknowledged (None = still running at the
    /// end of the simulation).
    pub finish: Option<Time>,
    /// Packets retransmitted by the sender.
    pub retransmits: u64,
    /// Open-ended flows (constant-rate UDP) never finish by design and are
    /// excluded from completion statistics.
    pub unbounded: bool,
}

impl FlowRecord {
    /// Flow completion time, if the flow finished.
    pub fn fct(&self) -> Option<Time> {
        self.finish.map(|f| f - self.start)
    }
}

/// Per-kind wire-byte counters with a map-like surface.
///
/// [`SimStats::on_wire`] runs once per packet per hop — the hottest stats
/// call in the engine — so the storage is a flat array indexed by
/// [`TrafficKind`] discriminant rather than a tree. Iteration and `get`
/// mimic the `BTreeMap<TrafficKind, u64>` this replaced: kinds that never
/// saw a byte are absent.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireBytes {
    bytes: [u64; 4],
}

impl WireBytes {
    const KINDS: [TrafficKind; 4] = [
        TrafficKind::Data,
        TrafficKind::Ack,
        TrafficKind::Udp,
        TrafficKind::Probe,
    ];

    /// Adds bytes for a kind.
    #[inline]
    pub fn add(&mut self, kind: TrafficKind, bytes: u64) {
        self.bytes[kind as usize] += bytes;
    }

    /// The counter for a kind, `None` if no byte of that kind was ever
    /// recorded (matching map semantics).
    pub fn get(&self, kind: &TrafficKind) -> Option<&u64> {
        let v = &self.bytes[*kind as usize];
        (*v != 0).then_some(v)
    }

    /// Counters of every kind that saw traffic, in `TrafficKind` order.
    pub fn iter(&self) -> impl Iterator<Item = (TrafficKind, &u64)> {
        Self::KINDS
            .iter()
            .map(|&k| (k, &self.bytes[k as usize]))
            .filter(|(_, v)| **v != 0)
    }

    /// Non-zero counters, in `TrafficKind` order.
    pub fn values(&self) -> impl Iterator<Item = &u64> {
        self.iter().map(|(_, v)| v)
    }
}

impl std::ops::Index<&TrafficKind> for WireBytes {
    type Output = u64;

    fn index(&self, kind: &TrafficKind) -> &u64 {
        &self.bytes[*kind as usize]
    }
}

impl<'a> IntoIterator for &'a WireBytes {
    type Item = (TrafficKind, &'a u64);
    type IntoIter = std::vec::IntoIter<(TrafficKind, &'a u64)>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter().collect::<Vec<_>>().into_iter()
    }
}

/// Ceil-based nearest-rank percentile over an ascending-sorted slice:
/// the smallest sample such that at least `p`% of the data is ≤ it
/// (rank `⌈p/100 · n⌉`, clamped to `[1, n]`). `None` on an empty slice.
///
/// The previous `round((p/100)·(n-1))` index could select a sample
/// *below* the true tail on small sets — e.g. p99 of 62 samples indexed
/// element 61 of 62 instead of the maximum — which is exactly the regime
/// the short golden scenarios measure.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input is sorted");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// One fault event's convergence record (Fig 14's per-failure numbers).
///
/// An epoch opens when a scheduled fault actually changes link state
/// (idempotent re-fails/re-recoveries open nothing). Subsequent
/// `NoRoute`/`LinkDown` drops are attributed to the most recently
/// opened epoch — with concurrent overlapping faults the attribution is
/// to the *latest* epoch, a deliberate simplification.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEpoch {
    /// When the fault took effect.
    pub at: Time,
    /// Human-readable description (`"down Denver~KansasCity"`).
    pub label: String,
    /// `true` for a failure, `false` for a recovery.
    pub is_down: bool,
    /// Instant of the last `NoRoute`/`LinkDown` drop attributed to this
    /// epoch — the observed reconvergence point. `None` when routing
    /// absorbed the fault without losing a packet.
    pub last_disruption: Option<Time>,
    /// `NoRoute` + `LinkDown` drops attributed to this epoch: packets
    /// lost while routing converged.
    pub disruption_drops: u64,
}

impl FaultEpoch {
    /// Time from the fault to the last attributed disruption drop
    /// (zero when the fault was absorbed losslessly).
    pub fn convergence(&self) -> Time {
        self.last_disruption
            .map_or(Time::ZERO, |t| t.saturating_sub(self.at))
    }
}

/// Goodput-dip summary around a fault instant, derived from the UDP
/// goodput timeline ([`SimStats::goodput_dip`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoodputDip {
    /// Mean goodput (Gbps) over buckets fully before the fault.
    pub baseline_gbps: f64,
    /// Minimum goodput (Gbps) over buckets at or after the fault.
    pub min_gbps: f64,
    /// `baseline − min`, clamped at zero: how deep goodput fell.
    pub depth_gbps: f64,
    /// Time from the fault to the first bucket back at ≥ 90% of
    /// baseline; spans to the end of the timeline when goodput never
    /// recovered.
    pub duration: Time,
    /// Whether goodput regained 90% of baseline before the run ended.
    pub recovered: bool,
}

/// Default hard cap on retained queue samples
/// ([`crate::SimConfig::queue_sample_cap`]). A leaf-spine Fig 13 cell at
/// 1 µs cadence produces ~16 samples per tick, so 2^20 entries covers
/// runs three orders of magnitude longer than the paper's before
/// truncation; beyond that, samples are counted
/// ([`SimStats::queue_samples_capped`]) instead of retained, keeping
/// memory bounded without perturbing the event schedule.
pub const QUEUE_SAMPLE_CAP: usize = 1 << 20;

/// A periodic queue-occupancy sample (Fig 13).
#[derive(Debug, Clone, Copy)]
pub struct QueueSample {
    /// Sample timestamp.
    pub at: Time,
    /// Directed link index in the topology.
    pub link: u32,
    /// Queued bytes at that instant.
    pub bytes: u32,
}

/// Aggregated statistics of one simulation run.
#[derive(Debug, Default)]
pub struct SimStats {
    /// Per-flow records, indexed by flow id.
    pub flows: Vec<FlowRecord>,
    /// Bytes placed on the wire, per traffic kind, summed over every hop —
    /// the "amount of traffic sent over the network" of §6.5.
    pub wire_bytes: WireBytes,
    /// Packet drops by reason (sum over all links/switches).
    pub drops: BTreeMap<DropReason, u64>,
    /// Queue samples (only when sampling is enabled). Bounded by
    /// [`crate::SimConfig::queue_sample_cap`].
    pub queue_samples: Vec<QueueSample>,
    /// Samples discarded after `queue_samples` hit its cap (0 in any
    /// run short enough to retain them all).
    pub queue_samples_capped: u64,
    /// Payload packets that traversed a forwarding loop (visited the same
    /// switch twice), as detected by the engine's TTL bookkeeping.
    pub looped_packets: u64,
    /// Payload packets delivered to their destination host.
    pub delivered_packets: u64,
    /// Loop-breaking events reported by switch logic (§5.5).
    pub loop_breaks: u64,
    /// Events popped off the engine's queue — the denominator of the
    /// events/sec throughput figure tracked in `BENCH_sim.json`.
    pub events_processed: u64,
    /// Always 0: the engine posts one serializer completion per packet
    /// and elides none. Kept only because the repository benchmark
    /// still reads it.
    pub txdone_coalesced: u64,
    /// Peak number of pending events in the scheduler over the run.
    pub sched_peak_pending: u64,
    /// Timing-wheel entries re-filed from a coarser level into a finer
    /// one as the clock advanced (0 under the heap scheduler).
    pub sched_cascades: u64,
    /// Events that landed beyond the timing wheel's horizon in its
    /// overflow heap (0 under the heap scheduler).
    pub sched_overflow: u64,
    /// Flowlet-table pins that displaced a live foreign entry (modeled
    /// register pressure), summed over all switches at the end of a run.
    pub flowlet_collisions: u64,
    /// Loop-table observations that displaced a live foreign row, summed
    /// over all switches at the end of a run.
    pub loop_collisions: u64,
    /// UDP bytes delivered, bucketed by [`SimStats::udp_bucket`] for
    /// throughput-over-time plots (Fig 14). The bucket currently being
    /// filled is held in `udp_cur` (deliveries arrive in time order, so
    /// only one bucket is ever open) and folded in by
    /// [`SimStats::flush_udp`] — a per-delivery map insert was hot
    /// enough to show up in whole-run profiles.
    pub udp_delivered: BTreeMap<u64, u64>,
    /// Open `(bucket, bytes)` accumulator behind `udp_delivered`.
    udp_cur: Option<(u64, u64)>,
    /// Bucket width used for `udp_delivered`.
    pub udp_bucket: Time,
    /// Convergence record per effective fault event, in fault order
    /// (empty when no fault changed link state).
    pub fault_epochs: Vec<FaultEpoch>,
}

impl SimStats {
    /// Creates stats with the given UDP throughput bucket width.
    pub fn new(udp_bucket: Time) -> SimStats {
        SimStats {
            udp_bucket,
            ..SimStats::default()
        }
    }

    /// Records wire bytes for a transmission.
    #[inline]
    pub fn on_wire(&mut self, kind: TrafficKind, bytes: u32) {
        self.wire_bytes.add(kind, bytes as u64);
    }

    /// Records a drop.
    pub fn on_drop(&mut self, reason: DropReason) {
        *self.drops.entry(reason).or_insert(0) += 1;
    }

    /// Records a drop at `now`, attributing `NoRoute`/`LinkDown` losses
    /// to the most recently opened fault epoch (convergence telemetry).
    /// Drops before any fault — e.g. `NoRoute` during a routing
    /// protocol's cold start — are counted but attributed to no epoch.
    /// Probe drops (`probe == true`) are likewise counted but never
    /// attributed: probes dying on a dead cable are the *detection
    /// mechanism*, not convergence loss, and would otherwise stretch
    /// every epoch's last-disruption instant to the end of the run.
    pub fn on_drop_at(&mut self, reason: DropReason, now: Time, probe: bool) {
        self.on_drop(reason);
        if !probe && matches!(reason, DropReason::NoRoute | DropReason::LinkDown) {
            if let Some(epoch) = self.fault_epochs.last_mut() {
                epoch.last_disruption = Some(now);
                epoch.disruption_drops += 1;
            }
        }
    }

    /// Opens a fault epoch: subsequent disruption drops are attributed
    /// to it. Called by the engine only when a fault event actually
    /// changed link state.
    pub fn open_fault_epoch(&mut self, at: Time, label: String, is_down: bool) {
        self.fault_epochs.push(FaultEpoch {
            at,
            label,
            is_down,
            last_disruption: None,
            disruption_drops: 0,
        });
    }

    /// Records UDP payload delivery at `now`. Deliveries arrive in
    /// nondecreasing time order (the event loop's clock), so same-bucket
    /// deliveries — the overwhelmingly common case — fold into the open
    /// accumulator without touching the map. Call
    /// [`SimStats::flush_udp`] before reading `udp_delivered`.
    #[inline]
    pub fn on_udp_delivered(&mut self, now: Time, bytes: u32) {
        let bucket = now.0 / self.udp_bucket.0.max(1);
        match &mut self.udp_cur {
            Some((b, acc)) if *b == bucket => *acc += bytes as u64,
            _ => {
                self.flush_udp();
                self.udp_cur = Some((bucket, bytes as u64));
            }
        }
    }

    /// Folds the open delivery bucket into `udp_delivered`. The engine
    /// calls this at end of run; safe to call any number of times.
    pub fn flush_udp(&mut self) {
        if let Some((b, acc)) = self.udp_cur.take() {
            *self.udp_delivered.entry(b).or_insert(0) += acc;
        }
    }

    /// Mean FCT over completed flows, in milliseconds (`None` if no flow
    /// completed).
    pub fn mean_fct_ms(&self) -> Option<f64> {
        let fcts: Vec<f64> = self
            .flows
            .iter()
            .filter_map(|f| f.fct().map(|t| t.as_millis_f64()))
            .collect();
        if fcts.is_empty() {
            None
        } else {
            Some(fcts.iter().sum::<f64>() / fcts.len() as f64)
        }
    }

    /// The p-th percentile FCT (0 ≤ p ≤ 100) over completed flows, ms
    /// (ceil-based nearest rank — see [`percentile`]).
    pub fn fct_percentile_ms(&self, p: f64) -> Option<f64> {
        let mut fcts: Vec<f64> = self
            .flows
            .iter()
            .filter_map(|f| f.fct().map(|t| t.as_millis_f64()))
            .collect();
        fcts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        percentile(&fcts, p)
    }

    /// Fraction of offered *finite* flows that completed (unbounded UDP
    /// streams are excluded).
    pub fn completion_rate(&self) -> f64 {
        let finite: Vec<&FlowRecord> = self.flows.iter().filter(|f| !f.unbounded).collect();
        if finite.is_empty() {
            return 1.0;
        }
        finite.iter().filter(|f| f.finish.is_some()).count() as f64 / finite.len() as f64
    }

    /// Total wire bytes across all kinds.
    pub fn total_wire_bytes(&self) -> u64 {
        self.wire_bytes.values().sum()
    }

    /// UDP goodput in Gbps for each completed bucket, as (bucket start
    /// time, Gbps) pairs.
    pub fn udp_goodput_gbps(&self) -> Vec<(Time, f64)> {
        let w = self.udp_bucket.as_secs_f64();
        self.udp_delivered
            .iter()
            .map(|(&b, &bytes)| (Time(b * self.udp_bucket.0), bytes as f64 * 8.0 / w / 1e9))
            .collect()
    }

    /// The goodput dip around a fault at `fault_at`, from the UDP
    /// goodput timeline: baseline over buckets fully before the fault,
    /// minimum over buckets from the fault on, and the time until the
    /// first post-fault bucket back at ≥ 90% of baseline. `None` when
    /// the timeline has no buckets on one side of the fault.
    pub fn goodput_dip(&self, fault_at: Time) -> Option<GoodputDip> {
        let series = self.udp_goodput_gbps();
        let w = self.udp_bucket;
        let pre: Vec<f64> = series
            .iter()
            .filter(|(t, _)| *t + w <= fault_at)
            .map(|(_, g)| *g)
            .collect();
        let post: Vec<(Time, f64)> = series
            .iter()
            .copied()
            .filter(|(t, _)| *t + w > fault_at)
            .collect();
        if pre.is_empty() || post.is_empty() {
            return None;
        }
        let baseline_gbps = pre.iter().sum::<f64>() / pre.len() as f64;
        let min_gbps = post.iter().map(|(_, g)| *g).fold(f64::INFINITY, f64::min);
        let threshold = 0.9 * baseline_gbps;
        let recovered_at = post
            .iter()
            .find(|(t, g)| *t >= fault_at && *g >= threshold)
            .map(|(t, _)| *t);
        let duration = match recovered_at {
            Some(t) => t.saturating_sub(fault_at),
            None => (post.last().expect("post is non-empty").0 + w).saturating_sub(fault_at),
        };
        Some(GoodputDip {
            baseline_gbps,
            min_gbps,
            depth_gbps: (baseline_gbps - min_gbps).max(0.0),
            duration,
            recovered: recovered_at.is_some(),
        })
    }

    /// Queue-length CDF in MSS units: returns sorted (length, cumulative
    /// fraction) pairs over all samples.
    pub fn queue_cdf_mss(&self, mss: u32) -> Vec<(u32, f64)> {
        if self.queue_samples.is_empty() {
            return Vec::new();
        }
        let mut lens: Vec<u32> = self
            .queue_samples
            .iter()
            .map(|s| s.bytes / mss.max(1))
            .collect();
        lens.sort_unstable();
        let n = lens.len() as f64;
        let mut out: Vec<(u32, f64)> = Vec::new();
        for (i, l) in lens.iter().enumerate() {
            let frac = (i + 1) as f64 / n;
            match out.last_mut() {
                Some(last) if last.0 == *l => last.1 = frac,
                _ => out.push((*l, frac)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fct_stats() {
        let mut s = SimStats::new(Time::ms(1));
        s.flows.push(FlowRecord {
            id: FlowId(0),
            size_bytes: 1000,
            start: Time::ZERO,
            finish: Some(Time::ms(2)),
            retransmits: 0,
            unbounded: false,
        });
        s.flows.push(FlowRecord {
            id: FlowId(1),
            size_bytes: 1000,
            start: Time::ms(1),
            finish: Some(Time::ms(5)),
            retransmits: 1,
            unbounded: false,
        });
        s.flows.push(FlowRecord {
            id: FlowId(2),
            size_bytes: 1000,
            start: Time::ms(1),
            finish: None,
            retransmits: 0,
            unbounded: false,
        });
        assert_eq!(s.mean_fct_ms(), Some(3.0));
        assert!((s.completion_rate() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(s.fct_percentile_ms(100.0), Some(4.0));
    }

    #[test]
    fn percentile_is_ceil_nearest_rank() {
        let v = vec![1.0, 2.0, 3.0, 4.0];
        // Standard nearest-rank: p50 of 4 samples is the 2nd, not the 3rd
        // the old round((p/100)·(n-1)) index produced.
        assert_eq!(percentile(&v, 50.0), Some(2.0));
        assert_eq!(percentile(&v, 25.0), Some(1.0));
        assert_eq!(percentile(&v, 75.0), Some(3.0));
        assert_eq!(percentile(&v, 99.0), Some(4.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_never_undershoots_the_tail() {
        // 62 samples: round(0.99·61) = 60 picked the 61st sample — below
        // the true p99 (rank ⌈61.38⌉ = 62, the maximum).
        let v: Vec<f64> = (1..=62).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(62.0));
        // p999 over a small set is the maximum.
        let w: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&w, 99.9), Some(10.0));
        assert_eq!(percentile(&w, 90.0), Some(9.0));
    }

    #[test]
    fn udp_goodput_buckets() {
        let mut s = SimStats::new(Time::ms(1));
        s.on_udp_delivered(Time::us(100), 100_000); // bucket 0
        s.on_udp_delivered(Time::us(900), 25_000); // bucket 0, folds in place
        s.on_udp_delivered(Time::us(1_500), 125_000); // bucket 1
        s.flush_udp();
        let g = s.udp_goodput_gbps();
        assert_eq!(g.len(), 2);
        assert!((g[0].1 - 1.0).abs() < 1e-9, "1 Gb in 1 ms = 1 Gbps");
    }

    #[test]
    fn queue_cdf() {
        let mut s = SimStats::new(Time::ms(1));
        for bytes in [0, 1500, 1500, 3000] {
            s.queue_samples.push(QueueSample {
                at: Time::ZERO,
                link: 0,
                bytes,
            });
        }
        let cdf = s.queue_cdf_mss(1500);
        assert_eq!(cdf, vec![(0, 0.25), (1, 0.75), (2, 1.0)]);
    }

    #[test]
    fn drops_attribute_to_latest_fault_epoch() {
        let mut s = SimStats::new(Time::ms(1));
        // Pre-fault drops (cold start) attach to no epoch.
        s.on_drop_at(DropReason::NoRoute, Time::us(5), false);
        s.open_fault_epoch(Time::us(100), "down a~b".into(), true);
        s.on_drop_at(DropReason::LinkDown, Time::us(110), false);
        s.on_drop_at(DropReason::NoRoute, Time::us(150), false);
        // A probe dying on the dead cable is detection, not disruption.
        s.on_drop_at(DropReason::LinkDown, Time::us(155), true);
        s.on_drop_at(DropReason::QueueFull, Time::us(160), false); // not a disruption
        s.open_fault_epoch(Time::us(200), "up a~b".into(), false);
        s.on_drop_at(DropReason::LinkDown, Time::us(210), false);
        assert_eq!(s.fault_epochs.len(), 2);
        let down = &s.fault_epochs[0];
        assert_eq!(down.disruption_drops, 2);
        assert_eq!(down.last_disruption, Some(Time::us(150)));
        assert_eq!(down.convergence(), Time::us(50));
        let up = &s.fault_epochs[1];
        assert_eq!(up.disruption_drops, 1);
        assert_eq!(s.drops[&DropReason::NoRoute], 2);
        assert_eq!(s.drops[&DropReason::QueueFull], 1);
    }

    #[test]
    fn goodput_dip_measures_depth_and_duration() {
        let mut s = SimStats::new(Time::ms(1));
        // 2 Gbps baseline for 3 ms, dip to ~0 for 2 ms, recover.
        for b in 0..3u64 {
            s.on_udp_delivered(Time::ms(b) + Time::us(1), 250_000);
        }
        s.on_udp_delivered(Time::ms(3) + Time::us(1), 10_000);
        s.on_udp_delivered(Time::ms(4) + Time::us(1), 10_000);
        s.on_udp_delivered(Time::ms(5) + Time::us(1), 250_000);
        s.flush_udp();
        let dip = s.goodput_dip(Time::ms(3)).expect("both sides populated");
        assert!((dip.baseline_gbps - 2.0).abs() < 1e-9, "{dip:?}");
        assert!(dip.min_gbps < 0.1, "{dip:?}");
        assert!((dip.depth_gbps - (dip.baseline_gbps - dip.min_gbps)).abs() < 1e-12);
        assert!(dip.recovered);
        assert_eq!(dip.duration, Time::ms(2), "{dip:?}");
        // No pre-fault buckets → no dip measurement.
        assert!(s.goodput_dip(Time::ZERO).is_none());
    }

    #[test]
    fn wire_accounting() {
        let mut s = SimStats::new(Time::ms(1));
        s.on_wire(TrafficKind::Data, 1500);
        s.on_wire(TrafficKind::Data, 1500);
        s.on_wire(TrafficKind::Probe, 64);
        assert_eq!(s.wire_bytes[&TrafficKind::Data], 3000);
        assert_eq!(s.total_wire_bytes(), 3064);
    }
}
