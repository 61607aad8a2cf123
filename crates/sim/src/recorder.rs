//! The telemetry recorder: the engine's structured-observation seam.
//!
//! Same contract as the invariant auditor ([`crate::fault::Auditor`],
//! PR 7): **pure observation**. The recorder never touches `SimStats`,
//! never schedules an event, and never changes engine behavior, so
//! golden fingerprints are byte-identical with telemetry on or off —
//! and `events_processed` does not change either, because metric
//! sampling piggybacks on the event loop (a lazy cadence check after
//! each dispatched event) instead of scheduling events of its own.
//!
//! What it captures, into a bounded [`EventRing`] plus a
//! [`MetricsRegistry`] (both from `contra-telemetry`):
//!
//! * packet lifecycle: drops (with reason and link), deliveries,
//!   flow starts;
//! * link/serializer state: idle→busy transitions (`tx_start`) and
//!   link down/up as begin/end spans;
//! * fault epochs and transport actions (cwnd evolution as counter
//!   events, deduplicated on change);
//! * cadence-sampled series: per-link utilization and queue depth,
//!   cumulative drops by reason, per-switch probe/table-update churn,
//!   and `events_processed`.
//!
//! Disabled cost: the engine holds an `Option<Box<Recorder>>`; every
//! hook is one null check.

use crate::link::DropReason;
use crate::stats::SimStats;
use crate::time::Time;
use contra_telemetry::{
    ArgVal, EventRing, MetricsRegistry, Phase, SeriesId, TelemetryReport, TraceEvent,
};
use contra_topology::Topology;
use std::collections::BTreeSet;

/// Track id of engine-global events (faults, engine counters).
pub const ENGINE_TRACK: u64 = 0;
/// Directed link `l` records on track `LINK_TRACK_BASE + l`.
pub const LINK_TRACK_BASE: u64 = 1;
/// Switch `n` records on track `NODE_TRACK_BASE + n`.
pub const NODE_TRACK_BASE: u64 = 1_000_000;
/// Flow `f` records on track `FLOW_TRACK_BASE + f`.
pub const FLOW_TRACK_BASE: u64 = 2_000_000;

/// Telemetry knobs ([`crate::SimConfig::telemetry`]).
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Metric sampling cadence (and the spacing of counter trace
    /// events). The check is lazy — a sample is taken at the first
    /// event at or after each cadence boundary, timestamped at that
    /// event's instant — so sparse event streams yield sparse samples
    /// rather than fabricated ones.
    pub sample_every: Time,
    /// Trace-event ring capacity (oldest evicted first; the report
    /// carries the eviction count).
    pub ring_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            sample_every: Time::us(100),
            ring_capacity: 1 << 16,
        }
    }
}

/// The `CONTRA_TELEM` override, if set: `0`, `off`, `false`, `no` and
/// the empty string disable telemetry, any other value enables it with
/// default knobs (mirroring `CONTRA_SIM_AUDIT`).
pub fn telemetry_from_env() -> Option<bool> {
    let raw = std::env::var("CONTRA_TELEM").ok()?;
    Some(!matches!(
        raw.trim().to_ascii_lowercase().as_str(),
        "" | "0" | "off" | "false" | "no"
    ))
}

/// Per-run recorder state. Owned by the engine as
/// `Option<Box<Recorder>>`, drained into a [`TelemetryReport`] by
/// [`crate::engine::Simulator::run_full`].
#[derive(Debug)]
pub struct Recorder {
    sample_every: Time,
    next_sample: Time,
    ring: EventRing,
    metrics: MetricsRegistry,
    /// Track metadata for links/switches (flows appended at finish).
    track_names: Vec<(u64, String)>,
    /// `"src→dst"` per directed link — metric keys.
    link_names: Vec<String>,
    /// Switch display names — metric keys (`None` for hosts).
    switch_names: Vec<Option<String>>,
    /// Links with an open `down` span (must close before export).
    open_down: Vec<bool>,
    /// Per-link cached series handles (`util`, `queue depth`).
    link_series: Vec<Option<(SeriesId, SeriesId)>>,
    /// Last pushed per-link values, to skip unchanged counter events.
    last_link_sample: Vec<(f64, u32)>,
    /// Per-switch cached series handles (`probes_sent`, `table_updates`).
    churn_series: Vec<Option<(SeriesId, SeriesId)>>,
    /// Last sampled per-switch churn, to record only deltas.
    last_churn: Vec<(u64, u64)>,
    /// Last recorded cwnd per flow (NaN = never recorded).
    last_cwnd: Vec<f64>,
    /// Cached cwnd series handle per flow.
    cwnd_series: Vec<Option<SeriesId>>,
    /// Flows that appeared on any event, for track naming.
    flows_seen: BTreeSet<u32>,
}

fn reason_name(r: DropReason) -> &'static str {
    match r {
        DropReason::QueueFull => "QueueFull",
        DropReason::LinkDown => "LinkDown",
        DropReason::TtlExpired => "TtlExpired",
        DropReason::NoRoute => "NoRoute",
    }
}

fn link_track(l: u32) -> u64 {
    LINK_TRACK_BASE + l as u64
}

impl Recorder {
    /// A recorder for one run over `topo`.
    pub fn new(cfg: &TelemetryConfig, topo: &Topology) -> Recorder {
        let sample_every = Time(cfg.sample_every.0.max(1));
        let nlinks = topo.links().len();
        let mut track_names = Vec::with_capacity(nlinks + topo.num_nodes() + 1);
        track_names.push((ENGINE_TRACK, "engine".to_string()));
        let mut link_names = Vec::with_capacity(nlinks);
        for (i, l) in topo.links().iter().enumerate() {
            let name = format!("{}→{}", topo.node(l.src).name, topo.node(l.dst).name);
            track_names.push((link_track(i as u32), format!("link {name}")));
            link_names.push(name);
        }
        let mut switch_names = vec![None; topo.num_nodes()];
        for s in topo.switches() {
            let name = topo.node(s).name.clone();
            track_names.push((NODE_TRACK_BASE + s.0 as u64, format!("switch {name}")));
            switch_names[s.0 as usize] = Some(name);
        }
        Recorder {
            sample_every,
            next_sample: sample_every,
            ring: EventRing::new(cfg.ring_capacity),
            metrics: MetricsRegistry::new(),
            track_names,
            link_names,
            switch_names,
            open_down: vec![false; nlinks],
            link_series: vec![None; nlinks],
            last_link_sample: vec![(f64::NAN, u32::MAX); nlinks],
            churn_series: vec![None; topo.num_nodes()],
            last_churn: vec![(0, 0); topo.num_nodes()],
            last_cwnd: Vec::new(),
            cwnd_series: Vec::new(),
            flows_seen: BTreeSet::new(),
        }
    }

    /// The next cadence boundary — the engine samples at the first
    /// event at or past this instant.
    #[inline]
    pub fn next_sample(&self) -> Time {
        self.next_sample
    }

    // ---- trace events ---------------------------------------------------

    /// A packet drop (`link = None` for drops with no link context).
    pub fn drop_event(&mut self, now: Time, reason: DropReason, link: Option<u32>) {
        let track = link.map_or(ENGINE_TRACK, link_track);
        self.ring.push(
            TraceEvent::new(now.0, Phase::Instant, "drop", "link", track)
                .arg("reason", ArgVal::S(reason_name(reason))),
        );
    }

    /// A serializer idle→busy transition on `link`.
    pub fn tx_start(&mut self, now: Time, link: u32) {
        self.ring.push(TraceEvent::new(
            now.0,
            Phase::Instant,
            "tx_start",
            "link",
            link_track(link),
        ));
    }

    /// A TCP flow became active.
    pub fn flow_start(&mut self, now: Time, flow: u32) {
        self.flows_seen.insert(flow);
        self.ring.push(TraceEvent::new(
            now.0,
            Phase::Instant,
            "flow_start",
            "flow",
            FLOW_TRACK_BASE + flow as u64,
        ));
    }

    /// A payload packet reached its destination host.
    pub fn deliver(&mut self, now: Time, flow: u32, seq: u32) {
        self.flows_seen.insert(flow);
        self.ring.push(
            TraceEvent::new(
                now.0,
                Phase::Instant,
                "deliver",
                "flow",
                FLOW_TRACK_BASE + flow as u64,
            )
            .arg("seq", ArgVal::U(seq as u64)),
        );
    }

    /// The congestion window of `flow` after a transport action;
    /// recorded (as a counter trace event plus a series point) only
    /// when it changed.
    pub fn cwnd(&mut self, now: Time, flow: u32, cwnd: f64) {
        let idx = flow as usize;
        if idx >= self.last_cwnd.len() {
            self.last_cwnd.resize(idx + 1, f64::NAN);
            self.cwnd_series.resize(idx + 1, None);
        }
        if self.last_cwnd[idx] == cwnd {
            return;
        }
        self.last_cwnd[idx] = cwnd;
        self.flows_seen.insert(flow);
        self.ring.push(
            TraceEvent::new(
                now.0,
                Phase::Counter,
                "cwnd",
                "flow",
                FLOW_TRACK_BASE + flow as u64,
            )
            .arg("cwnd", ArgVal::F(cwnd)),
        );
        let id = match self.cwnd_series[idx] {
            Some(id) => id,
            None => {
                let id = self.metrics.series("cwnd", &format!("flow{flow}"));
                self.cwnd_series[idx] = Some(id);
                id
            }
        };
        self.metrics.push_id(id, now.0, cwnd);
    }

    /// A fault event actually changed link state (epoch `idx` just
    /// opened in the stats).
    pub fn fault(&mut self, now: Time, idx: u64, down: bool) {
        self.ring.push(
            TraceEvent::new(now.0, Phase::Instant, "fault", "fault", ENGINE_TRACK)
                .arg("epoch", ArgVal::U(idx))
                .arg("dir", ArgVal::S(if down { "down" } else { "up" })),
        );
    }

    /// A directed link actually went down: opens its `down` span.
    pub fn link_down(&mut self, now: Time, link: u32) {
        if !self.open_down[link as usize] {
            self.open_down[link as usize] = true;
            self.ring.push(TraceEvent::new(
                now.0,
                Phase::Begin,
                "down",
                "link",
                link_track(link),
            ));
        }
    }

    /// A directed link actually came back up: closes its span.
    pub fn link_up(&mut self, now: Time, link: u32) {
        if self.open_down[link as usize] {
            self.open_down[link as usize] = false;
            self.ring.push(TraceEvent::new(
                now.0,
                Phase::End,
                "down",
                "link",
                link_track(link),
            ));
        }
    }

    // ---- cadence sampling ----------------------------------------------

    /// One fabric link's utilization and queue depth at a sample
    /// boundary.
    pub fn sample_link(&mut self, now: Time, link: u32, util: f64, qdepth: u32) {
        let idx = link as usize;
        let (util_id, depth_id) = match self.link_series[idx] {
            Some(ids) => ids,
            None => {
                let key = self.link_names[idx].clone();
                let ids = (
                    self.metrics.series("link_util", &key),
                    self.metrics.series("queue_depth_bytes", &key),
                );
                self.link_series[idx] = Some(ids);
                ids
            }
        };
        self.metrics.push_id(util_id, now.0, util);
        self.metrics.push_id(depth_id, now.0, qdepth as f64);
        self.metrics
            .observe("queue_depth_bytes", "fabric", qdepth as u64);
        let (last_u, last_q) = self.last_link_sample[idx];
        if last_u != util || last_q != qdepth {
            self.last_link_sample[idx] = (util, qdepth);
            self.ring.push(
                TraceEvent::new(now.0, Phase::Counter, "link", "link", link_track(link))
                    .arg("util", ArgVal::F(util))
                    .arg("queued_bytes", ArgVal::U(qdepth as u64)),
            );
        }
    }

    /// Cumulative drops by reason at a sample boundary.
    pub fn sample_drops(&mut self, now: Time, stats: &SimStats) {
        for (&reason, &count) in &stats.drops {
            self.metrics
                .push("drops", reason_name(reason), now.0, count as f64);
        }
    }

    /// One switch's cumulative control-plane churn at a sample
    /// boundary; records only when it moved.
    pub fn sample_churn(&mut self, now: Time, node: u32, probes: u64, updates: u64) {
        let idx = node as usize;
        if self.last_churn[idx] == (probes, updates) {
            return;
        }
        self.last_churn[idx] = (probes, updates);
        let (probes_id, updates_id) = match self.churn_series[idx] {
            Some(ids) => ids,
            None => {
                let key = self.switch_names[idx]
                    .clone()
                    .unwrap_or_else(|| format!("node{node}"));
                let ids = (
                    self.metrics.series("probes_sent", &key),
                    self.metrics.series("table_updates", &key),
                );
                self.churn_series[idx] = Some(ids);
                ids
            }
        };
        self.metrics.push_id(probes_id, now.0, probes as f64);
        self.metrics.push_id(updates_id, now.0, updates as f64);
        self.ring.push(
            TraceEvent::new(
                now.0,
                Phase::Counter,
                "churn",
                "control",
                NODE_TRACK_BASE + node as u64,
            )
            .arg("probes_sent", ArgVal::U(probes))
            .arg("table_updates", ArgVal::U(updates)),
        );
    }

    /// Engine-global series at a sample boundary.
    pub fn sample_engine(&mut self, now: Time, events_processed: u64) {
        self.metrics
            .push("events_processed", "engine", now.0, events_processed as f64);
        self.metrics.inc("telem_samples", "engine", 1);
    }

    /// Advances the cadence to the next boundary strictly after `now`
    /// (one catch-up sample per gap, not a backlog).
    pub fn bump_next(&mut self, now: Time) {
        self.next_sample = Time((now.0 / self.sample_every.0 + 1) * self.sample_every.0);
    }

    // ---- end of run -----------------------------------------------------

    /// Closes every open span at `now` so the exported trace always has
    /// matched begin/end pairs.
    pub fn finish(&mut self, now: Time) {
        for l in 0..self.open_down.len() {
            if self.open_down[l] {
                self.open_down[l] = false;
                self.ring.push(TraceEvent::new(
                    now.0,
                    Phase::End,
                    "down",
                    "link",
                    link_track(l as u32),
                ));
            }
        }
    }

    /// Drains the recorder into its report (flow tracks named here —
    /// they are only known once the run has happened).
    pub fn into_report(mut self) -> TelemetryReport {
        for f in &self.flows_seen {
            self.track_names
                .push((FLOW_TRACK_BASE + *f as u64, format!("flow {f}")));
        }
        TelemetryReport {
            events_evicted: self.ring.evicted(),
            events: self.ring.into_events(),
            track_names: self.track_names,
            metrics: self.metrics,
            process_name: "contra-sim".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contra_topology::Topology;

    fn tiny() -> Topology {
        let mut t = Topology::builder();
        let a = t.switch("a");
        let b = t.switch("b");
        t.biline(a, b, 1e9, 1_000);
        t.build()
    }

    #[test]
    fn spans_close_at_finish() {
        let topo = tiny();
        let mut rec = Recorder::new(&TelemetryConfig::default(), &topo);
        rec.link_down(Time::us(10), 0);
        rec.link_down(Time::us(11), 0); // idempotent: no second Begin
        rec.finish(Time::us(20));
        let report = rec.into_report();
        let phases: Vec<Phase> = report.events.iter().map(|e| e.phase).collect();
        assert_eq!(phases, vec![Phase::Begin, Phase::End]);
    }

    #[test]
    fn cwnd_dedups_on_unchanged_value() {
        let topo = tiny();
        let mut rec = Recorder::new(&TelemetryConfig::default(), &topo);
        rec.cwnd(Time::us(1), 0, 10.0);
        rec.cwnd(Time::us(2), 0, 10.0);
        rec.cwnd(Time::us(3), 0, 11.0);
        let report = rec.into_report();
        assert_eq!(report.events.len(), 2);
        assert_eq!(report.metrics.points("cwnd", "flow0").unwrap().len(), 2);
        // The flow track got a name.
        assert!(report
            .track_names
            .iter()
            .any(|(t, n)| *t == FLOW_TRACK_BASE && n == "flow 0"));
    }

    #[test]
    fn cadence_advances_past_gaps() {
        let topo = tiny();
        let mut rec = Recorder::new(
            &TelemetryConfig {
                sample_every: Time::us(100),
                ring_capacity: 16,
            },
            &topo,
        );
        assert_eq!(rec.next_sample(), Time::us(100));
        // An event lands long after several boundaries: one catch-up
        // sample, then the next boundary strictly after it.
        rec.bump_next(Time::us(1_250));
        assert_eq!(rec.next_sample(), Time::us(1_300));
        rec.bump_next(Time::us(1_300));
        assert_eq!(rec.next_sample(), Time::us(1_400));
    }
}
