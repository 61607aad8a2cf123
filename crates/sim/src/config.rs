//! [`SimConfig`]: everything a [`crate::Simulator`] is parameterized by.

use crate::packet::{HDR_BYTES, MSS};
use crate::recorder::TelemetryConfig;
use crate::sched::SchedulerKind;
use crate::stats::QUEUE_SAMPLE_CAP;
use crate::time::Time;

/// Engine configuration. Defaults follow §6.3 of the paper where one
/// exists.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Per-link queue capacity in bytes (paper: 1000 MSS).
    pub queue_capacity_bytes: u32,
    /// Utilization estimator window (typically 2× the probe period).
    pub util_tau: Time,
    /// Hard stop: events after this instant are not processed.
    pub stop_at: Time,
    /// Sample fabric queue occupancy this often (Fig 13); `None` disables.
    pub queue_sample_every: Option<Time>,
    /// Hard cap on retained [`crate::stats::QueueSample`] entries.
    /// Sampling keeps running past the cap (the schedule — and thus
    /// `events_processed` — is unchanged); overflow is counted in
    /// [`crate::SimStats::queue_samples_capped`] instead of growing the
    /// vec without bound. Default: [`QUEUE_SAMPLE_CAP`].
    pub queue_sample_cap: usize,
    /// TCP minimum/initial retransmission timeout.
    pub min_rto: Time,
    /// TCP initial congestion window in packets.
    pub init_cwnd: f64,
    /// Bucket width for UDP goodput timelines (Fig 14).
    pub udp_bucket: Time,
    /// Record per-packet switch paths; enables exact loop accounting
    /// (§6.5) and policy-compliance checks in tests. Costs memory per
    /// in-flight packet, so off by default.
    pub trace_paths: bool,
    /// Which event scheduler runs the loop. [`SchedulerKind::Wheel`]
    /// (default) and [`SchedulerKind::Heap`] produce byte-identical
    /// outputs — the heap is kept as a differential oracle and an escape
    /// hatch.
    pub scheduler: SchedulerKind,
    /// Emit window-opening TCP sends as one described
    /// [`crate::transport::TransportEffect::SendBurst`] per handler
    /// (default) instead of one `Send` effect per packet. Both settings
    /// produce byte-identical statistics — the burst is the same packets
    /// with the same ids on the same schedule, minted at effect-apply
    /// time; the per-send path is kept as the differential oracle.
    pub burst_sends: bool,
    /// Runs the runtime invariant auditor: packet conservation, pool and
    /// trace-table leak freedom, queue-occupancy bounds, dead-epoch
    /// detection — checked at every fault epoch and at end of run. Pure
    /// observation (stats are byte-identical either way); costs a few
    /// counter bumps per hop plus a scan per check. On by default in
    /// debug builds; the `CONTRA_SIM_AUDIT` env var overrides this at
    /// construction (`0`/`off`/`false` forces it off, anything else on).
    pub audit: bool,
    /// Runs the telemetry recorder ([`crate::recorder::Recorder`]):
    /// structured trace events into a bounded ring plus cadence-sampled
    /// time-series metrics. Pure observation like the auditor — stats
    /// are byte-identical either way. `None` (default) disables it; the
    /// `CONTRA_TELEM` env var overrides this at construction
    /// (`0`/`off`/`false` forces it off, anything else enables default
    /// knobs).
    pub telemetry: Option<TelemetryConfig>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            queue_capacity_bytes: 1000 * (MSS + HDR_BYTES),
            util_tau: Time::us(512),
            stop_at: Time::ms(100),
            queue_sample_every: None,
            queue_sample_cap: QUEUE_SAMPLE_CAP,
            min_rto: Time::ms(1),
            init_cwnd: 10.0,
            udp_bucket: Time::ms(1),
            trace_paths: false,
            scheduler: SchedulerKind::default(),
            burst_sends: true,
            audit: cfg!(debug_assertions),
            telemetry: None,
        }
    }
}

/// The `CONTRA_SIM_AUDIT` override, if set: `0`, `off`, `false` and the
/// empty string disable the auditor, any other value enables it.
pub fn audit_from_env() -> Option<bool> {
    let raw = std::env::var("CONTRA_SIM_AUDIT").ok()?;
    Some(!matches!(
        raw.trim().to_ascii_lowercase().as_str(),
        "" | "0" | "off" | "false" | "no"
    ))
}
