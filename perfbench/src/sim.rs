//! The packet-level workloads: `dc-fabric`, `wan-failover` and
//! `dc-telemetry`.
//!
//! A batch builds the scenario's topology, generates every sub-seed's
//! flows with `poisson_flows`, compiles Contra's policy into the batch's
//! compile cache, and runs one cell per (sub-seed, system). The benchmark
//! generates the flows itself and hands them to the scenario, so it knows
//! each flow's endpoints and can check every completion time against a
//! physical lower bound.

use crate::trace::{SpanId, Tracer};
use crate::util::{percentile, tail_percentile, Fnv};
use crate::Batch;
use contra_experiments::{
    run_cells, Contra, Ecmp, Figures, Hula, Jobs, RunResult, Scenario, Sp, SweepCell, Traffic,
};
use contra_sim::{CompileCache, DropReason, FlowSpec, InstallCtx, InstallError, RoutingSystem};
use contra_sim::{Simulator, Time, TrafficKind};
use contra_topology::{paths, NodeId, Topology};
use contra_workloads::{poisson_flows, uplink_capacity_bps, web_search, PairPolicy, WorkloadSpec};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// One packet-level workload.
pub struct SimWorkload {
    pub name: &'static str,
    /// Bytes a batch offers. Web-search flow sizes are heavy-tailed: one
    /// fabric seed's offered bytes swing by ±17% around their mean, and
    /// the batch's run time with them. So a batch takes sub-seeds' flow
    /// lists in turn, each in arrival order, until this many bytes are
    /// offered, and ends the last list there. Every seed then asks for
    /// the same work to within one flow.
    offered_bytes: u64,
    /// Bytes one sub-seed may offer before its list is ended. On Abilene
    /// the four random sender/receiver pairs decide much of a cell's
    /// work (whether they cross the cut trunk, how long their paths
    /// are), so the WAN batch pools eight pair draws of shorter arrival
    /// windows rather than four full ones.
    subseed_bytes: u64,
    kind: Kind,
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// §6.3 leaf-spine fabric, Contra, Hula and ECMP, cells run serially.
    Fabric,
    /// §6.4 Abilene with a trunk cut, Contra (MU) and SP under `run_cells`.
    Wan,
    /// The fabric under Contra with the telemetry recorder on.
    Telemetry,
}

pub const DC_FABRIC: SimWorkload = SimWorkload {
    name: "dc-fabric",
    offered_bytes: 800_000_000,
    subseed_bytes: u64::MAX,
    kind: Kind::Fabric,
};
pub const WAN_FAILOVER: SimWorkload = SimWorkload {
    name: "wan-failover",
    offered_bytes: 3_200_000_000,
    subseed_bytes: 400_000_000,
    kind: Kind::Wan,
};
pub const DC_TELEMETRY: SimWorkload = SimWorkload {
    name: "dc-telemetry",
    offered_bytes: 800_000_000,
    subseed_bytes: u64::MAX,
    kind: Kind::Telemetry,
};

/// Sweep workers for `wan-failover`: fixed, not the core count, so the
/// workload is the same on every machine (two fills a 2-vCPU host).
const WAN_WORKERS: usize = 2;

/// The systems a workload runs, with the metric suffix and the span name
/// of their `install` call.
fn systems(kind: Kind) -> Vec<(&'static str, &'static str, Box<dyn RoutingSystem>)> {
    match kind {
        Kind::Fabric => vec![
            ("contra", "dataplane.install", Box::new(Contra::dc())),
            ("hula", "baselines.install", Box::new(Hula::default())),
            ("ecmp", "baselines.install", Box::new(Ecmp)),
        ],
        Kind::Wan => vec![
            ("contra", "dataplane.install", Box::new(Contra::mu())),
            ("sp", "baselines.install", Box::new(Sp)),
        ],
        Kind::Telemetry => vec![("contra", "dataplane.install", Box::new(Contra::dc()))],
    }
}

/// Scenario timing, set explicitly so the run's end (which censors
/// unfinished flows) is known here.
struct Timing {
    warmup: Time,
    duration: Time,
    drain: Time,
}

impl Timing {
    fn of(kind: Kind) -> Timing {
        match kind {
            Kind::Fabric | Kind::Telemetry => Timing {
                warmup: Time::ms(2),
                duration: Time::ms(30),
                drain: Time::ms(40),
            },
            Kind::Wan => Timing {
                warmup: Time::ms(120),
                duration: Time::ms(400),
                drain: Time::ms(300),
            },
        }
    }

    fn end(&self) -> Time {
        self.duration + self.drain
    }
}

fn base_scenario(kind: Kind, t: &Timing) -> Scenario {
    let s = match kind {
        Kind::Fabric | Kind::Telemetry => Scenario::leaf_spine(4, 2, 8).load(0.8),
        Kind::Wan => Scenario::abilene()
            .load(0.6)
            .fail_link("Denver", "KansasCity", Time::us(100)),
    };
    s.warmup(t.warmup)
        .duration(t.duration)
        .drain(t.drain)
        .traffic(Traffic::None)
        .telemetry(kind == Kind::Telemetry)
}

/// Wraps a system to time its `install` call from outside, which is the
/// only boundary inside a cell the public API exposes.
struct Timed<'a> {
    inner: &'a dyn RoutingSystem,
    span: &'static str,
    tracer: &'a Tracer,
    /// The sweep span, for installs that run on `run_cells` workers.
    parent: Option<SpanId>,
    cell: u32,
    log: Mutex<Option<(Instant, Instant, ThreadId)>>,
}

impl<'a> Timed<'a> {
    fn new(
        inner: &'a dyn RoutingSystem,
        span: &'static str,
        tracer: &'a Tracer,
        parent: Option<SpanId>,
        cell: u32,
    ) -> Timed<'a> {
        Timed {
            inner,
            span,
            tracer,
            parent,
            cell,
            log: Mutex::new(None),
        }
    }

    fn log(&self) -> Option<(Instant, Instant, ThreadId)> {
        *self.log.lock().expect("install log lock")
    }
}

impl RoutingSystem for Timed<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn policy_text(&self) -> Option<&str> {
        self.inner.policy_text()
    }

    fn install(&self, sim: &mut Simulator, ctx: &InstallCtx<'_>) -> Result<(), InstallError> {
        let start = Instant::now();
        let install = || self.inner.install(sim, ctx);
        let r = match self.parent {
            Some(p) => self
                .tracer
                .span_under(Some(p), self.span, Some(self.cell), install),
            None => self.tracer.span(self.span, Some(self.cell), install),
        };
        let log = (start, Instant::now(), std::thread::current().id());
        *self.log.lock().expect("install log lock") = Some(log);
        r
    }
}

/// What one cell left behind.
struct CellOut {
    sys: &'static str,
    result: Result<RunResult, String>,
}

impl SimWorkload {
    pub fn run_batch(&self, seed: u64, tr: &Tracer, out: &mut Batch) {
        let t = Timing::of(self.kind);
        let systems = systems(self.kind);
        let base = tr.span("topology.build", None, || {
            let started = Instant::now();
            let s = base_scenario(self.kind, &t);
            out.setup_s += started.elapsed().as_secs_f64();
            s
        });
        let topo = base.topology();

        // Inputs: every sub-seed's flow list.
        let mut scenarios = Vec::new();
        let mut inputs = Vec::new();
        let mut offered = 0u64;
        for j in 0.. {
            if offered >= self.offered_bytes {
                break;
            }
            let sub = seed.wrapping_mul(1000).wrapping_add(j);
            let started = Instant::now();
            let mut flows = tr.span("workloads.flowgen", None, || self.flows(&base, &t, sub));
            let took = started.elapsed().as_secs_f64();
            let mut own = 0u64;
            let keep = flows
                .iter()
                .position(|f| {
                    own += flow_bytes(f);
                    offered += flow_bytes(f);
                    offered >= self.offered_bytes || own >= self.subseed_bytes
                })
                .map_or(flows.len(), |last| last + 1);
            flows.truncate(keep);
            out.setup_s += took;
            out.add("workloads.flowgen_s", took);
            out.add("workloads.flows", flows.len() as f64);
            let mut s = base.clone().seed(sub);
            for f in &flows {
                s = s.flow(f.clone());
            }
            scenarios.push(s);
            inputs.push(flows);
        }

        // Compile Contra's policy into the batch's cache up front, so the
        // compile is its own span; the cells' installs then hit the cache.
        let cache = CompileCache::new();
        for (_, _, sys) in &systems {
            if let Some(policy) = sys.policy_text() {
                let started = Instant::now();
                let r = tr.span("core.compile", None, || cache.get_or_compile(topo, policy));
                out.setup_s += started.elapsed().as_secs_f64();
                out.ops += 1;
                if let Err(e) = r {
                    out.fail(
                        &format!("{} compile", self.name),
                        format!("compiling {policy:?}: {e}"),
                    );
                }
            }
        }

        let cells = match self.kind {
            Kind::Wan => self.run_parallel(tr, &scenarios, &systems, &cache, out),
            _ => self.run_serial(tr, &scenarios, &systems, &cache, out),
        };
        out.set(
            "experiments.compiles_per_cell",
            cache.compiles() as f64 / cells.len().max(1) as f64,
        );

        let mut contra = ContraResults::default();
        for (i, c) in cells.iter().enumerate() {
            let sub = i / systems.len();
            let label = format!("{} sub{} {}", self.name, sub, c.sys);
            out.ops += 1;
            let r = match &c.result {
                Ok(r) => r,
                Err(e) => {
                    out.fail(&label, e);
                    continue;
                }
            };
            self.cell_metrics(c.sys, r, out);
            if self.kind == Kind::Telemetry {
                self.export_telemetry(tr, i as u32, r, &label, out);
            }
            let started = Instant::now();
            let checked = tr.span("bench.check", Some(i as u32), || {
                check_cell(topo, &inputs[sub], r, &t)
            });
            out.check_s += started.elapsed().as_secs_f64();
            match checked {
                Ok(fp) => out.fingerprints.push((label, fp)),
                Err(e) => out.fail(&label, e),
            }
            if tr.enabled() {
                let started = Instant::now();
                let figures = tr.span("experiments.figures", Some(i as u32), || {
                    Figures::derive(&r.stats, t.warmup)
                });
                out.add("experiments.figures_s", started.elapsed().as_secs_f64());
                std::hint::black_box(figures);
            }
            if c.sys == "contra" {
                contra.add(r, t.end());
            }
        }
        contra.report(out);
    }

    fn flows(&self, base: &Scenario, t: &Timing, sub: u64) -> Vec<FlowSpec> {
        let topo = base.topology();
        let (pairs, capacity_bps) = match self.kind {
            // `Scenario::abilene` measures load against one 40 Gbps trunk.
            Kind::Wan => (
                PairPolicy::FixedPairs(base.clone().seed(sub).pick_pairs(4)),
                40e9,
            ),
            _ => (
                PairPolicy::HalfSendersHalfReceivers,
                uplink_capacity_bps(topo),
            ),
        };
        let spec = WorkloadSpec {
            load: base.load_fraction(),
            capacity_bps,
            start: t.warmup,
            until: t.duration,
            seed: sub,
        };
        poisson_flows(topo, &web_search(), &pairs, &spec)
    }

    /// One cell at a time on this thread, each timed from outside.
    fn run_serial(
        &self,
        tr: &Tracer,
        scenarios: &[Scenario],
        systems: &[(&'static str, &'static str, Box<dyn RoutingSystem>)],
        cache: &CompileCache,
        out: &mut Batch,
    ) -> Vec<CellOut> {
        let mut cells = Vec::new();
        for s in scenarios {
            for (sys, span, system) in systems {
                let cell = cells.len() as u32;
                let timed = Timed::new(system.as_ref(), span, tr, None, cell);
                let started = Instant::now();
                let result = tr.span("experiments.try_run_cached", Some(cell), || {
                    let r = catch_unwind(AssertUnwindSafe(|| s.try_run_cached(&timed, cache)));
                    let r = flatten(r);
                    if let Ok(r) = &r {
                        let end = Instant::now();
                        let loop_start = end - std::time::Duration::from_secs_f64(r.wall_secs);
                        let here = std::thread::current().id();
                        tr.record(
                            "sim.run_full",
                            Some(cell),
                            tr.current(),
                            (loop_start, end),
                            here,
                        );
                    }
                    r
                });
                let took = started.elapsed().as_secs_f64();
                if let Ok(r) = &result {
                    let pre_loop = (took - r.wall_secs).max(0.0);
                    out.setup_s += pre_loop;
                    out.add("experiments.install_s", pre_loop);
                }
                cells.push(CellOut { sys, result });
            }
        }
        cells
    }

    /// Every cell of the batch through `run_cells` on the worker pool.
    fn run_parallel(
        &self,
        tr: &Tracer,
        scenarios: &[Scenario],
        systems: &[(&'static str, &'static str, Box<dyn RoutingSystem>)],
        cache: &CompileCache,
        out: &mut Batch,
    ) -> Vec<CellOut> {
        let n = scenarios.len() * systems.len();
        let started = Instant::now();
        let (results, logs) = tr.span("experiments.run_cells", None, || {
            let sweep = tr.current();
            let timed: Vec<Timed> = (0..n)
                .map(|i| {
                    let (_, span, system) = &systems[i % systems.len()];
                    Timed::new(system.as_ref(), span, tr, sweep, i as u32)
                })
                .collect();
            let cells: Vec<SweepCell> = timed
                .iter()
                .enumerate()
                .map(|(i, t)| SweepCell::new(i, scenarios[i / systems.len()].clone(), t, None))
                .collect();
            let results = catch_unwind(AssertUnwindSafe(|| {
                run_cells(cells, Jobs::N(WAN_WORKERS), cache)
            }));
            let logs: Vec<_> = timed.iter().map(Timed::log).collect();
            if let Ok(rs) = &results {
                for (i, (r, log)) in rs.iter().zip(&logs).enumerate() {
                    if let Some((_, end, thread)) = *log {
                        let loop_end = end + std::time::Duration::from_secs_f64(r.wall_secs);
                        tr.record(
                            "sim.run_full",
                            Some(i as u32),
                            sweep,
                            (end, loop_end),
                            thread,
                        );
                    }
                }
            }
            (results, logs)
        });
        let wall = started.elapsed().as_secs_f64();

        let results: Vec<Result<RunResult, String>> = match results {
            Ok(rs) => rs.into_iter().map(Ok).collect(),
            Err(p) => {
                let msg = format!("run_cells panicked: {}", panic_text(p.as_ref()));
                (0..n).map(|_| Err(msg.clone())).collect()
            }
        };

        // Worker occupancy, from the install instants and each cell's
        // event-loop time: a cell counts as busy for its install plus its
        // loop, and its loop as starting when its install ends. The short
        // flow and fault scheduling between the two, and the fault
        // expansion and simulator construction before install, are not
        // visible from outside and are not counted.
        let mut busy = 0.0;
        let mut last_end: std::collections::HashMap<ThreadId, Instant> = Default::default();
        for (r, log) in results.iter().zip(&logs) {
            if let (Ok(r), Some((start, end, thread))) = (r, log) {
                let install = (*end - *start).as_secs_f64();
                out.setup_s += install;
                out.add("experiments.install_s", install);
                busy += install + r.wall_secs;
                let loop_end = *end + std::time::Duration::from_secs_f64(r.wall_secs);
                let e = last_end.entry(*thread).or_insert(loop_end);
                *e = (*e).max(loop_end);
            }
        }
        out.add(
            "experiments.sweep_busy_pct",
            100.0 * busy / (WAN_WORKERS as f64 * wall),
        );
        if let Some(first_idle) = last_end.values().min() {
            let tail = wall - (*first_idle - started).as_secs_f64();
            out.add("experiments.sweep_tail_s", tail.max(0.0));
        }

        results
            .into_iter()
            .enumerate()
            .map(|(i, result)| CellOut {
                sys: systems[i % systems.len()].0,
                result,
            })
            .collect()
    }

    fn cell_metrics(&self, sys: &'static str, r: &RunResult, out: &mut Batch) {
        let st = &r.stats;
        let loop_s = format!("sim.loop_s.{sys}");
        let events = format!("sim.events.{sys}");
        out.add(&loop_s, r.wall_secs);
        out.add(&events, st.events_processed as f64);
        let ns = 1e9 * out.get(&loop_s) / out.get(&events).max(1.0);
        out.set(&format!("sim.ns_per_event.{sys}"), ns);
        out.add("sim.txdone_coalesced", st.txdone_coalesced as f64);
        out.max("sim.sched_peak_pending", st.sched_peak_pending as f64);
        out.add("sim.sched_cascades", st.sched_cascades as f64);
        out.add("sim.sched_overflow", st.sched_overflow as f64);
        if sys != "contra" {
            return;
        }
        for (reason, n) in &st.drops {
            let name = match reason {
                DropReason::QueueFull => "sim.drops.queue_full",
                DropReason::LinkDown => "sim.drops.link_down",
                DropReason::NoRoute => "sim.drops.no_route",
                DropReason::TtlExpired => "sim.drops.ttl_expired",
            };
            out.add(name, *n as f64);
        }
        let retx: u64 = st.flows.iter().map(|f| f.retransmits).sum();
        out.add("sim.retransmits", retx as f64);
        out.add(
            "sim.wire_bytes.data",
            st.wire_bytes[&TrafficKind::Data] as f64,
        );
        out.add(
            "sim.wire_bytes.ack",
            st.wire_bytes[&TrafficKind::Ack] as f64,
        );
        out.add(
            "sim.wire_bytes.probe",
            st.wire_bytes[&TrafficKind::Probe] as f64,
        );
        out.add(
            "dataplane.register_collisions",
            r.figures.register_collisions as f64,
        );
    }

    /// Renders the recorder's three exports in memory (part of the
    /// workload) and checks that the trace is well-formed JSON.
    fn export_telemetry(
        &self,
        tr: &Tracer,
        cell: u32,
        r: &RunResult,
        label: &str,
        out: &mut Batch,
    ) {
        let Some(rep) = &r.telemetry else {
            out.fail(label, "telemetry was on but the run has no report");
            return;
        };
        let started = Instant::now();
        let (chrome, bytes) = tr.span("telemetry.export", Some(cell), || {
            let chrome = rep.chrome_trace();
            let jsonl = rep.events_jsonl();
            let csv = rep.metrics_csv();
            let bytes = chrome.len() + jsonl.len() + csv.len();
            std::hint::black_box((&jsonl, &csv));
            (chrome, bytes)
        });
        out.add("telemetry.export_s", started.elapsed().as_secs_f64());
        out.add("telemetry.export_bytes", bytes as f64);
        out.add("telemetry.events_evicted", rep.events_evicted as f64);
        for (kind, n) in rep.event_counts() {
            let name = match kind {
                "churn" => "telemetry.events.churn",
                "cwnd" => "telemetry.events.cwnd",
                "deliver" => "telemetry.events.deliver",
                "down" => "telemetry.events.down",
                "drop" => "telemetry.events.drop",
                "fault" => "telemetry.events.fault",
                "flow_start" => "telemetry.events.flow_start",
                "link" => "telemetry.events.link",
                "train_commit" => "telemetry.events.train_commit",
                "tx_start" => "telemetry.events.tx_start",
                _ => "telemetry.events.other",
            };
            out.add(name, n as f64);
        }
        let started = Instant::now();
        let valid = tr.span("bench.check", Some(cell), || {
            contra_telemetry::validate_json(&chrome)
        });
        out.check_s += started.elapsed().as_secs_f64();
        if let Err(e) = valid {
            out.fail(label, format!("exported Chrome trace is not JSON: {e}"));
        }
    }
}

fn flow_bytes(f: &FlowSpec) -> u64 {
    match f {
        FlowSpec::Tcp { bytes, .. } => *bytes,
        FlowSpec::Udp { .. } => 0,
    }
}

fn flatten(r: std::thread::Result<Result<RunResult, InstallError>>) -> Result<RunResult, String> {
    match r {
        Ok(Ok(r)) => Ok(r),
        Ok(Err(e)) => Err(format!("install failed: {e}")),
        Err(p) => Err(format!("panicked: {}", panic_text(p.as_ref()))),
    }
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_default()
}

/// The simulated results of the Contra cells, pooled over sub-seeds.
#[derive(Default)]
struct ContraResults {
    /// Censored completion times: a flow still running when the run
    /// ends counts as finishing then, so losing flows cannot look fast.
    fcts_ms: Vec<f64>,
    finished: usize,
    looped: u64,
    delivered: u64,
    reconvergence_ms: f64,
}

impl ContraResults {
    fn add(&mut self, r: &RunResult, run_end: Time) {
        for f in r.stats.flows.iter().filter(|f| !f.unbounded) {
            let end = f.finish.unwrap_or(run_end);
            self.fcts_ms
                .push(end.saturating_sub(f.start).as_millis_f64());
            self.finished += f.finish.is_some() as usize;
        }
        self.looped += r.figures.looped_packets;
        self.delivered += r.figures.delivered_packets;
        if let Some(ms) = r.figures.convergence_ms {
            self.reconvergence_ms = self.reconvergence_ms.max(ms);
        }
    }

    fn report(mut self, out: &mut Batch) {
        let fcts = &mut self.fcts_ms;
        fcts.sort_by(f64::total_cmp);
        let tail = tail_percentile(fcts.len());
        out.set("result.fct_p50_ms", percentile(fcts, 50.0));
        out.set("result.fct_tail_ms", percentile(fcts, tail));
        out.set("result.fct_tail_pctile", tail);
        out.set("result.fct_flows", fcts.len() as f64);
        out.set(
            "result.completion",
            self.finished as f64 / fcts.len().max(1) as f64,
        );
        let probe = out.get("sim.wire_bytes.probe");
        let wire = probe + out.get("sim.wire_bytes.data") + out.get("sim.wire_bytes.ack");
        out.set("result.probe_overhead_pct", 100.0 * probe / wire.max(1.0));
        out.set(
            "result.loop_pct",
            100.0 * self.looped as f64 / self.delivered.max(1) as f64,
        );
        out.set("result.reconvergence_ms", self.reconvergence_ms);
    }
}

/// Output checks for one cell; returns its fingerprint.
///
/// * Stats hold one record per generated flow, in order, with the
///   flow's size and start.
/// * Every finished flow took at least its physical minimum: all its
///   bytes serialized onto the sender's access link, plus the
///   shortest-delay propagation there and back (the last byte out, the
///   last ACK home).
fn check_cell(
    topo: &Topology,
    flows: &[FlowSpec],
    r: &RunResult,
    t: &Timing,
) -> Result<u64, String> {
    let st = &r.stats;
    if st.flows.len() != flows.len() {
        return Err(format!(
            "{} flow records for {} generated flows",
            st.flows.len(),
            flows.len()
        ));
    }
    let mut delay: BTreeMap<NodeId, Vec<Option<u64>>> = BTreeMap::new();
    for (i, (rec, spec)) in st.flows.iter().zip(flows).enumerate() {
        let FlowSpec::Tcp {
            src,
            dst,
            bytes,
            start,
        } = *spec
        else {
            return Err(format!("flow {i}: generated a non-TCP flow"));
        };
        if rec.size_bytes != bytes || rec.start != start {
            return Err(format!("flow record {i} does not match the flow generated"));
        }
        let Some(finish) = rec.finish else { continue };
        if finish > t.end() {
            return Err(format!(
                "flow {i} finished at {finish:?}, after the run ended"
            ));
        }
        let mut one_way = |a: NodeId, b: NodeId| {
            delay
                .entry(a)
                .or_insert_with(|| paths::dijkstra_delay(topo, a))[b.0 as usize]
        };
        let (Some(fwd), Some(rev)) = (one_way(src, dst), one_way(dst, src)) else {
            return Err(format!("flow {i} finished between disconnected hosts"));
        };
        let access = topo.out_links(src)[0];
        let serialize_ns = bytes as f64 * 8.0 / topo.link(access).bandwidth_bps * 1e9;
        let bound_ns = (fwd + rev) as f64 + serialize_ns;
        let fct_ns = finish.saturating_sub(start).0 as f64;
        if fct_ns < bound_ns.floor() {
            return Err(format!(
                "flow {i} finished in {fct_ns} ns, below its physical minimum {bound_ns:.0} ns"
            ));
        }
    }
    Ok(fingerprint(r))
}

/// A hash of what a cell computed: flow records, drops, wire bytes and
/// the event count.
fn fingerprint(r: &RunResult) -> u64 {
    let st = &r.stats;
    let mut h = Fnv::new();
    for f in &st.flows {
        h.u64(f.id.0 as u64);
        h.u64(f.size_bytes);
        h.u64(f.start.0);
        h.u64(f.finish.map_or(u64::MAX, |t| t.0));
        h.u64(f.retransmits);
        h.u64(f.unbounded as u64);
    }
    for (reason, n) in &st.drops {
        h.u64(*reason as u64);
        h.u64(*n);
    }
    for (kind, n) in st.wire_bytes.iter() {
        h.u64(kind as u64);
        h.u64(*n);
    }
    h.u64(st.events_processed);
    h.finish()
}
