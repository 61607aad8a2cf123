//! The [`Scenario`] builder: experiment setup as a value.
//!
//! A scenario owns a topology plus everything the old per-figure binaries
//! re-plumbed by hand — workload, load, sender/receiver selection,
//! failures, measurement switches and timing. Running one against a
//! [`RoutingSystem`] is a method call; sweeping the cartesian product of
//! systems × loads is [`Scenario::matrix`].

use crate::dispatch::{DispatchMode, SwitchDispatch};
use crate::fault::{ChaosSpec, FaultCmd, FaultPlan, FaultTarget};
use crate::result::{Figures, RunResult, ScenarioInfo};
use crate::sweep::{Jobs, SweepSpec};
use contra_sim::{
    CompileCache, FlowSpec, InstallCtx, InstallError, RoutingSystem, SchedulerKind, SimConfig,
    Simulator, Time,
};
use contra_topology::{generators, NodeId, Topology};
use contra_workloads::{cache, poisson_flows, web_search, EmpiricalCdf, PairPolicy, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Which flow-size distribution Poisson traffic draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// DCTCP web search.
    WebSearch,
    /// Facebook cache.
    Cache,
}

impl Workload {
    /// The CDF itself.
    pub fn cdf(&self) -> EmpiricalCdf {
        match self {
            Workload::WebSearch => web_search(),
            Workload::Cache => cache(),
        }
    }

    /// CSV label.
    pub fn label(&self) -> &'static str {
        match self {
            Workload::WebSearch => "websearch",
            Workload::Cache => "cache",
        }
    }
}

/// How sender/receiver pairs are chosen for Poisson traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pairs {
    /// Even-indexed hosts send, odd-indexed hosts receive (the §6.3
    /// datacenter setting).
    HalfSendersHalfReceivers,
    /// This many distinct random pairs, drawn deterministically from the
    /// scenario seed (the §6.4 WAN setting; paper: 4).
    Random(usize),
    /// Exactly these pairs.
    Fixed(Vec<(NodeId, NodeId)>),
}

/// What traffic the scenario offers.
#[derive(Debug, Clone, PartialEq)]
pub enum Traffic {
    /// Poisson flow arrivals sized from a [`Workload`] CDF, offered at
    /// [`Scenario::load`] × capacity between [`Scenario::warmup`] and
    /// [`Scenario::duration`].
    Poisson {
        /// Flow-size distribution.
        workload: Workload,
        /// Sender/receiver selection.
        pairs: Pairs,
    },
    /// Constant-rate UDP summing to `total_bps` across host pairs (the
    /// Fig 14 failure-recovery setting): even hosts send to odd hosts on
    /// other leaves, from time zero until [`Scenario::duration`].
    ConstantUdp {
        /// Aggregate offered rate in bits/second.
        total_bps: f64,
    },
    /// No generated traffic — only flows added via [`Scenario::flow`].
    None,
}

/// A complete experiment description (minus the routing system).
#[derive(Debug, Clone)]
pub struct Scenario {
    label: String,
    /// `Arc` so cloning a scenario per sweep cell shares the node/link
    /// tables instead of deep-copying the topology once per cell.
    topology: Arc<Topology>,
    traffic: Traffic,
    load: f64,
    /// `None` derives the §6.3 uplink capacity from the topology.
    capacity_bps: Option<f64>,
    duration: Time,
    warmup: Time,
    drain: Time,
    seed: u64,
    faults: Vec<FaultCmd>,
    chaos: Vec<ChaosSpec>,
    audit: Option<bool>,
    queue_sampling: Option<Time>,
    telemetry: Option<bool>,
    telemetry_sampling: Option<Time>,
    telemetry_ring: Option<usize>,
    trace_paths: bool,
    util_tau: Option<Time>,
    min_rto: Option<Time>,
    udp_bucket: Option<Time>,
    scheduler: SchedulerKind,
    dispatch: DispatchMode,
    burst_sends: Option<bool>,
    extra_flows: Vec<FlowSpec>,
    jobs: Jobs,
    verify_policy: bool,
}

impl Scenario {
    /// A scenario on an arbitrary topology, with §6.3 datacenter timing
    /// defaults (30 ms of arrivals after 2 ms of warm-up, 40 ms drain,
    /// web-search Poisson traffic at 50% of uplink capacity, seed 1).
    pub fn custom(label: impl Into<String>, topology: impl Into<Arc<Topology>>) -> Scenario {
        Scenario {
            label: label.into(),
            topology: topology.into(),
            traffic: Traffic::Poisson {
                workload: Workload::WebSearch,
                pairs: Pairs::HalfSendersHalfReceivers,
            },
            load: 0.5,
            capacity_bps: None,
            duration: Time::ms(30),
            warmup: Time::ms(2),
            drain: Time::ms(40),
            seed: 1,
            faults: Vec::new(),
            chaos: Vec::new(),
            audit: None,
            queue_sampling: None,
            telemetry: None,
            telemetry_sampling: None,
            telemetry_ring: None,
            trace_paths: false,
            util_tau: None,
            min_rto: None,
            udp_bucket: None,
            scheduler: SchedulerKind::default(),
            dispatch: DispatchMode::default(),
            burst_sends: None,
            extra_flows: Vec::new(),
            jobs: Jobs::Serial,
            verify_policy: false,
        }
    }

    /// The §6.3 leaf-spine fabric (paper testbed: 4 leaves, 2 spines,
    /// 8 hosts per leaf → 40 Gbps bisection at 4:1 oversubscription).
    pub fn leaf_spine(leaves: usize, spines: usize, hosts_per_leaf: usize) -> Scenario {
        let topo = generators::leaf_spine(
            leaves,
            spines,
            hosts_per_leaf,
            generators::LinkSpec::default(),
            generators::LinkSpec::default(),
        );
        Scenario::custom(
            format!("leaf-spine({leaves},{spines},{hosts_per_leaf})"),
            topo,
        )
    }

    /// A `k`-ary fat-tree with `hosts_per_edge` hosts per edge switch.
    pub fn fat_tree(k: usize, hosts_per_edge: usize) -> Scenario {
        let topo = generators::fat_tree(k, hosts_per_edge, generators::LinkSpec::default());
        Scenario::custom(format!("fat-tree({k})"), topo)
    }

    /// The §6.4 Abilene backbone: 11 PoPs at 40 Gbps with one host each,
    /// four random sender/receiver pairs, WAN-scale timing (400 ms of
    /// arrivals after 120 ms warm-up, 300 ms drain), the utilization
    /// estimator and TCP RTO floors sized for millisecond RTTs.
    pub fn abilene() -> Scenario {
        let topo = generators::with_hosts(
            &generators::abilene(40e9),
            1,
            generators::LinkSpec {
                bandwidth_bps: 40e9,
                delay_ns: 1_000,
            },
        );
        let mut s = Scenario::custom("abilene", topo);
        s.traffic = Traffic::Poisson {
            workload: Workload::WebSearch,
            pairs: Pairs::Random(4),
        };
        s.capacity_bps = Some(40e9);
        s.duration = Time::ms(400);
        s.warmup = Time::ms(120);
        s.drain = Time::ms(300);
        // WAN RTTs are ms-scale: size the estimator window accordingly,
        // and keep the RTO above the ~40 ms utilization-detour RTTs or
        // every first ACK loses to a spurious timeout.
        s.util_tau = Some(Time::ms(20));
        s.min_rto = Some(Time::ms(50));
        s
    }

    /// A scenario from a textual topology spec
    /// (`fat-tree:4`, `leaf-spine:4,2,8`, `abilene`, `random:100`,
    /// `zoo:FILE.graphml`), with family-appropriate defaults.
    pub fn from_spec(spec: &str) -> Result<Scenario, crate::spec::SpecError> {
        if spec == "abilene" {
            return Ok(Scenario::abilene());
        }
        let topo = crate::spec::parse_topology_spec(spec)?;
        Ok(Scenario::custom(spec, topo))
    }

    // ---- builder setters ------------------------------------------------

    /// Offered load as a fraction of capacity.
    pub fn load(mut self, load: f64) -> Scenario {
        self.load = load;
        self
    }

    /// Flow-size distribution for Poisson traffic (keeps the current pair
    /// selection).
    pub fn workload(mut self, workload: Workload) -> Scenario {
        let pairs = match &self.traffic {
            Traffic::Poisson { pairs, .. } => pairs.clone(),
            _ => Pairs::HalfSendersHalfReceivers,
        };
        self.traffic = Traffic::Poisson { workload, pairs };
        self
    }

    /// Replaces the traffic model wholesale.
    pub fn traffic(mut self, traffic: Traffic) -> Scenario {
        self.traffic = traffic;
        self
    }

    /// Constant-rate UDP totalling `total_bps` (Fig 14), replacing
    /// Poisson traffic.
    pub fn udp(mut self, total_bps: f64) -> Scenario {
        self.traffic = Traffic::ConstantUdp { total_bps };
        self
    }

    /// Sender/receiver pair selection for Poisson traffic.
    pub fn pairs(mut self, pairs: Pairs) -> Scenario {
        if let Traffic::Poisson { pairs: p, .. } = &mut self.traffic {
            *p = pairs;
        }
        self
    }

    /// What the offered load is measured against, in bits/second
    /// (default: the topology's aggregate §6.3 uplink capacity).
    pub fn capacity_bps(mut self, bps: f64) -> Scenario {
        self.capacity_bps = Some(bps);
        self
    }

    /// Arrivals stop at this instant.
    pub fn duration(mut self, t: Time) -> Scenario {
        self.duration = t;
        self
    }

    /// No generated flows before this instant (probe warm-up); derived
    /// FCT figures also exclude flows that started earlier.
    pub fn warmup(mut self, t: Time) -> Scenario {
        self.warmup = t;
        self
    }

    /// Extra time after [`Scenario::duration`] for flows to finish.
    pub fn drain(mut self, t: Time) -> Scenario {
        self.drain = t;
        self
    }

    /// RNG seed (flow arrivals, sizes and random pair selection).
    pub fn seed(mut self, seed: u64) -> Scenario {
        self.seed = seed;
        self
    }

    /// Fails the cable between the named nodes (both directions) at `at`.
    /// May be called repeatedly for multiple failures.
    pub fn fail_link(mut self, a: impl Into<String>, b: impl Into<String>, at: Time) -> Scenario {
        self.faults.push(FaultCmd {
            at,
            target: FaultTarget::Cable(a.into(), b.into()),
            up: false,
        });
        self
    }

    /// Brings the cable between the named nodes back up at `at`
    /// (pair with [`Scenario::fail_link`] for a flap).
    pub fn recover_link(
        mut self,
        a: impl Into<String>,
        b: impl Into<String>,
        at: Time,
    ) -> Scenario {
        self.faults.push(FaultCmd {
            at,
            target: FaultTarget::Cable(a.into(), b.into()),
            up: true,
        });
        self
    }

    /// Fails the named node at `at`: every incident link goes down
    /// atomically, flushing their queues.
    pub fn fail_node(mut self, node: impl Into<String>, at: Time) -> Scenario {
        self.faults.push(FaultCmd {
            at,
            target: FaultTarget::Node(node.into()),
            up: false,
        });
        self
    }

    /// Recovers the named node at `at`: every incident link comes back.
    pub fn recover_node(mut self, node: impl Into<String>, at: Time) -> Scenario {
        self.faults.push(FaultCmd {
            at,
            target: FaultTarget::Node(node.into()),
            up: true,
        });
        self
    }

    /// Merges a whole [`FaultPlan`] into the scenario — its explicit
    /// commands and its chaos processes (expanded deterministically at
    /// run time, before the simulation starts).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Scenario {
        self.faults.extend(plan.commands().iter().cloned());
        self.chaos.extend(plan.chaos_specs().iter().cloned());
        self
    }

    /// Forces the runtime invariant auditor on or off for this scenario
    /// (default: the engine's own default — on in debug builds; the
    /// `CONTRA_SIM_AUDIT` env var still wins over both).
    pub fn audit(mut self, on: bool) -> Scenario {
        self.audit = Some(on);
        self
    }

    /// Samples fabric queue occupancy this often (Fig 13).
    pub fn queue_sampling(mut self, every: Time) -> Scenario {
        self.queue_sampling = Some(every);
        self
    }

    /// Forces the telemetry recorder on or off for this scenario
    /// (default: off; the `CONTRA_TELEM` env var still wins over both).
    /// When on, the run's trace events and metrics land in
    /// [`RunResult::telemetry`].
    pub fn telemetry(mut self, on: bool) -> Scenario {
        self.telemetry = Some(on);
        self
    }

    /// Telemetry metric-sampling cadence (implies [`Scenario::telemetry`]
    /// on; default cadence: 100 µs).
    pub fn telemetry_sampling(mut self, every: Time) -> Scenario {
        self.telemetry = Some(true);
        self.telemetry_sampling = Some(every);
        self
    }

    /// Telemetry trace-ring capacity in events (implies
    /// [`Scenario::telemetry`] on; default: 2^16). When a run outgrows
    /// the ring the oldest events are evicted — the report's
    /// `events_evicted` says how many — so size this up when a test
    /// needs the complete event history.
    pub fn telemetry_ring(mut self, capacity: usize) -> Scenario {
        self.telemetry = Some(true);
        self.telemetry_ring = Some(capacity);
        self
    }

    /// Records per-packet switch paths (exact loop accounting, §6.5, and
    /// policy-compliance checks); the traces land in
    /// [`RunResult::traces`].
    pub fn trace_paths(mut self, on: bool) -> Scenario {
        self.trace_paths = on;
        self
    }

    /// Overrides the utilization-estimator window.
    pub fn util_tau(mut self, tau: Time) -> Scenario {
        self.util_tau = Some(tau);
        self
    }

    /// Overrides the TCP minimum RTO.
    pub fn min_rto(mut self, rto: Time) -> Scenario {
        self.min_rto = Some(rto);
        self
    }

    /// Bucket width for UDP goodput timelines (Fig 14).
    pub fn udp_bucket(mut self, bucket: Time) -> Scenario {
        self.udp_bucket = Some(bucket);
        self
    }

    /// Selects the engine's event scheduler (default: the timing wheel).
    /// Both schedulers produce byte-identical results; the heap remains
    /// available as a differential oracle — the golden suite runs one
    /// scenario under each and requires equal fingerprints.
    pub fn scheduler(mut self, scheduler: SchedulerKind) -> Scenario {
        self.scheduler = scheduler;
        self
    }

    /// Selects the switch-logic dispatch strategy (default:
    /// [`DispatchMode::Enum`], which repacks the installed boxes into
    /// [`SwitchDispatch`]'s inline variants). Both modes produce
    /// byte-identical results; the boxed path remains as a differential
    /// oracle — see the dispatch-parity test suite. The `CONTRA_DISPATCH`
    /// env var overrides whatever is set here at run time.
    pub fn dispatch(mut self, mode: DispatchMode) -> Scenario {
        self.dispatch = mode;
        self
    }

    /// Toggles batched ACK-clocked sends (default on): each transport
    /// handler emits one described `SendBurst` effect for a window's
    /// worth of segments instead of one `Send` per packet. Both settings
    /// produce byte-identical results — the per-send path remains as a
    /// differential oracle; see the dispatch-parity suite's burst test.
    pub fn burst_sends(mut self, on: bool) -> Scenario {
        self.burst_sends = Some(on);
        self
    }

    /// Adds an explicit flow on top of (or instead of, with
    /// [`Traffic::None`]) the generated traffic.
    pub fn flow(mut self, flow: FlowSpec) -> Scenario {
        self.extra_flows.push(flow);
        self
    }

    /// Runs the full static policy verifier (black holes, single-failure
    /// fragility, dead branches) on policy-driven systems and attaches
    /// its diagnostics to [`RunResult::diagnostics`]. Off by default —
    /// compiler warnings are surfaced regardless; this adds the
    /// topology-wide reachability and per-cable analyses.
    pub fn verify_policy(mut self, on: bool) -> Scenario {
        self.verify_policy = on;
        self
    }

    /// Worker-pool size for [`Scenario::matrix`] sweeps (default
    /// [`Jobs::Serial`], preserving the historical sequential behavior;
    /// the `CONTRA_JOBS` env var overrides whatever is set here at run
    /// time). Results are byte-identical at any setting — cells are
    /// independent deterministic simulations reassembled in sweep order.
    pub fn jobs(mut self, jobs: Jobs) -> Scenario {
        self.jobs = jobs;
        self
    }

    // ---- accessors ------------------------------------------------------

    /// The scenario's topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The scenario's display label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The warm-up instant (FCT figures exclude earlier flows).
    pub fn warmup_time(&self) -> Time {
        self.warmup
    }

    /// The configured offered load fraction.
    pub fn load_fraction(&self) -> f64 {
        self.load
    }

    /// The configured RNG seed.
    pub fn seed_value(&self) -> u64 {
        self.seed
    }

    /// The configured sweep worker-pool setting.
    pub fn jobs_setting(&self) -> Jobs {
        self.jobs
    }

    /// The fully-resolved fault schedule this scenario will run: explicit
    /// commands plus every chaos process expanded against the topology,
    /// sorted by instant. Pure — calling it twice (or in another
    /// process) yields the same list byte for byte, which is what makes
    /// chaos runs replayable.
    pub fn resolved_faults(&self) -> Vec<FaultCmd> {
        FaultPlan::from_parts(self.faults.clone(), self.chaos.clone())
            .expand(&self.topology, self.duration + self.drain)
    }

    /// The deterministic random sender/receiver pairs this scenario's
    /// seed selects (resolves [`Pairs::Random`]; mainly for tests and
    /// custom traffic construction).
    pub fn pick_pairs(&self, count: usize) -> Vec<(NodeId, NodeId)> {
        let hosts = self.topology.hosts();
        assert!(hosts.len() >= 2, "random pairs need at least two hosts");
        // Rejection sampling below terminates only when enough distinct
        // ordered pairs exist.
        assert!(
            count <= hosts.len() * (hosts.len() - 1),
            "scenario {}: {count} random pairs requested but only {} hosts",
            self.label,
            hosts.len()
        );
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_mul(31) + 7);
        let mut pairs = Vec::new();
        while pairs.len() < count {
            let s = hosts[rng.gen_range(0..hosts.len())];
            let r = hosts[rng.gen_range(0..hosts.len())];
            if s != r && !pairs.contains(&(s, r)) {
                pairs.push((s, r));
            }
        }
        pairs
    }

    // ---- execution ------------------------------------------------------

    /// Runs the scenario under `system`, panicking on installation
    /// failure (policy texts in experiment code are trusted input).
    pub fn run(&self, system: &dyn RoutingSystem) -> RunResult {
        self.try_run(system)
            .unwrap_or_else(|e| panic!("installing {}: {e}", system.name()))
    }

    /// Runs the scenario, surfacing installation errors.
    pub fn try_run(&self, system: &dyn RoutingSystem) -> Result<RunResult, InstallError> {
        self.try_run_cached(system, &CompileCache::new())
    }

    /// Runs with a caller-provided compile cache (sweeps share one so
    /// each distinct policy compiles once). Panics on install failure.
    pub fn run_cached(&self, system: &dyn RoutingSystem, cache: &CompileCache) -> RunResult {
        self.try_run_cached(system, cache)
            .unwrap_or_else(|e| panic!("installing {}: {e}", system.name()))
    }

    /// Fallible form of [`Scenario::run_cached`]. A zero
    /// [`Scenario::queue_sampling`], [`Scenario::util_tau`] or
    /// [`Scenario::udp_bucket`] is rejected as
    /// [`InstallError::ZeroInterval`] before the simulator is built.
    pub fn try_run_cached(
        &self,
        system: &dyn RoutingSystem,
        cache: &CompileCache,
    ) -> Result<RunResult, InstallError> {
        for (setting, every) in [
            ("queue_sampling", self.queue_sampling),
            ("util_tau", self.util_tau),
            ("udp_bucket", self.udp_bucket),
        ] {
            if every == Some(Time::ZERO) {
                return Err(InstallError::ZeroInterval { setting });
            }
        }
        let topo = &self.topology;
        // Chaos processes expand here, before the simulator exists: the
        // run consumes only the explicit list, so a replay (same
        // scenario value) is byte-identical and a failing plan can be
        // dumped and re-run verbatim.
        let faults = self.resolved_faults();
        let failed = self.final_down_cables(&faults);

        let mut cfg = SimConfig {
            stop_at: self.duration + self.drain,
            queue_sample_every: self.queue_sampling,
            trace_paths: self.trace_paths,
            scheduler: self.scheduler,
            ..SimConfig::default()
        };
        if let Some(burst) = self.burst_sends {
            cfg.burst_sends = burst;
        }
        if let Some(tau) = self.util_tau {
            cfg.util_tau = tau;
        }
        if let Some(rto) = self.min_rto {
            cfg.min_rto = rto;
        }
        if let Some(bucket) = self.udp_bucket {
            cfg.udp_bucket = bucket;
        }
        if let Some(audit) = self.audit {
            cfg.audit = audit;
        }
        if self.telemetry == Some(true) {
            let mut tcfg = contra_sim::TelemetryConfig::default();
            if let Some(every) = self.telemetry_sampling {
                tcfg.sample_every = every;
            }
            if let Some(cap) = self.telemetry_ring {
                tcfg.ring_capacity = cap;
            }
            cfg.telemetry = Some(tcfg);
        }

        // The simulator shares the scenario's topology (`Arc`): building a
        // cell costs no node/link-table copy.
        let mut sim = Simulator::new(Arc::clone(&self.topology), cfg);
        system.install(&mut sim, &InstallCtx::new(topo, &failed, cache))?;

        // Policy-driven systems get their static diagnostics attached:
        // the compile below is a cache hit (install just compiled it), so
        // surfacing compiler warnings is free; the full verifier runs only
        // when the scenario opted in.
        let diagnostics = match system.policy_text() {
            Some(text) => {
                let cp = cache
                    .get_or_compile(topo, text)
                    .expect("policy compiled during install");
                if self.verify_policy {
                    contra_core::verify(&cp, topo).diagnostics
                } else {
                    cp.warnings
                        .iter()
                        .map(|w| {
                            contra_core::Diagnostic::warning(
                                contra_core::diag::codes::NON_ISOTONIC,
                                w.to_string(),
                            )
                            .with_span(w.span())
                        })
                        .collect()
                }
            }
            None => Vec::new(),
        };

        // Devirtualize the hot path: repack each installed box into the
        // static-dispatch enum (or keep everything boxed under
        // `CONTRA_DISPATCH=dyn` — the differential oracle). From here on
        // the engine is a `SimCore<SwitchDispatch>`.
        let mode = self.dispatch.or_env();
        let mut sim = sim.map_logics(|b| SwitchDispatch::convert(b, mode));

        for c in &faults {
            let res = match (&c.target, c.up) {
                (FaultTarget::Cable(a, b), false) => {
                    sim.try_fail_link_at(self.find(a), self.find(b), c.at)
                }
                (FaultTarget::Cable(a, b), true) => {
                    sim.try_recover_link_at(self.find(a), self.find(b), c.at)
                }
                (FaultTarget::Node(n), false) => sim.try_fail_node_at(self.find(n), c.at),
                (FaultTarget::Node(n), true) => sim.try_recover_node_at(self.find(n), c.at),
            };
            res.unwrap_or_else(|e| panic!("scenario {}: {e}", self.label));
        }
        for f in self.generated_flows() {
            sim.add_flow(f);
        }
        for f in &self.extra_flows {
            sim.add_flow(f.clone());
        }

        let info = ScenarioInfo {
            scenario: self.label.clone(),
            load: self.load,
            workload: match &self.traffic {
                Traffic::Poisson { workload, .. } => workload.label().to_string(),
                Traffic::ConstantUdp { .. } => "udp".to_string(),
                Traffic::None => "none".to_string(),
            },
            seed: self.seed,
            warmup: self.warmup,
            duration: self.duration,
            // A bare run has no knob axis; the sweep engine stamps the
            // cell's knob label after the run (see `run_cells`).
            knob: None,
        };
        let started = std::time::Instant::now();
        let out = sim.run_full();
        let wall_secs = started.elapsed().as_secs_f64();
        let figures = Figures::derive(&out.stats, self.warmup);
        Ok(RunResult {
            system: system.name(),
            scenario: info,
            figures,
            stats: out.stats,
            traces: out.traces,
            telemetry: out.telemetry,
            wall_secs,
            diagnostics,
        })
    }

    /// Sweeps the cartesian product loads × systems (loads outermost,
    /// matching the figures' CSV ordering), sharing one compile cache so
    /// each distinct policy compiles exactly once.
    ///
    /// A thin wrapper over the sweep engine
    /// ([`SweepSpec`](crate::SweepSpec)): the cells run on the worker
    /// pool selected by [`Scenario::jobs`] (default serial) or the
    /// `CONTRA_JOBS` env var, with results byte-identical to the
    /// sequential path in every configuration.
    pub fn matrix(&self, systems: &[&dyn RoutingSystem], loads: &[f64]) -> Vec<RunResult> {
        self.matrix_cached(systems, loads, &CompileCache::new())
    }

    /// [`Scenario::matrix`] with a caller-visible compile cache (so tests
    /// can assert on [`CompileCache::compiles`]).
    pub fn matrix_cached(
        &self,
        systems: &[&dyn RoutingSystem],
        loads: &[f64],
        cache: &CompileCache,
    ) -> Vec<RunResult> {
        SweepSpec::new(self.clone())
            .systems(systems)
            .loads(loads)
            .run_cached(cache)
    }

    /// The cables that are down when the run *ends*, for
    /// [`InstallCtx`]'s informational `failed` list (reconverged
    /// baselines plan around them). Replays the command list in time
    /// order with the engine's semantics — a node transition moves every
    /// incident cable, later commands override earlier ones — ignoring
    /// commands past the stop instant, which the engine never processes.
    fn final_down_cables(&self, faults: &[FaultCmd]) -> Vec<(NodeId, NodeId)> {
        let stop = self.duration + self.drain;
        let mut state: std::collections::BTreeMap<(NodeId, NodeId), bool> =
            std::collections::BTreeMap::new();
        let canon = |a: NodeId, b: NodeId| if a <= b { (a, b) } else { (b, a) };
        for c in faults.iter().filter(|c| c.at <= stop) {
            match &c.target {
                FaultTarget::Cable(a, b) => {
                    state.insert(canon(self.find(a), self.find(b)), !c.up);
                }
                FaultTarget::Node(n) => {
                    let n = self.find(n);
                    for &(nbr, _) in self.topology.adjacency(n) {
                        state.insert(canon(n, nbr), !c.up);
                    }
                }
            }
        }
        state
            .into_iter()
            .filter_map(|(cable, down)| down.then_some(cable))
            .collect()
    }

    fn find(&self, name: &str) -> NodeId {
        self.topology
            .find(name)
            .unwrap_or_else(|| panic!("scenario {}: no node named {name:?}", self.label))
    }

    /// The §6.3 aggregate uplink capacity, or the explicit override.
    fn capacity(&self) -> f64 {
        let bps = self
            .capacity_bps
            .unwrap_or_else(|| contra_workloads::uplink_capacity_bps(&self.topology));
        assert!(
            bps > 0.0,
            "scenario {}: load reference capacity is 0 — the topology has no \
             leaf→spine uplinks to derive it from; set .capacity_bps(...) explicitly",
            self.label
        );
        bps
    }

    fn generated_flows(&self) -> Vec<FlowSpec> {
        match &self.traffic {
            Traffic::Poisson { workload, pairs } => {
                let pair_policy = match pairs {
                    Pairs::HalfSendersHalfReceivers => PairPolicy::HalfSendersHalfReceivers,
                    Pairs::Random(n) => PairPolicy::FixedPairs(self.pick_pairs(*n)),
                    Pairs::Fixed(list) => PairPolicy::FixedPairs(list.clone()),
                };
                poisson_flows(
                    &self.topology,
                    &workload.cdf(),
                    &pair_policy,
                    &WorkloadSpec {
                        load: self.load,
                        capacity_bps: self.capacity(),
                        start: self.warmup,
                        until: self.duration,
                        seed: self.seed,
                    },
                )
            }
            Traffic::ConstantUdp { total_bps } => self.udp_flows(*total_bps),
            Traffic::None => Vec::new(),
        }
    }

    /// Constant-rate UDP sources summing to `total_bps` (Fig 14): each
    /// even-indexed host sends to an odd-indexed host on another leaf.
    fn udp_flows(&self, total_bps: f64) -> Vec<FlowSpec> {
        let topo = &self.topology;
        let hosts = topo.hosts();
        let senders: Vec<NodeId> = hosts.iter().copied().step_by(2).collect();
        let receivers: Vec<NodeId> = hosts.iter().copied().skip(1).step_by(2).collect();
        let mut pairs = Vec::new();
        for (i, &s) in senders.iter().enumerate() {
            // Bound the rotated scan to one full lap so a topology with no
            // cross-switch receiver panics instead of spinning forever.
            let r = receivers
                .iter()
                .copied()
                .cycle()
                .skip(i + 1)
                .take(receivers.len())
                .find(|&r| topo.host_switch(r) != topo.host_switch(s))
                .unwrap_or_else(|| {
                    panic!(
                        "scenario {}: UDP traffic needs a receiver on another \
                         switch than {}",
                        self.label,
                        topo.node(s).name
                    )
                });
            pairs.push((s, r));
        }
        let per_flow = total_bps / pairs.len() as f64;
        pairs
            .into_iter()
            .map(|(src, dst)| FlowSpec::Udp {
                src,
                dst,
                rate_bps: per_flow,
                start: Time::ZERO,
                stop: self.duration,
            })
            .collect()
    }
}
