//! Every workload and metric the benchmark reports, in one table.
//!
//! `BENCHMARK.json` at the repository root is rendered from this table
//! (`--manifest`), and so is `perfbench/METRICS.md` (`--describe`), which
//! adds what the manifest format has no room for: each metric's layer and
//! the end-to-end metric and workload it should move.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload a change to this layer should
    /// move.
    pub moves: &'static str,
    pub what: &'static str,
}

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 30;

/// The reference kernel's time (`util::Reference`) at the nominal host
/// speed: its typical time on a 2-vCPU x86-64 guest. Every end-to-end
/// time is multiplied by this over the run's measured reference time,
/// so a host that is slower for a while does not read as a slower
/// program.
pub const REFERENCE_NOMINAL_S: f64 = 0.14;

/// The seed whose per-cell fingerprints are kept in `expected/`.
pub const DEFAULT_SEED: u64 = 1;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "dc-fabric",
        why: "leaf-spine(4,2,8) web-search TCP at 80% load, Contra/Hula/ECMP: the packet engine does \
              nearly all the work; Contra vs ECMP isolates the dataplane's per-packet cost",
    },
    Workload {
        name: "wan-failover",
        why: "Abilene at 60% load, Denver-KansasCity cut in warm-up, Contra(MU)/SP on 2 sweep \
              workers: ms RTTs grow the scheduler working set; faults, RTOs and sweep fan-out run",
    },
    Workload {
        name: "control-plane",
        why: "no packets: P1-P9 compiled on fat-tree k=8, k=20 and a 500-switch random graph, P4 \
              emitted and validated, verifier and probe harness run; the engine does no work",
    },
    Workload {
        name: "dc-telemetry",
        why: "dc-fabric's scenario under Contra with the telemetry recorder on and its trace, JSONL \
              and CSV exported in memory: the only workload that runs the recorder",
    },
];

const MOVES_SETUP: &str = "setup_s on dc-fabric, wan-failover, dc-telemetry";
const MOVES_CP: &str = "run_s on control-plane";
const MOVES_COMPILE: &str = "run_s on control-plane; setup_s on the sim workloads";
const MOVES_DC: &str = "run_s on dc-fabric";
const MOVES_WAN: &str = "run_s on wan-failover";
const MOVES_SIM: &str = "run_s on dc-fabric, wan-failover, dc-telemetry";
const MOVES_TELEM: &str = "run_s on dc-telemetry";
const MOVES_FCT: &str = "completion and fct_tail_ms (result.*) on the sim workloads";
const MOVES_PROBE: &str = "probe_overhead_pct (result.*) on the sim workloads";
const MOVES_RESULT: &str = "none: a simulated result of the Contra cells, fixed for a seed";

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "time before events run: topology, flow generation, compile, install and \
               simulator construction (median over the run's batches, scaled to the nominal \
               host speed like run_s)",
    },
    EndToEnd {
        name: "run_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "wall time of the whole workload batch, checks excluded (mean over the run's \
               batches without the fastest and slowest fifth), scaled to the nominal host \
               speed: times the reference kernel's nominal time over host.reference_s",
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "user plus system CPU time of one batch (mean over the run's batches without \
               the fastest and slowest fifth), scaled like run_s",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.2,
        what: "peak resident set size of the benchmark process",
    },
    EndToEnd {
        name: "ops_ok_pct",
        unit: "%",
        better: Better::Higher,
        bound: 0.01,
        what: "cells and compile requests that neither panic, error nor fail a check, \
               as a share of those attempted (100 minus ops_failed_pct)",
    },
];

macro_rules! layer {
    ($name:expr, $unit:expr, $better:ident, $moves:expr, $what:expr) => {
        PerLayer {
            name: $name,
            unit: $unit,
            better: Better::$better,
            moves: $moves,
            what: $what,
        }
    };
}

// One metric a line: name, unit, better, what it should move, what it is.
#[rustfmt::skip]
pub const PER_LAYER: &[PerLayer] = &[
    layer!("topology.rtt_scan_s", "s", Lower, MOVES_CP,
        "Topology::max_switch_rtt_ns, the all-pairs Dijkstra every compile runs"),
    layer!("core.parse_s", "s", Lower, MOVES_COMPILE, "parse_policy"),
    layer!("core.normalize_s", "s", Lower, MOVES_COMPILE, "normalize"),
    layer!("core.analyze_s", "s", Lower, MOVES_COMPILE, "analysis::analyze"),
    layer!("core.resolve_s", "s", Lower, MOVES_COMPILE, "resolve::resolve_regexes"),
    layer!("core.determinize_s", "s", Lower, MOVES_COMPILE,
        "Dfa::from_regex on each reversed regex, then Dfa::minimize"),
    layer!("core.product_s", "s", Lower, MOVES_COMPILE, "ProductGraph::build"),
    layer!("core.compile_s", "s", Lower, MOVES_COMPILE, "Compiler::compile_str, whole"),
    layer!("core.tablegen_other_s", "s", Lower, MOVES_COMPILE,
        "compile_str minus the stages above and the RTT scan: table generation and glue"),
    layer!("core.verify_s", "s", Lower, MOVES_CP, "verify on the fat-tree k=8 compiles"),
    layer!("core.pg_vnodes", "count", Lower, MOVES_COMPILE,
        "product-graph virtual nodes, summed over compile requests"),
    layer!("core.tags", "count", Lower, MOVES_COMPILE,
        "largest per-switch tag count over compile requests (switch state)"),
    layer!("automata.dfa_states", "count", Lower, MOVES_COMPILE,
        "states of the compiled (reversed, minimized) DFAs, summed over compile requests"),
    layer!("p4gen.emit_s", "s", Lower, MOVES_CP, "emit_all"),
    layer!("p4gen.validate_s", "s", Lower, MOVES_CP, "validate on every emitted program"),
    layer!("p4gen.bytes", "B", Lower, MOVES_CP, "bytes of P4 emitted"),
    layer!("dataplane.converge_s", "s", Lower, MOVES_CP,
        "ProtocolHarness construction and three probe rounds on pinned utilizations"),
    layer!("dataplane.probes", "count", Lower, MOVES_CP, "probes the harness delivered"),
    layer!("dataplane.ns_per_probe", "ns", Lower, MOVES_CP, "converge_s per delivered probe"),
    layer!("dataplane.register_collisions", "count", Lower, MOVES_FCT,
        "flowlet and loop register collisions in the Contra cells"),
    layer!("workloads.flowgen_s", "s", Lower, MOVES_SETUP, "poisson_flows"),
    layer!("workloads.flows", "count", Lower, MOVES_SETUP, "flows generated"),
    layer!("experiments.install_s", "s", Lower, MOVES_SETUP,
        "sum of try_run_cached minus its event-loop wall_secs (under run_cells: the \
         RoutingSystem::install calls)"),
    layer!("experiments.figures_s", "s", Lower, MOVES_SETUP, "Figures::derive"),
    layer!("experiments.compiles_per_cell", "count", Lower, MOVES_SETUP,
        "CompileCache::compiles per cell"),
    layer!("experiments.sweep_busy_pct", "%", Higher, MOVES_WAN,
        "run_cells: cell busy time over workers times sweep wall time"),
    layer!("experiments.sweep_tail_s", "s", Lower, MOVES_WAN,
        "run_cells: sweep wall time after the first worker went idle"),
    layer!("sim.loop_s.contra", "s", Lower, MOVES_DC, "event-loop wall_secs, Contra cells"),
    layer!("sim.loop_s.hula", "s", Lower, MOVES_DC, "event-loop wall_secs, Hula cells"),
    layer!("sim.loop_s.ecmp", "s", Lower, MOVES_DC, "event-loop wall_secs, ECMP cells"),
    layer!("sim.loop_s.sp", "s", Lower, MOVES_WAN, "event-loop wall_secs, SP cells"),
    layer!("sim.events.contra", "count", Lower, MOVES_DC, "events_processed, Contra cells"),
    layer!("sim.events.hula", "count", Lower, MOVES_DC, "events_processed, Hula cells"),
    layer!("sim.events.ecmp", "count", Lower, MOVES_DC, "events_processed, ECMP cells"),
    layer!("sim.events.sp", "count", Lower, MOVES_WAN, "events_processed, SP cells"),
    layer!("sim.ns_per_event.contra", "ns", Lower, MOVES_DC,
        "loop time per event, Contra cells; minus ECMP's, the dataplane's per-event cost"),
    layer!("sim.ns_per_event.hula", "ns", Lower, MOVES_DC, "loop time per event, Hula cells"),
    layer!("sim.ns_per_event.ecmp", "ns", Lower, MOVES_DC, "loop time per event, ECMP cells"),
    layer!("sim.ns_per_event.sp", "ns", Lower, MOVES_WAN, "loop time per event, SP cells"),
    layer!("sim.txdone_coalesced", "count", Higher, MOVES_DC,
        "serializer completions the link pipeline elided, all cells"),
    layer!("sim.sched_peak_pending", "count", Lower, MOVES_WAN,
        "largest scheduler working set over cells"),
    layer!("sim.sched_cascades", "count", Lower, MOVES_WAN, "timing-wheel cascades, all cells"),
    layer!("sim.sched_overflow", "count", Lower, MOVES_WAN,
        "events parked in the wheel's overflow heap, all cells"),
    layer!("sim.drops.queue_full", "count", Lower, MOVES_FCT, "tail drops, Contra cells"),
    layer!("sim.drops.link_down", "count", Lower, MOVES_FCT, "drops on down links, Contra cells"),
    layer!("sim.drops.no_route", "count", Lower, MOVES_FCT, "no-route drops, Contra cells"),
    layer!("sim.drops.ttl_expired", "count", Lower, MOVES_FCT, "TTL drops, Contra cells"),
    layer!("sim.retransmits", "count", Lower, MOVES_FCT, "retransmitted packets, Contra cells"),
    layer!("sim.wire_bytes.data", "B", Lower, MOVES_PROBE, "data bytes on the wire, Contra cells"),
    layer!("sim.wire_bytes.ack", "B", Lower, MOVES_PROBE, "ACK bytes on the wire, Contra cells"),
    layer!("sim.wire_bytes.probe", "B", Lower, MOVES_PROBE,
        "probe bytes on the wire, Contra cells"),
    layer!("telemetry.export_s", "s", Lower, MOVES_TELEM,
        "chrome_trace, events_jsonl and metrics_csv rendered in memory"),
    layer!("telemetry.export_bytes", "B", Lower, MOVES_TELEM, "bytes the three exports hold"),
    layer!("telemetry.events_evicted", "count", Lower, MOVES_TELEM,
        "trace events the bounded ring evicted"),
    layer!("telemetry.events.churn", "count", Lower, MOVES_TELEM, "retained events of this kind"),
    layer!("telemetry.events.cwnd", "count", Lower, MOVES_TELEM, "retained events of this kind"),
    layer!("telemetry.events.deliver", "count", Lower, MOVES_TELEM, "retained events of this kind"),
    layer!("telemetry.events.down", "count", Lower, MOVES_TELEM, "retained events of this kind"),
    layer!("telemetry.events.drop", "count", Lower, MOVES_TELEM, "retained events of this kind"),
    layer!("telemetry.events.fault", "count", Lower, MOVES_TELEM, "retained events of this kind"),
    layer!("telemetry.events.flow_start", "count", Lower, MOVES_TELEM,
        "retained events of this kind"),
    layer!("telemetry.events.link", "count", Lower, MOVES_TELEM, "retained events of this kind"),
    layer!("telemetry.events.train_commit", "count", Lower, MOVES_TELEM,
        "retained events of this kind"),
    layer!("telemetry.events.tx_start", "count", Lower, MOVES_TELEM,
        "retained events of this kind"),
    layer!("telemetry.events.other", "count", Lower, MOVES_TELEM,
        "retained events of any kind not listed above"),
    layer!("result.fct_p50_ms", "ms", Lower, MOVES_RESULT,
        "median censored FCT: an unfinished flow counts as running until the run ends"),
    layer!("result.fct_tail_ms", "ms", Lower, MOVES_RESULT,
        "censored FCT at the highest percentile with at least 10 flows beyond it"),
    layer!("result.fct_tail_pctile", "pctile", Higher, MOVES_RESULT,
        "which percentile fct_tail_ms is"),
    layer!("result.fct_flows", "count", Higher, MOVES_RESULT,
        "the FCT denominator: every offered flow of the Contra cells"),
    layer!("result.completion", "ratio", Higher, MOVES_RESULT, "finished over offered flows"),
    layer!("result.probe_overhead_pct", "%", Lower, MOVES_RESULT,
        "probe bytes as a share of wire bytes (Fig 16)"),
    layer!("result.loop_pct", "%", Lower, MOVES_RESULT,
        "looped packets as a share of delivered packets (sec 6.5)"),
    layer!("result.reconvergence_ms", "ms", Lower, MOVES_RESULT,
        "longest post-failure convergence over the Contra cells (wan-failover)"),
    layer!("self_s.bench", "s", Lower, "none: the benchmark's own glue and checks",
        "self time of the benchmark's spans"),
    layer!("self_s.topology", "s", Lower, MOVES_CP, "self time of topology spans"),
    layer!("self_s.core", "s", Lower, MOVES_COMPILE, "self time of core spans"),
    layer!("self_s.p4gen", "s", Lower, MOVES_CP, "self time of p4gen spans"),
    layer!("self_s.dataplane", "s", Lower, MOVES_CP, "self time of dataplane spans"),
    layer!("self_s.baselines", "s", Lower, MOVES_SETUP, "self time of baselines spans"),
    layer!("self_s.workloads", "s", Lower, MOVES_SETUP, "self time of workloads spans"),
    layer!("self_s.experiments", "s", Lower, MOVES_SETUP, "self time of experiments spans"),
    layer!("self_s.sim", "s", Lower, MOVES_SIM, "self time of sim spans"),
    layer!("self_s.telemetry", "s", Lower, MOVES_TELEM, "self time of telemetry spans"),
    layer!("trace.overhead_s", "s", Lower, "none: the cost of tracing itself",
        "median traced run_s minus median untraced run_s, same process; on control-plane it \
         includes the stage-by-stage compile calls only the traced batches make"),
    layer!("trace.overhead_pct", "%", Lower, "none: the cost of tracing itself",
        "trace.overhead_s over the untraced run_s"),
    layer!("host.reference_s", "s", Lower, "none: the host's speed, not the program's",
        "time of the benchmark's own reference kernel (sorting, hashing and a priority queue \
         over fixed pseudo-random integers), trimmed mean over the runs before and after each \
         batch; the end-to-end times are scaled by its nominal time over this"),
];

/// `BENCHMARK.json`, exactly as committed at the repository root.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--quiet\", \"--offline\", \"--release\", \
                \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"perfbench\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

/// `perfbench/METRICS.md`: the manifest plus each metric's layer and the
/// end-to-end metric it should move.
pub fn describe() -> String {
    let mut s = String::from(
        "# Benchmark metrics\n\n\
         Rendered by `cargo run --release --manifest-path perfbench/Cargo.toml -- --describe`\n\
         from `perfbench/src/catalogue.rs`; `BENCHMARK.json` comes from the same table\n\
         (`-- --manifest`). A metric's layer is its name up to the first dot.\n\n\
         ## Running\n\n\
         ```sh\n\
         cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \\\n    \
         --workload dc-fabric --seed 1 --seconds 30 --trace 0\n\
         ```\n\n\
         A run repeats the workload's batch, built from the seed, for about the given\n\
         seconds and checks every output: per-cell fingerprints against\n\
         `expected/fingerprints.txt` at seed 1, the same outputs from every batch, every\n\
         finished flow no faster than its physical minimum, every P4 program valid, the\n\
         verifier's black holes as the policy implies, and converged probe paths as good as\n\
         brute force. The last stdout line is the JSON result; a failed check counts in\n\
         `failed` and the run goes on. `--trace 1` alternates untraced and traced\n\
         batches, reports the per-layer metrics and the tracing overhead, prints a\n\
         self-time table naming the dominant layer, and writes the spans as a Chrome trace\n\
         to `perfbench/out/`. The run refuses to start while `CONTRA_LINK_PIPELINE`,\n\
         `CONTRA_DISPATCH`, `CONTRA_TELEM`, `CONTRA_JOBS`, `CONTRA_SIM_AUDIT` or\n\
         `CONTRA_BENCH_FAST` is set.\n\n\
         ## Workloads\n\n| workload | why |\n|---|---|\n",
    );
    for w in WORKLOADS {
        s.push_str(&format!("| `{}` | {} |\n", w.name, w.why));
    }
    s.push_str(
        "\n## End-to-end metrics (every run)\n\n\
         | metric | unit | better | bound | what |\n|---|---|---|---|---|\n",
    );
    for m in END_TO_END {
        s.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            m.what
        ));
    }
    s.push_str(
        "\n## Per-layer metrics (traced run, `--trace 1`)\n\n\
         | metric | layer | unit | better | should move | what |\n|---|---|---|---|---|---|\n",
    );
    for m in PER_LAYER {
        s.push_str(&format!(
            "| `{}` | {} | {} | {} | {} | {} |\n",
            m.name,
            crate::trace::layer_of(m.name),
            m.unit,
            m.better.as_str(),
            m.moves,
            m.what
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_whys_fit_the_manifest_format() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for n in names {
            assert!(valid_name(n), "{n}");
            assert!(seen.insert(n), "{n} used twice");
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for u in units {
            assert!(
                u.len() <= 16
                    && u.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128 && (2..=8).contains(&WORKLOADS.len()));
    }

    #[test]
    fn committed_manifest_matches_the_catalogue() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            manifest(),
            "re-render BENCHMARK.json with --manifest"
        );
        let doc = include_str!("../METRICS.md");
        assert_eq!(
            doc,
            describe(),
            "re-render perfbench/METRICS.md with --describe"
        );
    }
}
