//! The `control-plane` workload: compiler, automata, topology, P4
//! back end, verifier and probe protocol, with no packet engine.
//!
//! A batch compiles the nine Fig 3 policies on every topology below,
//! emits and validates P4 for every switch, runs the verifier on the
//! fat-tree k=8 compiles, and converges the probe protocol on pinned
//! utilizations. The verifier does not run on the larger graphs: on the
//! k=20 fat-tree it had not finished P1 after ten minutes.

use crate::trace::Tracer;
use crate::Batch;
use contra_automata::Dfa;
use contra_core::analysis::analyze;
use contra_core::resolve::resolve_regexes;
use contra_core::{
    normalize, parse_policy, policies, verify, CompiledPolicy, Compiler, ProductGraph,
};
use contra_dataplane::{DataplaneConfig, ProtocolHarness};
use contra_topology::{generators, NodeId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// The catalogue index of P6 (link preference), whose verdicts include
/// black holes by construction.
const P6: usize = 5;

struct Target {
    name: &'static str,
    topo: Topology,
    verify: bool,
}

/// One protocol convergence: a compiled policy on a target, checked on
/// sampled (source, destination) pairs against brute force over simple
/// paths of at most `max_hops` hops.
struct HarnessRun {
    target: usize,
    policy: usize,
    /// Long enough for the policy's optimum: the fat-tree's shortest
    /// paths have at most 4 hops and P4 ranks length first; on the small
    /// random graph every simple path is enumerated.
    max_hops: usize,
}

const HARNESS_RUNS: [HarnessRun; 3] = [
    // P4, shortest-widest: the fabric policy of the sim workloads.
    HarnessRun {
        target: 0,
        policy: 3,
        max_hops: 4,
    },
    // P2, minimum utilization.
    HarnessRun {
        target: 3,
        policy: 1,
        max_hops: 12,
    },
    // P9, congestion-aware (two probe subpolicies).
    HarnessRun {
        target: 3,
        policy: 8,
        max_hops: 12,
    },
];

const SAMPLED_PAIRS: usize = 24;

pub fn run_batch(seed: u64, tr: &Tracer, out: &mut Batch) {
    let started = Instant::now();
    let targets = tr.span("topology.build", None, || {
        let spec = generators::LinkSpec::default();
        vec![
            Target {
                name: "fat-tree(8)",
                topo: generators::fat_tree(8, 0, spec),
                verify: true,
            },
            Target {
                name: "fat-tree(20)",
                topo: generators::fat_tree(20, 0, spec),
                verify: false,
            },
            Target {
                name: "random(500)",
                topo: generators::random_connected(500, 1000, spec, seed),
                verify: false,
            },
            // Small enough for the exhaustive optimality oracle.
            Target {
                name: "random(12)",
                topo: generators::random_connected(12, 10, spec, seed),
                verify: false,
            },
        ]
    });
    let mut rng = StdRng::seed_from_u64(seed);
    let catalogues: Vec<_> = targets
        .iter()
        .map(|t| catalogue(&t.topo, &mut rng))
        .collect();
    out.setup_s += started.elapsed().as_secs_f64();

    let mut compiled: Vec<Vec<Option<Arc<CompiledPolicy>>>> = Vec::new();
    for (ti, target) in targets.iter().enumerate() {
        let mut row = Vec::new();
        for (pi, (label, src, x)) in catalogues[ti].iter().enumerate() {
            let cell = (ti * 9 + pi) as u32;
            let what = format!("{} {label}", target.name);
            out.ops += 1;
            match compile_request(tr, cell, &target.topo, src, out) {
                Ok(cp) => {
                    let expected_holes = if pi == P6 {
                        link_preference_holes(&target.topo, *x)
                    } else {
                        BTreeSet::new()
                    };
                    if let Err(e) = p4_and_verify(tr, cell, target, &cp, &expected_holes, out) {
                        out.fail(&what, e);
                    }
                    row.push(Some(cp));
                }
                Err(e) => {
                    out.fail(&what, e);
                    row.push(None);
                }
            }
        }
        compiled.push(row);
    }

    for (i, run) in HARNESS_RUNS.iter().enumerate() {
        let target = &targets[run.target];
        let what = format!(
            "{} harness {}",
            target.name, catalogues[run.target][run.policy].0
        );
        out.ops += 1;
        let Some(cp) = &compiled[run.target][run.policy] else {
            out.fail(&what, "policy did not compile");
            continue;
        };
        let cell = (targets.len() * 9 + i) as u32;
        if let Err(e) = converge_and_check(tr, cell, &target.topo, cp, run, &mut rng, out) {
            out.fail(&what, e);
        }
    }
    let probes = out.get("dataplane.probes").max(1.0);
    out.set(
        "dataplane.ns_per_probe",
        1e9 * out.get("dataplane.converge_s") / probes,
    );
    if tr.enabled() {
        let stages: f64 = [
            "core.parse_s",
            "core.normalize_s",
            "core.analyze_s",
            "core.resolve_s",
            "core.determinize_s",
            "core.product_s",
            "topology.rtt_scan_s",
        ]
        .iter()
        .map(|m| out.get(m))
        .sum();
        out.set("core.tablegen_other_s", out.get("core.compile_s") - stages);
    }
}

/// The Fig 3 catalogue on `topo`, with waypoints and the preferred link
/// drawn from the seed. Also returns each policy's link-preference
/// switch X (meaningful for P6 only).
fn catalogue(topo: &Topology, rng: &mut StdRng) -> Vec<(&'static str, String, NodeId)> {
    let sw = topo.switches();
    let f1 = sw[rng.gen_range(0..sw.len())];
    let f2 = loop {
        let f = sw[rng.gen_range(0..sw.len())];
        if f != f1 {
            break f;
        }
    };
    let x = sw[rng.gen_range(0..sw.len())];
    let nbrs = topo.switch_neighbors(x);
    let y = nbrs[rng.gen_range(0..nbrs.len())];
    let name = |n: NodeId| topo.node(n).name.clone();
    policies::catalogue(&name(f1), &name(f2), &name(x), &name(y))
        .into_iter()
        .map(|(label, src)| (label, src, x))
        .collect()
}

/// P6 admits only paths that cross X→Y, and a simple path that ends at
/// X cannot leave it again: every switch's route to X is a black hole.
fn link_preference_holes(topo: &Topology, x: NodeId) -> BTreeSet<(NodeId, NodeId)> {
    topo.switches()
        .into_iter()
        .filter(|&s| s != x)
        .map(|s| (s, x))
        .collect()
}

/// Compiles one policy. In the traced run the public stage functions are
/// also called one by one, each in its own span, so the compile's time
/// can be split by stage; the residual is table generation.
fn compile_request(
    tr: &Tracer,
    cell: u32,
    topo: &Topology,
    src: &str,
    out: &mut Batch,
) -> Result<Arc<CompiledPolicy>, String> {
    if tr.enabled() {
        tr.span("core.stages", Some(cell), || {
            stages(tr, cell, topo, src, out)
        })?;
    }
    let started = Instant::now();
    let cp = tr.span("core.compile", Some(cell), || {
        Compiler::new(topo).compile_str(src)
    });
    out.add("core.compile_s", started.elapsed().as_secs_f64());
    let cp = cp.map_err(|e| format!("compile: {e}"))?;
    out.add("core.pg_vnodes", cp.total_tags() as f64);
    let tags = cp
        .programs
        .values()
        .map(|p| p.tags.len())
        .max()
        .unwrap_or(0);
    out.max("core.tags", tags as f64);
    let states: usize = cp.automata.iter().map(Dfa::num_states).sum();
    out.add("automata.dfa_states", states as f64);
    Ok(Arc::new(cp))
}

fn stages(
    tr: &Tracer,
    cell: u32,
    topo: &Topology,
    src: &str,
    out: &mut Batch,
) -> Result<(), String> {
    let t = Instant::now();
    let policy = tr.span("core.parse", Some(cell), || parse_policy(src));
    out.add("core.parse_s", t.elapsed().as_secs_f64());
    let policy = policy.map_err(|e| format!("parse: {e}"))?;

    let t = Instant::now();
    let normal = tr.span("core.normalize", Some(cell), || normalize(&policy));
    out.add("core.normalize_s", t.elapsed().as_secs_f64());
    let normal = normal.map_err(|e| format!("normalize: {e}"))?;

    let t = Instant::now();
    let analysis = tr.span("core.analyze", Some(cell), || analyze(&normal));
    out.add("core.analyze_s", t.elapsed().as_secs_f64());
    analysis.map_err(|e| format!("analyze: {e}"))?;

    let t = Instant::now();
    let regexes = tr.span("core.resolve", Some(cell), || {
        resolve_regexes(&normal.regexes, topo)
    });
    out.add("core.resolve_s", t.elapsed().as_secs_f64());
    let regexes = regexes.map_err(|e| format!("resolve: {e}"))?;

    let alphabet: Vec<u32> = topo.switches().iter().map(|s| s.0).collect();
    let t = Instant::now();
    let automata: Vec<Dfa> = tr.span("core.determinize", Some(cell), || {
        regexes
            .iter()
            .map(|r| Dfa::from_regex(&r.reverse(), &alphabet).minimize().0)
            .collect()
    });
    out.add("core.determinize_s", t.elapsed().as_secs_f64());

    // The compiler's default destinations: switches with hosts, or every
    // switch on a host-less graph.
    let with_hosts: Vec<NodeId> = topo
        .switches()
        .into_iter()
        .filter(|&s| !topo.hosts_of(s).is_empty())
        .collect();
    let destinations = if with_hosts.is_empty() {
        topo.switches()
    } else {
        with_hosts
    };
    let t = Instant::now();
    let pg = tr.span("core.product", Some(cell), || {
        ProductGraph::build(topo, &automata, &normal, &destinations, true)
    });
    out.add("core.product_s", t.elapsed().as_secs_f64());
    std::hint::black_box(pg);

    let t = Instant::now();
    let rtt = tr.span("topology.rtt_scan", Some(cell), || topo.max_switch_rtt_ns());
    out.add("topology.rtt_scan_s", t.elapsed().as_secs_f64());
    std::hint::black_box(rtt);
    Ok(())
}

/// Emits and validates P4 for every switch, and on verified targets
/// checks the verifier's black holes against the expected set.
fn p4_and_verify(
    tr: &Tracer,
    cell: u32,
    target: &Target,
    cp: &CompiledPolicy,
    expected_holes: &BTreeSet<(NodeId, NodeId)>,
    out: &mut Batch,
) -> Result<(), String> {
    let t = Instant::now();
    let programs = tr.span("p4gen.emit", Some(cell), || {
        contra_p4gen::emit_all(cp, &target.topo)
    });
    out.add("p4gen.emit_s", t.elapsed().as_secs_f64());
    let bytes: usize = programs.values().map(String::len).sum();
    out.add("p4gen.bytes", bytes as f64);
    if programs.len() != target.topo.num_switches() {
        return Err(format!(
            "{} P4 programs for {} switches",
            programs.len(),
            target.topo.num_switches()
        ));
    }

    let t = Instant::now();
    let invalid = tr.span("p4gen.validate", Some(cell), || {
        programs
            .iter()
            .map(|(name, src)| (name, contra_p4gen::validate(src)))
            .find(|(_, errors)| !errors.is_empty())
            .map(|(name, errors)| format!("P4 for {name} does not validate: {:?}", errors[0]))
    });
    out.add("p4gen.validate_s", t.elapsed().as_secs_f64());
    if let Some(e) = invalid {
        return Err(e);
    }

    if target.verify {
        let t = Instant::now();
        let report = tr.span("core.verify", Some(cell), || verify(cp, &target.topo));
        out.add("core.verify_s", t.elapsed().as_secs_f64());
        let holes: BTreeSet<(NodeId, NodeId)> = report
            .verdicts
            .black_holes
            .iter()
            .map(|b| (b.src, b.dst))
            .collect();
        if &holes != expected_holes {
            return Err(format!(
                "verify found {} black holes, {} expected",
                holes.len(),
                expected_holes.len()
            ));
        }
    }
    Ok(())
}

/// Converges the probe protocol on seeded pinned utilizations and checks
/// that on sampled pairs the path traffic takes has the best rank over
/// all simple paths.
fn converge_and_check(
    tr: &Tracer,
    cell: u32,
    topo: &Topology,
    cp: &Arc<CompiledPolicy>,
    run: &HarnessRun,
    rng: &mut StdRng,
    out: &mut Batch,
) -> Result<(), String> {
    // Quantized utilizations, equal in both directions of a cable, as
    // the dataplane's optimality tests pin them.
    let mut utils = Vec::new();
    let mut seen = BTreeSet::new();
    for l in topo.links() {
        let key = (l.src.min(l.dst), l.src.max(l.dst));
        if seen.insert(key) {
            utils.push((key, rng.gen_range(0..=20) as f64 / 20.0));
        }
    }
    let sw = topo.switches();
    let pairs: Vec<(NodeId, NodeId)> = (0..SAMPLED_PAIRS)
        .map(|_| loop {
            let (s, d) = (
                sw[rng.gen_range(0..sw.len())],
                sw[rng.gen_range(0..sw.len())],
            );
            if s != d {
                break (s, d);
            }
        })
        .collect();

    let t = Instant::now();
    let mut h = tr.span("dataplane.converge", Some(cell), || {
        let mut h = ProtocolHarness::new(topo, cp.clone(), DataplaneConfig::default());
        for &((a, b), u) in &utils {
            h.set_util_bidir(a, b, u);
        }
        h.run_rounds(3);
        h
    });
    out.add("dataplane.converge_s", t.elapsed().as_secs_f64());
    out.add("dataplane.probes", h.probes_delivered as f64);

    let t = Instant::now();
    let checked = tr.span("bench.oracle", Some(cell), || {
        for &(s, d) in &pairs {
            let path = h
                .traffic_path(s, d)
                .ok_or_else(|| format!("{s}→{d}: no route after convergence"))?;
            let (got, best) = (h.oracle_rank(&path), h.oracle_best_rank(s, d, run.max_hops));
            if got != best {
                return Err(format!("{s}→{d}: chose rank {got}, the optimum is {best}"));
            }
        }
        Ok(())
    });
    out.check_s += t.elapsed().as_secs_f64();
    checked
}
