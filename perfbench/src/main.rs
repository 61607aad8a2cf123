//! The repository benchmark.
//!
//! ```sh
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dc-fabric --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One run repeats a workload's fixed batch, built from `--seed`, for
//! about `--seconds` seconds, checks every output, and prints as its last
//! line one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! Untraced (`--trace 0`) the metrics are the end-to-end ones, and the
//! free per-layer counts go to the lines above as text. Traced
//! (`--trace 1`) untraced and traced batches alternate; the metrics are
//! the per-layer ones, the spans are written to
//! `perfbench/out/trace-<workload>-seed<seed>.json`, and a self-time table
//! names the dominant layer. End-to-end times are scaled to a nominal
//! host speed by a reference kernel timed before every batch and after
//! the last (`util::Reference`). `--manifest` prints `BENCHMARK.json` and
//! `--describe` prints `METRICS.md`.

mod catalogue;
mod control;
mod sim;
mod trace;
mod util;

use catalogue::{DEFAULT_SEED, END_TO_END, PER_LAYER, REFERENCE_NOMINAL_S, RUN_SECONDS, WORKLOADS};
use std::collections::BTreeMap;
use std::time::Instant;
use trace::Tracer;

/// Environment variables that silently change what the program does
/// (engine variant, worker count, telemetry, auditing, sweep size), so a
/// run under any of them would not measure the default engine.
const REFUSED_ENV: [&str; 6] = [
    "CONTRA_LINK_PIPELINE",
    "CONTRA_DISPATCH",
    "CONTRA_TELEM",
    "CONTRA_JOBS",
    "CONTRA_SIM_AUDIT",
    "CONTRA_BENCH_FAST",
];

/// Everything one batch of a workload produced.
#[derive(Default)]
pub struct Batch {
    /// Time before events run (topology, flows, compile, install).
    pub setup_s: f64,
    /// Time the benchmark spent checking outputs, left out of `run_s`.
    pub check_s: f64,
    /// Cells and compile requests attempted.
    pub ops: u64,
    /// The first failure of each failed operation.
    failures: BTreeMap<String, String>,
    /// Per-cell output fingerprints, in cell order.
    pub fingerprints: Vec<(String, u64)>,
    metrics: BTreeMap<String, f64>,
}

impl Batch {
    /// Counts `op` as failed (once, whatever else goes wrong with it).
    pub fn fail(&mut self, op: &str, why: impl std::fmt::Display) {
        self.failures
            .entry(op.to_string())
            .or_insert_with(|| why.to_string());
    }

    pub fn add(&mut self, name: &str, v: f64) {
        *self.metrics.entry(name.to_string()).or_insert(0.0) += v;
    }

    pub fn set(&mut self, name: &str, v: f64) {
        self.metrics.insert(name.to_string(), v);
    }

    pub fn max(&mut self, name: &str, v: f64) {
        let e = self.metrics.entry(name.to_string()).or_insert(v);
        *e = e.max(v);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }
}

struct Measured {
    traced: bool,
    run_s: f64,
    cpu_s: f64,
    batch: Batch,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

enum Mode {
    Run(Args),
    Manifest,
    Describe,
}

fn main() {
    match run() {
        Ok(()) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

fn run() -> Result<(), String> {
    match parse_args(std::env::args().skip(1))? {
        Mode::Manifest => print!("{}", catalogue::manifest()),
        Mode::Describe => print!("{}", catalogue::describe()),
        Mode::Run(args) => {
            if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
                return Err(format!(
                    "{var} is set; it changes what the benchmark measures, unset it"
                ));
            }
            measure(&args)?;
        }
    }
    Ok(())
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Mode, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--manifest" => return Ok(Mode::Manifest),
            "--describe" => return Ok(Mode::Describe),
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                let v = it.next().ok_or(format!("{flag} needs a value"))?;
                let num = || {
                    v.parse::<u64>()
                        .map_err(|_| format!("{flag}: not a number: {v}"))
                };
                match flag.as_str() {
                    "--workload" => args.workload = v.clone(),
                    "--seed" => args.seed = num()?,
                    "--seconds" => args.seconds = num()?,
                    _ => {
                        args.trace = match v.as_str() {
                            "0" => false,
                            "1" => true,
                            _ => return Err(format!("--trace takes 0 or 1, not {v}")),
                        }
                    }
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.iter().any(|w| w.name == args.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    Ok(Mode::Run(args))
}

fn run_batch(workload: &str, seed: u64, tr: &Tracer, out: &mut Batch) {
    match workload {
        "dc-fabric" => sim::DC_FABRIC.run_batch(seed, tr, out),
        "wan-failover" => sim::WAN_FAILOVER.run_batch(seed, tr, out),
        "dc-telemetry" => sim::DC_TELEMETRY.run_batch(seed, tr, out),
        "control-plane" => control::run_batch(seed, tr, out),
        other => unreachable!("workload {other} was validated"),
    }
}

fn measure(args: &Args) -> Result<(), String> {
    let budget = args.seconds as f64;
    let started = Instant::now();
    let mut tracer = Tracer::new();
    let mut runs: Vec<Measured> = Vec::new();
    // The reference kernel runs before every batch and once after the
    // last, so its times sample the same host phases as the batches.
    let mut kernel = util::Reference::new();
    let mut reference = vec![kernel.time_s()];
    loop {
        // Traced runs alternate untraced and traced batches, so both see
        // the same machine state and the difference is tracing's cost.
        let traced = args.trace && runs.len() % 2 == 1;
        tracer.set_enabled(traced);
        let mut batch = Batch::default();
        let cpu0 = util::cpu_seconds()?;
        let t0 = Instant::now();
        tracer.span("bench.batch", None, || {
            run_batch(&args.workload, args.seed, &tracer, &mut batch)
        });
        let wall = t0.elapsed().as_secs_f64();
        let cpu = util::cpu_seconds()? - cpu0;
        runs.push(Measured {
            traced,
            run_s: wall - batch.check_s,
            cpu_s: (cpu - batch.check_s).max(0.0),
            batch,
        });
        reference.push(kernel.time_s());
        let least = if args.trace { 2 } else { 1 };
        let elapsed = started.elapsed().as_secs_f64();
        if runs.len() >= least && elapsed + wall > budget {
            break;
        }
    }
    tracer.set_enabled(false);

    let mut failures = cross_batch_checks(args, &runs);
    let attempted: u64 = runs.iter().map(|m| m.batch.ops).sum();
    for (i, m) in runs.iter().enumerate() {
        for (op, why) in &m.batch.failures {
            failures.push(format!("batch {i}: {op}: {why}"));
        }
    }
    let failed = (failures.len() as u64).min(attempted);
    for f in &failures {
        println!("# FAILED {f}");
    }

    for (i, m) in runs.iter().enumerate() {
        println!(
            "# batch {i}{}: run_s {:.4} cpu_s {:.2} setup_s {:.5} check_s {:.4}",
            if m.traced { " (traced)" } else { "" },
            m.run_s,
            m.cpu_s,
            m.batch.setup_s,
            m.batch.check_s
        );
    }
    let untraced: Vec<&Measured> = runs.iter().filter(|m| !m.traced).collect();
    let traced: Vec<&Measured> = runs.iter().filter(|m| m.traced).collect();
    let med = |ms: &[&Measured], f: &dyn Fn(&Measured) -> f64| {
        util::median(&ms.iter().map(|m| f(m)).collect::<Vec<_>>())
    };
    let mean = |ms: &[&Measured], f: &dyn Fn(&Measured) -> f64| {
        util::trimmed_mean(&ms.iter().map(|m| f(m)).collect::<Vec<_>>())
    };
    let reference_s = util::trimmed_mean(&reference);
    let scale = REFERENCE_NOMINAL_S / reference_s;
    println!(
        "# reference kernel {reference_s:.5} s over {} runs; end-to-end times scaled by {scale:.4}",
        reference.len()
    );
    println!(
        "# {} seed {}: {} batches ({} traced) in {:.1} s, {} ops, {} failed",
        args.workload,
        args.seed,
        runs.len(),
        traced.len(),
        started.elapsed().as_secs_f64(),
        attempted,
        failed
    );

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if !args.trace {
        // The per-layer values an untraced batch measures anyway.
        for m in PER_LAYER {
            if untraced[0].batch.metrics.contains_key(m.name) {
                let v = med(&untraced, &|x: &Measured| x.batch.get(m.name));
                println!("# {} = {v} {}", m.name, m.unit);
            }
        }
        let rss = util::peak_rss_mb()?;
        let ok_pct = 100.0 * (attempted - failed) as f64 / attempted.max(1) as f64;
        for m in END_TO_END {
            let v = match m.name {
                "setup_s" => scale * med(&untraced, &|x: &Measured| x.batch.setup_s),
                "run_s" => scale * mean(&untraced, &|x: &Measured| x.run_s),
                "cpu_s" => scale * mean(&untraced, &|x: &Measured| x.cpu_s),
                "peak_rss_mb" => rss,
                "ops_ok_pct" => ok_pct,
                other => unreachable!("end-to-end metric {other} has no measurement"),
            };
            metrics.push((m.name, v, m.unit));
        }
    } else {
        let spans = tracer.spans();
        let self_times = trace::self_time_by_batch(&spans);
        let layer_self = |layer: &str| {
            util::median(
                &self_times
                    .values()
                    .map(|t| t.get(layer).copied().unwrap_or(0.0))
                    .collect::<Vec<_>>(),
            )
        };
        let base = med(&untraced, &|x: &Measured| x.run_s);
        let overhead = med(&traced, &|x: &Measured| x.run_s) - base;
        for m in PER_LAYER {
            let v = if let Some(layer) = m.name.strip_prefix("self_s.") {
                layer_self(layer)
            } else if m.name == "trace.overhead_s" {
                overhead
            } else if m.name == "trace.overhead_pct" {
                100.0 * overhead / base
            } else if m.name == "host.reference_s" {
                reference_s
            } else {
                med(&traced, &|x: &Measured| x.batch.get(m.name))
            };
            metrics.push((m.name, v, m.unit));
        }
        print_self_table(&args.workload, &self_times, &layer_self);
        export_spans(args, &spans)?;
    }
    if let Some(p) = runs[0].batch.metrics.get("result.fct_tail_pctile") {
        println!(
            "# fct_tail_ms is the censored p{p} over {} Contra flows",
            runs[0].batch.get("result.fct_flows")
        );
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    Ok(())
}

/// Every batch must reproduce the first batch's outputs exactly (same
/// seed, same simulated results, traced or not), and at the default seed
/// the first batch must match the fingerprints kept in `expected/`.
fn cross_batch_checks(args: &Args, runs: &[Measured]) -> Vec<String> {
    let mut failures = Vec::new();
    let first = &runs[0].batch.fingerprints;
    for (i, m) in runs.iter().enumerate().skip(1) {
        if &m.batch.fingerprints != first {
            failures.push(format!(
                "batch {i} computed other outputs than batch 0 for the same seed"
            ));
        }
    }
    if args.seed != DEFAULT_SEED || first.is_empty() {
        return failures;
    }
    let expected: BTreeMap<&str, &str> = include_str!("../expected/fingerprints.txt")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .collect();
    for (label, fp) in first {
        let got = format!("{fp:016x}");
        println!("# fingerprint {label} {got}");
        match expected.get(label.as_str()) {
            Some(want) if *want == got => {}
            Some(want) => failures.push(format!("{label}: fingerprint {got}, expected {want}")),
            None => failures.push(format!("{label}: no expected fingerprint")),
        }
    }
    failures
}

fn print_self_table(
    workload: &str,
    self_times: &BTreeMap<u32, BTreeMap<String, f64>>,
    layer_self: &dyn Fn(&str) -> f64,
) {
    let mut layers: Vec<(String, f64)> = self_times
        .values()
        .flat_map(|t| t.keys().cloned())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .map(|l| {
            let s = layer_self(&l);
            (l, s)
        })
        .collect();
    layers.sort_by(|a, b| b.1.total_cmp(&a.1));
    let total: f64 = layers.iter().map(|l| l.1).sum();
    println!("# self time per layer, summed over threads, median over traced batches:");
    for (layer, s) in &layers {
        println!(
            "#   {layer:<12} {s:>10.4} s {:>6.1}%",
            100.0 * s / total.max(1e-12)
        );
    }
    if let Some((layer, _)) = layers.first() {
        println!("# dominant layer on {workload}: {layer}");
    }
}

fn export_spans(args: &Args, spans: &[trace::Span]) -> Result<(), String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
    let path = format!("{dir}/trace-{}-seed{}.json", args.workload, args.seed);
    std::fs::write(&path, trace::chrome_json(spans)).map_err(|e| format!("writing {path}: {e}"))?;
    println!("# {} spans written to {path}", spans.len());
    Ok(())
}
