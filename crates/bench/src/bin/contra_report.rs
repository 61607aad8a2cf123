//! `contra_report`: one observable run, rendered for humans and for
//! Perfetto.
//!
//! Runs the Fig 14 seed-1 failure cell (leaf-spine(4,2,8), constant
//! 4.25 Gbps UDP, uplink cut at 50 ms) with the telemetry recorder on —
//! **twice**, asserting every export is byte-identical across the two
//! runs, so the determinism contract is enforced on the exact artifact
//! CI uploads — and writes:
//!
//! - `TELEM_TRACE.json` — Chrome trace-event JSON; load it in
//!   [Perfetto](https://ui.perfetto.dev) to scrub through the failure.
//! - `TELEM_EVENTS.jsonl` — the same events, one JSON object per line.
//! - `TELEM_METRICS.csv` — every time series / counter / histogram.
//! - `RUN_REPORT.txt` — the human-readable digest: scenario, figures of
//!   merit, fault epochs, drops, event census, engine counters, and the
//!   policy compiler's per-stage profile (asserted to sum to its total
//!   within 1%).
//!
//! `CONTRA_BENCH_FAST=1` shrinks the cell (cut at 5 ms, 12 ms stream)
//! so CI smoke runs stay cheap; the artifact schema is identical.

use contra_bench::{fast_mode, Contra, RoutingSystem, Scenario};
use contra_core::Compiler;
use contra_sim::Time;
use contra_telemetry::validate_json;
use contra_topology::generators::{self, LinkSpec};
use std::fmt::Write as _;

/// The Fig 14 seed-1 cell (full mode), or a 5×-shorter replica of its
/// shape (fast mode): constant-rate UDP, one uplink cut, goodput dip
/// and recovery inside the window.
fn cell() -> Scenario {
    let (duration, cut) = if fast_mode() {
        (Time::ms(12), Time::ms(5))
    } else {
        (Time::ms(60), Time::ms(50))
    };
    Scenario::leaf_spine(4, 2, 8)
        .udp(4.25e9)
        .duration(duration)
        .warmup(Time::ZERO)
        .drain(Time::ZERO)
        .udp_bucket(Time::us(250))
        .fail_link("leaf0", "spine0", cut)
        .seed(1)
}

fn run() -> contra_bench::RunResult {
    cell()
        // Sized so the full-mode cell's event history fits without
        // eviction — the uploaded trace is the complete run.
        .telemetry(true)
        .telemetry_ring(1 << 19)
        .run(&Contra::dc())
}

fn write_artifact(path: &str, contents: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("wrote {path} ({} bytes)", contents.len());
}

fn main() {
    if contra_sim::recorder::telemetry_from_env() == Some(false) {
        eprintln!("contra_report: unset CONTRA_TELEM=0 first — it disables the recorder");
        std::process::exit(2);
    }
    let scenario = cell();
    eprintln!(
        "contra_report: {} / Contra, telemetry on, run twice for determinism",
        scenario.label()
    );
    let a = run();
    let b = run();
    let telem_a = a.telemetry.as_ref().expect("telemetry requested");
    let telem_b = b.telemetry.as_ref().expect("telemetry requested");

    // Determinism gate: the artifacts below must replay byte-identically.
    let trace = telem_a.chrome_trace();
    assert_eq!(trace, telem_b.chrome_trace(), "trace must replay");
    let jsonl = telem_a.events_jsonl();
    assert_eq!(jsonl, telem_b.events_jsonl(), "event log must replay");
    let csv = telem_a.metrics_csv();
    assert_eq!(csv, telem_b.metrics_csv(), "metrics must replay");
    assert_eq!(telem_a.metrics_json(), telem_b.metrics_json());
    eprintln!("determinism: both runs produced byte-identical exports");

    validate_json(&trace).expect("chrome trace must be valid JSON");
    assert_eq!(
        telem_a.events_evicted, 0,
        "ring sized for this cell — the uploaded trace must be complete"
    );

    // The compile-pipeline profile for the policy this cell ran (same
    // topology the scenario builds).
    let system = Contra::dc();
    let policy = system.policy_text().expect("Contra is policy-driven");
    let topo = generators::leaf_spine(4, 2, 8, LinkSpec::default(), LinkSpec::default());
    let (_, profile) = Compiler::new(&topo)
        .compile_str_profiled(policy)
        .expect("the shipped policy compiles");
    let drift = profile.total.abs_diff(profile.stage_sum());
    assert!(
        drift <= profile.total / 100,
        "stage sum must be within 1% of total ({drift:?} off {:?})",
        profile.total
    );

    // ---- RUN_REPORT.txt --------------------------------------------------
    let mut rpt = String::new();
    let stats = &a.stats;
    let _ = writeln!(rpt, "contra run report");
    let _ = writeln!(rpt, "=================");
    let _ = writeln!(
        rpt,
        "scenario : {} / {}  (workload {}, seed {})",
        a.scenario.scenario, a.system, a.scenario.workload, a.scenario.seed
    );
    let _ = writeln!(
        rpt,
        "window   : {:.1} ms stream, warmup {:.1} ms",
        a.scenario.duration.as_millis_f64(),
        a.scenario.warmup.as_millis_f64()
    );
    let _ = writeln!(rpt);

    let _ = writeln!(rpt, "figures of merit");
    let _ = writeln!(rpt, "----------------");
    let _ = writeln!(
        rpt,
        "  delivered packets   {:>12}",
        a.figures.delivered_packets
    );
    let _ = writeln!(
        rpt,
        "  wire bytes          {:>12}  (probe overhead {})",
        a.figures.total_wire_bytes, a.figures.overhead_bytes
    );
    if let Some(c) = a.figures.convergence_ms {
        let _ = writeln!(rpt, "  convergence         {c:>12.3} ms");
    }
    let _ = writeln!(
        rpt,
        "  lost in convergence {:>12}",
        a.figures.lost_in_convergence
    );
    if let Some((dip_t, dip_gbps)) = stats
        .udp_goodput_gbps()
        .iter()
        .min_by(|x, y| x.1.total_cmp(&y.1))
        .map(|&(t, g)| (t, g))
    {
        let _ = writeln!(
            rpt,
            "  goodput dip         {dip_gbps:>12.2} Gbps at {:.2} ms",
            dip_t.as_millis_f64()
        );
    }
    let _ = writeln!(rpt);

    let _ = writeln!(rpt, "fault epochs");
    let _ = writeln!(rpt, "------------");
    for e in &stats.fault_epochs {
        let _ = writeln!(
            rpt,
            "  {:>8.3} ms  {:<24} convergence {:>8.3} ms, {} drops",
            e.at.as_millis_f64(),
            e.label,
            e.convergence().as_millis_f64(),
            e.disruption_drops
        );
    }
    let _ = writeln!(rpt);

    let _ = writeln!(rpt, "drops by reason");
    let _ = writeln!(rpt, "---------------");
    if stats.drops.is_empty() {
        let _ = writeln!(rpt, "  (none)");
    }
    for (reason, n) in &stats.drops {
        let _ = writeln!(rpt, "  {reason:<12?} {n:>12}");
    }
    let _ = writeln!(rpt);

    let _ = writeln!(rpt, "engine counters");
    let _ = writeln!(rpt, "---------------");
    let _ = writeln!(rpt, "  events_processed    {:>12}", stats.events_processed);
    let _ = writeln!(
        rpt,
        "  sched_peak_pending  {:>12}",
        stats.sched_peak_pending
    );
    let _ = writeln!(rpt, "  sched_cascades      {:>12}", stats.sched_cascades);
    let _ = writeln!(rpt, "  sched_overflow      {:>12}", stats.sched_overflow);
    let _ = writeln!(
        rpt,
        "  register collisions {:>12}  (flowlet {} + loop {})",
        stats.flowlet_collisions + stats.loop_collisions,
        stats.flowlet_collisions,
        stats.loop_collisions
    );
    let _ = writeln!(rpt);

    let _ = writeln!(rpt, "trace census ({} events)", telem_a.events.len());
    let _ = writeln!(rpt, "------------");
    for (name, n) in telem_a.event_counts() {
        let _ = writeln!(rpt, "  {name:<12} {n:>12}");
    }
    let _ = writeln!(
        rpt,
        "  metric points held: {} across series (evicted events: {})",
        telem_a.metrics.total_points(),
        telem_a.events_evicted
    );
    let _ = writeln!(rpt);

    let _ = writeln!(rpt, "compile profile ({} policy)", a.system);
    let _ = writeln!(rpt, "---------------");
    rpt.push_str(&profile.render());

    write_artifact("TELEM_TRACE.json", &trace);
    write_artifact("TELEM_EVENTS.jsonl", &jsonl);
    write_artifact("TELEM_METRICS.csv", &csv);
    write_artifact("RUN_REPORT.txt", &rpt);
    eprint!("{rpt}");
}
