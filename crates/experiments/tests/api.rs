//! The experiment API's own contract: builder round-trips, compile-cache
//! sharing across matrix sweeps, determinism, and the smoke-scale
//! scenarios the old `DcExperiment`/`WanExperiment` tests covered.

use contra_experiments::{
    CompileCache, Contra, Ecmp, Hula, InstallError, RoutingSystem, Scenario, Sp, Spain, Traffic,
    Workload,
};
use contra_sim::Time;

/// Hula cannot run outside a two-tier leaf-spine fabric: the scenario
/// surfaces that as a typed error instead of a mid-install panic.
#[test]
fn hula_is_unsupported_on_wan_topologies() {
    let err = Scenario::abilene().try_run(&Hula::default()).unwrap_err();
    match err {
        InstallError::Unsupported { system, reason } => {
            assert_eq!(system, "Hula");
            assert!(reason.contains("leaf-spine"), "{reason}");
        }
        other => panic!("expected Unsupported, got: {other}"),
    }
}

/// Zero intervals are rejected before the simulator exists. Regression:
/// a zero queue-sampling period re-posted its sample at the same instant
/// forever, so the run never finished.
#[test]
fn zero_queue_sampling_is_a_typed_error() {
    let s = small_dc()
        .traffic(Traffic::None)
        .duration(Time::ZERO)
        .drain(Time::us(10))
        .queue_sampling(Time::ZERO);
    match s.try_run(&Ecmp).unwrap_err() {
        InstallError::ZeroInterval { setting } => assert_eq!(setting, "queue_sampling"),
        other => panic!("expected ZeroInterval, got: {other}"),
    }
    // The smallest positive period still runs.
    let r = s.queue_sampling(Time::ns(1)).run(&Ecmp);
    assert!(!r.stats.queue_samples.is_empty());
}

/// Regression: a zero estimator window panicked inside the link layer
/// ("estimator window must be positive").
#[test]
fn zero_util_tau_is_a_typed_error() {
    let err = small_dc()
        .util_tau(Time::ZERO)
        .try_run(&Contra::dc())
        .unwrap_err();
    match err {
        InstallError::ZeroInterval { setting } => assert_eq!(setting, "util_tau"),
        other => panic!("expected ZeroInterval, got: {other}"),
    }
}

/// Regression: a zero UDP bucket divided by zero when buckets were
/// converted to Gbps.
#[test]
fn zero_udp_bucket_is_a_typed_error() {
    let err = small_dc()
        .udp(1e9)
        .udp_bucket(Time::ZERO)
        .try_run(&Ecmp)
        .unwrap_err();
    assert_eq!(
        err.to_string(),
        "udp_bucket must be a positive interval, not 0"
    );
    match err {
        InstallError::ZeroInterval { setting } => assert_eq!(setting, "udp_bucket"),
        other => panic!("expected ZeroInterval, got: {other}"),
    }
}

/// A leaf-spine scenario small enough for debug-build test runs.
fn small_dc() -> Scenario {
    Scenario::leaf_spine(2, 2, 2)
        .load(0.3)
        .workload(Workload::Cache)
        .duration(Time::ms(8))
        .warmup(Time::ms(1))
        .drain(Time::ms(15))
}

/// Builder parameters come back out in the result metadata.
#[test]
fn scenario_round_trips_into_run_result() {
    let r = small_dc().seed(9).run(&Ecmp);
    assert_eq!(r.system, "ECMP");
    assert_eq!(r.scenario.scenario, "leaf-spine(2,2,2)");
    assert_eq!(r.scenario.load, 0.3);
    assert_eq!(r.scenario.workload, "cache");
    assert_eq!(r.scenario.seed, 9);
    assert_eq!(r.scenario.warmup, Time::ms(1));
    assert_eq!(r.scenario.duration, Time::ms(8));
    // Figures are consistent with the raw stats they derive from.
    assert_eq!(r.figures.completion_rate, r.stats.completion_rate());
    assert_eq!(r.figures.total_wire_bytes, r.stats.total_wire_bytes());
    assert!(r.figures.mean_fct_ms.is_some());
    assert!(r.figures.p99_fct_ms.unwrap() >= r.figures.mean_fct_ms.unwrap());
    assert!(r.traces.is_none(), "tracing was not requested");
}

/// The acceptance sweep: {Contra-MU, ECMP, Hula} × 3 loads compiles the
/// policy exactly once.
#[test]
fn matrix_sweep_compiles_each_policy_once() {
    let cache = CompileCache::new();
    let contra = Contra::mu();
    let hula = Hula::default();
    let systems: [&dyn RoutingSystem; 3] = [&contra, &Ecmp, &hula];
    let results = small_dc().matrix_cached(&systems, &[0.2, 0.4, 0.6], &cache);
    assert_eq!(results.len(), 9);
    assert_eq!(
        cache.compiles(),
        1,
        "one policy text on one topology must compile exactly once across the sweep"
    );
    // Loads outermost, systems innermost — the CSV ordering.
    let labels: Vec<(f64, String)> = results
        .iter()
        .map(|r| (r.scenario.load, r.system.clone()))
        .collect();
    assert_eq!(labels[0], (0.2, "Contra".to_string()));
    assert_eq!(labels[1], (0.2, "ECMP".to_string()));
    assert_eq!(labels[2], (0.2, "Hula".to_string()));
    assert_eq!(labels[3].0, 0.4);
    // Every cell actually ran.
    for r in &results {
        assert!(
            r.figures.completion_rate > 0.9,
            "{} @ {:.0}%: completion {}",
            r.system,
            r.scenario.load * 100.0,
            r.figures.completion_rate
        );
    }
}

/// Distinct policies in one sweep each compile once.
#[test]
fn distinct_policies_compile_separately_but_once() {
    let cache = CompileCache::new();
    let mu = Contra::mu().labeled("Contra-MU");
    let dc = Contra::dc().labeled("Contra-DC");
    let systems: [&dyn RoutingSystem; 2] = [&mu, &dc];
    small_dc().matrix_cached(&systems, &[0.2, 0.5], &cache);
    assert_eq!(cache.compiles(), 2, "two distinct policy texts");
    assert_eq!(cache.len(), 2);
}

/// Two identical runs produce identical statistics (the simulator is
/// deterministic and the scenario adds no hidden randomness).
#[test]
fn scenario_runs_are_deterministic() {
    let fingerprint = |sys: &dyn RoutingSystem| {
        let r = small_dc().seed(3).run(sys);
        (
            r.stats.flows.iter().map(|f| f.finish).collect::<Vec<_>>(),
            r.figures.total_wire_bytes,
            r.figures.delivered_packets,
            r.figures.mean_fct_ms.map(f64::to_bits),
        )
    };
    assert_eq!(fingerprint(&Contra::mu()), fingerprint(&Contra::mu()));
    assert_eq!(fingerprint(&Ecmp), fingerprint(&Ecmp));
}

/// Random WAN pair selection is a pure function of the seed.
#[test]
fn random_pairs_are_deterministic() {
    let s = Scenario::abilene();
    assert_eq!(s.pick_pairs(4), s.pick_pairs(4));
    assert_eq!(s.pick_pairs(4).len(), 4);
    let other_seed = Scenario::abilene().seed(2);
    assert_ne!(s.pick_pairs(4), other_seed.pick_pairs(4));
    for (a, b) in s.pick_pairs(4) {
        assert_ne!(a, b, "a host never pairs with itself");
    }
}

/// Register-array telemetry (§5.3 sizing): an undersized flowlet table
/// must report the aliasing it models — nonzero collisions surfaced
/// through `SimStats` into `Figures::register_collisions` — while the
/// default sizing on the same scenario stays collision-free.
#[test]
fn undersized_flowlet_table_reports_collisions() {
    use contra_dataplane::DataplaneConfig;
    let scenario = Scenario::leaf_spine(4, 2, 8)
        .load(0.6)
        .duration(Time::ms(8))
        .warmup(Time::ms(2))
        .drain(Time::ms(10));
    let starved = Contra::dc().with_config(DataplaneConfig {
        flowlet_slots: 1, // rounds up to the 16-slot register-array floor
        ..DataplaneConfig::default()
    });
    let r = scenario.run(&starved);
    assert!(
        r.stats.flowlet_collisions > 0,
        "thousands of flowlets through 16 slots per switch must alias"
    );
    assert_eq!(
        r.figures.register_collisions,
        r.stats.flowlet_collisions + r.stats.loop_collisions
    );
    // Scheduler occupancy telemetry rides along on every run.
    assert!(r.stats.sched_peak_pending > 0);

    let roomy = scenario.run(&Contra::dc());
    assert_eq!(
        roomy.figures.register_collisions, 0,
        "default sizing must not alias on this scenario"
    );
}

/// The old `DcExperiment` smoke test, through the new API: every
/// datacenter system completes nearly all flows at light load.
#[test]
fn dc_scenario_smoke() {
    let scenario = small_dc();
    let contra = Contra::mu();
    let hula = Hula::default();
    let systems: [&dyn RoutingSystem; 3] = [&contra, &Ecmp, &hula];
    for system in systems {
        let r = scenario.run(system);
        assert!(
            r.figures.completion_rate > 0.9,
            "{}: completion {}",
            r.system,
            r.figures.completion_rate
        );
        assert!(r.figures.mean_fct_ms.is_some());
    }
}

/// The old `WanExperiment` smoke test: every WAN system moves traffic on
/// Abilene.
#[test]
fn wan_scenario_smoke() {
    let scenario = Scenario::abilene()
        .load(0.2)
        .workload(Workload::Cache)
        .duration(Time::ms(160))
        .warmup(Time::ms(120))
        .drain(Time::ms(250));
    let contra = Contra::mu();
    let spain = Spain::new(4);
    let systems: [&dyn RoutingSystem; 3] = [&Sp, &spain, &contra];
    for system in systems {
        let r = scenario.run(system);
        assert!(
            r.figures.completion_rate > 0.8,
            "{}: completion {}",
            r.system,
            r.figures.completion_rate
        );
    }
}

/// Failure scheduling by node name, plus UDP traffic: goodput drops at
/// the failure and the scenario still accounts for every byte.
#[test]
fn udp_scenario_with_failure_runs() {
    let r = Scenario::leaf_spine(2, 2, 2)
        .udp(2e9)
        .duration(Time::ms(12))
        .warmup(Time::ZERO)
        .drain(Time::ZERO)
        .udp_bucket(Time::us(500))
        .fail_link("leaf0", "spine0", Time::ms(6))
        .run(&Contra::dc());
    assert_eq!(r.scenario.workload, "udp");
    let good = r.stats.udp_goodput_gbps();
    assert!(!good.is_empty(), "UDP timeline must be recorded");
    assert!(r.figures.delivered_packets > 0);
}

/// Name labels survive a full sweep: the whitespace-variant policies that
/// the old `SystemKind::label()` silently relabeled stay `"Contra"`.
#[test]
fn series_labels_are_stable_in_results() {
    let variants = [
        "minimize(path.util)",
        "minimize( path.util )",
        "minimize(  path.util  )",
    ];
    let cache = CompileCache::new();
    for v in variants {
        let r = small_dc().run_cached(&Contra::new(v), &cache);
        assert_eq!(r.system, "Contra", "policy {v:?} relabeled its series");
    }
    // Each formatting variant is a distinct cache key (text-keyed), but
    // none of them changed the label.
    assert_eq!(cache.compiles(), 3);
}

/// The seed-aggregation helper: a seeds×loads×systems sweep collapses
/// into one summary per (load, system) point, bands bracket their means,
/// and single-sample bands degenerate to the sample.
#[test]
fn aggregate_seeds_bands_bracket_means() {
    use contra_experiments::{aggregate_seeds, Band, SweepSpec};
    let systems: [&dyn RoutingSystem; 2] = [&Ecmp, &Contra::dc()];
    let results = SweepSpec::new(small_dc())
        .systems(&systems)
        .loads(&[0.2, 0.5])
        .seeds(&[1, 2, 3])
        .run();
    assert_eq!(results.len(), 2 * 2 * 3);
    let summaries = aggregate_seeds(&results);
    assert_eq!(summaries.len(), 2 * 2, "one summary per (load, system)");
    // Sweep order is loads-outer, systems-inner; aggregation keeps it.
    assert_eq!(summaries[0].system, "ECMP");
    assert_eq!(summaries[0].load, 0.2);
    assert_eq!(summaries[1].system, "Contra");
    assert_eq!(summaries[3].load, 0.5);
    for s in &summaries {
        assert_eq!(s.seeds, vec![1, 2, 3]);
        let b = s.mean_fct_ms.expect("flows completed");
        assert_eq!(b.n, 3);
        assert!(b.min <= b.mean && b.mean <= b.max, "{b:?}");
        assert!(
            s.completion_rate.min <= s.completion_rate.mean
                && s.completion_rate.mean <= s.completion_rate.max
        );
    }
    // Seeds genuinely vary the traffic, so at least one band is wide.
    assert!(
        summaries
            .iter()
            .any(|s| { s.mean_fct_ms.is_some_and(|b| b.max > b.min) }),
        "three seeds should not produce identical FCTs everywhere"
    );
    // Band::over basics.
    assert_eq!(Band::over([]), None);
    let one = Band::over([2.5]).unwrap();
    assert_eq!((one.mean, one.min, one.max, one.n), (2.5, 2.5, 2.5, 1));
}

/// Knob-axis entries (`SweepSpec::vary`) are part of the aggregation
/// key: cells that differ only by knob must never fold into one band.
#[test]
fn aggregate_seeds_keeps_knob_variants_apart() {
    use contra_experiments::{aggregate_seeds, SweepSpec};
    let systems: [&dyn RoutingSystem; 1] = [&Ecmp];
    let results = SweepSpec::new(small_dc())
        .systems(&systems)
        .seeds(&[1, 2])
        .vary("short", |s| s.duration(Time::ms(6)))
        .vary("long", |s| s.duration(Time::ms(10)))
        .run();
    assert_eq!(results.len(), 2 * 2);
    assert_eq!(results[0].scenario.knob.as_deref(), Some("short"));
    let summaries = aggregate_seeds(&results);
    assert_eq!(summaries.len(), 2, "one band per knob entry");
    assert_eq!(summaries[0].knob.as_deref(), Some("short"));
    assert_eq!(summaries[1].knob.as_deref(), Some("long"));
    for s in &summaries {
        assert_eq!(s.seeds, vec![1, 2]);
    }
    // The knob genuinely changes the measurement (longer drain → more
    // completions), so folding them together would have mixed bands.
    assert!(
        summaries[0].completion_rate.mean <= summaries[1].completion_rate.mean,
        "shorter run cannot complete more flows"
    );
}
