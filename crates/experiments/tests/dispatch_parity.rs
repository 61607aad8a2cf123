//! Static enum dispatch vs its boxed oracle, and batched sends vs the
//! per-send oracle.
//!
//! The devirtualization contract (see `contra_experiments::dispatch`) is
//! that repacking installed `Box<dyn SwitchLogic>` values into
//! [`SwitchDispatch`]'s inline variants changes *nothing* observable:
//! the same logic values run in the same order on the same schedule, so
//! every statistic — including `events_processed` — is byte-identical to
//! forcing everything through the boxed [`SwitchDispatch::Dyn`] seam.
//! Likewise the transport's `SendBurst` batching describes exactly the
//! packets the per-send effect loop would mint, in the same order with
//! the same ids, so turning it off moves no bit of output either.
//!
//! These tests pin both equivalences end to end over every built-in
//! system on the §6.3 leaf-spine, a fat-tree(4) and the §6.4 Abilene
//! WAN.

use contra_experiments::{
    Contra, DispatchMode, Ecmp, Hula, RoutingSystem, RunResult, Scenario, Sp, Spain,
};
use contra_sim::{Time, MSS};

/// Every behavioral output the parity contract names, floats as exact
/// bit patterns so "close" never passes for "equal".
fn fingerprint(r: &RunResult) -> String {
    let s = &r.stats;
    let bits = |o: Option<f64>| match o {
        Some(v) => format!("{:016x}", v.to_bits()),
        None => "none".to_string(),
    };
    let mut out = format!(
        "mean={} p50={} p99={} done={:016x} delivered={} looped={} breaks={}",
        bits(s.mean_fct_ms()),
        bits(s.fct_percentile_ms(50.0)),
        bits(s.fct_percentile_ms(99.0)),
        s.completion_rate().to_bits(),
        s.delivered_packets,
        s.looped_packets,
        s.loop_breaks,
    );
    for (k, v) in &s.drops {
        out.push_str(&format!(" drop[{k:?}]={v}"));
    }
    for (k, v) in &s.wire_bytes {
        out.push_str(&format!(" wire[{k:?}]={v}"));
    }
    for (len, frac) in s.queue_cdf_mss(MSS) {
        out.push_str(&format!(" q[{len}]={:016x}", frac.to_bits()));
    }
    out.push_str(&format!(
        " collisions={}/{} events={}",
        s.flowlet_collisions, s.loop_collisions, s.events_processed
    ));
    out
}

/// Runs one scenario under enum and forced-dyn dispatch and requires
/// bit-equal fingerprints.
fn assert_dispatch_parity(scenario: &Scenario, system: &dyn RoutingSystem) {
    if DispatchMode::from_env().is_some() {
        // The env override rewires both sides onto one dispatch path,
        // making the comparison vacuous — skip. (That CI lap's purpose is
        // to run every *other* test on the boxed oracle.)
        eprintln!("skipped: CONTRA_DISPATCH override active");
        return;
    }
    let enum_run = scenario.clone().dispatch(DispatchMode::Enum).run(system);
    let dyn_run = scenario.clone().dispatch(DispatchMode::Dyn).run(system);
    assert!(
        enum_run.stats.delivered_packets > 0,
        "{} moved no traffic on {} — the comparison would be vacuous",
        system.name(),
        enum_run.scenario.scenario,
    );
    assert_eq!(
        fingerprint(&enum_run),
        fingerprint(&dyn_run),
        "dispatch paths diverged for {} under {}",
        enum_run.scenario.scenario,
        system.name()
    );
}

/// Short §6.3 leaf-spine cell.
fn leaf_spine() -> Scenario {
    Scenario::leaf_spine(4, 2, 8)
        .load(0.6)
        .duration(Time::ms(4))
        .warmup(Time::ms(1))
        .drain(Time::ms(5))
}

/// Short fat-tree(4) cell.
fn fat_tree() -> Scenario {
    Scenario::fat_tree(4, 2)
        .load(0.5)
        .duration(Time::ms(4))
        .warmup(Time::ms(1))
        .drain(Time::ms(5))
}

/// Short §6.4 Abilene WAN cell: 30 ms of arrivals after the 120 ms
/// probe warm-up the constructor defaults to.
fn abilene() -> Scenario {
    Scenario::abilene()
        .load(0.25)
        .duration(Time::ms(150))
        .drain(Time::ms(80))
}

/// Every datacenter-capable system on the leaf-spine (Hula's only
/// supported fabric shape).
#[test]
fn dispatch_parity_leaf_spine_all_systems() {
    let scenario = leaf_spine();
    let hula = Hula::default();
    let spain = Spain::new(4);
    let systems: [&dyn RoutingSystem; 5] = [&Contra::dc(), &Ecmp, &hula, &Sp, &spain];
    for system in systems {
        assert_dispatch_parity(&scenario, system);
    }
}

/// Fat-tree: all built-ins except Hula (which rejects 3-tier fabrics).
#[test]
fn dispatch_parity_fat_tree_all_systems() {
    let scenario = fat_tree();
    let spain = Spain::new(4);
    let systems: [&dyn RoutingSystem; 4] = [&Contra::dc(), &Ecmp, &Sp, &spain];
    for system in systems {
        assert_dispatch_parity(&scenario, system);
    }
}

/// Abilene WAN: all built-ins except Hula.
#[test]
fn dispatch_parity_abilene_all_systems() {
    let scenario = abilene();
    let spain = Spain::new(4);
    let systems: [&dyn RoutingSystem; 4] = [&Contra::mu(), &Ecmp, &Sp, &spain];
    for system in systems {
        assert_dispatch_parity(&scenario, system);
    }
}

/// Batched `SendBurst` vs the per-send oracle: identical fingerprints —
/// including `events_processed`, since a burst occupies exactly the
/// schedule slots the individual `Send` effects would have.
#[test]
fn burst_vs_single_send_parity() {
    for (scenario, system) in [
        (leaf_spine(), &Contra::dc() as &dyn RoutingSystem),
        (abilene(), &Ecmp as &dyn RoutingSystem),
    ] {
        let burst = scenario.clone().burst_sends(true).run(system);
        let single = scenario.clone().burst_sends(false).run(system);
        assert!(burst.stats.delivered_packets > 0);
        assert_eq!(
            fingerprint(&burst),
            fingerprint(&single),
            "send batching diverged for {} under {}",
            burst.scenario.scenario,
            system.name()
        );
    }
}
