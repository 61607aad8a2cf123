//! End-to-end reconvergence across a link flap, with the convergence
//! telemetry cross-checked against the raw event record.
//!
//! Contra runs the flap on Abilene (the §6.4 WAN). Hula's installer
//! statically rejects anything that is not a two-tier leaf-spine fabric
//! (`infer_roles` refuses same-tier adjacency, and Abilene is a WAN
//! mesh), so Hula gets the *same flap shape* on the §6.3 fabric instead
//! — the point is the telemetry contract, not the topology.
//!
//! Every run is repeated under both schedulers and must agree byte for
//! byte, fault epochs included.

use contra_experiments::{
    Contra, FaultPlan, Hula, Jobs, RoutingSystem, Scenario, SchedulerKind, SweepSpec, Traffic,
};
use contra_sim::{FlowSpec, SimStats, Time};

const SCHEDULERS: [SchedulerKind; 2] = [SchedulerKind::Wheel, SchedulerKind::Heap];

fn fingerprint(s: &SimStats) -> String {
    format!(
        "delivered={} drops={:?} wire={} events={} epochs={:?}",
        s.delivered_packets,
        s.drops,
        s.wire_bytes.values().sum::<u64>(),
        s.events_processed,
        s.fault_epochs,
    )
}

/// Contra on Abilene: a fixed UDP stream Denver→KansasCity, the direct
/// Denver–KansasCity cable flapped under it. Traffic is pinned with an
/// explicit flow (not the generated kind) so replays with a different
/// stop instant see the identical packet schedule.
fn abilene_flap(down: Time, up: Time, stop: Time) -> Scenario {
    let s = Scenario::abilene()
        .traffic(Traffic::None)
        .duration(Time::ZERO)
        .drain(stop)
        .fail_link("Denver", "KansasCity", down)
        .recover_link("Denver", "KansasCity", up);
    let topo = s.topology();
    let src = topo.find("Denver_h0").unwrap();
    let dst = topo.find("KansasCity_h0").unwrap();
    s.flow(FlowSpec::Udp {
        src,
        dst,
        rate_bps: 1e9,
        start: Time::ms(10), // probes have warm-started routing by then
        stop: Time::ms(30),
    })
}

#[test]
fn contra_reconverges_on_abilene_flap() {
    let (down, up) = (Time::ms(20), Time::ms(28));
    let contra = Contra::dc();
    let mut prints = Vec::new();
    let mut last_disruption = None;
    for scheduler in SCHEDULERS {
        let r = abilene_flap(down, up, Time::ms(50))
            .scheduler(scheduler)
            .run(&contra);
        let epochs = &r.stats.fault_epochs;
        assert_eq!(epochs.len(), 2, "one down + one up epoch: {epochs:#?}");
        let fail = &epochs[0];
        assert!(fail.is_down && fail.label.contains("Denver"));
        // The stream rides the failed cable, so the flap must cost
        // packets, and routing must stop losing them within the flap
        // window (+1 ms of in-flight slack after the recovery).
        assert!(fail.disruption_drops > 0, "the flap must cost packets");
        let t_star = fail.last_disruption.expect("drops imply an instant");
        assert!(
            t_star >= down && t_star <= up + Time::ms(1),
            "disruption must cease within the flap window, last at {t_star}"
        );
        assert_eq!(fail.convergence(), t_star.saturating_sub(down));
        assert!(
            r.figures.convergence_ms.unwrap() > 0.0,
            "derived figure carries the epoch"
        );
        assert!(
            r.stats.delivered_packets > 0,
            "the stream must resume after recovery"
        );
        last_disruption = Some(t_star);
        prints.push(fingerprint(&r.stats));
    }
    assert!(
        prints.windows(2).all(|w| w[0] == w[1]),
        "schedulers disagree: {prints:#?}"
    );

    // The telemetry claims the last disruption drop happened at exactly
    // `t*`. Replay the identical scenario stopped at `t*` (inclusive
    // stop: the drop runs) and at `t* − 1 ns`: the drop count at the
    // failure epoch must match the full run at the former and fall
    // short at the latter — proving `t*` is the instant of a real drop,
    // not an artifact of the aggregation.
    let t_star = last_disruption.unwrap();
    let full = abilene_flap(down, up, Time::ms(50)).run(&contra);
    let at_star = abilene_flap(down, up, t_star).run(&contra);
    let before_star = abilene_flap(down, up, t_star.saturating_sub(Time::ns(1))).run(&contra);
    let drops = |r: &contra_experiments::RunResult| r.stats.fault_epochs[0].disruption_drops;
    assert_eq!(drops(&at_star), drops(&full), "stop at t* sees every drop");
    assert!(
        drops(&before_star) < drops(&full),
        "stop 1 ns earlier must miss the last drop"
    );
}

/// Hula on the leaf-spine fabric, same flap shape: uplink leaf0–spine0
/// flaps under constant UDP. Hula's probes re-establish paths and the
/// disruption stays inside the flap window.
#[test]
fn hula_reconverges_on_leaf_spine_flap() {
    let (down, up) = (Time::ms(5), Time::ms(8));
    let hula = Hula::default();
    let mut prints = Vec::new();
    for scheduler in SCHEDULERS {
        let r = Scenario::leaf_spine(4, 2, 2)
            .udp(4e9)
            .duration(Time::ms(12))
            .warmup(Time::ZERO)
            .drain(Time::ms(2))
            .fail_link("leaf0", "spine0", down)
            .recover_link("leaf0", "spine0", up)
            .scheduler(scheduler)
            .run(&hula);
        let epochs = &r.stats.fault_epochs;
        assert_eq!(epochs.len(), 2, "one down + one up epoch: {epochs:#?}");
        let fail = &epochs[0];
        assert!(fail.is_down);
        if let Some(t) = fail.last_disruption {
            assert!(
                t >= down && t <= up + Time::ms(1),
                "disruption must cease within the flap window, last at {t}"
            );
        }
        assert!(r.stats.delivered_packets > 0);
        prints.push(fingerprint(&r.stats));
    }
    assert!(
        prints.windows(2).all(|w| w[0] == w[1]),
        "schedulers disagree: {prints:#?}"
    );
}

/// The acceptance bar for determinism: the Abilene flap is byte-identical
/// across plain reruns and across `Jobs::Serial` vs `Jobs::N(4)` sweeps.
#[test]
fn abilene_flap_is_deterministic_and_sweepable() {
    let contra = Contra::dc();
    let a = abilene_flap(Time::ms(20), Time::ms(28), Time::ms(50)).run(&contra);
    let b = abilene_flap(Time::ms(20), Time::ms(28), Time::ms(50)).run(&contra);
    assert_eq!(fingerprint(&a.stats), fingerprint(&b.stats), "rerun");

    let systems: [&dyn RoutingSystem; 1] = [&contra];
    let sweep = |jobs| {
        SweepSpec::new(abilene_flap(Time::ms(20), Time::ms(28), Time::ms(50)))
            .systems(&systems)
            .seeds(&[1, 2])
            .jobs(jobs)
            .run()
            .iter()
            .map(|r| fingerprint(&r.stats))
            .collect::<Vec<_>>()
    };
    let serial = sweep(Jobs::Serial);
    let parallel = sweep(Jobs::N(4));
    assert_eq!(serial, parallel, "worker count must not leak into results");
    assert_eq!(serial[0], fingerprint(&a.stats), "sweep cell == bare run");
}

/// A 100-event seeded chaos plan runs to completion with the invariant
/// auditor forced on, and its expansion is replay-stable.
#[test]
fn chaos_plan_passes_audit() {
    let plan = FaultPlan::new()
        .random(1234, 4_000.0, Time::ms(1))
        .window(Time::ms(1), Time::ms(16));
    let base = || {
        Scenario::leaf_spine(4, 2, 2)
            .udp(4e9)
            .duration(Time::ms(16))
            .warmup(Time::ZERO)
            .drain(Time::ms(2))
            .fault_plan(plan.clone())
            .audit(true)
    };
    let cmds = base().resolved_faults();
    assert!(
        cmds.len() >= 100,
        "plan must realize at least 100 events, got {}",
        cmds.len()
    );
    assert_eq!(cmds, base().resolved_faults(), "expansion is replay-stable");

    let contra = Contra::dc();
    let a = base().run(&contra);
    let b = base().run(&contra);
    // The run survived the auditor (conservation, leak freedom, queue
    // bounds at every fault epoch) — and is reproducible.
    assert_eq!(fingerprint(&a.stats), fingerprint(&b.stats));
    assert!(!a.stats.fault_epochs.is_empty());
}
