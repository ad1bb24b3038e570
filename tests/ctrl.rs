//! Control-plane regression tests for `netfence-ctrl`.
//!
//! * Property test (vendored proptest shim): installing the asynchronous
//!   control-plane transport with the ideal configuration (zero latency,
//!   no loss, no outages) reproduces the legacy instant-reliable bus
//!   `Record` byte-for-byte for every `DefenseKind`.
//! * Property test: with a TTL on StopIt filters the flood leaks through
//!   each expiry until the leak itself triggers a refresh — rate limiting
//!   always resumes, and the leak windows are visible as extra attacker
//!   goodput over permanent filters.
//! * Sweep regression: NetFence's reaction time is monotonically
//!   non-decreasing in control-plane latency on the dumbbell (late key
//!   announcements delay the start of congestion policing).
//! * StopIt's reaction on the `control_plane_outage` example's scenario:
//!   ideal ≤ 100 ms latency < an outage at the attack instant, which the
//!   fault-recovery metric measures; an outage to the end of time holds
//!   every filter request forever without overflowing `Nanos`.
//! * A NetFence key TTL of `Nanos::MAX` keeps every key for the whole run,
//!   stamping exactly what permanent keys stamp.

use std::sync::OnceLock;

use netfence::ctrl::prelude::*;
use netfence::experiments::fig9::{fig9_spec, UserTraffic};
use netfence::experiments::prelude::*;
use netfence::sim::prelude::*;
use netfence::sim::time::SEC;
use netfence::systems::stopit::StopItDefense;
use proptest::proptest;

fn tiny(seed: u64) -> Scale {
    Scale { src_ases: 2, hosts_per_as: 2, sim_time: 3 * SEC, seed }
}

fn spec(kind: DefenseKind, seed: u64) -> ScenarioSpec {
    ScenarioSpec::dumbbell(tiny(seed))
        .named("ctrl-property")
        .defense(kind)
        .fair_share(100_000)
        .users(TrafficSpec::repeated_file(20_000, SEC))
        .attackers(AttackStrategy::static_cbr(500_000), AttackTarget::Colluders { ases: 1 })
}

fn kind_of(index: u8) -> DefenseKind {
    DefenseKind::EVERY[index as usize % DefenseKind::EVERY.len()]
}

// --- StopIt TTL harness (systems-level: `filter_ttl` is a defense knob,
// not a scenario field) ---------------------------------------------------

const ATTACKER: u32 = 2;
const VICTIM: u32 = 100;

fn stopit_net() -> Network {
    let mut b = Network::builder();
    let r1 = b.router(1, true);
    let r2 = b.router(2, false);
    let r3 = b.router(3, true);
    b.duplex(r1, r2, 1_000_000, 10 * MILLI, QueueKind::Red);
    b.duplex(r2, r3, 10_000_000, 10 * MILLI, QueueKind::Red);
    b.host(ATTACKER, 1, r1, 100_000_000, MILLI);
    b.host(VICTIM, 3, r3, 100_000_000, MILLI);
    b.build()
}

/// Run a 12 s flood at the auto-filtering victim with the given filter TTL
/// and return the defense report plus the attacker's delivered goodput.
fn stopit_flood(ttl: Nanos) -> (netfence::sim::deploy::DefenseReport, f64) {
    const END: Nanos = 12 * SEC;
    let mut d = StopItDefense::new();
    d.auto_filter(VICTIM, &[]);
    d.filter_ttl(ttl);
    let net = stopit_net();
    let deployment = d.deploy(&net, &DeploymentSpec::full());
    let mut sim =
        Simulator::new(net, deployment, SimConfig { end_time: END, ..Default::default() });
    let attacker = sim.add_flow(0, |id| Box::new(UdpFlow::cbr(id, ATTACKER, VICTIM, 1_000_000)));
    sim.run();
    (sim.report(), sim.progress(attacker).goodput_bps(0, END))
}

/// Attacker goodput under a permanent (ttl = 0) filter, computed once.
fn permanent_filter_bps() -> f64 {
    static BPS: OnceLock<f64> = OnceLock::new();
    *BPS.get_or_init(|| {
        let (report, bps) = stopit_flood(0);
        assert_eq!(report.rules_expired, 0, "permanent filters must never lapse");
        bps
    })
}

proptest! {
    /// The ideal control-plane configuration is the legacy bus: zero
    /// latency, no loss, no outage must reproduce the channel-free
    /// `Record` byte-for-byte for every defense kind.
    #[test]
    fn ideal_channel_reproduces_legacy_records(seed in 1u64..64, kind_idx in 0u8..5) {
        let kind = kind_of(kind_idx);
        let plain = Runner::new(spec(kind, seed)).run();
        let ideal = Runner::new(spec(kind, seed).control(CtrlConfig::ideal())).run();
        proptest::prop_assert_eq!(plain, ideal);
    }

    /// TTL'd StopIt filters lapse and rate limiting resumes: every expiry
    /// leaks traffic to the victim, the leak triggers a refresh, and the
    /// refreshed filter keeps the flood mostly blocked.
    #[test]
    fn ttl_filters_expire_then_rate_limiting_resumes(ttl_secs in 1u64..4) {
        let (report, ttl_bps) = stopit_flood(ttl_secs * SEC);
        // The filter lapsed at least twice in 12 s: each lapse shows up
        // either as a tick-purge expiry or as a leak-triggered refresh of
        // the expired-but-unpurged entry, depending on which wins the race.
        proptest::prop_assert!(
            report.rules_expired + report.rules_refreshed >= 2,
            "filters never lapsed: {report:?}"
        );
        proptest::prop_assert!(
            report.rules_installed + report.rules_refreshed >= 3,
            "leaks never refiled the filter: {report:?}"
        );
        // Leak windows delivered more than a permanent filter would…
        proptest::prop_assert!(ttl_bps > permanent_filter_bps(), "no leak windows: {ttl_bps:.0} bps");
        // …but the refreshed filter still blocks the bulk of the flood.
        proptest::prop_assert!(ttl_bps < 500_000.0, "flood effectively unblocked: {ttl_bps:.0} bps");
    }
}

/// One NetFence dumbbell run with users sampled every second, attackers
/// starting at 8 s, and the given one-way control-plane latency.
fn netfence_reaction(latency: Nanos) -> Option<f64> {
    let scale = Scale { src_ases: 2, hosts_per_as: 3, sim_time: 48 * SEC, seed: 5 };
    let spec = ScenarioSpec::dumbbell(scale)
        .named("ctrl-reaction-monotone")
        .defense(DefenseKind::NetFence)
        .fair_share(100_000)
        .legit_per_as(1)
        .users(TrafficSpec::cbr(50_000))
        .attackers(AttackStrategy::static_cbr(1_000_000), AttackTarget::Colluders { ases: 1 })
        .attacker_start(StartSchedule::delayed(8 * SEC))
        .control(CtrlConfig::ideal().latency(latency))
        .sampled(SEC);
    Runner::new(spec).run().reaction_secs()
}

/// Reaction time is monotonically non-decreasing in control-plane latency
/// for NetFence: key announcements arriving after the attack begins delay
/// congestion policing, so recovery can only move later.
#[test]
fn netfence_reaction_monotone_in_control_latency() {
    let mut last = 0.0_f64;
    let mut series = Vec::new();
    for latency in [0, 16 * SEC, 32 * SEC] {
        let reaction = netfence_reaction(latency).unwrap_or(f64::INFINITY);
        series.push((latency / SEC, reaction));
        assert!(reaction >= last, "reaction shrank as control latency grew: {series:?}");
        last = reaction;
    }
    // Latency past the attack start must actually cost reaction time: with
    // keys arriving 8 s after the attack, recovery is strictly later than
    // with an ideal control plane.
    assert!(series[2].1 > series[0].1, "control latency had no effect: {series:?}");
}

/// The `control_plane_outage` example's cell: StopIt on a dumbbell whose
/// fair-queuing tier alone cannot restore the users, attack at 8 s.
fn stopit_spec(ctrl: CtrlConfig, outage_until: Option<Nanos>) -> ScenarioSpec {
    let mut faults = FaultPlan::empty();
    if let Some(end) = outage_until {
        faults.controller_outage(8 * SEC, end);
    }
    let scale = Scale { src_ases: 2, hosts_per_as: 3, sim_time: 48 * SEC, seed: 5 };
    ScenarioSpec::dumbbell(scale)
        .named("control-plane-outage")
        .defense(DefenseKind::StopIt)
        .fair_share(30_000)
        .legit_per_as(1)
        .users(TrafficSpec::cbr(50_000))
        .attackers(AttackStrategy::static_cbr(1_000_000), AttackTarget::Victim)
        .attacker_start(StartSchedule::delayed(8 * SEC))
        .control(ctrl)
        .fault_plan(faults)
        .sampled(SEC)
}

#[test]
fn a_controller_outage_delays_stopit_and_is_measured_as_a_fault() {
    let run = |spec: ScenarioSpec| Runner::new(spec).run();
    let ideal = run(stopit_spec(CtrlConfig::ideal(), None));
    let slow = run(stopit_spec(CtrlConfig::ideal().latency(100 * MILLI), None));
    let dark = run(stopit_spec(CtrlConfig::ideal(), Some(18 * SEC)));
    let reaction = |r: &Record| r.reaction_secs().expect("StopIt restores the users");
    assert!(reaction(&ideal) <= reaction(&slow), "latency sped StopIt up");
    assert!(reaction(&slow) < reaction(&dark), "an outage at the attack instant cost nothing");
    assert!(ideal.faults.is_empty());
    assert_eq!(dark.faults.len(), 1);
    assert_eq!(
        (dark.faults[0].kind.as_str(), dark.faults[0].clear_at),
        ("controller-outage", 18 * SEC)
    );
    assert!(dark.fault_recovery_secs(0).is_some(), "users never recovered after the outage");
    assert_eq!(dark.worst_fault_recovery_secs(), dark.fault_recovery_secs(0));

    // Dark until the end of time: the filter requests are held (not lost)
    // at `Nanos::MAX`, so no filter is ever installed — and the run ends.
    let forever = run(stopit_spec(CtrlConfig::ideal().latency(50 * MILLI), Some(Nanos::MAX)));
    assert!(ideal.report.filters > 0);
    assert_eq!((forever.report.filters, forever.report.control_lost), (0, 0));
    assert!(forever.report.control_delivered < ideal.report.control_delivered);
}

/// A small NetFence colluding flood whose key announcements land after
/// 50 ms and whose installed keys lapse after `ttl` (0 = never).
fn netfence_key_ttl_cell(ttl: Nanos) -> Record {
    let scale = Scale { src_ases: 2, hosts_per_as: 4, sim_time: 20 * SEC, seed: 7 };
    let spec = fig9_spec(&scale, DefenseKind::NetFence, UserTraffic::LongRunning, 100_000)
        .control(CtrlConfig::ideal().latency(50 * MILLI))
        .key_ttl(ttl);
    Runner::new(spec).run()
}

/// A key TTL that reaches past the end of time neither overflows `Nanos`
/// (key expiry, the announcer's cadence) nor wraps into an instant
/// expiry: it behaves exactly like permanent keys.
#[test]
fn a_key_ttl_past_the_end_of_time_never_expires() {
    let forever = netfence_key_ttl_cell(Nanos::MAX);
    let permanent = netfence_key_ttl_cell(0);
    assert_eq!(forever.report.rules_expired, 0);
    assert!(permanent.report.stamped_decr > 0, "the cell must stamp L↓ to compare anything");
    assert_eq!(forever.report.stamped_decr, permanent.report.stamped_decr);
}
