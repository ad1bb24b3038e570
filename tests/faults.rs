//! Integration and property tests for `netfence-faults` (vendored
//! proptest shim).
//!
//! * The empty `FaultPlan` is a perfect no-op: for every `DefenseKind` and
//!   both the Static and Shrew attacker strategies, a run with an
//!   explicitly empty plan reproduces the fault-free `Record`
//!   byte-for-byte — and so does a plan whose faults all land *after* the
//!   end of the run (the engine never applies them; its controller outage
//!   installs the ideal transport, which is the legacy bus).
//! * No fault plan panics any defense: a randomized grid of
//!   (defense × fault kind × severity × seed) cells — random targets,
//!   multi-window plans — runs to completion on the dumbbell.
//! * Recovery: NetFence goodput re-converges to ≥ 90% of its pre-fault
//!   baseline after a single access-router reboot on the dumbbell, and the
//!   record's recovery metric reports the re-convergence.

use std::collections::BTreeSet;
use std::sync::Mutex;

/// Memoization ledger for a proptest: the shim replays 256 deterministic
/// cases over a much smaller input grid, so each distinct cell runs once.
type SeenCells<K> = Mutex<BTreeSet<K>>;

use netfence::experiments::prelude::*;
use netfence::faults::FaultTarget;
use netfence::sim::time::{MILLI, SEC};
use proptest::proptest;

/// Host 0 of source AS 1 on the classic dumbbell (`src_host_addr(1, 0)`),
/// a legitimate user whenever `legit_per_as >= 1`.
const FIRST_USER: u32 = 0x0A00_0101;

fn tiny(seed: u64) -> Scale {
    Scale { src_ases: 2, hosts_per_as: 2, sim_time: 3 * SEC, seed }
}

fn base_spec(kind: DefenseKind, seed: u64) -> ScenarioSpec {
    ScenarioSpec::dumbbell(tiny(seed))
        .named("faults-property")
        .defense(kind)
        .fair_share(100_000)
        .users(TrafficSpec::repeated_file(20_000, SEC))
        .attackers(AttackStrategy::static_cbr(500_000), AttackTarget::Colluders { ases: 1 })
        .sampled(SEC)
}

fn kind_of(index: u8) -> DefenseKind {
    DefenseKind::EVERY[index as usize % DefenseKind::EVERY.len()]
}

fn strategy_of(index: u8) -> AttackStrategy {
    if index.is_multiple_of(2) {
        AttackStrategy::static_cbr(500_000)
    } else {
        AttackStrategy::shrew_tuned(500_000)
    }
}

proptest! {
    /// Empty plan ≡ no plan, byte-for-byte, for every defense × strategy.
    /// A plan whose only window lands beyond the end of the run is equally
    /// invisible: the engine stops before applying it.
    #[test]
    fn empty_fault_plan_reproduces_the_legacy_record(
        kind_idx in 0u8..5,
        strat_idx in 0u8..2,
        seed in 0u64..3,
    ) {
        // Memoized: the shim replays 256 cases over 30 distinct inputs.
        static DONE: SeenCells<(u8, u8, u64)> = Mutex::new(BTreeSet::new());
        if !DONE.lock().unwrap().insert((kind_idx, strat_idx, seed)) {
            return;
        }
        let kind = kind_of(kind_idx);
        let spec = base_spec(kind, seed).adversary(strategy_of(strat_idx));
        let legacy = Runner::new(spec.clone()).run();

        let empty = Runner::new(spec.clone().fault_plan(FaultPlan::empty())).run();
        assert_eq!(legacy, empty, "{} empty-plan record diverged", kind.label());

        let mut late = FaultPlan::empty();
        late.router_reboot(FaultTarget::Random, 100 * SEC)
            .link_failure(FaultTarget::Random, 100 * SEC, 101 * SEC)
            .controller_outage(100 * SEC, 101 * SEC);
        let mut late = Runner::new(spec.fault_plan(late)).run();
        // Declared-window metadata is the one permitted difference: the
        // plan's windows are recorded even though the engine stops before
        // applying them. Everything behavioral must match byte-for-byte.
        assert_eq!(late.faults.len(), 3, "{} late plan lost its declared windows", kind.label());
        late.faults.clear();
        assert_eq!(legacy, late, "{} post-run faults leaked into the record", kind.label());
    }
}

/// A deterministic pseudo-random multi-window plan for the no-panic grid.
fn grid_plan(fault_idx: u8, severity: u8, seed: u64) -> FaultPlan {
    let mut p = FaultPlan::empty();
    let windows = 1 + (severity as usize);
    for w in 0..windows {
        let at = SEC + (w as u64) * SEC + (seed % 3) * 500 * MILLI;
        match (fault_idx as usize + w) % 6 {
            0 => {
                p.link_failure(FaultTarget::Random, at, at + SEC);
            }
            1 => {
                p.router_reboot(FaultTarget::Random, at);
            }
            2 => {
                p.key_desync(FaultTarget::Random, at);
            }
            3 => {
                let skew = if severity == 0 { 50 * MILLI as i64 } else { -(2 * SEC as i64) };
                p.clock_skew(FaultTarget::Random, skew, at, at + 2 * SEC);
            }
            4 => {
                p.memory_pressure(FaultTarget::Random, 1 + seed as usize * 100, at);
            }
            _ => {
                p.controller_outage(at, at + SEC);
            }
        }
    }
    p
}

proptest! {
    /// No randomized fault plan panics any defense; every cell runs to
    /// completion and yields a well-formed record.
    #[test]
    fn no_fault_plan_panics_any_defense(
        kind_idx in 0u8..5,
        fault_idx in 0u8..6,
        severity in 0u8..2,
        seed in 0u64..2,
    ) {
        static DONE: SeenCells<(u8, u8, u8, u64)> = Mutex::new(BTreeSet::new());
        if !DONE.lock().unwrap().insert((kind_idx, fault_idx, severity, seed)) {
            return;
        }
        let scale = Scale { src_ases: 2, hosts_per_as: 2, sim_time: 5 * SEC, seed: seed + 1 };
        let spec = ScenarioSpec::dumbbell(scale)
            .named("faults-grid")
            .defense(kind_of(kind_idx))
            .key_ttl(2 * SEC)
            .fair_share(100_000)
            .users(TrafficSpec::cbr(50_000))
            .attackers(AttackStrategy::static_cbr(500_000), AttackTarget::Victim)
            .fault_plan(grid_plan(fault_idx, severity, seed))
            .sampled(SEC);
        let r = Runner::new(spec).run();
        assert_eq!(r.faults.len(), 1 + severity as usize);
        assert!(r.engine.events > 0);
    }
}

/// Per-window user goodput deltas of a record's samples.
fn window_deltas(r: &Record) -> Vec<u64> {
    r.samples
        .iter()
        .scan(0u64, |prev, s| {
            let d = s.user_bytes - *prev;
            *prev = s.user_bytes;
            Some(d)
        })
        .collect()
}

#[test]
fn netfence_reconverges_after_an_access_router_reboot() {
    // A defended dumbbell in steady state: demand-bounded users, a CBR
    // flood, NetFence with TTL'd keys riding the asynchronous control
    // plane. At 12 s the users' own access router reboots — AIMD
    // limiters, AS keys and held capability state all vanish. Recovery
    // must be closed-loop: peers re-announce keys on the TTL/2 cadence,
    // stale feedback re-bootstraps through the request channel, and user
    // goodput must return to >= 90% of its pre-fault level well before
    // the end of the run.
    let reboot_at = 12 * SEC;
    let mut plan = FaultPlan::empty();
    plan.router_reboot(FaultTarget::AccessRouterOf(FIRST_USER), reboot_at);
    let spec =
        ScenarioSpec::dumbbell(Scale { src_ases: 3, hosts_per_as: 3, sim_time: 30 * SEC, seed: 7 })
            .named("faults-reboot-reconvergence")
            .defense(DefenseKind::NetFence)
            .key_ttl(3 * SEC)
            .control(netfence::ctrl::config::CtrlConfig::ideal())
            .fair_share(100_000)
            .legit_per_as(1)
            .users(TrafficSpec::cbr(50_000))
            .user_start(StartSchedule::staggered(10, 100 * MILLI))
            .attackers(AttackStrategy::static_cbr(1_000_000), AttackTarget::Victim)
            .fault_plan(plan)
            .sampled(SEC);
    let r = Runner::new(spec).run();

    assert_eq!(r.faults.len(), 1);
    assert_eq!(r.faults[0].kind, "reboot");
    assert_eq!(r.faults[0].at, reboot_at);

    // The recovery metric must report a re-convergence within the run.
    let recovery = r
        .fault_recovery_secs(0)
        .expect("NetFence goodput must re-converge after the access-router reboot");
    assert!(recovery < 15.0, "recovery took {recovery} s, expected well under 15 s");

    // And independently of the metric's sustained-window rule: the last
    // 5 windows of the run must average >= 90% of the pre-fault level.
    let deltas = window_deltas(&r);
    let pre: Vec<u64> = deltas.iter().copied().take((reboot_at / SEC) as usize).collect();
    let baseline = pre.iter().rev().take(5).sum::<u64>() as f64 / 5.0;
    let tail = deltas.iter().rev().take(5).sum::<u64>() as f64 / 5.0;
    assert!(baseline > 0.0, "users were delivering before the reboot");
    assert!(
        tail >= 0.9 * baseline,
        "post-reboot goodput {tail} B/s never re-converged to 90% of {baseline} B/s"
    );

    assert!(r.availability().is_some());
    assert!(r.worst_fault_recovery_secs().is_some());
}

#[test]
fn fault_marks_flow_into_scenario_telemetry() {
    // The `fault` timeline series and the flight recorder's Fault marks
    // survive the whole spec → runner → dump pipeline.
    let mut plan = FaultPlan::empty();
    plan.link_failure(FaultTarget::Random, 2 * SEC, 3 * SEC);
    let spec = ScenarioSpec::dumbbell(tiny(7))
        .named("faults-telemetry")
        .defense(DefenseKind::Fq)
        .fault_plan(plan)
        .sampled(SEC)
        .traced(TelemetryConfig::full(0));
    let (r, dump) = Runner::new(spec).run_with_telemetry();
    assert_eq!(r.faults.len(), 1);
    let fault_rows: Vec<&str> =
        dump.timeline_jsonl.lines().filter(|l| l.contains("\"series\":\"fault\"")).collect();
    assert!(
        fault_rows.iter().any(|l| l.contains("link-down")),
        "no link-down fault mark in timeline: {fault_rows:?}"
    );
    assert!(
        fault_rows.iter().any(|l| l.contains("link-up")),
        "no link-up fault mark in timeline: {fault_rows:?}"
    );
    assert!(
        dump.trace_jsonl.lines().any(|l| l.contains("\"fault\"")),
        "no Fault hop marks in flight recorder"
    );
}

#[test]
fn key_desync_surfaces_as_invalid_feedback_then_heals() {
    // Rotating the access router's secret out from under held feedback
    // must surface as typed invalid-feedback demotions (stale stamps fail
    // MAC validation and fall back to the request channel), not as a
    // silent goodput dip — and the fresh stamps the request channel hands
    // out must heal the users afterwards. (Demoted packets travel at
    // request level 0, which the §4.2 limiter always passes, so the
    // faithful observable is the access router's typed demotion counter —
    // `DropCause::InvalidMac` fires only when a demoted packet also
    // exhausts request tokens.)
    let mut plan = FaultPlan::empty();
    plan.key_desync(FaultTarget::AccessRouterOf(FIRST_USER), 6 * SEC);
    let spec =
        ScenarioSpec::dumbbell(Scale { src_ases: 2, hosts_per_as: 2, sim_time: 16 * SEC, seed: 7 })
            .named("faults-key-desync")
            .defense(DefenseKind::NetFence)
            .fair_share(100_000)
            .users(TrafficSpec::cbr(50_000))
            .attackers(AttackStrategy::static_cbr(500_000), AttackTarget::Victim)
            .fault_plan(plan)
            .sampled(SEC);
    let baseline = Runner::new(spec.clone().fault_plan(FaultPlan::empty())).run();
    let desynced = Runner::new(spec).run();
    assert!(
        desynced.report.invalid_feedback > baseline.report.invalid_feedback,
        "key desync produced no additional typed invalid-feedback demotions \
         (baseline {}, desynced {})",
        baseline.report.invalid_feedback,
        desynced.report.invalid_feedback
    );
    // The rotation is a hiccup, not an outage: users re-converge.
    let recovery = desynced.fault_recovery_secs(0);
    assert!(recovery.is_some(), "user goodput never re-converged after the key rotation");
}
