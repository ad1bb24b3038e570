//! Shape claims of the packet-level figures and sweeps, asserted on the
//! `Record` each `*_spec` constructor produces.
//!
//! One section per experiment module (`fig8` … `chaos`); scales, seeds and
//! thresholds are the ones the claims were first checked at. The printed
//! tables themselves are pinned by `tests/cli.rs::fast_goldens_match`.

use std::collections::{BTreeMap, BTreeSet};

use netfence::core::multi::{prefix_of, MultiBottleneck};
use netfence::core::types::HostId;
use netfence::experiments::chaos::{self, chaos_spec, ChaosFault, ChaosPoint, ChaosTopology};
use netfence::experiments::deployment::deployment_spec;
use netfence::experiments::fig10::{capacity_cases, fig10_spec, CapacityCase};
use netfence::experiments::fig11::fig11_spec;
use netfence::experiments::fig8::fig8_spec;
use netfence::experiments::fig9::{fig9_spec, UserTraffic};
use netfence::experiments::prelude::*;
use netfence::experiments::reaction::{self, reaction_spec, ReactionKnobs};
use netfence::experiments::tournament::{self, tournament_spec, TopologyKind, TournamentPoint};
use netfence::sim::prelude::{secs, HostAddr, TelemetryConfig, SEC};

fn run(spec: ScenarioSpec) -> Record {
    Runner::new(spec).run()
}

// ---- Figure 8 ----

#[test]
fn netfence_completes_transfers_under_request_flood() {
    let r = run(fig8_spec(&Scale::tiny(), DefenseKind::NetFence, 100_000));
    assert!(r.user_completion_ratio() > 0.8, "completion ratio {}", r.user_completion_ratio());
    let avg = r.avg_user_transfer_secs().expect("some transfer completed");
    assert!(avg < 10.0, "avg transfer {avg}");
}

#[test]
fn stopit_filters_make_transfers_fast() {
    let r = run(fig8_spec(&Scale::tiny(), DefenseKind::StopIt, 100_000));
    assert!(r.user_completion_ratio() > 0.9);
    let avg = r.avg_user_transfer_secs().expect("some transfer completed");
    assert!(avg < 3.0, "avg transfer {avg}");
}

// ---- Figure 9 ----

#[test]
fn netfence_throughput_ratio_is_near_one_for_long_running_tcp() {
    let scale = Scale { sim_time: 120 * SEC, ..Scale::tiny() };
    let r = run(fig9_spec(&scale, DefenseKind::NetFence, UserTraffic::LongRunning, 100_000));
    assert!(
        r.throughput_ratio() > 0.5,
        "NetFence should give users a comparable share, got ratio {}",
        r.throughput_ratio()
    );
    assert!(r.user_fairness() > 0.6, "fairness {}", r.user_fairness());
    assert!(r.bottleneck_utilization() > 0.5, "utilization {}", r.bottleneck_utilization());
}

#[test]
fn no_defense_ratio_is_poor() {
    let scale = Scale { sim_time: 60 * SEC, ..Scale::tiny() };
    let r = run(fig9_spec(&scale, DefenseKind::None, UserTraffic::LongRunning, 100_000));
    assert!(
        r.throughput_ratio() < 0.5,
        "without defense the attackers should dominate, got {}",
        r.throughput_ratio()
    );
}

// ---- Figure 10 ----

#[test]
fn symmetric_case_gives_group_a_a_nontrivial_share() {
    let scale = Scale { src_ases: 1, hosts_per_as: 6, sim_time: 100 * SEC, seed: 3 };
    let per_group = scale.hosts_per_as.max(4);
    let case = capacity_cases(2 * per_group, 80_000)[0];
    let r = run(fig10_spec(&scale, DefenseKind::NetFence, case));
    let (attacker, fair) = (r.group_avg_bps("A-attackers"), r.fair_share_bps);
    // Group-A senders are not starved in the symmetric case: the
    // attackers (full-demand UDP) obtain a meaningful fraction of their
    // fair share, and nobody exceeds it by much. The paper's Figure 10
    // also shows the Group-A TCP user below the Group-A attacker.
    assert!(attacker > 0.3 * fair, "attacker {attacker} vs fair {fair}");
    assert!(attacker < 2.0 * fair, "attacker {attacker} should stay near the fair share {fair}");
    assert!(r.group_avg_bps("A-users") >= 0.0);
}

// ---- Figures 13 and 14 (Appendix B) ----

/// The `--quick` Figure 10 cell of `case` run under `design`, with the
/// bottleneck links of the rate limiters each sender holds at its end (the
/// last timeline probe).
fn limiters_at_end(
    design: MultiBottleneck,
    case: CapacityCase,
) -> (Record, BTreeMap<HostAddr, BTreeSet<u32>>) {
    let scale = Scale { sim_time: 80 * SEC, ..Scale::tiny() };
    let mut spec = fig10_spec(&scale, DefenseKind::NetFence, case);
    spec.defense.netfence.multi_bottleneck = design;
    let timeline = TelemetryConfig { timeline: true, trace_sample_shift: None };
    let (record, dump) = Runner::new(spec.sampled(40 * SEC).traced(timeline)).run_with_telemetry();
    // Rows read `{"at":T,"series":"aimd_rate_bps","key":"src:S/link:L",…}`.
    let field = |row: &str, name: &str| -> u64 {
        let rest = &row[row.find(name).expect("field present") + name.len()..];
        rest[..rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len())].parse().unwrap()
    };
    let rows: Vec<&str> =
        dump.timeline_jsonl.lines().filter(|r| r.contains("\"aimd_rate_bps\"")).collect();
    let last = rows.iter().map(|r| field(r, "\"at\":")).max().expect("limiters were probed");
    let mut links: BTreeMap<HostAddr, BTreeSet<u32>> = BTreeMap::new();
    for row in rows.iter().filter(|r| field(r, "\"at\":") == last) {
        let src = u32::try_from(field(row, "src:")).unwrap();
        links.entry(src).or_default().insert(u32::try_from(field(row, "link:")).unwrap());
    }
    (record, links)
}

/// Under an Appendix B design every Group-A sender (crossing L1 and L2)
/// ends with a limiter for each link, and every Group-B or -C sender with
/// only its own link's. `invalid[i]` is the feedback case `i` demotes.
fn appendix_b_polices_every_link(design: MultiBottleneck, invalid: [u64; 3]) {
    let per_group = Scale::tiny().hosts_per_as.max(4);
    for (case, invalid) in capacity_cases(2 * per_group, 80_000).into_iter().zip(invalid) {
        let (record, limiters) = limiters_at_end(design, case);
        let lot = TopoSpec::ParkingLot {
            per_group,
            legit_per_group: 1,
            l1_bps: case.l1_bps,
            l2_bps: case.l2_bps,
        }
        .build();
        let [l1, l2] = [0, 1].map(|i| lot.bottlenecks[i].addr);
        let [a, b, c] = &lot.groups[..] else { panic!("three groups") };
        for (group, want) in [(a, vec![l1, l2]), (b, vec![l2]), (c, vec![l1])] {
            let want = BTreeSet::from_iter(want);
            for sender in group.senders() {
                let got = limiters.get(&sender).cloned().unwrap_or_default();
                assert_eq!(got, want, "{design:?} {}: sender {sender:#x}", case.label);
            }
        }
        // B.2 caches per destination /24: Group A's and Group C's stay apart.
        assert_ne!(prefix_of(HostId(a.victim)), prefix_of(HostId(c.victim)));
        assert_ne!(prefix_of(HostId(a.colluders[0])), prefix_of(HostId(c.colluders[0])));
        assert_eq!(record.report.invalid_feedback, invalid, "{design:?} {}", case.label);
    }
}

#[test]
fn multi_feedback_gives_group_a_a_limiter_per_link() {
    appendix_b_polices_every_link(MultiBottleneck::MultiFeedback, [0, 0, 0]);
}

/// One Group-C `L↑` at 160M-240M is presented 1 ms before it expires and
/// validated after: the host link's delay, not a B.2 fault (CHANGES.md).
#[test]
fn inference_gives_group_a_a_limiter_per_link() {
    appendix_b_polices_every_link(MultiBottleneck::Inference, [0, 0, 1]);
}

// ---- Figure 11 ----

fn fig11_user_bps(toff_secs: f64) -> f64 {
    let scale = Scale { src_ases: 3, hosts_per_as: 4, sim_time: 100 * SEC, seed: 11 };
    run(fig11_spec(&scale, 100_000, secs(0.5), secs(toff_secs))).avg_user_bps()
}

#[test]
fn onoff_attack_does_not_reduce_user_below_fair_share() {
    // With short off-periods the user keeps at least roughly its fair
    // share (the paper's guarantee).
    let busy = fig11_user_bps(1.5);
    assert!(busy > 0.5 * 100_000.0, "user got {busy} bps with fair share 100000");
}

#[test]
fn long_off_periods_let_users_reclaim_bandwidth() {
    let (short_off, long_off) = (fig11_user_bps(1.5), fig11_user_bps(20.0));
    assert!(
        long_off > short_off,
        "longer off-periods should increase user throughput: {long_off} vs {short_off}"
    );
}

// ---- Incremental deployment ----

fn deployment_report(src_ases: usize, coverage: f64) -> DefenseReport {
    let scale = Scale { src_ases, hosts_per_as: 2, sim_time: 5 * SEC, seed: 3 };
    run(deployment_spec(&scale, DefenseKind::NetFence, coverage)).report
}

#[test]
fn zero_coverage_deploys_nothing_and_full_deploys_everything() {
    assert_eq!(deployment_report(2, 0.0).deployed_ases, 0);
    let full = deployment_report(2, 1.0);
    assert_eq!(full.deployed_ases, full.total_ases);
    assert!(full.total_ases >= 4, "2 source ASes + transit + victim + colluder");
}

#[test]
fn partial_coverage_reports_partial_extent() {
    let half = deployment_report(4, 0.5);
    // 2 of 4 source ASes plus all non-source ASes.
    assert_eq!(half.total_ases - half.deployed_ases, 2);
    assert!(half.deployed_ases < half.total_ases);
}

#[test]
fn tiny_nonzero_coverage_still_deploys_the_infrastructure() {
    // 0.1 of 4 source ASes rounds to zero adopters, but destination and
    // transit ASes deploy whenever coverage is nonzero.
    let r = deployment_report(4, 0.1);
    assert_eq!(r.total_ases - r.deployed_ases, 4, "all 4 source ASes stay legacy");
    assert_eq!(r.deployed_ases, 2, "the transit and victim ASes deploy");
}

// ---- Reaction time ----

fn reaction_record(system: DefenseKind, knobs: ReactionKnobs) -> Record {
    let tiny = Scale { src_ases: 3, hosts_per_as: 3, sim_time: 30 * SEC, seed: 7 };
    run(reaction_spec(&tiny, system, &knobs))
}

#[test]
fn attack_start_and_samples_reach_the_record() {
    let r = reaction_record(DefenseKind::Fq, ReactionKnobs::ideal());
    assert_eq!(r.attack_start, Some(reaction::ATTACK_START));
    assert_eq!(r.samples.len(), 30, "one sample per second");
    // Users were already sending before the attack.
    assert!(r.samples[7].user_bytes > 0);
    // Attackers delivered nothing before their delayed start.
    assert_eq!(r.samples[7].attacker_bytes, 0);
    assert!(r.samples.last().unwrap().attacker_bytes > 0);
}

#[test]
fn fair_queuing_reacts_fast_regardless_of_control_latency() {
    // FQ exchanges no control messages: its reaction must not degrade
    // with control-plane latency.
    let ideal = reaction_record(DefenseKind::Fq, ReactionKnobs::ideal());
    let slow = reaction_record(DefenseKind::Fq, ReactionKnobs::latency(4 * SEC));
    let a = ideal.reaction_secs().expect("FQ recovers");
    let b = slow.reaction_secs().expect("FQ recovers under latency");
    assert_eq!(a, b, "control latency leaked into a control-free defense");
    assert_eq!(ideal.report.control_retransmits, 0);
    assert_eq!(ideal.report.control_lost, 0);
}

#[test]
fn an_outage_at_attack_time_slows_stopit_down() {
    // StopIt installs filters via control messages; an outage covering
    // the attack instant delays them by the reconnect schedule.
    let healthy = reaction_record(DefenseKind::StopIt, ReactionKnobs::ideal());
    let dark = reaction_record(
        DefenseKind::StopIt,
        ReactionKnobs { latency: 0, loss_per_mille: 0, outage: 10 * SEC },
    );
    let h = healthy.reaction_secs().expect("StopIt recovers on a healthy control plane");
    match dark.reaction_secs() {
        None => {} // never recovered within the run: strictly worse
        Some(d) => assert!(d >= h, "outage reaction {d} < healthy reaction {h}"),
    }
}

// ---- Tournament ----

fn tournament_tiny() -> Scale {
    Scale { src_ases: 2, hosts_per_as: 3, sim_time: 12 * SEC, seed: 7 }
}

/// *Every* strategy — plus the degenerate shrew with an empty duty cycle,
/// which used to divide by its zero period, and the three adaptive
/// strategies with a `Nanos::MAX` period, whose control timers used to
/// overflow — must run against *every* defense (including `None`) without
/// panicking, on both arenas.
#[test]
fn no_strategy_panics_on_any_defense() {
    let rate_bps = tournament::ATTACK_RATE;
    let mut strategies = AttackStrategy::lineup(rate_bps);
    strategies.extend([
        AttackStrategy::shrew_fixed(rate_bps, 0, 0),
        AttackStrategy::Rolling { rate_bps, dwell: u64::MAX },
        AttackStrategy::Probe { rate_bps, epoch: u64::MAX },
        AttackStrategy::FlashMimic { peak_bps: 4 * rate_bps, ramp: 4 * SEC, hold: u64::MAX },
    ]);
    for topology in [TopologyKind::Dumbbell, TopologyKind::Mesh] {
        for &strategy in &strategies {
            for system in DefenseKind::EVERY {
                let p = TournamentPoint { strategy, topology, coverage_pct: 100 };
                let r = run(tournament_spec(&tournament_tiny(), system, &p));
                assert!(
                    r.senders > 0,
                    "{} vs {} produced no senders",
                    system.label(),
                    p.strategy.label()
                );
            }
        }
    }
}

#[test]
fn grid_cells_carry_reaction_and_goodput() {
    let point = TournamentPoint {
        strategy: AttackStrategy::static_cbr(tournament::ATTACK_RATE),
        topology: TopologyKind::Dumbbell,
        coverage_pct: 100,
    };
    let cells = SweepGrid::new([DefenseKind::Fq, DefenseKind::None], [point])
        .run_auto(|system, p| tournament_spec(&tournament_tiny(), system, p));
    assert_eq!(cells.len(), 2);
    assert!(cells.iter().all(|c| c.record.avg_user_bps() >= 0.0));
}

// ---- Chaos ----

fn chaos_record(system: DefenseKind, fault: ChaosFault) -> Record {
    let tiny = Scale { src_ases: 3, hosts_per_as: 3, sim_time: 25 * SEC, seed: 7 };
    let point =
        ChaosPoint { topology: ChaosTopology::Dumbbell, fault, severity: chaos::Severity::Mild };
    run(chaos_spec(&tiny, system, &point))
}

#[test]
fn chaos_records_carry_their_fault_windows() {
    let r = chaos_record(DefenseKind::Fq, ChaosFault::LinkFailure);
    assert_eq!(r.faults.len(), 1);
    assert_eq!(r.faults[0].kind, "link-failure");
    assert_eq!(r.faults[0].at, chaos::FAULT_AT);
    assert_eq!(r.faults[0].clear_at, chaos::FAULT_AT + 2 * SEC);
    assert!(r.worst_fault_recovery_secs().is_some());
    assert!(r.availability().is_some());
}

#[test]
fn a_mild_reboot_cell_runs_on_every_defense() {
    for system in chaos::SYSTEMS {
        let r = chaos_record(system, ChaosFault::RouterReboot);
        assert!(r.avg_user_bps() >= 0.0, "{} cell ran", system.label());
        assert!(r.worst_fault_recovery_secs().is_some());
    }
}
