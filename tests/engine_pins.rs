//! Cross-commit pins on the engine's observable behaviour (ROADMAP item 3,
//! first slice).
//!
//! Every other "byte-for-byte" test compares two code paths inside one
//! build, so a change that shifts both passes silently. These constants were
//! computed on the commit *before* the change they guard and are checked in.
//! Each cell pins a triple: the digest of the `Record` with
//! `engine.{events, link_events}` zeroed, then those two counts. A change
//! that only elides or adds bookkeeping events moves the counts and leaves
//! the digest alone; one that reorders a single observable event moves the
//! digest. (Triples first computed on cddcb29; when the transmitter stopped
//! queueing a completion event per packet the counts fell on all 17 cells
//! and the digest moved on one — the tournament mesh cell, where
//! same-nanosecond ties (one of them against the 12 s sample tick) resolve
//! the other way. CHANGES.md, PR 20, has its fields. Every digest moved,
//! and no count, when `DropBudget`'s `Debug` began to list only the causes
//! that dropped something: the rendering changed, the record did not. Nine
//! NetFence triples moved when the request channel's priority queue stopped
//! overfilling its byte limit; CHANGES.md lists them.)

use netfence::experiments::chaos;
use netfence::experiments::fig8::fig8_spec;
use netfence::experiments::fig9::{fig9_spec, UserTraffic};
use netfence::experiments::prelude::*;
use netfence::experiments::registry::Size;

/// `(masked digest, engine.events, engine.link_events)`.
type Pin = (u64, u64, u64);

/// FNV-1a over the `Debug` rendering of the whole record.
fn digest(record: &Record) -> u64 {
    format!("{record:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

fn check(cell: &str, spec: ScenarioSpec, pinned: Pin) {
    check_record(cell, Runner::new(spec).run(), pinned);
}

fn check_record(cell: &str, mut record: Record, pinned: Pin) {
    let (events, link_events) = (record.engine.events, record.engine.link_events);
    record.engine.events = 0;
    record.engine.link_events = 0;
    let got = (digest(&record), events, link_events);
    assert_eq!(
        got, pinned,
        "engine pin `{cell}` moved: ({:#018x}, {events}, {link_events}), pinned ({:#018x}, {}, {}). \
         A moved digest means the simulated outcome of this cell changed (an event was reordered \
         or lost); moved counts alone mean only the number of queued events did. Either way, if \
         it is intended, update the triple in tests/engine_pins.rs and say why in a CHANGES.md \
         line.",
        got.0, pinned.0, pinned.1, pinned.2
    );
}

#[test]
fn fig8_quick_cell_per_defense_kind() {
    let pins = [
        (DefenseKind::Fq, (0x824c_657f_37e0_803a, 161_114, 5_813)),
        (DefenseKind::NetFence, (0x5661_8f1b_733b_b269, 117_369, 18_732)),
        (DefenseKind::Tva, (0xd741_fc34_9c95_61c0, 150_617, 18_741)),
        (DefenseKind::StopIt, (0x89e2_996d_3efa_7ea9, 91_781, 1_027)),
        (DefenseKind::None, (0x4aa1_4fc9_bac4_e9d6, 154_732, 5_337)),
    ];
    assert_eq!(pins.map(|(k, _)| k), DefenseKind::EVERY);
    for (kind, pinned) in pins {
        let spec = fig8_spec(&Size::Quick.scale(), kind, 100_000);
        check(&format!("fig8/{}", kind.label()), spec, pinned);
    }
}

#[test]
fn chaos_quick_reboot_cell() {
    check(
        "chaos/reboot/NetFence",
        chaos::traced_spec(Size::Quick),
        (0x666a_147d_5e61_3b0e, 73_853, 11_274),
    );
}

/// The only pinned cells whose access routers hold live per-(sender, link)
/// rate limiters; constants computed on b41461b, before the limiter table
/// changed hasher.
#[test]
fn fig9_quick_netfence_cells() {
    for (traffic, pinned) in [
        (UserTraffic::LongRunning, (0x91f4_e5e6_975e_1fd6, 135_017, 5_475)),
        (UserTraffic::WebLike, (0x14fc_65a0_d775_7873, 135_086, 5_892)),
    ] {
        let spec = fig9_spec(&Size::Quick.scale(), DefenseKind::NetFence, traffic, 100_000);
        check(&format!("fig9/{traffic:?}/NetFence"), spec, pinned);
    }
}

/// The cells the deployment seam can break, constants computed on 144a7c7
/// (before the per-defense queue factories, the type-erased control
/// payloads, the second coverage rule and the agents' own drop counters
/// were removed): partial coverage
/// with an undeliverable `FilterRequest`, the parking lot, a shrew on the
/// dumbbell, an adaptive attacker on the half-deployed mesh, a
/// `FilterRequest` held by a `CtrlService` outage, and TVA+'s DRR /
/// hierarchical-DRR dual-channel queues on a generated internet.
#[test]
fn deployment_seam_cells() {
    use netfence::experiments::{deployment, fig10, fig11, reaction, tournament};
    use netfence::sim::time::{MILLI, SEC};

    let quick = Size::Quick.scale();
    for (kind, pinned) in [
        (DefenseKind::NetFence, (0x8072_84c4_9d84_3c0f, 133_925, 18_592)),
        (DefenseKind::StopIt, (0x258e_c937_4db4_0932, 141_766, 6_390)),
    ] {
        let spec = deployment::deployment_spec(&quick, kind, 0.5);
        check(&format!("deployment/50%/{}", kind.label()), spec, pinned);
    }

    let scale = Size::Quick.scale_for(80, 120);
    let cases = fig10::capacity_cases(2 * scale.hosts_per_as.max(4), 80_000);
    for (case, pinned) in cases.into_iter().zip([
        (0xaa97_8d71_ff17_977c, 196_184, 8_188),
        (0x7962_0f5d_feeb_bfc6, 197_215, 9_068),
        (0x0803_5c65_9076_bd88, 218_895, 10_526),
    ]) {
        let spec = fig10::fig10_spec(&scale, DefenseKind::NetFence, case);
        check(&format!("fig10/{}/NetFence", case.label), spec, pinned);
    }

    let scale = Size::Quick.scale_for(80, 300);
    let spec = fig11::fig11_spec(&scale, 100_000, SEC / 2, 3 * SEC / 2);
    check("fig11/0.5s-1.5s/NetFence", spec, (0xbf48_7657_27a2_d0ed, 147_073, 12_478));

    let point = tournament::TournamentPoint {
        strategy: AttackStrategy::Rolling { rate_bps: tournament::ATTACK_RATE, dwell: 5 * SEC },
        topology: tournament::TopologyKind::Mesh,
        coverage_pct: 50,
    };
    let spec =
        tournament::tournament_spec(&Size::Quick.scale_for(20, 60), DefenseKind::NetFence, &point);
    check("tournament/rolling/mesh/50%/NetFence", spec, (0xe94b_98f2_362f_5e96, 78_744, 12_526));

    let knobs =
        reaction::ReactionKnobs { latency: 100 * MILLI, loss_per_mille: 0, outage: 10 * SEC };
    let spec = reaction::reaction_spec(&Size::Quick.scale_for(40, 90), DefenseKind::StopIt, &knobs);
    // Digest moved (counts equal) when the outage became a fault window: the
    // record gained its `faults` entry and nothing else (CHANGES.md, PR 23;
    // `outage_cells` pins the same cell with `faults` cleared).
    check("reaction/100ms+10s-outage/StopIt", spec, (0xd3ac_a66c_f626_502b, 113_147, 12_001));

    let point = chaos::ChaosPoint {
        topology: chaos::ChaosTopology::Internet,
        fault: chaos::ChaosFault::LinkFailure,
        severity: chaos::Severity::Mild,
    };
    let spec = chaos::chaos_spec(&Size::Quick.scale_for(25, 60), DefenseKind::Tva, &point);
    check("chaos/internet/link-failure/TVA+", spec, (0xbb4c_0a8f_d5e4_54dd, 121_673, 33_728));
}

/// The cells a control-plane outage or a lossy transport decides, digests
/// taken with `record.faults` cleared as well (constants computed on
/// 4b44f88, where an outage was a `CtrlConfig::outage(..)` window and left
/// no fault window in the `Record`): `reaction` with the controller dark for 10 s
/// from the attack instant, `reaction` at 30 % loss (the loss RNG with no
/// outage), and the `control_plane_outage` example's StopIt dumbbell.
#[test]
fn outage_cells() {
    use netfence::experiments::reaction::{reaction_spec, ReactionKnobs, ATTACK_START};
    use netfence::sim::time::{MILLI, SEC};

    let check_without_faults = |cell: &str, spec: ScenarioSpec, pinned: Pin| {
        let mut record = Runner::new(spec).run();
        record.faults.clear();
        check_record(cell, record, pinned);
    };

    let scale = Size::Quick.scale_for(40, 90);
    let outage = ReactionKnobs { latency: 100 * MILLI, loss_per_mille: 0, outage: 10 * SEC };
    let lossy = ReactionKnobs { latency: 100 * MILLI, loss_per_mille: 300, outage: 0 };
    for (name, knobs, kind, pinned) in [
        ("10s-outage", outage, DefenseKind::StopIt, (0x7cfd_99f8_51f3_5189, 113_147, 12_001)),
        ("10s-outage", outage, DefenseKind::NetFence, (0x60c9_7dce_b0be_fae8, 109_794, 5_808)),
        ("30%-loss", lossy, DefenseKind::StopIt, (0x0d1c_d6a6_3747_0c8c, 78_580, 947)),
        ("30%-loss", lossy, DefenseKind::NetFence, (0x8dab_a0c4_6062_1a9f, 109_793, 5_808)),
    ] {
        let spec = reaction_spec(&scale, kind, &knobs);
        check_without_faults(&format!("reaction/100ms+{name}/{}", kind.label()), spec, pinned);
    }

    let mut outage = FaultPlan::empty();
    outage.controller_outage(ATTACK_START, ATTACK_START + 10 * SEC);
    let scale = Scale { src_ases: 2, hosts_per_as: 3, sim_time: 48 * SEC, seed: 5 };
    let spec = ScenarioSpec::dumbbell(scale)
        .named("control-plane-outage")
        .defense(DefenseKind::StopIt)
        .fair_share(30_000)
        .legit_per_as(1)
        .users(TrafficSpec::cbr(50_000))
        .attackers(AttackStrategy::static_cbr(1_000_000), AttackTarget::Victim)
        .attacker_start(StartSchedule::delayed(ATTACK_START))
        .fault_plan(outage)
        .sampled(SEC);
    check_without_faults(
        "control_plane_outage/outage/StopIt",
        spec,
        (0x18aa_0096_4d8f_c71f, 42_725, 3_149),
    );
}
