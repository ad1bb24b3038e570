//! Cross-commit pins on the engine's observable behaviour (ROADMAP item 3,
//! first slice).
//!
//! Every other "byte-for-byte" test compares two code paths inside one
//! build, so a change that shifts both passes silently. These digests were
//! computed on the commit *before* the event queue was swapped and are
//! checked in: an engine refactor that reorders a single event moves at
//! least one of them.

use netfence::experiments::chaos;
use netfence::experiments::fig8::fig8_spec;
use netfence::experiments::fig9::{fig9_spec, UserTraffic};
use netfence::experiments::prelude::*;
use netfence::experiments::registry::Size;

/// FNV-1a over the `Debug` rendering of the whole record.
fn digest(record: &Record) -> u64 {
    format!("{record:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

fn check(cell: &str, spec: ScenarioSpec, pinned: u64) {
    let got = digest(&Runner::new(spec).run());
    assert_eq!(
        got, pinned,
        "engine pin `{cell}` moved: {got:#018x}, pinned {pinned:#018x}. The simulated outcome \
         of this cell changed. If that is intended, update the constant in tests/engine_pins.rs \
         and say why in a CHANGES.md line; if not, the change reordered or lost an event."
    );
}

#[test]
fn fig8_quick_cell_per_defense_kind() {
    let pins = [
        (DefenseKind::Fq, 0xf9c8_0fea_e266_b5ea_u64),
        (DefenseKind::NetFence, 0x4b16_d33b_a265_f141),
        (DefenseKind::Tva, 0x0948_8773_d649_c251),
        (DefenseKind::StopIt, 0x9ca4_9a8b_be82_a759),
        (DefenseKind::None, 0x90e4_fb03_e726_8f84),
    ];
    assert_eq!(pins.map(|(k, _)| k), DefenseKind::EVERY);
    for (kind, pinned) in pins {
        let spec = fig8_spec(&Size::Quick.scale(), kind, 100_000);
        check(&format!("fig8/{}", kind.label()), spec, pinned);
    }
}

#[test]
fn chaos_quick_reboot_cell() {
    check("chaos/reboot/NetFence", chaos::traced_spec(Size::Quick), 0x652d_9b0a_ce7b_5a0c);
}

/// The only pinned cells whose access routers hold live per-(sender, link)
/// rate limiters; constants computed on b41461b, before the limiter table
/// changed hasher.
#[test]
fn fig9_quick_netfence_cells() {
    for (traffic, pinned) in [
        (UserTraffic::LongRunning, 0xdef1_ac45_8d6c_c1db_u64),
        (UserTraffic::WebLike, 0xdc52_0cf3_c34d_bac6),
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
        (DefenseKind::NetFence, 0x6ee5_0103_57da_916b_u64),
        (DefenseKind::StopIt, 0x87f8_a57f_e8d9_dd0a),
    ] {
        let spec = deployment::deployment_spec(&quick, kind, 0.5);
        check(&format!("deployment/50%/{}", kind.label()), spec, pinned);
    }

    let scale = Size::Quick.scale_for(80, 120);
    let cases = fig10::capacity_cases(2 * scale.hosts_per_as.max(4), 80_000);
    for (case, pinned) in cases.into_iter().zip([
        0xdb02_aad1_525e_d1e3_u64,
        0x89dd_f342_d768_1c6c,
        0x68b1_fbfb_2cef_26d9,
    ]) {
        let spec = fig10::fig10_spec(&scale, DefenseKind::NetFence, case);
        check(&format!("fig10/{}/NetFence", case.label), spec, pinned);
    }

    let scale = Size::Quick.scale_for(80, 300);
    let spec = fig11::fig11_spec(&scale, 100_000, SEC / 2, 3 * SEC / 2);
    check("fig11/0.5s-1.5s/NetFence", spec, 0x2896_ac58_948e_41cd);

    let point = tournament::TournamentPoint {
        strategy: AttackStrategy::Rolling { rate_bps: tournament::ATTACK_RATE, dwell: 5 * SEC },
        topology: tournament::TopologyKind::Mesh,
        coverage_pct: 50,
    };
    let spec =
        tournament::tournament_spec(&Size::Quick.scale_for(20, 60), DefenseKind::NetFence, &point);
    check("tournament/rolling/mesh/50%/NetFence", spec, 0x6bbb_7e1a_52c4_fca8);

    let knobs =
        reaction::ReactionKnobs { latency: 100 * MILLI, loss_per_mille: 0, outage: 10 * SEC };
    let spec = reaction::reaction_spec(&Size::Quick.scale_for(40, 90), DefenseKind::StopIt, &knobs);
    check("reaction/100ms+10s-outage/StopIt", spec, 0xcb04_c06a_85f5_3b69);

    let point = chaos::ChaosPoint {
        topology: chaos::ChaosTopology::Internet,
        fault: chaos::ChaosFault::LinkFailure,
        severity: chaos::Severity::Mild,
    };
    let spec = chaos::chaos_spec(&Size::Quick.scale_for(25, 60), DefenseKind::Tva, &point);
    check("chaos/internet/link-failure/TVA+", spec, 0x3b18_cdb0_6698_1085);
}
