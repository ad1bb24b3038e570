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
