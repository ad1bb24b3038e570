//! Figures 10, 13 and 14: colluding attacks on a parking-lot topology with
//! two bottleneck links.
//!
//! Three sender groups share two links: Group A crosses both `L1` and `L2`,
//! Group B only `L2`, Group C only `L1`. Each group is 75% attackers / 25%
//! users. The figures report the average throughput of Group-A users and
//! Group-A attackers for three capacity pairs. Under the core
//! (single-feedback) NetFence design (Figure 10) Group-A flows keep
//! switching between the two rate limiters (§4.3.5); Figures 13 and 14 run
//! the same cells under Appendix B.1's multi-bottleneck feedback and B.2's
//! rate-limiter inference.

use netfence_core::multi::MultiBottleneck;
use netfence_sim::prelude::*;

use crate::prelude::*;
use crate::registry::Size;
use crate::report::{kbps, table_of};

/// One capacity configuration of Figure 10/13/14.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityCase {
    /// Capacity of the first bottleneck (crossed by groups A and C).
    pub l1_bps: u64,
    /// Capacity of the second bottleneck (crossed by groups A and B).
    pub l2_bps: u64,
    /// Label matching the paper's x-axis (e.g. "160M-160M").
    pub label: &'static str,
}

/// The three capacity configurations of Figure 10, scaled so that a Group-A
/// sender's max-min fair share is `fair_share_bps` in the symmetric case.
pub fn capacity_cases(senders_per_link: usize, fair_share_bps: u64) -> [CapacityCase; 3] {
    let base = fair_share_bps * senders_per_link as u64;
    let bigger = base * 3 / 2;
    [
        CapacityCase { l1_bps: base, l2_bps: base, label: "160M-160M" },
        CapacityCase { l1_bps: bigger, l2_bps: base, label: "240M-160M" },
        CapacityCase { l1_bps: base, l2_bps: bigger, label: "160M-240M" },
    ]
}

/// The Figure 10 scenario: the parking lot with 25% long-running TCP users
/// per group and colluding CBR attackers.
pub fn fig10_spec(scale: &Scale, system: DefenseKind, case: CapacityCase) -> ScenarioSpec {
    ScenarioSpec::parking_lot(*scale, case.l1_bps, case.l2_bps)
        .named("fig10-parking-lot")
        .defense(system)
        .users(TrafficSpec::LongRunningTcp)
        .user_start(StartSchedule::staggered(20, 50 * MILLI))
        .attackers(AttackStrategy::static_cbr(1_000_000), AttackTarget::Colluders { ases: 1 })
        .attacker_start(StartSchedule::staggered(50, MILLI))
}

/// The Group-A table of NetFence (the only system the paper's Figures 10,
/// 13 and 14 show) running `design` on the three capacity cases: one
/// `(case, user, attacker, fair share)` row each.
fn group_a_table(size: Size, design: MultiBottleneck, title: &str) -> String {
    let scale = size.scale_for(80, 120);
    let per_group = scale.hosts_per_as.max(4);
    let rows: Vec<_> =
        SweepGrid::new([DefenseKind::NetFence], capacity_cases(2 * per_group, 80_000))
            .run_auto(|system, case| {
                let mut spec = fig10_spec(&scale, system, *case);
                spec.defense.netfence.multi_bottleneck = design;
                spec
            })
            .iter()
            .map(|c| {
                let r = &c.record;
                let (user, attacker) = (r.group_avg_bps("A-users"), r.group_avg_bps("A-attackers"));
                (c.point, user, attacker, r.fair_share_bps)
            })
            .collect();
    let headers = ["case", "Group-A user", "Group-A attacker", "fair share"];
    let table = table_of(&headers, &rows, |&(case, user, attacker, fair)| {
        vec![case.label.to_string(), kbps(user), kbps(attacker), kbps(fair)]
    });
    format!("{title}\n\n{table}\n")
}

/// `netfence run fig10`: the core design.
pub fn table(size: Size) -> String {
    let title = "Figure 10: Group-A throughput on the parking-lot topology (kbps)";
    group_a_table(size, MultiBottleneck::Core, title)
}

/// `netfence run fig13`: Appendix B.1, multi-bottleneck feedback.
pub fn table_fig13(size: Size) -> String {
    let title = "Figure 13: Appendix B.1 multi-bottleneck feedback on the parking lot (kbps)";
    group_a_table(size, MultiBottleneck::MultiFeedback, title)
}

/// `netfence run fig14`: Appendix B.2, rate-limiter inference.
pub fn table_fig14(size: Size) -> String {
    let title = "Figure 14: Appendix B.2 rate-limiter inference on the parking lot (kbps)";
    group_a_table(size, MultiBottleneck::Inference, title)
}
