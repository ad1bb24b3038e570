//! The chaos sweep: defense × fault kind × severity, on the dumbbell and
//! internet topologies.
//!
//! Each cell runs a standard attacked scenario (demand-bounded users,
//! CBR flood) with one deterministic [`FaultPlan`] injected mid-run —
//! link failure, router reboot, key desync, clock skew or memory
//! pressure, at a mild or severe dose — and [`table`] prints the record's
//! fault metrics: the worst-case time back to a sustained 90% of
//! pre-fault goodput ([`Record::worst_fault_recovery_secs`]) and the
//! availability fraction under the fault ([`Record::availability`]).
//! NetFence runs with a key TTL so its routers keep re-announcing keys —
//! the refresh traffic a rebooted or desynced router recovers through;
//! defenses that keep no distributed state (FQ) calibrate the pure
//! data-path recovery floor.

use netfence_ctrl::prelude::*;
use netfence_faults::{FaultKind, FaultPlan, FaultTarget};
use netfence_sim::prelude::*;

use crate::prelude::*;
use crate::registry::Size;
use crate::report::{kbps, opt1, pct, table_of};

/// When the fault hits: late enough that users, attackers and the defense
/// have all reached steady state, so a clean pre-fault baseline exists.
pub const FAULT_AT: Nanos = 10 * SEC;

/// The key TTL every NetFence chaos cell runs with — the re-announcement
/// cadence (TTL/2) bounds how long a rebooted router waits for the key
/// table it re-bootstraps from.
pub const KEY_TTL: Nanos = 4 * SEC;

/// Which topology a chaos cell runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChaosTopology {
    /// The paper's dumbbell.
    Dumbbell,
    /// The generated transit-stub internet.
    Internet,
}

impl ChaosTopology {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            ChaosTopology::Dumbbell => "dumbbell",
            ChaosTopology::Internet => "internet",
        }
    }
}

/// The fault families the sweep injects (parameter-free names; the dose
/// comes from [`Severity`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChaosFault {
    /// An inter-router link goes dark, both directions.
    LinkFailure,
    /// A router loses all volatile defense state.
    RouterReboot,
    /// A router's time-varying secret rotates out from under held stamps.
    KeyDesync,
    /// A router's protocol clock runs off engine time.
    ClockSkew,
    /// A forced eviction burst in a router's policy store.
    MemoryPressure,
}

impl ChaosFault {
    /// Every fault family.
    pub const ALL: [ChaosFault; 5] = [
        ChaosFault::LinkFailure,
        ChaosFault::RouterReboot,
        ChaosFault::KeyDesync,
        ChaosFault::ClockSkew,
        ChaosFault::MemoryPressure,
    ];

    /// Display label: the label of the [`FaultKind`] this family injects.
    pub fn label(&self) -> &'static str {
        match self {
            ChaosFault::LinkFailure => FaultKind::LinkFailure,
            ChaosFault::RouterReboot => FaultKind::RouterReboot,
            ChaosFault::KeyDesync => FaultKind::KeyDesync,
            ChaosFault::ClockSkew => FaultKind::ClockSkew { offset_ns: 0 },
            ChaosFault::MemoryPressure => FaultKind::MemoryPressure { evict: 0 },
        }
        .label()
    }
}

/// How hard the fault hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Severity {
    /// A single short event.
    Mild,
    /// Longer outages / repeated hits / larger doses.
    Severe,
}

impl Severity {
    /// Both doses.
    pub const ALL: [Severity; 2] = [Severity::Mild, Severity::Severe];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Severity::Mild => "mild",
            Severity::Severe => "severe",
        }
    }
}

/// One sweep point: where, what, how hard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChaosPoint {
    /// The topology the cell runs on.
    pub topology: ChaosTopology,
    /// The fault family injected.
    pub fault: ChaosFault,
    /// The dose.
    pub severity: Severity,
}

/// The deterministic fault plan of one `(fault, severity)` dose. Targets
/// are [`FaultTarget::Random`]: seeded by the scenario, drawn from the
/// dedicated fault substream, valid on any topology with routers.
pub fn chaos_plan(fault: ChaosFault, severity: Severity) -> FaultPlan {
    let mut p = FaultPlan::empty();
    let t = FaultTarget::Random;
    match (fault, severity) {
        (ChaosFault::LinkFailure, Severity::Mild) => {
            p.link_failure(t, FAULT_AT, FAULT_AT + 2 * SEC);
        }
        (ChaosFault::LinkFailure, Severity::Severe) => {
            p.link_failure(t, FAULT_AT, FAULT_AT + 8 * SEC);
        }
        (ChaosFault::RouterReboot, Severity::Mild) => {
            p.router_reboot(t, FAULT_AT);
        }
        (ChaosFault::RouterReboot, Severity::Severe) => {
            p.router_reboot(t, FAULT_AT).router_reboot(t, FAULT_AT + 4 * SEC);
        }
        (ChaosFault::KeyDesync, Severity::Mild) => {
            p.key_desync(t, FAULT_AT);
        }
        (ChaosFault::KeyDesync, Severity::Severe) => {
            p.key_desync(t, FAULT_AT)
                .key_desync(t, FAULT_AT + 2 * SEC)
                .key_desync(t, FAULT_AT + 4 * SEC);
        }
        (ChaosFault::ClockSkew, Severity::Mild) => {
            p.clock_skew(t, 100 * MILLI as i64, FAULT_AT, FAULT_AT + 4 * SEC);
        }
        (ChaosFault::ClockSkew, Severity::Severe) => {
            p.clock_skew(t, 5 * SEC as i64, FAULT_AT, FAULT_AT + 8 * SEC);
        }
        (ChaosFault::MemoryPressure, Severity::Mild) => {
            p.memory_pressure(t, 4, FAULT_AT);
        }
        (ChaosFault::MemoryPressure, Severity::Severe) => {
            p.memory_pressure(t, 10_000, FAULT_AT);
        }
    }
    p
}

/// The chaos scenario: demand-bounded users (50 kbps each, flat baseline),
/// the remaining hosts 1 Mbps CBR attackers from the start, the defense at
/// a 100 kbps per-sender fair share, the point's fault plan injected at
/// [`FAULT_AT`], goodput sampled every second. NetFence keys carry
/// [`KEY_TTL`] and all control messages ride the asynchronous (ideal)
/// control-plane transport — the channel a rebooted router re-bootstraps
/// through.
pub fn chaos_spec(scale: &Scale, system: DefenseKind, point: &ChaosPoint) -> ScenarioSpec {
    let base = match point.topology {
        ChaosTopology::Dumbbell => ScenarioSpec::dumbbell(*scale),
        ChaosTopology::Internet => ScenarioSpec::internet(*scale, InternetShape::default()),
    };
    base.named(format!(
        "chaos-{}-{}-{}",
        point.topology.label(),
        point.fault.label(),
        point.severity.label()
    ))
    .defense(system)
    .key_ttl(KEY_TTL)
    .fair_share(100_000)
    .legit_per_as(1)
    .users(TrafficSpec::cbr(50_000))
    .user_start(StartSchedule::staggered(10, 100 * MILLI))
    .attackers(AttackStrategy::static_cbr(1_000_000), AttackTarget::Victim)
    .control(CtrlConfig::ideal())
    .fault_plan(chaos_plan(point.fault, point.severity))
    .sampled(SEC)
}

/// The systems the sweep compares (all four deployed defenses).
pub const SYSTEMS: [DefenseKind; 4] = DefenseKind::ALL;

/// The full point grid: both topologies × every fault × both severities.
pub fn default_points() -> Vec<ChaosPoint> {
    let mut v = Vec::new();
    for topology in [ChaosTopology::Dumbbell, ChaosTopology::Internet] {
        for fault in ChaosFault::ALL {
            for severity in Severity::ALL {
                v.push(ChaosPoint { topology, fault, severity });
            }
        }
    }
    v
}

/// A short smoke grid (CI): dumbbell only, mild doses only.
pub fn quick_points() -> Vec<ChaosPoint> {
    ChaosFault::ALL
        .iter()
        .map(|&fault| ChaosPoint {
            topology: ChaosTopology::Dumbbell,
            fault,
            severity: Severity::Mild,
        })
        .collect()
}

/// The scale chaos cells run at: long enough past [`FAULT_AT`] for the
/// recovery windows to close.
fn scale(size: Size) -> Scale {
    size.scale_for(25, 60)
}

/// `netfence run chaos`: every system at every point (`--quick`: the
/// dumbbell/mild smoke grid).
pub fn table(size: Size) -> String {
    let scale = scale(size);
    let points = if size.is_quick() { quick_points() } else { default_points() };
    let cells = SweepGrid::new(SYSTEMS, points).run_auto(|system, p| chaos_spec(&scale, system, p));
    let headers = [
        "topology",
        "fault",
        "severity",
        "system",
        "worst recovery (s)",
        "availability",
        "user kbps",
        "attacker kbps",
    ];
    format!(
        "Chaos sweep: faults at {}s, {} cells, {} senders per cell, {}s simulated\n\n{}\n",
        FAULT_AT / SEC,
        cells.len(),
        scale.senders(),
        scale.sim_time / SEC,
        table_of(&headers, &cells, |c| vec![
            c.point.topology.label().to_string(),
            c.point.fault.label().to_string(),
            c.point.severity.label().to_string(),
            c.system.label().to_string(),
            opt1(c.record.worst_fault_recovery_secs(), "-"),
            c.record.availability().map_or_else(|| "-".to_string(), pct),
            kbps(c.record.avg_user_bps()),
            kbps(c.record.avg_attacker_bps()),
        ])
    )
}

/// `netfence run chaos --trace`: the NetFence cell of a mild router reboot
/// on the dumbbell.
pub fn traced_spec(size: Size) -> ScenarioSpec {
    let reboot = ChaosPoint {
        topology: ChaosTopology::Dumbbell,
        fault: ChaosFault::RouterReboot,
        severity: Severity::Mild,
    };
    chaos_spec(&scale(size), DefenseKind::NetFence, &reboot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reaction::ReactionKnobs;

    #[test]
    fn every_fault_dose_compiles_into_a_nonempty_plan_under_one_label() {
        let net = TopoSpec::Dumbbell {
            src_ases: 2,
            hosts_per_as: 2,
            legit_per_as: 1,
            bottleneck_bps: 1_000_000,
            colluder_ases: 0,
        }
        .build()
        .net;
        for fault in ChaosFault::ALL {
            for severity in Severity::ALL {
                let plan = chaos_plan(fault, severity);
                assert!(!plan.is_empty(), "{}-{} plan is empty", fault.label(), severity.label());
                // The chaos table (`ChaosFault`), the record's fault windows
                // (`FaultKind`) and the engine's timeline marks
                // (`RouterFault`) spell every fault the same way.
                let compiled = plan.compile(&net, 7).expect("random targets fit any network");
                for w in &compiled.windows {
                    assert_eq!(w.kind.label(), fault.label());
                }
                for e in &compiled.events {
                    if let FaultAction::Router { fault: hit, .. } = e.action {
                        assert_eq!(hit.label(), fault.label());
                    }
                }
            }
        }
        // The sixth kind has no dose in the (golden-pinned) sweep; `reaction`
        // injects it, through the same plan and under one label too.
        let knobs = ReactionKnobs { outage: SEC, ..ReactionKnobs::ideal() };
        let compiled = knobs.to_faults().compile(&net, 7).expect("an outage fits any network");
        assert_eq!(compiled.windows[0].kind.label(), "controller-outage");
    }
}
