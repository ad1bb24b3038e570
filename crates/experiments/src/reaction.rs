//! The defense-reaction-time sweep: control-plane quality vs how fast a
//! defense restores legitimate goodput.
//!
//! AITF-style analyses ask how long a closed-loop defense needs between
//! the attack's onset and the victim's recovery; the answer is dominated
//! by the control plane carrying the defense's messages — filter
//! requests (StopIt), key announcements (NetFence/Passport) — not by the
//! data path. This sweep measures that directly: on the internet-scale
//! transit-stub topology, demand-bounded users establish a goodput
//! baseline, all attackers open fire at a fixed instant with the attack
//! that engages each defense's control loop ([`attack_for`])
//! ([`ATTACK_START`]), and the record's sampled goodput series yields
//! [`Record::reaction_secs`] — attack start to the first sustained return
//! to ≥ 90% of the baseline — per (defense × control-plane
//! configuration) cell. Fair queuing needs no control messages at all, so
//! its flat curve calibrates what portion of the reaction is pure data
//! path.

use netfence_ctrl::prelude::*;
use netfence_sim::prelude::*;

use crate::prelude::*;
use crate::registry::Size;
use crate::report::{kbps, opt1, table_of};

/// When every attacker starts sending (users start in the first second, so
/// a clean pre-attack baseline exists).
pub const ATTACK_START: Nanos = 8 * SEC;

/// One control-plane quality setting of the sweep (one grid point).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReactionKnobs {
    /// Base one-way control-message latency.
    pub latency: Nanos,
    /// Per-transmission loss probability, in per-mille.
    pub loss_per_mille: u64,
    /// Controller outage length starting exactly at [`ATTACK_START`]
    /// (0 = no outage) — the worst case: the control plane goes dark the
    /// moment the defense needs it.
    pub outage: Nanos,
}

impl ReactionKnobs {
    /// The ideal control plane: zero latency, no loss, no outage.
    pub fn ideal() -> Self {
        ReactionKnobs { latency: 0, loss_per_mille: 0, outage: 0 }
    }

    /// Pure-latency knobs.
    pub fn latency(latency: Nanos) -> Self {
        ReactionKnobs { latency, ..Self::ideal() }
    }

    /// The [`CtrlConfig`] this point runs with.
    pub fn to_ctrl(&self) -> CtrlConfig {
        CtrlConfig::ideal().latency(self.latency).lossy(self.loss_per_mille as f64 / 1000.0)
    }

    /// The fault plan this point runs with: the controller outage, if any.
    pub fn to_faults(&self) -> FaultPlan {
        let mut plan = FaultPlan::empty();
        if self.outage > 0 {
            plan.controller_outage(ATTACK_START, ATTACK_START + self.outage);
        }
        plan
    }
}

/// The systems the sweep compares: the two closed-loop defenses whose
/// reaction rides on the control plane, plus fair queuing as the
/// control-free baseline.
pub const SYSTEMS: [DefenseKind; 3] = [DefenseKind::NetFence, DefenseKind::StopIt, DefenseKind::Fq];

/// The default control-plane quality ladder: ideal, rising latency, heavy
/// loss, and an outage at the attack instant.
pub fn default_knobs() -> Vec<ReactionKnobs> {
    vec![
        ReactionKnobs::ideal(),
        ReactionKnobs::latency(100 * MILLI),
        ReactionKnobs::latency(2 * SEC),
        ReactionKnobs { latency: 100 * MILLI, loss_per_mille: 300, outage: 0 },
        ReactionKnobs { latency: 100 * MILLI, loss_per_mille: 0, outage: 10 * SEC },
    ]
}

/// The attack that engages `system`'s control loop.
///
/// NetFence suppresses an unwanted flood at the data path (unauthorized
/// requests are strictly rate limited with no control traffic), so it
/// faces the *colluding* flood: the colluder keeps echoing feedback and
/// only congestion policing — whose AS keys ride the control plane —
/// restores the users. StopIt's filter requests ride the control plane
/// against the *unwanted* flood (a colluding flood would fall back to its
/// control-free fair-queuing tier). FQ exchanges no control messages under
/// either attack and keeps the data-path baseline.
pub fn attack_for(system: DefenseKind) -> AttackTarget {
    match system {
        DefenseKind::NetFence => AttackTarget::Colluders { ases: 1 },
        DefenseKind::Tva | DefenseKind::StopIt | DefenseKind::Fq | DefenseKind::None => {
            AttackTarget::Victim
        }
    }
}

/// The per-sender bottleneck provisioning that makes `system`'s recovery
/// ride on its control loop.
///
/// StopIt carries a control-free per-source fair-queuing tier that alone
/// satisfies any user demanding less than the fair share — so its cell
/// provisions the bottleneck *below* the users' 50 kbps demand (30 kbps
/// per sender): until the victim's filter requests land and evict the
/// attackers, fair queuing cannot restore the users. NetFence polices
/// every sender toward the fair share, so its users must demand *less*
/// than it (100 kbps per sender); the same holds for the FQ baseline.
pub fn fair_share_for(system: DefenseKind) -> u64 {
    match system {
        DefenseKind::StopIt => 30_000,
        DefenseKind::NetFence | DefenseKind::Tva | DefenseKind::Fq | DefenseKind::None => 100_000,
    }
}

/// The reaction scenario: internet-scale transit-stub topology, one
/// demand-bounded user per stub AS (50 kbps CBR, flat baseline), the
/// remaining hosts 1 Mbps CBR attackers that all open fire at
/// [`ATTACK_START`] against [`attack_for`]`(system)` over a bottleneck
/// provisioned at [`fair_share_for`]`(system)` per sender. Goodput is
/// sampled every second.
pub fn reaction_spec(scale: &Scale, system: DefenseKind, knobs: &ReactionKnobs) -> ScenarioSpec {
    ScenarioSpec::internet(*scale, InternetShape::default())
        .named("reaction")
        .defense(system)
        .fair_share(fair_share_for(system))
        .legit_per_as(1)
        .users(TrafficSpec::cbr(50_000))
        .user_start(StartSchedule::staggered(10, 100 * MILLI))
        .attackers(AttackStrategy::static_cbr(1_000_000), attack_for(system))
        .attacker_start(StartSchedule::delayed(ATTACK_START))
        .control(knobs.to_ctrl())
        .fault_plan(knobs.to_faults())
        .sampled(SEC)
}

/// `netfence run reaction`: every system at every control-plane setting.
pub fn table(size: Size) -> String {
    let scale = size.scale_for(40, 90);
    let cells = SweepGrid::new(SYSTEMS, default_knobs())
        .run_auto(|system, knobs| reaction_spec(&scale, system, knobs));
    let headers = [
        "latency (ms)",
        "loss",
        "outage (s)",
        "system",
        "reaction (s)",
        "user kbps",
        "attacker kbps",
        "retx",
        "lost",
    ];
    format!(
        "Reaction time: attack at {}s, {} senders per point, {}s simulated\n\n{}\n",
        ATTACK_START / SEC,
        scale.senders(),
        scale.sim_time / SEC,
        table_of(&headers, &cells, |c| vec![
            format!("{}", c.point.latency / MILLI),
            format!("{:.1}%", c.point.loss_per_mille as f64 / 10.0),
            format!("{}", c.point.outage / SEC),
            c.system.label().to_string(),
            opt1(c.record.reaction_secs(), "never"),
            kbps(c.record.avg_user_bps()),
            kbps(c.record.avg_attacker_bps()),
            format!("{}", c.record.report.control_retransmits),
            format!("{}", c.record.report.control_lost),
        ])
    )
}
