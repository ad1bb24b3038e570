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
        let mut cfg =
            CtrlConfig::ideal().latency(self.latency).lossy(self.loss_per_mille as f64 / 1000.0);
        if self.outage > 0 {
            cfg = cfg.outage(ATTACK_START, ATTACK_START + self.outage);
        }
        cfg
    }
}

/// One measured point of the reaction sweep.
#[derive(Debug, Clone)]
pub struct ReactionPoint {
    /// The defense system.
    pub system: DefenseKind,
    /// The control-plane quality it ran under.
    pub knobs: ReactionKnobs,
    /// Attack start → sustained recovery to 90% of the pre-attack
    /// baseline, seconds; `None` = never recovered within the run.
    pub reaction_secs: Option<f64>,
    /// Average legitimate-user goodput over the whole run, bits/second.
    pub avg_user_bps: f64,
    /// Average attacker goodput over the whole run, bits/second.
    pub avg_attacker_bps: f64,
    /// Control messages retransmitted by the transport.
    pub control_retransmits: u64,
    /// Control messages dropped after exhausting retransmissions (or sent
    /// to a partitioned AS).
    pub control_lost: u64,
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
        .attackers(TrafficSpec::cbr(1_000_000), attack_for(system))
        .attacker_start(StartSchedule::delayed(ATTACK_START))
        .control(knobs.to_ctrl())
        .sampled(SEC)
}

fn to_point(system: DefenseKind, knobs: ReactionKnobs, r: &Record) -> ReactionPoint {
    ReactionPoint {
        system,
        knobs,
        reaction_secs: r.reaction_secs(),
        avg_user_bps: r.avg_user_bps(),
        avg_attacker_bps: r.avg_attacker_bps(),
        control_retransmits: r.report.control_retransmits,
        control_lost: r.report.control_lost,
    }
}

/// Run one (system × control-plane quality) cell.
pub fn run_reaction_cell(
    scale: &Scale,
    system: DefenseKind,
    knobs: ReactionKnobs,
) -> ReactionPoint {
    let r = Runner::new(reaction_spec(scale, system, &knobs)).run();
    to_point(system, knobs, &r)
}

/// Run the full sweep (cells in parallel; point-major order: all systems
/// at the first knob setting, then all systems at the second, …).
pub fn run_reaction_sweep(
    scale: &Scale,
    systems: &[DefenseKind],
    knobs: &[ReactionKnobs],
) -> Vec<ReactionPoint> {
    SweepGrid::new(systems.to_vec(), knobs.to_vec())
        .run_auto(|system, k| reaction_spec(scale, system, k))
        .iter()
        .map(|c| to_point(c.system, c.point, &c.record))
        .collect()
}

/// `netfence run reaction`: every system at every control-plane setting.
pub fn table(size: Size) -> String {
    let scale = size.scale_for(40, 90);
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
        table_of(&headers, &run_reaction_sweep(&scale, &SYSTEMS, &default_knobs()), |p| vec![
            format!("{}", p.knobs.latency / MILLI),
            format!("{:.1}%", p.knobs.loss_per_mille as f64 / 10.0),
            format!("{}", p.knobs.outage / SEC),
            p.system.label().to_string(),
            opt1(p.reaction_secs, "never"),
            kbps(p.avg_user_bps),
            kbps(p.avg_attacker_bps),
            format!("{}", p.control_retransmits),
            format!("{}", p.control_lost),
        ])
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale { src_ases: 3, hosts_per_as: 3, sim_time: 30 * SEC, seed: 7 }
    }

    #[test]
    fn attack_start_and_samples_reach_the_record() {
        let r = Runner::new(reaction_spec(&tiny(), DefenseKind::Fq, &ReactionKnobs::ideal())).run();
        assert_eq!(r.attack_start, Some(ATTACK_START));
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
        let ideal = run_reaction_cell(&tiny(), DefenseKind::Fq, ReactionKnobs::ideal());
        let slow = run_reaction_cell(&tiny(), DefenseKind::Fq, ReactionKnobs::latency(4 * SEC));
        let a = ideal.reaction_secs.expect("FQ recovers");
        let b = slow.reaction_secs.expect("FQ recovers under latency");
        assert_eq!(a, b, "control latency leaked into a control-free defense");
        assert_eq!(ideal.control_retransmits, 0);
        assert_eq!(ideal.control_lost, 0);
    }

    #[test]
    fn an_outage_at_attack_time_slows_stopit_down() {
        // StopIt installs filters via control messages; an outage covering
        // the attack instant delays them by the reconnect schedule.
        let healthy = run_reaction_cell(&tiny(), DefenseKind::StopIt, ReactionKnobs::ideal());
        let dark = run_reaction_cell(
            &tiny(),
            DefenseKind::StopIt,
            ReactionKnobs { latency: 0, loss_per_mille: 0, outage: 10 * SEC },
        );
        let h = healthy.reaction_secs.expect("StopIt recovers on a healthy control plane");
        match dark.reaction_secs {
            None => {} // never recovered within the run: strictly worse
            Some(d) => assert!(d >= h, "outage reaction {d} < healthy reaction {h}"),
        }
    }
}
