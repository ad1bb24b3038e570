//! The adversarial tournament: every defense against every attacker
//! strategy, across topologies and deployment coverage, scored by each
//! defense's **worst case**.
//!
//! A defense that looks strong against the fixed flood of §6.3 may crumble
//! against a shrew tuned to its AIMD period or a probe that finds its worst
//! case; robustness is a *minimax* property. The tournament runs the
//! (defense × strategy × topology × coverage) grid via
//! [`SweepGrid`] — attackers are the adaptive agents of
//! `netfence-adversary`, victims always defend themselves, users are
//! demand-bounded so a clean baseline exists — and folds the cells into a
//! regret-style matrix: per defense, the minimum legitimate-user goodput
//! over all strategies, the strategy that achieved it, the slowest measured
//! reaction, and the *regret* against the best defense's worst case.
//! [`table`] prints the per-cell values and the matrix;
//! `golden/tournament.txt` pins both.

use netfence_adversary::AttackStrategy;
use netfence_sim::prelude::*;

use crate::prelude::*;
use crate::registry::Size;
use crate::report::{kbps, opt1, table_of};

/// When every attacker opens fire (users establish their baseline first).
pub const ATTACK_START: Nanos = 5 * SEC;

/// Per-attacker nominal rate, bits per second.
pub const ATTACK_RATE: u64 = 1_000_000;

/// The defenses the tournament compares (the paper's four systems).
pub const SYSTEMS: [DefenseKind; 4] = DefenseKind::ALL;

/// Which topology a tournament point runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// The classic single-bottleneck dumbbell.
    Dumbbell,
    /// The multi-bottleneck mesh (3 chained + 1 branching designated
    /// links) — the arena where rolling attacks shift across bottlenecks.
    Mesh,
}

impl TopologyKind {
    /// Short display name.
    pub fn label(&self) -> &'static str {
        match self {
            TopologyKind::Dumbbell => "dumbbell",
            TopologyKind::Mesh => "mesh",
        }
    }
}

/// One strategy-side point of the grid (the defense axis comes from
/// [`SweepGrid`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TournamentPoint {
    /// The attacker strategy.
    pub strategy: AttackStrategy,
    /// The arena.
    pub topology: TopologyKind,
    /// Deployment coverage of the defense over source ASes, percent.
    pub coverage_pct: u8,
}

/// The default grid: the canonical strategy lineup × both topologies ×
/// full and half deployment.
pub fn default_points() -> Vec<TournamentPoint> {
    let mut points = Vec::new();
    for topology in [TopologyKind::Dumbbell, TopologyKind::Mesh] {
        for coverage_pct in [100u8, 50] {
            for strategy in AttackStrategy::lineup(ATTACK_RATE) {
                points.push(TournamentPoint { strategy, topology, coverage_pct });
            }
        }
    }
    points
}

/// The scenario of one tournament cell.
///
/// Attackers pair with colluding receivers (so strategies that *choose* to
/// flood the victim face suppression while colluder floods bypass it —
/// exactly the choice [`AttackStrategy::Probe`] explores), the victim
/// always defends itself ([`Suppression::On`]), users are demand-bounded
/// 50 kbps CBR under a 100 kbps per-sender fair share, and goodput is
/// sampled every second for the reaction metric.
pub fn tournament_spec(scale: &Scale, system: DefenseKind, p: &TournamentPoint) -> ScenarioSpec {
    let base = match p.topology {
        TopologyKind::Dumbbell => ScenarioSpec::dumbbell(*scale).fair_share(100_000),
        TopologyKind::Mesh => {
            // 3 chained + 1 branching links; each link carries the long
            // group plus one local group, so provision 100 kbps per
            // competing sender.
            let per_group = scale.hosts_per_as.max(4);
            let bps = 100_000 * 2 * per_group as u64;
            ScenarioSpec::multi_bottleneck(*scale, 3, 1, bps)
        }
    };
    base.named("tournament")
        .defense_spec(DefenseSpec::new(system).with_suppression(Suppression::On))
        .coverage(p.coverage_pct as f64 / 100.0)
        .legit_per_as(1)
        .users(TrafficSpec::cbr(50_000))
        .user_start(StartSchedule::staggered(10, 100 * MILLI))
        .attackers(p.strategy, AttackTarget::Colluders { ases: 1 })
        .attacker_start(StartSchedule::delayed(ATTACK_START))
        .sampled(SEC)
}

/// One row of the regret matrix: a defense's worst case over every
/// strategy it faced.
#[derive(Debug, Clone)]
pub struct RegretRow {
    /// The defense.
    pub system: DefenseKind,
    /// Its minimum user goodput across all cells — the worst case.
    pub worst_user_bps: f64,
    /// The strategy that achieved the worst case.
    pub worst_strategy: &'static str,
    /// The topology the worst case occurred on.
    pub worst_topology: &'static str,
    /// The slowest reaction across the defense's cells; `None` when any
    /// cell never recovered (the worst possible reaction).
    pub worst_reaction_secs: Option<f64>,
    /// How far this defense's worst case falls short of the best
    /// defense's worst case, bits per second (0 for the minimax winner).
    pub regret_bps: f64,
}

/// Fold executed cells — `(defense, point, user bps, reaction secs)` each —
/// into the per-defense worst-case (regret) matrix. Rows come back in
/// first-appearance order of the systems.
pub fn regret_matrix(
    cells: impl IntoIterator<Item = (DefenseKind, TournamentPoint, f64, Option<f64>)>,
) -> Vec<RegretRow> {
    let mut rows: Vec<RegretRow> = Vec::new();
    for (system, point, user_bps, reaction_secs) in cells {
        match rows.iter_mut().find(|r| r.system == system) {
            None => rows.push(RegretRow {
                system,
                worst_user_bps: user_bps,
                worst_strategy: point.strategy.label(),
                worst_topology: point.topology.label(),
                worst_reaction_secs: reaction_secs,
                regret_bps: 0.0,
            }),
            Some(row) => {
                if user_bps < row.worst_user_bps {
                    row.worst_user_bps = user_bps;
                    row.worst_strategy = point.strategy.label();
                    row.worst_topology = point.topology.label();
                }
                // The slowest reaction is the worst; never-recovered
                // (`None`) dominates every finite reaction.
                row.worst_reaction_secs = match (row.worst_reaction_secs, reaction_secs) {
                    (Some(a), Some(b)) => Some(a.max(b)),
                    _ => None,
                };
            }
        }
    }
    let best = rows.iter().map(|r| r.worst_user_bps).fold(0.0f64, f64::max);
    for row in &mut rows {
        row.regret_bps = best - row.worst_user_bps;
    }
    rows
}

/// `netfence run tournament`: the full cell table, then the per-defense
/// regret matrix.
pub fn table(size: Size) -> String {
    let scale = size.scale_for(20, 60);
    let points = default_points();
    let cells = SweepGrid::new(SYSTEMS, points.clone())
        .run_auto(|system, p| tournament_spec(&scale, system, p));
    let regrets = regret_matrix(
        cells
            .iter()
            .map(|c| (c.system, c.point, c.record.avg_user_bps(), c.record.reaction_secs())),
    );
    let cell_headers = [
        "system",
        "strategy",
        "topology",
        "coverage",
        "user kbps",
        "attacker kbps",
        "reaction (s)",
    ];
    let regret_headers =
        ["system", "worst user kbps", "worst strategy", "on", "worst reaction (s)", "regret kbps"];
    format!(
        "Tournament: {} defenses x {} strategy points, attack at {}s, {}s simulated\n\n{}\n\
         Worst case per defense (regret vs the minimax winner):\n\n{}\n",
        SYSTEMS.len(),
        points.len(),
        ATTACK_START / SEC,
        scale.sim_time / SEC,
        table_of(&cell_headers, &cells, |c| vec![
            c.system.label().to_string(),
            c.point.strategy.label().to_string(),
            c.point.topology.label().to_string(),
            format!("{}%", c.point.coverage_pct),
            kbps(c.record.avg_user_bps()),
            kbps(c.record.avg_attacker_bps()),
            opt1(c.record.reaction_secs(), "never"),
        ]),
        table_of(&regret_headers, &regrets, |r| vec![
            r.system.label().to_string(),
            kbps(r.worst_user_bps),
            r.worst_strategy.to_string(),
            r.worst_topology.to_string(),
            opt1(r.worst_reaction_secs, "never"),
            kbps(r.regret_bps),
        ])
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regret_matrix_scores_the_minimax_winner_zero() {
        let p = |s: AttackStrategy| TournamentPoint {
            strategy: s,
            topology: TopologyKind::Dumbbell,
            coverage_pct: 100,
        };
        let cells = [
            (DefenseKind::NetFence, p(AttackStrategy::static_cbr(1)), 90_000.0, Some(2.0)),
            (DefenseKind::NetFence, p(AttackStrategy::shrew_tuned(1)), 70_000.0, Some(5.0)),
            (DefenseKind::Fq, p(AttackStrategy::static_cbr(1)), 50_000.0, None),
            (DefenseKind::Fq, p(AttackStrategy::shrew_tuned(1)), 60_000.0, Some(1.0)),
        ];
        let matrix = regret_matrix(cells);
        assert_eq!(matrix.len(), 2);
        let nf = &matrix[0];
        assert_eq!(nf.system, DefenseKind::NetFence);
        assert_eq!(nf.worst_user_bps, 70_000.0);
        assert_eq!(nf.worst_strategy, "shrew");
        assert_eq!(nf.worst_reaction_secs, Some(5.0));
        assert_eq!(nf.regret_bps, 0.0, "minimax winner has zero regret");
        let fq = &matrix[1];
        assert_eq!(fq.worst_user_bps, 50_000.0);
        assert_eq!(fq.worst_reaction_secs, None, "never-recovered dominates");
        assert_eq!(fq.regret_bps, 20_000.0);
    }

    #[test]
    fn default_grid_covers_all_axes() {
        let points = default_points();
        // 5 strategies × 2 topologies × 2 coverages.
        assert_eq!(points.len(), 20);
        assert!(points.iter().any(|p| p.topology == TopologyKind::Mesh && p.coverage_pct == 50));
    }
}
