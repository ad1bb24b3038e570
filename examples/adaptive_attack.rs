//! Scenario example: adaptive attackers from `netfence-adversary` against a
//! self-defending NetFence victim, written against the declarative
//! `ScenarioSpec` → `Runner` → `Record` API.
//!
//! The same dumbbell and the same aggregate attack rate, but five different
//! strategies: a plain flood, a shrew pulsing on the rate limiter's AIMD
//! period, a rolling flood, a goodput-probing attacker that commits to the
//! defense's worst case, and a flash-crowd mimic. The interesting output is
//! the *worst row* — a defense is only as strong as its worst case.
//!
//! Run with: `cargo run --release --example adaptive_attack`

use netfence::experiments::prelude::*;
use netfence::sim::time::SEC;

fn main() {
    let mut scale = Scale::tiny();
    scale.sim_time = 60 * SEC;
    println!(
        "Simulating {} senders, NetFence with suppression, 5 attacker strategies, 60 s...",
        scale.senders()
    );
    let mut worst: Option<(&'static str, f64)> = None;
    for strategy in AttackStrategy::lineup(1_000_000) {
        let spec = ScenarioSpec::dumbbell(scale)
            .named("adaptive-attack")
            .defense_spec(DefenseSpec::new(DefenseKind::NetFence).with_suppression(Suppression::On))
            .fair_share(100_000)
            .legit_per_as(1)
            .users(TrafficSpec::cbr(50_000))
            .attackers(strategy, AttackTarget::Colluders { ases: 1 })
            .attacker_start(StartSchedule::delayed(5 * SEC))
            .sampled(SEC);
        let r = Runner::new(spec).run();
        let user = r.avg_user_bps();
        println!(
            "  {:<11} user goodput: {:>7.1} kbps   attacker goodput: {:>7.1} kbps   reaction: {}",
            strategy.label(),
            user / 1000.0,
            r.avg_attacker_bps() / 1000.0,
            match r.reaction_secs() {
                Some(s) => format!("{s:.1} s"),
                None => "never".to_string(),
            }
        );
        if worst.is_none_or(|(_, w)| user < w) {
            worst = Some((strategy.label(), user));
        }
    }
    if let Some((label, bps)) = worst {
        println!("\nWorst case: `{}` held users to {:.1} kbps.", label, bps / 1000.0);
    }
    println!(
        "Full grid (both topologies, partial deployment): `cargo run --release -- run tournament`."
    );
}
