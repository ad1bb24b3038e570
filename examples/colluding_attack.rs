//! Scenario example: colluding sender-receiver pairs (the Figure 9 setting),
//! written directly against the declarative `ScenarioSpec` → `Runner` →
//! `Record` API.
//!
//! Attackers pair with colluding receivers so capabilities/filters cannot
//! help; NetFence still guarantees the legitimate TCP user a fair share of
//! the bottleneck via per-(sender, bottleneck) rate limiting driven by
//! secure congestion policing feedback.
//!
//! Run with: `cargo run --release --example colluding_attack`

use netfence::experiments::prelude::*;
use netfence::sim::time::SEC;

fn main() {
    let mut scale = Scale::tiny();
    scale.sim_time = 120 * SEC;
    println!(
        "Simulating {} senders (25% legitimate), colluding UDP floods, 120 s...",
        scale.senders()
    );
    for system in [DefenseKind::None, DefenseKind::NetFence, DefenseKind::Fq] {
        let spec = ScenarioSpec::dumbbell(scale)
            .named("colluding-attack")
            .defense(system)
            .fair_share(100_000)
            .legit_fraction(0.25)
            .users(TrafficSpec::LongRunningTcp)
            .attackers(AttackStrategy::static_cbr(1_000_000), AttackTarget::Colluders { ases: 4 });
        let r = Runner::new(spec).run();
        println!(
            "  {:<9} user/attacker throughput ratio: {:>5.2}   fairness index: {:.3}   utilization: {:>5.1}%",
            system.label(),
            r.throughput_ratio(),
            r.user_fairness(),
            r.bottleneck_utilization() * 100.0
        );
    }
    println!("\nShape to expect (paper Fig. 9a): NetFence ratio near 1, undefended near 0.");
}
