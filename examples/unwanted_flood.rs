//! Scenario example: unwanted-traffic flooding (the Figure 8 setting),
//! written directly against the declarative `ScenarioSpec` → `Runner` →
//! `Record` API — with the defense comparison executed as a parallel
//! `SweepGrid`.
//!
//! Attackers flood a victim web server; the victim identifies them and
//! withholds congestion policing feedback, turning it into a capability.
//! The legitimate user keeps fetching 20 kB pages with only a small delay.
//!
//! Run with: `cargo run --release --example unwanted_flood`

use netfence::experiments::prelude::*;
use netfence::sim::time::SEC;

fn main() {
    let scale = Scale::tiny();
    println!(
        "Simulating {} senders (representing 100K on a 10 Gbps link), 40 s...",
        scale.senders()
    );
    let grid = SweepGrid::new(DefenseKind::ALL.to_vec(), vec![100_000u64]);
    let cells = grid.run_auto(|system, &fair_share| {
        ScenarioSpec::dumbbell(scale)
            .named("unwanted-flood")
            .defense(system)
            .fair_share(fair_share)
            .legit_per_as(1)
            .users(TrafficSpec::repeated_file(20_000, 5 * SEC))
            .attackers(AttackStrategy::static_cbr(1_000_000), AttackTarget::Victim)
    });
    for cell in &cells {
        println!(
            "  {:<9} avg 20KB transfer: {:>6.2} s   completed: {:>5.1}%",
            cell.system.label(),
            cell.record.avg_user_transfer_secs().unwrap_or(f64::NAN),
            cell.record.user_completion_ratio() * 100.0
        );
    }
    println!(
        "\nShape to expect (paper Fig. 8): StopIt fastest, TVA+ close, NetFence ~1s slower\n(request back-off), FQ degrades as attacker counts grow."
    );
}
