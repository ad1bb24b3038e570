//! Scenario example: what a control-plane outage costs a closed-loop
//! defense.
//!
//! StopIt blocks an unwanted flood by installing filters at the attackers'
//! access routers — but the filter requests travel over the control plane.
//! The bottleneck is provisioned *below* the users' demand (30 kbps per
//! sender vs 50 kbps CBR users), so StopIt's control-free fair-queuing
//! tier alone cannot restore the users: recovery waits for the filters.
//! The same delayed-attack scenario then runs under three control-plane
//! qualities (ideal, 100 ms latency, and a controller outage that starts
//! the moment the attack begins) and reports the defense *reaction time*:
//! attack start → legitimate goodput back above 90% of its pre-attack
//! baseline.
//!
//! Run with: `cargo run --release --example control_plane_outage`

use netfence::ctrl::prelude::*;
use netfence::experiments::prelude::*;
use netfence::sim::time::{Nanos, MILLI, SEC};

const ATTACK_START: Nanos = 8 * SEC;

fn spec(ctrl: CtrlConfig, faults: FaultPlan) -> ScenarioSpec {
    let scale = Scale { src_ases: 2, hosts_per_as: 3, sim_time: 48 * SEC, seed: 5 };
    ScenarioSpec::dumbbell(scale)
        .named("control-plane-outage")
        .defense(DefenseKind::StopIt)
        .fair_share(30_000)
        .legit_per_as(1)
        .users(TrafficSpec::cbr(50_000))
        .attackers(AttackStrategy::static_cbr(1_000_000), AttackTarget::Victim)
        .attacker_start(StartSchedule::delayed(ATTACK_START))
        .control(ctrl)
        .fault_plan(faults)
        .sampled(SEC)
}

fn main() {
    println!("StopIt vs an unwanted flood starting at {} s, 48 s simulated.\n", ATTACK_START / SEC);
    // A controller outage is a fault window like any other: it lands in
    // `Record::faults` and the fault-recovery metric measures it.
    let mut outage = FaultPlan::empty();
    outage.controller_outage(ATTACK_START, ATTACK_START + 10 * SEC);
    let cases = [
        ("ideal control plane", CtrlConfig::ideal(), FaultPlan::empty()),
        ("100 ms latency", CtrlConfig::ideal().latency(100 * MILLI), FaultPlan::empty()),
        ("outage 8 s - 18 s", CtrlConfig::ideal(), outage),
    ];
    let secs = |s: Option<f64>| s.map_or("never".to_string(), |s| format!("{s:.1} s"));
    for (label, cfg, faults) in cases {
        let r = Runner::new(spec(cfg, faults)).run();
        println!(
            "  {:<20} reaction: {:>7}   user goodput: {:>5.1} kbps   control retx: {:>2}  lost: {:>2}",
            label,
            secs(r.reaction_secs()),
            r.avg_user_bps() / 1000.0,
            r.report.control_retransmits,
            r.report.control_lost,
        );
        for (i, w) in r.faults.iter().enumerate() {
            println!(
                "  {:<20} {} cleared at {} s, users recovered {} later",
                "",
                w.kind,
                w.clear_at / SEC,
                secs(r.fault_recovery_secs(i)),
            );
        }
    }
    println!(
        "\nThe outage covers the attack instant: the victim's filter requests only land\nonce its daemons reconnect, so the flood runs unchecked for the whole dark window."
    );
}
