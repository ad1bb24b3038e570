//! Property tests for `netfence-adversary` (vendored proptest shim).
//!
//! * Every strategy is deterministic: the same spec run twice yields the
//!   identical `Record` (each agent draws only from its own seeded stream).
//! * Sanity bound: `Probe` explores before it commits, so it can never
//!   inflict meaningfully more damage than the strongest fixed strategy in
//!   the lineup.

use std::collections::BTreeMap;
use std::sync::Mutex;

use netfence::experiments::prelude::*;
use netfence::sim::time::SEC;
use proptest::proptest;

fn tiny(seed: u64) -> Scale {
    Scale { src_ases: 2, hosts_per_as: 2, sim_time: 3 * SEC, seed }
}

fn flood_spec(kind: DefenseKind, seed: u64) -> ScenarioSpec {
    ScenarioSpec::dumbbell(tiny(seed))
        .named("adversary-property")
        .defense(kind)
        .fair_share(100_000)
        .users(TrafficSpec::repeated_file(20_000, SEC))
        .attackers(AttackStrategy::static_cbr(500_000), AttackTarget::Colluders { ases: 1 })
}

fn kind_of(index: u8) -> DefenseKind {
    DefenseKind::EVERY[index as usize % DefenseKind::EVERY.len()]
}

// --- Probe sanity-bound harness ------------------------------------------
//
// An 8 s dumbbell with a self-defending victim and one colluder AS: long
// enough for Probe (1 s epochs) to explore all its candidates and commit.
// Runs are memoized per (seed, strategy) — the shim replays 256
// deterministic cases over a handful of distinct inputs.

fn probe_arena(seed: u64, strategy: AttackStrategy) -> ScenarioSpec {
    let scale = Scale { src_ases: 2, hosts_per_as: 2, sim_time: 8 * SEC, seed };
    ScenarioSpec::dumbbell(scale)
        .named("adversary-probe-bound")
        .defense_spec(DefenseSpec::new(DefenseKind::NetFence).with_suppression(Suppression::On))
        .fair_share(100_000)
        .users(TrafficSpec::cbr(50_000))
        .attackers(strategy, AttackTarget::Colluders { ases: 1 })
        .sampled(SEC)
}

fn arena_user_bps(seed: u64, strategy: AttackStrategy) -> f64 {
    static CACHE: Mutex<BTreeMap<(u64, &'static str), f64>> = Mutex::new(BTreeMap::new());
    if let Some(&bps) = CACHE.lock().unwrap().get(&(seed, strategy.label())) {
        return bps;
    }
    let bps = Runner::new(probe_arena(seed, strategy)).run().avg_user_bps();
    CACHE.lock().unwrap().insert((seed, strategy.label()), bps);
    bps
}

proptest! {
    /// Every strategy is fully deterministic under every defense: agents
    /// draw randomness only from their own seeded substream, so re-running
    /// the identical spec reproduces the identical `Record`.
    #[test]
    fn every_strategy_is_deterministic(seed in 1u64..24, kind_idx in 0u8..5, strat_idx in 0u8..5) {
        let kind = kind_of(kind_idx);
        let strategy = AttackStrategy::lineup(750_000)[strat_idx as usize % 5];
        let first = Runner::new(flood_spec(kind, seed).adversary(strategy)).run();
        let again = Runner::new(flood_spec(kind, seed).adversary(strategy)).run();
        proptest::prop_assert_eq!(first, again);
    }

    /// `Probe` spends its first epochs exploring before committing to its
    /// strongest candidate, so it can never push legitimate users
    /// meaningfully below what the best *fixed* strategy already achieves.
    #[test]
    fn probe_never_beats_the_best_fixed_strategy(seed in 1u64..4) {
        let rate = 1_000_000;
        let best_fixed = AttackStrategy::lineup(rate)
            .into_iter()
            .filter(|s| s.label() != "probe")
            .map(|s| arena_user_bps(seed, s))
            .fold(f64::INFINITY, f64::min);
        let probe = arena_user_bps(seed, AttackStrategy::Probe { rate_bps: rate, epoch: SEC });
        proptest::prop_assert!(
            probe >= 0.7 * best_fixed - 1_000.0,
            "probe drove users to {probe:.0} bps, below the best fixed strategy's {best_fixed:.0}"
        );
    }
}
