//! Telemetry regression tests.
//!
//! * Property test (vendored proptest shim): enabling every observer —
//!   timeline probes plus the hash-sampled packet flight recorder —
//!   reproduces the observer-free `Record` byte-for-byte for every
//!   `DefenseKind`. The observers are pure: they may read the simulation,
//!   never steer it.
//! * Drop accounting: on a fig8-style unwanted-flood run the typed drop
//!   budget in the report sums exactly to the engine's total drop count,
//!   and every per-link budget sums to that link's drop counter.
//! * The telemetry dump itself is non-trivial when enabled: timeline rows
//!   appear on the sampling clock and the flight recorder captures hop
//!   events for the deterministically sampled packet ids.

use netfence::experiments::prelude::*;
use netfence::experiments::report::drop_budget_table;
use netfence::sim::time::{MILLI, SEC};
use proptest::proptest;

fn tiny(seed: u64) -> Scale {
    Scale { src_ases: 2, hosts_per_as: 2, sim_time: 3 * SEC, seed }
}

fn spec(kind: DefenseKind, seed: u64) -> ScenarioSpec {
    ScenarioSpec::dumbbell(tiny(seed))
        .named("telemetry-property")
        .defense(kind)
        .fair_share(100_000)
        .users(TrafficSpec::repeated_file(20_000, SEC))
        .attackers(AttackStrategy::static_cbr(500_000), AttackTarget::Victim)
        .sampled(250 * MILLI)
}

fn kind_of(index: u8) -> DefenseKind {
    DefenseKind::EVERY[index as usize % DefenseKind::EVERY.len()]
}

proptest! {
    /// Observers on vs off: byte-identical `Record` for every defense.
    #[test]
    fn observers_never_change_the_record(seed in 1u64..64, kind_idx in 0u8..5) {
        let kind = kind_of(kind_idx);
        let plain = Runner::new(spec(kind, seed)).run();
        let traced = Runner::new(spec(kind, seed).traced(TelemetryConfig::full(0))).run();
        proptest::prop_assert_eq!(plain, traced);
    }

    /// Observers stay pure against *adaptive* attackers too: for every
    /// `AttackStrategy` in the tournament lineup, full telemetry
    /// reproduces the observer-free `Record` byte-for-byte. Stateful
    /// strategies (probing, rolling targets) react to what the simulation
    /// does, so any observer that nudged the simulation would show up
    /// here as a diverging record.
    #[test]
    fn observers_never_change_the_record_under_any_strategy(seed in 1u64..32, kind_idx in 0u8..5, strat_idx in 0u8..5) {
        let lineup = AttackStrategy::lineup(750_000);
        let strategy = lineup[strat_idx as usize % lineup.len()];
        let kind = kind_of(kind_idx);
        let plain = Runner::new(spec(kind, seed).adversary(strategy)).run();
        let traced =
            Runner::new(spec(kind, seed).adversary(strategy).traced(TelemetryConfig::full(0))).run();
        proptest::prop_assert_eq!(plain, traced);
    }

    /// The report's drop budget always accounts for every drop the engine
    /// counted, regardless of defense or seed.
    #[test]
    fn drop_budget_accounts_for_every_drop(seed in 1u64..32, kind_idx in 0u8..5) {
        let record = Runner::new(spec(kind_of(kind_idx), seed)).run();
        let per_cause: u64 = DropCause::ALL
            .iter()
            .map(|&c| record.report.drop_budget.get(c))
            .sum();
        proptest::prop_assert_eq!(per_cause, record.report.drop_budget.total());
        proptest::prop_assert_eq!(record.report.drop_budget.total(), record.engine.drops);
    }
}

/// Fig8-style unwanted flood under NetFence: the printed drop-cause table
/// sums exactly to the run's total drops, and telemetry output is rich.
#[test]
fn fig8_style_drop_budget_sums_to_total_drops() {
    let spec =
        ScenarioSpec::dumbbell(Scale { src_ases: 2, hosts_per_as: 3, sim_time: 8 * SEC, seed: 5 })
            .named("fig8-style")
            .defense(DefenseKind::NetFence)
            .fair_share(100_000)
            .legit_per_as(1)
            .users(TrafficSpec::repeated_file(20_000, 2 * SEC))
            .attackers(AttackStrategy::static_cbr(1_000_000), AttackTarget::Victim)
            .sampled(500 * MILLI)
            .traced(TelemetryConfig::full(2));
    let (record, dump) = Runner::new(spec).run_with_telemetry();

    // The run actually dropped something (a 1 Mbps flood into a 400 kbps
    // bottleneck must) and every drop carries a typed cause.
    let budget = &record.report.drop_budget;
    assert!(budget.total() > 0, "flood produced no drops at all");
    assert_eq!(budget.total(), record.engine.drops, "budget must cover every engine drop");
    let per_cause: u64 = DropCause::ALL.iter().map(|&c| budget.get(c)).sum();
    assert_eq!(per_cause, budget.total(), "cause histogram must sum to the total");

    // The rendered table's total row agrees.
    let table = drop_budget_table(&record);
    let last = table.lines().last().unwrap();
    let cells: Vec<&str> = last.split_whitespace().collect();
    assert_eq!(cells[0], "total");
    assert_eq!(cells[1], budget.total().to_string(), "{table}");

    // Observers captured something: timeline rows on the sampling clock,
    // hop events for the sampled packet ids, both exported as JSONL.
    assert!(dump.timeline_rows > 0, "no timeline rows despite sampling");
    assert!(dump.trace_events > 0, "no flight-recorder events at shift 2");
    assert_eq!(dump.timeline_jsonl.lines().count(), dump.timeline_rows);
    assert_eq!(dump.trace_jsonl.lines().count(), dump.trace_events);
    // Every exported row is one JSON object that leads with its timestamp.
    for line in dump.timeline_jsonl.lines().chain(dump.trace_jsonl.lines()) {
        assert!(line.starts_with("{\"at\":") && line.ends_with('}'), "not an `at` row: {line}");
    }
}

/// Per-role drop attribution: the user/attacker budgets are consistent
/// with the run total (role flows can only account for role drops).
#[test]
fn role_drop_budgets_stay_within_the_total() {
    let record = Runner::new(spec(DefenseKind::NetFence, 9)).run();
    let mut roles = DropBudget::default();
    for r in &record.roles {
        roles.merge(&r.drops);
    }
    assert!(
        roles.total() <= record.report.drop_budget.total(),
        "role-attributed drops ({}) exceed the run total ({})",
        roles.total(),
        record.report.drop_budget.total()
    );
}
