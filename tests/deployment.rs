//! Partial-deployment regression tests for the per-node defense deployment
//! API.
//!
//! * Property tests (vendored proptest shim): for every `DefenseKind`, a
//!   `coverage = 1.0` deployment reproduces the default full-deployment
//!   `Record` byte-for-byte, and `coverage = 0.0` produces exactly the
//!   traffic outcome of `DefenseKind::None`.
//! * Sweep regression: legitimate goodput is monotonically non-decreasing
//!   in deploying-source-AS coverage for NetFence on the dumbbell (the
//!   adoption incentive of §5.3).
//! * Placement: every defense installs agents on exactly the nodes its
//!   resolved coverage names.

use netfence::experiments::deployment::deployment_spec;
use netfence::experiments::fig8::fig8_spec;
use netfence::experiments::prelude::*;
use netfence::experiments::registry::Size;
use netfence::sim::time::SEC;
use proptest::proptest;

fn tiny(seed: u64) -> Scale {
    Scale { src_ases: 2, hosts_per_as: 2, sim_time: 3 * SEC, seed }
}

fn spec(kind: DefenseKind, seed: u64) -> ScenarioSpec {
    ScenarioSpec::dumbbell(tiny(seed))
        .named("deployment-property")
        .defense(kind)
        .fair_share(100_000)
        .users(TrafficSpec::repeated_file(20_000, SEC))
        .attackers(AttackStrategy::static_cbr(500_000), AttackTarget::Colluders { ases: 1 })
}

fn kind_of(index: u8) -> DefenseKind {
    DefenseKind::EVERY[index as usize % DefenseKind::EVERY.len()]
}

proptest! {
    /// `coverage = 1.0` is the same deployment as the default (full):
    /// records must be byte-for-byte identical for every defense kind.
    #[test]
    fn full_coverage_reproduces_full_deployment(seed in 1u64..64, kind_idx in 0u8..5) {
        let kind = kind_of(kind_idx);
        let full = Runner::new(spec(kind, seed)).run();
        let covered = Runner::new(spec(kind, seed).coverage(1.0)).run();
        proptest::prop_assert_eq!(full, covered);
    }

    /// `coverage = 0.0` deploys nothing: the traffic outcome (per-flow
    /// series and link statistics) must equal an undefended run.
    #[test]
    fn zero_coverage_equals_no_defense(seed in 1u64..64, kind_idx in 0u8..5) {
        let kind = kind_of(kind_idx);
        let none = Runner::new(spec(DefenseKind::None, seed)).run();
        let covered = Runner::new(spec(kind, seed).coverage(0.0)).run();
        proptest::prop_assert_eq!(&none.roles, &covered.roles);
        proptest::prop_assert_eq!(&none.links, &covered.links);
        proptest::prop_assert_eq!(covered.report.deployed_ases, 0);
        proptest::prop_assert_eq!(covered.report.total_defense_drops(), 0);
    }
}

/// The deployment-sweep regression of the §5.3 adoption incentive:
/// legitimate goodput is monotonically non-decreasing in the fraction of
/// deploying source ASes for NetFence on the dumbbell.
#[test]
fn netfence_goodput_monotone_in_coverage() {
    let scale = Scale { src_ases: 4, hosts_per_as: 4, sim_time: 60 * SEC, seed: 7 };
    let mut last = f64::NEG_INFINITY;
    let mut series = Vec::new();
    for coverage in [0.0, 0.5, 1.0] {
        let user_bps = Runner::new(deployment_spec(&scale, DefenseKind::NetFence, coverage))
            .run()
            .avg_user_bps();
        series.push((coverage, user_bps));
        assert!(user_bps >= last, "goodput dropped as coverage grew: {series:?}");
        last = user_bps;
    }
    // Universal deployment must actually help: the paper's fair-share
    // guarantee holds, while a pure legacy network starves the users.
    let zero = series[0].1;
    let full = series[2].1;
    assert!(
        full > 2.0 * zero.max(1_000.0),
        "full deployment should clearly beat a legacy network: {series:?}"
    );
}

/// Partial coverage is visible in the typed report and in who gets
/// policed: the deployed half's attackers are rate limited while the
/// legacy half escapes (but is demoted at the deployed bottleneck).
#[test]
fn partial_deployment_polices_only_deployed_ases() {
    let scale = Scale { src_ases: 2, hosts_per_as: 2, sim_time: 60 * SEC, seed: 11 };
    let spec = ScenarioSpec::dumbbell(scale)
        .named("partial")
        .defense(DefenseKind::NetFence)
        .coverage(0.5)
        .fair_share(100_000)
        .users(TrafficSpec::LongRunningTcp)
        .attackers(AttackStrategy::static_cbr(1_000_000), AttackTarget::Colluders { ases: 1 });
    let r = Runner::new(spec).run();
    // One of two source ASes deploys, plus transit + victim + colluder.
    assert_eq!(r.report.total_ases - r.report.deployed_ases, 1);
    // Host shims exist only for the deployed AS's hosts plus destinations.
    assert!(r.report.host_shims < r.senders + 2, "legacy hosts must have no shims");
}

/// Each defense installs a host shim on exactly the deploying hosts and a
/// router agent on exactly the deploying routers of the quick fig8
/// dumbbell, at zero, half and full coverage; `None` and FQ install none.
#[test]
fn agents_land_on_exactly_the_deploying_nodes() {
    for kind in DefenseKind::EVERY {
        for coverage in [0.0, 0.5, 1.0] {
            let spec =
                fig8_spec(&Size::Quick.scale(), kind, 100_000).coverage(coverage).sim_time(0);
            // The topology the runner builds for a dumbbell spec.
            let built = TopoSpec::Dumbbell {
                src_ases: spec.scale.src_ases,
                hosts_per_as: spec.scale.hosts_per_as,
                legit_per_as: spec.legit_per_as,
                bottleneck_bps: spec.resolved_bottleneck_bps(),
                colluder_ases: 0,
            }
            .build();
            let net = &built.net;
            let map = spec
                .defense
                .deployment
                .resolve_for_source_ases(net, &built.source_ases)
                .resolve(net);
            let (hosts, routers) = (map.hosts(net).count(), map.routers(net).count());
            let all_hosts = net.nodes.iter().filter(|n| n.host_addr().is_some()).count();
            if coverage == 0.5 {
                assert!(0 < hosts && hosts < all_hosts, "{hosts} of {all_hosts} hosts deploy");
            }
            let expect = match kind {
                DefenseKind::None | DefenseKind::Fq => (0, 0),
                DefenseKind::NetFence | DefenseKind::Tva | DefenseKind::StopIt => (hosts, routers),
            };
            let mut same_net = false;
            let report =
                Runner::new(spec).run_edited(|ran, _| same_net = ran.nodes == net.nodes).report;
            assert!(same_net, "the runner built another topology");
            let placed = (report.host_shims, report.router_agents);
            assert_eq!(placed, expect, "{} at coverage {coverage}", kind.label());
        }
    }
}
