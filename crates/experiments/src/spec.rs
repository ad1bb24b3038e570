//! The declarative experiment vocabulary: [`ScenarioSpec`] and the types it
//! is assembled from (its defense half lives in [`crate::defense`]).
//!
//! The paper's evaluation (§6.3, Figures 7–14) is a grid of *defense system*
//! × *scenario* cells over a small set of topologies and workloads. A
//! [`ScenarioSpec`] captures one cell declaratively — topology shape, scale,
//! defense, per-role traffic, attacker strategy — and
//! [`Runner`](crate::runner::Runner) turns it into a simulation and a
//! uniform [`Record`](crate::record::Record). Sweeps over many cells are
//! driven by [`SweepGrid`](crate::sweep::SweepGrid).

use netfence_adversary::AttackStrategy;
use netfence_ctrl::config::CtrlConfig;
use netfence_faults::FaultPlan;
use netfence_sim::prelude::*;

use crate::defense::{DefenseKind, DefenseSpec};

/// How large a run is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Source ASes (the paper uses 10).
    pub src_ases: usize,
    /// Hosts per source AS (the paper uses 100; scaled down by default).
    pub hosts_per_as: usize,
    /// Simulated duration.
    pub sim_time: Nanos,
    /// RNG seed.
    pub seed: u64,
}

impl Scale {
    /// A tiny scale for unit/integration tests and `--quick` runs.
    pub fn tiny() -> Self {
        Scale { src_ases: 4, hosts_per_as: 4, sim_time: 40 * SEC, seed: 7 }
    }

    /// The default experiment scale (finishes in seconds per data point).
    pub fn default_scale() -> Self {
        Scale { src_ases: 10, hosts_per_as: 8, sim_time: 120 * SEC, seed: 7 }
    }

    /// Total simulated senders.
    pub fn senders(&self) -> usize {
        self.src_ases * self.hosts_per_as
    }
}

/// The shape of the network a scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologySpec {
    /// The Figure 8/9/11 dumbbell: `scale.src_ases` source ASes behind one
    /// bottleneck, a victim AS, and (with a colluding [`AttackTarget`])
    /// extra colluder ASes.
    Dumbbell,
    /// The Figure 10 parking lot: `R0 —L1→ R1 —L2→ R2` with three sender
    /// groups (A crosses both links, B only L2, C only L1). Every group gets
    /// its own victim and colluder destination.
    ParkingLot {
        /// Capacity of the first bottleneck (crossed by groups A and C).
        l1_bps: u64,
        /// Capacity of the second bottleneck (crossed by groups A and B).
        l2_bps: u64,
    },
    /// An internet-like transit-stub graph (generated by `netfence-topo`):
    /// `scale.src_ases` Zipf-sized stub ASes holding `scale.senders()`
    /// hosts in total behind a tiered transit core, with the victim (and
    /// any colluder ASes) in a region reachable only over one designated
    /// bottleneck whose capacity comes from the scenario's [`Bandwidth`].
    Internet(InternetShape),
    /// A multi-bottleneck mesh (generalized parking lot): `bottlenecks`
    /// chained plus `branches` branching designated links of `bps` each,
    /// one sender group (with its own victim and colluder) per crossing
    /// pattern — the long group, one local group per chain link, one per
    /// branch. Groups hold `scale.hosts_per_as` senders each.
    MultiBottleneck {
        /// Chained bottleneck links (the parking lot has 2).
        bottlenecks: usize,
        /// Extra branching bottleneck links off the chain junctions.
        branches: usize,
        /// Capacity of every designated bottleneck, bits per second.
        bps: u64,
    },
}

/// Shape knobs of a [`TopologySpec::Internet`] scenario — everything about
/// the generated graph that is *not* already expressed by [`Scale`] (which
/// contributes the stub count and total host count) or [`Bandwidth`] (the
/// bottleneck capacity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InternetShape {
    /// Transit (tier-1) ASes in the core.
    pub transit_ases: usize,
    /// Routers per transit AS.
    pub routers_per_transit: usize,
    /// Distinct transit routers each stub AS homes to.
    pub multihoming: usize,
    /// Zipf skew of the stub sizes, milli-units (0 = uniform; internet
    /// AS-size fits are ≈ 900).
    pub zipf_milli_alpha: u32,
}

impl Default for InternetShape {
    fn default() -> Self {
        InternetShape {
            transit_ases: 3,
            routers_per_transit: 2,
            multihoming: 2,
            zipf_milli_alpha: 900,
        }
    }
}

/// How the bottleneck capacity of a [`TopologySpec::Dumbbell`] is stated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bandwidth {
    /// Absolute bits per second.
    Absolute(u64),
    /// Bits per second *per simulated sender* (the paper's scale-down trick:
    /// a fixed per-sender fair share regardless of how many hosts are
    /// actually simulated).
    PerSender(u64),
}

impl Bandwidth {
    /// Resolve to absolute bits per second for `senders` simulated senders.
    pub fn resolve(&self, senders: usize) -> u64 {
        match *self {
            Bandwidth::Absolute(bps) => bps,
            Bandwidth::PerSender(bps) => bps * senders as u64,
        }
    }
}

/// The traffic one role's hosts generate (§6.3's workload menu).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficSpec {
    /// Constant-bit-rate UDP.
    Cbr {
        /// Sending rate in bits per second.
        bps: u64,
    },
    /// A single long-running TCP flow (Figure 9a users).
    LongRunningTcp,
    /// Web-like TCP traffic — Pareto/exponential mixture sizes (Figure 9b).
    WebLike,
    /// Repeatedly transfer a fixed-size file over TCP with a gap between
    /// transfers (Figure 8 users: 20 KB, 5 s gap).
    RepeatedFile {
        /// Transfer size in bytes.
        bytes: u64,
        /// Idle gap between transfers.
        gap: Nanos,
    },
}

impl TrafficSpec {
    /// Constant-bit-rate UDP at `bps`.
    pub fn cbr(bps: u64) -> Self {
        TrafficSpec::Cbr { bps }
    }

    /// Repeated fixed-size TCP transfers.
    pub fn repeated_file(bytes: u64, gap: Nanos) -> Self {
        TrafficSpec::RepeatedFile { bytes, gap }
    }

    /// Instantiate the flow for one `(src, dst)` member of a role.
    pub(crate) fn make_flow(
        &self,
        id: FlowId,
        src: HostAddr,
        dst: HostAddr,
        seed: u64,
    ) -> Box<dyn Flow> {
        let workload = match *self {
            TrafficSpec::Cbr { bps } => return Box::new(UdpFlow::cbr(id, src, dst, bps)),
            TrafficSpec::LongRunningTcp => TcpWorkload::LongRunning,
            TrafficSpec::WebLike => TcpWorkload::WebLike,
            TrafficSpec::RepeatedFile { bytes, gap } => TcpWorkload::RepeatedFile { bytes, gap },
        };
        Box::new(TcpFlow::new(id, src, dst, workload, SimRng::new(seed)))
    }
}

/// When the members of a role start sending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartSchedule {
    /// Everybody at t = 0 (the synchronized worst case of §5.2.1).
    Synchronized,
    /// Member `i` starts at `(i % groups) · step`.
    Staggered {
        /// Number of distinct start slots.
        groups: u64,
        /// Spacing between slots.
        step: Nanos,
    },
    /// Everybody at the same fixed instant — attackers that hold off until
    /// the users' baseline is established (reaction-time scenarios).
    Delayed {
        /// The common start instant.
        at: Nanos,
    },
}

impl StartSchedule {
    /// Member `i` starts at `(i % groups) · step`.
    pub fn staggered(groups: u64, step: Nanos) -> Self {
        StartSchedule::Staggered { groups: groups.max(1), step }
    }

    /// Everybody at the fixed instant `at`.
    pub fn delayed(at: Nanos) -> Self {
        StartSchedule::Delayed { at }
    }

    /// Start time of role member `i`.
    pub fn start_of(&self, i: usize) -> Nanos {
        match *self {
            StartSchedule::Synchronized => 0,
            StartSchedule::Staggered { groups, step } => {
                (i as u64 % groups.max(1)).saturating_mul(step)
            }
            StartSchedule::Delayed { at } => at,
        }
    }
}

/// Traffic plus start schedule for one role: a [`TrafficSpec`] for users,
/// an [`AttackStrategy`] for attackers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoleSpec<T = TrafficSpec> {
    /// What the role's hosts send.
    pub traffic: T,
    /// When they start.
    pub start: StartSchedule,
}

impl<T> RoleSpec<T> {
    /// A role sending `traffic` with the given schedule.
    pub fn new(traffic: T, start: StartSchedule) -> Self {
        RoleSpec { traffic, start }
    }
}

/// Who the attackers send to — the axis separating the paper's two attack
/// scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackTarget {
    /// Unwanted traffic (§6.3.1): attackers flood the victim, which
    /// identifies them and uses the defense to block them.
    Victim,
    /// Colluding receivers (§6.3.2): attackers pair with cooperating
    /// destinations, so capabilities and filters cannot help. On the
    /// dumbbell, `ases` extra colluder ASes are attached behind the
    /// bottleneck; on the parking lot every group already has its own
    /// colluder host and `ases` is ignored.
    Colluders {
        /// Colluder ASes attached to the dumbbell (≥ 1).
        ases: usize,
    },
}

/// One declarative experiment cell: topology × scale × defense × per-role
/// traffic × attacker strategy.
///
/// Build one with [`ScenarioSpec::dumbbell`] or
/// [`ScenarioSpec::parking_lot`] and the chained setters, hand it to a
/// [`Runner`](crate::runner::Runner), get a
/// [`Record`](crate::record::Record) back.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Scenario name (carried into the [`Record`](crate::record::Record)).
    pub name: String,
    /// Network shape.
    pub topology: TopologySpec,
    /// Simulated size and duration.
    pub scale: Scale,
    /// Defense under test.
    pub defense: DefenseSpec,
    /// Dumbbell bottleneck capacity (ignored by the parking lot, whose link
    /// capacities live in its [`TopologySpec`]).
    pub bandwidth: Bandwidth,
    /// Legitimate senders per source AS (dumbbell) or per group (parking
    /// lot); the remaining hosts are attackers.
    pub legit_per_as: usize,
    /// What legitimate users send, and when.
    pub users: RoleSpec,
    /// What every attacker does, and when it starts: a fixed-rate flood
    /// ([`AttackStrategy::Static`]) or a stateful adaptive agent driven by
    /// its own RNG substream. The [`AttackTarget`] resolves each attacker's
    /// primary destination.
    pub attackers: RoleSpec<AttackStrategy>,
    /// Who the attackers aim at.
    pub attack_target: AttackTarget,
    /// Control-plane transport configuration. `None` keeps the legacy
    /// instant-reliable bus (byte-identical to pre-control-plane runs);
    /// `Some(CtrlConfig::ideal())` routes every message through the
    /// [`CtrlService`](netfence_ctrl::service::CtrlService) with zero
    /// latency and loss, which still reproduces the legacy records. A
    /// fault plan with a controller outage installs the ideal transport
    /// when this is `None`.
    pub control: Option<CtrlConfig>,
    /// Declarative fault plan injected into the run (chaos engineering).
    /// The default empty plan compiles to zero engine events and keeps the
    /// [`Record`](crate::record::Record) byte-identical to a run without
    /// any fault machinery (pinned by `tests/faults.rs`). Randomized fault
    /// targets draw from a dedicated RNG substream, so no plan can perturb
    /// flow or adversary randomness.
    pub faults: FaultPlan,
    /// Goodput sampling cadence for reaction-time measurement (0 disables
    /// sampling; the record then carries no samples).
    pub sample_interval: Nanos,
    /// Observer telemetry (timeline probes + packet flight recorder). The
    /// default is fully disabled; enabling it never changes the
    /// [`Record`](crate::record::Record) — observers are pure (pinned by
    /// `tests/telemetry.rs`).
    pub telemetry: TelemetryConfig,
}

impl ScenarioSpec {
    /// A dumbbell scenario with the paper's defaults: NetFence defended, one
    /// legitimate user per AS sending long-running TCP (staggered starts),
    /// the rest 1 Mbps CBR attackers flooding the victim, 100 kbps
    /// per-sender fair share.
    pub fn dumbbell(scale: Scale) -> Self {
        ScenarioSpec {
            name: "dumbbell".to_string(),
            topology: TopologySpec::Dumbbell,
            scale,
            defense: DefenseSpec::new(DefenseKind::NetFence),
            bandwidth: Bandwidth::PerSender(100_000),
            legit_per_as: 1,
            users: RoleSpec::new(
                TrafficSpec::LongRunningTcp,
                StartSchedule::staggered(20, 50 * MILLI),
            ),
            attackers: RoleSpec::new(
                AttackStrategy::static_cbr(1_000_000),
                StartSchedule::staggered(100, MILLI),
            ),
            attack_target: AttackTarget::Victim,
            control: None,
            faults: FaultPlan::empty(),
            sample_interval: 0,
            telemetry: TelemetryConfig::default(),
        }
    }

    /// A parking-lot scenario (Figure 10): three groups of
    /// `scale.hosts_per_as` senders, colluding attack by default.
    pub fn parking_lot(scale: Scale, l1_bps: u64, l2_bps: u64) -> Self {
        let mut spec = ScenarioSpec::dumbbell(scale);
        spec.name = "parking-lot".to_string();
        spec.topology = TopologySpec::ParkingLot { l1_bps, l2_bps };
        spec.legit_per_as = (scale.hosts_per_as.max(4) / 4).max(1);
        spec.attackers.start = StartSchedule::staggered(50, MILLI);
        spec.attack_target = AttackTarget::Colluders { ases: 1 };
        spec
    }

    /// An internet-scale transit-stub scenario: `scale.src_ases` Zipf-sized
    /// stub ASes holding `scale.senders()` hosts, the dumbbell's default
    /// roles and traffic, and the victim behind a generated transit core.
    pub fn internet(scale: Scale, shape: InternetShape) -> Self {
        let mut spec = ScenarioSpec::dumbbell(scale);
        spec.name = "internet".to_string();
        spec.topology = TopologySpec::Internet(shape);
        spec
    }

    /// A multi-bottleneck mesh scenario: `bottlenecks` chained plus
    /// `branches` branching designated links, one group of
    /// `scale.hosts_per_as` senders per crossing pattern, colluding attack
    /// by default (like the parking lot it generalizes).
    pub fn multi_bottleneck(scale: Scale, bottlenecks: usize, branches: usize, bps: u64) -> Self {
        let mut spec = ScenarioSpec::parking_lot(scale, bps, bps);
        spec.name = "multi-bottleneck".to_string();
        spec.topology = TopologySpec::MultiBottleneck { bottlenecks, branches, bps };
        spec
    }

    /// Name the scenario.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Select the defense system (experiment-default configuration).
    pub fn defense(mut self, kind: DefenseKind) -> Self {
        let DefenseSpec { suppression, key_ttl, .. } = self.defense;
        self.defense = DefenseSpec { suppression, key_ttl, ..DefenseSpec::new(kind) };
        self
    }

    /// Replace the whole defense spec.
    pub fn defense_spec(mut self, defense: DefenseSpec) -> Self {
        self.defense = defense;
        self
    }

    /// Deploy the defense on only the first `coverage` fraction of source
    /// ASes (destination and transit ASes deploy whenever `coverage > 0`).
    pub fn coverage(mut self, coverage: f64) -> Self {
        self.defense.deployment = DeploymentSpec::coverage(coverage);
        self
    }

    /// Dumbbell bottleneck capacity as a per-sender fair share.
    pub fn fair_share(mut self, bps: u64) -> Self {
        self.bandwidth = Bandwidth::PerSender(bps);
        self
    }

    /// Dumbbell bottleneck capacity in absolute bits per second.
    pub fn bottleneck_bps(mut self, bps: u64) -> Self {
        self.bandwidth = Bandwidth::Absolute(bps);
        self
    }

    /// Legitimate senders per source AS / group.
    pub fn legit_per_as(mut self, n: usize) -> Self {
        self.legit_per_as = n.max(1);
        self
    }

    /// Legitimate senders as a fraction of each AS's hosts (at least one).
    /// On the Zipf-sized internet topology the fraction is taken of the
    /// *average* stub size (`scale.hosts_per_as`).
    pub fn legit_fraction(mut self, f: f64) -> Self {
        let hosts = match self.topology {
            TopologySpec::Dumbbell | TopologySpec::Internet(_) => self.scale.hosts_per_as,
            TopologySpec::ParkingLot { .. } | TopologySpec::MultiBottleneck { .. } => {
                self.scale.hosts_per_as.max(4)
            }
        };
        self.legit_per_as = ((hosts as f64 * f) as usize).max(1);
        self
    }

    /// What the users send.
    pub fn users(mut self, traffic: TrafficSpec) -> Self {
        self.users.traffic = traffic;
        self
    }

    /// When the users start.
    pub fn user_start(mut self, start: StartSchedule) -> Self {
        self.users.start = start;
        self
    }

    /// What the attackers do, and to whom.
    pub fn attackers(mut self, strategy: AttackStrategy, target: AttackTarget) -> Self {
        self.attackers.traffic = strategy;
        self.attack_target = target;
        self
    }

    /// When the attackers start.
    pub fn attacker_start(mut self, start: StartSchedule) -> Self {
        self.attackers.start = start;
        self
    }

    /// Change what the attackers do, keeping their target.
    pub fn adversary(mut self, strategy: AttackStrategy) -> Self {
        self.attackers.traffic = strategy;
        self
    }

    /// Route control-plane messages through the asynchronous
    /// [`CtrlService`](netfence_ctrl::service::CtrlService) transport with
    /// the given latency/loss configuration.
    pub fn control(mut self, cfg: CtrlConfig) -> Self {
        self.control = Some(cfg);
        self
    }

    /// Inject a declarative fault plan into the run (see
    /// [`ScenarioSpec::faults`]). Enable [`ScenarioSpec::sampled`] too to
    /// get the record's per-fault recovery metrics.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Give the defense's installed keys a TTL (NetFence only; see
    /// [`DefenseSpec::key_ttl`]).
    pub fn key_ttl(mut self, ttl: Nanos) -> Self {
        self.defense.key_ttl = ttl;
        self
    }

    /// Sample cumulative per-flow goodput every `interval`, enabling the
    /// record's reaction-time metric (0 disables sampling).
    pub fn sampled(mut self, interval: Nanos) -> Self {
        self.sample_interval = interval;
        self
    }

    /// Enable observer telemetry (timeline probes, packet flight recorder)
    /// for this run. Timeline probes fire on the [`ScenarioSpec::sampled`]
    /// clock, so enable sampling too to get rows.
    pub fn traced(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Override the simulated duration.
    pub fn sim_time(mut self, t: Nanos) -> Self {
        self.scale.sim_time = t;
        self
    }

    /// Override the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.scale.seed = seed;
        self
    }

    /// The resolved dumbbell bottleneck capacity.
    pub fn resolved_bottleneck_bps(&self) -> u64 {
        self.bandwidth.resolve(self.scale.senders())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dumbbell_builder_defaults_and_overrides() {
        let spec = ScenarioSpec::dumbbell(Scale::tiny())
            .named("t")
            .defense(DefenseKind::StopIt)
            .fair_share(200_000)
            .legit_per_as(2)
            .users(TrafficSpec::repeated_file(20_000, 5 * SEC))
            .attackers(AttackStrategy::static_cbr(500_000), AttackTarget::Victim)
            .attacker_start(StartSchedule::Synchronized)
            .seed(42)
            .sim_time(10 * SEC);
        assert_eq!(spec.name, "t");
        assert_eq!(spec.defense.kind, DefenseKind::StopIt);
        assert_eq!(spec.resolved_bottleneck_bps(), 200_000 * 16);
        assert_eq!(spec.legit_per_as, 2);
        assert_eq!(spec.users.traffic, TrafficSpec::RepeatedFile { bytes: 20_000, gap: 5 * SEC });
        assert_eq!(spec.attackers.traffic, AttackStrategy::static_cbr(500_000));
        assert_eq!(spec.attackers.start, StartSchedule::Synchronized);
        assert_eq!(spec.scale.seed, 42);
        assert_eq!(spec.scale.sim_time, 10 * SEC);
    }

    #[test]
    fn adversary_replaces_the_strategy_and_keeps_the_target() {
        let spec = ScenarioSpec::dumbbell(Scale::tiny())
            .attackers(AttackStrategy::static_cbr(1), AttackTarget::Colluders { ases: 2 })
            .adversary(AttackStrategy::shrew_tuned(1_000_000));
        assert_eq!(spec.attackers.traffic, AttackStrategy::shrew_tuned(1_000_000));
        assert_eq!(spec.attack_target, AttackTarget::Colluders { ases: 2 });
    }

    #[test]
    fn legit_fraction_rounds_down_but_keeps_one() {
        let spec = ScenarioSpec::dumbbell(Scale::tiny()).legit_fraction(0.25);
        assert_eq!(spec.legit_per_as, 1);
        let spec =
            ScenarioSpec::dumbbell(Scale { hosts_per_as: 8, ..Scale::tiny() }).legit_fraction(0.25);
        assert_eq!(spec.legit_per_as, 2);
        let spec = ScenarioSpec::dumbbell(Scale::tiny()).legit_fraction(0.0);
        assert_eq!(spec.legit_per_as, 1);
    }

    #[test]
    fn start_schedules() {
        let s = StartSchedule::staggered(10, 100 * MILLI);
        assert_eq!(s.start_of(0), 0);
        assert_eq!(s.start_of(3), 300 * MILLI);
        assert_eq!(s.start_of(13), 300 * MILLI);
        assert_eq!(StartSchedule::staggered(10, Nanos::MAX).start_of(3), Nanos::MAX);
        assert_eq!(StartSchedule::Synchronized.start_of(99), 0);
    }

    #[test]
    fn bandwidth_resolution() {
        assert_eq!(Bandwidth::Absolute(5).resolve(100), 5);
        assert_eq!(Bandwidth::PerSender(5).resolve(100), 500);
    }
}
