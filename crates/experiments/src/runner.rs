//! Turns a [`ScenarioSpec`] into a simulation and a [`Record`].
//!
//! The [`Runner`] is the single place where networks are built, defenses
//! deployed and flows spawned. Every topology — classic or generated —
//! comes back from `netfence-topo` as one uniform [`BuiltTopo`] — the
//! network (built **exactly once** and moved into the simulator) plus
//! role metadata (groups of
//! users/attackers with their victims and colluders, designated
//! bottlenecks, source ASes). The runner deploys the defense per
//! the spec's [`DeploymentSpec`] — fractional coverage is resolved against
//! the topology's *source* ASes by
//! [`DeploymentSpec::resolve_for_source_ases`], so destination and transit
//! ASes deploy whenever coverage is nonzero — tags every flow with its
//! role, runs the simulation, and collects the uniform [`Record`]
//! including the deployment's typed [`DefenseReport`].
//!
//! [`DefenseReport`]: netfence_sim::deploy::DefenseReport

use netfence_adversary::StrategyCtx;
use netfence_ctrl::prelude::{CtrlConfig, CtrlService};
use netfence_sim::prelude::*;
use netfence_systems::Deployed;
use netfence_topo::{BuiltTopo, MultiBottleneckSpec, TopoSpec, TransitStubSpec};

use crate::defense::{DefenseContext, SuppressionGroup};
use crate::record::{FaultWindowRecord, GoodputSample, LinkStats, Record, Role, RoleSeries};
use crate::spec::{AttackTarget, ScenarioSpec, TopologySpec};

/// Executes one [`ScenarioSpec`].
#[derive(Debug, Clone)]
pub struct Runner {
    spec: ScenarioSpec,
}

/// The observer telemetry captured by one run (the probes and the flight
/// recorder are empty when the spec's [`TelemetryConfig`] leaves them
/// disabled; the per-link drop budgets come from the always-on ledger).
/// Pure output: the [`Record`] of the same run is byte-identical whether or
/// not this was collected.
#[derive(Debug, Clone, Default)]
pub struct TelemetryDump {
    /// Timeline probe rows as JSONL (one object per sampled point).
    pub timeline_jsonl: String,
    /// Buffered timeline row count.
    pub timeline_rows: usize,
    /// Timeline rows evicted by the ring buffer.
    pub timeline_evicted: u64,
    /// Flight-recorder hop events as JSONL (one object per hop).
    pub trace_jsonl: String,
    /// Buffered hop event count.
    pub trace_events: usize,
    /// Hop events evicted by the ring buffer.
    pub trace_evicted: u64,
    /// `(link, budget)` of every link whose queue dropped, in first-drop
    /// order.
    pub link_drops: Vec<(LinkAddr, DropBudget)>,
}

/// One role group about to be spawned: `(group name, role, members)` where
/// each member is a `(source, destination)` pair. Topology group `k` plans
/// entries `2k` (its users) and `2k + 1` (its attackers).
struct PlannedGroup {
    name: String,
    role: Role,
    members: Vec<(HostAddr, HostAddr)>,
}

impl Runner {
    /// A runner for `spec`.
    pub fn new(spec: ScenarioSpec) -> Self {
        Runner { spec }
    }

    /// The spec this runner executes.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// Build the network (once), instantiate the defense, spawn all role
    /// flows, run the simulation and collect the [`Record`].
    pub fn run(&self) -> Record {
        self.run_edited(|_, _| {})
    }

    /// [`Runner::run`] with `edit` applied to the deployment's queue plan
    /// before it moves into the simulator (a differential test re-plans
    /// queues through it).
    pub fn run_edited(&self, edit: impl FnOnce(&Network, &mut QueuePlan)) -> Record {
        self.run_built(edit).0
    }

    /// Like [`Runner::run`] but also returns the run's [`TelemetryDump`]
    /// (timeline probes + packet flight recorder). The dump is empty
    /// unless the spec enabled telemetry via
    /// [`ScenarioSpec::traced`](crate::spec::ScenarioSpec::traced).
    pub fn run_with_telemetry(&self) -> (Record, TelemetryDump) {
        self.run_built(|_, _| {})
    }

    /// Map the scenario onto a `netfence-topo` [`TopoSpec`] and build it.
    fn build_topo(&self) -> BuiltTopo {
        let spec = &self.spec;
        let colluder_ases = match spec.attack_target {
            AttackTarget::Victim => 0,
            AttackTarget::Colluders { ases } => ases.max(1),
        };
        match spec.topology {
            TopologySpec::Dumbbell => TopoSpec::Dumbbell {
                src_ases: spec.scale.src_ases,
                hosts_per_as: spec.scale.hosts_per_as,
                legit_per_as: spec.legit_per_as,
                bottleneck_bps: spec.resolved_bottleneck_bps(),
                colluder_ases,
            }
            .build(),
            TopologySpec::ParkingLot { l1_bps, l2_bps } => {
                let per_group = spec.scale.hosts_per_as.max(4);
                TopoSpec::ParkingLot {
                    per_group,
                    legit_per_group: spec.legit_per_as.min(per_group),
                    l1_bps,
                    l2_bps,
                }
                .build()
            }
            TopologySpec::Internet(shape) => TopoSpec::TransitStub(TransitStubSpec {
                transit_ases: shape.transit_ases,
                routers_per_transit: shape.routers_per_transit,
                stub_ases: spec.scale.src_ases,
                hosts: spec.scale.senders(),
                legit_per_stub: spec.legit_per_as,
                zipf_milli_alpha: shape.zipf_milli_alpha,
                multihoming: shape.multihoming,
                bottleneck_bps: spec.resolved_bottleneck_bps(),
                stub_bps: 0,
                core_bps: 0,
                colluder_ases,
                seed: spec.scale.seed,
            })
            .build(),
            TopologySpec::MultiBottleneck { bottlenecks, branches, bps } => {
                let per_group = spec.scale.hosts_per_as.max(4);
                TopoSpec::MultiBottleneck(MultiBottleneckSpec {
                    bottlenecks,
                    branches,
                    hosts_per_group: per_group,
                    legit_per_group: spec.legit_per_as.min(per_group),
                    bottleneck_bps: bps,
                })
                .build()
            }
        }
    }

    /// Build the topology (once), deploy the spec's defense on it, then
    /// simulate it with the deployment's own agent types.
    fn run_built(&self, edit: impl FnOnce(&Network, &mut QueuePlan)) -> (Record, TelemetryDump) {
        let spec = &self.spec;
        let built = self.build_topo();
        let defense = spec.defense.build(&DefenseContext {
            groups: built
                .groups
                .iter()
                .map(|g| SuppressionGroup {
                    victim: g.victim,
                    users: &g.users,
                    attackers: &g.attackers,
                })
                .collect(),
            bottleneck_bps: built.min_bottleneck_bps(),
            attack_on_victim: spec.attack_target == AttackTarget::Victim,
        });
        let resolved =
            spec.defense.deployment.resolve_for_source_ases(&built.net, &built.source_ases);
        match defense.deploy(&built.net, &resolved) {
            Deployed::Plain(d) => self.simulate(built, d, edit),
            Deployed::StopIt(d) => self.simulate(built, d, edit),
            Deployed::Tva(d) => self.simulate(built, d, edit),
            Deployed::NetFence(d) => self.simulate(built, d, edit),
        }
    }

    /// Spawn, simulate and collect one built topology under `deployment`.
    fn simulate<H: HostShim, R: RouterAgent>(
        &self,
        built: BuiltTopo,
        mut deployment: Deployment<H, R>,
        edit: impl FnOnce(&Network, &mut QueuePlan),
    ) -> (Record, TelemetryDump) {
        let spec = &self.spec;
        let senders = built.senders();
        let bottleneck_bps = built.min_bottleneck_bps();
        let BuiltTopo { net, groups, bottlenecks, competing_senders, .. } = built;
        edit(&net, &mut deployment.queues);
        // Resolve the fault plan against the network before it moves into
        // the simulator. Compilation draws from its own RNG substream and
        // the empty plan compiles to zero events, so fault-free runs stay
        // byte-identical to pre-fault-engine ones (pinned by
        // `tests/faults.rs`).
        let compiled = match spec.faults.compile(&net, spec.scale.seed) {
            Ok(c) => c,
            Err(e) => panic!("fault plan does not fit scenario '{}': {e}", spec.name),
        };
        // Route control messages through the asynchronous transport before
        // the simulator drains the deploy-time traffic, so even the initial
        // key announcements and filter requests see latency/loss/outages.
        // A planned controller outage needs a transport to be dark on.
        let outages = compiled.outages.clone();
        let control = spec.control.or_else(|| (!outages.is_empty()).then(CtrlConfig::ideal));
        if let Some(cfg) = control {
            deployment.bus.install_channel(Box::new(CtrlService::new(cfg, outages)));
        }

        let mut planned = Vec::with_capacity(2 * groups.len());
        for g in &groups {
            assert!(
                spec.attack_target == AttackTarget::Victim || !g.colluders.is_empty(),
                "AttackTarget::Colluders needs a colluder destination in every group, but group \
                 {:?} has none — build the topology with colluders or target the victim",
                g.label
            );
            let (users_name, attackers_name) = if g.label.is_empty() {
                ("users".to_string(), "attackers".to_string())
            } else {
                (format!("{}-users", g.label), format!("{}-attackers", g.label))
            };
            planned.push(PlannedGroup {
                name: users_name,
                role: Role::User,
                members: g.users.iter().map(|&u| (u, g.victim)).collect(),
            });
            planned.push(PlannedGroup {
                name: attackers_name,
                role: Role::Attacker,
                members: g
                    .attackers
                    .iter()
                    .enumerate()
                    .map(|(i, &a)| match spec.attack_target {
                        AttackTarget::Victim => (a, g.victim),
                        AttackTarget::Colluders { .. } => (a, g.colluders[i % g.colluders.len()]),
                    })
                    .collect(),
            });
        }

        // The ring of per-group primary attack destinations, in group
        // order: the targets a Rolling adversary walks to shift its flood
        // across the topology's bottlenecks.
        let mut ring: Vec<HostAddr> = Vec::with_capacity(groups.len());
        for g in &groups {
            let primary = match spec.attack_target {
                AttackTarget::Victim => g.victim,
                AttackTarget::Colluders { .. } => g.colluders[0],
            };
            if !ring.contains(&primary) {
                ring.push(primary);
            }
        }

        let mut sim = Simulator::new(
            net,
            deployment,
            SimConfig {
                end_time: spec.scale.sim_time,
                seed: spec.scale.seed,
                sample_interval: spec.sample_interval,
                telemetry: spec.telemetry,
                ..Default::default()
            },
        );
        compiled.schedule(&mut sim);

        let mut flow_ids: Vec<Vec<FlowId>> = Vec::with_capacity(planned.len());
        let mut attack_start: Option<Nanos> = None;
        for (g, group) in planned.iter().enumerate() {
            let of = &groups[g / 2];
            let tag = drop_group(g);
            let mut ids = Vec::with_capacity(group.members.len());
            for (i, &(src, dst)) in group.members.iter().enumerate() {
                let id = match group.role {
                    Role::User => {
                        let seed = flow_seed(spec.scale.seed, g, i);
                        let traffic = spec.users.traffic;
                        let start = spec.users.start.start_of(i);
                        sim.add_flow(start, |id| traffic.make_flow(id, src, dst, seed))
                    }
                    Role::Attacker => {
                        let start = spec.attackers.start.start_of(i);
                        attack_start = Some(attack_start.map_or(start, |a: Nanos| a.min(start)));
                        // Adaptive agents draw from a dedicated attacker
                        // substream — never from the per-role `flow_seed`
                        // space legitimate flows use — so attacker count
                        // and strategy choice cannot perturb user traffic.
                        let ctx = || StrategyCtx {
                            seed: adversary_seed(spec.scale.seed, g, i),
                            member: i,
                            victim: of.victim,
                            colluder: (!of.colluders.is_empty())
                                .then(|| of.colluders[i % of.colluders.len()]),
                            ring: ring.clone(),
                            aimd_interval: spec.defense.netfence.ilim,
                        };
                        let strategy = spec.attackers.traffic;
                        sim.add_flow(start, |id| strategy.build_flow(id, src, dst, ctx))
                    }
                };
                sim.metrics.drops.tag(id, tag);
                ids.push(id);
            }
            flow_ids.push(ids);
        }

        sim.run();

        // Fold the engine's per-flow samples into per-role cumulative
        // series, using the planned groups' flow ids as the role map.
        let flows_of = |role: Role| -> Vec<FlowId> {
            let of_role = planned.iter().zip(&flow_ids).filter(|(g, _)| g.role == role);
            of_role.flat_map(|(_, ids)| ids.iter().copied()).collect()
        };
        let (user_flows, attacker_flows) = (flows_of(Role::User), flows_of(Role::Attacker));
        let samples = sim
            .samples()
            .iter()
            .map(|(at, per_flow)| GoodputSample {
                at: *at,
                user_bytes: user_flows.iter().map(|&f| per_flow[f]).sum(),
                attacker_bytes: attacker_flows.iter().map(|&f| per_flow[f]).sum(),
            })
            .collect();

        let roles = planned
            .into_iter()
            .zip(flow_ids)
            .enumerate()
            .map(|(g, (group, ids))| RoleSeries {
                group: group.name,
                role: group.role,
                flows: ids.iter().map(|&f| sim.progress(f).clone()).collect(),
                drops: sim.metrics.drops.group(drop_group(g)),
            })
            .collect();
        let links = bottlenecks
            .into_iter()
            .map(|b| LinkStats {
                utilization: sim.metrics.utilization(b.addr, b.bps),
                loss: sim.metrics.loss_rate(b.addr),
                label: b.label,
                capacity_bps: b.bps,
            })
            .collect();

        let dump = TelemetryDump {
            timeline_jsonl: sim.timeline.to_jsonl(),
            timeline_rows: sim.timeline.len(),
            timeline_evicted: sim.timeline.evicted(),
            trace_jsonl: sim.flight.to_jsonl(),
            trace_events: sim.flight.len(),
            trace_evicted: sim.flight.evicted(),
            link_drops: sim
                .metrics
                .drops
                .dropping_links()
                .map(|(idx, b)| (sim.net.links[idx].addr, *b))
                .collect(),
        };
        let record = Record {
            name: spec.name.clone(),
            defense: spec.defense.kind,
            sim_time: spec.scale.sim_time,
            seed: spec.scale.seed,
            senders,
            fair_share_bps: bottleneck_bps as f64 / competing_senders.max(1) as f64,
            roles,
            links,
            report: sim.report(),
            samples,
            attack_start,
            faults: compiled
                .windows
                .iter()
                .map(|w| FaultWindowRecord {
                    kind: w.kind.label().to_string(),
                    at: w.start,
                    clear_at: w.clear_at,
                })
                .collect(),
            engine: sim.metrics.profile,
        };
        // Every packet was delivered, dropped with a typed cause, or is still inside.
        let (injected, gone) =
            (sim.metrics.injected_pkts, sim.metrics.delivered_pkts + sim.metrics.total_drop_pkts());
        debug_assert_eq!(injected, gone + sim.into_in_network(), "'{}' leaked packets", spec.name);
        (record, dump)
    }
}

/// The drop-ledger group of planned group `g`: 1-based, so that the
/// ledger's group 0 holds only flows the runner did not spawn.
fn drop_group(g: usize) -> u16 {
    u16::try_from(g + 1).expect("a drop-group tag is a u16")
}

/// A per-flow seed derived from the scenario seed, stable across runs and
/// distinct across `(group, member)` so adding a flow never perturbs the
/// random stream of another.
fn flow_seed(base: u64, group: usize, member: usize) -> u64 {
    let mut x = base ^ ((group as u64 + 1) << 32) ^ (member as u64).wrapping_add(1);
    netfence_sim::rng::splitmix64(&mut x)
}

/// Domain separator of the attacker-agent seed substream.
const ADVERSARY_STREAM: u64 = 0xADF0_5EED_0000_0001;

/// The seed of one adaptive attacker agent: a *dedicated* substream of the
/// scenario seed, domain-separated from [`flow_seed`] so that changing the
/// attacker count or strategy can never consume or shift the seeds
/// legitimate flows derive theirs from — legitimate arrivals stay
/// byte-identical across attacker configurations (pinned by regression
/// test).
fn adversary_seed(base: u64, group: usize, member: usize) -> u64 {
    let mut x =
        base ^ ADVERSARY_STREAM ^ ((group as u64 + 1) << 32) ^ (member as u64).wrapping_add(1);
    netfence_sim::rng::splitmix64(&mut x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defense::DefenseKind;
    use crate::spec::{InternetShape, Scale, StartSchedule, TrafficSpec};

    #[test]
    fn dumbbell_record_has_expected_shape() {
        let spec = ScenarioSpec::dumbbell(Scale {
            src_ases: 2,
            hosts_per_as: 2,
            sim_time: 5 * SEC,
            seed: 3,
        })
        .defense(DefenseKind::None);
        let r = Runner::new(spec).run();
        assert_eq!(r.roles.len(), 2);
        assert_eq!(r.group("users").unwrap().flows.len(), 2);
        assert_eq!(r.group("attackers").unwrap().flows.len(), 2);
        assert_eq!(r.links.len(), 1);
        assert_eq!(r.senders, 4);
        assert!(r.fair_share_bps > 0.0);
    }

    #[test]
    fn parking_lot_record_has_six_groups_and_two_links() {
        let scale = Scale { src_ases: 1, hosts_per_as: 4, sim_time: 5 * SEC, seed: 3 };
        let spec = ScenarioSpec::parking_lot(scale, 1_000_000, 1_000_000)
            .defense(DefenseKind::None)
            .users(TrafficSpec::LongRunningTcp);
        let r = Runner::new(spec).run();
        // 3 groups × 4 senders actually simulated (src_ases is a dumbbell
        // knob and does not apply here).
        assert_eq!(r.senders, 12);
        assert_eq!(r.roles.len(), 6);
        for label in ["A-users", "A-attackers", "B-users", "B-attackers", "C-users", "C-attackers"]
        {
            assert!(r.group(label).is_some(), "missing group {label}");
        }
        assert_eq!(r.links.len(), 2);
        assert_eq!(r.links[0].label, "L1");
    }

    #[test]
    fn internet_record_has_one_group_per_victim_and_zipf_senders() {
        let scale = Scale { src_ases: 4, hosts_per_as: 5, sim_time: 5 * SEC, seed: 3 };
        let spec = ScenarioSpec::internet(scale, InternetShape::default())
            .defense(DefenseKind::None)
            .bottleneck_bps(2_000_000);
        let r = Runner::new(spec).run();
        // 4 stubs × 5 hosts-per-AS on average = 20 senders, one user per
        // stub (the dumbbell default carried over).
        assert_eq!(r.senders, 20);
        assert_eq!(r.group("users").unwrap().flows.len(), 4);
        assert_eq!(r.group("attackers").unwrap().flows.len(), 16);
        assert_eq!(r.links.len(), 1);
        assert_eq!(r.links[0].label, "bottleneck");
        assert_eq!(r.links[0].capacity_bps, 2_000_000);
    }

    #[test]
    fn multi_bottleneck_record_generalizes_the_parking_lot() {
        let scale = Scale { src_ases: 1, hosts_per_as: 4, sim_time: 5 * SEC, seed: 3 };
        let spec =
            ScenarioSpec::multi_bottleneck(scale, 3, 1, 1_000_000).defense(DefenseKind::None);
        let r = Runner::new(spec).run();
        // Groups: A + C1..C3 + B1, two role series each.
        assert_eq!(r.roles.len(), 10);
        assert!(r.group("A-users").is_some());
        assert!(r.group("C3-attackers").is_some());
        assert!(r.group("B1-users").is_some());
        // Links: L1..L3 + B1.
        assert_eq!(r.links.len(), 4);
        assert_eq!(r.links[3].label, "B1");
        assert_eq!(r.senders, 5 * 4);
    }

    #[test]
    fn flow_seeds_are_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for g in 0..4 {
            for i in 0..50 {
                assert!(seen.insert(flow_seed(7, g, i)));
            }
        }
    }

    #[test]
    fn adversary_seeds_live_in_their_own_substream() {
        // The attacker substream never collides with the per-role flow
        // seeds: a user flow's RNG stream is the same no matter how many
        // adversary agents exist or what they are seeded with.
        let mut seen = std::collections::BTreeSet::new();
        for g in 0..4 {
            for i in 0..50 {
                assert!(seen.insert(flow_seed(7, g, i)));
                assert!(seen.insert(adversary_seed(7, g, i)), "substream collision at ({g},{i})");
            }
        }
    }

    #[test]
    fn attacker_strategy_never_perturbs_legitimate_arrivals() {
        // Regression for the RNG-stream coupling fix: with the attackers
        // held silent (start beyond the end of the run), every strategy —
        // including the RNG-consuming FlashMimic — must produce
        // byte-identical Records. Any strategy leaking into the users'
        // seeds or arrival schedule would show up here.
        use netfence_adversary::AttackStrategy;
        let spec = ScenarioSpec::dumbbell(Scale {
            src_ases: 2,
            hosts_per_as: 3,
            sim_time: 4 * SEC,
            seed: 11,
        })
        .defense(DefenseKind::NetFence)
        .users(TrafficSpec::WebLike)
        .attacker_start(StartSchedule::delayed(5 * SEC));
        let fixed = Runner::new(spec.clone()).run();
        for strategy in AttackStrategy::lineup(1_000_000) {
            let adaptive = Runner::new(spec.clone().adversary(strategy)).run();
            assert_eq!(fixed, adaptive, "silent {} attackers changed the record", strategy.label());
        }
    }
}
