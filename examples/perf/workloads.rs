//! The five canonical workloads: how each is built from a seed through the
//! crates' public constructors, how one rep runs, and what a correct rep
//! looks like. The crates see generated specs, never a workload name.

use std::fmt::Write as _;

use netfence::ctrl::prelude::CtrlConfig;
use netfence::experiments::chaos::{chaos_spec, ChaosFault, ChaosPoint, ChaosTopology, Severity};
use netfence::experiments::fig8::{fig8_spec, FIG8_SWEEP};
use netfence::experiments::fig9::{fig9_spec, UserTraffic};
use netfence::experiments::prelude::*;
use netfence::experiments::topo_scale::scale_spec;
use netfence::sim::time::{MILLI, SEC};

use crate::json::Value;

/// Workload names with the reason each exists (mirrored in
/// `BENCHMARK.json`; `perf check` keeps the two in step).
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "flood_netfence",
        "8K-host internet under a UDP flood with NetFence deployed: crypto, access/bottleneck policing and three-channel queues do most of the work",
    ),
    (
        "flood_none",
        "same topology and flood with no defense: bypasses crypto/core/systems, so only an engine or routing change may move it",
    ),
    (
        "collude_web",
        "colluding flood against web-like TCP users: feedback echo, L-down stamping and the limiter-update path the floods never reach",
    ),
    (
        "chaos_ctrl",
        "faults, a lossy control plane and adaptive shrew attackers on a 2K-host internet: the only cell where ctrl, faults and adversary work",
    ),
    (
        "sweep_small",
        "20 short fig8 cells over all five systems on 2 threads: per-cell set-up and thread scaling dominate, and it alone runs TVA+/StopIt/FQ",
    ),
];

enum Body {
    /// One scenario cell.
    Cell(Box<ScenarioSpec>),
    /// The fig8 grid (every defense × every sweep point) at this scale.
    Sweep(Scale),
}

pub struct Workload {
    pub name: &'static str,
    body: Body,
    /// Reduced size for `perf check`: structure is checked, behaviour
    /// thresholds (which need the full population) are not.
    small: bool,
}

/// Worker threads of the sweep workload: at most 2, so the figure is
/// comparable between this 2-core box and anything larger.
pub fn sweep_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

impl Workload {
    pub fn new(name: &str, seed: u64, small: bool) -> Option<Workload> {
        let (name, _) = *WORKLOADS.iter().find(|(n, _)| *n == name)?;
        let flood_hosts = if small { 800 } else { 8000 };
        let cell = |spec: ScenarioSpec| Body::Cell(Box::new(spec));
        let body = match name {
            "flood_netfence" => cell(scale_spec(flood_hosts, DefenseKind::NetFence).seed(seed)),
            "flood_none" => cell(scale_spec(flood_hosts, DefenseKind::None).seed(seed)),
            "collude_web" => {
                let hosts_per_as = if small { 4 } else { 40 };
                let scale = Scale { src_ases: 10, hosts_per_as, sim_time: 30 * SEC, seed };
                // WebLike, not LongRunning: long-running TCP ignores the seed.
                cell(fig9_spec(&scale, DefenseKind::NetFence, UserTraffic::WebLike, 100_000))
            }
            "chaos_ctrl" => {
                let src_ases = if small { 4 } else { 40 };
                let scale = Scale { src_ases, hosts_per_as: 50, sim_time: 25 * SEC, seed };
                let point = ChaosPoint {
                    topology: ChaosTopology::Internet,
                    fault: ChaosFault::LinkFailure,
                    severity: Severity::Mild,
                };
                let t = FaultTarget::Random;
                let mut plan = FaultPlan::empty();
                plan.link_failure(t, 10 * SEC, 14 * SEC)
                    .router_reboot(t, 12 * SEC)
                    .key_desync(t, 16 * SEC)
                    .memory_pressure(t, 10_000, 18 * SEC);
                cell(
                    chaos_spec(&scale, DefenseKind::NetFence, &point)
                        .named("chaos-ctrl")
                        .fault_plan(plan)
                        .control(CtrlConfig::ideal().latency(50 * MILLI).lossy(0.1))
                        .adversary(AttackStrategy::shrew_tuned(1_000_000)),
                )
            }
            "sweep_small" => {
                let (src_ases, hosts_per_as) = if small { (4, 3) } else { (10, 10) };
                Body::Sweep(Scale { src_ases, hosts_per_as, sim_time: 30 * SEC, seed })
            }
            _ => unreachable!("every name in WORKLOADS is built above"),
        };
        Some(Workload { name, body, small })
    }

    /// The single cell's spec (`None` for the sweep).
    pub fn spec(&self) -> Option<&ScenarioSpec> {
        match &self.body {
            Body::Cell(spec) => Some(spec),
            Body::Sweep(_) => None,
        }
    }

    /// Cells one rep runs (the unit `ops` counts).
    pub fn cells(&self) -> u64 {
        match &self.body {
            Body::Cell(_) => 1,
            Body::Sweep(_) => (DefenseKind::EVERY.len() * FIG8_SWEEP.len()) as u64,
        }
    }

    /// One full rep: build + deploy + simulate + fold, for every cell.
    pub fn run(&self) -> Vec<Record> {
        match &self.body {
            Body::Cell(spec) => vec![Runner::new(ScenarioSpec::clone(spec)).run()],
            Body::Sweep(scale) => sweep(scale, sweep_threads()),
        }
    }

    /// The same rep with a zero simulated horizon: topology, routes, deploy,
    /// key exchange, flow spawn and fold, but no simulated time.
    pub fn run_zero_horizon(&self) -> Vec<Record> {
        match &self.body {
            Body::Cell(spec) => vec![Runner::new(ScenarioSpec::clone(spec).sim_time(0)).run()],
            Body::Sweep(scale) => sweep(&Scale { sim_time: 0, ..*scale }, sweep_threads()),
        }
    }

    /// The sweep on one thread through `SweepGrid::run` (`None` for cells).
    pub fn run_serial_sweep(&self) -> Option<Vec<Record>> {
        match &self.body {
            Body::Cell(_) => None,
            Body::Sweep(scale) => Some(sweep(scale, 1)),
        }
    }

    /// Names of the correctness checks `records` (one rep) fails.
    pub fn failed_checks(&self, records: &[Record]) -> Vec<&'static str> {
        let mut failed = Vec::new();
        let mut check = |name: &'static str, ok: bool| {
            if !ok {
                failed.push(name);
            }
        };
        check(
            "drops_equal_drop_budget",
            records.iter().all(|r| r.engine.drops == r.report.drop_budget.total()),
        );
        check(
            "dequeues_le_enqueues_le_forwards",
            records.iter().all(|r| {
                r.engine.dequeues <= r.engine.enqueues && r.engine.enqueues <= r.engine.forwards
            }),
        );
        match &self.body {
            Body::Sweep(_) => {
                let expected: Vec<(DefenseKind, u64)> = FIG8_SWEEP
                    .iter()
                    .flat_map(|&(_, share)| DefenseKind::EVERY.map(|system| (system, share)))
                    .collect();
                check(
                    "sweep_point_major_order",
                    records.len() == expected.len()
                        && records.iter().zip(&expected).all(|(r, &(system, share))| {
                            r.defense == system && (r.fair_share_bps - share as f64).abs() < 1.0
                        }),
                );
            }
            Body::Cell(_) if self.small => {}
            Body::Cell(_) => {
                let r = &records[0];
                // Fair share is 50 kbps on the floods: the defense must matter.
                match self.name {
                    "flood_netfence" => {
                        check("defended_users_keep_goodput", r.avg_user_bps() >= 25_000.0)
                    }
                    "flood_none" => check("undefended_users_starve", r.avg_user_bps() < 25_000.0),
                    "collude_web" => {
                        check("bottleneck_utilized", r.bottleneck_utilization() >= 0.8);
                        check("limiters_created", r.report.rate_limiters > 0);
                    }
                    "chaos_ctrl" => {
                        check("four_fault_windows", r.faults.len() == 4);
                        check("recovery_measured", r.worst_fault_recovery_secs().is_some());
                        check("control_retransmits", r.report.control_retransmits > 0);
                    }
                    _ => {}
                }
            }
        }
        failed
    }
}

/// The generated internet a scenario runs on, as `Runner` derives it from
/// the spec (`None` for the classic topologies) — lets the traced run and
/// the layer table build, deploy on and re-route the very network a
/// workload simulates.
pub fn transit_stub_of(spec: &ScenarioSpec) -> Option<TransitStubSpec> {
    let TopologySpec::Internet(shape) = spec.topology else { return None };
    Some(TransitStubSpec {
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
        colluder_ases: match spec.attack_target {
            AttackTarget::Victim => 0,
            AttackTarget::Colluders { ases } => ases.max(1),
        },
        seed: spec.scale.seed,
    })
}

fn sweep(scale: &Scale, threads: usize) -> Vec<Record> {
    let grid = SweepGrid::new(DefenseKind::EVERY, FIG8_SWEEP);
    let spec = |system, &(_, share): &(u64, u64)| fig8_spec(scale, system, share);
    let cells = if threads > 1 { grid.run_parallel(threads, spec) } else { grid.run(spec) };
    cells.into_iter().map(|c| c.record).collect()
}

/// The exact, simulated-side outcome of one rep, summed over its cells.
/// Identical on every rep of a (workload, seed), and across commits unless
/// a change alters simulated behaviour.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Folded {
    /// FNV-1a over the `Debug` rendering of every record.
    pub digest: u64,
    /// Packets sent by all user and attacker flows.
    pub packets: u64,
    /// Mean over cells of the average user / attacker goodput.
    pub user_goodput_bps: f64,
    pub attacker_goodput_bps: f64,
    pub engine: EngineProfile,
    pub drop_budget_total: u64,
    pub rate_limiters: u64,
    pub stamped_decr: u64,
    pub request_drops: u64,
    pub regular_drops: u64,
    pub invalid_feedback: u64,
    pub control_delivered: u64,
    pub control_retransmits: u64,
    pub control_lost: u64,
}

struct Fnv1a(u64);

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

pub fn fold(records: &[Record]) -> Folded {
    let mut hash = Fnv1a(0xcbf2_9ce4_8422_2325);
    let mut f = Folded::default();
    for r in records {
        let _ = write!(hash, "{r:?}");
        f.packets += r.users().chain(r.attackers()).map(|p| p.packets_sent).sum::<u64>();
        f.user_goodput_bps += r.avg_user_bps() / records.len() as f64;
        f.attacker_goodput_bps += r.avg_attacker_bps() / records.len() as f64;
        let (e, p) = (&mut f.engine, &r.engine);
        e.events += p.events;
        e.flow_events += p.flow_events;
        e.arrive_events += p.arrive_events;
        e.link_events += p.link_events;
        e.release_events += p.release_events;
        e.tick_events += p.tick_events;
        e.control_events += p.control_events;
        e.sample_events += p.sample_events;
        e.forwards += p.forwards;
        e.enqueues += p.enqueues;
        e.dequeues += p.dequeues;
        e.drops += p.drops;
        f.drop_budget_total += r.report.drop_budget.total();
        f.rate_limiters += r.report.rate_limiters as u64;
        f.stamped_decr += r.report.stamped_decr;
        f.request_drops += r.report.request_drops;
        f.regular_drops += r.report.regular_drops;
        f.invalid_feedback += r.report.invalid_feedback;
        f.control_delivered += r.report.control_delivered;
        f.control_retransmits += r.report.control_retransmits;
        f.control_lost += r.report.control_lost;
    }
    f.digest = hash.0;
    f
}

impl Folded {
    /// The exact fields printed per workload so two commits can be compared
    /// bit for bit (non-gating in `perf diff`).
    pub fn to_json(&self) -> Value {
        let mut o = Value::obj();
        o.set("record_digest", format!("{:016x}", self.digest))
            .set("sim.packets", self.packets)
            .set("sim.user_goodput_bps", self.user_goodput_bps)
            .set("sim.attacker_goodput_bps", self.attacker_goodput_bps)
            .set("sim.events", self.engine.events)
            .set("sim.forwards", self.engine.forwards)
            .set("sim.drops", self.engine.drops)
            .set("sim.drop_budget_total", self.drop_budget_total);
        o
    }
}
