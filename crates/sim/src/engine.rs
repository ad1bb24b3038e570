//! The discrete-event simulation engine: the event loop.
//!
//! The engine owns the network, the per-link transmitters, the transport
//! flows and the deployed defense agents, and drives them from a single
//! event queue ([`EventQueue`]). Packets move through the same stations a
//! real forwarding path has:
//!
//! 1. a flow injects a packet at its source host; the host's deployed shim
//!    (if any) may attach headers ([`HostShim::on_send`]);
//! 2. at every router the local agent (if any) decides to forward, delay
//!    (rate-limit) or drop the packet ([`RouterAgent::at_router`]); legacy
//!    routers forward blindly;
//! 3. the packet waits in the outgoing link's queue discipline, is
//!    serialized at link speed, propagates, and arrives at the next node;
//!    the link's owning router agent observes dequeues and drops
//!    (congestion feedback stamping, attack detection) — the transmitter
//!    lives in `engine/link.rs`;
//! 4. at the destination host the receiver shim sees it first, then the
//!    owning flow (which may answer with ACKs, echoes, …).
//!
//! Agents are indexed by node id and links by index, and are of the one
//! type the defense installs — the per-packet fast path neither hashes nor
//! dispatches dynamically to find and call a defense agent. Out-of-band
//! coordination (key exchange, filter requests) travels on the deployment's
//! [`ControlPlane`] bus, drained after every event.
//!
//! [`ControlPlane`]: crate::control::ControlPlane

use netfence_telemetry::{
    DropCause, FlightRecorder, HopEvent, HopStage, TelemetryConfig, Timeline, RING_CAPACITY,
};

use crate::control::ControlMsg;
use crate::deploy::{
    agent_at, DefenseReport, Deployment, HostShim, Legacy, LinkRef, RouterAction, RouterAgent,
    RouterFault,
};
use crate::event_queue::EventQueue;
use crate::flow::{Flow, FlowActions, FlowProgress};
use crate::metrics::Metrics;
use crate::packet::{FlowId, Packet};
use crate::time::{Nanos, MILLI, SEC};
use crate::topology::{Network, NodeId};

mod link;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Simulated duration.
    pub end_time: Nanos,
    /// Interval between agent `tick` calls. `0` disables ticking: no tick
    /// event is ever scheduled (as with `sample_interval`), rather than one
    /// rescheduling itself at the same instant forever.
    pub defense_tick: Nanos,
    /// Seed recorded for reproducibility (the engine itself is
    /// deterministic; flows draw their randomness from their own seeded
    /// generators).
    pub seed: u64,
    /// Interval between per-flow goodput samples (see
    /// [`Simulator::samples`]). `0` (the default) disables sampling and
    /// adds no events at all.
    pub sample_interval: Nanos,
    /// Gated telemetry observers (timeline probes ride the sample clock,
    /// the flight recorder hash-samples packet ids). The default is fully
    /// disabled; enabling observers never changes simulation behavior —
    /// the always-on drop ledger and engine profile are maintained
    /// regardless.
    pub telemetry: TelemetryConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            end_time: 10 * SEC,
            defense_tick: 100 * MILLI,
            seed: 1,
            sample_interval: 0,
            telemetry: TelemetryConfig::default(),
        }
    }
}

/// A fault injected into the running simulation as a first-class engine
/// event (see [`Simulator::schedule_fault`]).
///
/// Faults are scheduled from the outside (by a fault plan compiled against
/// the topology) and consume no engine randomness: a run with no scheduled
/// faults is event-for-event identical to a run on an engine without the
/// fault machinery at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Take a link down. Every packet queued on the link is lost as a
    /// typed [`DropCause::LinkDown`] drop; so is the packet being serialized
    /// (recorded when it would have arrived) unless the link is back before
    /// its last bit is out. Routes are recomputed over the surviving
    /// topology. Down-link drops are *not* reported to the owning agent's
    /// `on_link_drop` — a dead link carries no congestion feedback.
    LinkDown {
        /// Dense link index ([`Network::links`]).
        link: usize,
    },
    /// Restore a previously failed link and recompute routes over the
    /// healed topology. A no-op if the link is already up.
    LinkUp {
        /// Dense link index ([`Network::links`]).
        link: usize,
    },
    /// Deliver a [`RouterFault`] (reboot, key desync, clock skew, memory
    /// pressure) to the agent deployed at `node`. Legacy nodes without an
    /// agent ignore router faults.
    Router {
        /// The faulted router.
        node: NodeId,
        /// What happens to it.
        fault: RouterFault,
    },
}

#[derive(Debug)]
enum EventKind {
    FlowStart {
        flow: FlowId,
    },
    FlowTimer {
        flow: FlowId,
        token: u64,
    },
    Arrive {
        node: NodeId,
        pkt: Packet,
    },
    /// A wire that packets are waiting for is free again (idle links queue none).
    TransmitDone {
        link: usize,
    },
    /// Re-poll an idle link whose queue declined to release a packet (e.g.
    /// a strictly capped request channel waiting for tokens).
    LinkPoll {
        link: usize,
    },
    ReleaseDelayed {
        /// The router whose agent delayed the packet (it is notified on
        /// release so its rate limiter can account for the departure).
        node: NodeId,
        out_link: usize,
        pkt: Packet,
    },
    DefenseTick,
    /// A control-plane message whose transport verdict deferred delivery
    /// to a later simulated time (latency, retransmission, outage hold).
    ControlDeliver {
        msg: ControlMsg,
    },
    /// Record one per-flow goodput sample (only scheduled when
    /// `sample_interval > 0`).
    Sample,
    /// An injected fault (only scheduled via [`Simulator::schedule_fault`]).
    Fault {
        action: FaultAction,
    },
}

/// The simulator, typed by the one host-shim type `H` and router-agent type
/// `R` of the defense it runs ([`Legacy`] when it runs none).
pub struct Simulator<H = Legacy, R = Legacy> {
    /// Engine configuration.
    pub cfg: SimConfig,
    /// The static network.
    pub net: Network,
    /// The deployed defense under test.
    pub deployment: Deployment<H, R>,
    /// Collected counters.
    pub metrics: Metrics,
    /// Gated time-series probes (disabled unless
    /// [`SimConfig::telemetry`] enables the timeline).
    pub timeline: Timeline,
    /// Gated hash-sampled packet tracer (disabled unless
    /// [`SimConfig::telemetry`] sets a sample shift).
    pub flight: FlightRecorder,
    links: Vec<link::LinkState>,
    /// Which links are currently failed (set/cleared by [`FaultAction`]s).
    link_down: Vec<bool>,
    /// `(packet id, link)` of each packet whose link failed mid-serialization:
    /// a `LinkDown` drop when its `Arrive` pops. Empty in fault-free runs.
    cut: Vec<(u64, usize)>,
    flows: Vec<Box<dyn Flow>>,
    /// The one action set every flow callback fills (empty between events,
    /// capacity kept).
    actions: FlowActions,
    events: EventQueue<EventKind>,
    now: Nanos,
    next_pkt_id: u64,
    flow_samples: Vec<(Nanos, Vec<u64>)>,
}

impl<H, R> std::fmt::Debug for Simulator<H, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("flows", &self.flows.len())
            .field("links", &self.links.len())
            .field("defense", &self.deployment.name)
            .finish()
    }
}

impl Simulator {
    /// A simulator with no defense deployed anywhere.
    pub fn undefended(net: Network, cfg: SimConfig) -> Self {
        let deployment = Deployment::undefended(&net);
        Simulator::new(net, deployment, cfg)
    }
}

impl<H: HostShim, R: RouterAgent> Simulator<H, R> {
    /// Create a simulator for `net` with the defense `deployment` installed.
    /// Control-plane messages queued at deploy time (key announcements) are
    /// delivered before the first event.
    pub fn new(net: Network, mut deployment: Deployment<H, R>, cfg: SimConfig) -> Self {
        assert_eq!(
            deployment.hosts.len(),
            net.nodes.len(),
            "deployment was built for a different network"
        );
        let links =
            link::LinkState::for_network(&net, std::mem::take(&mut deployment.queues), cfg.seed);
        let timeline = if cfg.telemetry.timeline {
            Timeline::new(RING_CAPACITY)
        } else {
            Timeline::disabled()
        };
        let flight = match cfg.telemetry.trace_sample_shift {
            Some(shift) => FlightRecorder::new(shift, RING_CAPACITY),
            None => FlightRecorder::disabled(),
        };
        let metrics = Metrics::for_network(&net);
        let link_down = vec![false; links.len()];
        let mut sim = Simulator {
            cfg,
            net,
            deployment,
            metrics,
            timeline,
            flight,
            links,
            link_down,
            cut: Vec::new(),
            flows: Vec::new(),
            actions: FlowActions::default(),
            events: EventQueue::new(),
            now: 0,
            next_pkt_id: 0,
            flow_samples: Vec::new(),
        };
        // Deliver deploy-time coordination (the key announcements) before
        // anything moves.
        sim.drain_control();
        sim
    }

    /// Current simulated time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// The merged typed report of the deployed defense. Drops have one
    /// owner: the engine's always-on ledger, from which the budget and the
    /// per-mechanism drop fields are read here (agents keep no drop
    /// counters of their own).
    pub fn report(&self) -> DefenseReport {
        let budget = *self.metrics.drops.total();
        DefenseReport {
            request_drops: budget.get(DropCause::RequestRateLimit)
                + budget.get(DropCause::InvalidMac),
            regular_drops: budget.get(DropCause::RegularRateLimit),
            filtered_drops: budget.get(DropCause::StopItFilter),
            unauthorized_drops: budget.get(DropCause::TvaNoCapability),
            drop_budget: budget,
            ..self.deployment.report()
        }
    }

    /// Register a flow and schedule its start. The closure receives the
    /// flow's id.
    pub fn add_flow<F>(&mut self, start_at: Nanos, make: F) -> FlowId
    where
        F: FnOnce(FlowId) -> Box<dyn Flow>,
    {
        let id = self.flows.len();
        self.flows.push(make(id));
        self.schedule(start_at, EventKind::FlowStart { flow: id });
        id
    }

    /// Progress counters of one flow.
    pub fn progress(&self, flow: FlowId) -> &FlowProgress {
        self.flows[flow].progress()
    }

    /// Per-flow goodput samples: one `(time, delivered_bytes per flow id)`
    /// entry every `sample_interval` (empty when sampling is off).
    pub fn samples(&self) -> &[(Nanos, Vec<u64>)] {
        &self.flow_samples
    }

    fn schedule(&mut self, at: Nanos, kind: EventKind) {
        self.events.push(at.max(self.now), kind);
    }

    /// When a periodic event firing now recurs, if that is still inside the
    /// run. An interval that overflows `Nanos` is past any `end_time`.
    fn next_periodic(&self, interval: Nanos) -> Option<Nanos> {
        self.now.checked_add(interval).filter(|&next| next <= self.cfg.end_time)
    }

    /// Schedule a fault to fire at simulated time `at`. Faults are ordinary
    /// queued events: with none scheduled the event sequence — and therefore
    /// every derived counter and sample — is byte-identical to a fault-free
    /// run.
    pub fn schedule_fault(&mut self, at: Nanos, action: FaultAction) {
        self.schedule(at, EventKind::Fault { action });
    }

    /// Run the simulation to `cfg.end_time`.
    pub fn run(&mut self) {
        if self.cfg.defense_tick > 0 {
            self.schedule(self.cfg.defense_tick, EventKind::DefenseTick);
        }
        if self.cfg.sample_interval > 0 {
            self.schedule(self.cfg.sample_interval, EventKind::Sample);
        }
        while let Some((at, kind)) = self.events.pop() {
            if at > self.cfg.end_time {
                // Past the horizon: stays queued, it may carry a packet.
                self.events.push(at, kind);
                break;
            }
            debug_assert!(at >= self.now, "the event queue went back in time: {at} < {}", self.now);
            self.now = at;
            self.handle(kind);
            // A quiet bus is the common case: test it here, not behind a call.
            if self.deployment.bus.pending() > 0 {
                self.drain_control();
            }
        }
        self.now = self.cfg.end_time;
        self.metrics.end_time = self.cfg.end_time;
    }

    /// Packets still inside the network — in a link queue, on a wire or
    /// propagating (a pending `Arrive`), held by a rate limiter (a pending
    /// `ReleaseDelayed`): `injected_pkts` − `delivered_pkts` − drops.
    pub fn into_in_network(mut self) -> u64 {
        let queued: usize = self.links.iter().map(|l| l.queue.len_pkts()).sum();
        let pending = std::iter::from_fn(|| self.events.pop()).filter(|(_, k)| {
            matches!(k, EventKind::Arrive { .. } | EventKind::ReleaseDelayed { .. })
        });
        (queued + pending.count()) as u64
    }

    /// Deliver what the bus holds now; a message the transport defers comes
    /// back as a `ControlDeliver` event.
    fn drain_control(&mut self) {
        let Deployment { routers, bus, .. } = &mut self.deployment;
        let events = &mut self.events;
        bus.drain(self.now, routers, |at, msg| events.push(at, EventKind::ControlDeliver { msg }));
    }

    fn handle(&mut self, kind: EventKind) {
        self.metrics.profile.events += 1;
        match kind {
            EventKind::FlowStart { flow } => {
                self.metrics.profile.flow_events += 1;
                self.flows[flow].start(self.now, &mut self.actions);
                self.apply_actions(flow);
            }
            EventKind::FlowTimer { flow, token } => {
                self.metrics.profile.flow_events += 1;
                self.flows[flow].on_timer(self.now, token, &mut self.actions);
                self.apply_actions(flow);
            }
            EventKind::DefenseTick => {
                self.metrics.profile.tick_events += 1;
                let Deployment { hosts, routers, bus, .. } = &mut self.deployment;
                for agent in routers.iter_mut().flatten() {
                    agent.tick(self.now, bus);
                }
                for shim in hosts.iter_mut().flatten() {
                    shim.tick(self.now, bus);
                }
                if let Some(next) = self.next_periodic(self.cfg.defense_tick) {
                    self.schedule(next, EventKind::DefenseTick);
                }
            }
            EventKind::Arrive { node, pkt } => {
                self.metrics.profile.arrive_events += 1;
                self.arrive(node, pkt);
            }
            EventKind::TransmitDone { link } => {
                self.metrics.profile.link_events += 1;
                self.links[link].wake_pending = false;
                self.try_transmit(link);
            }
            EventKind::LinkPoll { link } => {
                self.metrics.profile.link_events += 1;
                self.links[link].poll_pending = false;
                self.try_transmit(link);
            }
            EventKind::ReleaseDelayed { node, out_link, mut pkt } => {
                self.metrics.profile.release_events += 1;
                let Deployment { routers, bus, .. } = &mut self.deployment;
                if let Some(agent) = agent_at(routers, node) {
                    agent.on_delayed_release(self.now, &mut pkt, bus);
                }
                self.enqueue_on_link(out_link, pkt);
            }
            EventKind::ControlDeliver { msg } => {
                self.metrics.profile.control_events += 1;
                let Deployment { routers, bus, .. } = &mut self.deployment;
                bus.deliver(self.now, routers, msg);
            }
            EventKind::Sample => {
                self.metrics.profile.sample_events += 1;
                let sample = self.flows.iter().map(|f| f.progress().delivered_bytes).collect();
                self.flow_samples.push((self.now, sample));
                if self.timeline.is_enabled() {
                    self.probe_timeline();
                }
                if let Some(next) = self.next_periodic(self.cfg.sample_interval) {
                    self.schedule(next, EventKind::Sample);
                }
            }
            EventKind::Fault { action } => match action {
                FaultAction::LinkDown { link } => self.fail_link(link),
                FaultAction::LinkUp { link } => self.restore_link(link),
                FaultAction::Router { node, fault } => {
                    self.mark_fault(fault.label(), node, None);
                    let Deployment { routers, bus, .. } = &mut self.deployment;
                    if let Some(agent) = agent_at(routers, node) {
                        agent.on_fault(self.now, fault, bus);
                    }
                }
            },
        }
    }

    /// Stamp one fault into the gated observers: a `fault` timeline row and
    /// a flight-recorder mark with `pkt = 0` (recorded whenever tracing is
    /// on), so packet traces can be read against the fault schedule.
    fn mark_fault(&mut self, label: &str, node: NodeId, link: Option<usize>) {
        if self.timeline.is_enabled() {
            let key = match link {
                Some(li) => format!("{label}:link:{}", self.net.links[li].addr),
                None => format!("{label}:node:{}", node.0),
            };
            self.timeline.record(self.now, "fault", key, 1.0);
        }
        self.trace_hop(0, 0, node, link, HopStage::Fault, None);
    }

    /// Sample queue depths, agent state, the drop ledger and
    /// control-transport state into the timeline. Only called on the sample
    /// clock when the timeline is enabled; everything recorded here is
    /// read-only observation.
    fn probe_timeline(&mut self) {
        let now = self.now;
        for (i, state) in self.links.iter_mut().enumerate() {
            let pkts = state.queue.len_pkts();
            if pkts > 0 {
                let key = format!("link:{}", self.net.links[i].addr);
                let bytes = state.queue.disc().len_bytes();
                self.timeline.record(now, "queue_depth_pkts", key.clone(), pkts as f64);
                self.timeline.record(now, "queue_depth_bytes", key, bytes as f64);
            }
        }
        for agent in self.deployment.routers.iter().flatten() {
            agent.probe(now, &mut self.timeline);
        }
        for (cause, count) in self.metrics.drops.total().nonzero() {
            self.timeline.record(now, "drops", cause.label().to_string(), count as f64);
        }
    }

    /// Carry out what the callback that just ran on `flow` asked for, and
    /// hand the emptied buffers back for the next callback. Nothing below
    /// re-enters a flow, so one action set serves the whole run.
    fn apply_actions(&mut self, flow: FlowId) {
        let mut actions = std::mem::take(&mut self.actions);
        for (at, token) in actions.timers.drain(..) {
            self.schedule(at, EventKind::FlowTimer { flow, token });
        }
        for mut pkt in actions.packets.drain(..) {
            self.next_pkt_id += 1;
            pkt.id = self.next_pkt_id;
            pkt.flow = flow;
            // The packet's only two address lookups: every hop after this
            // indexes host rows. A source no host owns panics here.
            let hosts = &self.net.hosts;
            (pkt.src_row, pkt.dst_row) = (hosts.row(pkt.src), hosts.row(pkt.dst));
            let node = hosts[pkt.src_row].node();
            pkt.src_as = self.net.nodes[node.0].as_num();
            self.metrics.injected_pkts += 1;
            self.trace_hop(pkt.id, flow, node, None, HopStage::Inject, None);
            let Deployment { hosts, bus, .. } = &mut self.deployment;
            if let Some(shim) = hosts[node.0].as_mut() {
                shim.on_send(self.now, &mut pkt, bus);
            }
            self.forward_from(node, pkt);
        }
        self.actions = actions;
    }

    /// Record one flight-recorder hop of packet `id` of `flow` if the packet
    /// is in the traced sample. Fault marks are packet 0 of flow 0, which
    /// every enabled recorder samples.
    #[inline]
    fn trace_hop(
        &mut self,
        id: u64,
        flow: FlowId,
        node: NodeId,
        link: Option<usize>,
        stage: HopStage,
        cause: Option<DropCause>,
    ) {
        if self.flight.sampled(id) {
            self.flight.record(HopEvent {
                at: self.now,
                pkt: id,
                flow: flow as u64,
                node: node.0 as u32,
                link: link.map(|l| l as u32),
                stage,
                cause,
            });
        }
    }

    /// Count `pkt` as dropped by `cause` at `node` (not by a link queue),
    /// and trace the drop.
    fn drop_at_node(&mut self, pkt: &Packet, node: NodeId, link: Option<usize>, cause: DropCause) {
        self.metrics.record_defense_drop(pkt.flow as u64, cause);
        self.trace_hop(pkt.id, pkt.flow, node, link, HopStage::Drop, Some(cause));
    }

    fn packet_at_node(&mut self, node: NodeId, pkt: Packet) {
        if let Some(addr) = self.net.nodes[node.0].host_addr() {
            if addr != pkt.dst {
                // Mis-delivered packet (should not happen with consistent
                // routing); count it as a drop.
                return self.drop_at_node(&pkt, node, None, DropCause::Misrouted);
            }
            let Deployment { hosts, bus, .. } = &mut self.deployment;
            if let Some(shim) = hosts[node.0].as_mut() {
                shim.on_receive(self.now, &pkt, bus);
            }
            self.metrics.delivered_pkts += 1;
            self.trace_hop(pkt.id, pkt.flow, node, None, HopStage::Deliver, None);
            let flow = pkt.flow;
            if flow < self.flows.len() {
                self.flows[flow].on_packet(self.now, &pkt, addr, &mut self.actions);
                self.apply_actions(flow);
            }
            return;
        }
        self.forward_from(node, pkt);
    }

    fn forward_from(&mut self, node: NodeId, mut pkt: Packet) {
        self.metrics.profile.forwards += 1;
        debug_assert!(
            (pkt.src_row, pkt.dst_row)
                == (self.net.hosts.row(pkt.src), self.net.hosts.row(pkt.dst)),
            "packet {} carries rows that no longer name {:#x} → {:#x}",
            pkt.id,
            pkt.src,
            pkt.dst
        );
        // Only the sending host forwards from a host node, so `src_row` is
        // the row `next_hop_row` wants there.
        let Some(out_link) = self.net.next_hop_row(node, pkt.src_row, pkt.dst_row) else {
            return self.drop_at_node(&pkt, node, None, DropCause::NoRoute);
        };
        let is_host = self.net.nodes[node.0].host_addr().is_some();
        if is_host {
            // The sending host's uplink: no router processing.
            self.enqueue_on_link(out_link, pkt);
            return;
        }
        let link = LinkRef { index: out_link, addr: self.net.links[out_link].addr };
        let Deployment { routers, bus, .. } = &mut self.deployment;
        let action = match agent_at(routers, node) {
            Some(agent) => {
                let is_access = self.net.hosts[pkt.src_row].router() == node;
                let action = agent.at_router(self.now, is_access, link, &mut pkt, bus);
                self.trace_hop(pkt.id, pkt.flow, node, Some(out_link), HopStage::Verdict, None);
                action
            }
            // A legacy router forwards blindly.
            None => RouterAction::Forward,
        };
        match action {
            RouterAction::Forward => self.enqueue_on_link(out_link, pkt),
            RouterAction::Delay { release_at } => {
                self.schedule(release_at, EventKind::ReleaseDelayed { node, out_link, pkt });
            }
            RouterAction::Drop(cause) => self.drop_at_node(&pkt, node, Some(out_link), cause),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{ControlPayload, ControlPlane};
    use crate::deploy::Deployment;
    use crate::rng::SimRng;
    use crate::tcp::{TcpFlow, TcpWorkload};
    use crate::topology::QueueKind;
    use crate::udp::UdpFlow;

    const HOST_A: u32 = 0x0a_00_00_01;
    const HOST_B: u32 = 0x0b_00_00_01;

    /// host A — r1 —(bottleneck)— r2 — host B
    fn dumbbell(bottleneck_bps: u64) -> (Network, u32) {
        let mut b = Network::builder();
        let r1 = b.router(1, true);
        let r2 = b.router(2, false);
        let (fwd, _rev) = b.duplex(r1, r2, bottleneck_bps, 10 * MILLI, QueueKind::Red);
        b.host(HOST_A, 1, r1, 100_000_000, MILLI);
        b.host(HOST_B, 2, r2, 100_000_000, MILLI);
        let net = b.build();
        let bottleneck_addr = net.links[fwd].addr;
        (net, bottleneck_addr)
    }

    #[test]
    fn tcp_file_transfer_end_to_end() {
        let (net, _addr) = dumbbell(10_000_000);
        let mut sim =
            Simulator::undefended(net, SimConfig { end_time: 20 * SEC, ..Default::default() });
        let flow = sim.add_flow(0, |id| {
            Box::new(TcpFlow::new(
                id,
                HOST_A,
                HOST_B,
                TcpWorkload::RepeatedFile { bytes: 20_000, gap: 100 * MILLI },
                SimRng::new(3),
            ))
        });
        sim.run();
        let p = sim.progress(flow);
        assert!(p.completions.len() > 20, "completed {} transfers", p.completions.len());
        assert_eq!(p.failed_transfers, 0);
        // RTT is ~24 ms and the file fits in a few windows: average transfer
        // time well under a second on an idle 10 Mbps path.
        assert!(p.avg_transfer_secs().unwrap() < 0.5);
    }

    #[test]
    fn udp_overload_is_limited_by_bottleneck() {
        let (net, bottleneck) = dumbbell(1_000_000);
        let mut sim =
            Simulator::undefended(net, SimConfig { end_time: 10 * SEC, ..Default::default() });
        let flow = sim.add_flow(0, |id| Box::new(UdpFlow::cbr(id, HOST_A, HOST_B, 5_000_000)));
        sim.run();
        let p = sim.progress(flow);
        // Goodput cannot exceed the 1 Mbps bottleneck.
        let goodput = p.goodput_bps(0, 10 * SEC);
        assert!(goodput < 1_050_000.0, "goodput {goodput}");
        assert!(goodput > 800_000.0, "goodput {goodput}");
        // The queue must have dropped the excess.
        assert!(sim.metrics.link_drop_pkts(bottleneck) > 1000);
        // Every queue drop is typed: a UDP flood on the regular channel
        // bleeds out as queue overflow, and the ledger agrees with the
        // untyped totals.
        assert_eq!(
            sim.metrics.link_budget(bottleneck).get(DropCause::QueueOverflow),
            sim.metrics.link_drop_pkts(bottleneck)
        );
        assert_eq!(sim.metrics.drops.total().total(), sim.metrics.total_drop_pkts());
        // Utilization of the bottleneck is essentially 100%.
        assert!(sim.metrics.utilization(bottleneck, 1_000_000) > 0.9);
    }

    #[test]
    fn two_tcp_flows_share_the_bottleneck() {
        // Two senders in AS 1 share a 2 Mbps bottleneck toward host B.
        let mut b = Network::builder();
        let r1 = b.router(1, true);
        let r2 = b.router(2, false);
        b.duplex(r1, r2, 2_000_000, 10 * MILLI, QueueKind::Red);
        b.host(HOST_A, 1, r1, 100_000_000, MILLI);
        b.host(HOST_A + 1, 1, r1, 100_000_000, MILLI);
        b.host(HOST_B, 2, r2, 100_000_000, MILLI);
        let net = b.build();

        let mut sim =
            Simulator::undefended(net, SimConfig { end_time: 30 * SEC, ..Default::default() });
        let f1 = sim.add_flow(0, |id| {
            Box::new(TcpFlow::new(id, HOST_A, HOST_B, TcpWorkload::LongRunning, SimRng::new(3)))
        });
        let f2 = sim.add_flow(0, |id| {
            Box::new(TcpFlow::new(id, HOST_A + 1, HOST_B, TcpWorkload::LongRunning, SimRng::new(4)))
        });
        sim.run();
        let g1 = sim.progress(f1).goodput_bps(0, 30 * SEC);
        let g2 = sim.progress(f2).goodput_bps(0, 30 * SEC);
        let total = g1 + g2;
        assert!(total > 1_500_000.0, "total goodput {total}");
        let ratio = g1.max(g2) / g1.min(g2).max(1.0);
        assert!(ratio < 2.5, "long-run TCP shares should be roughly fair: {g1} vs {g2}");
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let (net, bottleneck) = dumbbell(1_000_000);
            let mut sim =
                Simulator::undefended(net, SimConfig { end_time: 5 * SEC, ..Default::default() });
            sim.add_flow(0, |id| Box::new(UdpFlow::cbr(id, HOST_A, HOST_B, 3_000_000)));
            sim.add_flow(0, |id| {
                Box::new(TcpFlow::new(
                    id,
                    HOST_A,
                    HOST_B,
                    TcpWorkload::RepeatedFile { bytes: 20_000, gap: 50 * MILLI },
                    SimRng::new(9),
                ))
            });
            sim.run();
            (
                sim.metrics.link_tx_pkts(bottleneck),
                sim.metrics.link_drop_pkts(bottleneck),
                sim.progress(1).completions.len(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn router_agent_drop_action_is_honored() {
        /// An agent that drops every UDP packet at its router.
        #[derive(Debug)]
        struct DropUdp;
        impl RouterAgent for DropUdp {
            fn at_router(
                &mut self,
                _now: Nanos,
                _is_access: bool,
                _out_link: LinkRef,
                pkt: &mut Packet,
                _ctl: &mut ControlPlane,
            ) -> RouterAction {
                if pkt.protocol == crate::packet::Protocol::Udp {
                    RouterAction::Drop(DropCause::StopItFilter)
                } else {
                    RouterAction::Forward
                }
            }
        }
        let (net, _) = dumbbell(1_000_000);
        let mut b = Deployment::<Legacy, DropUdp>::builder(&net, "drop-udp");
        for (i, node) in net.nodes.iter().enumerate() {
            if node.host_addr().is_none() {
                b.router_agent(NodeId(i), DropUdp);
            }
        }
        let deployment = b.build();
        let mut sim =
            Simulator::new(net, deployment, SimConfig { end_time: 5 * SEC, ..Default::default() });
        let flow = sim.add_flow(0, |id| Box::new(UdpFlow::cbr(id, HOST_A, HOST_B, 1_000_000)));
        sim.run();
        assert_eq!(sim.progress(flow).delivered_bytes, 0);
        assert!(sim.metrics.defense_drop_pkts() > 100);
        // The typed budget carries the cause the agent stated, and the
        // report surfaces it.
        let report = sim.report();
        assert_eq!(
            report.drop_budget.get(DropCause::StopItFilter),
            sim.metrics.defense_drop_pkts()
        );
        assert_eq!(report.drop_budget.total(), sim.metrics.total_drop_pkts());
        assert_eq!(report.router_agents, 2);
    }

    #[test]
    fn control_messages_reach_agents_and_legacy_nodes_bounce() {
        /// A host shim that files a filter request with its own access
        /// router for every packet it sends.
        #[derive(Debug)]
        struct Pinger;
        impl HostShim for Pinger {
            fn on_send(&mut self, _now: Nanos, pkt: &mut Packet, ctl: &mut ControlPlane) {
                let ping = ControlPayload::FilterRequest { src: pkt.src, dst: pkt.dst };
                ctl.to_access_router_of(pkt.src, ping);
                // And one to the destination's access router, a legacy
                // router without an agent.
                ctl.to_access_router_of(pkt.dst, ping);
            }
        }
        #[derive(Debug, Default)]
        struct Counter {
            pings: u64,
        }
        impl RouterAgent for Counter {
            fn on_control(&mut self, _now: Nanos, msg: ControlPayload, _ctl: &mut ControlPlane) {
                if msg == (ControlPayload::FilterRequest { src: HOST_A, dst: HOST_B }) {
                    self.pings += 1;
                }
            }
            fn report(&self, out: &mut DefenseReport) {
                out.filters += self.pings as usize;
            }
        }
        let (net, _) = dumbbell(1_000_000);
        let r1 = net.access_router_of(HOST_A).unwrap();
        let mut b = Deployment::<Pinger, Counter>::builder(&net, "ping");
        b.host_shim(HOST_A, Pinger);
        b.router_agent(r1, Counter::default());
        let deployment = b.build();
        let mut sim =
            Simulator::new(net, deployment, SimConfig { end_time: SEC, ..Default::default() });
        sim.add_flow(0, |id| Box::new(UdpFlow::cbr(id, HOST_A, HOST_B, 500_000)));
        sim.run();
        let report = sim.report();
        assert!(report.filters > 10, "pings: {}", report.filters);
        assert_eq!(report.control_delivered, report.filters as u64);
        // The messages to HOST_B's agent-less router were dropped and
        // counted.
        assert_eq!(report.control_undeliverable, report.control_delivered);
    }

    #[test]
    fn telemetry_observers_never_change_the_run() {
        let run = |telemetry: TelemetryConfig| {
            let (net, bottleneck) = dumbbell(1_000_000);
            let mut sim = Simulator::undefended(
                net,
                SimConfig {
                    end_time: 5 * SEC,
                    sample_interval: 500 * MILLI,
                    telemetry,
                    ..Default::default()
                },
            );
            sim.add_flow(0, |id| Box::new(UdpFlow::cbr(id, HOST_A, HOST_B, 3_000_000)));
            sim.run();
            (
                sim.metrics.link_tx_pkts(bottleneck),
                sim.metrics.link_drop_pkts(bottleneck),
                sim.metrics.profile,
                sim.flight.len(),
                sim.timeline.len(),
            )
        };
        let off = run(TelemetryConfig::default());
        let on = run(TelemetryConfig::full(0));
        // Counters and profile are byte-identical whether or not the gated
        // observers ran…
        assert_eq!((off.0, off.1, off.2), (on.0, on.1, on.2));
        // …and only the enabled run actually captured anything.
        assert_eq!((off.3, off.4), (0, 0));
        assert!(on.3 > 0, "flight recorder captured nothing");
        assert!(on.4 > 0, "timeline captured nothing");
    }

    #[test]
    fn link_state_keeps_a_time_not_a_packet() {
        // 16 K links on the flood cells. Before the FIFO moved inline a link
        // was 40 bytes (the queue's fat pointer, two words, two flags) plus
        // a 48-byte boxed `DropTail` and its allocator header: ≥ 96 bytes in
        // two places. Now it is 72 in one: the 48-byte `DropTail` (the boxed
        // arm hides in its `VecDeque`'s capacity niche), two words, two flags.
        assert!(std::mem::size_of::<link::LinkState>() <= 72);
        // And a default-FIFO link owns no heap block until something waits:
        // 250 packets/s on 100 Mbps access links never find a wire busy.
        let (net, _) = dumbbell(10_000_000);
        let mut sim = Simulator::undefended(net, SimConfig { end_time: SEC, ..Default::default() });
        let flow = sim.add_flow(0, |id| Box::new(UdpFlow::cbr(id, HOST_A, HOST_B, 2_000_000)));
        sim.run();
        assert!(sim.progress(flow).delivered_bytes > 200_000);
        let fifos: Vec<_> = sim
            .links
            .iter()
            .filter_map(|l| match &l.queue {
                link::LinkQueue::Fifo(fifo) => Some(fifo.owns_heap()),
                link::LinkQueue::Planned(_) => None,
            })
            .collect();
        assert_eq!(fifos, [false; 4], "the four access-link directions");
    }

    #[test]
    fn a_packet_fits_a_128_byte_event_slot() {
        // Two host rows ride in each packet; the 16-byte TCP segment pays
        // for them. The slot is `(at, seq, next)` plus `Option<EventKind>`,
        // whose largest variant, `ReleaseDelayed`, is a packet and two words.
        assert!(std::mem::size_of::<Packet>() <= 88);
        assert_eq!(std::mem::size_of::<crate::packet::TcpSegment>(), 16);
        assert!(std::mem::size_of::<EventKind>() <= 104);
    }

    #[test]
    fn a_legacy_slot_is_empty_and_a_router_slot_is_a_pointer() {
        // An undefended run's per-node host slots take no room, and a
        // router slot of any agent type is one (nullable) pointer.
        assert_eq!(std::mem::size_of::<Option<Legacy>>(), 0);
        assert_eq!(std::mem::size_of::<Option<Box<Legacy>>>(), std::mem::size_of::<usize>());
        let slot = std::mem::size_of::<Option<Box<[u8; 1024]>>>();
        assert_eq!(slot, std::mem::size_of::<usize>());
        // And no router slot exists until an agent is installed.
        let (net, _) = dumbbell(1_000_000);
        let sim = Simulator::undefended(net, SimConfig::default());
        assert!(sim.deployment.routers.is_empty());
    }

    #[test]
    fn a_destination_no_host_owns_is_a_no_route_drop() {
        let (net, _) = dumbbell(1_000_000);
        let mut sim = Simulator::undefended(net, SimConfig { end_time: SEC, ..Default::default() });
        let flow = sim.add_flow(0, |id| Box::new(UdpFlow::cbr(id, HOST_A, 0xdead_0001, 500_000)));
        sim.run();
        let injected = sim.metrics.injected_pkts;
        assert!(injected > 10, "injected {injected}");
        assert_eq!(sim.progress(flow).delivered_bytes, 0);
        assert_eq!(sim.metrics.drops.total().get(DropCause::NoRoute), injected);
        // The books balance: every injected packet is delivered, dropped or
        // still inside the network.
        let books = sim.metrics.delivered_pkts + sim.metrics.total_drop_pkts();
        assert_eq!((books, sim.into_in_network()), (injected, 0));
    }

    #[test]
    fn degenerate_intervals_terminate() {
        // A zero interval used to reschedule itself at `now` forever; the
        // last two fire once and then overflow `now + interval`.
        for (end_time, interval, firings) in [
            (SEC, 0, 0),
            (SEC, Nanos::MAX, 0),
            (Nanos::MAX, Nanos::MAX - 5, 1),
            (Nanos::MAX, Nanos::MAX / 2 + 1, 1),
        ] {
            let (net, _) = dumbbell(1_000_000);
            let mut sim = Simulator::undefended(
                net,
                SimConfig {
                    end_time,
                    defense_tick: interval,
                    sample_interval: interval,
                    ..Default::default()
                },
            );
            sim.run();
            assert_eq!(sim.now(), end_time);
            let profile = sim.metrics.profile;
            assert_eq!((profile.tick_events, profile.sample_events), (firings, firings));
        }
    }

    #[test]
    fn link_failure_reroutes_to_surviving_path() {
        // r1 —(direct)— r2 plus a two-hop detour r1 — r3 — r2.
        let mut b = Network::builder();
        let r1 = b.router(1, true);
        let r2 = b.router(2, false);
        let r3 = b.router(3, false);
        let (direct, _) = b.duplex(r1, r2, 10_000_000, 5 * MILLI, QueueKind::DropTail);
        b.duplex(r1, r3, 10_000_000, 5 * MILLI, QueueKind::DropTail);
        b.duplex(r3, r2, 10_000_000, 5 * MILLI, QueueKind::DropTail);
        b.host(HOST_A, 1, r1, 100_000_000, MILLI);
        b.host(HOST_B, 2, r2, 100_000_000, MILLI);
        let net = b.build();
        let mut sim =
            Simulator::undefended(net, SimConfig { end_time: 4 * SEC, ..Default::default() });
        let flow = sim.add_flow(0, |id| Box::new(UdpFlow::cbr(id, HOST_A, HOST_B, 20_000_000)));
        sim.schedule_fault(2 * SEC, FaultAction::LinkDown { link: direct });
        sim.run();
        assert!(sim.link_is_down(direct));
        // Packets queued (or in flight) on the failed link died as typed
        // link-down drops…
        assert!(sim.metrics.drops.total().get(DropCause::LinkDown) > 0);
        // …and BFS moved the flow onto the detour: the bottleneck keeps
        // passing ~10 Mbps for the whole run, outage or not.
        let goodput = sim.progress(flow).goodput_bps(0, 4 * SEC);
        assert!(goodput > 8_000_000.0, "goodput {goodput}");
        assert_ne!(sim.net.next_hop(r1, HOST_B), Some(direct));
    }

    #[test]
    fn link_failure_without_detour_starves_until_restore() {
        let (net, bottleneck) = dumbbell(1_000_000);
        let link = net.links.iter().position(|l| l.addr == bottleneck).unwrap();
        let mut sim = Simulator::undefended(
            net,
            SimConfig { end_time: 6 * SEC, sample_interval: 500 * MILLI, ..Default::default() },
        );
        let flow = sim.add_flow(0, |id| Box::new(UdpFlow::cbr(id, HOST_A, HOST_B, 500_000)));
        sim.schedule_fault(2 * SEC, FaultAction::LinkDown { link });
        sim.schedule_fault(4 * SEC, FaultAction::LinkUp { link });
        sim.run();
        // With no surviving path, senders see typed no-route drops for the
        // duration of the outage.
        let no_route = sim.metrics.drops.total().get(DropCause::NoRoute);
        assert!(no_route > 50, "no-route drops: {no_route}");
        let at =
            |t: Nanos| sim.samples().iter().find(|(ts, _)| *ts == t).map(|(_, v)| v[flow]).unwrap();
        // Delivery is flat across the heart of the outage and resumes
        // after the restore.
        assert_eq!(at(3 * SEC), at(4 * SEC));
        assert!(at(6 * SEC) > at(4 * SEC) + 100_000);
    }

    #[test]
    fn router_faults_reach_the_agent_and_skip_legacy_nodes() {
        #[derive(Debug, Default)]
        struct FaultCounter {
            seen: Vec<RouterFault>,
        }
        impl RouterAgent for FaultCounter {
            fn on_fault(&mut self, _now: Nanos, fault: RouterFault, _ctl: &mut ControlPlane) {
                self.seen.push(fault);
            }
            fn report(&self, out: &mut DefenseReport) {
                out.filters += self.seen.len();
            }
        }
        let (net, _) = dumbbell(1_000_000);
        let r1 = net.access_router_of(HOST_A).unwrap();
        let r2 = net.access_router_of(HOST_B).unwrap();
        let mut b = Deployment::<Legacy, FaultCounter>::builder(&net, "fault-counter");
        b.router_agent(r1, FaultCounter::default());
        let deployment = b.build();
        let mut sim =
            Simulator::new(net, deployment, SimConfig { end_time: SEC, ..Default::default() });
        sim.schedule_fault(
            100 * MILLI,
            FaultAction::Router { node: r1, fault: RouterFault::Reboot },
        );
        sim.schedule_fault(
            200 * MILLI,
            FaultAction::Router { node: r1, fault: RouterFault::ClockSkew { offset_ns: 5 } },
        );
        // r2 has no agent: the fault lands on a legacy node and vanishes.
        sim.schedule_fault(
            300 * MILLI,
            FaultAction::Router { node: r2, fault: RouterFault::Reboot },
        );
        sim.run();
        assert_eq!(sim.report().filters, 2);
    }

    #[test]
    fn fault_marks_land_in_timeline_and_trace() {
        let (net, bottleneck) = dumbbell(1_000_000);
        let link = net.links.iter().position(|l| l.addr == bottleneck).unwrap();
        let mut sim = Simulator::undefended(
            net,
            // A 1-in-1024 packet sample still records every fault mark.
            SimConfig { end_time: SEC, telemetry: TelemetryConfig::full(10), ..Default::default() },
        );
        sim.schedule_fault(100 * MILLI, FaultAction::LinkDown { link });
        sim.schedule_fault(200 * MILLI, FaultAction::LinkUp { link });
        sim.run();
        let keys: Vec<_> =
            sim.timeline.rows().filter(|r| r.series == "fault").map(|r| r.key.clone()).collect();
        assert_eq!(keys.len(), 2, "fault rows: {keys:?}");
        assert!(keys[0].starts_with("link-down:"));
        assert!(keys[1].starts_with("link-up:"));
        let marks = sim.flight.events().filter(|e| e.stage == HopStage::Fault).count();
        assert_eq!(marks, 2);
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let run = || {
            let (net, bottleneck) = dumbbell(1_000_000);
            let link = net.links.iter().position(|l| l.addr == bottleneck).unwrap();
            let mut sim =
                Simulator::undefended(net, SimConfig { end_time: 5 * SEC, ..Default::default() });
            sim.add_flow(0, |id| Box::new(UdpFlow::cbr(id, HOST_A, HOST_B, 3_000_000)));
            sim.schedule_fault(SEC, FaultAction::LinkDown { link });
            sim.schedule_fault(2 * SEC, FaultAction::LinkUp { link });
            sim.run();
            (
                sim.metrics.link_tx_pkts(bottleneck),
                sim.metrics.drops.total().get(DropCause::LinkDown),
                sim.metrics.drops.total().get(DropCause::NoRoute),
                sim.progress(0).delivered_bytes,
            )
        };
        assert_eq!(run(), run());
    }
}
