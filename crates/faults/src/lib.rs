//! # netfence-faults
//!
//! A declarative, deterministic data-plane chaos engine for the NetFence
//! simulator.
//!
//! A [`FaultPlan`] is a list of timed [`FaultWindow`]s — link failures,
//! router reboots, secret-key desyncs, clock skew, policy-store memory
//! pressure, controller outages — described against *roles* in the
//! topology ([`FaultTarget`]), not raw indices. [`FaultPlan::compile`]
//! resolves the plan against a concrete [`Network`] into [`FaultAction`]s
//! ready to be handed to [`Simulator::schedule_fault`], the outage windows
//! the control-plane transport is built with, and per-window metadata the
//! experiment harness folds into recovery metrics.
//!
//! ## Determinism
//!
//! Compilation is a pure function of `(plan, network, seed)`. Randomized
//! targets draw from a dedicated RNG substream (the seed is domain-separated
//! with [`FAULT_STREAM`]), so a fault plan can never perturb flow or
//! adversary randomness — and an **empty plan compiles to zero events**,
//! which schedules nothing and leaves the engine's event sequence
//! byte-for-byte identical to a run without fault machinery at all.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::fmt;

use netfence_sim::deploy::{HostShim, RouterAgent, RouterFault};
use netfence_sim::engine::{FaultAction, Simulator};
use netfence_sim::packet::HostAddr;
use netfence_sim::rng::SimRng;
use netfence_sim::time::Nanos;
use netfence_sim::topology::{Network, NodeId};

/// Domain separator mixed into the scenario seed for randomized fault
/// targets, so fault placement draws from its own stream and can never
/// perturb flow or adversary randomness (mirrors the adversary crate's
/// stream-separation idiom).
pub const FAULT_STREAM: u64 = 0xFA07_5EED_0000_0001;

/// What kind of fault a window injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Both directions of an inter-router link go down at `start` and are
    /// restored at `end`; routes are recomputed over the surviving graph
    /// at each instant.
    LinkFailure,
    /// The targeted router reboots at `start`: all volatile defense state
    /// (rate limiters, AS keys, filters, capability checks) is wiped and
    /// the router re-bootstraps through the control plane.
    RouterReboot,
    /// The targeted access router's time-varying secret rotates at
    /// `start`: held feedback stamps go stale and surface as typed
    /// `invalid-mac` demotions until freshly stamped feedback circulates.
    KeyDesync,
    /// The targeted router's protocol clock runs `offset_ns` ahead (+) or
    /// behind (−) engine time from `start` until `end`, stressing the
    /// feedback timestamp-expiration window (§4.4).
    ClockSkew {
        /// Signed skew in nanoseconds.
        offset_ns: i64,
    },
    /// A forced eviction burst at `start`: the targeted router's policy
    /// store evicts its `evict` earliest-expiry rules before their TTL.
    MemoryPressure {
        /// How many rules to evict.
        evict: usize,
    },
    /// Every controller of the out-of-band control plane is down from
    /// `start` until `end`: control messages sent inside the window are
    /// held until the senders' backoff reconnect after `end`. Not an
    /// engine event — the windows are handed to the control-plane
    /// transport when it is built ([`CompiledFaults::outages`]).
    ControllerOutage,
}

impl FaultKind {
    /// Short stable label (used for telemetry keys and recovery metrics);
    /// a router fault's is the engine's own [`RouterFault::label`].
    pub fn label(self) -> &'static str {
        match self.router_fault() {
            Some(fault) => fault.label(),
            None if self == FaultKind::ControllerOutage => "controller-outage",
            None => "link-failure",
        }
    }

    /// The fault a router's agent is handed when a window of this kind
    /// opens (`None` for link failures and controller outages, which never
    /// reach an agent).
    fn router_fault(self) -> Option<RouterFault> {
        match self {
            FaultKind::LinkFailure | FaultKind::ControllerOutage => None,
            FaultKind::RouterReboot => Some(RouterFault::Reboot),
            FaultKind::KeyDesync => Some(RouterFault::KeyDesync),
            FaultKind::ClockSkew { offset_ns } => Some(RouterFault::ClockSkew { offset_ns }),
            FaultKind::MemoryPressure { evict } => Some(RouterFault::MemoryPressure { evict }),
        }
    }
}

/// What a fault window targets, by topological role. Resolved against the
/// concrete [`Network`] at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// The access router of the given host (router faults only).
    AccessRouterOf(HostAddr),
    /// The `n`-th router in node order (router faults only).
    NthRouter(usize),
    /// The `n`-th inter-router duplex link pair, in first-appearance order
    /// (link failures only). Both directions fail together.
    NthInterRouterLink(usize),
    /// The control plane as a whole (controller outages only).
    ControlPlane,
    /// A seeded-random pick among the valid targets for the window's kind
    /// (drawn from the dedicated fault RNG substream).
    Random,
}

/// One timed fault: a kind, a target and a `[start, end]` window. For
/// one-shot kinds (reboot, key desync, memory pressure) the end is only
/// metadata — the recovery clock starts at `start`; for link failures,
/// clock skew and controller outages the end is when the fault clears.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// What happens.
    pub kind: FaultKind,
    /// To whom.
    pub target: FaultTarget,
    /// When the fault hits.
    pub start: Nanos,
    /// When the fault clears (`== start` for one-shot kinds).
    pub end: Nanos,
}

/// A declarative fault plan: an ordered list of [`FaultWindow`]s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// The empty plan: compiles to zero events, reproducing a fault-free
    /// run byte-for-byte.
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan holds no windows.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Number of windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// The declared windows, in order.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// Append an arbitrary window.
    pub fn push(&mut self, window: FaultWindow) -> &mut Self {
        self.windows.push(window);
        self
    }

    /// Fail `target` (both directions) from `start` until `end`.
    pub fn link_failure(&mut self, target: FaultTarget, start: Nanos, end: Nanos) -> &mut Self {
        self.push(FaultWindow { kind: FaultKind::LinkFailure, target, start, end })
    }

    /// Reboot `target` at `at`.
    pub fn router_reboot(&mut self, target: FaultTarget, at: Nanos) -> &mut Self {
        self.push(FaultWindow { kind: FaultKind::RouterReboot, target, start: at, end: at })
    }

    /// Rotate `target`'s time-varying secret at `at`.
    pub fn key_desync(&mut self, target: FaultTarget, at: Nanos) -> &mut Self {
        self.push(FaultWindow { kind: FaultKind::KeyDesync, target, start: at, end: at })
    }

    /// Skew `target`'s protocol clock by `offset_ns` from `start` to `end`.
    pub fn clock_skew(
        &mut self,
        target: FaultTarget,
        offset_ns: i64,
        start: Nanos,
        end: Nanos,
    ) -> &mut Self {
        self.push(FaultWindow { kind: FaultKind::ClockSkew { offset_ns }, target, start, end })
    }

    /// Force `target` to evict `evict` policy rules at `at`.
    pub fn memory_pressure(&mut self, target: FaultTarget, evict: usize, at: Nanos) -> &mut Self {
        self.push(FaultWindow {
            kind: FaultKind::MemoryPressure { evict },
            target,
            start: at,
            end: at,
        })
    }

    /// Take every controller down from `start` until `end`.
    pub fn controller_outage(&mut self, start: Nanos, end: Nanos) -> &mut Self {
        let (kind, target) = (FaultKind::ControllerOutage, FaultTarget::ControlPlane);
        self.push(FaultWindow { kind, target, start, end })
    }

    /// Resolve the plan against a concrete network into schedulable engine
    /// events, controller outage windows and per-window recovery metadata. Pure in
    /// `(self, net, seed)`; randomized targets draw from the
    /// [`FAULT_STREAM`]-separated substream of `seed` in declaration order.
    pub fn compile(&self, net: &Network, seed: u64) -> Result<CompiledFaults, FaultError> {
        let routers: Vec<NodeId> = net
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.host_addr().is_none())
            .map(|(i, _)| NodeId(i))
            .collect();
        // Inter-router duplex pairs in first-appearance order. A simplex
        // inter-router link (no reverse) forms a singleton "pair".
        let mut pairs: Vec<(usize, Option<usize>)> = Vec::new();
        for (li, l) in net.links.iter().enumerate() {
            if net.nodes[l.from.0].host_addr().is_some() || net.nodes[l.to.0].host_addr().is_some()
            {
                continue;
            }
            let mate = pairs.iter_mut().find(|(fi, rev)| {
                rev.is_none() && net.links[*fi].from == l.to && net.links[*fi].to == l.from
            });
            match mate {
                Some((_, rev)) => *rev = Some(li),
                None => pairs.push((li, None)),
            }
        }

        let mut rng = SimRng::new(seed ^ FAULT_STREAM);
        let mut events = Vec::new();
        let mut outages = Vec::new();
        let mut windows = Vec::new();
        for w in &self.windows {
            // Link failures and controller outages last for their window, so
            // theirs may not be empty; a one-shot kind's `end == start`.
            let lasting = matches!(w.kind, FaultKind::LinkFailure | FaultKind::ControllerOutage);
            if w.end < w.start || (lasting && w.end == w.start) {
                return Err(FaultError::EmptyWindow { start: w.start, end: w.end });
            }
            match w.kind {
                FaultKind::ControllerOutage => {
                    if w.target != FaultTarget::ControlPlane {
                        return Err(FaultError::TargetMismatch(w.target, w.kind));
                    }
                    outages.push((w.start, w.end));
                    windows.push(PlannedWindow { kind: w.kind, start: w.start, clear_at: w.end });
                }
                FaultKind::LinkFailure => {
                    let pair_idx = match w.target {
                        FaultTarget::NthInterRouterLink(n) => {
                            if n >= pairs.len() {
                                return Err(FaultError::NoSuchLinkPair(n));
                            }
                            n
                        }
                        FaultTarget::Random => {
                            if pairs.is_empty() {
                                return Err(FaultError::NoInterRouterLinks);
                            }
                            rng.uniform_u64(0, pairs.len() as u64) as usize
                        }
                        other => return Err(FaultError::TargetMismatch(other, w.kind)),
                    };
                    let (fwd, rev) = pairs[pair_idx];
                    events.push(FaultEvent {
                        at: w.start,
                        action: FaultAction::LinkDown { link: fwd },
                    });
                    events
                        .push(FaultEvent { at: w.end, action: FaultAction::LinkUp { link: fwd } });
                    if let Some(rev) = rev {
                        events.push(FaultEvent {
                            at: w.start,
                            action: FaultAction::LinkDown { link: rev },
                        });
                        events.push(FaultEvent {
                            at: w.end,
                            action: FaultAction::LinkUp { link: rev },
                        });
                    }
                    windows.push(PlannedWindow { kind: w.kind, start: w.start, clear_at: w.end });
                }
                kind => {
                    let node = match w.target {
                        FaultTarget::AccessRouterOf(host) => {
                            net.access_router_of(host).ok_or(FaultError::NoAccessRouter(host))?
                        }
                        FaultTarget::NthRouter(n) => {
                            *routers.get(n).ok_or(FaultError::NoSuchRouter(n))?
                        }
                        FaultTarget::Random => {
                            if routers.is_empty() {
                                return Err(FaultError::NoRouters);
                            }
                            routers[rng.uniform_u64(0, routers.len() as u64) as usize]
                        }
                        other => return Err(FaultError::TargetMismatch(other, w.kind)),
                    };
                    let Some(hit) = kind.router_fault() else {
                        unreachable!("link failures and controller outages are handled above")
                    };
                    let skew = matches!(kind, FaultKind::ClockSkew { .. });
                    let clear_at = if skew { w.end } else { w.start };
                    events.push(FaultEvent {
                        at: w.start,
                        action: FaultAction::Router { node, fault: hit },
                    });
                    if skew && w.end > w.start {
                        events.push(FaultEvent {
                            at: w.end,
                            action: FaultAction::Router {
                                node,
                                fault: RouterFault::ClockSkew { offset_ns: 0 },
                            },
                        });
                    }
                    windows.push(PlannedWindow { kind: w.kind, start: w.start, clear_at });
                }
            }
        }
        Ok(CompiledFaults { events, outages, windows })
    }
}

/// One schedulable engine fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Injection instant.
    pub at: Nanos,
    /// The engine action.
    pub action: FaultAction,
}

/// Per-window metadata for recovery metrics: when the fault hit and when
/// it cleared (for one-shot faults, the same instant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedWindow {
    /// What was injected.
    pub kind: FaultKind,
    /// When it hit.
    pub start: Nanos,
    /// When it cleared — the instant the recovery clock starts.
    pub clear_at: Nanos,
}

/// The result of compiling a plan against a network.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompiledFaults {
    /// Schedulable engine faults, in declaration order.
    pub events: Vec<FaultEvent>,
    /// Controller outage windows `[start, end)`, in declaration order: not
    /// engine events, but what the control-plane transport is built with.
    pub outages: Vec<(Nanos, Nanos)>,
    /// One entry per plan window, in declaration order.
    pub windows: Vec<PlannedWindow>,
}

impl CompiledFaults {
    /// Hand every compiled event to the simulator. An empty compilation
    /// schedules nothing at all.
    pub fn schedule<H: HostShim, R: RouterAgent>(&self, sim: &mut Simulator<H, R>) {
        for e in &self.events {
            sim.schedule_fault(e.at, e.action);
        }
    }
}

/// Why a plan failed to compile against a network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultError {
    /// The named host has no access router in this network.
    NoAccessRouter(HostAddr),
    /// Fewer routers than the requested index.
    NoSuchRouter(usize),
    /// Fewer inter-router link pairs than the requested index.
    NoSuchLinkPair(usize),
    /// A random router target with no routers at all.
    NoRouters,
    /// A random link target with no inter-router links at all.
    NoInterRouterLinks,
    /// `end < start`, or a zero-length link-failure or controller-outage
    /// window.
    EmptyWindow {
        /// Window start.
        start: Nanos,
        /// Window end.
        end: Nanos,
    },
    /// The target role does not fit the fault kind (e.g. a link target
    /// for a router reboot).
    TargetMismatch(FaultTarget, FaultKind),
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::NoAccessRouter(h) => write!(f, "host {h:#x} has no access router"),
            FaultError::NoSuchRouter(n) => write!(f, "no router with index {n}"),
            FaultError::NoSuchLinkPair(n) => write!(f, "no inter-router link pair with index {n}"),
            FaultError::NoRouters => write!(f, "network has no routers"),
            FaultError::NoInterRouterLinks => write!(f, "network has no inter-router links"),
            FaultError::EmptyWindow { start, end } => {
                write!(f, "invalid fault window [{start}, {end}]")
            }
            FaultError::TargetMismatch(target, kind) => {
                write!(f, "target {target:?} does not fit fault kind {:?}", kind.label())
            }
        }
    }
}

impl std::error::Error for FaultError {}

#[cfg(test)]
mod tests {
    use super::*;
    use netfence_sim::time::{MILLI, SEC};
    use netfence_sim::topology::QueueKind;

    const HOST_A: u32 = 0x0a_00_00_01;
    const HOST_B: u32 = 0x0b_00_00_01;

    /// host A — r1 — r2 — host B, plus a detour r1 — r3 — r2.
    fn net() -> Network {
        let mut b = Network::builder();
        let r1 = b.router(1, true);
        let r2 = b.router(2, false);
        let r3 = b.router(3, false);
        b.duplex(r1, r2, 1_000_000, 10 * MILLI, QueueKind::Red);
        b.duplex(r1, r3, 1_000_000, 10 * MILLI, QueueKind::Red);
        b.duplex(r3, r2, 1_000_000, 10 * MILLI, QueueKind::Red);
        b.host(HOST_A, 1, r1, 100_000_000, MILLI);
        b.host(HOST_B, 2, r2, 100_000_000, MILLI);
        b.build()
    }

    #[test]
    fn empty_plan_compiles_to_no_events() {
        let plan = FaultPlan::empty();
        assert!(plan.is_empty());
        let compiled = plan.compile(&net(), 7).unwrap();
        assert!(compiled.events.is_empty());
        assert!(compiled.windows.is_empty());
    }

    #[test]
    fn link_failure_fails_both_directions_and_restores() {
        let mut plan = FaultPlan::empty();
        plan.link_failure(FaultTarget::NthInterRouterLink(0), SEC, 2 * SEC);
        let compiled = plan.compile(&net(), 7).unwrap();
        assert_eq!(compiled.events.len(), 4, "down+up for both directions");
        let downs: Vec<_> = compiled
            .events
            .iter()
            .filter(|e| matches!(e.action, FaultAction::LinkDown { .. }))
            .collect();
        let ups: Vec<_> = compiled
            .events
            .iter()
            .filter(|e| matches!(e.action, FaultAction::LinkUp { .. }))
            .collect();
        assert_eq!(downs.len(), 2);
        assert_eq!(ups.len(), 2);
        assert!(downs.iter().all(|e| e.at == SEC));
        assert!(ups.iter().all(|e| e.at == 2 * SEC));
        assert_eq!(compiled.windows.len(), 1);
        assert_eq!(compiled.windows[0].clear_at, 2 * SEC);
    }

    #[test]
    fn access_router_target_resolves_and_clock_skew_clears() {
        let network = net();
        let r1 = network.access_router_of(HOST_A).unwrap();
        let mut plan = FaultPlan::empty();
        plan.clock_skew(FaultTarget::AccessRouterOf(HOST_A), 50 * MILLI as i64, SEC, 3 * SEC);
        let compiled = plan.compile(&network, 7).unwrap();
        assert_eq!(compiled.events.len(), 2);
        assert_eq!(
            compiled.events[0].action,
            FaultAction::Router {
                node: r1,
                fault: RouterFault::ClockSkew { offset_ns: 50 * MILLI as i64 }
            }
        );
        assert_eq!(
            compiled.events[1].action,
            FaultAction::Router { node: r1, fault: RouterFault::ClockSkew { offset_ns: 0 } }
        );
        assert_eq!(compiled.windows[0].clear_at, 3 * SEC);
    }

    #[test]
    fn one_shot_kinds_clear_at_their_start() {
        let mut plan = FaultPlan::empty();
        plan.router_reboot(FaultTarget::NthRouter(1), SEC)
            .key_desync(FaultTarget::NthRouter(0), 2 * SEC)
            .memory_pressure(FaultTarget::NthRouter(0), 3, 3 * SEC);
        let compiled = plan.compile(&net(), 7).unwrap();
        assert_eq!(compiled.events.len(), 3);
        assert!(compiled.windows.iter().all(|w| w.clear_at == w.start));
        assert_eq!(compiled.windows[0].kind.label(), "reboot");
    }

    #[test]
    fn controller_outage_is_a_window_not_an_engine_event() {
        let mut plan = FaultPlan::empty();
        plan.controller_outage(SEC, 3 * SEC);
        let compiled = plan.compile(&net(), 7).unwrap();
        assert!(compiled.events.is_empty());
        assert_eq!(compiled.outages, [(SEC, 3 * SEC)]);
        let w = compiled.windows[0];
        assert_eq!((w.kind.label(), w.start, w.clear_at), ("controller-outage", SEC, 3 * SEC));
    }

    #[test]
    fn random_targets_are_deterministic_in_the_seed() {
        let mut plan = FaultPlan::empty();
        plan.router_reboot(FaultTarget::Random, SEC);
        plan.link_failure(FaultTarget::Random, SEC, 2 * SEC);
        let network = net();
        let a = plan.compile(&network, 7).unwrap();
        let b = plan.compile(&network, 7).unwrap();
        assert_eq!(a, b);
        // A different seed draws from a different stream (with 3 routers
        // and 3 pairs this may still collide; assert only determinism and
        // that the draw is in range — the engine validates indices).
        let c = plan.compile(&network, 8).unwrap();
        assert_eq!(c.events.len(), a.events.len());
    }

    #[test]
    fn mismatched_targets_and_bad_windows_are_rejected() {
        let network = net();
        let mut plan = FaultPlan::empty();
        plan.router_reboot(FaultTarget::NthInterRouterLink(0), SEC);
        assert!(matches!(
            plan.compile(&network, 7),
            Err(FaultError::TargetMismatch(_, FaultKind::RouterReboot))
        ));
        let mut plan = FaultPlan::empty();
        plan.link_failure(FaultTarget::NthRouter(0), SEC, 2 * SEC);
        assert!(matches!(plan.compile(&network, 7), Err(FaultError::TargetMismatch(..))));
        let mut plan = FaultPlan::empty();
        plan.link_failure(FaultTarget::NthInterRouterLink(0), SEC, SEC);
        assert!(matches!(plan.compile(&network, 7), Err(FaultError::EmptyWindow { .. })));
        for end in [SEC, SEC - 1] {
            let mut plan = FaultPlan::empty();
            plan.controller_outage(SEC, end);
            assert_eq!(plan.compile(&network, 7), Err(FaultError::EmptyWindow { start: SEC, end }));
        }
        let mut plan = FaultPlan::empty();
        plan.router_reboot(FaultTarget::ControlPlane, SEC);
        assert!(matches!(plan.compile(&network, 7), Err(FaultError::TargetMismatch(..))));
        let mut plan = FaultPlan::empty();
        plan.router_reboot(FaultTarget::NthRouter(99), SEC);
        assert!(matches!(plan.compile(&network, 7), Err(FaultError::NoSuchRouter(99))));
        let mut plan = FaultPlan::empty();
        plan.key_desync(FaultTarget::AccessRouterOf(0xdead_beef), SEC);
        assert!(matches!(plan.compile(&network, 7), Err(FaultError::NoAccessRouter(_))));
    }

    #[test]
    fn compiled_events_schedule_onto_a_simulator() {
        let mut plan = FaultPlan::empty();
        plan.link_failure(FaultTarget::NthInterRouterLink(0), SEC, 2 * SEC);
        let network = net();
        let compiled = plan.compile(&network, 7).unwrap();
        let mut sim = Simulator::undefended(
            network,
            netfence_sim::engine::SimConfig { end_time: 3 * SEC, ..Default::default() },
        );
        compiled.schedule(&mut sim);
        sim.run();
        // After the run every failed link came back up.
        for e in &compiled.events {
            if let FaultAction::LinkDown { link } | FaultAction::LinkUp { link } = e.action {
                assert!(!sim.link_is_down(link));
            }
        }
    }
}
