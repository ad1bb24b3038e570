//! # netfence-sim
//!
//! A deterministic, packet-level, discrete-event network simulator — the
//! ns-2 substitute used to reproduce the NetFence evaluation (see
//! `DESIGN.md` at the repository root for the substitution argument).
//!
//! The crate provides:
//!
//! * an event-driven [`engine::Simulator`] whose link transmitter
//!   serializes, propagates and fails links, over pluggable queue
//!   disciplines ([`queue`]);
//! * transport agents: a simplified TCP Reno ([`tcp`]) and UDP constant
//!   bit-rate / synchronized on-off senders ([`udp`]);
//! * the web-like workload generator the paper uses ([`webtraffic`]);
//! * topology builders ([`topology`]) and measurement helpers
//!   ([`metrics`]);
//! * the per-node deployment API ([`deploy`]) through which DoS defense
//!   systems (NetFence, TVA+, StopIt, fair queuing — implemented in
//!   `netfence-systems`) install host shims and router agents on the
//!   deploying subset of the network, coordinate over a control-plane bus
//!   ([`control`]) and report typed post-run counters.
//!
//! The simulator knows nothing about any specific defense: shim headers ride
//! along as type-erased [`packet::Extension`]s, and nodes whose AS does not
//! deploy are legacy nodes with no agents at all.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod control;
pub mod deploy;
pub mod engine;
pub mod event_queue;
pub mod flow;
pub mod metrics;
pub mod packet;
pub mod queue;
pub mod rng;
pub mod tcp;
pub mod time;
pub mod topology;
pub mod udp;
pub mod webtraffic;

/// Commonly used re-exports.
pub mod prelude {
    pub use crate::control::{ChannelVerdict, ControlChannel, ControlPayload, ControlPlane};
    pub use crate::deploy::{
        DefenseReport, DeployMap, Deployment, DeploymentBuilder, DeploymentSpec, HostShim, Legacy,
        LinkRef, Placement, QueuePlan, RouterAction, RouterAgent, RouterFault,
    };
    pub use crate::engine::{FaultAction, SimConfig, Simulator};
    pub use crate::flow::{Flow, FlowActions, FlowProgress};
    pub use crate::metrics::Metrics;
    pub use crate::packet::{
        AsNum, ChannelClass, Extension, FlowId, HostAddr, LinkAddr, Packet, Protocol, TcpKind,
        TcpSegment,
    };
    pub use crate::queue::{
        Classifier, DropTail, DrrQueue, DualChannelQueue, HierDrrQueue, PriorityLevelQueue,
        QueueDisc, RedQueue,
    };
    pub use crate::rng::SimRng;
    pub use crate::tcp::{TcpFlow, TcpWorkload};
    pub use crate::time::{secs, to_secs, Nanos, MICRO, MILLI, SEC};
    pub use crate::topology::{Network, NetworkBuilder, NodeId, QueueKind};
    pub use crate::udp::{UdpFlow, UdpPattern};
    pub use netfence_telemetry::{
        jain_fairness_index, DropBudget, DropCause, DropLedger, EngineProfile, FlightRecorder,
        HopEvent, HopStage, IdMap, TelemetryConfig, Timeline, TimelineRow,
    };
}

pub use prelude::*;
