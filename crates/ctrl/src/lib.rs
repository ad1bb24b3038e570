//! # netfence-ctrl
//!
//! The asynchronous control-plane service: what happens to a closed-loop
//! DoS defense when its *own* coordination traffic has to cross a real
//! internet.
//!
//! The simulator's [`ControlPlane`] bus is, by default, an instant-reliable
//! oracle: every Passport key announcement and StopIt filter request
//! arrives at the current simulated instant. That forecloses the question
//! AITF makes central — *how fast does a defense react* when control
//! messages are delayed, lost, or the controller is down? This crate
//! supplies the missing transport as a [`ControlChannel`] implementation
//! plus the policy-state model that goes with it:
//!
//! * [`service::CtrlService`] — the transport: a fixed propagation
//!   latency, loss with bounded retransmission, and controller outages
//!   (fault windows of a `netfence_faults::FaultPlan`) during which
//!   messages are held until an exponential-backoff reconnect. Configured
//!   by [`config::CtrlConfig`].
//! * [`policy::PolicyStore`] — TTL'd policy rules with capacity limits:
//!   StopIt filters and TVA+ capability grants expire and must be
//!   refreshed over the (possibly degraded) transport, as NetFence's
//!   pairwise keys do in their own key store.
//!
//! The degenerate configuration [`config::CtrlConfig::ideal`] (zero
//! latency, zero loss) with no outage window reproduces the old bus
//! byte-for-byte — the regression suite pins this for every defense.
//!
//! [`ControlPlane`]: netfence_sim::control::ControlPlane
//! [`ControlChannel`]: netfence_sim::control::ControlChannel

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod config;
pub mod policy;
pub mod service;

/// Commonly used re-exports.
pub mod prelude {
    pub use crate::config::CtrlConfig;
    pub use crate::policy::{PolicyStats, PolicyStore};
    pub use crate::service::CtrlService;
}

pub use prelude::*;
