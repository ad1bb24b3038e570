//! # netfence-adversary
//!
//! The adaptive attacker strategy library: attackers as *stateful agents*
//! driven by the simulation clock, instead of fixed-rate flow specs.
//!
//! The paper's robustness claims (§5, §6.3) are only as strong as the
//! attackers a defense faces. This crate upgrades the evaluation's attack
//! vocabulary from "flood, on-off, collude" to a library of strategies
//! ([`AttackStrategy`]) that adapt over the run:
//!
//! * [`AttackStrategy::Static`] — a constant-bit-rate flood, so every
//!   fixed-rate scenario is a degenerate strategy;
//! * [`AttackStrategy::Shrew`] — on-off pulses, with explicit timing or
//!   tuned to the rate limiter's AIMD control interval (`Ilim`), the
//!   classic low-rate shrew attack;
//! * [`AttackStrategy::Rolling`] — shifts the flood across the chained
//!   bottlenecks of a multi-bottleneck mesh on a fixed schedule;
//! * [`AttackStrategy::Probe`] — observes its *own* goodput, infers which
//!   closed-loop defense engaged, and commits to the candidate load the
//!   defense handled worst (colluding flood vs NetFence, filter churn vs
//!   TTL'd StopIt filters);
//! * [`AttackStrategy::FlashMimic`] — ramps like a legitimate flash crowd,
//!   with per-flow jitter from the agent's dedicated RNG stream.
//!
//! Every agent draws randomness only from its own [`SimRng`] stream (the
//! seed arrives via [`StrategyCtx`]), so the choice of attacker strategy can
//! never perturb legitimate-flow arrivals.
//!
//! The agent itself is [`AdversaryFlow`]: a [`Flow`] wrapping an inner
//! [`UdpFlow`] it retunes (rate, duty cycle, destination) from control
//! timers. A strategy that never retunes — `Static`, `Shrew` — is that
//! bare [`UdpFlow`], with no agent around it.
//!
//! [`Flow`]: netfence_sim::flow::Flow
//! [`UdpFlow`]: netfence_sim::udp::UdpFlow
//! [`SimRng`]: netfence_sim::rng::SimRng

#![warn(missing_docs)]

pub mod agent;
pub mod ctx;
pub mod strategy;

pub use agent::AdversaryFlow;
pub use ctx::StrategyCtx;
pub use strategy::{strategic_request_priority, AttackStrategy, ShrewTiming};

/// Commonly used re-exports.
pub mod prelude {
    pub use crate::agent::AdversaryFlow;
    pub use crate::ctx::StrategyCtx;
    pub use crate::strategy::{AttackStrategy, ShrewTiming};
}
