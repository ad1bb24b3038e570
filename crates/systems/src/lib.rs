//! # netfence-systems
//!
//! DoS defense systems bound to the `netfence-sim` discrete-event
//! simulator:
//!
//! * [`netfence`] — the NetFence architecture (this repository's main
//!   subject), wiring the protocol state machines of `netfence-core` into
//!   the simulator's forwarding path;
//! * [`tva`] — the TVA+ capability baseline;
//! * [`stopit`] — the StopIt filter baseline;
//! * [`fq`] — per-sender fair queuing at every link;
//! * [`headers`] — the shim headers attached to simulated packets.
//!
//! All four systems implement `netfence_sim::deploy::DefenseFactory`: they
//! are *deployed onto* a network, installing per-node host shims and router
//! agents only on the ASes a `DeploymentSpec` covers. An experiment can
//! swap the defense (and its deployment extent) while keeping the topology
//! and workload fixed — exactly how the paper's comparison figures and the
//! incremental-deployment sweeps are produced.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod fq;
pub mod headers;
pub mod netfence;
pub mod stopit;
pub mod tva;
mod victims;

pub use fq::FairQueuingDefense;
pub use headers::{NetFenceExt, TvaExt};
pub use netfence::NetFenceDefense;
pub use stopit::StopItDefense;
pub use tva::TvaDefense;
