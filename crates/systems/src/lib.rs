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
//! The set is closed — the paper compares exactly these four (§6.3) — so
//! one plain enum, [`Defense`], names them plus the undefended baseline.
//! [`Defense::deploy`] installs host shims and router agents only on the
//! ASes a `DeploymentSpec` covers, typed by the defense ([`Deployed`]). An
//! experiment can swap the defense (and its deployment extent) while
//! keeping the topology and workload fixed — exactly how the paper's
//! comparison figures and the incremental-deployment sweeps are produced.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
// Dispatch names every variant: a new defense or drop cause must not fall
// silently into a `_` arm (DESIGN.md §13).
#![deny(clippy::wildcard_enum_match_arm)]

pub mod fq;
pub mod headers;
pub mod netfence;
pub mod stopit;
pub mod tva;
mod victims;

pub use fq::FairQueuingDefense;
pub use headers::{NetFenceExt, TvaExt};
pub use netfence::{NetFenceDefense, NetFenceHostShim, NetFenceRouterAgent};
pub use stopit::{StopItDefense, StopItHostShim, StopItRouterAgent};
pub use tva::{TvaDefense, TvaHostShim, TvaRouterAgent};

use netfence_sim::deploy::{Deployment, DeploymentSpec};
use netfence_sim::topology::Network;

/// One configured defense, ready to deploy onto a network.
#[derive(Debug)]
pub enum Defense {
    /// The undefended baseline: no agents anywhere, default queues.
    None,
    /// Per-sender fair queuing at every link.
    Fq(FairQueuingDefense),
    /// The StopIt filter baseline.
    StopIt(StopItDefense),
    /// The TVA+ capability baseline.
    Tva(TvaDefense),
    /// NetFence.
    NetFence(NetFenceDefense),
}

impl Defense {
    /// Deploy onto `net` according to `spec` (the baseline ignores `spec`).
    pub fn deploy(&self, net: &Network, spec: &DeploymentSpec) -> Deployed {
        match self {
            Defense::None => Deployed::Plain(Deployment::undefended(net)),
            Defense::Fq(d) => Deployed::Plain(d.deploy(net, spec)),
            Defense::StopIt(d) => Deployed::StopIt(d.deploy(net, spec)),
            Defense::Tva(d) => Deployed::Tva(d.deploy(net, spec)),
            Defense::NetFence(d) => Deployed::NetFence(d.deploy(net, spec)),
        }
    }
}

/// A deployed [`Defense`], typed by the agents it installs: a run deploys
/// one defense, so it is matched once per run, not once per hook.
#[derive(Debug)]
pub enum Deployed {
    /// No agents: the undefended baseline, or FQ's queue plan.
    Plain(Deployment),
    /// StopIt's victim shims and filtering routers.
    StopIt(Deployment<StopItHostShim, StopItRouterAgent>),
    /// TVA+'s capability shims and verifying routers.
    Tva(Deployment<TvaHostShim, TvaRouterAgent>),
    /// NetFence's sender/receiver shims and access/bottleneck routers.
    NetFence(Deployment<NetFenceHostShim, NetFenceRouterAgent>),
}
