//! # netfence-experiments
//!
//! The declarative experiment layer of the NetFence reproduction, plus the
//! harnesses that regenerate every table and figure of the paper's
//! evaluation (§6).
//!
//! ## The `ScenarioSpec` → `Runner` → `Record` API
//!
//! Every experiment is one declarative [`ScenarioSpec`] (topology, scale,
//! defense, per-role traffic, attacker strategy), executed by a
//! [`Runner`] that builds the network exactly once, instantiates the
//! defense through the one [`DefenseSpec`] builder,
//! spawns role-tagged flows and returns a uniform [`Record`] with per-role
//! flow series and per-bottleneck statistics. Grids of (defense × sweep
//! point) cells run through [`SweepGrid`], optionally on several threads.
//!
//! ```
//! use netfence_experiments::prelude::*;
//!
//! let spec = ScenarioSpec::dumbbell(Scale::tiny())
//!     .defense(DefenseKind::NetFence)
//!     .fair_share(100_000)
//!     .attackers(AttackStrategy::static_cbr(1_000_000), AttackTarget::Victim);
//! let record = Runner::new(spec).run();
//! assert!(record.user_completion_ratio() >= 0.0);
//! ```
//!
//! ## Figure harnesses
//!
//! Each figure has a thin library module: a spec constructor (what the
//! integration tests and the `perf` benchmark run) and a `table` function
//! that sweeps it through [`SweepGrid`] and renders each [`Cell`]'s
//! [`Record`] as a row of plain text. [`registry::EXPERIMENTS`] lists them
//! all; the `netfence` binary (`cargo run --release -- run figN`) prints
//! one. See `EXPERIMENTS.md` at the repository root for the
//! paper-vs-measured comparison.

#![warn(missing_docs)]
// Dispatch names every variant: a new defense or drop cause must not fall
// silently into a `_` arm (DESIGN.md §13).
#![deny(clippy::wildcard_enum_match_arm)]

pub mod ablations;
pub mod chaos;
pub mod defense;
pub mod deployment;
pub mod fig10;
pub mod fig11;
pub mod fig8;
pub mod fig9;
pub mod reaction;
pub mod record;
pub mod registry;
pub mod report;
pub mod runner;
pub mod spec;
pub mod sweep;
pub mod topo_scale;
pub mod tournament;

pub use defense::{DefenseKind, DefenseSpec, Suppression};
pub use netfence_adversary::{AttackStrategy, ShrewTiming, StrategyCtx};
pub use netfence_faults::{FaultKind, FaultPlan, FaultTarget, FaultWindow};
pub use record::{
    DefenseReport, FaultWindowRecord, GoodputSample, LinkStats, Record, Role, RoleSeries,
};
pub use runner::{Runner, TelemetryDump};
pub use spec::{
    AttackTarget, Bandwidth, InternetShape, RoleSpec, Scale, ScenarioSpec, StartSchedule,
    TopologySpec, TrafficSpec,
};
pub use sweep::{Cell, SweepGrid};

/// Commonly used re-exports for writing scenarios.
pub mod prelude {
    pub use crate::defense::{
        netfence_config, DefenseContext, DefenseKind, DefenseSpec, Suppression, SuppressionGroup,
    };
    pub use crate::record::{
        DefenseReport, FaultWindowRecord, GoodputSample, LinkStats, Record, Role, RoleSeries,
    };
    pub use crate::runner::{Runner, TelemetryDump};
    pub use crate::spec::{
        AttackTarget, Bandwidth, InternetShape, RoleSpec, Scale, ScenarioSpec, StartSchedule,
        TopologySpec, TrafficSpec,
    };
    pub use crate::sweep::{Cell, SweepGrid};
    pub use netfence_adversary::{AttackStrategy, ShrewTiming, StrategyCtx};
    pub use netfence_faults::{FaultKind, FaultPlan, FaultTarget, FaultWindow};
    pub use netfence_sim::deploy::{DeploymentSpec, Placement};
    pub use netfence_sim::prelude::{DropBudget, DropCause, EngineProfile, TelemetryConfig};
    pub use netfence_topo::{BuiltTopo, MultiBottleneckSpec, TopoGroup, TopoSpec, TransitStubSpec};
}
