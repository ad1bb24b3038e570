//! # netfence-topo
//!
//! Deterministic internet-scale topology generation for the NetFence
//! reproduction.
//!
//! The paper's headline claim is scalability — per-sender state only at
//! access routers (§5.1), evaluated against 200K+ senders (§6.3) — which a
//! reproduction can only probe on networks larger and messier than the two
//! hand-wired evaluation topologies. This crate turns a declarative
//! [`TopoSpec`] into a [`BuiltTopo`]: a `netfence-sim` [`Network`] plus the
//! role metadata (users, attackers, victims, colluders, designated
//! bottlenecks, source ASes) an experiment harness needs to populate it.
//!
//! Four families:
//!
//! * [`TopoSpec::TransitStub`] — internet-like graphs: a tiered transit
//!   core, Zipf-sized stub ASes with configurable multihoming, and a victim
//!   region behind one designated bottleneck;
//! * [`TopoSpec::MultiBottleneck`] — generalized parking lots: K chained
//!   bottlenecks plus branching bottlenecks, each with its own sender
//!   group and victim;
//! * [`TopoSpec::Dumbbell`] / [`TopoSpec::ParkingLot`] — the paper's
//!   classic topologies as degenerate cases, built by the verbatim
//!   [`classic`] builders so harnesses migrating onto `TopoSpec` reproduce
//!   them byte for byte.
//!
//! Generation is pure: the same spec (including its `seed`) always yields
//! the same network — node order, link order, addresses and roles — so
//! experiment records stay reproducible.
//!
//! [`Network`]: netfence_sim::topology::Network

#![warn(missing_docs)]

pub mod built;
pub mod classic;
pub mod generate;
pub mod spec;

pub use built::{Bottleneck, BuiltTopo, TopoGroup};
pub use generate::{build_multi_bottleneck, build_transit_stub, zipf_sizes};
pub use spec::{MultiBottleneckSpec, TopoSpec, TransitStubSpec};
