//! The declarative topology vocabulary: [`TopoSpec`] and the parameter
//! structs of the generated families.
//!
//! A `TopoSpec` is a pure value (all-`Copy`, `Eq`, `Hash`) that fully
//! determines a network: building the same spec twice yields byte-identical
//! [`BuiltTopo`]s (same node/link order, same addresses, same roles). All
//! randomness — stub sizing, multihoming choices — is derived from the
//! spec's own `seed` via splitmix64, never from global state.

use crate::built::BuiltTopo;
use crate::classic::{build_dumbbell, build_parking_lot};
use crate::generate::{build_multi_bottleneck, build_transit_stub};

/// A declarative topology: which family, at what size and capacities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopoSpec {
    /// The paper's Figure 8/9/11 dumbbell (hand-wired, see
    /// [`classic`](crate::classic)).
    Dumbbell {
        /// Source ASes.
        src_ases: usize,
        /// Hosts per source AS.
        hosts_per_as: usize,
        /// Legitimate users per source AS (the rest are attackers).
        legit_per_as: usize,
        /// Bottleneck capacity, bits per second.
        bottleneck_bps: u64,
        /// Colluder ASes attached behind the bottleneck.
        colluder_ases: usize,
    },
    /// The paper's Figure 10 parking lot (hand-wired, see
    /// [`classic`](crate::classic)).
    ParkingLot {
        /// Senders per group.
        per_group: usize,
        /// Legitimate users per group.
        legit_per_group: usize,
        /// Capacity of L1, bits per second.
        l1_bps: u64,
        /// Capacity of L2, bits per second.
        l2_bps: u64,
    },
    /// An internet-like transit-stub graph: a tiered transit core plus
    /// Zipf-sized stub ASes with configurable multihoming.
    TransitStub(TransitStubSpec),
    /// A generalized parking lot: K chained bottlenecks plus optional
    /// branching bottlenecks, each with its own sender group and victim.
    MultiBottleneck(MultiBottleneckSpec),
}

impl TopoSpec {
    /// Build the network and its role metadata. Deterministic: the same
    /// spec always yields the same [`BuiltTopo`].
    pub fn build(&self) -> BuiltTopo {
        match *self {
            TopoSpec::Dumbbell {
                src_ases,
                hosts_per_as,
                legit_per_as,
                bottleneck_bps,
                colluder_ases,
            } => {
                build_dumbbell(src_ases, hosts_per_as, legit_per_as, bottleneck_bps, colluder_ases)
            }
            TopoSpec::ParkingLot { per_group, legit_per_group, l1_bps, l2_bps } => {
                build_parking_lot(per_group, legit_per_group, l1_bps, l2_bps)
            }
            TopoSpec::TransitStub(ref s) => build_transit_stub(s),
            TopoSpec::MultiBottleneck(ref s) => build_multi_bottleneck(s),
        }
    }
}

/// Parameters of a transit-stub graph.
///
/// The shape: a tier-1 core of `transit_ases` transit ASes (each a chain of
/// `routers_per_transit` routers, border routers peered pairwise across
/// ASes), `stub_ases` Zipf-sized stub ASes homed to `multihoming` distinct
/// transit routers, and a victim region — a victim-side border router
/// behind the single designated bottleneck link, with the victim AS and
/// `colluder_ases` colluder ASes hanging off it (the dumbbell's
/// `Rbl → Rbr` structure, with an internet-like source side).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransitStubSpec {
    /// Transit (tier-1) ASes. ≥ 1.
    pub transit_ases: usize,
    /// Routers per transit AS. ≥ 1.
    pub routers_per_transit: usize,
    /// Stub (edge) ASes hosting senders. ≥ 1.
    pub stub_ases: usize,
    /// Total sender hosts, distributed over the stubs by Zipf rank
    /// (every stub gets at least one). Must be ≥ `stub_ases`.
    pub hosts: usize,
    /// Legitimate users per stub AS (capped at the stub's size; the rest of
    /// each stub's hosts are attackers).
    pub legit_per_stub: usize,
    /// Zipf skew of the stub sizes, in milli-units (`0` = uniform, `1000` =
    /// α 1.0). Classic internet AS-size fits are α ≈ 0.9.
    pub zipf_milli_alpha: u32,
    /// Distinct transit routers each stub homes to (≥ 1; capped at the
    /// total transit-router count).
    pub multihoming: usize,
    /// Capacity of the designated bottleneck link, bits per second.
    pub bottleneck_bps: u64,
    /// Stub/victim access-link capacity; `0` = auto (10 × bottleneck,
    /// min 100 Mbps — the dumbbell's rule).
    pub stub_bps: u64,
    /// Transit core link capacity; `0` = auto (20 × bottleneck, min
    /// 1 Gbps).
    pub core_bps: u64,
    /// Colluder ASes in the victim region.
    pub colluder_ases: usize,
    /// Seed for stub sizing and multihoming choices.
    pub seed: u64,
}

impl Default for TransitStubSpec {
    fn default() -> Self {
        TransitStubSpec {
            transit_ases: 3,
            routers_per_transit: 2,
            stub_ases: 10,
            hosts: 100,
            legit_per_stub: 1,
            zipf_milli_alpha: 900,
            multihoming: 2,
            bottleneck_bps: 10_000_000,
            stub_bps: 0,
            core_bps: 0,
            colluder_ases: 0,
            seed: 7,
        }
    }
}

impl TransitStubSpec {
    /// Panic with a clear message when the spec is internally inconsistent.
    pub fn validate(&self) {
        assert!(self.transit_ases >= 1, "transit_ases must be >= 1");
        assert!(self.routers_per_transit >= 1, "routers_per_transit must be >= 1");
        assert!(self.stub_ases >= 1, "stub_ases must be >= 1");
        assert!(
            self.hosts >= self.stub_ases,
            "hosts ({}) must cover every stub AS ({})",
            self.hosts,
            self.stub_ases
        );
        assert!(self.multihoming >= 1, "multihoming must be >= 1");
        assert!(self.bottleneck_bps > 0, "bottleneck_bps must be > 0");
        assert!(self.stub_ases <= 0x1000, "at most 4096 stub ASes (host address space)");
        assert!(self.colluder_ases <= 0x100, "at most 256 colluder ASes");
    }

    /// Resolved stub access-link capacity.
    pub fn resolved_stub_bps(&self) -> u64 {
        if self.stub_bps > 0 {
            self.stub_bps
        } else {
            (self.bottleneck_bps * 10).max(100_000_000)
        }
    }

    /// Resolved transit core capacity.
    pub fn resolved_core_bps(&self) -> u64 {
        if self.core_bps > 0 {
            self.core_bps
        } else {
            (self.bottleneck_bps * 20).max(1_000_000_000)
        }
    }
}

/// Parameters of a multi-bottleneck mesh (generalized parking lot).
///
/// A chain `R0 —L1→ R1 —L2→ … —LK→ RK` of `bottlenecks` designated links,
/// plus `branches` extra bottleneck links hanging off the chain's junction
/// routers. Sender groups reproduce the parking lot's crossing pattern at
/// arbitrary K: one *long* group crosses every chain link, one *local*
/// group per chain link crosses exactly that link, and one *branch* group
/// per branch link crosses exactly its branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MultiBottleneckSpec {
    /// Chained bottleneck links K. ≥ 1.
    pub bottlenecks: usize,
    /// Extra branching bottleneck links off the chain's junctions.
    pub branches: usize,
    /// Senders per group.
    pub hosts_per_group: usize,
    /// Legitimate users per group.
    pub legit_per_group: usize,
    /// Capacity of every designated bottleneck, bits per second.
    pub bottleneck_bps: u64,
}

impl MultiBottleneckSpec {
    /// Panic with a clear message when the spec is internally inconsistent.
    pub fn validate(&self) {
        assert!(self.bottlenecks >= 1, "bottlenecks must be >= 1");
        assert!(self.bottlenecks + self.branches <= 0x80, "at most 128 designated bottlenecks");
        assert!(self.hosts_per_group >= 1, "hosts_per_group must be >= 1");
        assert!(self.hosts_per_group <= 0xE0, "at most 224 hosts per group (address space)");
        assert!(self.bottleneck_bps > 0, "bottleneck_bps must be > 0");
    }

    /// Total sender groups (1 long + K locals + branches).
    pub fn groups(&self) -> usize {
        1 + self.bottlenecks + self.branches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "hosts")]
    fn transit_stub_validation_rejects_too_few_hosts() {
        TransitStubSpec { stub_ases: 10, hosts: 5, ..Default::default() }.validate();
    }
}
