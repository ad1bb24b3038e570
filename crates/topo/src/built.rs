//! The uniform output of every topology builder: a [`Network`] plus the
//! role metadata an experiment harness needs to populate it.
//!
//! Builders construct their network **exactly once** and return it here;
//! the experiment runner moves the network into the simulator and keeps the
//! metadata — which hosts are users/attackers, where the victims and
//! colluders live, and which links are the designated bottlenecks.

use netfence_sim::prelude::*;

/// One victim's worth of role assignment: the senders aimed at it and the
/// destinations they use. Single-victim topologies (dumbbell, transit-stub)
/// have one group with an empty label; multi-victim topologies (parking
/// lot, multi-bottleneck meshes) have one labeled group per victim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopoGroup {
    /// Group label (`""` for the single-group topologies; `"A"`, `"C1"`, …
    /// otherwise). Harnesses derive role-series names from it.
    pub label: String,
    /// Legitimate sender hosts.
    pub users: Vec<HostAddr>,
    /// Attacker hosts.
    pub attackers: Vec<HostAddr>,
    /// The victim destination users send to.
    pub victim: HostAddr,
    /// Colluder destinations attackers send to in the colluding-receiver
    /// scenario (attacker `i` uses colluder `i % len`). Empty when the
    /// topology was generated without colluders.
    pub colluders: Vec<HostAddr>,
}

impl TopoGroup {
    /// Every sender (users then attackers), in spawn order.
    pub fn senders(&self) -> impl Iterator<Item = HostAddr> + '_ {
        self.users.iter().chain(&self.attackers).copied()
    }
}

/// The size every sender group of a parking-lot-style topology shares.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GroupShape {
    /// Sender hosts per group.
    pub(crate) hosts: usize,
    /// How many of them are legitimate users (the first ones).
    pub(crate) legit: usize,
    /// Capacity of every access link, bits per second.
    pub(crate) access_cap: u64,
}

impl GroupShape {
    /// Hang one group off the core: a source access router (AS `src.0`)
    /// linked to `src.1` with hosts `base_addr + 1 ..`, and a destination
    /// access router (AS `dst.0`) linked to `dst.1` holding the victim
    /// `base_addr + 0xF1` and one colluder `base_addr + 0xF2`. The builder
    /// calls come in a fixed order, so node, link and address numbering
    /// depend only on the order groups are attached in.
    pub(crate) fn attach(
        &self,
        b: &mut NetworkBuilder,
        label: String,
        src: (AsNum, NodeId),
        dst: (AsNum, NodeId),
        base_addr: HostAddr,
    ) -> TopoGroup {
        let cap = self.access_cap;
        let ra = b.router(src.0, true);
        b.duplex(ra, src.1, cap, 5 * MILLI, QueueKind::DropTail);
        let rd = b.router(dst.0, true);
        b.duplex(dst.1, rd, cap, 5 * MILLI, QueueKind::DropTail);
        let senders: Vec<HostAddr> = (0..self.hosts).map(|h| base_addr + h as u32 + 1).collect();
        for &addr in &senders {
            b.host(addr, src.0, ra, cap, MILLI);
        }
        let (victim, colluder) = (base_addr + 0xF1, base_addr + 0xF2);
        b.host(victim, dst.0, rd, cap, MILLI);
        b.host(colluder, dst.0, rd, cap, MILLI);
        let (users, attackers) = senders.split_at(self.legit.min(senders.len()));
        TopoGroup {
            label,
            users: users.to_vec(),
            attackers: attackers.to_vec(),
            victim,
            colluders: vec![colluder],
        }
    }
}

/// A designated bottleneck link of a generated topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bottleneck {
    /// Display label (`"bottleneck"`, `"L1"`, `"B2"`, …).
    pub label: String,
    /// Protocol-level link address.
    pub addr: LinkAddr,
    /// Capacity, bits per second.
    pub bps: u64,
}

/// A built topology: the network plus everything a harness needs to run an
/// attack scenario on it.
#[derive(Debug)]
pub struct BuiltTopo {
    /// The network (built exactly once; move it into the simulator).
    pub net: Network,
    /// Role assignment, one group per victim.
    pub groups: Vec<TopoGroup>,
    /// Designated bottleneck links, tightest first by convention of each
    /// builder (the first entry is the primary one reported in records).
    pub bottlenecks: Vec<Bottleneck>,
    /// The sender-hosting (stub/source) ASes, ascending — the base set
    /// fractional deployment coverage is resolved against.
    pub source_ases: Vec<AsNum>,
    /// How many senders compete for the tightest bottleneck (denominator of
    /// the reported per-sender fair share).
    pub competing_senders: usize,
}

impl BuiltTopo {
    /// Total senders across all groups.
    pub fn senders(&self) -> usize {
        self.groups.iter().map(|g| g.users.len() + g.attackers.len()).sum()
    }

    /// Capacity of the tightest designated bottleneck, bits per second.
    pub fn min_bottleneck_bps(&self) -> u64 {
        self.bottlenecks.iter().map(|b| b.bps).min().unwrap_or(0)
    }

    /// All sender hosts (group order, users before attackers) — the
    /// deployment-coverage source list.
    pub fn sources(&self) -> Vec<HostAddr> {
        self.groups.iter().flat_map(|g| g.senders()).collect()
    }
}
