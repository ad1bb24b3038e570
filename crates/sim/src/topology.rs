//! Static network description: nodes, links, AS-aggregated routing, and the
//! builder the topology generators assemble networks through.
//!
//! ## Routing model
//!
//! Routing is **aggregated by destination access router** (one routing
//! destination per host-bearing router — the AS-prefix granularity a real
//! FIB would use) instead of per destination host:
//!
//! * one BFS per *access router* over a router-only reverse-adjacency
//!   graph, instead of one BFS per *host* over a full link scan —
//!   `O(routers · (routers + router_links))` build time instead of
//!   `O(hosts · links)`;
//! * the next-hop table is one dense `router × destination` array of link
//!   indices, instead of one hash map of `HostAddr → link` per node —
//!   `O(routers · destinations)` words of memory instead of
//!   `O(nodes · hosts)` hash entries;
//! * adjacency is compressed sparse rows ([`Network::out_links`], and the
//!   routers' in-links the BFS walks), and a link's protocol address is
//!   arithmetic on its index ([`FIRST_LINK_ADDR`]): the whole network is a
//!   handful of flat arrays, not one heap allocation per node;
//! * hosts are resolved at the last hop: the destination's access router
//!   forwards onto the host's recorded downlink, and a sending host always
//!   uses its recorded uplink. Hosts are leaves — they never appear as
//!   routing intermediates (the engine drops mis-delivered packets anyway);
//! * host attachments are dense rows (`HostTable`) behind one address
//!   index: the engine resolves a packet's source and destination to rows
//!   once, at injection, and every hop after that indexes arrays.
//!
//! On topologies where every host hangs off a single access router (all of
//! them, including the generated internet-scale graphs), the chosen paths
//! are identical to the old per-host BFS: host leaves never altered the
//! router-discovery order, and the reverse adjacency preserves the old
//! link-index tie-breaking.

use std::sync::Arc;

use netfence_telemetry::IdMap;

use crate::packet::{AsNum, HostAddr, LinkAddr};
use crate::time::Nanos;

/// Index of a node in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Sentinel for "no slot / no route" in the dense routing tables.
const NONE32: u32 = u32::MAX;
/// The [`HostTable`] row of an address no host owns (and a packet's rows
/// before the engine resolves them).
pub(crate) const NO_ROW: u32 = u32::MAX;

/// The protocol address of link index 0. [`NetworkBuilder::link`] gives
/// link `i` the address `FIRST_LINK_ADDR + i` (checked: it refuses the link
/// whose address would overflow), and [`NetworkBuilder::build`] asserts it
/// for every link, so addresses are unique and [`Network::link_by_addr`]
/// resolves one by a subtraction and a bounds check, with no index to build.
pub const FIRST_LINK_ADDR: LinkAddr = 1_001;

/// The index of the link at `addr` in a network of `links` links, by the
/// [`FIRST_LINK_ADDR`] invariant; `None` for an address no link owns.
pub(crate) fn link_index_of(addr: LinkAddr, links: usize) -> Option<usize> {
    let i = addr.checked_sub(FIRST_LINK_ADDR)? as usize;
    (i < links).then_some(i)
}

/// Compressed sparse rows: row `r` is `items[start[r]..start[r + 1]]`, so a
/// whole adjacency is two allocations instead of one `Vec` per row.
#[derive(Debug)]
struct Csr<T> {
    start: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy + Default> Csr<T> {
    /// Group `(row, item)` pairs into `rows` rows (a counting sort), each
    /// row keeping its items in the order `pairs` yields them. `pairs` is
    /// walked twice, and yields fewer than 2^32 items.
    fn group(rows: usize, pairs: impl Iterator<Item = (usize, T)> + Clone) -> Self {
        let mut start = vec![0u32; rows + 1];
        for (r, _) in pairs.clone() {
            start[r + 1] += 1;
        }
        for r in 0..rows {
            start[r + 1] += start[r];
        }
        // Fill each row from its front, which walks `start[r]` up to the
        // row's end (`start[r + 1]`'s value); shifting right restores it.
        let mut items = vec![T::default(); start[rows] as usize];
        for (r, item) in pairs {
            items[start[r] as usize] = item;
            start[r] += 1;
        }
        start.copy_within(0..rows, 1);
        start[0] = 0;
        Csr { start, items }
    }

    /// The number of rows.
    fn rows(&self) -> usize {
        self.start.len() - 1
    }

    /// Row `r`'s items.
    fn row(&self, r: usize) -> &[T] {
        &self.items[self.start[r] as usize..self.start[r + 1] as usize]
    }
}

/// What a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An end host with an address, living in an AS.
    Host {
        /// The host's address.
        addr: HostAddr,
        /// The AS the host belongs to.
        as_num: AsNum,
    },
    /// A router.
    Router {
        /// The AS the router belongs to.
        as_num: AsNum,
        /// Whether this is an access router (the trust boundary where
        /// NetFence polices senders).
        access: bool,
    },
}

/// A node in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node {
    /// Role and addressing of the node.
    pub kind: NodeKind,
}

impl Node {
    /// The AS this node belongs to.
    pub fn as_num(&self) -> AsNum {
        match self.kind {
            NodeKind::Host { as_num, .. } | NodeKind::Router { as_num, .. } => as_num,
        }
    }

    /// The host address, if this node is a host.
    pub fn host_addr(&self) -> Option<HostAddr> {
        match self.kind {
            NodeKind::Host { addr, .. } => Some(addr),
            NodeKind::Router { .. } => None,
        }
    }

    /// Whether this node is an access router.
    pub fn is_access_router(&self) -> bool {
        matches!(self.kind, NodeKind::Router { access: true, .. })
    }
}

/// Which default queue discipline a link uses (a deployment's queue plan
/// may replace it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// Plain FIFO, 200 ms of buffering.
    DropTail,
    /// RED with the paper's parameters.
    Red,
}

/// A unidirectional link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpec {
    /// Sending side.
    pub from: NodeId,
    /// Receiving side.
    pub to: NodeId,
    /// Protocol-visible link identifier (what NetFence feedback calls the
    /// link's IP address): [`FIRST_LINK_ADDR`] plus the link's index.
    pub addr: LinkAddr,
    /// Capacity in bits per second.
    pub capacity: u64,
    /// Propagation delay.
    pub delay: Nanos,
    /// Default queue discipline.
    pub queue: QueueKind,
}

/// One host's node and recorded attachment — its access router and the
/// duplex link pair connecting them (made explicit by
/// [`NetworkBuilder::host`] instead of being re-inferred from the link list,
/// which silently misassigned on multihomed generated graphs). A 20-byte
/// row of the [`HostTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HostEntry {
    /// The host's own node.
    node: u32,
    /// The access router.
    router: u32,
    /// Link host → router.
    uplink: u32,
    /// Link router → host.
    downlink: u32,
    /// Dense destination slot of `router` in the routing tables.
    dst_slot: u32,
}

impl HostEntry {
    /// The host's own node.
    pub(crate) fn node(&self) -> NodeId {
        NodeId(self.node as usize)
    }

    /// The host's access router.
    pub(crate) fn router(&self) -> NodeId {
        NodeId(self.router as usize)
    }
}

/// Every host's [`HostEntry`] as a dense row, in the order the hosts were
/// added, plus the one index from address to row. The engine resolves a
/// packet's two addresses to rows once, at injection; after that routing
/// indexes `rows` and never hashes an address.
#[derive(Debug, Default)]
pub(crate) struct HostTable {
    rows: Vec<HostEntry>,
    row_of: IdMap<HostAddr, u32>,
}

impl HostTable {
    /// The row of `addr`, or [`NO_ROW`] when no host owns it.
    pub(crate) fn row(&self, addr: HostAddr) -> u32 {
        self.row_of.get(&addr).copied().unwrap_or(NO_ROW)
    }

    /// The entry in `row`, if there is one.
    pub(crate) fn at(&self, row: u32) -> Option<&HostEntry> {
        self.rows.get(row as usize)
    }

    /// The entry of `addr`, if some host owns it.
    pub(crate) fn get(&self, addr: HostAddr) -> Option<&HostEntry> {
        self.at(self.row(addr))
    }
}

/// The entry in a row that must exist: panics on [`NO_ROW`].
impl std::ops::Index<u32> for HostTable {
    type Output = HostEntry;

    fn index(&self, row: u32) -> &HostEntry {
        &self.rows[row as usize]
    }
}

/// Size and shape of the derived routing state, for scalability reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteStats {
    /// Routers carrying a next-hop table.
    pub routers: usize,
    /// Routing destinations (host-bearing access routers).
    pub destinations: usize,
    /// Bytes held by the dense next-hop tables.
    pub table_bytes: usize,
}

/// An immutable network description plus derived routing tables.
#[derive(Debug)]
pub struct Network {
    /// All nodes.
    pub nodes: Vec<Node>,
    /// All unidirectional links.
    pub links: Vec<LinkSpec>,
    /// Each host's node and attachment, by row and by address (shared with
    /// control planes, which only read it — see
    /// [`ControlPlane::for_network`](crate::control::ControlPlane::for_network)).
    pub(crate) hosts: Arc<HostTable>,
    /// Per-node outgoing link indices, ascending.
    out_links: Csr<u32>,
    /// Per-node dense router slot (`NONE32` for hosts).
    router_slot: Vec<u32>,
    /// Per router slot, the `(from router slot, link index)` of every link
    /// joining two routers that ends there, in link-index order (which is
    /// what breaks the BFS's equal-cost ties).
    router_in: Csr<(u32, u32)>,
    /// `routes[router_slot * dst_count + dst_slot]` = outgoing link index,
    /// `NONE32` when the destination router is unreachable.
    routes: Vec<u32>,
    /// Number of routing destinations.
    dst_count: usize,
    /// Destination slot → router slot of the destination's access router
    /// (kept so routes can be recomputed after link faults).
    dst_routers: Vec<u32>,
}

impl Network {
    /// Start building a network.
    pub fn builder() -> NetworkBuilder {
        NetworkBuilder::default()
    }

    /// The node a host address belongs to. Panics if no host owns `addr`.
    pub fn host_node(&self, addr: HostAddr) -> NodeId {
        self.hosts[self.hosts.row(addr)].node()
    }

    /// The AS of a host address.
    pub fn as_of_host(&self, addr: HostAddr) -> AsNum {
        self.nodes[self.host_node(addr).0].as_num()
    }

    /// The indices of `node`'s outgoing links, ascending.
    pub fn out_links(&self, node: NodeId) -> &[u32] {
        self.out_links.row(node.0)
    }

    /// The next-hop link from router slot `router` toward destination slot
    /// `dst`, or `NONE32`.
    fn route(&self, router: u32, dst: u32) -> u32 {
        self.routes[router as usize * self.dst_count + dst as usize]
    }

    /// The next-hop link index from `node` toward `dst`, if reachable.
    ///
    /// Routers consult their dense per-destination-router table; the
    /// destination's own access router resolves the final hop to the host's
    /// downlink; a sending host uses its uplink (when its access router can
    /// reach the destination).
    pub fn next_hop(&self, node: NodeId, dst: HostAddr) -> Option<usize> {
        let own = self.nodes[node.0].host_addr().map_or(NO_ROW, |addr| self.hosts.row(addr));
        self.next_hop_row(node, own, self.hosts.row(dst))
    }

    /// [`Network::next_hop`] by host rows: from `node` toward the host in
    /// row `dst`. `own` is the row of the host at `node` and is read only
    /// when `node` is a host; an unknown `dst` ([`NO_ROW`]) has no route.
    pub(crate) fn next_hop_row(&self, node: NodeId, own: u32, dst: u32) -> Option<usize> {
        let att = self.hosts.at(dst)?;
        if node == att.router() {
            return Some(att.downlink as usize);
        }
        match self.nodes[node.0].kind {
            NodeKind::Host { .. } => {
                if own == dst {
                    return None;
                }
                let own = self.hosts.at(own)?;
                if own.router == att.router {
                    return Some(own.uplink as usize);
                }
                let r = self.router_slot[own.router as usize];
                (self.route(r, att.dst_slot) != NONE32).then_some(own.uplink as usize)
            }
            NodeKind::Router { .. } => {
                let l = self.route(self.router_slot[node.0], att.dst_slot);
                (l != NONE32).then_some(l as usize)
            }
        }
    }

    /// Find a link index by its protocol-level address: a subtraction and a
    /// bounds check ([`FIRST_LINK_ADDR`]).
    pub fn link_by_addr(&self, addr: LinkAddr) -> Option<usize> {
        link_index_of(addr, self.links.len())
    }

    /// The access router a host is attached to, if any.
    pub fn access_router_of(&self, host: HostAddr) -> Option<NodeId> {
        self.hosts.get(host).map(HostEntry::router)
    }

    /// Whether `link` joins two routers (the links defenses re-queue and
    /// NetFence treats as potential bottlenecks; hosts hang off access
    /// links).
    pub fn is_router_link(&self, link: &LinkSpec) -> bool {
        self.nodes[link.from.0].host_addr().is_none() && self.nodes[link.to.0].host_addr().is_none()
    }

    /// All host addresses in the network.
    pub fn hosts(&self) -> Vec<HostAddr> {
        let mut v: Vec<HostAddr> = self
            .hosts
            .rows
            .iter()
            .filter_map(|h| self.nodes[h.node as usize].host_addr())
            .collect();
        v.sort_unstable();
        v
    }

    /// Recompute the next-hop table over the surviving graph, skipping
    /// links for which `down[link_index]` is true (indices past `down`'s
    /// length count as up): one BFS per destination router over the
    /// routers' in-links, writing next hops straight into the table.
    /// [`NetworkBuilder::build`] fills the original table through this same
    /// function with nothing down, so an all-false `down` reproduces it
    /// bit-for-bit. Destinations with no surviving path simply keep
    /// `NONE32` entries; forwarding to them becomes a typed no-route drop at
    /// the engine.
    pub fn recompute_routes(&mut self, down: &[bool]) {
        self.routes.fill(NONE32);
        let mut seen = vec![false; self.router_in.rows()];
        // The BFS queue: `order[head..]` is still to visit.
        let mut order: Vec<u32> = Vec::with_capacity(seen.len());
        for (dst_slot, &root) in self.dst_routers.iter().enumerate() {
            seen.fill(false);
            seen[root as usize] = true;
            order.clear();
            order.push(root);
            let mut head = 0;
            while let Some(&r) = order.get(head) {
                head += 1;
                for &(from, li) in self.router_in.row(r as usize) {
                    if !seen[from as usize] && !down.get(li as usize).copied().unwrap_or(false) {
                        seen[from as usize] = true;
                        self.routes[from as usize * self.dst_count + dst_slot] = li;
                        order.push(from);
                    }
                }
            }
        }
    }

    /// Size of the derived routing state.
    pub fn route_stats(&self) -> RouteStats {
        RouteStats {
            routers: self.router_in.rows(),
            destinations: self.dst_count,
            table_bytes: self.routes.len() * std::mem::size_of::<u32>(),
        }
    }
}

/// Builder for [`Network`].
#[derive(Debug, Default)]
pub struct NetworkBuilder {
    nodes: Vec<Node>,
    links: Vec<LinkSpec>,
    /// Each host's address and attachment, recorded at
    /// [`NetworkBuilder::host`] time (`dst_slot` is filled in by `build`).
    attachments: Vec<(HostAddr, HostEntry)>,
}

impl NetworkBuilder {
    /// Add a router in `as_num`. `access` marks it as an access router.
    pub fn router(&mut self, as_num: AsNum, access: bool) -> NodeId {
        self.nodes.push(Node { kind: NodeKind::Router { as_num, access } });
        NodeId(self.nodes.len() - 1)
    }

    /// Add a host with address `addr` in `as_num`, attached to `router` by a
    /// duplex link of `capacity`/`delay`. The attachment is recorded
    /// explicitly: `router` becomes the host's access router for routing,
    /// deployment and control-plane addressing. `addr` must be unique and
    /// `router` must be a router node.
    pub fn host(
        &mut self,
        addr: HostAddr,
        as_num: AsNum,
        router: NodeId,
        capacity: u64,
        delay: Nanos,
    ) -> NodeId {
        assert!(
            matches!(self.nodes[router.0].kind, NodeKind::Router { .. }),
            "host {addr:#x} attached to non-router node {router:?}"
        );
        self.nodes.push(Node { kind: NodeKind::Host { addr, as_num } });
        let id = NodeId(self.nodes.len() - 1);
        let (uplink, downlink) = self.duplex(id, router, capacity, delay, QueueKind::DropTail);
        // The newest node and link bound every index the row holds.
        assert!(id.0.max(downlink) < NONE32 as usize, "more than 2^32 - 1 nodes or links");
        let entry = HostEntry {
            node: id.0 as u32,
            router: router.0 as u32,
            uplink: uplink as u32,
            downlink: downlink as u32,
            dst_slot: NONE32,
        };
        self.attachments.push((addr, entry));
        id
    }

    /// Add a unidirectional link and return its index `i`; its address is
    /// `FIRST_LINK_ADDR + i` ([`FIRST_LINK_ADDR`]), and a link whose address
    /// would overflow panics.
    ///
    /// Links added directly (rather than via [`NetworkBuilder::host`]) must
    /// connect routers: hosts are routing leaves, reachable only over their
    /// recorded attachment.
    pub fn link(
        &mut self,
        from: NodeId,
        to: NodeId,
        capacity: u64,
        delay: Nanos,
        queue: QueueKind,
    ) -> usize {
        let addr =
            LinkAddr::try_from(self.links.len()).ok().and_then(|i| FIRST_LINK_ADDR.checked_add(i));
        assert!(addr.is_some(), "link address past {}", LinkAddr::MAX);
        let addr = addr.unwrap_or(LinkAddr::MAX);
        self.links.push(LinkSpec { from, to, addr, capacity, delay, queue });
        self.links.len() - 1
    }

    /// Add a duplex link (two unidirectional links); returns the
    /// (forward, reverse) link indices.
    pub fn duplex(
        &mut self,
        a: NodeId,
        b: NodeId,
        capacity: u64,
        delay: Nanos,
        queue: QueueKind,
    ) -> (usize, usize) {
        let f = self.link(a, b, capacity, delay, queue);
        let r = self.link(b, a, capacity, delay, queue);
        (f, r)
    }

    /// Finalize: computes the host index, the adjacency and the
    /// AS-aggregated dense routing table ([`Network::recompute_routes`] with
    /// every link up).
    pub fn build(self) -> Network {
        let NetworkBuilder { nodes, links, attachments } = self;

        for (li, l) in links.iter().enumerate() {
            assert_eq!(link_index_of(l.addr, links.len()), Some(li), "link {li}'s address");
        }
        // `link` keeps every index below `LinkAddr::MAX - FIRST_LINK_ADDR`,
        // so `li as u32` is lossless (here and for the in-links below).
        let out_links =
            Csr::group(nodes.len(), links.iter().enumerate().map(|(li, l)| (l.from.0, li as u32)));

        // Dense router slots, in node order.
        let mut router_slot = vec![NONE32; nodes.len()];
        let mut router_count = 0u32;
        for (i, n) in nodes.iter().enumerate() {
            if n.host_addr().is_none() {
                router_slot[i] = router_count;
                router_count += 1;
            }
        }

        // Routing destinations: host-bearing routers, slotted in node order.
        let mut has_host = vec![false; nodes.len()];
        for (_, entry) in &attachments {
            has_host[entry.router as usize] = true;
        }
        let mut dst_slot_of_node = vec![NONE32; nodes.len()];
        let mut dst_routers: Vec<u32> = Vec::new(); // dst slot -> router slot
        for (i, &h) in has_host.iter().enumerate() {
            if h {
                dst_slot_of_node[i] = dst_routers.len() as u32;
                dst_routers.push(router_slot[i]);
            }
        }
        let dst_count = dst_routers.len();

        let router_in = Csr::group(
            router_count as usize,
            links.iter().enumerate().filter_map(|(li, l)| {
                let (f, t) = (router_slot[l.from.0], router_slot[l.to.0]);
                (f != NONE32 && t != NONE32).then_some((t as usize, (f, li as u32)))
            }),
        );

        let mut hosts = HostTable {
            rows: Vec::with_capacity(attachments.len()),
            row_of: IdMap::with_capacity_and_hasher(attachments.len(), Default::default()),
        };
        for (addr, mut entry) in attachments {
            entry.dst_slot = dst_slot_of_node[entry.router as usize];
            let prev = hosts.row_of.insert(addr, hosts.rows.len() as u32);
            assert!(prev.is_none(), "duplicate host address {addr:#x}");
            hosts.rows.push(entry);
        }

        let mut net = Network {
            nodes,
            links,
            hosts: Arc::new(hosts),
            out_links,
            router_slot,
            router_in,
            routes: vec![NONE32; router_count as usize * dst_count],
            dst_count,
            dst_routers,
        };
        net.recompute_routes(&[]);
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::MILLI;

    /// A 4-node chain: host A — r1 — r2 — host B.
    fn chain() -> (Network, HostAddr, HostAddr) {
        let mut b = Network::builder();
        let r1 = b.router(1, true);
        let r2 = b.router(2, false);
        b.duplex(r1, r2, 10_000_000, 10 * MILLI, QueueKind::Red);
        let a = 0x0a_00_00_01;
        let z = 0x0b_00_00_01;
        b.host(a, 1, r1, 100_000_000, MILLI);
        b.host(z, 2, r2, 100_000_000, MILLI);
        (b.build(), a, z)
    }

    #[test]
    fn routes_follow_the_chain() {
        let (net, a, z) = chain();
        assert_eq!(net.hosts(), vec![a, z]);
        // From host A's node, the next hop toward Z is A's uplink to r1;
        // from r1, it is the r1→r2 link; from r2, the link to host Z.
        let a_node = net.host_node(a);
        let hop1 = net.next_hop(a_node, z).unwrap();
        assert_eq!(net.links[hop1].from, a_node);
        let r1 = net.links[hop1].to;
        let hop2 = net.next_hop(r1, z).unwrap();
        let r2 = net.links[hop2].to;
        let hop3 = net.next_hop(r2, z).unwrap();
        assert_eq!(net.links[hop3].to, net.host_node(z));
        // And the reverse path exists.
        assert!(net.next_hop(net.host_node(z), a).is_some());
    }

    #[test]
    fn as_membership_and_access_routers() {
        let (net, a, z) = chain();
        assert_eq!(net.as_of_host(a), 1);
        assert_eq!(net.as_of_host(z), 2);
        let access_routers: Vec<_> = net.nodes.iter().filter(|n| n.is_access_router()).collect();
        assert_eq!(access_routers.len(), 1);
    }

    #[test]
    fn link_addresses_are_unique_and_resolvable() {
        let (net, _, _) = chain();
        let mut addrs: Vec<_> = net.links.iter().map(|l| l.addr).collect();
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), net.links.len());
        for l in &net.links {
            let idx = net.link_by_addr(l.addr).unwrap();
            assert_eq!(net.links[idx].addr, l.addr);
        }
        assert_eq!(net.link_by_addr(0xdead_beef), None);
        // The arithmetic's edges: below the first address, one past the
        // last link, and the top of the address space name no link.
        assert_eq!(net.link_by_addr(FIRST_LINK_ADDR), Some(0));
        let past_last = FIRST_LINK_ADDR + net.links.len() as LinkAddr;
        assert_eq!(net.link_by_addr(past_last - 1), Some(net.links.len() - 1));
        for addr in [0, FIRST_LINK_ADDR - 1, past_last, LinkAddr::MAX] {
            assert_eq!(net.link_by_addr(addr), None, "address {addr}");
        }
    }

    #[test]
    fn unreachable_destination_has_no_route() {
        let mut b = Network::builder();
        let r1 = b.router(1, true);
        let _r2 = b.router(2, false); // not connected
        let a = 1;
        b.host(a, 1, r1, 1_000_000, MILLI);
        let net = b.build();
        assert_eq!(net.next_hop(NodeId(1), 99), None);
    }

    #[test]
    fn partitioned_hosts_have_no_route_to_each_other() {
        let mut b = Network::builder();
        let r1 = b.router(1, true);
        let r2 = b.router(2, true); // island: never linked to r1
        b.host(0xa1, 1, r1, 1_000_000, MILLI);
        b.host(0xb1, 2, r2, 1_000_000, MILLI);
        let net = b.build();
        // Neither the hosts nor their routers can reach across.
        assert_eq!(net.next_hop(net.host_node(0xa1), 0xb1), None);
        assert_eq!(net.next_hop(NodeId(0), 0xb1), None);
        // Same-side routing still works.
        assert!(net.next_hop(NodeId(0), 0xa1).is_some());
        // A host has no route to itself.
        assert_eq!(net.next_hop(net.host_node(0xa1), 0xa1), None);
    }

    #[test]
    fn two_hosts_on_one_router_route_via_the_shared_access_router() {
        let mut b = Network::builder();
        let r = b.router(1, true);
        b.host(0xa1, 1, r, 1_000_000, MILLI);
        b.host(0xa2, 1, r, 1_000_000, MILLI);
        let net = b.build();
        let h1 = net.host_node(0xa1);
        let up = net.next_hop(h1, 0xa2).unwrap();
        assert_eq!(net.links[up].to, r);
        let down = net.next_hop(r, 0xa2).unwrap();
        assert_eq!(net.links[down].to, net.host_node(0xa2));
    }

    #[test]
    fn route_stats_report_dense_table_shape() {
        let (net, _, _) = chain();
        let s = net.route_stats();
        // r1 and r2 are the routers; both bear hosts, so both are
        // destinations.
        assert_eq!(s.routers, 2);
        assert_eq!(s.destinations, 2);
        assert_eq!(s.table_bytes, 2 * 2 * 4);
    }

    #[test]
    fn explicit_attachment_survives_extra_router_links() {
        // A multihomed access router: r1 has links to two transit routers
        // added *before* the host attaches — the old first-out-link
        // heuristic would still work here, but the recorded attachment must
        // hold regardless of link ordering.
        let mut b = Network::builder();
        let t1 = b.router(100, false);
        let t2 = b.router(101, false);
        let r1 = b.router(1, true);
        b.duplex(r1, t1, 10_000_000, MILLI, QueueKind::DropTail);
        b.duplex(r1, t2, 10_000_000, MILLI, QueueKind::DropTail);
        b.duplex(t1, t2, 10_000_000, MILLI, QueueKind::DropTail);
        b.host(0xa1, 1, r1, 1_000_000, MILLI);
        let net = b.build();
        assert_eq!(net.access_router_of(0xa1), Some(r1));
    }

    #[test]
    #[should_panic(expected = "non-router")]
    fn attaching_a_host_to_a_host_panics() {
        let mut b = Network::builder();
        let r = b.router(1, true);
        let h = b.host(0xa1, 1, r, 1_000_000, MILLI);
        b.host(0xa2, 1, h, 1_000_000, MILLI);
    }
}
