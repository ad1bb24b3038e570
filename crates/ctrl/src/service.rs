//! The control-plane transport: a [`ControlChannel`] implementation with
//! per-AS controllers, sessions, path latency, loss and fault injection.

use std::collections::BTreeMap;

use netfence_sim::deploy::{ChannelVerdict, ControlChannel, Endpoint};
use netfence_sim::packet::AsNum;
use netfence_sim::prelude::{IdMap, Timeline};
use netfence_sim::rng::SimRng;
use netfence_sim::time::Nanos;
use netfence_sim::topology::{Network, NodeId};

use crate::config::CtrlConfig;
use crate::session::Session;

/// The asynchronous control-plane service for one deployment.
///
/// Install it on the deployment's bus before constructing the simulator:
///
/// ```ignore
/// deployment.bus.install_channel(Box::new(CtrlService::for_network(&net, cfg)));
/// ```
///
/// Every control message is then planned through [`ControlChannel::plan`]:
///
/// 1. **Partition** — messages from or to a partitioned AS are lost.
/// 2. **Sessions/outages** — if either endpoint's AS controller is inside
///    an outage window, the message is held until that AS's daemon
///    [`Session`] reconnects (exponential backoff past the outage end).
/// 3. **Loss & retransmission** — each attempt is lost with probability
///    `loss`; lost attempts retry after `rto` up to `max_retransmits`
///    times, after which the message is dropped for good.
/// 4. **Latency** — the surviving attempt is charged `base_latency` plus,
///    optionally, the topology's AS-to-AS path delay (shortest router
///    path between the two AS controllers, computed on demand and
///    cached).
#[derive(Debug)]
pub struct CtrlService {
    cfg: CtrlConfig,
    /// Node id → AS number (hosts and routers alike).
    node_as: Vec<AsNum>,
    /// AS → controller node (first router of the AS, by node order).
    // BTreeMap: Dijkstra seeds and the per-AS probe rows iterate these,
    // so their order must be the key order, not a hash order.
    controllers: BTreeMap<AsNum, usize>,
    /// Router-only adjacency: `adj[node]` lists `(neighbor, link delay)`.
    adj: Vec<Vec<(usize, Nanos)>>,
    /// Cached Dijkstra results: source AS → (dest AS → path delay).
    path_cache: IdMap<AsNum, IdMap<AsNum, Nanos>>,
    /// One daemon session per AS controller.
    sessions: BTreeMap<AsNum, Session>,
    rng: SimRng,
}

impl CtrlService {
    /// Build the service for `net` under `cfg`.
    pub fn for_network(net: &Network, cfg: CtrlConfig) -> Self {
        let node_as: Vec<AsNum> = net.nodes.iter().map(|n| n.as_num()).collect();
        let mut controllers = BTreeMap::new();
        for (i, n) in net.nodes.iter().enumerate() {
            if n.host_addr().is_none() {
                controllers.entry(n.as_num()).or_insert(i);
            }
        }
        let mut adj: Vec<Vec<(usize, Nanos)>> = vec![Vec::new(); net.nodes.len()];
        for l in &net.links {
            let (f, t) = (l.from.0, l.to.0);
            if net.nodes[f].host_addr().is_none() && net.nodes[t].host_addr().is_none() {
                adj[f].push((t, l.delay));
            }
        }
        let seed = cfg.seed;
        CtrlService {
            cfg,
            node_as,
            controllers,
            adj,
            path_cache: IdMap::default(),
            sessions: BTreeMap::new(),
            rng: SimRng::new(seed),
        }
    }

    /// The configuration this service runs under.
    pub fn config(&self) -> &CtrlConfig {
        &self.cfg
    }

    /// Completed reconnect cycles across every AS's daemon session.
    pub fn reconnects(&self) -> u64 {
        self.sessions.values().map(|s| s.reconnects).sum()
    }

    fn as_of(&self, endpoint: Endpoint) -> AsNum {
        let (Endpoint::Host(node) | Endpoint::Router(node)) = endpoint;
        self.node_as[node.0]
    }

    /// The outage window covering `now` for AS `asn`, widest end first
    /// (overlapping windows behave like one long outage).
    fn covering_outage(&self, asn: AsNum, now: Nanos) -> Option<(Nanos, Nanos)> {
        self.cfg
            .outages
            .iter()
            .filter(|o| (o.asn.is_none() || o.asn == Some(asn)) && o.start <= now && now < o.end)
            .map(|o| (o.start, o.end))
            .max_by_key(|&(_, end)| end)
    }

    /// When AS `asn`'s controller session can next carry a message.
    fn session_ready(&mut self, asn: AsNum, now: Nanos) -> Nanos {
        let outage = self.covering_outage(asn, now);
        let session = self.sessions.entry(asn).or_insert_with(|| Session::new(self.cfg.session));
        session.ready_at(now, outage)
    }

    /// Shortest-path delay between the controllers of two ASes (cached
    /// Dijkstra over the router graph; 0 within one AS or when no router
    /// path exists).
    fn path_delay(&mut self, from: AsNum, to: AsNum) -> Nanos {
        if from == to {
            return 0;
        }
        if !self.path_cache.contains_key(&from) {
            let table = self.dijkstra_from(from);
            self.path_cache.insert(from, table);
        }
        self.path_cache[&from].get(&to).copied().unwrap_or(0)
    }

    fn dijkstra_from(&self, from: AsNum) -> IdMap<AsNum, Nanos> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut out = IdMap::default();
        let Some(&root) = self.controllers.get(&from) else {
            return out;
        };
        let mut dist: Vec<Nanos> = vec![Nanos::MAX; self.adj.len()];
        dist[root] = 0;
        let mut heap = BinaryHeap::new();
        heap.push(Reverse((0u64, root)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u] {
                continue;
            }
            for &(v, w) in &self.adj[u] {
                let nd = d + w;
                if nd < dist[v] {
                    dist[v] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        for (&asn, &ctrl) in &self.controllers {
            if dist[ctrl] != Nanos::MAX {
                out.insert(asn, dist[ctrl]);
            }
        }
        out
    }
}

impl ControlChannel for CtrlService {
    fn probe(&self, now: Nanos, out: &mut Timeline) {
        // Sessions live in a BTreeMap, so the rows emit in AS order.
        for (asn, session) in &self.sessions {
            let up = matches!(session.state(), crate::session::SessionState::Connected);
            out.record(now, "ctrl_session_up", format!("as:{asn}"), if up { 1.0 } else { 0.0 });
            out.record(now, "ctrl_reconnects", format!("as:{asn}"), session.reconnects as f64);
        }
    }

    fn plan(&mut self, now: Nanos, from: Option<Endpoint>, to: NodeId) -> ChannelVerdict {
        let to_as = self.node_as[to.0];
        let from_as = from.map(|e| self.as_of(e));
        if self.cfg.partitioned.contains(&to_as)
            || from_as.is_some_and(|a| self.cfg.partitioned.contains(&a))
        {
            return ChannelVerdict::Lost { retransmits: 0 };
        }
        // Hold the message until both endpoints' controller sessions are up.
        let mut send_at = self.session_ready(to_as, now);
        if let Some(fa) = from_as {
            if fa != to_as {
                send_at = send_at.max(self.session_ready(fa, now));
            }
        }
        // Loss with bounded retransmission: count consecutive lost attempts.
        let mut retransmits = 0u32;
        if self.cfg.loss > 0.0 {
            while self.rng.unit() < self.cfg.loss {
                if retransmits == self.cfg.max_retransmits {
                    return ChannelVerdict::Lost { retransmits };
                }
                retransmits += 1;
            }
        }
        let mut latency = self.cfg.base_latency;
        if self.cfg.use_path_latency {
            // Controller-origin (deploy-time) messages are charged the path
            // from the destination's own controller: zero.
            if let Some(fa) = from_as {
                latency += self.path_delay(fa, to_as);
            }
        }
        ChannelVerdict::Deliver {
            at: send_at + latency + retransmits as Nanos * self.cfg.rto,
            retransmits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfence_sim::time::{MILLI, SEC};
    use netfence_sim::topology::QueueKind;

    /// Two edge ASes behind a transit AS; 5 ms inter-router links.
    fn net() -> Network {
        let mut b = Network::builder();
        let rt = b.router(100, false);
        let r1 = b.router(1, true);
        let r2 = b.router(2, true);
        b.duplex(r1, rt, 10_000_000, 5 * MILLI, QueueKind::Red);
        b.duplex(r2, rt, 10_000_000, 5 * MILLI, QueueKind::Red);
        b.host(0x101, 1, r1, 100_000_000, MILLI);
        b.host(0x201, 2, r2, 100_000_000, MILLI);
        b.build()
    }

    fn router_of(net: &Network, host: u32) -> NodeId {
        net.access_router_of(host).unwrap()
    }

    #[test]
    fn ideal_config_delivers_instantly() {
        let net = net();
        let mut svc = CtrlService::for_network(&net, CtrlConfig::ideal());
        let to = router_of(&net, 0x201);
        for now in [0, SEC, 5 * SEC] {
            assert_eq!(
                svc.plan(now, None, to),
                ChannelVerdict::Deliver { at: now, retransmits: 0 }
            );
        }
    }

    #[test]
    fn base_and_path_latency_add_up() {
        let net = net();
        let cfg = CtrlConfig::ideal().latency(2 * MILLI).path_latency(true);
        let mut svc = CtrlService::for_network(&net, cfg);
        let from = router_of(&net, 0x101);
        let to = router_of(&net, 0x201);
        // AS 1 → AS 2 crosses two 5 ms links plus the 2 ms base.
        assert_eq!(
            svc.plan(0, Some(Endpoint::Router(from)), to),
            ChannelVerdict::Deliver { at: 12 * MILLI, retransmits: 0 }
        );
        // Same-AS and controller-origin messages pay only the base.
        assert_eq!(
            svc.plan(0, Some(Endpoint::Router(to)), to),
            ChannelVerdict::Deliver { at: 2 * MILLI, retransmits: 0 }
        );
        assert_eq!(
            svc.plan(0, None, to),
            ChannelVerdict::Deliver { at: 2 * MILLI, retransmits: 0 }
        );
    }

    #[test]
    fn partitioned_as_never_receives_or_sends() {
        let net = net();
        let mut svc = CtrlService::for_network(&net, CtrlConfig::ideal().partition(2));
        let from = router_of(&net, 0x101);
        let to = router_of(&net, 0x201);
        assert_eq!(svc.plan(0, None, to), ChannelVerdict::Lost { retransmits: 0 });
        assert_eq!(
            svc.plan(0, Some(Endpoint::Router(to)), from),
            ChannelVerdict::Lost { retransmits: 0 }
        );
        // The untouched AS still communicates internally.
        assert!(matches!(svc.plan(0, None, from), ChannelVerdict::Deliver { .. }));
    }

    #[test]
    fn outage_holds_messages_until_backoff_reconnect() {
        let net = net();
        let mut svc = CtrlService::for_network(&net, CtrlConfig::ideal().outage(SEC, 2 * SEC));
        let to = router_of(&net, 0x201);
        // Before the outage: instant.
        assert_eq!(svc.plan(0, None, to), ChannelVerdict::Deliver { at: 0, retransmits: 0 });
        // During the outage: held past the end, to the reconnect instant.
        match svc.plan(SEC + MILLI, None, to) {
            ChannelVerdict::Deliver { at, .. } => assert!(at >= 2 * SEC, "held only to {at}"),
            lost => panic!("outage lost the message: {lost:?}"),
        }
        assert!(svc.reconnects() >= 1);
        // After the outage: instant again.
        assert_eq!(
            svc.plan(3 * SEC, None, to),
            ChannelVerdict::Deliver { at: 3 * SEC, retransmits: 0 }
        );
    }

    #[test]
    fn loss_retransmits_and_eventually_gives_up() {
        let net = net();
        let cfg = CtrlConfig::ideal().lossy(0.5).retransmit_timeout(100 * MILLI).seed(7);
        let mut svc = CtrlService::for_network(&net, cfg);
        let to = router_of(&net, 0x201);
        let mut delivered = 0u32;
        let mut lost = 0u32;
        let mut retransmitted = 0u32;
        for _ in 0..400 {
            match svc.plan(0, None, to) {
                ChannelVerdict::Deliver { at, retransmits } => {
                    delivered += 1;
                    retransmitted += retransmits;
                    assert_eq!(at, retransmits as Nanos * 100 * MILLI);
                }
                ChannelVerdict::Lost { retransmits } => {
                    lost += 1;
                    assert_eq!(retransmits, 3);
                }
            }
        }
        // p(loss)=0.5, budget 3: ~93.75% delivered, ~6.25% lost for good.
        assert!(delivered > 300, "delivered {delivered}");
        assert!(lost > 5, "lost {lost}");
        assert!(retransmitted > 100, "retransmits {retransmitted}");
    }
}
