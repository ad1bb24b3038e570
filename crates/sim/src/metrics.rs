//! Simulation-wide measurements: per-link counters and the aggregate
//! statistics the experiments report (throughput ratio, utilization).
//!
//! The per-link counters are a dense `Vec` indexed by link id (links are
//! dense already), so the per-packet hot path never hashes; post-run readers
//! name a link by its `LinkAddr`, which resolves to the index by arithmetic
//! ([`FIRST_LINK_ADDR`](crate::topology::FIRST_LINK_ADDR)). Every
//! drop is recorded once, with a typed [`DropCause`], in the always-on
//! [`DropLedger`], which holds a budget only for links that dropped and
//! attributes flows by their drop group; the drop counts reported here are
//! read back from it.

use netfence_telemetry::{DropBudget, DropCause, DropLedger, EngineProfile};

use crate::packet::LinkAddr;
use crate::time::Nanos;
use crate::topology::{link_index_of, Network};

/// One link's transmission counters side by side: a transmission dirties
/// one cache line, not one per counter.
#[derive(Debug, Default, Clone, Copy)]
struct LinkCounters {
    tx_bytes: u64,
    tx_pkts: u64,
}

/// Per-link and global counters collected by the engine.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    /// Indexed by dense link id.
    links: Vec<LinkCounters>,
    /// Packets delivered to destination hosts.
    pub delivered_pkts: u64,
    /// Total packets injected by flows.
    pub injected_pkts: u64,
    /// Simulated time at which the run ended.
    pub end_time: Nanos,
    /// Typed per-cause drop accounting (always on).
    pub drops: DropLedger,
    /// Event-loop profiling counters (always on).
    pub profile: EngineProfile,
}

impl Metrics {
    /// Metrics sized for `net`'s links.
    pub fn for_network(net: &Network) -> Self {
        Metrics {
            links: vec![LinkCounters::default(); net.links.len()],
            drops: DropLedger::new(net.links.len()),
            ..Metrics::default()
        }
    }

    /// Register one transmitted packet of `bytes` on link `idx`.
    #[inline]
    pub(crate) fn record_tx(&mut self, idx: usize, bytes: u64) {
        let link = &mut self.links[idx];
        link.tx_bytes += bytes;
        link.tx_pkts += 1;
    }

    /// Register one queue drop of flow `flow` on link `idx`.
    #[inline]
    pub(crate) fn record_link_drop(&mut self, idx: usize, flow: u64, cause: DropCause) {
        self.drops.record(Some(idx), flow, cause);
        self.profile.drops += 1;
    }

    /// Register one node-level drop (agent verdict, policer, routing) of
    /// flow `flow`.
    #[inline]
    pub(crate) fn record_defense_drop(&mut self, flow: u64, cause: DropCause) {
        self.drops.record(None, flow, cause);
        self.profile.drops += 1;
    }

    /// Dense index of a link address, if the link exists.
    fn idx(&self, link: LinkAddr) -> Option<usize> {
        link_index_of(link, self.links.len())
    }

    /// Bytes transmitted on a link.
    pub fn link_tx_bytes(&self, link: LinkAddr) -> u64 {
        self.idx(link).map_or(0, |i| self.links[i].tx_bytes)
    }

    /// Packets transmitted on a link.
    pub fn link_tx_pkts(&self, link: LinkAddr) -> u64 {
        self.idx(link).map_or(0, |i| self.links[i].tx_pkts)
    }

    /// Packets dropped by a link's queue.
    pub fn link_drop_pkts(&self, link: LinkAddr) -> u64 {
        self.link_budget(link).total()
    }

    /// Typed drop budget of a link's queue.
    pub fn link_budget(&self, link: LinkAddr) -> DropBudget {
        self.idx(link).map_or_else(DropBudget::default, |i| self.drops.link(i))
    }

    /// Packets dropped outside link queues (rate limiters, filters,
    /// policers, routing failures): whatever the ledger holds beyond the
    /// per-link budgets.
    pub fn defense_drop_pkts(&self) -> u64 {
        self.total_drop_pkts() - self.queue_drop_pkts()
    }

    /// Queue drops summed over every link that dropped.
    pub fn queue_drop_pkts(&self) -> u64 {
        self.drops.dropping_links().map(|(_, b)| b.total()).sum()
    }

    /// All drops of the run: queue drops plus node-level drops.
    pub fn total_drop_pkts(&self) -> u64 {
        self.drops.total().total()
    }

    /// Utilization of a link over the whole run. Saturates to `0.0` on a
    /// zero-length run, an unknown link or a zero-capacity link instead of
    /// dividing by zero.
    pub fn utilization(&self, link: LinkAddr, capacity_bps: u64) -> f64 {
        if self.end_time == 0 || capacity_bps == 0 {
            return 0.0;
        }
        let bits = self.link_tx_bytes(link) as f64 * 8.0;
        bits / (capacity_bps as f64 * self.end_time as f64 / 1e9)
    }

    /// Loss rate of a link (drops / (drops + transmissions)). Saturates to
    /// `0.0` when the link never carried or dropped a packet — including
    /// the zero-length run where nothing moved at all.
    pub fn loss_rate(&self, link: LinkAddr) -> f64 {
        let drops = self.link_drop_pkts(link) as f64;
        let tx = self.link_tx_pkts(link) as f64;
        if drops + tx == 0.0 {
            0.0
        } else {
            drops / (drops + tx)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{MILLI, SEC};
    use crate::topology::{QueueKind, FIRST_LINK_ADDR};

    /// The address the builder gives a network's first link.
    const LINK: LinkAddr = FIRST_LINK_ADDR;

    /// Metrics of a network with one 20 Mbps link.
    fn one_link() -> Metrics {
        let mut b = Network::builder();
        let (r0, r1) = (b.router(1, false), b.router(2, false));
        b.link(r0, r1, 20_000_000, MILLI, QueueKind::DropTail);
        let net = b.build();
        assert_eq!(net.links[0].addr, LINK);
        Metrics::for_network(&net)
    }

    #[test]
    fn utilization_and_loss() {
        let mut m = one_link();
        m.end_time = 10 * SEC;
        for _ in 0..999 {
            m.record_tx(0, 12_500);
        }
        m.record_tx(0, 12_500); // 100 Mbit over 10 s = 10 Mbps
        for _ in 0..250 {
            m.record_link_drop(0, 0, DropCause::QueueOverflow);
        }
        assert!((m.utilization(LINK, 20_000_000) - 0.5).abs() < 1e-9);
        assert!((m.loss_rate(LINK) - 0.2).abs() < 1e-9);
        assert_eq!(m.utilization(2, 20_000_000), 0.0);
        assert_eq!(m.loss_rate(2), 0.0);
    }

    #[test]
    fn utilization_saturates_on_zero_length_runs() {
        let mut m = one_link();
        m.record_tx(0, 12_500);
        // end_time stays 0: a run that never advanced must report zero
        // utilization, not a division by zero.
        assert_eq!(m.end_time, 0);
        assert_eq!(m.utilization(LINK, 20_000_000), 0.0);
        assert!(m.utilization(LINK, 20_000_000).is_finite());
        // Zero capacity saturates the same way.
        m.end_time = SEC;
        assert_eq!(m.utilization(LINK, 0), 0.0);
    }

    #[test]
    fn loss_rate_saturates_on_zero_length_runs() {
        let m = one_link();
        // Nothing transmitted, nothing dropped: loss is 0, not NaN.
        assert_eq!(m.loss_rate(LINK), 0.0);
        assert!(m.loss_rate(LINK).is_finite());
        // An unknown link behaves the same.
        assert_eq!(m.loss_rate(99), 0.0);
    }

    #[test]
    fn an_address_no_link_owns_reads_zero() {
        let mut m = one_link();
        m.record_tx(0, 12_500);
        m.record_link_drop(0, 0, DropCause::QueueOverflow);
        for addr in [0, LINK - 1, LINK + 1, LinkAddr::MAX] {
            assert_eq!(m.link_tx_bytes(addr), 0, "address {addr}");
            assert_eq!(m.link_tx_pkts(addr), 0, "address {addr}");
            assert_eq!(m.link_budget(addr), DropBudget::default(), "address {addr}");
        }
        assert_eq!(m.link_tx_pkts(LINK), 1);
    }

    #[test]
    fn drop_accounting_is_typed_and_consistent() {
        let mut m = one_link();
        m.drops.tag(3, 1);
        m.record_link_drop(0, 3, DropCause::QueueOverflow);
        m.record_link_drop(0, 3, DropCause::LegacyDemotion);
        m.record_defense_drop(4, DropCause::StopItFilter);
        assert_eq!(m.queue_drop_pkts(), 2);
        assert_eq!(m.defense_drop_pkts(), 1);
        assert_eq!(m.total_drop_pkts(), 3);
        assert_eq!(m.link_budget(LINK).get(DropCause::QueueOverflow), 1);
        assert_eq!(m.link_budget(LINK).get(DropCause::LegacyDemotion), 1);
        assert_eq!(m.drops.group(1).total(), 2);
        assert_eq!(m.drops.group(0).get(DropCause::StopItFilter), 1);
        assert_eq!(m.profile.drops, 3);
    }
}
