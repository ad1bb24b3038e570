//! Typed drop causes and the ledgers that count them.
//!
//! The simulator used to fold every non-queue drop into a single
//! `defense_drop_pkts` counter, which made "why did this defense lose
//! packets" unanswerable. [`DropCause`] names every drop point in the
//! data plane; [`DropBudget`] is a dense per-cause histogram and
//! [`DropLedger`] keeps one budget per link plus per-flow attribution so
//! the experiment layer can fold drops by role.

/// Why a packet was dropped. One variant per drop point in the simulator
/// and the defense systems; the set is closed so budgets can be dense
/// arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropCause {
    /// Regular-channel queue overflow at a link.
    QueueOverflow,
    /// Request-channel queue overflow — the per-priority request quota of
    /// NetFence §4.3 (or any request-class tail drop).
    RequestQuota,
    /// Legacy-channel eviction: traffic demoted below the protected
    /// channels lost the bandwidth competition at a link queue.
    LegacyDemotion,
    /// Unverifiable congestion feedback (bad or replayed MAC): the packet
    /// was demoted to the request channel and the request limiter refused
    /// it.
    InvalidMac,
    /// The access router's per-priority request-channel policer refused
    /// the packet.
    RequestRateLimit,
    /// The access router's per-(sender, bottleneck) AIMD rate limiter
    /// refused the packet.
    RegularRateLimit,
    /// A StopIt filter at the source's access router matched the packet.
    StopItFilter,
    /// TVA+ dropped a regular packet without a valid (unexpired)
    /// capability.
    TvaNoCapability,
    /// The packet reached a host other than its destination.
    Misrouted,
    /// No route: the forwarding node had no next hop for the destination.
    NoRoute,
    /// The packet's link went down underneath it: it was queued on (or in
    /// flight across) a link at the instant a fault took the link out, or
    /// it was offered to a link that is currently down.
    LinkDown,
}

impl DropCause {
    /// Number of distinct causes (the length of [`DropCause::ALL`]).
    pub const COUNT: usize = 11;

    /// Every cause, in display order.
    pub const ALL: [DropCause; DropCause::COUNT] = [
        DropCause::QueueOverflow,
        DropCause::RequestQuota,
        DropCause::LegacyDemotion,
        DropCause::InvalidMac,
        DropCause::RequestRateLimit,
        DropCause::RegularRateLimit,
        DropCause::StopItFilter,
        DropCause::TvaNoCapability,
        DropCause::Misrouted,
        DropCause::NoRoute,
        DropCause::LinkDown,
    ];

    /// Dense index of this cause into a [`DropBudget`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short stable label (used by tables, JSONL and bench keys).
    pub fn label(self) -> &'static str {
        match self {
            DropCause::QueueOverflow => "queue-overflow",
            DropCause::RequestQuota => "request-quota",
            DropCause::LegacyDemotion => "legacy-demotion",
            DropCause::InvalidMac => "invalid-mac",
            DropCause::RequestRateLimit => "request-rate-limit",
            DropCause::RegularRateLimit => "regular-rate-limit",
            DropCause::StopItFilter => "stopit-filter",
            DropCause::TvaNoCapability => "tva-no-capability",
            DropCause::Misrouted => "misrouted",
            DropCause::NoRoute => "no-route",
            DropCause::LinkDown => "link-down",
        }
    }
}

/// A dense per-cause drop histogram.
///
/// Its `Debug` names only the causes that dropped something, by
/// [`DropCause::label`] in [`DropCause::ALL`] order
/// (`DropBudget { queue-overflow: 812, link-down: 3 }`), so a cause that
/// never fires leaves every rendering of a budget unchanged.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct DropBudget {
    counts: [u64; DropCause::COUNT],
}

impl std::fmt::Debug for DropBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("DropBudget {")?;
        let mut sep = " ";
        for (cause, n) in self.nonzero() {
            write!(f, "{sep}{}: {n}", cause.label())?;
            sep = ", ";
        }
        f.write_str(if sep == " " { "}" } else { " }" })
    }
}

impl DropBudget {
    /// Count one drop.
    #[inline]
    pub fn add(&mut self, cause: DropCause) {
        self.counts[cause.index()] += 1;
    }

    /// Drops recorded for `cause`.
    pub fn get(&self, cause: DropCause) -> u64 {
        self.counts[cause.index()]
    }

    /// Total drops across all causes.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fold another budget into this one.
    pub fn merge(&mut self, other: &DropBudget) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// `(cause, count)` pairs with a nonzero count, in display order.
    pub fn nonzero(&self) -> impl Iterator<Item = (DropCause, u64)> + '_ {
        DropCause::ALL.iter().map(|&c| (c, self.get(c))).filter(|&(_, n)| n > 0)
    }
}

/// The always-on drop ledger the engine maintains: one [`DropBudget`] per
/// link (dense, indexed by link id) plus a run total and per-flow
/// attribution.
///
/// Per-flow budgets are dense too, indexed by flow id and grown on demand:
/// flow ids are the small consecutive integers `Simulator::add_flow` hands
/// out, and under attack drops are as common as forwards (`chaos_ctrl`:
/// 1.06 M drops for 1.07 M packets), so this is a per-packet path.
#[derive(Debug, Clone, Default)]
pub struct DropLedger {
    per_link: Vec<DropBudget>,
    per_flow: Vec<DropBudget>,
    total: DropBudget,
}

impl DropLedger {
    /// A ledger for a network with `links` links.
    pub fn new(links: usize) -> Self {
        DropLedger {
            per_link: vec![DropBudget::default(); links],
            per_flow: Vec::new(),
            total: DropBudget::default(),
        }
    }

    /// Count one drop of flow `flow`, at link `link` if the packet died at
    /// a link queue (`None` for node-level drops).
    #[inline]
    pub fn record(&mut self, link: Option<usize>, flow: u64, cause: DropCause) {
        if let Some(idx) = link {
            if let Some(b) = self.per_link.get_mut(idx) {
                b.add(cause);
            }
        }
        let flow = flow as usize;
        if flow >= self.per_flow.len() {
            self.per_flow.resize(flow + 1, DropBudget::default());
        }
        self.per_flow[flow].add(cause);
        self.total.add(cause);
    }

    /// The run-total budget.
    pub fn total(&self) -> &DropBudget {
        &self.total
    }

    /// The budget of link `idx` (zero budget when out of range).
    pub fn link(&self, idx: usize) -> DropBudget {
        self.per_link.get(idx).copied().unwrap_or_default()
    }

    /// The budget attributed to flow `flow` (zero budget for a flow that
    /// never lost a packet).
    pub fn flow(&self, flow: u64) -> DropBudget {
        self.per_flow.get(flow as usize).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_causes_have_distinct_dense_indices() {
        let mut seen = [false; DropCause::COUNT];
        for c in DropCause::ALL {
            assert!(!seen[c.index()], "duplicate index for {c:?}");
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn budget_counts_and_merges() {
        let mut a = DropBudget::default();
        a.add(DropCause::QueueOverflow);
        a.add(DropCause::QueueOverflow);
        a.add(DropCause::StopItFilter);
        let mut b = DropBudget::default();
        b.add(DropCause::QueueOverflow);
        b.merge(&a);
        assert_eq!(b.get(DropCause::QueueOverflow), 3);
        assert_eq!(b.get(DropCause::StopItFilter), 1);
        assert_eq!(b.total(), 4);
        let nz: Vec<_> = b.nonzero().collect();
        assert_eq!(nz, vec![(DropCause::QueueOverflow, 3), (DropCause::StopItFilter, 1)]);
    }

    #[test]
    fn debug_names_exactly_the_nonzero_causes_in_order() {
        let mut b = DropBudget::default();
        assert_eq!(format!("{b:?}"), "DropBudget {}");
        b.add(DropCause::LinkDown);
        for _ in 0..3 {
            b.add(DropCause::QueueOverflow);
        }
        let expected: Vec<String> =
            b.nonzero().map(|(c, n)| format!("{}: {n}", c.label())).collect();
        assert_eq!(expected, ["queue-overflow: 3", "link-down: 1"]);
        assert_eq!(format!("{b:?}"), format!("DropBudget {{ {} }}", expected.join(", ")));
    }

    #[test]
    fn ledger_attributes_per_link_and_per_flow() {
        let mut l = DropLedger::new(2);
        l.record(Some(0), 7, DropCause::QueueOverflow);
        l.record(Some(1), 7, DropCause::LegacyDemotion);
        l.record(None, 9, DropCause::NoRoute);
        assert_eq!(l.total().total(), 3);
        assert_eq!(l.link(0).get(DropCause::QueueOverflow), 1);
        assert_eq!(l.link(1).get(DropCause::LegacyDemotion), 1);
        assert_eq!(l.link(5).total(), 0);
        assert_eq!(l.flow(7).total(), 2);
        assert_eq!(l.flow(9).get(DropCause::NoRoute), 1);
        assert_eq!(l.flow(1).total(), 0);
        assert_eq!(l.flow(10).total(), 0);
        assert_eq!(l.flow(u64::MAX).total(), 0);
    }
}
