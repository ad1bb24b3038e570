//! Typed drop causes and the ledgers that count them.
//!
//! The simulator used to fold every non-queue drop into a single
//! `defense_drop_pkts` counter, which made "why did this defense lose
//! packets" unanswerable. [`DropCause`] names every drop point in the
//! data plane; [`DropBudget`] is a dense per-cause histogram and
//! [`DropLedger`] keeps a budget per dropping link and per drop group, so
//! the experiment layer reads drops by role without summing flows.

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

/// The always-on drop ledger the engine maintains: a run total, one
/// [`DropBudget`] per link that ever dropped, and one per drop group.
///
/// Its state scales with what drops, not with the network: under attack
/// only a handful of links drop, so a link gets its budget on its first
/// drop. `slot[link]` is 0 until then and afterwards the 1-based index of
/// the link's budget, so the slot table is a zeroed allocation the OS hands
/// out lazily. Flows are attributed by group, not one by one: each flow
/// carries a `u16` tag ([`DropLedger::tag`]), 0 for an untagged flow, and
/// every drop also counts in its flow's group budget. Under attack drops
/// are as common as forwards (`chaos_ctrl`: 1.06 M drops for 1.07 M
/// packets), and the tag table is two bytes per flow, so this per-packet
/// path stays in cache.
#[derive(Debug, Clone, Default)]
pub struct DropLedger {
    slot: Vec<u32>,
    links: Vec<(usize, DropBudget)>,
    flow_group: Vec<u16>,
    groups: Vec<DropBudget>,
    total: DropBudget,
}

impl DropLedger {
    /// A ledger for a network with `links` links.
    pub fn new(links: usize) -> Self {
        DropLedger { slot: vec![0; links], ..DropLedger::default() }
    }

    /// Count the drops of flow `flow` from now on in group `group` (0 is
    /// the untagged group every flow starts in).
    pub fn tag(&mut self, flow: usize, group: u16) {
        if flow >= self.flow_group.len() {
            self.flow_group.resize(flow + 1, 0);
        }
        self.flow_group[flow] = group;
    }

    /// Count one drop of flow `flow`, at link `link` if the packet died at
    /// a link queue (`None` for node-level drops).
    #[inline]
    pub fn record(&mut self, link: Option<usize>, flow: u64, cause: DropCause) {
        if let Some(idx) = link.filter(|&idx| idx < self.slot.len()) {
            if self.slot[idx] == 0 {
                self.links.push((idx, DropBudget::default()));
                self.slot[idx] = self.links.len() as u32;
            }
            self.links[self.slot[idx] as usize - 1].1.add(cause);
        }
        let group = self.flow_group.get(flow as usize).map_or(0, |&g| usize::from(g));
        if group >= self.groups.len() {
            self.groups.resize(group + 1, DropBudget::default());
        }
        self.groups[group].add(cause);
        self.total.add(cause);
    }

    /// The run-total budget.
    pub fn total(&self) -> &DropBudget {
        &self.total
    }

    /// The budget of link `idx` (zero budget until its first drop, and when
    /// out of range).
    pub fn link(&self, idx: usize) -> DropBudget {
        match self.slot.get(idx) {
            Some(&slot) if slot > 0 => self.links[slot as usize - 1].1,
            _ => DropBudget::default(),
        }
    }

    /// `(link index, budget)` of every link that dropped, in first-drop
    /// order.
    pub fn dropping_links(&self) -> impl Iterator<Item = (usize, &DropBudget)> + '_ {
        self.links.iter().map(|(idx, b)| (*idx, b))
    }

    /// The budget of drop group `group` (zero budget for a group that never
    /// lost a packet).
    pub fn group(&self, group: u16) -> DropBudget {
        self.groups.get(usize::from(group)).copied().unwrap_or_default()
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
    fn a_link_budget_reads_zero_until_its_first_drop() {
        let mut l = DropLedger::new(4);
        assert!((0..4).all(|i| l.link(i) == DropBudget::default()));
        assert_eq!(l.dropping_links().count(), 0);
        l.record(Some(2), 0, DropCause::QueueOverflow);
        l.record(Some(0), 0, DropCause::LegacyDemotion);
        l.record(Some(2), 0, DropCause::LinkDown);
        assert_eq!(l.link(1).total(), 0);
        assert_eq!(l.link(3).total(), 0);
        assert_eq!(l.link(2).get(DropCause::QueueOverflow), 1);
        assert_eq!(l.link(2).get(DropCause::LinkDown), 1);
        assert_eq!(l.link(0).get(DropCause::LegacyDemotion), 1);
        // Slots are handed out in first-drop order, one per link.
        let order: Vec<_> = l.dropping_links().map(|(idx, b)| (idx, b.total())).collect();
        assert_eq!(order, [(2, 2), (0, 1)]);
    }

    #[test]
    fn out_of_range_links_and_flows_count_only_in_the_totals() {
        let mut l = DropLedger::new(2);
        l.tag(1, 3);
        l.record(Some(2), 1, DropCause::QueueOverflow);
        l.record(Some(usize::MAX), u64::MAX, DropCause::LinkDown);
        l.record(None, 1_000_000, DropCause::NoRoute);
        assert_eq!(l.total().total(), 3);
        assert_eq!(l.dropping_links().count(), 0);
        assert_eq!(l.link(2).total(), 0);
        assert_eq!(l.link(usize::MAX).total(), 0);
        assert_eq!(l.group(3).get(DropCause::QueueOverflow), 1);
        assert_eq!(l.group(0).get(DropCause::LinkDown), 1);
        assert_eq!(l.group(0).get(DropCause::NoRoute), 1);
        assert_eq!(l.group(u16::MAX).total(), 0);
    }

    #[test]
    fn untagged_flows_land_in_group_zero_and_groups_sum_to_the_total() {
        let mut l = DropLedger::new(2);
        l.tag(7, 1);
        l.tag(9, 2);
        l.tag(8, 2);
        l.tag(8, 0); // a re-tag moves the flow's later drops
        l.record(Some(0), 7, DropCause::QueueOverflow);
        l.record(Some(1), 7, DropCause::LegacyDemotion);
        l.record(None, 9, DropCause::NoRoute);
        l.record(None, 8, DropCause::StopItFilter);
        l.record(Some(0), 4, DropCause::RequestQuota);
        assert_eq!(l.group(1).total(), 2);
        assert_eq!(l.group(2).get(DropCause::NoRoute), 1);
        assert_eq!(l.group(2).total(), 1);
        assert_eq!(l.group(0).get(DropCause::StopItFilter), 1);
        assert_eq!(l.group(0).get(DropCause::RequestQuota), 1);
        let mut sum = DropBudget::default();
        for g in 0..=2 {
            sum.merge(&l.group(g));
        }
        assert_eq!(sum, *l.total());
        let mut links = DropBudget::default();
        l.dropping_links().for_each(|(_, b)| links.merge(b));
        assert_eq!(links.total(), 3);
    }
}
