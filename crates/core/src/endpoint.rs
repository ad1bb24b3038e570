//! End-host shim logic: how senders choose between request and regular
//! packets, how receivers echo feedback, and the priority back-off rule for
//! request packets (§3.1, §4.2, §4.3.4).
//!
//! The shim sits between IP and TCP/UDP on NetFence-ready hosts (§6.2). It
//! is deliberately untrusted: everything here can be ignored or subverted by
//! a malicious host without breaking the NetFence guarantees — the access
//! router enforces policing, the shim merely makes legitimate hosts behave
//! efficiently.

use netfence_telemetry::IdMap;

use crate::config::Config;
use crate::feedback::Feedback;
use crate::header::NetFenceHeader;
use crate::request_limiter::RequestLimiter;
use crate::types::{HostId, Nanos, SEC};

/// Per-peer state of a host shim. Nearly every host talks to one peer, which
/// sits inline in the shim; only a host with more (a victim, a colluder) ever
/// touches the hash table. Never iterated: which came first is unobservable.
#[derive(Debug, Default)]
struct PeerTable<V> {
    first: Option<(HostId, V)>,
    rest: IdMap<HostId, V>,
}

impl<V: Default> PeerTable<V> {
    fn get(&self, id: HostId) -> Option<&V> {
        match &self.first {
            Some((first, state)) if *first == id => Some(state),
            _ if self.rest.is_empty() => None,
            _ => self.rest.get(&id),
        }
    }

    fn entry_or_default(&mut self, id: HostId) -> &mut V {
        let (first, state) = self.first.get_or_insert_with(|| (id, V::default()));
        if *first == id {
            state
        } else {
            self.rest.entry(id).or_default()
        }
    }
}

/// Per-destination sender state: which feedback to present next.
#[derive(Debug, Clone, Default)]
struct PerDestination {
    /// The freshest `L↑` or `nop` feedback received back from the receiver.
    best_incr: Option<Feedback>,
    /// The freshest feedback of any kind received back from the receiver.
    latest: Option<Feedback>,
    /// When the sender first started (re)requesting without valid feedback —
    /// drives the priority back-off of §4.2.
    requesting_since: Option<Nanos>,
}

impl PerDestination {
    /// See [`SenderShim::presentable_feedback`].
    fn presentable(&self, now: Nanos, cfg: &Config) -> Option<Feedback> {
        let fresh = |fb: &Option<Feedback>| fb.filter(|f| !f.is_expired(now, cfg.feedback_expiry));
        fresh(&self.best_incr).or_else(|| fresh(&self.latest))
    }

    /// The priority level for a request packet to this destination, based
    /// on how long the sender has been waiting without valid feedback
    /// (§4.2: the waiting time sets the priority; after a 1 s back-off a
    /// default host can afford level 10).
    fn request_priority(&mut self, now: Nanos, cfg: &Config) -> u8 {
        let since = *self.requesting_since.get_or_insert(now);
        let waited = now.saturating_sub(since);
        // The access router's token bucket can hold at most
        // `request_bucket_depth` tokens, so asking for a level the bucket
        // can never afford would get the request dropped at the access
        // router forever.
        let tokens = (waited as f64 / SEC as f64 * cfg.request_tokens_per_sec())
            .min(cfg.request_bucket_depth);
        RequestLimiter::level_for_tokens(tokens, cfg.max_request_priority)
    }
}

/// Sender-side shim: tracks returned feedback per destination and builds
/// NetFence headers for outgoing packets.
#[derive(Debug, Default)]
pub struct SenderShim {
    dests: PeerTable<PerDestination>,
}

impl SenderShim {
    /// Create an empty shim.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record feedback returned by the receiver `dst` (piggybacked in the
    /// echoed-feedback field of a packet from `dst`, or carried by a
    /// dedicated feedback packet for one-way transports).
    pub fn feedback_returned(&mut self, dst: HostId, fb: Feedback) {
        let entry = self.dests.entry_or_default(dst);
        let newer = |old: &Option<Feedback>| old.is_none_or(|o| fb.ts() >= o.ts());
        if newer(&entry.latest) {
            entry.latest = Some(fb);
        }
        if (fb.is_incr() || fb.is_nop()) && newer(&entry.best_incr) {
            entry.best_incr = Some(fb);
        }
        entry.requesting_since = None;
    }

    /// The feedback the sender will present for its next packet to `dst`,
    /// following §4.3.4: always present un-expired `L↑` (or `nop`) feedback
    /// if available — even if newer `L↓` feedback exists — otherwise the
    /// newest feedback of any kind. Returns `None` when nothing un-expired
    /// is held (a request packet must be sent).
    pub fn presentable_feedback(&self, now: Nanos, dst: HostId, cfg: &Config) -> Option<Feedback> {
        self.dests.get(dst)?.presentable(now, cfg)
    }

    /// Build the NetFence header for the next packet to `dst`.
    ///
    /// Returns a regular header presenting held feedback when possible, or a
    /// request header at the appropriate back-off priority otherwise.
    /// `echo` is the feedback to piggyback for the reverse direction (from
    /// [`ReceiverShim::echo_for`]).
    pub fn make_header(
        &mut self,
        now: Nanos,
        dst: HostId,
        proto: u8,
        echo: Option<Feedback>,
        cfg: &Config,
    ) -> NetFenceHeader {
        // One probe serves both the feedback lookup and the back-off clock.
        let entry = self.dests.entry_or_default(dst);
        match entry.presentable(now, cfg) {
            Some(fb) => NetFenceHeader::regular(proto, fb, echo),
            None => {
                let priority = entry.request_priority(now, cfg);
                let mut h = NetFenceHeader::request(
                    proto,
                    priority,
                    Feedback::Nop { ts: (now / SEC) as u32, token: 0 },
                );
                h.echoed = echo;
                h
            }
        }
    }

    /// Whether the sender currently holds presentable feedback for `dst`.
    pub fn has_feedback(&self, now: Nanos, dst: HostId, cfg: &Config) -> bool {
        self.presentable_feedback(now, dst, cfg).is_some()
    }
}

/// How a receiver treats a given sender (§3.3: congestion feedback as
/// capability).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReceiverPolicy {
    /// Echo feedback back to the sender (normal operation, and what a
    /// colluding receiver does for its attackers).
    #[default]
    Echo,
    /// Never return feedback: the sender is unwanted and can at most send
    /// strictly rate-limited request packets.
    Suppress,
}

/// What a receiver remembers about one sender.
#[derive(Debug, Clone, Copy, Default)]
struct Peer {
    /// The latest feedback the sender presented.
    latest: Option<Feedback>,
    /// An explicit policy for this sender, overriding the default.
    policy: Option<ReceiverPolicy>,
}

/// Receiver-side shim: remembers the latest feedback observed from each
/// sender and decides whether to echo it.
#[derive(Debug, Default)]
pub struct ReceiverShim {
    peers: PeerTable<Peer>,
    default_policy: ReceiverPolicy,
}

impl ReceiverShim {
    /// Create a receiver shim that echoes feedback to everyone by default.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a receiver that suppresses feedback by default (a victim that
    /// whitelists known-good senders).
    pub fn deny_by_default() -> Self {
        ReceiverShim { default_policy: ReceiverPolicy::Suppress, ..Default::default() }
    }

    /// Set the policy for a specific sender (e.g. classify it as attack
    /// traffic and suppress it).
    pub fn set_policy(&mut self, sender: HostId, policy: ReceiverPolicy) {
        self.peers.entry_or_default(sender).policy = Some(policy);
    }

    /// Record the presented feedback of a packet received from `sender`.
    pub fn packet_received(&mut self, sender: HostId, presented: Feedback) {
        let peer = self.peers.entry_or_default(sender);
        if peer.latest.is_none_or(|old| presented.ts() >= old.ts() || presented.is_decr()) {
            peer.latest = Some(presented);
        }
    }

    /// The feedback to echo back to `sender`, if policy allows.
    pub fn echo_for(&self, sender: HostId) -> Option<Feedback> {
        let peer = self.peers.get(sender)?;
        match peer.policy.unwrap_or(self.default_policy) {
            ReceiverPolicy::Suppress => None,
            ReceiverPolicy::Echo => peer.latest,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feedback::Action;
    use crate::header::PacketKind;
    use crate::types::LinkId;

    fn nop(ts: u32) -> Feedback {
        Feedback::Nop { ts, token: 1 }
    }
    fn incr(ts: u32) -> Feedback {
        Feedback::Mon { link: LinkId(7), action: Action::Incr, ts, token: 2, token_nop: Some(3) }
    }
    fn decr(ts: u32) -> Feedback {
        Feedback::Mon { link: LinkId(7), action: Action::Decr, ts, token: 4, token_nop: None }
    }

    #[test]
    fn sender_without_feedback_sends_requests_with_backoff() {
        let cfg = Config::default();
        let mut s = SenderShim::new();
        let dst = HostId(9);
        let h0 = s.make_header(10 * SEC, dst, 6, None, &cfg);
        assert_eq!(h0.kind, PacketKind::Request);
        assert_eq!(h0.priority, 0, "first attempt goes out at the lowest priority");
        // One second later (the first TCP SYN retransmission in the Figure 8
        // experiment) the affordable priority is 10.
        let h1 = s.make_header(11 * SEC, dst, 6, None, &cfg);
        assert_eq!(h1.kind, PacketKind::Request);
        assert_eq!(h1.priority, 10);
        // Even later the priority keeps growing but stays bounded.
        let h2 = s.make_header(200 * SEC, dst, 6, None, &cfg);
        assert!(h2.priority <= cfg.max_request_priority);
    }

    #[test]
    fn returned_feedback_switches_sender_to_regular_packets() {
        let cfg = Config::default();
        let mut s = SenderShim::new();
        let dst = HostId(9);
        s.make_header(10 * SEC, dst, 6, None, &cfg);
        s.feedback_returned(dst, nop(10));
        let h = s.make_header(11 * SEC, dst, 6, None, &cfg);
        assert_eq!(h.kind, PacketKind::Regular);
        assert_eq!(h.presented, nop(10));
        assert!(s.has_feedback(11 * SEC, dst, &cfg));
    }

    #[test]
    fn expired_feedback_forces_new_request_cycle() {
        let cfg = Config::default();
        let mut s = SenderShim::new();
        let dst = HostId(9);
        s.feedback_returned(dst, nop(10));
        assert!(s.has_feedback(12 * SEC, dst, &cfg));
        // w = 4 s: at t = 15 s the feedback is still valid, at 15 s + it is
        // not.
        assert!(s.has_feedback(14 * SEC, dst, &cfg));
        assert!(!s.has_feedback(20 * SEC, dst, &cfg));
        let h = s.make_header(20 * SEC, dst, 6, None, &cfg);
        assert_eq!(h.kind, PacketKind::Request);
        // The back-off clock restarts from the new request.
        assert_eq!(h.priority, 0);
    }

    #[test]
    fn sender_prefers_unexpired_incr_over_newer_decr() {
        // §4.3.4: a legitimate sender mimics the aggressive strategy and
        // keeps presenting L↑ while it is fresh, even after receiving L↓.
        let cfg = Config::default();
        let mut s = SenderShim::new();
        let dst = HostId(9);
        s.feedback_returned(dst, incr(10));
        s.feedback_returned(dst, decr(11));
        assert_eq!(s.presentable_feedback(12 * SEC, dst, &cfg), Some(incr(10)));
        // Once the L↑ expires, the newer L↓ is presented (still within w).
        assert_eq!(s.presentable_feedback(15 * SEC, dst, &cfg), Some(decr(11)));
    }

    #[test]
    fn receiver_echoes_latest_feedback() {
        let mut r = ReceiverShim::new();
        let sender = HostId(3);
        assert_eq!(r.echo_for(sender), None);
        r.packet_received(sender, nop(5));
        assert_eq!(r.echo_for(sender), Some(nop(5)));
        r.packet_received(sender, decr(6));
        assert_eq!(r.echo_for(sender), Some(decr(6)));
    }

    #[test]
    fn victim_suppresses_unwanted_senders() {
        // §3.3: by returning no feedback the victim turns feedback into a
        // capability the attacker cannot obtain.
        let mut r = ReceiverShim::new();
        let good = HostId(1);
        let bad = HostId(666);
        r.set_policy(bad, ReceiverPolicy::Suppress);
        r.packet_received(good, nop(5));
        r.packet_received(bad, nop(5));
        assert_eq!(r.echo_for(good), Some(nop(5)));
        assert_eq!(r.echo_for(bad), None);
    }

    #[test]
    fn deny_by_default_receiver() {
        let mut r = ReceiverShim::deny_by_default();
        let known = HostId(1);
        let unknown = HostId(2);
        r.set_policy(known, ReceiverPolicy::Echo);
        r.packet_received(known, nop(5));
        r.packet_received(unknown, nop(5));
        assert_eq!(r.echo_for(known), Some(nop(5)));
        assert_eq!(r.echo_for(unknown), None);
    }

    #[test]
    fn header_carries_echoed_feedback() {
        let cfg = Config::default();
        let mut s = SenderShim::new();
        let dst = HostId(9);
        s.feedback_returned(dst, nop(10));
        let h = s.make_header(11 * SEC, dst, 6, Some(incr(9)), &cfg);
        assert_eq!(h.echoed, Some(incr(9)));
    }

    #[test]
    fn receiver_with_a_thousand_senders_echoes_each_its_own() {
        let mut r = ReceiverShim::new();
        for s in 0..1000 {
            r.packet_received(HostId(s), nop(s));
        }
        for s in 0..1000 {
            assert_eq!(r.echo_for(HostId(s)), Some(nop(s)));
        }
        assert_eq!(r.echo_for(HostId(1000)), None);
    }

    #[test]
    fn policy_for_a_second_peer_before_any_packet() {
        let mut r = ReceiverShim::new();
        r.set_policy(HostId(1), ReceiverPolicy::Suppress);
        r.set_policy(HostId(2), ReceiverPolicy::Suppress);
        for s in 1..=3 {
            r.packet_received(HostId(s), nop(5));
        }
        assert_eq!(r.echo_for(HostId(1)), None);
        assert_eq!(r.echo_for(HostId(2)), None);
        assert_eq!(r.echo_for(HostId(3)), Some(nop(5)));
    }

    proptest::proptest! {
        #[test]
        fn peer_table_is_a_map(ops in proptest::collection::vec((0u8..2, 0u32..4, 1u32..100), 0..40)) {
            let mut table = PeerTable::<u32>::default();
            let mut model = IdMap::<HostId, u32>::default();
            for (op, id, add) in ops {
                let id = HostId(id);
                if op == 0 {
                    *table.entry_or_default(id) += add;
                    *model.entry(id).or_default() += add;
                }
                for probe in (0..5).map(HostId) {
                    assert_eq!(table.get(probe), model.get(&probe), "{probe:?} after {id:?}");
                }
            }
        }
    }
}
