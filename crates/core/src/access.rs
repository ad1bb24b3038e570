//! Access-router logic (§4.2, §4.3.3, §4.3.4, Figure 18).
//!
//! The access router sits at the trust boundary between end systems and the
//! network. For every outbound packet from one of its hosts it:
//!
//! 1. validates the congestion policing feedback the sender presents;
//!    packets with missing/invalid feedback are demoted to request packets
//!    and policed by the per-sender priority token bucket (§4.2);
//! 2. polices valid regular packets: `nop` feedback passes freely, `mon`
//!    feedback sends the packet through the per-(sender, bottleneck link)
//!    leaky-bucket rate limiter (§4.3.3). Under Appendix B a packet may
//!    meet several limiters — one per link of a B.1 chain, or one per link
//!    B.2 infers — and passes only if none refuses it;
//! 3. re-stamps the feedback of every packet it forwards or holds (`nop`
//!    refreshed, `L↑`/`L↓` reset to `L↑`, under B.1 a fresh chain origin),
//!    so the bottleneck router only has to touch packets when it is
//!    actually overloaded. A packet it drops keeps the header it was
//!    presented with: it polices first and stamps second, so no MAC is
//!    spent on feedback no one will read;
//! 4. once per control interval, adjusts every rate limiter with the robust
//!    AIMD rule (§4.3.4) and garbage-collects limiters that have been idle
//!    for `Ta`.

use std::sync::Arc;

use netfence_crypto::{AsKeyTable, TimeVaryingSecret};
use netfence_telemetry::{DropCause, IdMap};

use crate::aimd::{Adjustment, AimdState};
use crate::bottleneck::Channel;
use crate::config::Config;
use crate::feedback::{self, Action, Feedback, FeedbackError, CHAIN_CAP};
use crate::header::{NetFenceHeader, PacketKind};
use crate::multi::{adjust_with_inference, InferenceCache, InferenceFlags, MultiBottleneck};
use crate::regular_limiter::{BucketVerdict, LeakyBucket};
use crate::request_limiter::{RequestLimiter, RequestVerdict};
use crate::types::{AsId, FlowPair, HostId, LimiterKey, LinkId, Nanos};

/// The access router's decision for an outbound packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessVerdict {
    /// Forward immediately on the given channel.
    Forward {
        /// Which router channel the packet should use downstream.
        channel: Channel,
    },
    /// Hold the packet and release it at `release_at` (regular channel).
    Queued {
        /// Absolute release time computed by the leaky bucket (the slowest
        /// one, when several hold the packet).
        release_at: Nanos,
        /// The links whose limiters hold the packet: release it from each
        /// with [`AccessRouter::packet_released`].
        held_in: LinkSet,
    },
    /// Drop the packet. The cause is one of
    /// [`DropCause::RequestRateLimit`] (the per-sender request limiter had
    /// too few tokens for the packet's priority level),
    /// [`DropCause::RegularRateLimit`] (the per-(sender, bottleneck)
    /// limiter's queue delay exceeded the maximum) or
    /// [`DropCause::InvalidMac`] (a regular packet whose presented feedback
    /// failed validation was demoted to a request and then refused by the
    /// request limiter — the limiter made the decision, but the cause is
    /// kept apart so spoofed or stale feedback can be told from a plain
    /// request flood).
    ///
    /// A dropped packet is never re-stamped: its header is left exactly as
    /// presented, so a refusal costs only the validation of that header.
    Drop(DropCause),
}

/// Up to [`CHAIN_CAP`] links, in the order added: the limiters holding one
/// packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkSet {
    links: [LinkId; CHAIN_CAP],
    len: u8,
}

impl LinkSet {
    /// Add `link`; a full set stays as it is.
    fn push(&mut self, link: LinkId) {
        if let Some(slot) = self.links.get_mut(usize::from(self.len)) {
            *slot = link;
            self.len += 1;
        }
    }

    /// The links, in the order added.
    pub fn as_slice(&self) -> &[LinkId] {
        &self.links[..usize::from(self.len)]
    }
}

/// One per-(sender, bottleneck link) rate limiter: leaky bucket + AIMD state
/// plus the bookkeeping needed for `Ta` garbage collection.
#[derive(Debug, Clone)]
pub struct RegularLimiter {
    /// The policing leaky bucket.
    pub bucket: LeakyBucket,
    /// The AIMD rate-limit controller.
    pub aimd: AimdState,
    /// Last time this limiter saw `L↓` feedback or discarded a packet; used
    /// by the `Ta` reclamation rule (§4.3.1).
    pub(crate) last_activity: Nanos,
    /// What this interval told the limiter beyond its own `L↑` (Appendix
    /// B.2); reset at every adjustment.
    pub(crate) flags: InferenceFlags,
}

impl RegularLimiter {
    pub(crate) fn new(cfg: &Config, now: Nanos) -> Self {
        let aimd = AimdState::new(cfg, now);
        RegularLimiter {
            bucket: LeakyBucket::new(now, aimd.rate(), cfg.max_limiter_delay),
            aimd,
            last_activity: now,
            flags: InferenceFlags::default(),
        }
    }

    /// Current rate limit in bits per second.
    pub fn rate(&self) -> u64 {
        self.aimd.rate()
    }
}

/// The access router core.
#[derive(Debug)]
pub struct AccessRouter {
    pub(crate) cfg: Config,
    /// This router's AS.
    my_as: AsId,
    /// The periodically-changing secret `Ka`.
    pub(crate) ka: TimeVaryingSecret,
    /// Pairwise keys shared with other ASes (needed to validate `L↓`):
    /// usually a share of the router's one store.
    pub(crate) as_keys: AsKeyTable,
    /// IP-to-AS mapping for bottleneck link identifiers (§4.4 uses an
    /// IP-to-AS mapping tool; the simulator installs the mapping when it
    /// builds the topology). Identical for every access router of a
    /// deployment, so they share one copy.
    pub(crate) link_as: Arc<IdMap<LinkId, AsId>>,
    /// Per-sender request limiters.
    request_limiters: IdMap<HostId, RequestLimiter>,
    /// Per-(sender, bottleneck link) regular rate limiters.
    pub(crate) limiters: IdMap<LimiterKey, RegularLimiter>,
    /// Regular packets demoted to requests because their feedback did not
    /// validate.
    pub(crate) invalid_feedback: u64,
    /// Appendix B.2: the links feedback named toward each destination
    /// prefix (empty unless [`Config::multi_bottleneck`] is `Inference`).
    pub(crate) inference: InferenceCache,
}

impl AccessRouter {
    /// Create an access router for AS `my_as` with secret root key
    /// `ka_root` and the pairwise AS key table `as_keys`.
    pub fn new(cfg: Config, my_as: AsId, ka_root: [u8; 16], as_keys: AsKeyTable) -> Self {
        AccessRouter {
            my_as,
            ka: TimeVaryingSecret::new(ka_root),
            as_keys,
            link_as: Arc::default(),
            request_limiters: IdMap::default(),
            limiters: IdMap::default(),
            invalid_feedback: 0,
            // A cached link lives as long as an idle limiter does.
            inference: InferenceCache::new(cfg.ta),
            cfg,
        }
    }

    /// This router's AS.
    pub fn my_as(&self) -> AsId {
        self.my_as
    }

    /// Register the AS that owns a (potential bottleneck) link, so `L↓`
    /// feedback referencing it can be validated.
    pub fn register_link_as(&mut self, link: LinkId, as_id: AsId) {
        Arc::make_mut(&mut self.link_as).insert(link, as_id);
    }

    /// Replace the link → owning-AS map with `map`, shared with the other
    /// access routers of the deployment (a later [`register_link_as`]
    /// copies it first).
    ///
    /// [`register_link_as`]: Self::register_link_as
    pub fn share_link_as(&mut self, map: Arc<IdMap<LinkId, AsId>>) {
        self.link_as = map;
    }

    /// Replace the router's time-varying secret `Ka` with one derived from
    /// `new_root`. Feedback stamped under the old secret immediately fails
    /// validation (§4.4 makes unverifiable feedback indistinguishable from
    /// absent feedback), so a rotation — or a fault-injected key desync —
    /// surfaces as typed `invalid-mac` demotions until freshly stamped
    /// feedback circulates back.
    pub fn rotate_secret(&mut self, new_root: [u8; 16]) {
        self.ka = TimeVaryingSecret::new(new_root);
    }

    /// Regular packets demoted to requests so far because their feedback
    /// did not validate. (Every other outcome is a verdict the caller
    /// counts; drops go to the engine's drop ledger.)
    pub fn invalid_feedback(&self) -> u64 {
        self.invalid_feedback
    }

    /// Number of live per-(sender, bottleneck) rate limiters.
    pub fn limiter_count(&self) -> usize {
        self.limiters.len()
    }

    /// The current rate limit of a limiter, if it exists.
    pub fn rate_limit(&self, src: HostId, link: LinkId) -> Option<u64> {
        self.limiters.get(&LimiterKey { src, link }).map(|l| l.rate())
    }

    /// The per-(sender, bottleneck link) limiter table, for inspection (the
    /// benchmark and tests read rates and queue depths through it).
    pub fn limiters(&self) -> &IdMap<LimiterKey, RegularLimiter> {
        &self.limiters
    }

    /// Validate the feedback a sender presented (§4.4 "Validating
    /// feedback").
    fn validate_presented(
        &mut self,
        now: Nanos,
        flow: FlowPair,
        fb: &Feedback,
    ) -> Result<(), FeedbackError> {
        // Only unexpired `L↓` or chain entries need a `Kai`: `validate`
        // resolves (and on first use derives) exactly those.
        let (link_as, as_keys) = (&self.link_as, &self.as_keys);
        let kai = |link| link_as.get(&link).and_then(|a| as_keys.get(a.0));
        feedback::validate(fb, &mut self.ka, kai, now, flow, self.cfg.feedback_expiry)
    }

    /// Police an outbound packet from a local sender and re-stamp its
    /// feedback (Figure 18 `rate_limit_packet` + `update_packet`).
    ///
    /// `wire_bytes` is the total packet length used for rate accounting.
    /// On a forward or a hold the header is mutated in place: its presented
    /// feedback is replaced with the fresh feedback that will travel with
    /// the packet. On a [`AccessVerdict::Drop`] it is left as presented.
    pub fn process_outbound(
        &mut self,
        now: Nanos,
        flow: FlowPair,
        header: &mut NetFenceHeader,
        wire_bytes: usize,
    ) -> AccessVerdict {
        let treat_as_request = match header.kind {
            PacketKind::Request => true,
            PacketKind::Regular => match self.validate_presented(now, flow, &header.presented) {
                Ok(()) => false,
                Err(_) => {
                    self.invalid_feedback += 1;
                    true
                }
            },
        };

        if treat_as_request {
            let demoted = header.kind == PacketKind::Regular;
            return self.process_request(now, flow, header, demoted);
        }

        let verdict = match header.presented {
            // No downstream link needs policing.
            Feedback::Nop { .. } => AccessVerdict::Forward { channel: Channel::Regular },
            Feedback::Mon { link, action, ts, .. } => {
                let mut steps = [(link, (action, false)); CHAIN_CAP];
                let mut n = 1;
                if self.cfg.multi_bottleneck == MultiBottleneck::Inference {
                    // B.2: every other link cached toward the destination's
                    // prefix polices the packet too, and infers its action.
                    self.inference.record(now, flow.dst, link);
                    let others = self.inference.links_for(now, flow.dst).filter(|&l| l != link);
                    for (step, other) in steps[1..].iter_mut().zip(others) {
                        *step = (other, (action, true));
                        n += 1;
                    }
                }
                self.police(now, flow.src, &steps[..n], ts, wire_bytes)
            }
            Feedback::Chain { ts, .. } => {
                // B.1: one step per named link. A link named twice is one
                // limiter, fed `L↓` if any of its entries is.
                let mut steps = [(LinkId::NULL, (Action::Incr, false)); CHAIN_CAP];
                let mut n = 0;
                for (link, action) in header.presented.chain() {
                    match steps[..n].iter_mut().find(|(l, _)| *l == link) {
                        Some((_, heard)) if action == Action::Decr => heard.0 = action,
                        Some(_) => {}
                        None => {
                            steps[n] = (link, (action, false));
                            n += 1;
                        }
                    }
                }
                self.police(now, flow.src, &steps[..n], ts, wire_bytes)
            }
        };
        // Police first: a refused packet leaves with no fresh stamp, so it
        // costs only its validation.
        if !matches!(verdict, AccessVerdict::Drop(_)) {
            header.presented = self.stamp(now, flow, header.presented.link());
        }
        verdict
    }

    /// The feedback a packet this router forwards or holds leaves with
    /// (§4.3.3): under B.1 a fresh chain origin; otherwise `L↑` for the link
    /// whose limiter policed it — whatever the old action, since the
    /// bottleneck rewrites it only while actually overloaded — else a
    /// refreshed `nop`.
    fn stamp(&mut self, now: Nanos, flow: FlowPair, link: Option<LinkId>) -> Feedback {
        match (self.cfg.multi_bottleneck, link) {
            (MultiBottleneck::MultiFeedback, _) => feedback::stamp_origin(&mut self.ka, now, flow),
            (MultiBottleneck::Core | MultiBottleneck::Inference, Some(link)) => {
                feedback::stamp_incr(&mut self.ka, now, flow, link)
            }
            (MultiBottleneck::Core | MultiBottleneck::Inference, None) => {
                feedback::stamp_nop(&mut self.ka, now, flow)
            }
        }
    }

    /// The limiter step (§4.3.3), taken once per limiter a valid regular
    /// packet meets: get or create the `key` limiter, feed it the
    /// feedback's `(action, ts)` — to its AIMD, or to its inference flags
    /// when `heard` marks the action inferred (Appendix B.2) — and quote
    /// the packet to its bucket. A heard `L↓` or a discard counts as
    /// activity for `Ta`.
    #[inline]
    fn limiter_step(
        &mut self,
        now: Nanos,
        key: LimiterKey,
        heard: (Action, bool),
        ts: u32,
        wire_bytes: usize,
    ) -> BucketVerdict {
        let cfg = &self.cfg;
        let limiter = self.limiters.entry(key).or_insert_with(|| RegularLimiter::new(cfg, now));
        let (action, inferred) = heard;
        if inferred {
            limiter.flags.infer(action, ts, &limiter.aimd);
        } else {
            limiter.aimd.observe(action, ts);
            limiter.flags.is_active = true;
        }
        let quote = limiter.bucket.quote(now, wire_bytes);
        if (action == Action::Decr && !inferred) || quote == BucketVerdict::Drop {
            limiter.last_activity = now;
        }
        quote
    }

    /// Police a valid regular packet through the limiter of every link in
    /// `steps` (each with what its limiter heard; one link in the core
    /// design), all or nothing. A packet any limiter refuses is charged
    /// only to the limiters that refuse it; otherwise it departs when the
    /// slowest limiter releases it.
    fn police(
        &mut self,
        now: Nanos,
        src: HostId,
        steps: &[(LinkId, (Action, bool))],
        ts: u32,
        wire_bytes: usize,
    ) -> AccessVerdict {
        let key = |link| LimiterKey { src, link };
        let mut quotes = [BucketVerdict::Pass; CHAIN_CAP];
        for (quote, &(link, heard)) in quotes.iter_mut().zip(steps) {
            *quote = self.limiter_step(now, key(link), heard, ts, wire_bytes);
        }
        let refused = quotes.contains(&BucketVerdict::Drop);
        let (mut release, mut held_in) = (None, LinkSet::default());
        for (&(link, _), &quote) in steps.iter().zip(&quotes) {
            if refused && quote != BucketVerdict::Drop {
                continue;
            }
            if let Some(limiter) = self.limiters.get_mut(&key(link)) {
                limiter.bucket.charge(now, wire_bytes, quote);
            }
            if let BucketVerdict::Queued { release_at } = quote {
                release = release.max(Some(release_at));
                held_in.push(link);
            }
        }
        match (refused, release) {
            (true, _) => AccessVerdict::Drop(DropCause::RegularRateLimit),
            (false, None) => AccessVerdict::Forward { channel: Channel::Regular },
            (false, Some(release_at)) => AccessVerdict::Queued { release_at, held_in },
        }
    }

    /// Police a request packet (or, when `demoted` is set, a regular packet
    /// demoted because its presented feedback did not validate).
    fn process_request(
        &mut self,
        now: Nanos,
        flow: FlowPair,
        header: &mut NetFenceHeader,
        demoted: bool,
    ) -> AccessVerdict {
        let cfg = &self.cfg;
        let limiter = self
            .request_limiters
            .entry(flow.src)
            .or_insert_with(|| RequestLimiter::new(cfg, now, 1.0));
        if limiter.offer(now, header.priority) == RequestVerdict::Drop {
            let cause = if demoted { DropCause::InvalidMac } else { DropCause::RequestRateLimit };
            return AccessVerdict::Drop(cause);
        }
        // The limiter charged at most the top level: the packet rides no
        // higher than it paid for.
        header.priority = header.priority.min(cfg.max_request_priority);
        header.kind = PacketKind::Request;
        header.presented = self.stamp(now, flow, None);
        AccessVerdict::Forward { channel: Channel::Request }
    }

    /// Notify the router that a previously queued packet was released by the
    /// caller (keeps the leaky bucket's queue depth accurate).
    pub fn packet_released(&mut self, src: HostId, link: LinkId) {
        if let Some(l) = self.limiters.get_mut(&LimiterKey { src, link }) {
            l.bucket.released();
        }
    }

    /// Drive periodic work: AIMD adjustment at the end of each control
    /// interval (Figure 17, or Appendix B.2's rules when a limiter inferred
    /// feedback) and `Ta` garbage collection. Returns the adjustments made
    /// (for metrics/experiments).
    pub fn tick(&mut self, now: Nanos) -> Vec<(LimiterKey, Adjustment)> {
        let mut adjustments = Vec::new();
        #[expect(
            clippy::iter_over_hash_type,
            clippy::disallowed_methods,
            reason = "per-limiter AIMD update is key-independent; the collected adjustments are sorted before returning"
        )]
        for (key, lim) in self.limiters.iter_mut() {
            if lim.aimd.interval_elapsed(now, &self.cfg) {
                let tput = lim.bucket.throughput(now);
                let flags = std::mem::take(&mut lim.flags);
                let decision = adjust_with_inference(&mut lim.aimd, flags, now, tput, &self.cfg);
                lim.bucket.set_rate(now, lim.aimd.rate());
                lim.bucket.reset_window(now);
                adjustments.push((*key, decision));
            }
        }
        // Hash order must not leak to callers: report in key order.
        adjustments.sort_unstable_by_key(|&(key, _)| key);
        // Reclaim limiters idle for Ta: no L↓ seen and no packet discarded.
        let ta = self.cfg.ta;
        #[expect(
            clippy::disallowed_methods,
            reason = "retain's visit order is unobservable: the predicate reads only the entry it decides"
        )]
        self.limiters.retain(|_, lim| {
            now.saturating_sub(lim.last_activity) < ta || lim.bucket.queued_pkts() > 0
        });
        adjustments
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::SEC;
    use netfence_crypto::{full_mesh_exchange, AsKeyAgent, Cmac};

    const PKT: usize = 1500;

    struct World {
        access: AccessRouter,
        bottleneck_kai: Cmac,
        flow: FlowPair,
    }

    /// Build an access router for AS 1 and the CMAC a bottleneck in AS 2
    /// would use to stamp L↓ toward AS 1 senders.
    fn world() -> World {
        let agents = vec![AsKeyAgent::new(1, 1111), AsKeyAgent::new(2, 2222)];
        let mut tables = full_mesh_exchange(&agents);
        let t1 = tables.remove(0);
        let t2 = tables.remove(0);
        let mut access = AccessRouter::new(Config::default(), AsId(1), [7; 16], t1);
        access.register_link_as(LinkId(99), AsId(2));
        let bottleneck_kai = t2.get(1).unwrap().clone();
        World { access, bottleneck_kai, flow: FlowPair::new(HostId(10), HostId(20)) }
    }

    fn request_header() -> NetFenceHeader {
        NetFenceHeader::request(6, 1, Feedback::Nop { ts: 0, token: 0 })
    }

    #[test]
    fn request_packet_gets_nop_stamp() {
        let mut w = world();
        let mut h = request_header();
        let v = w.access.process_outbound(SEC, w.flow, &mut h, 92);
        assert_eq!(v, AccessVerdict::Forward { channel: Channel::Request });
        assert!(h.presented.is_nop());
        assert_eq!(h.presented.ts(), 1);
    }

    #[test]
    fn nop_regular_packet_is_not_rate_limited() {
        let mut w = world();
        // Step 1: get nop feedback via a request packet.
        let mut h = request_header();
        w.access.process_outbound(SEC, w.flow, &mut h, 92);
        let echoed = h.presented;
        // Step 2: present it in a regular packet — no limiter is created.
        for i in 0..50 {
            let mut h = NetFenceHeader::regular(6, echoed, None);
            let v = w.access.process_outbound(SEC + i, w.flow, &mut h, PKT);
            assert_eq!(v, AccessVerdict::Forward { channel: Channel::Regular });
        }
        assert_eq!(w.access.limiter_count(), 0);
    }

    #[test]
    fn forged_feedback_is_demoted_to_request() {
        let mut w = world();
        let forged = Feedback::Nop { ts: 1, token: 0xbadbad };
        let mut h = NetFenceHeader::regular(6, forged, None);
        let v = w.access.process_outbound(SEC, w.flow, &mut h, PKT);
        // Priority 0 request: forwarded but on the request channel with
        // lowest priority.
        assert_eq!(v, AccessVerdict::Forward { channel: Channel::Request });
        assert_eq!(h.kind, PacketKind::Request);
        assert_eq!(w.access.invalid_feedback(), 1);
    }

    #[test]
    fn decr_feedback_instantiates_rate_limiter_and_polices() {
        let mut w = world();
        // Obtain valid nop, convert to L↓ as a bottleneck in AS 2 would.
        let mut h = request_header();
        w.access.process_outbound(SEC, w.flow, &mut h, 92);
        let decr =
            feedback::stamp_decr(&w.bottleneck_kai, w.flow, LinkId(99), &h.presented).unwrap();

        // Present the L↓: a limiter (src, 99) is created, the packet goes
        // through it, and the outgoing feedback is reset to L↑ — unless the
        // limiter refuses it, which leaves the header as presented.
        let mut sent = 0;
        let mut dropped = 0;
        for i in 0..100 {
            let mut h2 = NetFenceHeader::regular(6, decr, None);
            match w.access.process_outbound(SEC + i, w.flow, &mut h2, PKT) {
                AccessVerdict::Forward { .. } | AccessVerdict::Queued { .. } => {
                    sent += 1;
                    assert!(h2.presented.is_incr());
                    assert_eq!(h2.presented.link(), Some(LinkId(99)));
                }
                AccessVerdict::Drop(DropCause::RegularRateLimit) => {
                    dropped += 1;
                    assert_eq!(h2.presented, decr, "a refused packet is not re-stamped");
                }
                v => panic!("unexpected verdict {v:?}"),
            }
        }
        assert_eq!(w.access.limiter_count(), 1);
        assert!(w.access.rate_limit(w.flow.src, LinkId(99)).is_some());
        // A 100-packet burst far exceeds 200 kbps * 1 s of queueing: most of
        // it must be dropped.
        assert!(dropped > 50, "dropped {dropped}, sent {sent}");
    }

    #[test]
    fn aimd_decreases_without_fresh_incr_and_increases_with_it() {
        let mut w = world();
        let mut h = request_header();
        w.access.process_outbound(SEC, w.flow, &mut h, 92);
        let decr =
            feedback::stamp_decr(&w.bottleneck_kai, w.flow, LinkId(99), &h.presented).unwrap();
        let mut h2 = NetFenceHeader::regular(6, decr, None);
        w.access.process_outbound(SEC, w.flow, &mut h2, PKT);
        let r0 = w.access.rate_limit(w.flow.src, LinkId(99)).unwrap();

        // End of first control interval: only L↓ was seen → decrease.
        let adjustments = w.access.tick(4 * SEC);
        assert_eq!(adjustments.len(), 1);
        assert_eq!(adjustments[0].1, Adjustment::Decreased);
        let r1 = w.access.rate_limit(w.flow.src, LinkId(99)).unwrap();
        assert!(r1 < r0);

        // Now the sender echoes the freshest feedback it has (as a real
        // receiver/sender pair would) and keeps the limiter busy.
        let now = 5 * SEC;
        let mut current = h2.presented; // L↑ stamped by process_outbound above
        assert!(current.is_incr());
        let mut offered = 0usize;
        for i in 0..60 {
            let mut h3 = NetFenceHeader::regular(6, current, None);
            let t = now + i * 60 * crate::types::MILLI;
            if !matches!(w.access.process_outbound(t, w.flow, &mut h3, PKT), AccessVerdict::Drop(_))
            {
                offered += 1;
                current = h3.presented;
            }
        }
        assert!(offered > 10);
        let adjustments = w.access.tick(9 * SEC);
        assert_eq!(adjustments[0].1, Adjustment::Increased);
        let r2 = w.access.rate_limit(w.flow.src, LinkId(99)).unwrap();
        assert_eq!(r2, r1 + Config::default().additive_increase);
    }

    #[test]
    fn hiding_decr_still_decreases() {
        // A malicious sender that got L↓ but keeps presenting stale nop
        // feedback: its packets are demoted to requests once the feedback
        // expires, and the limiter (created when it did present L↓ once)
        // keeps decreasing because no fresh L↑ arrives.
        let mut w = world();
        let mut h = request_header();
        w.access.process_outbound(SEC, w.flow, &mut h, 92);
        let decr =
            feedback::stamp_decr(&w.bottleneck_kai, w.flow, LinkId(99), &h.presented).unwrap();
        let mut h2 = NetFenceHeader::regular(6, decr, None);
        w.access.process_outbound(SEC, w.flow, &mut h2, PKT);
        let r0 = w.access.rate_limit(w.flow.src, LinkId(99)).unwrap();
        for k in 1..4u64 {
            w.access.tick(SEC + k * 2 * SEC);
        }
        let r1 = w.access.rate_limit(w.flow.src, LinkId(99)).unwrap();
        assert!(r1 < r0, "hiding L↓ must not prevent decreases ({r0} -> {r1})");
    }

    #[test]
    fn request_flood_is_rate_limited_per_sender() {
        let mut w = world();
        let (mut passed, mut dropped) = (0, 0);
        let unstamped = Feedback::Nop { ts: 0, token: 0 };
        for i in 0..1000 {
            let mut h = NetFenceHeader::request(17, 8, unstamped);
            // 1000 level-8 requests (128 tokens each) in 10 ms: only the
            // bucket depth (4096 tokens = 32 packets) passes.
            match w.access.process_outbound(SEC + i * 10_000, w.flow, &mut h, 92) {
                AccessVerdict::Forward { .. } => passed += 1,
                AccessVerdict::Drop(DropCause::RequestRateLimit) => {
                    dropped += 1;
                    // A refused request is neither stamped nor re-leveled.
                    assert_eq!((h.presented, h.priority), (unstamped, 8));
                }
                v => panic!("unexpected verdict {v:?}"),
            }
        }
        assert!(passed <= 40, "request flood mostly dropped, passed {passed}");
        assert!(dropped > 900);
    }

    #[test]
    fn a_request_rides_only_the_level_it_paid_for() {
        // A bucket deep enough for one top-level (level-16) request.
        let cfg = Config { request_bucket_depth: 65_536.0, ..Config::default() };
        let drained_by = |priority: u8| {
            let agents = vec![AsKeyAgent::new(1, 1111)];
            let table = full_mesh_exchange(&agents).remove(0);
            let mut access = AccessRouter::new(cfg.clone(), AsId(1), [7; 16], table);
            let flow = FlowPair::new(HostId(10), HostId(20));
            let mut h = NetFenceHeader::request(17, priority, Feedback::Nop { ts: 0, token: 0 });
            let v = access.process_outbound(SEC, flow, &mut h, 92);
            assert_eq!(v, AccessVerdict::Forward { channel: Channel::Request });
            let left = access.request_limiters.get(&flow.src).unwrap().available_tokens(SEC);
            (h.priority, cfg.request_bucket_depth - left)
        };
        assert_eq!(cfg.max_request_priority, 16);
        let (named_200, paid_200) = drained_by(200);
        assert_eq!(named_200, 16, "a level-200 request must leave at level 16");
        assert_eq!((named_200, paid_200), drained_by(16));
        assert_eq!(paid_200, RequestLimiter::cost(16));
    }

    #[test]
    fn idle_limiters_are_garbage_collected_after_ta() {
        let mut cfg = Config::short_timers();
        cfg.ta = 10 * SEC;
        let agents = vec![AsKeyAgent::new(1, 1111), AsKeyAgent::new(2, 2222)];
        let mut tables = full_mesh_exchange(&agents);
        let t1 = tables.remove(0);
        let t2 = tables.remove(0);
        let mut access = AccessRouter::new(cfg, AsId(1), [7; 16], t1);
        access.register_link_as(LinkId(99), AsId(2));
        let flow = FlowPair::new(HostId(10), HostId(20));

        let mut h = NetFenceHeader::request(6, 1, Feedback::Nop { ts: 0, token: 0 });
        access.process_outbound(SEC, flow, &mut h, 92);
        let decr =
            feedback::stamp_decr(&t2.get(1).unwrap(), flow, LinkId(99), &h.presented).unwrap();
        let mut h2 = NetFenceHeader::regular(6, decr, None);
        if let AccessVerdict::Queued { .. } = access.process_outbound(SEC, flow, &mut h2, PKT) {
            access.packet_released(flow.src, LinkId(99));
        }
        assert_eq!(access.limiter_count(), 1);
        // 5 s later it is still there; 20 s later (beyond Ta) it is gone.
        access.tick(6 * SEC);
        assert_eq!(access.limiter_count(), 1);
        access.tick(21 * SEC);
        assert_eq!(access.limiter_count(), 0);
    }

    #[test]
    fn feedback_from_another_sender_is_rejected() {
        let mut w = world();
        let mut h = request_header();
        w.access.process_outbound(SEC, w.flow, &mut h, 92);
        let stolen = h.presented;
        // Another sender (host 11) tries to use host 10's feedback.
        let thief = FlowPair::new(HostId(11), HostId(20));
        let mut h2 = NetFenceHeader::regular(6, stolen, None);
        let v = w.access.process_outbound(SEC, thief, &mut h2, PKT);
        assert_eq!(v, AccessVerdict::Forward { channel: Channel::Request });
        assert_eq!(w.access.invalid_feedback(), 1);
    }
}
