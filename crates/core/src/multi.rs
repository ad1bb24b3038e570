//! Appendix B of the tech report (arXiv 1009.0033): several bottlenecks on
//! one path.
//!
//! The core design polices a regular packet with at most one rate limiter
//! (§4.3.5). When a flow crosses several `mon`-state links, its packets
//! carry one link's feedback at a time, the other limiters see nothing and
//! decay, and the flow can end below its fair share (Figure 10). The
//! appendix gives two fixes, and [`Config::multi_bottleneck`] picks one per
//! deployment ([`MultiBottleneck::Core`] by default):
//!
//! * **B.1, multi-bottleneck feedback** (Figure 13): the access router
//!   stamps a chain origin ([`stamp_origin`]), every `mon` link on the path
//!   appends its `(link, action)` ([`BottleneckLink::update_feedback`]),
//!   and [`AccessRouter::process_outbound`] polices the packet through the
//!   limiter of every link the chain names, all or nothing.
//! * **B.2, rate-limiter inference** (Figure 14): packets carry core
//!   feedback; the access router's [`InferenceCache`] remembers which links
//!   feedback named toward each destination prefix, polices the packet
//!   through all of them, and notes the feedback it infers for the links
//!   the packet does not name in their limiters' [`InferenceFlags`].
//!
//! [`AccessRouter::tick`] ends every limiter's interval with
//! [`adjust_with_inference`]. Under Core and B.1 no flag is ever inferred,
//! and then it is exactly [`AimdState::adjust`].
//!
//! [`stamp_origin`]: crate::feedback::stamp_origin
//! [`BottleneckLink::update_feedback`]: crate::bottleneck::BottleneckLink::update_feedback
//! [`AccessRouter::process_outbound`]: crate::access::AccessRouter::process_outbound
//! [`AccessRouter::tick`]: crate::access::AccessRouter::tick

use netfence_telemetry::IdMap;

use crate::aimd::{Adjustment, AimdState};
use crate::config::Config;
use crate::feedback::Action;
use crate::types::{HostId, LinkId, Nanos, SEC};

/// Which multi-bottleneck design a deployment runs (Appendix B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MultiBottleneck {
    /// §4.3.5: one feedback and one limiter per packet.
    #[default]
    Core,
    /// B.1: every `mon` link on the path appends to a chain.
    MultiFeedback,
    /// B.2: core feedback, the other on-path limiters inferred.
    Inference,
}

/// Per-destination-prefix cache of the bottleneck links seen on the path
/// toward that prefix (Appendix B.2).
#[derive(Debug, Default)]
pub struct InferenceCache {
    /// prefix -> the mon-state links on the path toward it, sorted, each
    /// with when its feedback was last seen (for expiry).
    prefix_links: IdMap<u32, Vec<(LinkId, Nanos)>>,
    /// How long a link stays cached without fresh feedback.
    expiry: Nanos,
}

/// Map a destination host to its "prefix" (a /24 in this reproduction).
pub fn prefix_of(dst: HostId) -> u32 {
    dst.0 >> 8
}

impl InferenceCache {
    /// Create a cache whose entries expire after `expiry` without fresh
    /// feedback.
    pub fn new(expiry: Nanos) -> Self {
        InferenceCache { prefix_links: IdMap::default(), expiry }
    }

    /// Record that feedback for `link` was observed on traffic toward
    /// `dst`.
    pub fn record(&mut self, now: Nanos, dst: HostId, link: LinkId) {
        let links = self.prefix_links.entry(prefix_of(dst)).or_default();
        match links.binary_search_by_key(&link, |&(l, _)| l) {
            Ok(i) => links[i].1 = now,
            Err(i) => links.insert(i, (link, now)),
        }
    }

    /// The bottleneck links currently believed to be on the path toward
    /// `dst`, ascending (stale entries are pruned lazily).
    pub fn links_for(&mut self, now: Nanos, dst: HostId) -> impl Iterator<Item = LinkId> + '_ {
        let expiry = self.expiry;
        let links = self.prefix_links.get_mut(&prefix_of(dst)).map(|links| {
            links.retain(|&(_, seen)| now.saturating_sub(seen) < expiry);
            &links[..]
        });
        links.unwrap_or_default().iter().map(|&(link, _)| link)
    }

    /// Number of prefixes cached (bounded by the BGP table size, as the
    /// appendix argues).
    pub fn prefix_count(&self) -> usize {
        self.prefix_links.len()
    }
}

/// The extra per-limiter flags the inference design tracks in addition to
/// `hasIncr` (Appendix B.2): starred flags describe *inferred* feedback from
/// other on-path links.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InferenceFlags {
    /// `hasIncr*`: some other on-path link reported `L↑` newer than the
    /// interval start, implying this link was not congested either.
    pub has_incr_star: bool,
    /// `isActive`: this limiter saw its own link's feedback (any age).
    pub is_active: bool,
    /// `isActive*`: another on-path link's feedback was seen, so this
    /// limiter could not have received its own.
    pub is_active_star: bool,
}

impl InferenceFlags {
    /// Note another on-path link's feedback `(action, ts)` for the limiter
    /// whose AIMD state is `aimd`.
    pub(crate) fn infer(&mut self, action: Action, ts: u32, aimd: &AimdState) {
        self.is_active_star = true;
        if action == Action::Incr && u64::from(ts) >= aimd.interval_start() / SEC {
            self.has_incr_star = true;
        }
    }
}

/// The Appendix B.2 end-of-interval adjustment: extends Figure 17 with the
/// starred flags. Returns what happened to the rate.
pub fn adjust_with_inference(
    aimd: &mut AimdState,
    flags: InferenceFlags,
    now: Nanos,
    throughput_bps: f64,
    cfg: &Config,
) -> Adjustment {
    // An inferred `L↑` sets the standard controller's hasIncr, so its own
    // increase/keep logic applies (adjust() clears the flag).
    let force_incr =
        |aimd: &mut AimdState| aimd.observe(Action::Incr, (aimd.interval_start() / SEC) as u32);
    if aimd.has_incr() || flags.has_incr_star {
        // Rule 1: increase if the limiter was actually utilized, otherwise
        // keep — exactly the Figure 17 rule, with hasIncr possibly inferred.
        force_incr(aimd);
        return aimd.adjust(now, throughput_bps, cfg);
    }
    if flags.is_active {
        // Rule 2: own-link feedback without incr → decrease.
        return aimd.adjust(now, throughput_bps, cfg);
    }
    if flags.is_active_star {
        // Rule 3: another link's feedback was carried → hold unchanged.
        force_incr(aimd);
        return aimd.adjust(now, 0.0, cfg);
    }
    // Rule 4: silence → decrease.
    aimd.adjust(now, throughput_bps, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AccessRouter, AccessVerdict};
    use crate::bottleneck::Channel;
    use crate::feedback::{self, stamp_link, stamp_origin, Feedback};
    use crate::header::{NetFenceHeader, PacketKind};
    use crate::regular_limiter::LeakyBucket;
    use crate::types::{AsId, FlowPair, LimiterKey};
    use netfence_crypto::{full_mesh_exchange, AsKeyAgent, Cmac};
    use netfence_telemetry::DropCause;

    /// An access router of AS 1 running B.1, with links 201 and 301 owned
    /// by ASes 2 and 3, and the keys those links stamp with.
    fn setup() -> (AccessRouter, Cmac, Cmac, FlowPair) {
        let agents = vec![AsKeyAgent::new(1, 11), AsKeyAgent::new(2, 22), AsKeyAgent::new(3, 33)];
        let mut tables = full_mesh_exchange(&agents);
        let t1 = tables.remove(0);
        let t2 = tables.remove(0);
        let t3 = tables.remove(0);
        let cfg = Config { multi_bottleneck: MultiBottleneck::MultiFeedback, ..Config::default() };
        let mut access = AccessRouter::new(cfg, AsId(1), [9; 16], t1);
        access.register_link_as(LinkId(201), AsId(2));
        access.register_link_as(LinkId(301), AsId(3));
        let kai2 = t2.get(1).unwrap().clone();
        let kai3 = t3.get(1).unwrap().clone();
        (access, kai2, kai3, FlowPair::new(HostId(0x0a0a0a01), HostId(0x14141401)))
    }

    /// A chain stamped at `SEC`, then appended by each `(key, link)`.
    fn chain(
        access: &mut AccessRouter,
        flow: FlowPair,
        entries: &[(&Cmac, LinkId, Action)],
    ) -> Feedback {
        let mut fb = stamp_origin(&mut access.ka, SEC, flow);
        for &(kai, link, action) in entries {
            fb = stamp_link(kai, flow, (link, action), &fb).unwrap();
        }
        fb
    }

    /// Present `fb` in a 1500-byte regular packet; `fb` becomes what the
    /// packet leaves with.
    fn police(
        access: &mut AccessRouter,
        now: Nanos,
        flow: FlowPair,
        fb: &mut Feedback,
    ) -> AccessVerdict {
        let mut h = NetFenceHeader::regular(6, *fb, None);
        let v = access.process_outbound(now, flow, &mut h, 1500);
        *fb = h.presented;
        v
    }

    fn validate(access: &mut AccessRouter, fb: &Feedback, flow: FlowPair) -> bool {
        let (link_as, as_keys) = (&access.link_as, &access.as_keys);
        let kai = |l| link_as.get(&l).and_then(|a| as_keys.get(a.0));
        feedback::validate(fb, &mut access.ka, kai, SEC, flow, 4 * SEC).is_ok()
    }

    fn is_origin(fb: &Feedback) -> bool {
        matches!(fb, Feedback::Chain { len: 0, .. })
    }

    fn held_in(v: AccessVerdict) -> Vec<LinkId> {
        match v {
            AccessVerdict::Queued { held_in, .. } => held_in.as_slice().to_vec(),
            AccessVerdict::Forward { .. } | AccessVerdict::Drop(_) => vec![],
        }
    }

    #[test]
    fn chain_roundtrip_validates() {
        let (mut access, kai2, kai3, flow) = setup();
        let fb = chain(
            &mut access,
            flow,
            &[(&kai2, LinkId(201), Action::Decr), (&kai3, LinkId(301), Action::Incr)],
        );
        assert_eq!(
            fb.chain().collect::<Vec<_>>(),
            [(LinkId(201), Action::Decr), (LinkId(301), Action::Incr)]
        );
        assert!(validate(&mut access, &fb, flow));
    }

    #[test]
    fn tampered_chain_is_rejected() {
        let (mut access, kai2, _kai3, flow) = setup();
        let fb = chain(&mut access, flow, &[(&kai2, LinkId(201), Action::Decr)]);
        // A downstream attacker flips the recorded action to Incr to hide
        // upstream congestion: the chained MAC no longer verifies.
        let mut forged = fb;
        if let Feedback::Chain { decr, .. } = &mut forged {
            *decr ^= 1;
        }
        assert_eq!(forged.chain().next(), Some((LinkId(201), Action::Incr)));
        assert!(!validate(&mut access, &forged, flow));
    }

    #[test]
    fn multi_policing_creates_one_limiter_per_bottleneck() {
        let (mut access, kai2, kai3, flow) = setup();
        let mut fb = chain(
            &mut access,
            flow,
            &[(&kai2, LinkId(201), Action::Decr), (&kai3, LinkId(301), Action::Decr)],
        );
        let v = police(&mut access, SEC, flow, &mut fb);
        // Two fresh limiters both hold the first packet one service time.
        assert!(matches!(v, AccessVerdict::Queued { .. }), "{v:?}");
        assert_eq!(held_in(v), [LinkId(201), LinkId(301)]);
        assert_eq!(access.limiter_count(), 2);
        assert!(access.rate_limit(flow.src, LinkId(201)).is_some());
        assert!(access.rate_limit(flow.src, LinkId(301)).is_some());
        // The chain was reset to an origin stamp for the next hop.
        assert!(is_origin(&fb));
    }

    #[test]
    fn a_refused_packet_keeps_its_chain_as_presented() {
        let (mut access, kai2, kai3, flow) = setup();
        let presented = chain(
            &mut access,
            flow,
            &[(&kai2, LinkId(201), Action::Decr), (&kai3, LinkId(301), Action::Decr)],
        );
        // A 100-packet burst in 100 ns overflows the limiters' queues.
        let mut dropped = 0;
        for i in 0..100 {
            let mut fb = presented;
            match police(&mut access, SEC + i, flow, &mut fb) {
                AccessVerdict::Drop(DropCause::RegularRateLimit) => {
                    dropped += 1;
                    assert_eq!(fb, presented, "a refused packet is not re-stamped");
                }
                AccessVerdict::Forward { .. } | AccessVerdict::Queued { .. } => {
                    assert!(is_origin(&fb));
                }
                v => panic!("unexpected verdict {v:?}"),
            }
        }
        assert!(dropped > 50, "dropped {dropped}");
    }

    /// A chain that fails validation is demoted to a request, as invalid
    /// single feedback is (§4.2): counted, and no limiter is created.
    #[test]
    fn invalid_chain_is_rejected_by_policing() {
        let (mut access, _kai2, _kai3, flow) = setup();
        let links = [LinkId(201), LinkId::NULL, LinkId::NULL];
        let forged = Feedback::Chain { ts: 1, token: 42, links, decr: 1, len: 1 };
        let mut h = NetFenceHeader::regular(6, forged, None);
        let v = access.process_outbound(SEC, flow, &mut h, 1500);
        assert_eq!(v, AccessVerdict::Forward { channel: Channel::Request });
        assert_eq!(h.kind, PacketKind::Request);
        assert_eq!(access.invalid_feedback(), 1);
        assert_eq!(access.limiter_count(), 0);
    }

    fn queued(access: &AccessRouter, src: HostId, link: LinkId) -> usize {
        access.limiters().get(&LimiterKey { src, link }).map_or(0, |l| l.bucket.queued_pkts())
    }

    #[test]
    fn a_packet_one_limiter_drops_is_charged_to_no_other() {
        let (mut access, kai2, kai3, flow) = setup();
        let both = [(&kai2, LinkId(201), Action::Decr), (&kai3, LinkId(301), Action::Decr)];
        // Fill limiter 201 until it refuses, holding what it queues.
        let mut held = Vec::new();
        loop {
            let mut fb = chain(&mut access, flow, &both[..1]);
            match police(&mut access, SEC, flow, &mut fb) {
                v @ AccessVerdict::Queued { .. } => held.extend(held_in(v)),
                v => {
                    assert_eq!(v, AccessVerdict::Drop(DropCause::RegularRateLimit));
                    break;
                }
            }
        }
        // Limiter 301 alone would hold these; 201 drops them, so 301 keeps
        // nothing: no queued packet, departure slot or window bytes.
        for _ in 0..3 {
            let mut fb = chain(&mut access, flow, &both);
            let v = police(&mut access, SEC, flow, &mut fb);
            assert_eq!(v, AccessVerdict::Drop(DropCause::RegularRateLimit));
        }
        assert_eq!(queued(&access, flow.src, LinkId(301)), 0);
        let cfg = Config::default();
        let fresh = LeakyBucket::new(SEC, cfg.initial_rate_limit, cfg.max_limiter_delay);
        let l301 = access.limiters().get(&LimiterKey { src: flow.src, link: LinkId(301) });
        assert_eq!(l301.map(|l| format!("{:?}", l.bucket)), Some(format!("{fresh:?}")));

        // 301 passes a packet of its own and takes the slot, so the next
        // two-link packet is held by both limiters, and released from both.
        let mut fb = chain(&mut access, flow, &both[1..]);
        let v = police(&mut access, 2 * SEC, flow, &mut fb);
        assert_eq!(v, AccessVerdict::Forward { channel: Channel::Regular });
        let mut fb = chain(&mut access, flow, &both);
        let v = police(&mut access, 2 * SEC, flow, &mut fb);
        assert!(matches!(v, AccessVerdict::Queued { .. }), "{v:?}");
        assert_eq!(held_in(v), [LinkId(201), LinkId(301)]);
        held.extend(held_in(v));
        for link in held {
            access.packet_released(flow.src, link);
        }
        assert_eq!(queued(&access, flow.src, LinkId(201)), 0);
        assert_eq!(queued(&access, flow.src, LinkId(301)), 0);
        // With nothing held, both limiters are reclaimed after Ta.
        access.tick(3 * 3600 * SEC);
        assert_eq!(access.limiter_count(), 0);
    }

    /// A chain may name a link twice; its limiter is still stepped,
    /// charged and released once, as for one `L↓` entry.
    #[test]
    fn a_link_named_twice_is_policed_once() {
        let (mut access, kai2, _kai3, flow) = setup();
        let mut fb = chain(
            &mut access,
            flow,
            &[(&kai2, LinkId(201), Action::Incr), (&kai2, LinkId(201), Action::Decr)],
        );
        let v = police(&mut access, SEC, flow, &mut fb);
        assert!(matches!(v, AccessVerdict::Queued { .. }), "{v:?}");
        assert_eq!(held_in(v), [LinkId(201)]);
        assert_eq!(queued(&access, flow.src, LinkId(201)), 1);

        let (mut once, kai2, _kai3, _) = setup();
        let mut fb = chain(&mut once, flow, &[(&kai2, LinkId(201), Action::Decr)]);
        assert_eq!(police(&mut once, SEC, flow, &mut fb), v);
        let key = LimiterKey { src: flow.src, link: LinkId(201) };
        let state = |access: &AccessRouter| format!("{:?}", access.limiters().get(&key));
        assert_eq!(state(&access), state(&once));
        access.packet_released(flow.src, LinkId(201));
        assert_eq!(queued(&access, flow.src, LinkId(201)), 0);
    }

    /// B.2: feedback for one link toward a prefix polices the packet
    /// through every link cached for that prefix, and the limiters it does
    /// not name infer that feedback.
    #[test]
    fn inference_polices_every_cached_link() {
        let (mut access, kai2, kai3, flow) = setup();
        access.cfg.multi_bottleneck = MultiBottleneck::Inference;
        let nop = feedback::stamp_nop(&mut access.ka, SEC, flow);
        for (kai, link) in [(&kai2, LinkId(201)), (&kai3, LinkId(301))] {
            let mut fb = feedback::stamp_decr(kai, flow, link, &nop).unwrap();
            let v = police(&mut access, SEC, flow, &mut fb);
            assert!(!matches!(v, AccessVerdict::Drop(_)), "{v:?}");
            assert_eq!(fb.link(), Some(link), "B.2 restamps core L↑");
        }
        // The second packet named 301 but was policed by 201's limiter too.
        assert_eq!(access.limiter_count(), 2);
        let flags = |link| access.limiters()[&LimiterKey { src: flow.src, link }].flags;
        assert_eq!(
            flags(LinkId(201)),
            InferenceFlags { is_active: true, is_active_star: true, has_incr_star: false }
        );
        assert_eq!(
            flags(LinkId(301)),
            InferenceFlags { is_active: true, is_active_star: false, has_incr_star: false }
        );
        // A sender toward another /24 is policed by nothing cached.
        let other = FlowPair::new(flow.src, HostId(0x14141501));
        assert_ne!(prefix_of(other.dst), prefix_of(flow.dst));
        assert_eq!(access.inference.links_for(SEC, other.dst).count(), 0);
        assert_eq!(access.inference.links_for(SEC, flow.dst).count(), 2);
    }

    #[test]
    fn inference_cache_records_and_expires() {
        let mut cache = InferenceCache::new(10 * SEC);
        let dst = HostId(0x14141401);
        let links =
            |cache: &mut InferenceCache, now, dst| cache.links_for(now, dst).collect::<Vec<_>>();
        cache.record(SEC, dst, LinkId(201));
        cache.record(2 * SEC, dst, LinkId(301));
        assert_eq!(links(&mut cache, 3 * SEC, dst), vec![LinkId(201), LinkId(301)]);
        // Hosts in the same /24 share the entry.
        assert_eq!(links(&mut cache, 3 * SEC, HostId(0x141414ff)).len(), 2);
        assert_eq!(cache.prefix_count(), 1);
        // After expiry only the fresher link remains, then none.
        assert_eq!(links(&mut cache, 11 * SEC, dst), vec![LinkId(301)]);
        assert!(links(&mut cache, 30 * SEC, dst).is_empty());
    }

    #[test]
    fn inference_adjustment_rules() {
        let cfg = Config::default();
        // Rule 3: only another link's feedback was seen → hold.
        let mut aimd = AimdState::with_rate(100_000, 0);
        let flags = InferenceFlags { is_active_star: true, ..Default::default() };
        assert_eq!(
            adjust_with_inference(&mut aimd, flags, 2 * SEC, 90_000.0, &cfg),
            Adjustment::Kept
        );
        assert_eq!(aimd.rate(), 100_000);

        // Rule 1 via hasIncr*: inferred L↑ increases a busy limiter.
        let mut aimd = AimdState::with_rate(100_000, 0);
        let flags = InferenceFlags { has_incr_star: true, ..Default::default() };
        assert_eq!(
            adjust_with_inference(&mut aimd, flags, 2 * SEC, 90_000.0, &cfg),
            Adjustment::Increased
        );
        assert_eq!(aimd.rate(), 112_000);

        // Rule 2: own L↓ and nothing else → decrease.
        let mut aimd = AimdState::with_rate(100_000, 0);
        let flags = InferenceFlags { is_active: true, ..Default::default() };
        assert_eq!(
            adjust_with_inference(&mut aimd, flags, 2 * SEC, 90_000.0, &cfg),
            Adjustment::Decreased
        );

        // Rule 4: silence → decrease.
        let mut aimd = AimdState::with_rate(100_000, 0);
        assert_eq!(
            adjust_with_inference(&mut aimd, InferenceFlags::default(), 2 * SEC, 0.0, &cfg),
            Adjustment::Decreased
        );
    }

    proptest::proptest! {
        /// With nothing inferred — Core and B.1, whose limiters see only
        /// their own feedback — the B.2 adjustment is exactly Figure 17's.
        #[test]
        fn uninferred_adjustment_is_figure_17(rate in 10_000u64..10_000_000u64,
                                              has_incr: bool,
                                              is_active: bool,
                                              tput_frac in 0.0f64..1.5,
                                              start_s in 0u64..5_000,
                                              ts_back in 0u64..3) {
            let cfg = Config::default();
            let start = start_s * SEC;
            let (mut plain, mut inferred) =
                (AimdState::with_rate(rate, start), AimdState::with_rate(rate, start));
            if has_incr {
                let ts = (start_s.saturating_sub(ts_back)) as u32;
                plain.observe(Action::Incr, ts);
                inferred.observe(Action::Incr, ts);
            }
            let (now, tput) = (start + cfg.ilim, rate as f64 * tput_frac);
            let flags = InferenceFlags { is_active, ..Default::default() };
            let got = adjust_with_inference(&mut inferred, flags, now, tput, &cfg);
            proptest::prop_assert_eq!(got, plain.adjust(now, tput, &cfg));
            proptest::prop_assert_eq!(format!("{inferred:?}"), format!("{plain:?}"));
        }
    }
}
