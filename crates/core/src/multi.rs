//! Multiple-bottleneck extensions (Appendix B of the paper).
//!
//! The core NetFence design polices a regular packet with at most one rate
//! limiter (§4.3.5); when a flow crosses several `mon`-state links, the idle
//! limiters' limits decay and the flow can end up below its fair share at
//! one of the bottlenecks (reproduced in Figure 10). The appendix describes
//! two improvements, both implemented here:
//!
//! * **B.1 — multi-bottleneck feedback in one packet**
//!   ([`MultiFeedback`]): every on-path bottleneck appends its own
//!   `(link, action)` pair, protected by one chained MAC; the access router
//!   passes the packet through *all* the corresponding rate limiters
//!   ([`crate::access::AccessRouter::process_outbound_multi`]). Reproduced
//!   as Figure 13.
//! * **B.2 — rate-limiter inference** ([`InferenceCache`] and
//!   [`adjust_with_inference`]): the packet still carries one feedback, but
//!   the access router remembers which bottleneck links appear on the path
//!   to each destination prefix, polices through all of them, and infers the
//!   missing feedback (`L↑` for one link implies the others were not
//!   congested). Reproduced as Figure 14.
//!
//! Figures 13 and 14 are a fluid control-loop model (DESIGN.md §5) that
//! runs only [`AimdState`] and [`adjust_with_inference`]. The packet path
//! here — B.1 policing, the chained MAC and the inference cache — shares
//! the access router's limiter step with single-feedback policing, but no
//! simulated cell reaches it yet; this module's unit tests do.

use std::ops::Deref;

use netfence_crypto::{Cmac, Mac32, MacInput, TimeVaryingSecret};
use netfence_telemetry::{DropCause, IdMap};

use crate::access::{AccessRouter, AccessVerdict};
use crate::aimd::{Adjustment, AimdState};
use crate::bottleneck::Channel;
use crate::config::Config;
use crate::feedback::Action;
use crate::regular_limiter::BucketVerdict;
use crate::types::{nanos_to_secs, FlowPair, HostId, LimiterKey, LinkId, Nanos, SEC};

// ---------------------------------------------------------------------------
// B.1: multi-bottleneck feedback in a single packet
// ---------------------------------------------------------------------------

/// Feedback from zero or more bottleneck links carried in one NetFence
/// header (Appendix B.1). All entries share a single timestamp and are
/// protected by a single chained `token`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiFeedback {
    /// Stamping time at the access router, seconds.
    pub ts: u32,
    /// One `(link, action)` entry per on-path bottleneck, in path order.
    pub entries: Vec<(LinkId, Action)>,
    /// The chained MAC: `MAC_Ka(src,dst,ts)` at the access router, then
    /// `MAC_Kai(src,dst,ts,link,action,previous_token)` at each bottleneck.
    pub token: Mac32,
}

fn origin_input(flow: FlowPair, ts: u32) -> MacInput {
    let mut m = MacInput::new("nf-multi-origin");
    m.push_u32(flow.src.0).push_u32(flow.dst.0).push_u32(ts);
    m
}

fn chain_input(flow: FlowPair, ts: u32, link: LinkId, action: Action, prev: Mac32) -> MacInput {
    let mut m = MacInput::new("nf-multi-chain");
    m.push_u32(flow.src.0)
        .push_u32(flow.dst.0)
        .push_u32(ts)
        .push_u32(link.0)
        .push_u8(matches!(action, Action::Decr) as u8)
        .push_u32(prev);
    m
}

impl MultiFeedback {
    /// Stamp the origin (nop) multi-feedback at the access router (Eq. 4 of
    /// Appendix B.1).
    pub fn origin(ka: &mut TimeVaryingSecret, now: Nanos, flow: FlowPair) -> Self {
        let ts = nanos_to_secs(now);
        MultiFeedback {
            ts,
            entries: Vec::new(),
            token: ka.mac32(now, origin_input(flow, ts).as_bytes()),
        }
    }

    /// Append a bottleneck's feedback, extending the MAC chain (Eq. 5).
    /// Always pushes a new entry, even for a link already listed: the
    /// chain covers every append. Policing
    /// ([`AccessRouter::process_outbound_multi`]) folds a link's entries
    /// into one, `L↓` if any of them is.
    pub fn append(&mut self, kai: &Cmac, flow: FlowPair, link: LinkId, action: Action) {
        self.token = kai.mac32(chain_input(flow, self.ts, link, action, self.token).as_bytes());
        self.entries.push((link, action));
    }

    /// Validate the whole chain at the access router by recomputing it.
    ///
    /// `kai_for_link` resolves each on-path link to the pairwise key shared
    /// with that link's AS (a reference or a key-store guard). It is called
    /// only for a chain inside the window, one link at a time, and stops at
    /// the first link with no key.
    pub fn validate<K: Deref<Target = Cmac>>(
        &self,
        ka: &mut TimeVaryingSecret,
        kai_for_link: impl Fn(LinkId) -> Option<K>,
        now: Nanos,
        flow: FlowPair,
        w: Nanos,
    ) -> bool {
        let now_s = nanos_to_secs(now) as i64;
        if (now_s - self.ts as i64).abs() > (w / SEC) as i64 {
            return false;
        }
        let mut token = ka.mac32(now, origin_input(flow, self.ts).as_bytes());
        for (link, action) in &self.entries {
            let Some(kai) = kai_for_link(*link) else { return false };
            token = kai.mac32(chain_input(flow, self.ts, *link, *action, token).as_bytes());
        }
        token == self.token
    }

    /// Encoded length in bytes: 8-byte common part + 4-byte token + 5 bytes
    /// per entry (link id + action), rounded to whole bytes. Used for
    /// overhead accounting; this is the "longer and variable-length header"
    /// trade-off §4.3.5 mentions.
    pub fn encoded_len(&self) -> usize {
        12 + 5 * self.entries.len()
    }
}

impl AccessRouter {
    /// Appendix B.1 regular-packet policing: take the access router's
    /// limiter step once for *every* bottleneck link listed in the packet's
    /// multi-feedback. The packet is dropped if any limiter drops it, and
    /// then no other limiter is charged for it; otherwise it departs when
    /// the slowest limiter releases it.
    ///
    /// Returns the verdict and the links whose limiters hold the packet
    /// (empty unless it is [`AccessVerdict::Queued`]): release it from each
    /// with [`packet_released`](Self::packet_released). A chain that fails
    /// validation is dropped as [`DropCause::InvalidMac`] and counted in
    /// [`invalid_feedback`](Self::invalid_feedback).
    ///
    /// The multi-feedback of a packet that leaves is reset to the origin
    /// (nop-equivalent) stamp, as the single-feedback design resets to
    /// `L↑`/`nop`; a dropped packet's chain is left as presented.
    pub fn process_outbound_multi(
        &mut self,
        now: Nanos,
        flow: FlowPair,
        mf: &mut MultiFeedback,
        wire_bytes: usize,
    ) -> (AccessVerdict, Vec<LinkId>) {
        let valid = mf.validate(
            &mut self.ka,
            |l| self.link_as.get(&l).and_then(|a| self.as_keys.get(a.0)),
            now,
            flow,
            self.cfg.feedback_expiry,
        );
        if !valid {
            self.invalid_feedback += 1;
            return (AccessVerdict::Drop(DropCause::InvalidMac), Vec::new());
        }

        // One step per named link: a link listed twice is one limiter, fed
        // `L↓` if any of its entries is (a link never downgrades its own).
        let mut named: Vec<(LinkId, Action)> = Vec::with_capacity(mf.entries.len());
        for &(link, action) in &mf.entries {
            match named.iter_mut().find(|(l, _)| *l == link) {
                Some((_, folded)) if action == Action::Decr => *folded = action,
                Some(_) => {}
                None => named.push((link, action)),
            }
        }
        let key = |link| LimiterKey { src: flow.src, link };
        let quotes: Vec<BucketVerdict> = named
            .iter()
            .map(|&(link, action)| self.limiter_step(now, key(link), action, mf.ts, wire_bytes).1)
            .collect();
        // All or nothing: a refused packet is charged only to the limiters
        // that refuse it.
        let refused = quotes.contains(&BucketVerdict::Drop);
        let (mut release, mut held_in) = (None, Vec::new());
        for (&(link, _), &quote) in named.iter().zip(&quotes) {
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
        // A refused packet keeps its chain as presented: no MAC is spent on
        // feedback no one will read.
        if refused {
            return (AccessVerdict::Drop(DropCause::RegularRateLimit), Vec::new());
        }
        *mf = MultiFeedback::origin(&mut self.ka, now, flow);
        let verdict = match release {
            None => AccessVerdict::Forward { channel: Channel::Regular },
            Some(release_at) => AccessVerdict::Queued { release_at },
        };
        (verdict, held_in)
    }
}

// ---------------------------------------------------------------------------
// B.2: rate limiter inference
// ---------------------------------------------------------------------------

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

    /// The set of bottleneck links currently believed to be on the path
    /// toward `dst` (stale entries are pruned lazily).
    pub fn links_for(&mut self, now: Nanos, dst: HostId) -> Vec<LinkId> {
        let expiry = self.expiry;
        let Some(links) = self.prefix_links.get_mut(&prefix_of(dst)) else { return Vec::new() };
        links.retain(|&(_, seen)| now.saturating_sub(seen) < expiry);
        links.iter().map(|&(link, _)| link).collect()
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
    use crate::regular_limiter::LeakyBucket;
    use crate::types::AsId;
    use netfence_crypto::{full_mesh_exchange, AsKeyAgent};

    fn setup() -> (AccessRouter, Cmac, Cmac, FlowPair) {
        let agents = vec![AsKeyAgent::new(1, 11), AsKeyAgent::new(2, 22), AsKeyAgent::new(3, 33)];
        let mut tables = full_mesh_exchange(&agents);
        let t1 = tables.remove(0);
        let t2 = tables.remove(0);
        let t3 = tables.remove(0);
        let mut access = AccessRouter::new(Config::default(), AsId(1), [9; 16], t1);
        access.register_link_as(LinkId(201), AsId(2));
        access.register_link_as(LinkId(301), AsId(3));
        let kai2 = t2.get(1).unwrap().clone();
        let kai3 = t3.get(1).unwrap().clone();
        (access, kai2, kai3, FlowPair::new(HostId(0x0a0a0a01), HostId(0x14141401)))
    }

    #[test]
    fn chain_roundtrip_validates() {
        let (mut access, kai2, kai3, flow) = setup();
        let mut mf = MultiFeedback::origin(&mut access.ka, SEC, flow);
        mf.append(&kai2, flow, LinkId(201), Action::Decr);
        mf.append(&kai3, flow, LinkId(301), Action::Incr);
        assert_eq!(mf.entries.len(), 2);
        let ok = {
            let ka = &mut access.ka;
            let link_as = &access.link_as;
            let as_keys = &access.as_keys;
            mf.validate(ka, |l| link_as.get(&l).and_then(|a| as_keys.get(a.0)), SEC, flow, 4 * SEC)
        };
        assert!(ok);
    }

    #[test]
    fn tampered_chain_is_rejected() {
        let (mut access, kai2, _kai3, flow) = setup();
        let mut mf = MultiFeedback::origin(&mut access.ka, SEC, flow);
        mf.append(&kai2, flow, LinkId(201), Action::Decr);
        // A downstream attacker flips the recorded action to Incr to hide
        // upstream congestion: the chained MAC no longer verifies.
        let mut forged = mf.clone();
        forged.entries[0].1 = Action::Incr;
        let ok = {
            let ka = &mut access.ka;
            let link_as = &access.link_as;
            let as_keys = &access.as_keys;
            forged.validate(
                ka,
                |l| link_as.get(&l).and_then(|a| as_keys.get(a.0)),
                SEC,
                flow,
                4 * SEC,
            )
        };
        assert!(!ok);
    }

    #[test]
    fn multi_policing_creates_one_limiter_per_bottleneck() {
        let (mut access, kai2, kai3, flow) = setup();
        let mut mf = MultiFeedback::origin(&mut access.ka, SEC, flow);
        mf.append(&kai2, flow, LinkId(201), Action::Decr);
        mf.append(&kai3, flow, LinkId(301), Action::Decr);
        let (v, held_in) = access.process_outbound_multi(SEC, flow, &mut mf, 1500);
        // Two fresh limiters both hold the first packet one service time.
        assert!(matches!(v, AccessVerdict::Queued { .. }), "{v:?}");
        assert_eq!(held_in, [LinkId(201), LinkId(301)]);
        assert_eq!(access.limiter_count(), 2);
        assert!(access.rate_limit(flow.src, LinkId(201)).is_some());
        assert!(access.rate_limit(flow.src, LinkId(301)).is_some());
        // The multi feedback was reset to an origin stamp for the next hop.
        assert!(mf.entries.is_empty());
    }

    #[test]
    fn a_refused_packet_keeps_its_chain_as_presented() {
        let (mut access, kai2, kai3, flow) = setup();
        let mut presented = MultiFeedback::origin(&mut access.ka, SEC, flow);
        presented.append(&kai2, flow, LinkId(201), Action::Decr);
        presented.append(&kai3, flow, LinkId(301), Action::Decr);
        // A 100-packet burst in 100 ns overflows the limiters' queues.
        let mut dropped = 0;
        for i in 0..100 {
            let mut mf = presented.clone();
            match access.process_outbound_multi(SEC + i, flow, &mut mf, 1500).0 {
                AccessVerdict::Drop(DropCause::RegularRateLimit) => {
                    dropped += 1;
                    assert_eq!(mf, presented, "a refused packet is not re-stamped");
                }
                AccessVerdict::Forward { .. } | AccessVerdict::Queued { .. } => {
                    assert!(mf.entries.is_empty());
                }
                v => panic!("unexpected verdict {v:?}"),
            }
        }
        assert!(dropped > 50, "dropped {dropped}");
    }

    #[test]
    fn invalid_chain_is_rejected_by_policing() {
        let (mut access, _kai2, _kai3, flow) = setup();
        let mut mf = MultiFeedback { ts: 1, entries: vec![(LinkId(201), Action::Decr)], token: 42 };
        let v = access.process_outbound_multi(SEC, flow, &mut mf, 1500);
        assert_eq!(v, (AccessVerdict::Drop(DropCause::InvalidMac), vec![]));
        assert_eq!(access.invalid_feedback(), 1);
        assert_eq!(access.limiter_count(), 0);
    }

    fn queued(access: &AccessRouter, src: HostId, link: LinkId) -> usize {
        access.limiters().get(&LimiterKey { src, link }).map_or(0, |l| l.bucket.queued_pkts())
    }

    #[test]
    fn a_packet_one_limiter_drops_is_charged_to_no_other() {
        let (mut access, kai2, kai3, flow) = setup();
        let chain = |access: &mut AccessRouter, links: &[(&Cmac, LinkId)]| {
            let mut mf = MultiFeedback::origin(&mut access.ka, SEC, flow);
            for &(kai, link) in links {
                mf.append(kai, flow, link, Action::Decr);
            }
            mf
        };
        // Fill limiter 201 until it refuses, holding what it queues.
        let mut held = Vec::new();
        loop {
            let mut mf = chain(&mut access, &[(&kai2, LinkId(201))]);
            match access.process_outbound_multi(SEC, flow, &mut mf, 1500) {
                (AccessVerdict::Queued { .. }, held_in) => held.extend(held_in),
                (v, _) => {
                    assert_eq!(v, AccessVerdict::Drop(DropCause::RegularRateLimit));
                    break;
                }
            }
        }
        // Limiter 301 alone would hold these; 201 drops them, so 301 keeps
        // nothing: no queued packet, departure slot or window bytes.
        for _ in 0..3 {
            let mut mf = chain(&mut access, &[(&kai2, LinkId(201)), (&kai3, LinkId(301))]);
            let v = access.process_outbound_multi(SEC, flow, &mut mf, 1500);
            assert_eq!(v, (AccessVerdict::Drop(DropCause::RegularRateLimit), vec![]));
        }
        assert_eq!(queued(&access, flow.src, LinkId(301)), 0);
        let cfg = Config::default();
        let fresh = LeakyBucket::new(SEC, cfg.initial_rate_limit, cfg.max_limiter_delay);
        let l301 = access.limiters().get(&LimiterKey { src: flow.src, link: LinkId(301) });
        assert_eq!(l301.map(|l| format!("{:?}", l.bucket)), Some(format!("{fresh:?}")));

        // 301 passes a packet of its own and takes the slot, so the next
        // two-link packet is held by both limiters, and released from both.
        let mut mf = chain(&mut access, &[(&kai3, LinkId(301))]);
        let v = access.process_outbound_multi(2 * SEC, flow, &mut mf, 1500);
        assert_eq!(v, (AccessVerdict::Forward { channel: Channel::Regular }, vec![]));
        let mut mf = chain(&mut access, &[(&kai2, LinkId(201)), (&kai3, LinkId(301))]);
        let (v, held_in) = access.process_outbound_multi(2 * SEC, flow, &mut mf, 1500);
        assert!(matches!(v, AccessVerdict::Queued { .. }), "{v:?}");
        assert_eq!(held_in, [LinkId(201), LinkId(301)]);
        held.extend(held_in);
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
        let mut mf = MultiFeedback::origin(&mut access.ka, SEC, flow);
        mf.append(&kai2, flow, LinkId(201), Action::Incr);
        mf.append(&kai2, flow, LinkId(201), Action::Decr);
        let (v, held_in) = access.process_outbound_multi(SEC, flow, &mut mf, 1500);
        assert!(matches!(v, AccessVerdict::Queued { .. }), "{v:?}");
        assert_eq!(held_in, [LinkId(201)]);
        assert_eq!(queued(&access, flow.src, LinkId(201)), 1);

        let (mut once, kai2, _kai3, _) = setup();
        let mut mf = MultiFeedback::origin(&mut once.ka, SEC, flow);
        mf.append(&kai2, flow, LinkId(201), Action::Decr);
        assert_eq!(once.process_outbound_multi(SEC, flow, &mut mf, 1500), (v, held_in));
        let key = LimiterKey { src: flow.src, link: LinkId(201) };
        let state = |access: &AccessRouter| format!("{:?}", access.limiters().get(&key));
        assert_eq!(state(&access), state(&once));
        access.packet_released(flow.src, LinkId(201));
        assert_eq!(queued(&access, flow.src, LinkId(201)), 0);
    }

    #[test]
    fn encoded_len_grows_with_entries() {
        let (mut access, kai2, kai3, flow) = setup();
        let mut mf = MultiFeedback::origin(&mut access.ka, SEC, flow);
        assert_eq!(mf.encoded_len(), 12);
        mf.append(&kai2, flow, LinkId(201), Action::Decr);
        mf.append(&kai3, flow, LinkId(301), Action::Incr);
        assert_eq!(mf.encoded_len(), 22);
    }

    #[test]
    fn inference_cache_records_and_expires() {
        let mut cache = InferenceCache::new(10 * SEC);
        let dst = HostId(0x14141401);
        cache.record(SEC, dst, LinkId(201));
        cache.record(2 * SEC, dst, LinkId(301));
        assert_eq!(cache.links_for(3 * SEC, dst), vec![LinkId(201), LinkId(301)]);
        // Hosts in the same /24 share the entry.
        assert_eq!(cache.links_for(3 * SEC, HostId(0x141414ff)).len(), 2);
        assert_eq!(cache.prefix_count(), 1);
        // After expiry only the fresher link remains, then none.
        assert_eq!(cache.links_for(11 * SEC, dst), vec![LinkId(301)]);
        assert!(cache.links_for(30 * SEC, dst).is_empty());
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
}
