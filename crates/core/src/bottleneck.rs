//! Bottleneck-router logic: congestion policing feedback updates at a link
//! in the `mon` state (§4.3.2), channel capacity split (§3.1, §4.2), and the
//! glue around [`crate::monitor::BottleneckMonitor`].
//!
//! A bottleneck router's per-packet work is deliberately tiny — O(1): look
//! at the feedback already in the header, and either leave it alone or
//! overwrite it with `L↓` (one MAC computation). It never keeps per-host or
//! per-flow state; the only state beyond the monitor EWMAs is a share of the
//! router's per-AS key table (at most one entry per AS on today's Internet,
//! §5.1).

use netfence_crypto::AsKeyTable;

use crate::config::Config;
use crate::feedback::{stamp_decr, stamp_link, Action, Feedback};
use crate::monitor::{BottleneckMonitor, MonitorEvent};
use crate::types::{AsId, Bps, FlowPair, LinkId, Nanos};

/// The three forwarding channels a NetFence router keeps per output link
/// (Figure 2). Legacy traffic gets the lowest priority to create deployment
/// incentive; the request channel is capped at a small fraction of capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Channel {
    /// Regular packets (valid congestion policing feedback).
    Regular,
    /// Request packets, scheduled by priority level within the channel.
    Request,
    /// Legacy (non-NetFence) packets, lowest forwarding priority.
    Legacy,
}

/// Outcome of the bottleneck feedback-update rules for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StampOutcome {
    /// The feedback was left untouched.
    Unchanged,
    /// The feedback was overwritten with this link's `L↓`, or an Appendix
    /// B.1 chain gained this link's `L↓` entry.
    StampedDecr,
    /// An Appendix B.1 chain gained this link's `L↑` entry.
    StampedIncr,
    /// The packet's source AS has no shared key with this router's AS, so
    /// `L↓` could not be stamped (the packet is forwarded unchanged; such
    /// traffic is handled by the per-AS policing fallback instead).
    NoKey,
}

/// Per-link bottleneck state: the monitoring state machine plus what is
/// needed to stamp `L↓` feedback.
#[derive(Debug)]
pub struct BottleneckLink {
    /// This link's identifier (carried in the `LINK-ID` field of `mon`
    /// feedback).
    link: LinkId,
    /// Output capacity in bits per second.
    capacity: Bps,
    /// Keys shared between this router's AS and every source AS (Passport):
    /// usually a share of the router's one store.
    as_keys: AsKeyTable,
    /// Monitoring cycle / attack detection / stamping hysteresis.
    monitor: BottleneckMonitor,
    /// Protocol parameters.
    cfg: Config,
}

impl BottleneckLink {
    /// Create the bottleneck state for `link`.
    pub fn new(link: LinkId, capacity: Bps, as_keys: AsKeyTable, cfg: Config, now: Nanos) -> Self {
        BottleneckLink { link, capacity, as_keys, monitor: BottleneckMonitor::new(now), cfg }
    }

    /// The link identifier.
    pub fn link(&self) -> LinkId {
        self.link
    }

    /// Whether this link is currently in a monitoring cycle.
    pub fn in_mon(&self) -> bool {
        self.monitor.in_mon()
    }

    /// Record the fate of a regular packet at this link's queue (transmitted
    /// or dropped) for attack detection.
    pub fn record_regular(&mut self, bytes: usize, dropped: bool) {
        self.monitor.detector_mut().record(bytes, dropped);
    }

    /// Report instantaneous congestion (RED drop/mark or average queue above
    /// `min_thresh`); extends the `L↓` stamping hysteresis.
    pub fn note_congestion(&mut self, now: Nanos) {
        self.monitor.note_congestion(now, &self.cfg);
    }

    /// Periodic attack-detection evaluation; call roughly every
    /// `cfg.detection_interval`.
    pub fn tick(&mut self, now: Nanos) -> MonitorEvent {
        self.monitor.tick(now, self.capacity, &self.cfg)
    }

    /// Apply the ordered feedback-update rules of §4.3.2 to a packet being
    /// transmitted over this link, mutating `feedback` in place:
    ///
    /// 1. `nop` → stamp `L↓`;
    /// 2. an upstream link's `L↓` → leave unchanged;
    /// 3. `L↑` → stamp `L↓` only if the link is currently overloaded
    ///    (within the stamping hysteresis window).
    ///
    /// An Appendix B.1 chain instead gains this link's entry: `L↓` while
    /// overloaded, `L↑` otherwise. A full chain is forwarded unchanged.
    ///
    /// Outside a monitoring cycle the feedback is never touched, which keeps
    /// the idle-time overhead at zero (§3.1).
    pub fn update_feedback(
        &mut self,
        now: Nanos,
        flow: FlowPair,
        src_as: AsId,
        feedback: &mut Feedback,
    ) -> StampOutcome {
        if !self.monitor.in_mon() {
            return StampOutcome::Unchanged;
        }
        let action = match feedback {
            Feedback::Nop { .. } => Action::Decr,
            Feedback::Mon { action: Action::Decr, .. } => return StampOutcome::Unchanged,
            Feedback::Mon { .. } | Feedback::Chain { .. }
                if self.monitor.should_stamp_decr(now) =>
            {
                Action::Decr
            }
            Feedback::Mon { .. } => return StampOutcome::Unchanged,
            Feedback::Chain { .. } => Action::Incr,
        };
        let Some(kai) = self.as_keys.get(src_as.0) else {
            return StampOutcome::NoKey;
        };
        let stamped = match feedback {
            Feedback::Chain { .. } => stamp_link(&kai, flow, (self.link, action), feedback),
            Feedback::Nop { .. } | Feedback::Mon { .. } => {
                stamp_decr(&kai, flow, self.link, feedback)
            }
        };
        let Some(new_fb) = stamped else { return StampOutcome::Unchanged };
        *feedback = new_fb;
        match action {
            Action::Decr => StampOutcome::StampedDecr,
            Action::Incr => StampOutcome::StampedIncr,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feedback::{stamp_incr, stamp_nop, stamp_origin, CHAIN_CAP};
    use crate::types::{HostId, SEC};
    use netfence_crypto::TimeVaryingSecret;

    fn keys() -> (AsKeyTable, AsKeyTable) {
        use netfence_crypto::{full_mesh_exchange, AsKeyAgent};
        let agents = vec![AsKeyAgent::new(1, 111), AsKeyAgent::new(2, 222)];
        let mut t = full_mesh_exchange(&agents);
        (t.remove(0), t.remove(0))
    }

    fn make_mon(link: &mut BottleneckLink, now: &mut Nanos) {
        while !link.in_mon() {
            *now += SEC;
            for i in 0..100 {
                link.record_regular(1500, i % 5 == 0);
            }
            link.tick(*now);
        }
    }

    #[test]
    fn idle_link_never_stamps() {
        let (_t1, t2) = keys();
        let cfg = Config::default();
        let mut bl = BottleneckLink::new(LinkId(9), 10_000_000, t2, cfg, 0);
        let mut ka = TimeVaryingSecret::new([1; 16]);
        let flow = FlowPair::new(HostId(1), HostId(2));
        let mut fb = stamp_nop(&mut ka, SEC, flow);
        assert_eq!(bl.update_feedback(SEC, flow, AsId(1), &mut fb), StampOutcome::Unchanged);
        assert!(fb.is_nop());
    }

    #[test]
    fn mon_state_stamps_nop_unconditionally() {
        let (_t1, t2) = keys();
        let cfg = Config::short_timers();
        let mut bl = BottleneckLink::new(LinkId(9), 10_000_000, t2, cfg, 0);
        let mut now = 0;
        make_mon(&mut bl, &mut now);
        let mut ka = TimeVaryingSecret::new([1; 16]);
        let flow = FlowPair::new(HostId(1), HostId(2));
        // Even long after the hysteresis window, nop feedback is converted
        // to L↓ (rule 1): the sender must be brought under a rate limiter.
        let later = now + 100 * SEC;
        let mut fb = stamp_nop(&mut ka, later, flow);
        assert_eq!(bl.update_feedback(later, flow, AsId(1), &mut fb), StampOutcome::StampedDecr);
        assert!(fb.is_decr());
        assert_eq!(fb.link(), Some(LinkId(9)));
    }

    #[test]
    fn upstream_decr_is_never_overwritten() {
        let (_t1, t2) = keys();
        let cfg = Config::short_timers();
        let mut bl = BottleneckLink::new(LinkId(9), 10_000_000, t2, cfg, 0);
        let mut now = 0;
        make_mon(&mut bl, &mut now);
        let flow = FlowPair::new(HostId(1), HostId(2));
        let mut fb = Feedback::Mon {
            link: LinkId(5),
            action: Action::Decr,
            ts: (now / SEC) as u32,
            token: 0x1234,
            token_nop: None,
        };
        let before = fb;
        assert_eq!(bl.update_feedback(now, flow, AsId(1), &mut fb), StampOutcome::Unchanged);
        assert_eq!(fb, before);
    }

    #[test]
    fn incr_is_overwritten_only_while_overloaded() {
        let (_t1, t2) = keys();
        let cfg = Config::short_timers();
        let mut bl = BottleneckLink::new(LinkId(9), 10_000_000, t2, cfg.clone(), 0);
        let mut now = 0;
        make_mon(&mut bl, &mut now);
        let mut ka = TimeVaryingSecret::new([1; 16]);
        let flow = FlowPair::new(HostId(1), HostId(2));

        // Inside the hysteresis window: L↑ becomes L↓.
        bl.note_congestion(now);
        let mut fb = stamp_incr(&mut ka, now, flow, LinkId(9));
        assert_eq!(bl.update_feedback(now, flow, AsId(1), &mut fb), StampOutcome::StampedDecr);
        assert!(fb.is_decr());

        // Far outside the hysteresis window: L↑ passes untouched.
        let later = now + 10 * cfg.ilim;
        let mut fb = stamp_incr(&mut ka, later, flow, LinkId(9));
        assert_eq!(bl.update_feedback(later, flow, AsId(1), &mut fb), StampOutcome::Unchanged);
        assert!(fb.is_incr());
    }

    /// B.1: a link in `mon` appends its entry, `L↓` only while overloaded;
    /// a full chain passes unchanged.
    #[test]
    fn mon_state_appends_to_a_chain_until_it_is_full() {
        let (_t1, t2) = keys();
        let cfg = Config::short_timers();
        let mut bl = BottleneckLink::new(LinkId(9), 10_000_000, t2, cfg.clone(), 0);
        let mut now = 0;
        make_mon(&mut bl, &mut now);
        let mut ka = TimeVaryingSecret::new([1; 16]);
        let flow = FlowPair::new(HostId(1), HostId(2));
        let later = now + 10 * cfg.ilim;
        let mut fb = stamp_origin(&mut ka, later, flow);
        assert_eq!(bl.update_feedback(later, flow, AsId(1), &mut fb), StampOutcome::StampedIncr);
        bl.note_congestion(later);
        for _ in 1..CHAIN_CAP {
            assert_eq!(
                bl.update_feedback(later, flow, AsId(1), &mut fb),
                StampOutcome::StampedDecr
            );
        }
        let full = fb;
        assert_eq!(bl.update_feedback(later, flow, AsId(1), &mut fb), StampOutcome::Unchanged);
        assert_eq!(fb, full);
        let entries: Vec<_> = fb.chain().collect();
        assert_eq!(entries.len(), CHAIN_CAP);
        assert_eq!(entries[0], (LinkId(9), Action::Incr));
        assert!(entries[1..].iter().all(|&e| e == (LinkId(9), Action::Decr)));
    }

    #[test]
    fn unknown_source_as_reports_no_key() {
        let (_t1, t2) = keys();
        let cfg = Config::short_timers();
        let mut bl = BottleneckLink::new(LinkId(9), 10_000_000, t2, cfg, 0);
        let mut now = 0;
        make_mon(&mut bl, &mut now);
        let mut ka = TimeVaryingSecret::new([1; 16]);
        let flow = FlowPair::new(HostId(1), HostId(2));
        let mut fb = stamp_nop(&mut ka, now, flow);
        assert_eq!(bl.update_feedback(now, flow, AsId(42), &mut fb), StampOutcome::NoKey);
        assert!(fb.is_nop());
    }

    #[test]
    fn channel_ordering_prioritizes_regular_and_request_over_legacy() {
        // Channel is ordered so schedulers can sort: Regular < Request <
        // Legacy == descending forwarding priority of the legacy channel.
        assert!(Channel::Regular < Channel::Request);
        assert!(Channel::Request < Channel::Legacy);
    }
}
