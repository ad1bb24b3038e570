//! The control-plane transport: a [`ControlChannel`] implementation with
//! latency, loss with bounded retransmission, and controller outages.

use netfence_sim::control::{ChannelVerdict, ControlChannel};
use netfence_sim::rng::SimRng;
use netfence_sim::time::{Nanos, MILLI, SEC};

use crate::config::CtrlConfig;

/// Retransmission timeout: each lost attempt is retried after this long.
const RTO: Nanos = 200 * MILLI;
/// Retransmission budget per message; a message whose original attempt
/// and all retries are lost is dropped for good.
const MAX_RETRANSMITS: u32 = 3;
/// First reconnect retry delay after a controller outage begins.
const BACKOFF_BASE: Nanos = 250 * MILLI;
/// Cap on the exponentially growing reconnect retry delay.
const BACKOFF_MAX: Nanos = 8 * SEC;
/// Seed of the transport's loss draws ("CTRL").
const LOSS_SEED: u64 = 0x4354_524C;

/// The asynchronous control-plane service for one deployment.
///
/// Install it on the deployment's bus before constructing the simulator:
///
/// ```ignore
/// deployment.bus.install_channel(Box::new(CtrlService::new(cfg, outages)));
/// ```
///
/// Every control message is then planned through [`ControlChannel::plan`]:
///
/// 1. **Outages** — a message sent while every controller is down (inside
///    one of the `outages` windows a fault plan compiled) is held until the
///    senders' daemons reconnect: they notice the broken stream at the
///    window's start and retry with exponential backoff, so the message
///    goes out at the first retry at or after the window's end, not at the
///    end itself.
/// 2. **Loss & retransmission** — each attempt is lost with probability
///    `loss`; lost attempts retry after a fixed timeout up to a fixed
///    budget, after which the message is dropped for good.
/// 3. **Latency** — the surviving attempt is charged `base_latency`.
#[derive(Debug)]
pub struct CtrlService {
    cfg: CtrlConfig,
    /// Controller outage windows `[start, end)`.
    outages: Vec<(Nanos, Nanos)>,
    rng: SimRng,
}

impl CtrlService {
    /// The service under `cfg` with every controller down during `outages`.
    pub fn new(cfg: CtrlConfig, outages: Vec<(Nanos, Nanos)>) -> Self {
        CtrlService { cfg, outages, rng: SimRng::new(LOSS_SEED) }
    }
}

impl ControlChannel for CtrlService {
    fn plan(&mut self, now: Nanos) -> ChannelVerdict {
        // Overlapping windows behave like one long outage: widest end wins.
        let covering = self
            .outages
            .iter()
            .filter(|&&(start, end)| start <= now && now < end)
            .max_by_key(|&&(_, end)| end);
        let send_at = covering.map_or(now, |&(start, end)| reconnect_schedule(start, end).max(now));
        // Loss with bounded retransmission: count consecutive lost attempts.
        let mut retransmits = 0u32;
        if self.cfg.loss > 0.0 {
            while self.rng.unit() < self.cfg.loss {
                if retransmits == MAX_RETRANSMITS {
                    return ChannelVerdict::Lost { retransmits };
                }
                retransmits += 1;
            }
        }
        let at = send_at
            .saturating_add(self.cfg.base_latency)
            .saturating_add((retransmits as Nanos).saturating_mul(RTO));
        ChannelVerdict::Deliver { at, retransmits }
    }
}

/// When a daemon disconnected at `start`, whose controller returns at
/// `end`, reconnects: the first retry at or after `end` on the
/// exponential-backoff schedule `start + b`, `start + b + 2b`, …, each
/// delay doubling and capped at [`BACKOFF_MAX`].
///
/// All arithmetic saturates: a pathological outage puts the reconnect at
/// `Nanos::MAX` instead of overflowing. Once the delay has reached the cap
/// the retries are evenly spaced and the rest of the walk is a division,
/// so an outage to the end of time costs no more than a short one.
fn reconnect_schedule(start: Nanos, end: Nanos) -> Nanos {
    let mut t = start;
    let mut delay = BACKOFF_BASE;
    loop {
        t = t.saturating_add(delay);
        if t >= end {
            return t;
        }
        if delay == BACKOFF_MAX {
            let retries = (end - t).div_ceil(BACKOFF_MAX);
            return t.saturating_add(retries.saturating_mul(BACKOFF_MAX));
        }
        delay = (delay * 2).min(BACKOFF_MAX);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_doubles_until_reconnect() {
        // Disconnect at 0, controller back at 1s. Retries at 250ms, 750ms,
        // 1.75s → the third attempt is the first at/after 1s.
        assert_eq!(reconnect_schedule(0, SEC), 1_750 * MILLI);
    }

    #[test]
    fn instant_recovery_reconnects_on_first_retry() {
        assert_eq!(reconnect_schedule(0, 1), 250 * MILLI);
    }

    #[test]
    fn backoff_delay_is_capped() {
        // A very long outage: delays double 250ms → 8s then stay there
        // (retries at …, 7.75 s, 15.75 s, 23.75 s, …), so the reconnect
        // lands within one cap of the outage end.
        assert_eq!(reconnect_schedule(0, 100 * SEC), 103_750 * MILLI);
        assert_eq!(reconnect_schedule(0, 103_750 * MILLI), 103_750 * MILLI);
        assert_eq!(reconnect_schedule(0, 103_750 * MILLI + 1), 111_750 * MILLI);
    }

    #[test]
    fn pathological_outage_saturates_instead_of_overflowing() {
        // An outage pinned against the end of representable time: the retry
        // clock saturates at `Nanos::MAX` rather than wrapping (which would
        // return a retry instant *before* the outage began).
        assert_eq!(reconnect_schedule(Nanos::MAX - SEC, Nanos::MAX), Nanos::MAX);
        // Dark from the first second to the end of time: still `Nanos::MAX`,
        // and without walking 2^64 / 8 s retries one by one.
        assert_eq!(reconnect_schedule(SEC, Nanos::MAX), Nanos::MAX);
        // A multi-hour outage still reconnects within one cap of its end.
        let six_hours = 6 * 3600 * SEC;
        let at = reconnect_schedule(0, six_hours);
        assert!(
            (six_hours..six_hours + 8 * SEC).contains(&at),
            "reconnect at {at} for a {six_hours}ns outage"
        );
    }

    #[test]
    fn ideal_config_delivers_instantly() {
        let mut svc = CtrlService::new(CtrlConfig::ideal(), Vec::new());
        for now in [0, SEC, 5 * SEC] {
            assert_eq!(svc.plan(now), ChannelVerdict::Deliver { at: now, retransmits: 0 });
        }
    }

    #[test]
    fn outage_holds_messages_until_backoff_reconnect() {
        let cfg = CtrlConfig::ideal().latency(2 * MILLI);
        let mut svc = CtrlService::new(cfg, vec![(SEC, 2 * SEC)]);
        let deliver_at = |at| ChannelVerdict::Deliver { at, retransmits: 0 };
        // Before the outage: the latency alone.
        assert_eq!(svc.plan(0), deliver_at(2 * MILLI));
        // During the outage: held past the end, to the reconnect instant
        // (retries at 1.25 s, 1.75 s, 2.75 s), then the latency.
        assert_eq!(svc.plan(SEC + MILLI), deliver_at(2_752 * MILLI));
        // After the outage: the latency alone again.
        assert_eq!(svc.plan(3 * SEC), deliver_at(3 * SEC + 2 * MILLI));
    }

    #[test]
    fn an_outage_to_the_end_of_time_saturates_the_delivery_instant() {
        let cfg = CtrlConfig::ideal().latency(50 * MILLI);
        let mut svc = CtrlService::new(cfg, vec![(SEC, Nanos::MAX)]);
        assert_eq!(svc.plan(2 * SEC), ChannelVerdict::Deliver { at: Nanos::MAX, retransmits: 0 });
    }

    #[test]
    fn loss_retransmits_and_eventually_gives_up() {
        let mut svc = CtrlService::new(CtrlConfig::ideal().lossy(0.5), Vec::new());
        let mut delivered = 0u32;
        let mut lost = 0u32;
        let mut retransmitted = 0u32;
        for _ in 0..400 {
            match svc.plan(0) {
                ChannelVerdict::Deliver { at, retransmits } => {
                    delivered += 1;
                    retransmitted += retransmits;
                    assert_eq!(at, retransmits as Nanos * RTO);
                }
                ChannelVerdict::Lost { retransmits } => {
                    lost += 1;
                    assert_eq!(retransmits, MAX_RETRANSMITS);
                }
            }
        }
        // p(loss)=0.5, budget 3: ~93.75% delivered, ~6.25% lost for good.
        assert!(delivered > 300, "delivered {delivered}");
        assert!(lost > 5, "lost {lost}");
        assert!(retransmitted > 100, "retransmits {retransmitted}");
    }
}
