//! Per-sender request-packet policing (§4.2, Figure 15).
//!
//! A sender may assign a priority level to its request packets. Routers
//! forward level-k packets with higher priority than lower levels, but the
//! sender's access router charges 2^(k−1) tokens for a level-k packet from a
//! per-sender token bucket that refills at one token per `l1` (1 ms). Level-0
//! packets are free but forwarded with the lowest priority. Because the
//! admitted rate halves with each priority level, the aggregate arrival rate
//! of high-priority request packets eventually drops below the request
//! channel capacity, guaranteeing that a patient legitimate sender can get a
//! request packet through (the Portcullis-style argument of §4.2).

use crate::config::Config;
use crate::types::Nanos;

/// Outcome of offering a request packet to the limiter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestVerdict {
    /// The packet may be forwarded (tokens were charged unless level 0).
    Pass,
    /// Insufficient tokens for this priority level; the packet is dropped.
    Drop,
}

/// Per-sender token-bucket request limiter (Figure 15 pseudo-code).
#[derive(Debug, Clone)]
pub struct RequestLimiter {
    /// Tokens available at `last_update`.
    tokens: f64,
    /// Time of the last token accounting.
    last_update: Nanos,
    /// Token refill rate, tokens per second.
    refill_per_sec: f64,
    /// Maximum number of tokens the bucket can hold.
    depth: f64,
    /// Highest priority level accepted.
    max_priority: u8,
}

impl RequestLimiter {
    /// Create a limiter from the protocol configuration.
    ///
    /// The paper notes an access router may configure different token refill
    /// rates for different hosts (e.g. busy servers); `rate_multiplier`
    /// scales the per-`l1` refill rate for this sender.
    pub fn new(cfg: &Config, now: Nanos, rate_multiplier: f64) -> Self {
        RequestLimiter {
            tokens: cfg.request_bucket_depth,
            last_update: now,
            refill_per_sec: cfg.request_tokens_per_sec() * rate_multiplier,
            depth: cfg.request_bucket_depth,
            max_priority: cfg.max_request_priority,
        }
    }

    /// Tokens currently available (after refill up to `now`).
    pub fn available_tokens(&self, now: Nanos) -> f64 {
        let elapsed = now.saturating_sub(self.last_update) as f64 / 1e9;
        (self.tokens + elapsed * self.refill_per_sec).min(self.depth)
    }

    /// The token cost of a request packet at `priority` (2^(k−1); level 0 is
    /// free).
    pub fn cost(priority: u8) -> f64 {
        if priority == 0 {
            0.0
        } else {
            (1u64 << (priority - 1).min(62)) as f64
        }
    }

    /// Offer a request packet at `priority`. Implements Figure 15: level-0
    /// packets always pass (they are forwarded with the lowest priority
    /// instead of being rate limited); higher levels are charged
    /// exponentially many tokens.
    pub fn offer(&mut self, now: Nanos, priority: u8) -> RequestVerdict {
        if priority == 0 {
            return RequestVerdict::Pass;
        }
        let priority = priority.min(self.max_priority);
        let tokens_now = self.available_tokens(now);
        let cost = Self::cost(priority);
        if cost > tokens_now {
            return RequestVerdict::Drop;
        }
        self.tokens = (tokens_now - cost).max(0.0);
        self.last_update = now;
        RequestVerdict::Pass
    }

    /// The waiting time after which a sender can afford a level-`k` packet
    /// starting from an empty bucket. Used by end hosts to pick the priority
    /// of a retransmitted request (§4.2: a sender's waiting time sets its
    /// priority; after a 1 s backoff it can send at level 10 when `l1` is
    /// 1 ms, as in the Figure 8 experiment).
    pub fn wait_for_level(&self, priority: u8) -> Nanos {
        (Self::cost(priority) / self.refill_per_sec * 1e9) as Nanos
    }

    /// The highest priority level affordable after waiting `waited` with an
    /// initially empty bucket. This is the "waiting time sets the priority"
    /// rule senders use when backing off.
    pub fn affordable_level(&self, waited: Nanos) -> u8 {
        let tokens = (waited as f64 / 1e9 * self.refill_per_sec).min(self.depth);
        Self::level_for_tokens(tokens, self.max_priority)
    }

    /// The highest level up to `max` whose [`cost`](Self::cost) `tokens`
    /// cover. Level `k ≥ 1` costs `2^(k−1)` (capped at `2^62`), so the
    /// affordable levels are those with `2^(k−1) ≤ ⌊tokens⌋`: `0` below one
    /// token, `⌊log2 ⌊tokens⌋⌋ + 1` otherwise, and every level from `2^62`
    /// tokens on.
    pub fn level_for_tokens(tokens: f64, max: u8) -> u8 {
        // The cast saturates: a NaN or anything below one token is 0, +∞
        // is `u64::MAX`.
        match tokens as u64 {
            0 => 0,
            whole if whole >= 1 << 62 => max,
            whole => max.min(whole.ilog2() as u8 + 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{MILLI, SEC};

    fn limiter() -> RequestLimiter {
        RequestLimiter::new(&Config::default(), 0, 1.0)
    }

    /// A small bucket (depth 16) to exercise exhaustion without thousands
    /// of packets.
    fn small_limiter() -> RequestLimiter {
        let cfg = Config { request_bucket_depth: 16.0, ..Config::default() };
        RequestLimiter::new(&cfg, 0, 1.0)
    }

    #[test]
    fn level0_always_passes() {
        let mut l = limiter();
        for _ in 0..10_000 {
            assert_eq!(l.offer(0, 0), RequestVerdict::Pass);
        }
    }

    #[test]
    fn exponential_cost() {
        assert_eq!(RequestLimiter::cost(1), 1.0);
        assert_eq!(RequestLimiter::cost(2), 2.0);
        assert_eq!(RequestLimiter::cost(5), 16.0);
        assert_eq!(RequestLimiter::cost(11), 1024.0);
    }

    #[test]
    fn bucket_exhaustion_and_refill() {
        let mut l = small_limiter();
        // Depth is 16 tokens: 16 level-1 packets pass, the 17th is dropped.
        for _ in 0..16 {
            assert_eq!(l.offer(0, 1), RequestVerdict::Pass);
        }
        assert_eq!(l.offer(0, 1), RequestVerdict::Drop);
        // After 1 ms one token has refilled.
        assert_eq!(l.offer(MILLI, 1), RequestVerdict::Pass);
        assert_eq!(l.offer(MILLI, 1), RequestVerdict::Drop);
    }

    #[test]
    fn level_rate_halves_per_level() {
        // Over one second a sender can send ~1000 level-1 packets but only
        // ~500 level-2 packets: the admitted rate halves per level.
        let mut count_l1 = 0;
        let mut l = small_limiter();
        for t in 0..10_000 {
            if l.offer(t * 100 * crate::types::MICRO, 1) == RequestVerdict::Pass {
                count_l1 += 1;
            }
        }
        let mut count_l2 = 0;
        let mut l = small_limiter();
        for t in 0..10_000 {
            if l.offer(t * 100 * crate::types::MICRO, 2) == RequestVerdict::Pass {
                count_l2 += 1;
            }
        }
        // 1 s of refill at 1000 tokens/s plus the 16-token depth.
        assert!((990..=1020).contains(&count_l1), "level-1 count {count_l1}");
        assert!((495..=515).contains(&count_l2), "level-2 count {count_l2}");
    }

    #[test]
    fn waiting_time_buys_priority() {
        let l = limiter();
        // After a 1 second wait a sender can afford roughly level 10
        // (2^9 = 512 <= 1000 tokens < 2^10): matches the Figure 8
        // experiment narrative.
        assert_eq!(l.affordable_level(SEC), 10);
        assert_eq!(l.affordable_level(0), 0);
        assert_eq!(l.affordable_level(MILLI), 1);
        assert!(l.wait_for_level(10) > 500 * MILLI);
    }

    #[test]
    fn server_rate_multiplier() {
        // A server given 4x the refill rate affords level-12 after the same
        // 1 s wait (two more levels than a default host).
        let cfg = Config::default();
        let server = RequestLimiter::new(&cfg, 0, 4.0);
        assert_eq!(server.affordable_level(SEC), 12);
    }

    #[test]
    fn level_for_tokens_matches_the_level_loop() {
        // The loop the closed form replaced: count levels while the next
        // one is affordable.
        let by_loop = |tokens: f64, max: u8| {
            let mut level = 0u8;
            while level < max && RequestLimiter::cost(level + 1) <= tokens {
                level += 1;
            }
            level
        };
        let mut tokens = vec![0.0, 0.5, 1.0, Config::default().request_bucket_depth, f64::INFINITY];
        for k in 0..64 {
            let p = (1u64 << k) as f64;
            tokens.extend([p.next_down(), p, p.next_up()]);
        }
        for max in [0, 1, 16, 63, 255] {
            for &t in &tokens {
                assert_eq!(
                    RequestLimiter::level_for_tokens(t, max),
                    by_loop(t, max),
                    "tokens {t}, max {max}"
                );
            }
        }
        assert_eq!(RequestLimiter::level_for_tokens(f64::NAN, 16), 0);
    }

    proptest::proptest! {
        /// Token accounting never goes negative and never exceeds the depth.
        #[test]
        fn tokens_stay_bounded(offers in proptest::collection::vec((0u64..10_000_000u64, 0u8..12), 1..200)) {
            let mut l = small_limiter();
            let mut now = 0;
            for (gap, prio) in offers {
                now += gap;
                let _ = l.offer(now, prio);
                let avail = l.available_tokens(now);
                proptest::prop_assert!(avail >= 0.0);
                proptest::prop_assert!(avail <= l.depth + 1e-9);
            }
        }
    }
}
