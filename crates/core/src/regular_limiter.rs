//! The leaky-bucket regular-packet rate limiter (§4.3.3, Figure 16).
//!
//! The paper implements a rate limiter as "a queue whose de-queuing rate is
//! the rate limit, similar to a leaky bucket". A queue — rather than a token
//! bucket — is used deliberately: a token bucket would let a sender burst
//! above its rate limit, and synchronized bursts from many attackers could
//! congest a link (the microscopic on-off attack of §5.2.1).
//!
//! The core type here is time-based and sans-I/O: it never holds packets.
//! [`LeakyBucket::offer`] tells the caller whether a packet may depart now,
//! must be held until a computed release time, or must be dropped because
//! the queueing delay would be too long. The simulator (or a real
//! forwarding engine) owns the actual packet buffer and schedules the
//! release.

use crate::types::{Bps, Nanos, SEC};

/// Decision for a packet offered to the leaky bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BucketVerdict {
    /// The packet conforms and may be forwarded immediately.
    Pass,
    /// The packet must be buffered and released at the given time.
    Queued {
        /// Absolute time at which the packet may depart.
        release_at: Nanos,
    },
    /// The packet would wait longer than the configured maximum caching
    /// delay (Figure 16 `caching_delay_too_long`) and is dropped.
    Drop,
}

/// A leaky-bucket rate limiter with throughput accounting.
#[derive(Debug, Clone)]
pub struct LeakyBucket {
    /// Current dequeue rate (the rate limit), bits per second.
    rate: Bps,
    /// Departure time of the most recently departed/scheduled packet.
    last_departure: Nanos,
    /// Number of packets currently scheduled but not yet released.
    queued_pkts: usize,
    /// Maximum tolerated queueing delay before dropping.
    max_delay: Nanos,
    /// Bytes offered (passed or queued, not dropped) since the throughput
    /// accounting window started — used by the robust AIMD increase rule.
    bytes_since_reset: u64,
    /// Start of the throughput accounting window.
    window_start: Nanos,
    /// Bytes dropped since the limiter was created (used by the access
    /// router's `Ta` garbage-collection rule: a limiter that has not
    /// discarded packets and has seen no `L↓` can be reclaimed).
    dropped_pkts: u64,
}

impl LeakyBucket {
    /// Create a bucket with an initial rate limit.
    pub fn new(now: Nanos, rate: Bps, max_delay: Nanos) -> Self {
        LeakyBucket {
            rate: rate.max(1),
            last_departure: now,
            queued_pkts: 0,
            max_delay,
            bytes_since_reset: 0,
            window_start: now,
            dropped_pkts: 0,
        }
    }

    /// The current rate limit in bits per second.
    pub fn rate(&self) -> Bps {
        self.rate
    }

    /// Number of packets currently queued (scheduled but not yet released).
    pub fn queued_pkts(&self) -> usize {
        self.queued_pkts
    }

    /// Total packets dropped by this limiter.
    pub fn dropped_pkts(&self) -> u64 {
        self.dropped_pkts
    }

    /// Time to transmit `bytes` at the current rate.
    fn service_time(&self, bytes: usize) -> Nanos {
        netfence_telemetry::tx_nanos(bytes, self.rate)
    }

    /// Offer a packet of `bytes` at time `now` (Figure 16
    /// `rate_limit_regular_packet` + `cache_packet`): quote it, then
    /// charge the answer.
    pub fn offer(&mut self, now: Nanos, bytes: usize) -> BucketVerdict {
        let verdict = self.quote(now, bytes);
        self.charge(now, bytes, verdict);
        verdict
    }

    /// What [`offer`](Self::offer) would decide for a packet of `bytes` at
    /// `now`, leaving the bucket as it is.
    pub(crate) fn quote(&self, now: Nanos, bytes: usize) -> BucketVerdict {
        let service = self.service_time(bytes);
        if self.queued_pkts == 0 && now.saturating_sub(self.last_departure) >= service {
            // The inter-departure gap already covers this packet's service
            // time: it conforms and departs immediately.
            return BucketVerdict::Pass;
        }
        // Otherwise the packet departs one service time after the previous
        // departure (or now, whichever is later).
        let release_at = self.last_departure.saturating_add(service).max(now);
        if release_at.saturating_sub(now) > self.max_delay {
            return BucketVerdict::Drop;
        }
        BucketVerdict::Queued { release_at }
    }

    /// Commit the `verdict` [`quote`](Self::quote) gave for a packet of
    /// `bytes` at `now`: a passed or queued packet takes its departure slot
    /// and counts toward the throughput window, a queued one waits for
    /// [`released`](Self::released), a dropped one is counted.
    pub(crate) fn charge(&mut self, now: Nanos, bytes: usize, verdict: BucketVerdict) {
        match verdict {
            BucketVerdict::Pass => self.last_departure = now,
            BucketVerdict::Queued { release_at } => {
                self.last_departure = release_at;
                self.queued_pkts += 1;
            }
            BucketVerdict::Drop => {
                self.dropped_pkts += 1;
                return;
            }
        }
        self.bytes_since_reset += bytes as u64;
    }

    /// Tell the bucket that a previously queued packet has actually been
    /// released by the caller.
    pub fn released(&mut self) {
        debug_assert!(self.queued_pkts > 0, "released() without a queued packet");
        self.queued_pkts = self.queued_pkts.saturating_sub(1);
    }

    /// Average throughput (bits per second) since the accounting window
    /// started. This is the value the robust AIMD rule compares against
    /// `rlim/2` before increasing the limit (Figure 17), preventing a
    /// malicious sender from inflating its limit by sending slowly.
    pub fn throughput(&self, now: Nanos) -> f64 {
        let elapsed = now.saturating_sub(self.window_start);
        if elapsed == 0 {
            return 0.0;
        }
        self.bytes_since_reset as f64 * 8.0 * SEC as f64 / elapsed as f64
    }

    /// Reset the throughput accounting window (called at the end of each
    /// control interval).
    pub fn reset_window(&mut self, now: Nanos) {
        self.bytes_since_reset = 0;
        self.window_start = now;
    }

    /// Change the rate limit. Pending departures are rescaled so that the
    /// backlog drains at the new rate (Figure 17 `update_packet_cache`).
    pub fn set_rate(&mut self, now: Nanos, new_rate: Bps) {
        let new_rate = new_rate.max(1);
        if self.last_departure > now && self.rate != new_rate {
            let backlog = self.last_departure - now;
            let rescaled = (backlog as u128 * self.rate as u128 / new_rate as u128) as Nanos;
            self.last_departure = now + rescaled;
        }
        self.rate = new_rate;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::MILLI;

    const PKT: usize = 1500;

    #[test]
    fn first_packet_passes() {
        let mut b = LeakyBucket::new(SEC, 100_000, SEC);
        // At creation last_departure == now, so the gap is zero and the
        // packet is queued one service time out rather than passed.
        match b.offer(SEC, PKT) {
            BucketVerdict::Queued { release_at } => {
                assert_eq!(release_at, SEC + b.service_time(PKT));
            }
            v => panic!("unexpected verdict {v:?}"),
        }
        // After an idle period longer than the service time, packets pass
        // immediately.
        let mut b = LeakyBucket::new(0, 100_000, SEC);
        assert_eq!(b.offer(SEC, PKT), BucketVerdict::Pass);
    }

    #[test]
    fn spacing_matches_rate() {
        // 120 kbps, 1500 B packets => service time 100 ms.
        let mut b = LeakyBucket::new(0, 120_000, 10 * SEC);
        let mut releases = Vec::new();
        for _ in 0..5 {
            match b.offer(SEC, PKT) {
                BucketVerdict::Pass => releases.push(SEC),
                BucketVerdict::Queued { release_at } => {
                    b.released();
                    releases.push(release_at)
                }
                BucketVerdict::Drop => panic!("unexpected drop"),
            }
        }
        // The first departs immediately (1 s of idle credit only covers the
        // gap check, not accumulation), subsequent ones are spaced 100 ms.
        for w in releases.windows(2) {
            assert_eq!(w[1] - w[0], 100 * MILLI, "departures must be spaced by the service time");
        }
    }

    #[test]
    fn no_burst_credit_accumulates() {
        // Unlike a token bucket, a long idle period does not allow a burst:
        // back-to-back packets are still spaced at the service rate.
        let mut b = LeakyBucket::new(0, 120_000, 10 * SEC);
        let now = 100 * SEC;
        assert_eq!(b.offer(now, PKT), BucketVerdict::Pass);
        match b.offer(now, PKT) {
            BucketVerdict::Queued { release_at } => assert_eq!(release_at, now + 100 * MILLI),
            v => panic!("expected queued, got {v:?}"),
        }
    }

    #[test]
    fn excessive_delay_drops() {
        // Max delay 1 s at 120 kbps = at most ~10 queued 1500 B packets.
        let mut b = LeakyBucket::new(0, 120_000, SEC);
        let mut dropped = 0;
        for _ in 0..20 {
            if b.offer(SEC, PKT) == BucketVerdict::Drop {
                dropped += 1;
            }
        }
        assert!(dropped >= 9, "expected most of the burst to be dropped, got {dropped}");
        assert_eq!(b.dropped_pkts(), dropped);
    }

    #[test]
    fn throughput_accounting() {
        let mut b = LeakyBucket::new(0, 1_000_000, SEC);
        b.reset_window(0);
        // Offer 10 x 1500 B over 1 second => 120 kbps measured.
        for i in 0..10 {
            let _ = b.offer(i * 100 * MILLI, PKT);
        }
        let tput = b.throughput(SEC);
        assert!((tput - 120_000.0).abs() < 1_000.0, "throughput {tput}");
        b.reset_window(SEC);
        assert_eq!(b.throughput(2 * SEC), 0.0);
    }

    #[test]
    fn rate_change_rescales_backlog() {
        let mut b = LeakyBucket::new(0, 120_000, 10 * SEC);
        let now = SEC;
        assert_eq!(b.offer(now, PKT), BucketVerdict::Pass);
        let r1 = match b.offer(now, PKT) {
            BucketVerdict::Queued { release_at } => release_at,
            v => panic!("{v:?}"),
        };
        assert_eq!(r1, now + 100 * MILLI);
        // Halving the rate doubles the remaining backlog drain time.
        b.set_rate(now, 60_000);
        let r2 = match b.offer(now, PKT) {
            BucketVerdict::Queued { release_at } => release_at,
            v => panic!("{v:?}"),
        };
        assert_eq!(r2, now + 200 * MILLI + 200 * MILLI);
    }

    proptest::proptest! {
        /// Long-run released throughput never exceeds the configured rate
        /// (the property that defeats on-off burst attacks).
        #[test]
        fn never_exceeds_rate(pkts in proptest::collection::vec((0u64..50 * MILLI, 200usize..1500), 10..200),
                              rate in 50_000u64..2_000_000) {
            let mut b = LeakyBucket::new(0, rate, 10 * SEC);
            let mut now = 0u64;
            let mut last_release = 0u64;
            let mut sent_bits = 0u64;
            for (gap, len) in pkts {
                now += gap;
                match b.offer(now, len) {
                    BucketVerdict::Pass => { sent_bits += len as u64 * 8; last_release = last_release.max(now); }
                    BucketVerdict::Queued { release_at } => {
                        b.released();
                        sent_bits += len as u64 * 8;
                        last_release = last_release.max(release_at);
                    }
                    BucketVerdict::Drop => {}
                }
            }
            if last_release > 0 && sent_bits > 8 * 1500 {
                // Allow one MTU of slack for the first packet.
                let achieved = (sent_bits - 8 * 1500) as f64 * SEC as f64 / last_release as f64;
                proptest::prop_assert!(achieved <= rate as f64 * 1.01,
                    "achieved {achieved} exceeds rate {rate}");
            }
        }
    }
}
