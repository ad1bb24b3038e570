//! Robust AIMD rate-limit adjustment (§4.3.4, Figure 17).
//!
//! An access router adjusts each (sender, bottleneck link) rate limit once
//! per control interval `Ilim`:
//!
//! 1. If the limiter has seen `L↑` feedback newer than the interval start
//!    (`hasIncr`), and the sender actually used more than half of its limit,
//!    the limit grows additively by `Δ`.
//! 2. Otherwise the limit shrinks multiplicatively to `(1 − δ)·rlim`.
//!
//! The "robust" part is the combination with the bottleneck's stamping
//! hysteresis (Figure 4): the bottleneck keeps stamping `L↓` for two full
//! control intervals after congestion ends, so a sender that congested the
//! link cannot obtain `L↑` feedback covering a whole interval — hiding `L↓`
//! or staying silent both lead to a decrease. The throughput check prevents
//! a sender from inflating its limit by sending slowly for a long time and
//! then bursting.

use crate::config::Config;
use crate::feedback::Action;
use crate::types::{Bps, Nanos, SEC};

/// What the adjustment decided, for logging/metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Adjustment {
    /// Additive increase by `Δ`.
    Increased,
    /// Held constant (had `L↑` but under-utilized the limit).
    Kept,
    /// Multiplicative decrease to `(1 − δ)·rlim`.
    Decreased,
}

/// Per-rate-limiter AIMD state (the `m_hasIncr` / `m_ts` variables of
/// Figure 17 plus the rate limit itself).
#[derive(Debug, Clone)]
pub struct AimdState {
    /// Current rate limit in bits per second.
    rate: Bps,
    /// Whether `L↑` feedback with a timestamp newer than the current control
    /// interval start has been observed.
    has_incr: bool,
    /// Start of the current control interval (nanoseconds).
    interval_start: Nanos,
}

impl AimdState {
    /// Create AIMD state with the configured initial rate limit.
    pub fn new(cfg: &Config, now: Nanos) -> Self {
        AimdState { rate: cfg.initial_rate_limit, has_incr: false, interval_start: now }
    }

    /// Create AIMD state with an explicit starting rate.
    pub fn with_rate(rate: Bps, now: Nanos) -> Self {
        AimdState { rate, has_incr: false, interval_start: now }
    }

    /// The current rate limit.
    pub fn rate(&self) -> Bps {
        self.rate
    }

    /// Start time of the current control interval.
    pub fn interval_start(&self) -> Nanos {
        self.interval_start
    }

    /// Whether `L↑` feedback newer than the interval start was seen.
    pub fn has_incr(&self) -> bool {
        self.has_incr
    }

    /// Record the `action` of `mon` feedback stamped at `ts` (seconds) for
    /// this limiter (Figure 17 `update_status`): only `L↑` stamped no
    /// earlier than the interval start's second sets `hasIncr`.
    pub fn observe(&mut self, action: Action, ts: u32) {
        if action == Action::Incr && u64::from(ts) >= self.interval_start / SEC {
            self.has_incr = true;
        }
    }

    /// Whether the control interval that started at `interval_start` has
    /// elapsed at `now`.
    pub fn interval_elapsed(&self, now: Nanos, cfg: &Config) -> bool {
        now.saturating_sub(self.interval_start) >= cfg.ilim
    }

    /// Apply the end-of-interval adjustment (Figure 17
    /// `adjust_rate_limit`). `throughput_bps` is the limiter's measured
    /// outgoing rate over the ending interval.
    pub fn adjust(&mut self, now: Nanos, throughput_bps: f64, cfg: &Config) -> Adjustment {
        let decision = if self.has_incr {
            if throughput_bps > self.rate as f64 / 2.0 {
                self.rate = self.rate.saturating_add(cfg.additive_increase).min(cfg.max_rate_limit);
                Adjustment::Increased
            } else {
                Adjustment::Kept
            }
        } else {
            let decreased = (self.rate as f64 * (1.0 - cfg.multiplicative_decrease)) as Bps;
            self.rate = decreased.max(cfg.min_rate_limit);
            Adjustment::Decreased
        };
        self.has_incr = false;
        self.interval_start = now;
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfence_telemetry::jain_fairness_index;

    #[test]
    fn increase_requires_incr_and_utilization() {
        let cfg = Config::default();
        let mut s = AimdState::with_rate(100_000, 0);
        s.observe(Action::Incr, 1);
        // Utilized more than half the limit => increase by Δ.
        assert_eq!(s.adjust(2 * SEC, 60_000.0, &cfg), Adjustment::Increased);
        assert_eq!(s.rate(), 112_000);
    }

    #[test]
    fn underutilized_limiter_is_not_increased() {
        // Prevents a malicious sender from inflating its limit by sending
        // slowly for a long time (§4.3.4 rule 1).
        let cfg = Config::default();
        let mut s = AimdState::with_rate(100_000, 0);
        s.observe(Action::Incr, 1);
        assert_eq!(s.adjust(2 * SEC, 10_000.0, &cfg), Adjustment::Kept);
        assert_eq!(s.rate(), 100_000);
    }

    #[test]
    fn no_incr_feedback_means_decrease() {
        // Hiding L↓ (or not sending at all) cannot prevent the decrease:
        // without fresh L↑ the limit is always cut.
        let cfg = Config::default();
        let mut s = AimdState::with_rate(100_000, 0);
        assert_eq!(s.adjust(2 * SEC, 90_000.0, &cfg), Adjustment::Decreased);
        assert_eq!(s.rate(), 90_000);
        // Presenting only L↓ also decreases.
        s.observe(Action::Decr, 3);
        assert_eq!(s.adjust(4 * SEC, 90_000.0, &cfg), Adjustment::Decreased);
        assert_eq!(s.rate(), 81_000);
    }

    #[test]
    fn stale_incr_feedback_does_not_count() {
        let cfg = Config::default();
        // Interval starts at t = 10 s; feedback stamped at 5 s is older than
        // the interval start and must not set hasIncr.
        let mut s = AimdState::with_rate(100_000, 10 * SEC);
        s.observe(Action::Incr, 5);
        assert!(!s.has_incr());
        assert_eq!(s.adjust(12 * SEC, 90_000.0, &cfg), Adjustment::Decreased);
    }

    #[test]
    fn rate_respects_floor_and_ceiling() {
        let cfg = Config::default();
        let mut s = AimdState::with_rate(cfg.min_rate_limit, 0);
        s.adjust(2 * SEC, 0.0, &cfg);
        assert_eq!(s.rate(), cfg.min_rate_limit);

        let mut s = AimdState::with_rate(cfg.max_rate_limit, 0);
        s.observe(Action::Incr, 1);
        s.adjust(2 * SEC, cfg.max_rate_limit as f64, &cfg);
        assert_eq!(s.rate(), cfg.max_rate_limit);
    }

    #[test]
    fn interval_elapsed() {
        let cfg = Config::default();
        let s = AimdState::with_rate(1000, 10 * SEC);
        assert!(!s.interval_elapsed(11 * SEC, &cfg));
        assert!(s.interval_elapsed(12 * SEC, &cfg));
    }

    #[test]
    fn observe_resets_each_interval() {
        let cfg = Config::default();
        let mut s = AimdState::with_rate(100_000, 0);
        s.observe(Action::Incr, 1);
        s.observe(Action::Decr, 1);
        assert!(s.has_incr(), "a later L↓ does not cancel L↑");
        s.adjust(2 * SEC, 90_000.0, &cfg);
        assert!(!s.has_incr());
    }

    /// Two senders through the same bottleneck converge to the same rate:
    /// the classic Chiu–Jain result the paper's fairness proof relies on.
    #[test]
    fn aimd_converges_to_fairness() {
        let cfg = Config::default();
        let mut a = AimdState::with_rate(400_000, 0);
        let mut b = AimdState::with_rate(50_000, 0);
        let capacity = 300_000.0;
        let mut now = 0;
        let mut last_index = jain_fairness_index(&[a.rate() as f64, b.rate() as f64]);
        for round in 0..200 {
            now += cfg.ilim;
            let overloaded = (a.rate() + b.rate()) as f64 > capacity;
            let ts = (now / SEC) as u32;
            if !overloaded {
                a.observe(Action::Incr, ts);
                b.observe(Action::Incr, ts);
            }
            // Senders always utilize their full limits.
            a.adjust(now, a.rate() as f64, &cfg);
            b.adjust(now, b.rate() as f64, &cfg);
            if round % 50 == 49 {
                let idx = jain_fairness_index(&[a.rate() as f64, b.rate() as f64]);
                assert!(
                    idx >= last_index - 1e-6,
                    "fairness index decreased: {last_index} -> {idx}"
                );
                last_index = idx;
            }
        }
        let ratio = a.rate() as f64 / b.rate() as f64;
        assert!(
            (0.8..1.25).contains(&ratio),
            "rates did not converge: {} vs {}",
            a.rate(),
            b.rate()
        );
        assert!(last_index > 0.99);
    }

    proptest::proptest! {
        /// The decrease path is always by exactly (1-δ) down to the floor,
        /// and the increase path by exactly Δ up to the ceiling.
        #[test]
        fn adjustment_magnitudes(rate in 10_000u64..10_000_000u64, incr_seen: bool, tput_frac in 0.0f64..1.0) {
            let cfg = Config::default();
            let mut s = AimdState::with_rate(rate, 0);
            if incr_seen { s.observe(Action::Incr, 1); }
            let tput = rate as f64 * tput_frac;
            let before = s.rate();
            let decision = s.adjust(2 * SEC, tput, &cfg);
            match decision {
                Adjustment::Increased => {
                    proptest::prop_assert!(incr_seen && tput > before as f64 / 2.0);
                    proptest::prop_assert_eq!(s.rate(), (before + cfg.additive_increase).min(cfg.max_rate_limit));
                }
                Adjustment::Kept => {
                    proptest::prop_assert!(incr_seen);
                    proptest::prop_assert_eq!(s.rate(), before);
                }
                Adjustment::Decreased => {
                    proptest::prop_assert!(!incr_seen);
                    let expect = ((before as f64 * 0.9) as u64).max(cfg.min_rate_limit);
                    proptest::prop_assert_eq!(s.rate(), expect);
                }
            }
        }
    }
}
