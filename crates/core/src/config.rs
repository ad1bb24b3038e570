//! NetFence protocol parameters (Figure 3 of the paper) plus the handful of
//! implementation constants the paper describes in prose.

use crate::multi::MultiBottleneck;
use crate::types::{Bps, Nanos, MILLI, SEC};

/// The full parameter set of a NetFence deployment.
///
/// Field defaults reproduce Figure 3 of the paper exactly:
///
/// | Name | Value | Meaning |
/// |---|---|---|
/// | `l1` | 1 ms | level-1 request packet rate limit |
/// | `Ilim` | 2 s | rate limiter control interval length |
/// | `w` | 4 s | feedback expiration time |
/// | `Δ` | 12 kbps | rate limiter additive increase |
/// | `δ` | 0.1 | rate limiter multiplicative decrease |
/// | `p_th` | 2% | packet loss rate threshold |
///
/// Figure 3's queue rows (`Q_lim` = 0.2 s × link bandwidth, `min_thresh`
/// = 0.5 `Q_lim`, `max_thresh` = 0.75 `Q_lim`, `w_q` = 0.1) are not
/// settings of the protocol state machines in this crate: the simulator's
/// RED queue owns them, as `netfence_sim::queue::RedParams::paper_defaults`.
#[derive(Debug, Clone)]
pub struct Config {
    /// `l1`: the inter-packet interval of the level-1 request packet rate
    /// limit (one level-1 request packet per `l1`). Figure 3: 1 ms.
    pub l1_interval: Nanos,
    /// `Ilim`: rate limiter control interval length. Figure 3: 2 s.
    pub ilim: Nanos,
    /// `w`: feedback expiration time. Figure 3: 4 s.
    pub feedback_expiry: Nanos,
    /// `Δ`: additive increase step of the regular rate limiter in bits per
    /// second. Figure 3: 12 kbps.
    pub additive_increase: Bps,
    /// `δ`: multiplicative decrease factor. Figure 3: 0.1 (the limit is cut
    /// to `(1 − δ)·rlim`).
    pub multiplicative_decrease: f64,
    /// `p_th`: regular-packet loss rate threshold used by attack detection.
    /// Figure 3: 2 %.
    pub loss_threshold: f64,
    /// Link utilization threshold used by attack detection on
    /// well-provisioned links (§4.3.1 mentions e.g. 95 %).
    pub utilization_threshold: f64,
    /// Fraction of link capacity reserved for the request channel (§3.1,
    /// §4.2): 5 %.
    pub request_channel_fraction: f64,
    /// `Ta`: idle time after which an access router terminates a
    /// per-(sender, bottleneck) rate limiter (§4.3.1, "a few hours"). The
    /// default here is 2 hours; experiment harnesses shorten it.
    pub ta: Nanos,
    /// `Tb`: quiet time after which a bottleneck router terminates a
    /// monitoring cycle (§4.3.1, "a few hours"). Default 2 hours.
    pub tb: Nanos,
    /// Period between two attack-detection evaluations at a bottleneck link
    /// (the EWMA update interval of Figure 19's `check_packet_loss`).
    pub detection_interval: Nanos,
    /// EWMA weight for the attack-detection loss estimate (Figure 19 uses
    /// 0.1: `drop_rate = drop_rate*0.9 + dr*0.1`).
    pub detection_ewma: f64,
    /// Initial rate limit installed when a (sender, bottleneck) rate limiter
    /// is created. The paper targets fair shares of 50–400 kbps; we start in
    /// the middle of that band.
    pub initial_rate_limit: Bps,
    /// Floor below which a rate limit is never decreased. It is kept above
    /// one MTU per `max_limiter_delay` so that a minimal-rate limiter still
    /// lets packets trickle through instead of dropping everything (which
    /// would break the sender's feedback loop permanently).
    pub min_rate_limit: Bps,
    /// Ceiling for a rate limit (avoids unbounded growth during long idle
    /// monitored periods).
    pub max_rate_limit: Bps,
    /// Maximum queueing delay the regular-packet leaky bucket will impose
    /// before dropping ("caching_delay_too_long" in Figure 16).
    pub max_limiter_delay: Nanos,
    /// Maximum request packet priority level understood by routers.
    pub max_request_priority: u8,
    /// Token bucket depth of the request limiter, in tokens. It must be
    /// large enough to afford one high-priority request after a back-off
    /// (level 10 costs 512 tokens), otherwise a sender that lost its
    /// feedback could never recover.
    pub request_bucket_depth: f64,
    /// Number of extra control intervals the `L↓` feedback keeps being
    /// stamped after congestion abates (`2·Ilim` hysteresis, §4.3.4 and
    /// Figure 4). The appendix shows 2 is the minimum robust value; the
    /// ablation bench varies it.
    pub hysteresis_intervals: u32,
    /// Which Appendix B design handles flows that cross several
    /// bottlenecks. Only the access router reads it: it decides what the
    /// router stamps and whether it infers limiters. Default: the core
    /// design (§4.3.5).
    pub multi_bottleneck: MultiBottleneck,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            l1_interval: MILLI,
            ilim: 2 * SEC,
            feedback_expiry: 4 * SEC,
            additive_increase: 12_000,
            multiplicative_decrease: 0.1,
            loss_threshold: 0.02,
            utilization_threshold: 0.95,
            request_channel_fraction: 0.05,
            ta: 2 * 3600 * SEC,
            tb: 2 * 3600 * SEC,
            detection_interval: SEC,
            detection_ewma: 0.1,
            initial_rate_limit: 200_000,
            min_rate_limit: 16_000,
            max_rate_limit: 100_000_000,
            max_limiter_delay: 2 * SEC,
            max_request_priority: 16,
            request_bucket_depth: 4096.0,
            hysteresis_intervals: 2,
            multi_bottleneck: MultiBottleneck::Core,
        }
    }
}

impl Config {
    /// A configuration with timers shortened so that unit tests and small
    /// simulations exercise rate-limiter garbage collection and monitoring
    /// cycle termination without simulating hours.
    pub fn short_timers() -> Self {
        Config { ta: 60 * SEC, tb: 60 * SEC, ..Config::default() }
    }

    /// The request-channel token refill rate in tokens per second implied by
    /// `l1` (one level-1 token per `l1`).
    pub fn request_tokens_per_sec(&self) -> f64 {
        SEC as f64 / self.l1_interval as f64
    }

    /// Sanity-check parameter relationships the design relies on.
    ///
    /// Returns a human-readable list of violations (empty when valid).
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.ilim == 0 {
            problems.push("Ilim must be positive".into());
        }
        if self.feedback_expiry < self.ilim {
            problems.push("feedback expiration w should be at least one control interval".into());
        }
        if !(0.0..1.0).contains(&self.multiplicative_decrease) {
            problems.push("δ must lie in [0, 1)".into());
        }
        if !(0.0..=1.0).contains(&self.loss_threshold) {
            problems.push("p_th must be a probability".into());
        }
        if self.min_rate_limit == 0 || self.min_rate_limit > self.initial_rate_limit {
            problems.push("rate limit floor must be positive and below the initial limit".into());
        }
        if !(0.0..=1.0).contains(&self.request_channel_fraction) {
            problems.push("request channel fraction must be a fraction".into());
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 3 of the paper, asserted literally.
    #[test]
    fn figure3_values() {
        let c = Config::default();
        assert_eq!(c.l1_interval, MILLI);
        assert_eq!(c.ilim, 2 * SEC);
        assert_eq!(c.feedback_expiry, 4 * SEC);
        assert_eq!(c.additive_increase, 12_000);
        assert!((c.multiplicative_decrease - 0.1).abs() < 1e-12);
        assert!((c.loss_threshold - 0.02).abs() < 1e-12);
        assert!((c.request_channel_fraction - 0.05).abs() < 1e-12);
    }

    #[test]
    fn default_config_is_valid() {
        assert!(Config::default().validate().is_empty());
        assert!(Config::short_timers().validate().is_empty());
    }

    #[test]
    fn validation_catches_bad_parameters() {
        let c = Config { multiplicative_decrease: 1.5, min_rate_limit: 0, ..Config::default() };
        let problems = c.validate();
        assert_eq!(problems.len(), 2);
    }

    #[test]
    fn request_token_rate_matches_l1() {
        let c = Config::default();
        assert!((c.request_tokens_per_sec() - 1000.0).abs() < 1e-9);
    }
}
