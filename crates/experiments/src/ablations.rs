//! Ablations of three design choices the paper argues for, as numbers
//! computed directly on the `netfence-core` primitives:
//!
//! * the 2·`Ilim` stamping hysteresis (vs 0 or 1 intervals) — §4.3.4 argues
//!   2 is the minimum robust value;
//! * the leaky-bucket (queue) rate limiter vs a token bucket that would
//!   admit synchronized bursts — §4.3.3;
//! * the multiplicative-decrease parameter δ = 0.1 vs TCP's 0.5 — §4.6.

use netfence_core::aimd::AimdState;
use netfence_core::config::Config;
use netfence_core::feedback::Action;
use netfence_core::monitor::BottleneckMonitor;
use netfence_core::regular_limiter::{BucketVerdict, LeakyBucket};
use netfence_core::types::{MILLI, SEC};

use crate::registry::Size;
use crate::report::{kbps, pct, table_of};

/// The burst both buckets face: 50 back-to-back 1500-byte packets.
const BURST_PKTS: u32 = 50;
const PKT_BYTES: usize = 1500;

/// The link the two AIMD senders of the δ ablation share.
const LINK_BPS: u64 = 400_000;

/// How long `L↓` keeps being stamped after a single congestion event with
/// the hysteresis set to `intervals`·`Ilim` — the robustness window a
/// sender that hides one round of feedback has to outlast. Seconds, probed
/// in 100 ms steps.
pub fn hysteresis_window_secs(intervals: u32) -> f64 {
    let cfg = Config { hysteresis_intervals: intervals, ..Config::short_timers() };
    let mut m = BottleneckMonitor::new(0);
    let mut now = 0;
    while !m.in_mon() {
        now += SEC;
        for i in 0..100 {
            m.detector_mut().record(PKT_BYTES, i % 5 == 0);
        }
        m.tick(now, 10_000_000, &cfg);
    }
    m.note_congestion(now, &cfg);
    let mut steps = 0u64;
    while m.should_stamp_decr(now + steps * 100 * MILLI) {
        steps += 1;
    }
    steps as f64 / 10.0
}

/// Packets of the burst a 200 kbps leaky bucket passes immediately after a
/// long idle period (the rest queue behind the drain rate).
pub fn leaky_bucket_burst_admitted() -> u32 {
    let mut lb = LeakyBucket::new(0, 200_000, 2 * SEC);
    let now = 100 * SEC;
    (0..BURST_PKTS).map(|_| u32::from(lb.offer(now, PKT_BYTES) == BucketVerdict::Pass)).sum()
}

/// The same burst against the token bucket the paper rejects: 200 kbps
/// with 2 s of credit accrued while idle.
pub fn token_bucket_burst_admitted() -> u32 {
    let pkt_bits = (PKT_BYTES * 8) as f64;
    let mut tokens = 200_000.0 * 2.0;
    let mut admitted = 0;
    for _ in 0..BURST_PKTS {
        if tokens >= pkt_bits {
            tokens -= pkt_bits;
            admitted += 1;
        }
    }
    admitted
}

/// Steady-state aggregate rate (bps) of two AIMD senders converging on a
/// 400 kbps link with multiplicative decrease `delta`, averaged over
/// control intervals 101–199.
pub fn aimd_steady_state_bps(delta: f64) -> f64 {
    let cfg = Config { multiplicative_decrease: delta, ..Config::default() };
    let mut x = AimdState::with_rate(300_000, 0);
    let mut y = AimdState::with_rate(60_000, 0);
    let mut sum = 0f64;
    for step in 1..200u64 {
        let now = step * cfg.ilim;
        let congested = x.rate() + y.rate() > LINK_BPS;
        for l in [&mut x, &mut y] {
            if !congested {
                l.observe(Action::Incr, (now / SEC) as u32);
            }
            l.adjust(now, l.rate() as f64, &cfg);
        }
        if step > 100 {
            sum += (x.rate() + y.rate()) as f64;
        }
    }
    sum / 99.0
}

/// `netfence run ablations` (closed-form on the primitives; one size).
pub fn table(_: Size) -> String {
    let buckets = [
        ("leaky bucket (NetFence)", leaky_bucket_burst_admitted()),
        ("token bucket", token_bucket_burst_admitted()),
    ];
    format!(
        "Ablations of the design choices of §4.3.3, §4.3.4 and §4.6\n\n\
         Stamping hysteresis: seconds L-down is still stamped after one congestion event\n\n{}\n\
         Burst admission: packets of a {BURST_PKTS}-packet burst passed at once after 2 s idle\n\n{}\n\
         Multiplicative decrease: two AIMD senders on a 400 kbps link, steady state\n\n{}\n",
        table_of(&["hysteresis", "window (s)"], &[0u32, 1, 2], |&k| vec![
            format!("{k} x Ilim"),
            format!("{:.1}", hysteresis_window_secs(k))
        ]),
        table_of(&["limiter", "admitted pkts"], &buckets, |&(limiter, admitted)| vec![
            limiter.to_string(),
            admitted.to_string()
        ]),
        table_of(&["delta", "aggregate kbps", "of link"], &[0.1f64, 0.5], |&delta| {
            let bps = aimd_steady_state_bps(delta);
            vec![format!("{delta}"), kbps(bps), pct(bps / LINK_BPS as f64)]
        })
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_paper_s_choices_win_each_ablation() {
        assert!(hysteresis_window_secs(2) > hysteresis_window_secs(1));
        assert!(hysteresis_window_secs(1) > hysteresis_window_secs(0));
        assert!(leaky_bucket_burst_admitted() < token_bucket_burst_admitted());
        assert!(aimd_steady_state_bps(0.1) > aimd_steady_state_bps(0.5));
    }
}
