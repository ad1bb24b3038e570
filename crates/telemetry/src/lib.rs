//! # netfence-telemetry
//!
//! Pure-observer instrumentation for the NetFence reproduction: typed drop
//! causes, ring-buffered time series, a hash-sampled packet flight recorder
//! and engine profiling counters.
//!
//! The crate is a leaf — it depends on nothing and every other layer
//! depends on it — which also makes it the home of the two things they must
//! agree on: the fixed-hasher [`IdMap`], the [`tx_nanos`]
//! serialization-time rule and [`jain_fairness_index`]. The observers obey
//! one **determinism contract**:
//!
//! * The *always-on* parts — [`DropLedger`]/[`DropBudget`] and
//!   [`EngineProfile`] — are plain deterministic counters. They are cheap
//!   enough to maintain unconditionally, so they may surface in
//!   `DefenseReport`/`Record` without threatening the byte-identity
//!   property tests.
//! * The *gated* parts — [`Timeline`] and [`FlightRecorder`], switched by
//!   [`TelemetryConfig`] (default: fully disabled) — are observers only.
//!   They never feed back into simulation state, never consume RNG draws
//!   (the flight recorder samples on a hash of the engine-assigned packet
//!   id), and never appear in a `Record`. Enabling them must leave every
//!   `Record` byte-identical; `tests/telemetry.rs` pins this for every
//!   defense system.

#![warn(missing_docs)]

pub mod config;
pub mod drop;
pub mod idmap;
pub mod profile;
pub mod timeline;
pub mod trace;

pub use config::{TelemetryConfig, RING_CAPACITY};
pub use drop::{DropBudget, DropCause, DropLedger};
pub use idmap::{IdHasher, IdMap};
pub use profile::EngineProfile;
pub use timeline::{Timeline, TimelineRow};
pub use trace::{FlightRecorder, HopEvent, HopStage};

/// Simulated nanoseconds — the same representation as
/// `netfence_sim::time::Nanos` (both are plain `u64` aliases, so they
/// unify without a dependency edge).
pub type Nanos = u64;

/// Time to serialize `bytes` at `bps > 0` bits per second, rounded down:
/// `bytes · 8 · 10⁹ / bps`. The product fits `u64` for every packet the
/// simulator moves; `u128` division (a library call) only on overflow.
#[inline]
pub fn tx_nanos(bytes: usize, bps: u64) -> Nanos {
    match (bytes as u64).checked_mul(8_000_000_000) {
        Some(bit_nanos) => bit_nanos / bps,
        None => (bytes as u128 * 8_000_000_000 / u128::from(bps)) as Nanos,
    }
}

/// Jain's fairness index of a set of rates or throughputs,
/// `(Σx)² / (n·Σx²)`: 1 when all are equal, `1/n` when one takes
/// everything. An empty or all-zero set counts as fair.
pub fn jain_fairness_index(values: &[f64]) -> f64 {
    let sum: f64 = values.iter().sum();
    let sum_sq: f64 = values.iter().map(|v| v * v).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    sum * sum / (values.len() as f64 * sum_sq)
}

/// Escape a string for embedding inside a JSON string literal. The keys
/// and series names the crate emits are ASCII identifiers, but the escape
/// is complete for the JSON control set so hand-rolled export stays valid
/// without a serde dependency.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_nanos_arms_agree_at_the_u64_boundary() {
        let wide = |bytes: usize, bps: u64| (bytes as u128 * 8_000_000_000 / bps as u128) as Nanos;
        // 1500 B at 10 Mbps = 1.2 ms; 40 B at 1 Gbps = 320 ns.
        assert_eq!(tx_nanos(1500, 10_000_000), 1_200_000);
        assert_eq!(tx_nanos(40, 1_000_000_000), 320);
        // `bytes · 8e9` crosses `u64::MAX` between these two sizes.
        let last_fit = (u64::MAX / 8_000_000_000) as usize;
        assert!((last_fit as u64 + 1).checked_mul(8_000_000_000).is_none());
        for bytes in [last_fit - 1, last_fit, last_fit + 1, last_fit + 2] {
            for bps in [1, 7, 10_000_000, u64::MAX / 3] {
                assert_eq!(tx_nanos(bytes, bps), wide(bytes, bps), "{bytes} B at {bps} bps");
            }
        }
    }

    #[test]
    fn jain_index_spans_one_over_n_to_one() {
        assert!((jain_fairness_index(&[5.0, 5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        assert!((jain_fairness_index(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        assert!((jain_fairness_index(&[1.0, 0.0]) - 0.5).abs() < 1e-12);
        assert_eq!(jain_fairness_index(&[]), 1.0);
        assert_eq!(jain_fairness_index(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn json_escape_handles_the_control_set() {
        assert_eq!(json_escape("plain-key"), "plain-key");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny\t\u{1}"), "x\\ny\\t\\u0001");
    }
}
