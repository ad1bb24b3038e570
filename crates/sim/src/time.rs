//! Simulated time.
//!
//! The simulator measures time in nanoseconds since the start of the run.
//! All protocol code (in `netfence-core`) takes the same representation, so
//! timestamps flow through without conversion.

/// Nanoseconds since the start of the simulation.
pub type Nanos = u64;

/// One microsecond.
pub const MICRO: Nanos = 1_000;
/// One millisecond.
pub const MILLI: Nanos = 1_000_000;
/// One second.
pub const SEC: Nanos = 1_000_000_000;

/// Convert seconds (floating point) to [`Nanos`].
#[inline]
pub fn secs(s: f64) -> Nanos {
    (s * SEC as f64).round() as Nanos
}

/// Convert [`Nanos`] to floating-point seconds.
#[inline]
pub fn to_secs(t: Nanos) -> f64 {
    t as f64 / SEC as f64
}

/// The time needed to serialize `bytes` onto a link of `bps` bits/second.
#[inline]
pub fn transmission_time(bytes: usize, bps: u64) -> Nanos {
    if bps == 0 {
        return Nanos::MAX / 4;
    }
    netfence_telemetry::tx_nanos(bytes, bps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(secs(1.5), 1_500_000_000);
        assert!((to_secs(250 * MILLI) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn serialization_time() {
        // 1500 B at 10 Mbps = 1.2 ms.
        assert_eq!(transmission_time(1500, 10_000_000), 1_200_000);
        // 40 B at 1 Gbps = 320 ns.
        assert_eq!(transmission_time(40, 1_000_000_000), 320);
        // Zero-capacity links never finish (guard against divide by zero).
        assert!(transmission_time(1, 0) > SEC);
    }
}
