//! The switch for the gated observers.

/// Configuration of the *gated* telemetry observers ([`Timeline`] and
/// [`FlightRecorder`]). The default is fully disabled, in which case both
/// observers are constructed in their no-op state and every recording
/// call is a branch on a cold flag.
///
/// [`Timeline`]: crate::Timeline
/// [`FlightRecorder`]: crate::FlightRecorder
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryConfig {
    /// Record time-series probes (queue depth, limiter rates, policy-store
    /// occupancy, control-session state) on the engine's sample clock.
    pub timeline: bool,
    /// Flight-recorder sampling: `None` disables packet tracing; `Some(k)`
    /// traces every packet whose hashed id falls in a `1 / 2^k` bucket
    /// (`Some(0)` traces everything). Sampling hashes the engine-assigned
    /// packet id, so it never consumes RNG draws.
    pub trace_sample_shift: Option<u32>,
}

/// Ring capacity of an enabled observer: timeline rows, and flight-recorder
/// hop events.
pub const RING_CAPACITY: usize = 1 << 16;

impl TelemetryConfig {
    /// Everything on: timeline plus a `1 / 2^shift` packet trace.
    pub fn full(shift: u32) -> Self {
        TelemetryConfig { timeline: true, trace_sample_shift: Some(shift) }
    }

    /// Whether any gated observer is active.
    pub fn enabled(&self) -> bool {
        self.timeline || self.trace_sample_shift.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fully_disabled() {
        let cfg = TelemetryConfig::default();
        assert!(!cfg.enabled());
        assert_eq!(cfg.trace_sample_shift, None);
    }

    #[test]
    fn full_enables_both_observers() {
        let cfg = TelemetryConfig::full(4);
        assert!(cfg.enabled());
        assert!(cfg.timeline);
        assert_eq!(cfg.trace_sample_shift, Some(4));
    }
}
