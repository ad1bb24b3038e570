//! Configuration of the control-plane service: transport quality.

use netfence_sim::time::Nanos;

/// Transport quality of a [`CtrlService`](crate::service::CtrlService).
///
/// [`CtrlConfig::ideal`] — the default — is the degenerate transport that
/// reproduces the old instant-reliable bus byte-for-byte; both knobs
/// degrade from there. Controller outages are not configured here: they are
/// fault windows (`netfence_faults::FaultPlan::controller_outage`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CtrlConfig {
    /// Fixed propagation latency added to every message.
    pub base_latency: Nanos,
    /// Per-attempt loss probability in `[0, 1)`.
    pub loss: f64,
}

impl Default for CtrlConfig {
    fn default() -> Self {
        CtrlConfig::ideal()
    }
}

impl CtrlConfig {
    /// The degenerate transport: zero latency, zero loss. Byte-identical
    /// to running without any installed channel.
    pub fn ideal() -> Self {
        CtrlConfig { base_latency: 0, loss: 0.0 }
    }

    /// Set the fixed per-message latency.
    pub fn latency(mut self, latency: Nanos) -> Self {
        self.base_latency = latency;
        self
    }

    /// Set the per-attempt loss probability (clamped below 1.0).
    pub fn lossy(mut self, loss: f64) -> Self {
        self.loss = loss.clamp(0.0, 0.999);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_is_clamped_below_one() {
        assert!(CtrlConfig::ideal().lossy(1.5).loss < 1.0);
    }
}
