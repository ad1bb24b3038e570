//! Configuration of the control-plane service: transport quality, session
//! backoff and fault injection.

use netfence_sim::packet::AsNum;
use netfence_sim::time::{Nanos, MILLI, SEC};

/// Reconnect behavior of a daemon session to its per-AS controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionConfig {
    /// First retry delay after a disconnect.
    pub backoff_base: Nanos,
    /// Cap on the exponentially growing retry delay.
    pub backoff_max: Nanos,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig { backoff_base: 250 * MILLI, backoff_max: 8 * SEC }
    }
}

/// One controller outage window: sessions touching the affected AS (or
/// every AS, when `asn` is `None`) disconnect at `start` and can only
/// reconnect — with exponential backoff — once `end` has passed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// The AS whose controller goes down, or `None` for a global outage.
    pub asn: Option<AsNum>,
    /// Outage start (inclusive).
    pub start: Nanos,
    /// Outage end (exclusive); the first backoff retry at or after this
    /// instant succeeds.
    pub end: Nanos,
}

/// Full configuration of a [`CtrlService`](crate::service::CtrlService).
///
/// [`CtrlConfig::ideal`] — the default — is the degenerate transport that
/// reproduces the old instant-reliable bus byte-for-byte; every knob
/// degrades from there.
#[derive(Debug, Clone, PartialEq)]
pub struct CtrlConfig {
    /// Fixed propagation latency added to every message.
    pub base_latency: Nanos,
    /// Additionally charge the topology's AS-to-AS path delay (shortest
    /// router path between the two endpoints' AS controllers) per message.
    pub use_path_latency: bool,
    /// Per-attempt loss probability in `[0, 1)`.
    pub loss: f64,
    /// Retransmission timeout: each lost attempt is retried after this
    /// long.
    pub rto: Nanos,
    /// Retransmission budget per message; a message whose original attempt
    /// and all retries are lost is dropped for good.
    pub max_retransmits: u32,
    /// Session reconnect behavior under outages.
    pub session: SessionConfig,
    /// Controller outage windows (fault injection).
    pub outages: Vec<Outage>,
    /// Partitioned ASes: no control message from or to them ever arrives.
    pub partitioned: Vec<AsNum>,
    /// Seed for the transport's loss draws.
    pub seed: u64,
}

impl Default for CtrlConfig {
    fn default() -> Self {
        CtrlConfig::ideal()
    }
}

impl CtrlConfig {
    /// The degenerate transport: zero latency, zero loss, no faults.
    /// Byte-identical to running without any installed channel.
    pub fn ideal() -> Self {
        CtrlConfig {
            base_latency: 0,
            use_path_latency: false,
            loss: 0.0,
            rto: 200 * MILLI,
            max_retransmits: 3,
            session: SessionConfig::default(),
            outages: Vec::new(),
            partitioned: Vec::new(),
            seed: 0x4354_524C, // "CTRL"
        }
    }

    /// Set the fixed per-message latency.
    pub fn latency(mut self, latency: Nanos) -> Self {
        self.base_latency = latency;
        self
    }

    /// Charge the topology's AS-to-AS path delay per message.
    pub fn path_latency(mut self, on: bool) -> Self {
        self.use_path_latency = on;
        self
    }

    /// Set the per-attempt loss probability (clamped below 1.0).
    pub fn lossy(mut self, loss: f64) -> Self {
        self.loss = loss.clamp(0.0, 0.999);
        self
    }

    /// Set the retransmission timeout.
    pub fn retransmit_timeout(mut self, rto: Nanos) -> Self {
        self.rto = rto;
        self
    }

    /// Add a global controller outage window.
    pub fn outage(mut self, start: Nanos, end: Nanos) -> Self {
        self.outages.push(Outage { asn: None, start, end });
        self
    }

    /// Partition an AS off the control plane entirely.
    pub fn partition(mut self, asn: AsNum) -> Self {
        self.partitioned.push(asn);
        self
    }

    /// Set the loss-draw seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether this configuration can degrade delivery at all (false for
    /// [`CtrlConfig::ideal`]-like configs, whatever the seed).
    pub fn is_degraded(&self) -> bool {
        self.base_latency > 0
            || self.use_path_latency
            || self.loss > 0.0
            || !self.outages.is_empty()
            || !self.partitioned.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_is_not_degraded_and_builders_compose() {
        assert!(!CtrlConfig::ideal().is_degraded());
        let cfg = CtrlConfig::ideal()
            .latency(5 * MILLI)
            .lossy(0.1)
            .outage(SEC, 2 * SEC)
            .partition(9)
            .seed(42);
        assert!(cfg.is_degraded());
        assert_eq!(cfg.outages, vec![Outage { asn: None, start: SEC, end: 2 * SEC }]);
        assert_eq!(cfg.partitioned, vec![9]);
        assert_eq!(cfg.seed, 42);
    }

    #[test]
    fn loss_is_clamped_below_one() {
        assert!(CtrlConfig::ideal().lossy(1.5).loss < 1.0);
    }
}
