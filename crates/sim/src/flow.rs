//! Transport flows (the simulator's "agents").
//!
//! A flow owns both endpoints of a conversation: the engine hands it every
//! packet that arrives at either of its hosts and every timer it has armed,
//! and the flow responds with packets to inject and new timers. This keeps
//! the engine free of any transport knowledge. The response is written into
//! a [`FlowActions`] the engine owns and reuses, so a flow event allocates
//! nothing once the two buffers have grown to their working size.

use crate::packet::{HostAddr, Packet};
use crate::time::Nanos;

/// What a flow wants the engine to do after handling an event. Callbacks
/// append to it; the engine drains it after each one.
#[derive(Debug, Default)]
pub struct FlowActions {
    /// Packets to inject at their `src` host.
    pub packets: Vec<Packet>,
    /// Timers to arm: absolute fire time and an opaque token returned to the
    /// flow when the timer fires.
    pub timers: Vec<(Nanos, u64)>,
}

impl FlowActions {
    /// What one callback asks for, collected into a fresh set — for callers
    /// without an engine-owned buffer (unit tests drive flows this way).
    pub fn of(callback: impl FnOnce(&mut FlowActions)) -> FlowActions {
        let mut actions = FlowActions::default();
        callback(&mut actions);
        actions
    }
}

/// Progress counters exposed by a flow for metrics and experiment output.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowProgress {
    /// Application bytes delivered to the destination (goodput).
    pub delivered_bytes: u64,
    /// Packets sent by the source endpoint.
    pub packets_sent: u64,
    /// Completed transfers: (start, end, bytes).
    pub completions: Vec<(Nanos, Nanos, u64)>,
    /// Transfers that were aborted (handshake failures or deadline).
    pub failed_transfers: u64,
    /// Transfers started.
    pub started_transfers: u64,
}

impl FlowProgress {
    /// Average transfer completion time in seconds over completed transfers.
    pub fn avg_transfer_secs(&self) -> Option<f64> {
        if self.completions.is_empty() {
            return None;
        }
        let total: f64 = self.completions.iter().map(|(s, e, _)| (*e - *s) as f64 / 1e9).sum();
        Some(total / self.completions.len() as f64)
    }

    /// Fraction of started transfers that completed.
    pub fn completion_ratio(&self) -> f64 {
        let finished = self.completions.len() as u64;
        let attempted = finished + self.failed_transfers;
        if attempted == 0 {
            1.0
        } else {
            finished as f64 / attempted as f64
        }
    }

    /// Average goodput in bits/second over the interval `[start, end]`.
    pub fn goodput_bps(&self, start: Nanos, end: Nanos) -> f64 {
        if end <= start {
            return 0.0;
        }
        self.delivered_bytes as f64 * 8.0 / ((end - start) as f64 / 1e9)
    }
}

/// A transport flow / traffic agent.
pub trait Flow: std::fmt::Debug {
    /// Called once at the flow's start time.
    fn start(&mut self, now: Nanos, out: &mut FlowActions);
    /// A packet belonging to this flow arrived at `at_host` (either
    /// endpoint).
    fn on_packet(&mut self, now: Nanos, pkt: &Packet, at_host: HostAddr, out: &mut FlowActions);
    /// A previously armed timer fired.
    fn on_timer(&mut self, now: Nanos, token: u64, out: &mut FlowActions);
    /// Current progress counters.
    fn progress(&self) -> &FlowProgress;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_statistics() {
        let mut p = FlowProgress::default();
        assert_eq!(p.avg_transfer_secs(), None);
        assert_eq!(p.completion_ratio(), 1.0);
        p.completions.push((0, 2_000_000_000, 20_000));
        p.completions.push((0, 4_000_000_000, 20_000));
        p.failed_transfers = 2;
        assert!((p.avg_transfer_secs().unwrap() - 3.0).abs() < 1e-9);
        assert!((p.completion_ratio() - 0.5).abs() < 1e-9);
        p.delivered_bytes = 1_000_000;
        assert!((p.goodput_bps(0, 8_000_000_000) - 1_000_000.0).abs() < 1.0);
    }
}
