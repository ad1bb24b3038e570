//! Always-on engine profiling counters.

/// Event-loop counters the engine maintains unconditionally: how many
/// events of each kind it processed and how many packets moved through
/// each station. Dividing by wall-clock time gives events/s and simulated
/// pkts/s — the scaling baseline the sharded-engine work measures against.
///
/// The counters are deterministic (pure functions of the run), so they may
/// be surfaced in a `Record` without breaking byte-identity between
/// telemetry-enabled and telemetry-disabled runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineProfile {
    /// Total events popped from the heap.
    pub events: u64,
    /// Flow events (starts and timers).
    pub flow_events: u64,
    /// Packet arrivals at a node.
    pub arrive_events: u64,
    /// Link events (wake-ups of links with a backlog and idle-link polls).
    pub link_events: u64,
    /// Delayed-packet releases from rate limiters.
    pub release_events: u64,
    /// Defense agent ticks.
    pub tick_events: u64,
    /// Deferred control-plane deliveries.
    pub control_events: u64,
    /// Goodput/telemetry sample events.
    pub sample_events: u64,
    /// Packets handed to a forwarding decision (host uplinks included).
    pub forwards: u64,
    /// Packets accepted into a link queue's enqueue path.
    pub enqueues: u64,
    /// Packets dequeued into transmission.
    pub dequeues: u64,
    /// Packets dropped anywhere (queues, agents, routing) — equals the
    /// drop ledger's total.
    pub drops: u64,
}
