//! Basic identifiers and units used throughout the NetFence protocol.
//!
//! The paper identifies hosts and links by IP addresses and Autonomous
//! Systems by AS numbers. The reproduction keeps them as opaque 32-bit
//! newtypes; the simulator assigns them when it builds a topology.

/// Nanoseconds since the beginning of the simulation (or since an arbitrary
/// epoch for a real deployment). All protocol state machines take explicit
/// `now` values — nothing in `netfence-core` reads a clock.
pub type Nanos = u64;

/// One microsecond in [`Nanos`].
pub const MICRO: Nanos = 1_000;
/// One millisecond in [`Nanos`].
pub const MILLI: Nanos = 1_000_000;
/// One second in [`Nanos`].
pub const SEC: Nanos = 1_000_000_000;

/// Convert nanoseconds to whole seconds (the unit of the NetFence header
/// timestamp field).
#[inline]
pub fn nanos_to_secs(t: Nanos) -> u32 {
    (t / SEC) as u32
}

/// Convert a floating point number of seconds to [`Nanos`].
#[inline]
pub fn secs_f64(s: f64) -> Nanos {
    (s * SEC as f64).round() as Nanos
}

/// A transmission rate in bits per second.
pub type Bps = u64;

/// Identifier of an end host (an IP address in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub u32);

/// Identifier of a link (the IP address of the link in the paper, carried in
/// the `LINK-ID` field of `mon` feedback). The default is [`LinkId::NULL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct LinkId(pub u32);

impl LinkId {
    /// The null link identifier used by `nop` feedback (`link_null` in
    /// Eq. 1 of the paper).
    pub const NULL: LinkId = LinkId(0);
}

/// An Autonomous System number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AsId(pub u32);

/// An ordered (source, destination) host pair — the granularity at which
/// congestion policing feedback is bound by its MAC (Eq. 1–3 cover both
/// addresses "to prevent an attacker from re-using valid nop feedback on a
/// different connection").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowPair {
    /// The sender.
    pub src: HostId,
    /// The receiver.
    pub dst: HostId,
}

impl FlowPair {
    /// Construct a flow pair.
    pub fn new(src: HostId, dst: HostId) -> Self {
        FlowPair { src, dst }
    }

    /// The reverse direction of this pair.
    pub fn reversed(&self) -> Self {
        FlowPair { src: self.dst, dst: self.src }
    }
}

/// Key of a per-(sender, bottleneck link) rate limiter kept by an access
/// router (§3.1, §4.3.3). `Ord` so limiter sweeps can emit in sorted
/// (deterministic) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LimiterKey {
    /// The policed sender.
    pub src: HostId,
    /// The bottleneck link the limiter protects.
    pub link: LinkId,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_conversions() {
        assert_eq!(nanos_to_secs(0), 0);
        assert_eq!(nanos_to_secs(SEC - 1), 0);
        assert_eq!(nanos_to_secs(SEC), 1);
        assert_eq!(nanos_to_secs(3 * SEC + 999_999_999), 3);
        assert_eq!(secs_f64(0.5), 500 * MILLI);
        assert_eq!(secs_f64(2.0), 2 * SEC);
    }

    #[test]
    fn flow_pair_reversal() {
        let p = FlowPair::new(HostId(1), HostId(2));
        assert_eq!(p.reversed(), FlowPair::new(HostId(2), HostId(1)));
        assert_eq!(p.reversed().reversed(), p);
    }

    #[test]
    fn null_link_is_zero() {
        assert_eq!(LinkId::NULL.0, 0);
    }
}
