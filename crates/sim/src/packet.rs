//! Packets as they travel through the simulated network.
//!
//! The simulator is payload-free: a packet carries only the metadata needed
//! to route, queue, police and account for it. Defense systems (NetFence,
//! TVA+, StopIt, …) attach their shim headers through the type-erased
//! [`Extension`] mechanism so the simulator core stays independent of any
//! particular protocol.

use std::any::Any;

use crate::time::Nanos;
use crate::topology::NO_ROW;

/// An end-host address (plays the role of an IP address).
pub type HostAddr = u32;
/// An autonomous-system number.
pub type AsNum = u32;
/// A link identifier (the "IP address of the link" used by NetFence
/// feedback).
pub type LinkAddr = u32;
/// Index of a transport flow/agent registered with the simulator.
pub type FlowId = usize;

/// Transport protocol of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// TCP segments (file transfers, web-like traffic).
    Tcp,
    /// UDP datagrams (attack traffic, feedback echo packets).
    Udp,
}

/// The role a TCP segment plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpKind {
    /// Connection request.
    Syn,
    /// Connection accept.
    SynAck,
    /// A data segment.
    Data,
    /// A pure acknowledgment.
    Ack,
}

/// TCP metadata carried by a packet: 16 bytes. Segment indices fit `u32`
/// because a transfer is capped at `u32::MAX` segments
/// ([`MAX_TRANSFER_SEGS`](crate::tcp::MAX_TRANSFER_SEGS)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpSegment {
    /// Segment role.
    pub kind: TcpKind,
    /// Identifier of the transfer (connection) within the flow.
    pub transfer: u32,
    /// Data segment index (0-based) for `Data`; echo of the triggering
    /// segment for `Ack`.
    pub seq: u32,
    /// Cumulative acknowledgment: the next segment index expected by the
    /// receiver (valid for `Ack`/`SynAck`).
    pub ack: u32,
    /// True if this is a retransmission (Karn's rule: no RTT sample).
    pub retransmit: bool,
}

/// Forwarding channel assigned to a packet (Figure 2 of the paper). Defense
/// systems set this; queue disciplines may use it for scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ChannelClass {
    /// Regular packets (default).
    Regular,
    /// Request packets (capped, priority-scheduled).
    Request,
    /// Legacy traffic (lowest priority).
    Legacy,
}

/// A defense-specific shim header attached to a packet.
///
/// Implemented by the `netfence-systems` crate for NetFence headers,
/// TVA+ capabilities, etc. The simulator treats it as opaque bytes of
/// length [`Extension::wire_len`].
pub trait Extension: std::fmt::Debug {
    /// Downcast support.
    fn as_any(&self) -> &dyn Any;
    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
    /// Clone into a new boxed extension.
    fn clone_box(&self) -> Box<dyn Extension>;
    /// The number of bytes this header adds to the wire size.
    fn wire_len(&self) -> usize;
}

/// A simulated packet.
#[derive(Debug)]
pub struct Packet {
    /// Unique id (assigned by the engine, used for tracing).
    pub id: u64,
    /// The flow this packet belongs to.
    pub flow: FlowId,
    /// Source host.
    pub src: HostAddr,
    /// Destination host.
    pub dst: HostAddr,
    /// Source AS (filled in by the engine from the topology, so it is
    /// authentic without the Passport MAC the paper uses for that).
    pub src_as: AsNum,
    /// Row of `src` in the network's host table, resolved by the engine
    /// at injection so forwarding never hashes an address ([`NO_ROW`]
    /// until then).
    pub(crate) src_row: u32,
    /// Row of `dst`, resolved with `src_row`; stays [`NO_ROW`] for an
    /// address no host owns, which forwarding drops as no-route.
    pub(crate) dst_row: u32,
    /// Bytes on the wire, including transport/IP headers and any attached
    /// shim headers.
    pub size: usize,
    /// Transport protocol.
    pub protocol: Protocol,
    /// TCP metadata, when `protocol == Tcp`.
    pub tcp: Option<TcpSegment>,
    /// Forwarding channel (set by the defense system; `Regular` for
    /// undefended networks).
    pub channel: ChannelClass,
    /// Request-packet priority level (0 = lowest).
    pub priority: u8,
    /// Time the packet was created at the sending host.
    pub created_at: Nanos,
    /// Defense-specific shim header.
    pub ext: Option<Box<dyn Extension>>,
}

impl Clone for Packet {
    fn clone(&self) -> Self {
        Packet { ext: self.ext.as_ref().map(|e| e.clone_box()), tcp: self.tcp, ..*self }
    }
}

impl Packet {
    /// Create a UDP packet of `size` bytes.
    pub fn udp(flow: FlowId, src: HostAddr, dst: HostAddr, size: usize, now: Nanos) -> Self {
        Packet {
            id: 0,
            flow,
            src,
            dst,
            src_as: 0,
            src_row: NO_ROW,
            dst_row: NO_ROW,
            size,
            protocol: Protocol::Udp,
            tcp: None,
            channel: ChannelClass::Regular,
            priority: 0,
            created_at: now,
            ext: None,
        }
    }

    /// Create a TCP packet with the given segment metadata and wire size.
    pub fn tcp(
        flow: FlowId,
        src: HostAddr,
        dst: HostAddr,
        size: usize,
        seg: TcpSegment,
        now: Nanos,
    ) -> Self {
        Packet { protocol: Protocol::Tcp, tcp: Some(seg), ..Packet::udp(flow, src, dst, size, now) }
    }

    /// Convenience accessor: downcast the extension to a concrete type.
    pub fn ext_as<T: 'static>(&self) -> Option<&T> {
        self.ext.as_ref().and_then(|e| e.as_any().downcast_ref::<T>())
    }

    /// Convenience accessor: mutable downcast of the extension.
    pub fn ext_as_mut<T: 'static>(&mut self) -> Option<&mut T> {
        self.ext.as_mut().and_then(|e| e.as_any_mut().downcast_mut::<T>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Tag(u32);
    impl Extension for Tag {
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
        fn clone_box(&self) -> Box<dyn Extension> {
            Box::new(self.clone())
        }
        fn wire_len(&self) -> usize {
            4
        }
    }

    #[test]
    fn udp_constructor_defaults() {
        let p = Packet::udp(3, 10, 20, 1500, 99);
        assert_eq!(p.protocol, Protocol::Udp);
        assert_eq!(p.channel, ChannelClass::Regular);
        assert_eq!(p.size, 1500);
        assert!(p.tcp.is_none());
        assert!(p.ext.is_none());
    }

    #[test]
    fn tcp_constructor_carries_segment() {
        let seg =
            TcpSegment { kind: TcpKind::Data, transfer: 1, seq: 7, ack: 0, retransmit: false };
        let p = Packet::tcp(1, 10, 20, 1540, seg, 0);
        assert_eq!(p.protocol, Protocol::Tcp);
        assert_eq!(p.tcp.unwrap().seq, 7);
    }

    #[test]
    fn extension_roundtrip_and_clone() {
        let mut p = Packet::udp(0, 1, 2, 100, 0);
        p.ext = Some(Box::new(Tag(42)));
        assert_eq!(p.ext_as::<Tag>(), Some(&Tag(42)));
        p.ext_as_mut::<Tag>().unwrap().0 = 43;
        let q = p.clone();
        assert_eq!(q.ext_as::<Tag>(), Some(&Tag(43)));
        assert_eq!(q.ext.as_ref().unwrap().wire_len(), 4);
        // Downcast to the wrong type yields None.
        assert!(q.ext_as::<u64>().is_none());
    }

    #[test]
    fn channel_ordering() {
        assert!(ChannelClass::Regular < ChannelClass::Request);
        assert!(ChannelClass::Request < ChannelClass::Legacy);
    }
}
