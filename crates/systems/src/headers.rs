//! Shim headers attached to simulated packets by the defense systems.
//!
//! Each defense system stores its typed header inside the simulator's
//! type-erased [`Extension`] slot and reads it back through the single
//! typed accessor [`Packet::ext_as`](netfence_sim::packet::Packet::ext_as)
//! / [`Packet::ext_as_mut`](netfence_sim::packet::Packet::ext_as_mut) — no
//! call site spells out the `as_any().downcast_ref()` dance. The extension
//! also reports its wire length so packet sizes reflect the header overhead
//! the paper accounts for (§4.6, §6.1).

use std::any::Any;

use netfence_core::access::LinkSet;
use netfence_core::header::{NetFenceHeader, PASSPORT_HEADER_LEN};
use netfence_sim::packet::Extension;
use netfence_sim::time::Nanos;

/// The NetFence shim header (plus the Passport header length) carried by a
/// packet in a NetFence-defended simulation.
#[derive(Debug, Clone)]
pub struct NetFenceExt {
    /// The typed NetFence header.
    pub header: NetFenceHeader,
    /// The bottleneck links of the per-(sender, bottleneck) rate limiters
    /// holding the packet at its access router (one in the core design, up
    /// to three under Appendix B), each notified when it is released.
    pub queued_for: LinkSet,
}

impl NetFenceExt {
    /// Wrap a header.
    pub fn new(header: NetFenceHeader) -> Self {
        NetFenceExt { header, queued_for: LinkSet::default() }
    }
}

impl Extension for NetFenceExt {
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
        self.header.nominal_len() + PASSPORT_HEADER_LEN
    }
}

/// The TVA+ shim. Since TVA returns capabilities inside reply packets, both
/// variants can piggyback the sender's current grant for the destination
/// (the capability for the *reverse* direction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TvaExt {
    /// A capability request (the sender holds no valid capability).
    Request {
        /// The sender's grant for the destination, piggybacked so the
        /// destination learns the reverse-direction capability.
        grant: Option<Nanos>,
    },
    /// A regular packet carrying the sender's capability.
    Regular {
        /// Expiry of the capability authorizing this packet; routers verify
        /// it is still in the future.
        cap_expiry: Nanos,
        /// Piggybacked reverse-direction grant, as in `Request`.
        grant: Option<Nanos>,
    },
}

impl TvaExt {
    /// The piggybacked reverse-direction grant, if any.
    pub fn grant(&self) -> Option<Nanos> {
        match self {
            TvaExt::Request { grant } | TvaExt::Regular { grant, .. } => *grant,
        }
    }
}

impl Extension for TvaExt {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    fn clone_box(&self) -> Box<dyn Extension> {
        Box::new(*self)
    }
    fn wire_len(&self) -> usize {
        // TVA's capability header is in the same ballpark as NetFence's
        // (the paper's Figure 7 compares against TVA+ with similar sizes).
        match self {
            TvaExt::Request { .. } => 12,
            TvaExt::Regular { .. } => 20,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfence_core::feedback::Feedback;
    use netfence_sim::packet::Packet;

    #[test]
    fn netfence_ext_roundtrips_through_packet() {
        let h = NetFenceHeader::regular(6, Feedback::Nop { ts: 1, token: 2 }, None);
        let mut p = Packet::udp(0, 1, 2, 1500, 0);
        let wire = NetFenceExt::new(h.clone()).wire_len();
        assert_eq!(wire, h.nominal_len() + PASSPORT_HEADER_LEN);
        p.ext = Some(Box::new(NetFenceExt::new(h.clone())));
        let got = p.ext_as::<NetFenceExt>().unwrap();
        assert_eq!(got.header, h);
        let cloned = p.clone();
        assert_eq!(cloned.ext_as::<NetFenceExt>().unwrap().header, h);
    }

    #[test]
    fn tva_ext_sizes_and_grant_accessor() {
        assert_eq!(TvaExt::Request { grant: None }.wire_len(), 12);
        assert_eq!(TvaExt::Regular { cap_expiry: 5, grant: Some(9) }.wire_len(), 20);
        assert_eq!(TvaExt::Request { grant: Some(3) }.grant(), Some(3));
        assert_eq!(TvaExt::Regular { cap_expiry: 5, grant: None }.grant(), None);
    }
}
