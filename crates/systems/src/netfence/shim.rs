//! The sender/receiver shim of one NetFence host (§3.1).

use std::sync::Arc;

use netfence_core::config::Config;
use netfence_core::endpoint::{ReceiverShim, SenderShim};
use netfence_core::header::PacketKind;
use netfence_core::types::HostId;
use netfence_sim::control::ControlPlane;
use netfence_sim::deploy::HostShim;
use netfence_sim::packet::{ChannelClass, Extension, Packet, Protocol};
use netfence_sim::time::Nanos;

use crate::headers::NetFenceExt;

/// The sender/receiver shim of one NetFence host.
#[derive(Debug)]
pub struct NetFenceHostShim {
    pub(super) cfg: Arc<Config>,
    pub(super) sender: SenderShim,
    pub(super) receiver: ReceiverShim,
    pub(super) priority_override: Option<u8>,
}

impl HostShim for NetFenceHostShim {
    fn on_send(&mut self, now: Nanos, pkt: &mut Packet, _ctl: &mut ControlPlane) {
        let proto = match pkt.protocol {
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
        };
        let echo = self.receiver.echo_for(HostId(pkt.dst));
        let mut header = self.sender.make_header(now, HostId(pkt.dst), proto, echo, &self.cfg);
        if header.kind == PacketKind::Request {
            if let Some(level) = self.priority_override {
                header.priority = level;
            }
            pkt.channel = ChannelClass::Request;
        } else {
            pkt.channel = ChannelClass::Regular;
        }
        pkt.priority = header.priority;
        let ext = NetFenceExt::new(header);
        pkt.size += ext.wire_len();
        pkt.ext = Some(Box::new(ext));
    }

    fn on_receive(&mut self, _now: Nanos, pkt: &Packet, _ctl: &mut ControlPlane) {
        let Some(ext) = pkt.ext_as::<NetFenceExt>() else {
            return;
        };
        self.receiver.packet_received(HostId(pkt.src), ext.header.presented);
        if let Some(echo) = ext.header.echoed {
            self.sender.feedback_returned(HostId(pkt.src), echo);
        }
    }
}
