//! UDP traffic agents: constant-bit-rate senders, synchronized on-off
//! senders (the microscopic on-off attack of §5.2.1 / Figure 11), and the
//! low-rate receiver→sender feedback echo required by one-way transports
//! (§3.1 step 4).

use crate::flow::{Flow, FlowActions, FlowProgress};
use crate::packet::{FlowId, HostAddr, Packet};
use crate::time::{transmission_time, Nanos, MILLI};

/// Sending pattern of a UDP flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UdpPattern {
    /// Constant bit rate for the whole simulation.
    Constant,
    /// Synchronized on-off: send at the configured rate for `on`, stay
    /// silent for `off`, repeat. All flows created with the same pattern and
    /// start time burst in lockstep — the worst case for the defense. With
    /// no off time (`off == 0`, whatever `on` is) the flow is constant; with
    /// no on time and some off time it never sends.
    OnOff {
        /// Length of the on-period.
        on: Nanos,
        /// Length of the off-period.
        off: Nanos,
    },
}

/// Datagram size, bytes: every data packet is full-size.
pub const PKT_SIZE: usize = 1500;
/// Interval between two receiver feedback-echo packets (§3.1 step 4: a
/// low-rate return channel for one-way transports).
pub const ECHO_INTERVAL: Nanos = 200 * MILLI;
/// Size of a feedback-echo packet, bytes (§4.6's 92 B request packet).
pub const ECHO_SIZE: usize = 92;

const TOKEN_SEND: u64 = 1;
const TOKEN_ECHO: u64 = 2;

/// A one-way UDP flow with an optional on-off duty cycle, plus the
/// receiver-side low-rate feedback echo.
#[derive(Debug)]
pub struct UdpFlow {
    id: FlowId,
    src: HostAddr,
    dst: HostAddr,
    /// Time between two datagrams at the sending rate of an on-period.
    send_interval: Nanos,
    pattern: UdpPattern,
    started_at: Nanos,
    received_since_echo: bool,
    echo_armed: bool,
    progress: FlowProgress,
}

impl UdpFlow {
    /// Create a constant-bit-rate flow.
    pub fn cbr(id: FlowId, src: HostAddr, dst: HostAddr, rate_bps: u64) -> Self {
        Self::new(id, src, dst, rate_bps, UdpPattern::Constant)
    }

    /// Create a UDP flow with an explicit pattern.
    pub fn new(
        id: FlowId,
        src: HostAddr,
        dst: HostAddr,
        rate_bps: u64,
        pattern: UdpPattern,
    ) -> Self {
        UdpFlow {
            id,
            src,
            dst,
            send_interval: transmission_time(PKT_SIZE, rate_bps.max(1)),
            pattern,
            started_at: 0,
            received_since_echo: false,
            echo_armed: false,
            progress: FlowProgress::default(),
        }
    }

    /// Retune the sending rate. Takes effect at the next send timer; a
    /// flow retuned to the same rate behaves exactly as if never touched.
    pub fn set_rate_bps(&mut self, bps: u64) {
        self.send_interval = transmission_time(PKT_SIZE, bps.max(1));
    }

    /// Replace the duty-cycle pattern, rebasing its phase so the new cycle
    /// begins at `now` (adaptive senders switch patterns mid-run; the phase
    /// of the old pattern must not leak into the new one).
    pub fn set_pattern(&mut self, now: Nanos, pattern: UdpPattern) {
        self.pattern = pattern;
        self.started_at = now;
    }

    /// Redirect the flow at a new destination. Packets already in flight
    /// still count as delivered where they were addressed; the feedback
    /// echo follows the new destination.
    pub fn set_dst(&mut self, dst: HostAddr) {
        self.dst = dst;
    }

    /// Whether the flow is inside an on-period at `now`, and if not, when
    /// the next on-period starts.
    fn on_phase(&self, now: Nanos) -> Result<(), Nanos> {
        match self.pattern {
            UdpPattern::Constant => Ok(()),
            // No off time is a constant sender (and keeps `cycle` nonzero).
            UdpPattern::OnOff { off: 0, .. } => Ok(()),
            UdpPattern::OnOff { on, off } => {
                let cycle = on.saturating_add(off);
                let pos = (now.saturating_sub(self.started_at)) % cycle;
                if pos < on {
                    Ok(())
                } else {
                    Err(now.saturating_add(cycle - pos))
                }
            }
        }
    }
}

impl Flow for UdpFlow {
    fn start(&mut self, now: Nanos, out: &mut FlowActions) {
        self.started_at = now;
        self.progress.started_transfers = 1;
        out.timers.push((now, TOKEN_SEND));
    }

    fn on_packet(&mut self, now: Nanos, pkt: &Packet, at_host: HostAddr, out: &mut FlowActions) {
        // Count any packet this sender emitted that reached its own
        // destination — `pkt.dst`, not `self.dst`, so a flow redirected by
        // `set_dst` still credits in-flight packets to the old target.
        if pkt.src == self.src && at_host == pkt.dst {
            // Receiver side: count goodput and drive the echo timer.
            self.progress.delivered_bytes += pkt.size as u64;
            self.received_since_echo = true;
            if !self.echo_armed {
                self.echo_armed = true;
                out.timers.push((now + ECHO_INTERVAL, TOKEN_ECHO));
            }
        }
    }

    fn on_timer(&mut self, now: Nanos, token: u64, out: &mut FlowActions) {
        match token {
            TOKEN_SEND => match self.on_phase(now) {
                Ok(()) => {
                    out.packets.push(Packet::udp(self.id, self.src, self.dst, PKT_SIZE, now));
                    self.progress.packets_sent += 1;
                    out.timers.push((now + self.send_interval, TOKEN_SEND));
                }
                Err(next_on) => {
                    out.timers.push((next_on, TOKEN_SEND));
                }
            },
            TOKEN_ECHO => {
                if self.received_since_echo {
                    // A small reverse-direction packet that lets the defense
                    // shim piggyback returned feedback for one-way traffic.
                    out.packets.push(Packet::udp(self.id, self.dst, self.src, ECHO_SIZE, now));
                    self.received_since_echo = false;
                }
                out.timers.push((now + ECHO_INTERVAL, TOKEN_ECHO));
            }
            _ => {}
        }
    }

    fn progress(&self) -> &FlowProgress {
        &self.progress
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SEC;

    fn drain(f: &mut UdpFlow, until: Nanos) -> (u64, Vec<Nanos>) {
        // Run the flow's own timers without any network.
        let mut timers = FlowActions::of(|a| f.start(0, a)).timers;
        let mut sent = 0;
        let mut times = Vec::new();
        while let Some(pos) = timers.iter().enumerate().min_by_key(|(_, (t, _))| *t).map(|(i, _)| i)
        {
            let (now, tok) = timers.remove(pos);
            if now > until {
                break;
            }
            let acts = FlowActions::of(|a| f.on_timer(now, tok, a));
            sent += acts.packets.len() as u64;
            if !acts.packets.is_empty() {
                times.push(now);
            }
            timers.extend(acts.timers);
        }
        (sent, times)
    }

    #[test]
    fn cbr_rate_is_accurate() {
        // 1 Mbps with 1500 B packets => one packet every 12 ms => ~83/s.
        let mut f = UdpFlow::cbr(0, 1, 2, 1_000_000);
        let (sent, _) = drain(&mut f, SEC);
        assert!((80..=90).contains(&sent), "sent {sent}");
        assert_eq!(f.progress().packets_sent, sent);
    }

    #[test]
    fn onoff_pattern_respects_duty_cycle() {
        // Ton = 0.5 s, Toff = 1.5 s at 1 Mbps: over 4 s there are two full
        // on-periods => ~2 × 42 packets, and no packet is timestamped inside
        // an off-period.
        let mut f = UdpFlow::new(
            0,
            1,
            2,
            1_000_000,
            UdpPattern::OnOff { on: 500 * MILLI, off: 1500 * MILLI },
        );
        let (sent, times) = drain(&mut f, 4 * SEC);
        assert!((75..=95).contains(&sent), "sent {sent}");
        for t in times {
            let pos = t % (2 * SEC);
            assert!(pos < 500 * MILLI, "packet sent during off-period at {t}");
        }
    }

    #[test]
    fn degenerate_onoff_patterns_neither_panic_nor_overflow() {
        let flow = |on, off| UdpFlow::new(0, 1, 2, 1_000_000, UdpPattern::OnOff { on, off });
        // No off time — whatever the on time — sends like a CBR flow.
        let (cbr, _) = drain(&mut UdpFlow::cbr(0, 1, 2, 1_000_000), SEC);
        for on in [0, SEC, Nanos::MAX] {
            assert_eq!(drain(&mut flow(on, 0), SEC).0, cbr, "on = {on}");
        }
        // No on time never sends, and wakes once per off-period.
        assert_eq!(drain(&mut flow(0, 100 * MILLI), SEC).0, 0);
        // A period that overflows `Nanos` saturates: on for all of time.
        assert_eq!(drain(&mut flow(Nanos::MAX, Nanos::MAX), SEC).0, cbr);
        // An off-period that never ends parks the next wake at the end of
        // time instead of wrapping it into the past.
        let f = flow(MILLI, Nanos::MAX);
        assert_eq!(f.on_phase(SEC), Err(Nanos::MAX));
    }

    #[test]
    fn retune_hooks_change_rate_pattern_and_destination() {
        let mut f = UdpFlow::cbr(0, 1, 2, 1_000_000);
        f.start(0, &mut FlowActions::default());
        // Double the rate: the send interval halves.
        let before = f.send_interval;
        f.set_rate_bps(2_000_000);
        assert_eq!(f.send_interval, before / 2);
        // Switch to on-off mid-run: the phase rebases at the switch
        // instant, so the first on-period starts immediately.
        f.set_pattern(10 * SEC, UdpPattern::OnOff { on: SEC, off: SEC });
        assert!(f.on_phase(10 * SEC + 500 * MILLI).is_ok());
        assert!(f.on_phase(10 * SEC + 1500 * MILLI).is_err());
        // Redirect: new packets go to the new destination, and a packet
        // already in flight to the old one still counts as delivered.
        f.set_dst(5);
        let acts = FlowActions::of(|a| f.on_timer(10 * SEC, TOKEN_SEND, a));
        assert_eq!(acts.packets[0].dst, 5);
        let stale = Packet::udp(0, 1, 2, 1500, 10 * SEC);
        f.on_packet(10 * SEC, &stale, 2, &mut FlowActions::default());
        assert_eq!(f.progress().delivered_bytes, 1500);
    }

    #[test]
    fn receiver_echoes_at_low_rate() {
        let mut f = UdpFlow::cbr(0, 1, 2, 1_000_000);
        f.start(0, &mut FlowActions::default());
        // Deliver 100 packets over one second.
        let mut echo_timers = Vec::new();
        for i in 0..100u64 {
            let p = Packet::udp(0, 1, 2, 1500, i * 10 * MILLI);
            echo_timers.extend(FlowActions::of(|a| f.on_packet(i * 10 * MILLI, &p, 2, a)).timers);
        }
        // Only one echo timer was armed despite 100 deliveries.
        assert_eq!(echo_timers.len(), 1);
        let (at, tok) = echo_timers[0];
        let acts = FlowActions::of(|a| f.on_timer(at, tok, a));
        // The echo packet travels from the receiver back to the sender and
        // is small.
        assert_eq!(acts.packets.len(), 1);
        let echo = &acts.packets[0];
        assert_eq!(echo.src, 2);
        assert_eq!(echo.dst, 1);
        assert_eq!(echo.size, 92);
        // Without further deliveries the next echo timer sends nothing.
        let acts2 = FlowActions::of(|a| f.on_timer(at + 200 * MILLI, acts.timers[0].1, a));
        assert!(acts2.packets.is_empty());
        assert_eq!(f.progress().delivered_bytes, 150_000);
    }
}
