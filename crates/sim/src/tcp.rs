//! A simplified TCP Reno agent.
//!
//! The evaluation workloads need a transport that (a) performs a connection
//! handshake whose SYNs behave like NetFence request packets, with the 1 s
//! initial retransmission timeout and nine-retry abort used in §6.3.1,
//! (b) runs slow start / congestion avoidance / fast retransmit / timeouts
//! so that it fills whatever rate limit or fair share it is given, and
//! (c) reports file-transfer completion times and goodput. This module
//! implements exactly that much of TCP — enough for the paper's
//! experiments, not a full RFC 793/5681 stack (no FIN teardown, no SACK, no
//! delayed ACKs, segment-indexed sequence numbers).

use std::collections::BTreeSet;

use netfence_telemetry::IdMap;

use crate::flow::{Flow, FlowActions, FlowProgress};
use crate::packet::{FlowId, HostAddr, Packet, TcpKind, TcpSegment};
use crate::rng::SimRng;
use crate::time::{Nanos, MILLI, SEC};
use crate::webtraffic::{draw_size, draw_think};

/// Application payload bytes carried per data segment.
pub const SEG_PAYLOAD: usize = 1000;
/// TCP/IP header bytes per packet (before any defense shim headers).
pub const TCP_HEADER: usize = 40;
/// Most segments one transfer sends, so that every segment index and
/// cumulative ACK fits [`TcpSegment`]'s `u32`s: 4.3 TB of payload, beyond
/// any horizon the experiments run. A longer transfer is cut to this many
/// segments and completes after the last.
pub const MAX_TRANSFER_SEGS: u32 = u32::MAX;

/// What the TCP flow transfers.
#[derive(Debug, Clone)]
pub enum TcpWorkload {
    /// Repeatedly transfer a fixed-size file (each transfer is a new
    /// connection), waiting `gap` between transfers. Figure 8 uses 20 KB
    /// files.
    RepeatedFile {
        /// File size in bytes.
        bytes: u64,
        /// Pause between the end of one transfer and the start of the next.
        gap: Nanos,
    },
    /// Web-like traffic: sizes from the Pareto/exponential mixture, think
    /// times uniform in 0.1–0.2 s (§6.3.2).
    WebLike,
    /// A single long-running transfer (bulk TCP) that completes only at
    /// [`MAX_TRANSFER_SEGS`], never within an experiment's horizon.
    LongRunning,
}

/// Initial congestion window, segments.
pub const INIT_CWND: f64 = 2.0;
/// Initial slow-start threshold, segments.
pub const INIT_SSTHRESH: f64 = 64.0;
/// Upper bound on the congestion window, segments.
pub const MAX_CWND: f64 = 256.0;
/// Minimum retransmission timeout.
pub const MIN_RTO: Nanos = 200 * MILLI;
/// Initial SYN retransmission timeout, doubled per retry (§6.3.1: 1 s).
pub const SYN_TIMEOUT: Nanos = SEC;
/// SYN retransmissions after which a handshake is abandoned (§6.3.1: 9).
pub const MAX_SYN_RETRIES: u32 = 9;
/// A transfer that has not completed within this time is aborted (§6.3.1:
/// 200 s).
pub const TRANSFER_DEADLINE: Nanos = 200 * SEC;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Between transfers.
    Idle,
    /// SYN sent, waiting for SYN-ACK.
    SynSent,
    /// Transferring data.
    Established,
}

const KIND_SYN: u64 = 1;
const KIND_RTO: u64 = 2;
const KIND_NEXT: u64 = 3;
const KIND_DEADLINE: u64 = 4;

fn token(kind: u64, gen: u64) -> u64 {
    kind << 56 | (gen & 0x00FF_FFFF_FFFF_FFFF)
}
fn token_kind(t: u64) -> u64 {
    t >> 56
}
fn token_gen(t: u64) -> u64 {
    t & 0x00FF_FFFF_FFFF_FFFF
}

/// A TCP flow: one sender host, one receiver host, a sequence of transfers.
#[derive(Debug)]
pub struct TcpFlow {
    id: FlowId,
    src: HostAddr,
    dst: HostAddr,
    workload: TcpWorkload,
    rng: SimRng,

    // --- connection / transfer state (sender side) ---
    state: ConnState,
    transfer_id: u32,
    transfer_start: Nanos,
    file_bytes: u64,
    file_segs: u32,
    snd_una: u32,
    snd_next: u32,
    cwnd: f64,
    ssthresh: f64,
    dupacks: u32,
    srtt: f64,
    rttvar: f64,
    rto: Nanos,
    syn_retries: u32,
    cur_syn_timeout: Nanos,
    syn_sent_at: Nanos,
    send_times: IdMap<u32, (Nanos, bool)>,
    // timer generations for invalidation
    syn_gen: u64,
    rto_gen: u64,
    deadline_gen: u64,

    // --- receiver side ---
    /// The transfer being received (`None` before the first SYN).
    rcv_transfer: Option<u32>,
    rcv_next: u32,
    out_of_order: BTreeSet<u32>,

    // --- stats ---
    progress: FlowProgress,
}

impl TcpFlow {
    /// Create a TCP flow.
    pub fn new(
        id: FlowId,
        src: HostAddr,
        dst: HostAddr,
        workload: TcpWorkload,
        rng: SimRng,
    ) -> Self {
        TcpFlow {
            id,
            src,
            dst,
            workload,
            rng,
            state: ConnState::Idle,
            transfer_id: 0,
            transfer_start: 0,
            file_bytes: 0,
            file_segs: 0,
            snd_una: 0,
            snd_next: 0,
            cwnd: INIT_CWND,
            ssthresh: INIT_SSTHRESH,
            dupacks: 0,
            srtt: 0.0,
            rttvar: 0.0,
            // Until the first RTT sample the RTO is the SYN timeout.
            rto: SYN_TIMEOUT,
            syn_retries: 0,
            cur_syn_timeout: SYN_TIMEOUT,
            syn_sent_at: 0,
            send_times: IdMap::default(),
            syn_gen: 0,
            rto_gen: 0,
            deadline_gen: 0,
            rcv_transfer: None,
            rcv_next: 0,
            out_of_order: BTreeSet::new(),
            progress: FlowProgress::default(),
        }
    }

    fn draw_file_size(&mut self) -> u64 {
        match &self.workload {
            TcpWorkload::RepeatedFile { bytes, .. } => *bytes,
            TcpWorkload::WebLike => draw_size(&mut self.rng),
            TcpWorkload::LongRunning => u64::MAX / 4,
        }
    }

    fn begin_transfer(&mut self, now: Nanos, actions: &mut FlowActions) {
        // Ids are only ever compared for equality, with the segments of the
        // current transfer, so a wrap after 2^32 transfers is harmless.
        self.transfer_id = self.transfer_id.wrapping_add(1);
        self.progress.started_transfers += 1;
        let bytes = self.draw_file_size();
        let segs = bytes.div_ceil(SEG_PAYLOAD as u64).clamp(1, u64::from(MAX_TRANSFER_SEGS));
        // Exact, not truncating: `segs` is clamped to the cap.
        self.file_segs = segs as u32;
        self.file_bytes = bytes.min(segs * SEG_PAYLOAD as u64);
        self.transfer_start = now;
        self.snd_una = 0;
        self.snd_next = 0;
        self.cwnd = INIT_CWND;
        self.ssthresh = INIT_SSTHRESH;
        self.dupacks = 0;
        self.send_times.clear();
        self.syn_retries = 0;
        self.cur_syn_timeout = SYN_TIMEOUT;
        self.state = ConnState::SynSent;
        self.syn_sent_at = now;

        self.send(TcpKind::Syn, 0, false, now, actions);
        self.syn_gen += 1;
        actions.timers.push((now + self.cur_syn_timeout, token(KIND_SYN, self.syn_gen)));
        if !matches!(self.workload, TcpWorkload::LongRunning) {
            self.deadline_gen += 1;
            actions.timers.push((now + TRANSFER_DEADLINE, token(KIND_DEADLINE, self.deadline_gen)));
        }
    }

    /// Emit one sender → receiver segment of the current transfer.
    fn send(
        &mut self,
        kind: TcpKind,
        seq: u32,
        retransmit: bool,
        now: Nanos,
        actions: &mut FlowActions,
    ) {
        let seg = TcpSegment { kind, transfer: self.transfer_id, seq, ack: 0, retransmit };
        let payload = if kind == TcpKind::Data { self.seg_bytes(seq) } else { 0 };
        let size = TCP_HEADER + payload;
        actions.packets.push(Packet::tcp(self.id, self.src, self.dst, size, seg, now));
        self.progress.packets_sent += 1;
    }

    fn seg_bytes(&self, seq: u32) -> usize {
        let remaining = self.file_bytes.saturating_sub(u64::from(seq) * SEG_PAYLOAD as u64);
        (remaining.min(SEG_PAYLOAD as u64) as usize).max(1)
    }

    fn pump_data(&mut self, now: Nanos, actions: &mut FlowActions) {
        let window_end = self.snd_una.saturating_add(self.cwnd as u32).min(self.file_segs);
        let mut burst = 0;
        while self.snd_next < window_end && burst < 128 {
            let seq = self.snd_next;
            self.send(TcpKind::Data, seq, false, now, actions);
            self.send_times.entry(seq).or_insert((now, false));
            self.snd_next += 1;
            burst += 1;
        }
    }

    fn retransmit(&mut self, now: Nanos, seq: u32, actions: &mut FlowActions) {
        self.send(TcpKind::Data, seq, true, now, actions);
        self.send_times.insert(seq, (now, true));
    }

    fn arm_rto(&mut self, now: Nanos, actions: &mut FlowActions) {
        self.rto_gen += 1;
        actions.timers.push((now + self.rto, token(KIND_RTO, self.rto_gen)));
    }

    fn update_rtt(&mut self, sample: Nanos) {
        let s = sample as f64;
        if self.srtt == 0.0 {
            self.srtt = s;
            self.rttvar = s / 2.0;
        } else {
            self.rttvar = 0.75 * self.rttvar + 0.25 * (self.srtt - s).abs();
            self.srtt = 0.875 * self.srtt + 0.125 * s;
        }
        let rto = (self.srtt + 4.0 * self.rttvar) as Nanos;
        self.rto = rto.clamp(MIN_RTO, 60 * SEC);
    }

    fn transfer_complete(&mut self, now: Nanos, actions: &mut FlowActions) {
        self.progress.completions.push((self.transfer_start, now, self.file_bytes));
        self.state = ConnState::Idle;
        // Invalidate outstanding timers.
        self.rto_gen += 1;
        self.syn_gen += 1;
        self.deadline_gen += 1;
        let gap = match &self.workload {
            TcpWorkload::RepeatedFile { gap, .. } => (*gap).max(MILLI),
            TcpWorkload::WebLike => draw_think(&mut self.rng),
            TcpWorkload::LongRunning => return,
        };
        actions.timers.push((now + gap, token(KIND_NEXT, u64::from(self.transfer_id))));
    }

    fn abort_transfer(&mut self, now: Nanos, actions: &mut FlowActions) {
        self.progress.failed_transfers += 1;
        self.state = ConnState::Idle;
        self.rto_gen += 1;
        self.syn_gen += 1;
        self.deadline_gen += 1;
        // Immediately try again (the user retries).
        self.begin_transfer(now, actions)
    }

    // --- sender-side packet handling ---

    fn on_synack(&mut self, now: Nanos, seg: &TcpSegment, actions: &mut FlowActions) {
        if self.state != ConnState::SynSent || seg.transfer != self.transfer_id {
            return;
        }
        self.state = ConnState::Established;
        if self.syn_retries == 0 {
            self.update_rtt(now.saturating_sub(self.syn_sent_at));
        }
        self.pump_data(now, actions);
        self.arm_rto(now, actions);
    }

    fn on_ack(&mut self, now: Nanos, seg: &TcpSegment, actions: &mut FlowActions) {
        if self.state != ConnState::Established || seg.transfer != self.transfer_id {
            return;
        }
        let ack = seg.ack;
        if ack > self.snd_una {
            // RTT sample from the most recently acknowledged segment,
            // following Karn's rule.
            if let Some((sent_at, retx)) = self.send_times.remove(&(ack - 1)) {
                if !retx {
                    self.update_rtt(now.saturating_sub(sent_at));
                }
            }
            for seq in self.snd_una..ack {
                self.send_times.remove(&seq);
            }
            let newly = f64::from(ack - self.snd_una);
            if self.cwnd < self.ssthresh {
                self.cwnd = (self.cwnd + newly).min(MAX_CWND);
            } else {
                self.cwnd = (self.cwnd + newly / self.cwnd).min(MAX_CWND);
            }
            self.snd_una = ack;
            self.dupacks = 0;
            if self.snd_una >= self.file_segs {
                return self.transfer_complete(now, actions);
            }
            self.pump_data(now, actions);
            self.arm_rto(now, actions);
        } else if self.snd_next > self.snd_una {
            self.dupacks += 1;
            if self.dupacks == 3 {
                // Fast retransmit / recovery (Reno, simplified).
                self.ssthresh = (self.cwnd / 2.0).max(2.0);
                self.cwnd = self.ssthresh;
                let seq = self.snd_una;
                self.retransmit(now, seq, actions);
                self.arm_rto(now, actions);
            }
        }
    }

    // --- receiver-side packet handling ---

    fn on_receiver_packet(&mut self, now: Nanos, seg: &TcpSegment, actions: &mut FlowActions) {
        if matches!(seg.kind, TcpKind::SynAck | TcpKind::Ack) {
            return;
        }
        if self.rcv_transfer != Some(seg.transfer) {
            self.rcv_transfer = Some(seg.transfer);
            self.rcv_next = 0;
            self.out_of_order.clear();
        }
        let (kind, seq, ack) = if seg.kind == TcpKind::Syn {
            (TcpKind::SynAck, 0, 0)
        } else {
            if seg.seq == self.rcv_next {
                self.rcv_next += 1;
                // The receiver does not know the exact file size; it
                // credits one full payload per segment, which is accurate
                // except for the last (possibly short) segment — good
                // enough for goodput accounting.
                self.progress.delivered_bytes += SEG_PAYLOAD as u64;
                while self.out_of_order.remove(&self.rcv_next) {
                    self.progress.delivered_bytes += SEG_PAYLOAD as u64;
                    self.rcv_next += 1;
                }
            } else if seg.seq > self.rcv_next {
                self.out_of_order.insert(seg.seq);
            }
            (TcpKind::Ack, seg.seq, self.rcv_next)
        };
        let reply = TcpSegment { kind, transfer: seg.transfer, seq, ack, retransmit: false };
        actions.packets.push(Packet::tcp(self.id, self.dst, self.src, TCP_HEADER, reply, now));
    }
}

impl Flow for TcpFlow {
    fn start(&mut self, now: Nanos, out: &mut FlowActions) {
        self.begin_transfer(now, out)
    }

    fn on_packet(&mut self, now: Nanos, pkt: &Packet, at_host: HostAddr, out: &mut FlowActions) {
        let Some(seg) = pkt.tcp else { return };
        if at_host == self.dst {
            self.on_receiver_packet(now, &seg, out)
        } else if at_host == self.src {
            match seg.kind {
                TcpKind::SynAck => self.on_synack(now, &seg, out),
                TcpKind::Ack => self.on_ack(now, &seg, out),
                _ => {}
            }
        }
    }

    fn on_timer(&mut self, now: Nanos, tok: u64, out: &mut FlowActions) {
        match token_kind(tok) {
            KIND_SYN => {
                if self.state != ConnState::SynSent || token_gen(tok) != self.syn_gen {
                    return;
                }
                self.syn_retries += 1;
                if self.syn_retries > MAX_SYN_RETRIES {
                    return self.abort_transfer(now, out);
                }
                self.send(TcpKind::Syn, 0, true, now, out);
                self.cur_syn_timeout = (self.cur_syn_timeout * 2).min(64 * SEC);
                self.syn_gen += 1;
                out.timers.push((now + self.cur_syn_timeout, token(KIND_SYN, self.syn_gen)));
            }
            KIND_RTO => {
                if self.state != ConnState::Established
                    || token_gen(tok) != self.rto_gen
                    || self.snd_una >= self.snd_next
                {
                    return;
                }
                self.ssthresh = (self.cwnd / 2.0).max(2.0);
                self.cwnd = 1.0;
                self.dupacks = 0;
                self.rto = (self.rto * 2).min(60 * SEC);
                // Go-back-N-ish: resend the oldest unacknowledged segment.
                self.snd_next = self.snd_una + 1;
                let seq = self.snd_una;
                self.retransmit(now, seq, out);
                self.arm_rto(now, out);
            }
            KIND_NEXT => self.begin_transfer(now, out),
            KIND_DEADLINE => {
                if token_gen(tok) != self.deadline_gen || self.state == ConnState::Idle {
                    return;
                }
                self.abort_transfer(now, out)
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

    fn flow(workload: TcpWorkload) -> TcpFlow {
        TcpFlow::new(0, 1, 2, workload, SimRng::new(1))
    }

    /// Drive the flow and a perfect (lossless, fixed-delay) network in
    /// lockstep, returning the time at which the first transfer completed.
    fn run_ideal(mut f: TcpFlow, rtt: Nanos, until: Nanos) -> (TcpFlow, Option<Nanos>) {
        // Very small event loop: (time, either timer token or packet).
        #[derive(Debug)]
        enum Ev {
            Timer(u64),
            Pkt(Packet, HostAddr),
        }
        let mut events: Vec<(Nanos, u64, Ev)> = Vec::new();
        let mut seq = 0u64;
        let push = |events: &mut Vec<(Nanos, u64, Ev)>, t: Nanos, e: Ev, seq: &mut u64| {
            *seq += 1;
            events.push((t, *seq, e));
        };
        let apply = |actions: FlowActions,
                     now: Nanos,
                     events: &mut Vec<(Nanos, u64, Ev)>,
                     seq: &mut u64| {
            for p in actions.packets {
                let arrive_at = if p.src == 1 { 2 } else { 1 };
                push(events, now + rtt / 2, Ev::Pkt(p, arrive_at), seq);
            }
            for (t, tok) in actions.timers {
                push(events, t, Ev::Timer(tok), seq);
            }
        };
        let a0 = FlowActions::of(|a| f.start(0, a));
        apply(a0, 0, &mut events, &mut seq);
        let mut completed_at = None;
        while let Some(idx) = {
            events.sort_by_key(|(t, s, _)| (*t, *s));
            if events.is_empty() || events[0].0 > until {
                None
            } else {
                Some(0)
            }
        } {
            let (now, _, ev) = events.remove(idx);
            let actions = FlowActions::of(|a| match ev {
                Ev::Timer(tok) => f.on_timer(now, tok, a),
                Ev::Pkt(p, at) => f.on_packet(now, &p, at, a),
            });
            apply(actions, now, &mut events, &mut seq);
            if completed_at.is_none() && !f.progress.completions.is_empty() {
                completed_at = Some(f.progress.completions[0].1);
            }
        }
        (f, completed_at)
    }

    #[test]
    fn transfer_completes_on_ideal_network() {
        let f = flow(TcpWorkload::RepeatedFile { bytes: 20_000, gap: 10 * SEC });
        let (f, done) = run_ideal(f, 20 * MILLI, 5 * SEC);
        let done = done.expect("20 kB transfer must complete quickly");
        // 20 segments, cwnd starting at 2 and doubling per RTT: roughly
        // 4-5 RTTs plus the handshake => well under a second.
        assert!(done < SEC, "completed at {done}");
        let p = f.progress();
        assert_eq!(p.failed_transfers, 0);
        assert!(p.delivered_bytes >= 20_000);
        assert!((p.completion_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn repeated_transfers_keep_going() {
        let f = flow(TcpWorkload::RepeatedFile { bytes: 20_000, gap: 100 * MILLI });
        let (f, _) = run_ideal(f, 20 * MILLI, 10 * SEC);
        let p = f.progress();
        assert!(p.completions.len() >= 10, "only {} transfers completed", p.completions.len());
        // Each 20 kB transfer on an ideal network takes a few hundred ms at
        // most including the gap.
        assert!(p.avg_transfer_secs().unwrap() < 1.0);
    }

    #[test]
    fn weblike_transfers_draw_varied_sizes() {
        let f = flow(TcpWorkload::WebLike);
        let (f, _) = run_ideal(f, 20 * MILLI, 20 * SEC);
        let p = f.progress();
        assert!(p.completions.len() >= 20);
        let sizes: BTreeSet<u64> = p.completions.iter().map(|(_, _, b)| *b).collect();
        assert!(sizes.len() > 5, "web-like sizes should vary, got {sizes:?}");
    }

    #[test]
    fn long_running_flow_never_completes_but_delivers() {
        let f = flow(TcpWorkload::LongRunning);
        let (f, _) = run_ideal(f, 20 * MILLI, SEC);
        let p = f.progress();
        assert!(p.completions.is_empty());
        assert!(p.delivered_bytes > 100_000, "delivered {}", p.delivered_bytes);
    }

    #[test]
    fn a_transfer_at_the_segment_cap_stops_cleanly() {
        // A long-running flow put 40 segments below the cap after its
        // handshake, on a lossless in-order wire: its last segment is
        // `MAX_TRANSFER_SEGS - 1`, the final ACK is the cap itself, and the
        // flow completes and goes quiet. No index wraps or truncates.
        let mut f = flow(TcpWorkload::LongRunning);
        let syn = FlowActions::of(|a| f.start(0, a)).packets.remove(0);
        let synack = FlowActions::of(|a| f.on_packet(MILLI, &syn, 2, a)).packets;
        let start = MAX_TRANSFER_SEGS - 40;
        (f.snd_una, f.snd_next, f.rcv_next) = (start, start, start);
        let mut wire: std::collections::VecDeque<Packet> = synack.into();
        let (mut now, mut data_seqs, mut timers) = (2 * MILLI, Vec::new(), Vec::new());
        while let Some(p) = wire.pop_front() {
            let seg = p.tcp.unwrap();
            if seg.kind == TcpKind::Data {
                data_seqs.push(seg.seq);
            }
            let at = if p.src == 1 { 2 } else { 1 };
            let out = FlowActions::of(|a| f.on_packet(now, &p, at, a));
            wire.extend(out.packets);
            timers.extend(out.timers);
            now += MILLI;
            assert!(now < 10 * SEC, "the flow never went quiet");
        }
        assert_eq!(data_seqs, (start..MAX_TRANSFER_SEGS).collect::<Vec<_>>());
        assert_eq!((f.snd_una, f.rcv_next), (MAX_TRANSFER_SEGS, MAX_TRANSFER_SEGS));
        assert_eq!(f.state, ConnState::Idle);
        let max_bytes = u64::from(MAX_TRANSFER_SEGS) * SEG_PAYLOAD as u64;
        assert_eq!(f.progress.completions, [(0, now - MILLI, max_bytes)]);
        // A long-running flow starts no next transfer.
        assert!(timers.iter().all(|&(_, t)| token_kind(t) != KIND_NEXT));
    }

    #[test]
    fn syn_loss_backs_off_and_eventually_aborts() {
        // No network at all: every packet is lost. The flow should retry
        // SYNs with exponential backoff and abort after nine retries, then
        // start a new attempt.
        let mut f = flow(TcpWorkload::RepeatedFile { bytes: 20_000, gap: SEC });
        let mut timers: Vec<(Nanos, u64)> = Vec::new();
        let mut syn_count = 0;
        let a = FlowActions::of(|a| f.start(0, a));
        syn_count += a.packets.len();
        timers.extend(a.timers);
        let mut aborted = false;
        for _ in 0..50 {
            timers.sort_by_key(|(t, _)| *t);
            if timers.is_empty() {
                break;
            }
            let (now, tok) = timers.remove(0);
            if now > 4000 * SEC {
                break;
            }
            let acts = FlowActions::of(|a| f.on_timer(now, tok, a));
            syn_count += acts.packets.len();
            timers.extend(acts.timers);
            if f.progress.failed_transfers > 0 {
                aborted = true;
                break;
            }
        }
        assert!(aborted, "handshake must eventually be abandoned");
        assert!(syn_count > MAX_SYN_RETRIES as usize, "sent {syn_count} SYNs");
    }

    #[test]
    fn data_loss_triggers_fast_retransmit() {
        let mut f = flow(TcpWorkload::RepeatedFile { bytes: 50_000, gap: SEC });
        let mut actions = FlowActions::of(|a| f.start(0, a));
        // Handshake.
        let syn = actions.packets.remove(0);
        let mut acts = FlowActions::of(|a| f.on_packet(MILLI, &syn, 2, a));
        let synack = acts.packets.remove(0);
        let mut acts = FlowActions::of(|a| f.on_packet(2 * MILLI, &synack, 1, a));
        // Grow the window a bit by delivering the first two segments.
        assert!(acts.packets.len() >= 2);
        let first: Vec<Packet> = acts.packets.drain(..).collect();
        let mut now = 3 * MILLI;
        let mut in_flight: Vec<Packet> = Vec::new();
        for p in first {
            let reply = FlowActions::of(|a| f.on_packet(now, &p, 2, a));
            for r in reply.packets {
                let more = FlowActions::of(|a| f.on_packet(now + MILLI, &r, 1, a));
                in_flight.extend(more.packets);
            }
            now += MILLI;
        }
        assert!(in_flight.len() >= 3, "window should have opened, got {}", in_flight.len());
        // Drop the first in-flight segment, deliver the next three: the
        // receiver generates duplicate ACKs and the sender fast-retransmits
        // the missing segment.
        let lost = in_flight.remove(0);
        let lost_seq = lost.tcp.unwrap().seq;
        let mut retransmitted = false;
        for p in in_flight.iter().take(3) {
            let reply = FlowActions::of(|a| f.on_packet(now, p, 2, a));
            for r in reply.packets {
                let out = FlowActions::of(|a| f.on_packet(now + MILLI, &r, 1, a));
                if out
                    .packets
                    .iter()
                    .any(|q| q.tcp.map(|s| s.retransmit && s.seq == lost_seq).unwrap_or(false))
                {
                    retransmitted = true;
                }
            }
            now += MILLI;
        }
        assert!(retransmitted, "3 duplicate ACKs must trigger a fast retransmit of seq {lost_seq}");
    }

    #[test]
    fn rto_fires_when_all_data_lost() {
        let mut f = flow(TcpWorkload::RepeatedFile { bytes: 20_000, gap: SEC });
        let mut actions = FlowActions::of(|a| f.start(0, a));
        let syn = actions.packets.remove(0);
        let mut acts = FlowActions::of(|a| f.on_packet(MILLI, &syn, 2, a));
        let synack = acts.packets.remove(0);
        let acts = FlowActions::of(|a| f.on_packet(2 * MILLI, &synack, 1, a));
        // Discard the data packets (lost); fire the RTO timer.
        let rto_timer = acts.timers.iter().find(|(_, t)| token_kind(*t) == KIND_RTO).copied();
        let (at, tok) = rto_timer.expect("an RTO must be armed when data is sent");
        let before = f.cwnd;
        let out = FlowActions::of(|a| f.on_timer(at, tok, a));
        assert_eq!(f.cwnd, 1.0);
        assert!(f.cwnd < before);
        assert_eq!(out.packets.len(), 1);
        assert!(out.packets[0].tcp.unwrap().retransmit);
    }
}
