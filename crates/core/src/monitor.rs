//! Attack detection, monitoring cycles, and congestion-stamping hysteresis
//! at a bottleneck link (§4.3.1, §4.3.4, Figures 4 and 19).
//!
//! A NetFence router periodically examines each output link. It infers an
//! attack from the link's utilization and/or the regular packets' loss rate
//! (both tracked with EWMAs). When an attack is detected the link enters a
//! *monitoring cycle* (`mon` state): congestion policing feedback is stamped
//! into passing packets and access routers start rate-limiting senders. The
//! cycle ends only after the link has been quiet for a long time `Tb`
//! (hours), which defeats macroscopic on-off attacks.
//!
//! Within a cycle, the router stamps `L↓` whenever the link is *overloaded*,
//! and — crucially for robustness — keeps stamping `L↓` for two extra
//! control intervals after congestion abates (Figure 4). This hysteresis is
//! what makes the access router's AIMD robust: a sender that congested the
//! link in one control interval cannot obtain `L↑` feedback covering the
//! following interval.

use crate::config::Config;
use crate::types::{Bps, Nanos};

/// Utilization/loss measurements and EWMA state for one link direction.
#[derive(Debug, Clone)]
pub struct AttackDetector {
    /// EWMA of the regular-packet loss rate (Figure 19 `drop_rate`).
    ewma_loss: f64,
    /// EWMA of link utilization.
    ewma_util: f64,
    /// Bytes transmitted (dequeued) since the last tick.
    delivered_bytes: u64,
    /// Regular packets dropped since the last tick.
    dropped_pkts: u64,
    /// Regular packets handled (dequeued + dropped) since the last tick.
    total_pkts: u64,
    /// Time of the last tick.
    last_tick: Nanos,
}

impl AttackDetector {
    /// Create a detector; `now` anchors the first measurement interval.
    pub fn new(now: Nanos) -> Self {
        AttackDetector {
            ewma_loss: 0.0,
            ewma_util: 0.0,
            delivered_bytes: 0,
            dropped_pkts: 0,
            total_pkts: 0,
            last_tick: now,
        }
    }

    /// Record a regular packet handled by the link: either transmitted
    /// (`dropped == false`) or discarded by the queue.
    pub fn record(&mut self, bytes: usize, dropped: bool) {
        self.total_pkts += 1;
        if dropped {
            self.dropped_pkts += 1;
        } else {
            self.delivered_bytes += bytes as u64;
        }
    }

    /// Current EWMA loss estimate.
    pub fn loss_rate(&self) -> f64 {
        self.ewma_loss
    }

    /// Current EWMA utilization estimate.
    pub fn utilization(&self) -> f64 {
        self.ewma_util
    }

    /// Fold the measurements since the previous tick into the EWMAs
    /// (Figure 19 `check_packet_loss`) and return whether they indicate an
    /// attack.
    pub fn tick(&mut self, now: Nanos, capacity: Bps, cfg: &Config) -> bool {
        let elapsed = now.saturating_sub(self.last_tick);
        if elapsed == 0 {
            return self.is_attack(cfg);
        }
        let inst_loss = if self.total_pkts > 0 {
            self.dropped_pkts as f64 / self.total_pkts as f64
        } else {
            0.0
        };
        let inst_util = if capacity > 0 {
            (self.delivered_bytes as f64 * 8.0) / (capacity as f64 * elapsed as f64 / 1e9)
        } else {
            0.0
        };
        let w = cfg.detection_ewma;
        self.ewma_loss = self.ewma_loss * (1.0 - w) + inst_loss * w;
        self.ewma_util = self.ewma_util * (1.0 - w) + inst_util.min(1.5) * w;
        self.delivered_bytes = 0;
        self.dropped_pkts = 0;
        self.total_pkts = 0;
        self.last_tick = now;
        self.is_attack(cfg)
    }

    /// Whether the current EWMAs exceed the attack thresholds.
    pub fn is_attack(&self, cfg: &Config) -> bool {
        self.ewma_loss > cfg.loss_threshold || self.ewma_util > cfg.utilization_threshold
    }
}

/// Events produced by [`BottleneckMonitor::tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorEvent {
    /// Nothing changed.
    None,
    /// The link just entered a monitoring cycle.
    CycleStarted,
    /// The monitoring cycle ended (the link was quiet for `Tb`).
    CycleEnded,
}

/// The complete per-link monitoring state machine: attack detection,
/// monitoring cycle lifetime, and `L↓` stamping hysteresis.
#[derive(Debug, Clone)]
pub struct BottleneckMonitor {
    detector: AttackDetector,
    /// When the current monitoring cycle started, if one is active.
    mon_since: Option<Nanos>,
    /// The last time an attack indication was observed.
    last_attack: Nanos,
    /// Stamp `L↓` until this time (congestion time + 2·Ilim hysteresis).
    stamp_decr_until: Nanos,
}

impl BottleneckMonitor {
    /// Create the monitor.
    pub fn new(now: Nanos) -> Self {
        BottleneckMonitor {
            detector: AttackDetector::new(now),
            mon_since: None,
            last_attack: 0,
            stamp_decr_until: 0,
        }
    }

    /// Access the underlying detector for recording packet outcomes.
    pub fn detector_mut(&mut self) -> &mut AttackDetector {
        &mut self.detector
    }

    /// Whether the link is currently in a monitoring cycle (`mon` state).
    pub fn in_mon(&self) -> bool {
        self.mon_since.is_some()
    }

    /// Record that the link is congested *right now* (e.g. RED dropped or
    /// marked a regular packet, or the average queue exceeded `min_thresh`).
    /// Extends the `L↓` stamping hysteresis to `now + 2·Ilim` (§4.3.4,
    /// Figure 4).
    pub fn note_congestion(&mut self, now: Nanos, cfg: &Config) {
        let horizon = now + u64::from(cfg.hysteresis_intervals) * cfg.ilim;
        if horizon > self.stamp_decr_until {
            self.stamp_decr_until = horizon;
        }
        // Congestion is also an attack indication keeping the cycle alive.
        if self.in_mon() {
            self.last_attack = now;
        }
    }

    /// Whether the router should stamp `L↓` into packets dequeued at `now`
    /// (i.e. the link is overloaded or within the hysteresis window).
    pub fn should_stamp_decr(&self, now: Nanos) -> bool {
        self.in_mon() && now <= self.stamp_decr_until
    }

    /// Periodic evaluation (Figure 19): update the EWMAs, start a cycle if
    /// an attack is detected, end it if the link has been quiet for `Tb`.
    pub fn tick(&mut self, now: Nanos, capacity: Bps, cfg: &Config) -> MonitorEvent {
        let attack = self.detector.tick(now, capacity, cfg);
        if attack {
            self.last_attack = now;
            if self.mon_since.is_none() {
                self.mon_since = Some(now);
                // Entering mon because of an attack: the link is overloaded,
                // so start stamping L↓ immediately.
                self.note_congestion(now, cfg);
                return MonitorEvent::CycleStarted;
            }
        } else if self.mon_since.is_some() && now.saturating_sub(self.last_attack) >= cfg.tb {
            self.mon_since = None;
            self.stamp_decr_until = 0;
            return MonitorEvent::CycleEnded;
        }
        MonitorEvent::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::SEC;

    fn cfg() -> Config {
        let mut c = Config::short_timers();
        c.tb = 30 * SEC;
        c
    }

    #[test]
    fn loss_above_threshold_triggers_attack() {
        let cfg = cfg();
        let mut d = AttackDetector::new(0);
        // 10% loss sustained for a few seconds pushes the EWMA over 2%.
        let mut now = 0;
        let mut attack = false;
        for _ in 0..10 {
            now += SEC;
            for i in 0..100 {
                d.record(1500, i % 10 == 0);
            }
            attack = d.tick(now, 10_000_000, &cfg);
        }
        assert!(attack);
        assert!(d.loss_rate() > 0.02);
    }

    #[test]
    fn low_loss_is_not_an_attack() {
        let cfg = cfg();
        let mut d = AttackDetector::new(0);
        let mut now = 0;
        for _ in 0..20 {
            now += SEC;
            for i in 0..1000 {
                d.record(1500, i % 200 == 0); // 0.5% loss
            }
            assert!(!d.tick(now, 1_000_000_000, &cfg));
        }
    }

    #[test]
    fn high_utilization_triggers_attack() {
        let cfg = cfg();
        let mut d = AttackDetector::new(0);
        // 10 Mbps link fully utilized, no losses.
        let mut now = 0;
        let mut attack = false;
        for _ in 0..30 {
            now += SEC;
            for _ in 0..833 {
                d.record(1500, false); // ~10 Mbps
            }
            attack = d.tick(now, 10_000_000, &cfg);
        }
        assert!(attack);
        assert!(d.utilization() > 0.95);
    }

    #[test]
    fn cycle_starts_and_ends() {
        let cfg = cfg();
        let mut m = BottleneckMonitor::new(0);
        // Drive loss for 5 seconds -> cycle starts.
        let mut now = 0;
        let mut started = false;
        for _ in 0..10 {
            now += SEC;
            for i in 0..100 {
                m.detector_mut().record(1500, i % 5 == 0);
            }
            if m.tick(now, 10_000_000, &cfg) == MonitorEvent::CycleStarted {
                started = true;
                break;
            }
        }
        assert!(started);
        assert!(m.in_mon());

        // Quiet traffic: the cycle persists until Tb (30 s here) elapses.
        let quiet_start = now;
        let mut ended_at = None;
        for _ in 0..60 {
            now += SEC;
            for _ in 0..10 {
                m.detector_mut().record(1500, false);
            }
            if m.tick(now, 10_000_000, &cfg) == MonitorEvent::CycleEnded {
                ended_at = Some(now);
                break;
            }
        }
        let ended_at = ended_at.expect("cycle should end after Tb of quiet");
        assert!(ended_at - quiet_start >= cfg.tb);
        assert!(!m.in_mon());
    }

    #[test]
    fn renewed_attack_prolongs_cycle() {
        // Macroscopic on-off attacks: a new attack indication during the
        // quiet period pushes the cycle end out (§5.2.1).
        let cfg = cfg();
        let mut m = BottleneckMonitor::new(0);
        let mut now = 0;
        // Start the cycle.
        while !m.in_mon() {
            now += SEC;
            for i in 0..100 {
                m.detector_mut().record(1500, i % 5 == 0);
            }
            m.tick(now, 10_000_000, &cfg);
        }
        // 20 s quiet (less than Tb = 30 s), then congestion again.
        for _ in 0..20 {
            now += SEC;
            m.tick(now, 10_000_000, &cfg);
        }
        assert!(m.in_mon());
        m.note_congestion(now, &cfg);
        // Another 25 s of quiet: still within Tb of the renewed attack.
        for _ in 0..25 {
            now += SEC;
            m.tick(now, 10_000_000, &cfg);
        }
        assert!(m.in_mon(), "renewed congestion must keep the cycle alive");
    }

    #[test]
    fn hysteresis_lasts_two_control_intervals() {
        let cfg = cfg();
        let mut m = BottleneckMonitor::new(0);
        // Force mon state.
        let mut now = 0;
        while !m.in_mon() {
            now += SEC;
            for i in 0..100 {
                m.detector_mut().record(1500, i % 5 == 0);
            }
            m.tick(now, 10_000_000, &cfg);
        }
        let t1 = now + 10 * SEC;
        m.note_congestion(t1, &cfg);
        // Within 2*Ilim (4 s) of the last congestion: still stamping.
        assert!(m.should_stamp_decr(t1 + 2 * cfg.ilim));
        // Beyond the hysteresis: no longer stamping.
        assert!(!m.should_stamp_decr(t1 + 2 * cfg.ilim + 1));
    }

    #[test]
    fn not_in_mon_never_stamps() {
        let cfg = cfg();
        let mut m = BottleneckMonitor::new(0);
        m.note_congestion(SEC, &cfg);
        assert!(!m.should_stamp_decr(SEC));
    }
}
