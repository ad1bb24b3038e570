//! The stateful attack agent: a [`Flow`] that retunes an inner UDP sender
//! from control timers driven by the simulation clock.

use netfence_sim::flow::{Flow, FlowActions, FlowProgress};
use netfence_sim::packet::{FlowId, HostAddr, Packet};
use netfence_sim::rng::SimRng;
use netfence_sim::time::Nanos;
use netfence_sim::udp::{UdpFlow, UdpPattern};

use crate::ctx::StrategyCtx;
use crate::strategy::AttackStrategy;

/// Control-timer token space. The inner [`UdpFlow`] uses small tokens
/// (send/echo); everything at or above this value belongs to the agent.
const TOKEN_CTRL: u64 = 1_000;

/// Staircase steps of a flash-mimic ramp.
const FLASH_STEPS: u64 = 8;

/// One probing candidate: a load the [`AttackStrategy::Probe`] agent tries
/// for an epoch before committing to the most effective one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProbeMode {
    /// Plain constant flood at the victim — wins when no closed loop
    /// engages (or only stateless fair queuing does).
    FloodVictim,
    /// Constant flood at the paired colluding receiver — NetFence's worst
    /// case: the colluder keeps echoing feedback, so only congestion
    /// policing limits the flow.
    FloodColluder,
    /// On-off churn at the victim, paced by the AIMD interval — exercises
    /// TTL'd filter stores (StopIt) that must re-install state after every
    /// quiet period.
    ChurnVictim,
}

/// Where a flash-mimic surge currently is in its cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlashStage {
    /// Waiting out the per-agent start jitter.
    Jitter,
    /// Step `k` of the ramp up.
    RampUp(u64),
    /// Holding at the peak.
    Hold,
    /// Step `k` of the ramp down.
    RampDown(u64),
    /// Resting at the trough rate.
    Trough,
}

/// The strategy-specific agent state.
#[derive(Debug)]
enum Plan {
    /// Walk the target ring every `dwell`.
    Rolling { dwell: Nanos, pos: usize },
    /// Try each candidate for `epoch`, then commit to the best.
    Probe {
        epoch: Nanos,
        candidates: Vec<ProbeMode>,
        phase: usize,
        scores: Vec<u64>,
        /// Delivered-bytes watermark at the start of the current epoch.
        mark: u64,
    },
    /// Ramp → hold → decay → trough, repeating.
    Flash { peak_bps: u64, ramp: Nanos, hold: Nanos, stage: FlashStage },
}

/// An adaptive attacker: wraps an inner [`UdpFlow`] and retunes its rate,
/// duty cycle and destination from control timers, per the chosen
/// [`AttackStrategy`] (built by [`AttackStrategy::build_flow`]). All
/// randomness comes from the agent's own [`SimRng`] stream seeded via
/// [`StrategyCtx::seed`].
#[derive(Debug)]
pub struct AdversaryFlow {
    inner: UdpFlow,
    plan: Plan,
    rng: SimRng,
    ctx: StrategyCtx,
    /// Nominal per-attacker rate (burst rate for pulsed strategies).
    rate_bps: u64,
}

impl AttackStrategy {
    /// Instantiate the flow of one attacker: `src` floods `dst` (the
    /// scenario's resolved target for this member) under this strategy.
    /// `Static` and `Shrew` are a bare [`UdpFlow`]; the adaptive strategies
    /// wrap one in an [`AdversaryFlow`] agent built from `ctx`, which is
    /// only asked for when the strategy reads it.
    pub fn build_flow(
        &self,
        id: FlowId,
        src: HostAddr,
        dst: HostAddr,
        ctx: impl FnOnce() -> StrategyCtx,
    ) -> Box<dyn Flow> {
        let (inner, plan, rate_bps, ctx) = match *self {
            AttackStrategy::Static { rate_bps } => {
                return Box::new(UdpFlow::cbr(id, src, dst, rate_bps));
            }
            AttackStrategy::Shrew { rate_bps, timing } => {
                let (on, off) = timing.resolve(|| ctx().aimd_interval);
                let pattern = UdpPattern::OnOff { on, off };
                return Box::new(UdpFlow::new(id, src, dst, rate_bps, pattern));
            }
            AttackStrategy::Rolling { rate_bps, dwell } => {
                let ctx = ctx();
                let plan = Plan::Rolling { dwell: dwell.max(1), pos: ctx.ring_position(dst) };
                (UdpFlow::cbr(id, src, dst, rate_bps), plan, rate_bps, ctx)
            }
            AttackStrategy::Probe { rate_bps, epoch } => {
                let ctx = ctx();
                let mut candidates = vec![ProbeMode::FloodVictim];
                if ctx.colluder.is_some() {
                    candidates.push(ProbeMode::FloodColluder);
                }
                candidates.push(ProbeMode::ChurnVictim);
                let scores = vec![0; candidates.len()];
                let plan =
                    Plan::Probe { epoch: epoch.max(1), candidates, phase: 0, scores, mark: 0 };
                (UdpFlow::cbr(id, src, ctx.victim, rate_bps), plan, rate_bps, ctx)
            }
            AttackStrategy::FlashMimic { peak_bps, ramp, hold } => {
                let peak_bps = peak_bps.max(FLASH_STEPS);
                let plan = Plan::Flash {
                    peak_bps,
                    ramp: ramp.max(FLASH_STEPS),
                    hold: hold.max(1),
                    stage: FlashStage::Jitter,
                };
                (UdpFlow::cbr(id, src, dst, trough_rate(peak_bps)), plan, peak_bps, ctx())
            }
        };
        Box::new(AdversaryFlow { inner, plan, rng: SimRng::new(ctx.seed), ctx, rate_bps })
    }
}

impl AdversaryFlow {
    /// Retune the inner flow to one probing candidate.
    fn apply_probe_mode(&mut self, now: Nanos, mode: ProbeMode) {
        let rate = self.rate_bps;
        match mode {
            ProbeMode::FloodVictim => {
                self.inner.set_dst(self.ctx.victim);
                self.inner.set_pattern(now, UdpPattern::Constant);
                self.inner.set_rate_bps(rate);
            }
            ProbeMode::FloodColluder => {
                let colluder = self.ctx.colluder.unwrap_or(self.ctx.victim);
                self.inner.set_dst(colluder);
                self.inner.set_pattern(now, UdpPattern::Constant);
                self.inner.set_rate_bps(rate);
            }
            ProbeMode::ChurnVictim => {
                let ilim = self.ctx.aimd_interval.max(2);
                self.inner.set_dst(self.ctx.victim);
                self.inner.set_pattern(now, UdpPattern::OnOff { on: ilim / 2, off: 2 * ilim });
                self.inner.set_rate_bps(rate);
            }
        }
    }

    /// Handle one control tick; returns the follow-up timer, if any.
    fn control_tick(&mut self, now: Nanos) -> Option<Nanos> {
        match &mut self.plan {
            Plan::Rolling { dwell, pos } => {
                *pos = (*pos + 1) % self.ctx.ring.len();
                let next = self.ctx.ring[*pos];
                let again = now.saturating_add(*dwell);
                self.inner.set_dst(next);
                Some(again)
            }
            Plan::Probe { epoch, candidates, phase, scores, mark } => {
                let delivered = self.inner.progress().delivered_bytes;
                scores[*phase] = delivered.saturating_sub(*mark);
                *mark = delivered;
                *phase += 1;
                if *phase < candidates.len() {
                    let (mode, epoch) = (candidates[*phase], *epoch);
                    self.apply_probe_mode(now, mode);
                    Some(now.saturating_add(epoch))
                } else {
                    // Commit: the candidate that pushed the most attacker
                    // bytes through is the one this defense handles worst.
                    // Ties break toward the earliest candidate, so the
                    // decision is deterministic.
                    let best = scores
                        .iter()
                        .enumerate()
                        .max_by(|(ia, a), (ib, b)| a.cmp(b).then(ib.cmp(ia)))
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    let mode = candidates[best];
                    self.apply_probe_mode(now, mode);
                    None
                }
            }
            Plan::Flash { peak_bps, ramp, hold, stage } => {
                let step = (*ramp / FLASH_STEPS).max(1);
                let (rate, next_stage, delay) = match *stage {
                    FlashStage::Jitter | FlashStage::Trough => {
                        (*peak_bps / FLASH_STEPS, FlashStage::RampUp(1), step)
                    }
                    FlashStage::RampUp(k) if k < FLASH_STEPS => {
                        (*peak_bps * (k + 1) / FLASH_STEPS, FlashStage::RampUp(k + 1), step)
                    }
                    FlashStage::RampUp(_) => (*peak_bps, FlashStage::Hold, *hold),
                    FlashStage::Hold => {
                        (*peak_bps * (FLASH_STEPS - 1) / FLASH_STEPS, FlashStage::RampDown(1), step)
                    }
                    FlashStage::RampDown(k) if k < FLASH_STEPS - 1 => (
                        *peak_bps * (FLASH_STEPS - 1 - k) / FLASH_STEPS,
                        FlashStage::RampDown(k + 1),
                        step,
                    ),
                    FlashStage::RampDown(_) => (trough_rate(*peak_bps), FlashStage::Trough, *hold),
                };
                *stage = next_stage;
                self.inner.set_rate_bps(rate);
                Some(now.saturating_add(delay))
            }
        }
    }
}

/// The resting rate between flash surges.
fn trough_rate(peak_bps: u64) -> u64 {
    (peak_bps / 16).max(1)
}

impl Flow for AdversaryFlow {
    fn start(&mut self, now: Nanos, out: &mut FlowActions) {
        self.inner.start(now, out);
        match &self.plan {
            Plan::Rolling { dwell, .. } => {
                out.timers.push((now.saturating_add(*dwell), TOKEN_CTRL));
            }
            Plan::Probe { epoch, candidates, .. } => {
                let (mode, epoch) = (candidates[0], *epoch);
                self.apply_probe_mode(now, mode);
                out.timers.push((now.saturating_add(epoch), TOKEN_CTRL));
            }
            Plan::Flash { ramp, .. } => {
                // Per-agent start jitter from the dedicated RNG stream:
                // real flash crowds do not surge in lockstep.
                let jitter = self.rng.uniform_time(0, (*ramp / 4).max(1));
                out.timers.push((now + jitter, TOKEN_CTRL));
            }
        }
    }

    fn on_packet(&mut self, now: Nanos, pkt: &Packet, at_host: HostAddr, out: &mut FlowActions) {
        self.inner.on_packet(now, pkt, at_host, out)
    }

    fn on_timer(&mut self, now: Nanos, token: u64, out: &mut FlowActions) {
        if token >= TOKEN_CTRL {
            if let Some(at) = self.control_tick(now) {
                out.timers.push((at, TOKEN_CTRL));
            }
        } else {
            self.inner.on_timer(now, token, out)
        }
    }

    fn progress(&self) -> &FlowProgress {
        self.inner.progress()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfence_sim::time::SEC;

    /// Drive an agent's own timers without a network, recording every
    /// packet it emits from `src` as `(time, dst, size)` and, optionally,
    /// looping each packet straight back to its destination ("ideal
    /// delivery").
    fn drive(
        f: &mut dyn Flow,
        src: HostAddr,
        until: Nanos,
        deliver: bool,
    ) -> Vec<(Nanos, HostAddr, usize)> {
        let mut timers = FlowActions::of(|a| f.start(0, a)).timers;
        let mut sent = Vec::new();
        while let Some(pos) = timers.iter().enumerate().min_by_key(|(_, (t, _))| *t).map(|(i, _)| i)
        {
            let (now, tok) = timers.remove(pos);
            if now > until {
                break;
            }
            let acts = FlowActions::of(|a| f.on_timer(now, tok, a));
            for pkt in &acts.packets {
                // Record only forward packets; the receiver-side feedback
                // echo travels dst→src and is not attack traffic.
                if pkt.src != src {
                    continue;
                }
                sent.push((now, pkt.dst, pkt.size));
                if deliver {
                    let echo = FlowActions::of(|a| f.on_packet(now, pkt, pkt.dst, a));
                    timers.extend(echo.timers);
                }
            }
            timers.extend(acts.timers);
        }
        sent
    }

    fn ctx(seed: u64) -> StrategyCtx {
        let mut c = StrategyCtx::for_victim(seed, 100);
        c.colluder = Some(200);
        c.ring = vec![100, 300, 400];
        c
    }

    #[test]
    fn shrew_tuned_pulses_once_per_aimd_interval() {
        let mut agent = AttackStrategy::shrew_tuned(1_000_000).build_flow(0, 1, 100, || {
            let mut c = ctx(7);
            c.aimd_interval = 2 * SEC;
            c
        });
        let sent = drive(agent.as_mut(), 1, 10 * SEC, false);
        assert!(!sent.is_empty());
        // Every packet lands in the first quarter of a 2 s cycle.
        for (at, _, _) in &sent {
            assert!(at % (2 * SEC) < SEC / 2, "packet outside the tuned burst at {at}");
        }
    }

    #[test]
    fn rolling_walks_the_target_ring() {
        let strategy = AttackStrategy::Rolling { rate_bps: 1_000_000, dwell: SEC };
        let mut agent = strategy.build_flow(0, 1, 100, || ctx(7));
        let sent = drive(agent.as_mut(), 1, (3 * SEC) + SEC / 2, false);
        let dsts: Vec<HostAddr> = sent.iter().map(|&(_, d, _)| d).collect();
        // First second at the spawn target, then one ring hop per dwell,
        // wrapping back to the start.
        assert!(dsts.contains(&100) && dsts.contains(&300) && dsts.contains(&400));
        let last = sent.last().unwrap();
        assert_eq!(last.1, 100, "the ring wraps around");
    }

    #[test]
    fn probe_commits_to_the_highest_scoring_candidate() {
        let strategy = AttackStrategy::Probe { rate_bps: 1_000_000, epoch: SEC };
        let mut agent = strategy.build_flow(0, 1, 100, || ctx(7));
        // Ideal delivery: every candidate scores, the plain victim flood
        // delivers the most (churn idles 80% of the time), so the agent
        // commits to flooding the victim.
        let sent = drive(agent.as_mut(), 1, 20 * SEC, true);
        let tail: Vec<&(Nanos, HostAddr, usize)> =
            sent.iter().filter(|&&(at, _, _)| at > 10 * SEC).collect();
        assert!(!tail.is_empty());
        assert!(tail.iter().all(|&&(_, d, _)| d == 100), "committed to the victim flood");
        // During probing the colluder was tried too.
        assert!(sent.iter().any(|&(_, d, _)| d == 200));
    }

    #[test]
    fn flash_mimic_ramps_to_peak_and_decays() {
        let strategy = AttackStrategy::FlashMimic { peak_bps: 8_000_000, ramp: 2 * SEC, hold: SEC };
        let mut agent = strategy.build_flow(0, 1, 100, || ctx(7));
        let sent = drive(agent.as_mut(), 1, 8 * SEC, false);
        // Bucket packet counts per half second: the surge makes some
        // buckets far denser than the trough ones.
        let mut buckets = [0u32; 16];
        for &(at, _, _) in &sent {
            buckets[(at / (SEC / 2)).min(15) as usize] += 1;
        }
        let max = *buckets.iter().max().unwrap();
        let min = *buckets.iter().min().unwrap();
        assert!(max >= 8 * min.max(1), "no surge shape: buckets {buckets:?}");
    }

    #[test]
    fn flash_jitter_comes_from_the_dedicated_stream() {
        let strategy = AttackStrategy::FlashMimic { peak_bps: 8_000_000, ramp: 4 * SEC, hold: SEC };
        let a = FlowActions::of(|a| strategy.build_flow(0, 1, 100, || ctx(1)).start(0, a)).timers;
        let b = FlowActions::of(|a| strategy.build_flow(0, 1, 100, || ctx(2)).start(0, a)).timers;
        let c = FlowActions::of(|a| strategy.build_flow(0, 1, 100, || ctx(1)).start(0, a)).timers;
        let ctrl = |ts: &Vec<(Nanos, u64)>| {
            ts.iter().find(|(_, tok)| *tok >= TOKEN_CTRL).map(|&(at, _)| at).unwrap()
        };
        assert_eq!(ctrl(&a), ctrl(&c), "same seed, same jitter");
        assert_ne!(ctrl(&a), ctrl(&b), "different seeds jitter differently");
    }
}
