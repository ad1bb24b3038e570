//! Figures 13 and 14: the Appendix B multi-bottleneck designs.
//!
//! Figure 13 repeats the Figure 10 experiment with the Appendix B.1 design
//! (every packet carries the feedback of *all* on-path bottlenecks, so the
//! access router polices it with all the corresponding rate limiters);
//! Figure 14 repeats it with the Appendix B.2 design (single feedback plus a
//! per-destination-prefix rate-limiter inference cache).
//!
//! These two figures are reproduced with a control-loop (fluid) model built
//! directly on the `netfence-core` primitives — `AimdState`,
//! `MultiFeedback` policing semantics and `adjust_with_inference` — rather
//! than the packet simulator: the appendix designs change only the
//! access-router control loop, and the fluid model exposes exactly that
//! loop. `DESIGN.md` documents this substitution; Figure 10 (the core
//! design) is run in the full packet simulator for comparison.

use netfence_core::aimd::AimdState;
use netfence_core::config::Config;
use netfence_core::feedback::Action;
use netfence_core::multi::{adjust_with_inference, InferenceFlags};
use netfence_core::types::SEC;

use crate::fig10::{group_a_table, CapacityCase};
use crate::registry::Size;

/// Which multi-bottleneck handling the model runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiBottleneckDesign {
    /// The core design (§4.3.5): a packet carries feedback from only one
    /// bottleneck; idle limiters decay.
    SingleFeedback,
    /// Appendix B.1: multi-bottleneck feedback in one packet.
    MultiFeedback,
    /// Appendix B.2: rate-limiter inference at the access router.
    Inference,
}

/// One result row of Figure 13/14.
#[derive(Debug, Clone)]
pub struct MultiBottleneckPoint {
    /// Which capacity configuration.
    pub case: CapacityCase,
    /// The design evaluated.
    pub design: MultiBottleneckDesign,
    /// Average Group-A legitimate-user throughput (bps).
    pub group_a_user_bps: f64,
    /// Average Group-A attacker throughput (bps).
    pub group_a_attacker_bps: f64,
    /// The Group-A max-min fair share (bps).
    pub fair_share_bps: f64,
}

/// One sender in the fluid model.
struct FluidSender {
    /// Rate limiters per on-path bottleneck, keyed by position (0 = L1,
    /// 1 = L2).
    limiters: Vec<AimdState>,
    /// Which links the sender crosses (subset of {0, 1}).
    crosses: Vec<usize>,
    /// How efficiently the sender uses its allowed rate (ν in the paper's
    /// analysis): ≈1 for UDP attackers, slightly lower for TCP users.
    efficiency: f64,
    /// Whether the sender is a legitimate user.
    is_user: bool,
}

impl FluidSender {
    /// The sending rate permitted by the currently relevant limiter(s).
    fn allowed(&self, design: MultiBottleneckDesign, carried: usize) -> f64 {
        match design {
            // Core design: only the limiter whose feedback the packets carry
            // polices the traffic.
            MultiBottleneckDesign::SingleFeedback => {
                let idx = self.crosses.iter().position(|&l| l == carried).unwrap_or(0);
                self.limiters[idx].rate() as f64
            }
            // B.1 / B.2: every on-path limiter polices the packet; the flow
            // is bounded by the smallest.
            MultiBottleneckDesign::MultiFeedback | MultiBottleneckDesign::Inference => {
                self.limiters.iter().map(|l| l.rate() as f64).fold(f64::MAX, f64::min)
            }
        }
    }

    fn rate(&self, design: MultiBottleneckDesign, carried: usize) -> f64 {
        self.efficiency * self.allowed(design, carried)
    }
}

/// Run the fluid control-loop model for one capacity case and design.
///
/// `per_group` senders form each of the three groups (75% attackers). The
/// model iterates control intervals: it computes each link's offered load,
/// decides which links are congested, applies the feedback rules of the
/// chosen design, and lets every limiter run its AIMD adjustment.
pub fn run_fluid_case(
    case: CapacityCase,
    design: MultiBottleneckDesign,
    per_group: usize,
    intervals: usize,
) -> MultiBottleneckPoint {
    let cfg = Config::default();
    let legit = (per_group / 4).max(1);
    let mk_sender = |crosses: Vec<usize>, is_user: bool| FluidSender {
        limiters: crosses.iter().map(|_| AimdState::new(&cfg, 0)).collect(),
        crosses,
        efficiency: if is_user { 0.95 } else { 1.0 },
        is_user,
    };
    let mut senders: Vec<FluidSender> = Vec::new();
    for g in 0..3 {
        let crosses = match g {
            0 => vec![0, 1], // group A
            1 => vec![1],    // group B
            _ => vec![0],    // group C
        };
        for h in 0..per_group {
            senders.push(mk_sender(crosses.clone(), h < legit));
        }
    }
    let capacities: [f64; 2] = [case.l1_bps as f64, case.l2_bps as f64];

    // `carried[s]` is the bottleneck whose feedback sender s's packets carry
    // under the single-feedback design (the most upstream congested link,
    // per the §4.3.2 rules).
    let mut carried: Vec<usize> = senders.iter().map(|s| s.crosses[0]).collect();

    for step in 0..intervals {
        let now = (step as u64 + 1) * cfg.ilim;
        // Offered load per link.
        let mut load = [0.0f64; 2];
        for (s, sender) in senders.iter().enumerate() {
            let r = sender.rate(design, carried[s]);
            for &l in &sender.crosses {
                load[l] += r;
            }
        }
        let congested = [load[0] > capacities[0], load[1] > capacities[1]];
        // The feedback each link stamps this interval.
        let ts = (now / SEC) as u32;
        let action = |l: usize| if congested[l] { Action::Decr } else { Action::Incr };

        // Feedback distribution + AIMD adjustment per sender.
        for (s, sender) in senders.iter_mut().enumerate() {
            let rate = sender.efficiency
                * sender.limiters.iter().map(|l| l.rate() as f64).fold(f64::MAX, f64::min);
            // With one feedback per packet (the core design and B.2), the
            // most upstream congested on-path link stamps L↓ and owns the
            // packet's feedback; otherwise the packets carry L↑ from the
            // link they were last bound to.
            let first_congested = sender.crosses.iter().copied().find(|&l| congested[l]);
            let owner = first_congested.unwrap_or(carried[s]);
            carried[s] = owner;
            for (lim, &l) in sender.limiters.iter_mut().zip(&sender.crosses) {
                match design {
                    MultiBottleneckDesign::SingleFeedback => {
                        // Limiters for other links see nothing and decay.
                        if l == owner {
                            lim.observe(action(l), ts);
                        }
                        lim.adjust(now, if l == owner { rate } else { 0.0 }, &cfg);
                    }
                    MultiBottleneckDesign::MultiFeedback => {
                        // Every on-path link contributes its own feedback.
                        lim.observe(action(l), ts);
                        lim.adjust(now, rate, &cfg);
                    }
                    MultiBottleneckDesign::Inference => {
                        // The other limiters infer from the one feedback:
                        // L↑ elsewhere means this link was not congested
                        // either; L↓ elsewhere means hold.
                        let flags = if l == owner {
                            lim.observe(action(l), ts);
                            InferenceFlags { is_active: true, ..Default::default() }
                        } else if congested[owner] {
                            InferenceFlags { is_active_star: true, ..Default::default() }
                        } else {
                            InferenceFlags { has_incr_star: true, ..Default::default() }
                        };
                        adjust_with_inference(lim, flags, now, rate, &cfg);
                    }
                }
            }
        }
    }

    // Group A = the first `per_group` senders.
    let group_a = &senders[..per_group];
    let avg = |pred: &dyn Fn(&FluidSender) -> bool| {
        let v: Vec<f64> = group_a
            .iter()
            .enumerate()
            .filter(|(_, s)| pred(s))
            .map(|(i, s)| s.rate(design, carried[i]))
            .collect();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let crossing = 2 * per_group;
    MultiBottleneckPoint {
        case,
        design,
        group_a_user_bps: avg(&|s| s.is_user),
        group_a_attacker_bps: avg(&|s| !s.is_user),
        fair_share_bps: capacities[0].min(capacities[1]) / crossing as f64,
    }
}

/// Figure 13: the three capacity cases under the B.1 multi-feedback design.
pub fn run_fig13(per_group: usize, intervals: usize) -> Vec<MultiBottleneckPoint> {
    crate::fig10::capacity_cases(2 * per_group, 80_000)
        .into_iter()
        .map(|c| run_fluid_case(c, MultiBottleneckDesign::MultiFeedback, per_group, intervals))
        .collect()
}

/// Figure 14: the three capacity cases under the B.2 inference design.
pub fn run_fig14(per_group: usize, intervals: usize) -> Vec<MultiBottleneckPoint> {
    crate::fig10::capacity_cases(2 * per_group, 80_000)
        .into_iter()
        .map(|c| run_fluid_case(c, MultiBottleneckDesign::Inference, per_group, intervals))
        .collect()
}

/// The single-feedback fluid baseline (useful to compare against Figure 10's
/// packet-level results and in the ablation bench).
pub fn run_fig10_fluid(per_group: usize, intervals: usize) -> Vec<MultiBottleneckPoint> {
    crate::fig10::capacity_cases(2 * per_group, 80_000)
        .into_iter()
        .map(|c| run_fluid_case(c, MultiBottleneckDesign::SingleFeedback, per_group, intervals))
        .collect()
}

fn table(title: &str, points: &[MultiBottleneckPoint]) -> String {
    let rows: Vec<_> = points
        .iter()
        .map(|p| (p.case, p.group_a_user_bps, p.group_a_attacker_bps, p.fair_share_bps))
        .collect();
    group_a_table(title, &rows)
}

/// `netfence run fig13` (the fluid model has one size).
pub fn table_fig13(_: Size) -> String {
    let title = "Figure 13: Appendix B.1 multi-bottleneck feedback (control-loop model, kbps)";
    table(title, &run_fig13(16, 600))
}

/// `netfence run fig14` (the fluid model has one size).
pub fn table_fig14(_: Size) -> String {
    let title = "Figure 14: Appendix B.2 rate-limiter inference (control-loop model, kbps)";
    table(title, &run_fig14(16, 600))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multifeedback_reaches_fair_share_in_all_cases() {
        for p in run_fig13(8, 400) {
            assert!(
                p.group_a_user_bps > 0.7 * p.fair_share_bps,
                "{}: user {} vs fair {}",
                p.case.label,
                p.group_a_user_bps,
                p.fair_share_bps
            );
            assert!(
                p.group_a_attacker_bps < 1.5 * p.fair_share_bps,
                "{}: attacker above fair share",
                p.case.label
            );
        }
    }

    #[test]
    fn inference_equalizes_users_and_attackers() {
        for p in run_fig14(8, 400) {
            let ratio = p.group_a_user_bps / p.group_a_attacker_bps.max(1.0);
            assert!((0.7..=1.3).contains(&ratio), "{}: user/attacker ratio {ratio}", p.case.label);
        }
    }

    #[test]
    fn single_feedback_underperforms_when_l1_smaller_than_l2() {
        let single = run_fig10_fluid(8, 400);
        let multi = run_fig13(8, 400);
        // The third case is 160M-240M (L1 < L2), where the core design hurts
        // Group A the most; B.1 recovers the fair share.
        let s = &single[2];
        let m = &multi[2];
        assert!(
            m.group_a_user_bps >= s.group_a_user_bps,
            "B.1 should not be worse than the core design: {} vs {}",
            m.group_a_user_bps,
            s.group_a_user_bps
        );
    }
}
