//! The uniform result of every scenario run.
//!
//! A [`Record`] carries the full per-flow progress of every role,
//! per-bottleneck link statistics and the deployment's typed
//! [`DefenseReport`], and derives from them every metric the paper's
//! figures report (average goodput, throughput ratio, Jain fairness,
//! transfer times, completion ratios, utilization, loss). All harnesses,
//! benches and tests read these accessors — and the report's counters —
//! instead of keeping per-figure result structs or downcasting into
//! defense internals.

use netfence_sim::prelude::*;

pub use netfence_sim::deploy::DefenseReport;

use crate::defense::DefenseKind;

/// A role tag: which side of the attack a flow is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Legitimate user.
    User,
    /// Attacker.
    Attacker,
}

/// Per-flow progress of one named role group (e.g. `"users"` on a dumbbell,
/// `"A-users"` on the parking lot).
#[derive(Debug, Clone, PartialEq)]
pub struct RoleSeries {
    /// Group name.
    pub group: String,
    /// User or attacker.
    pub role: Role,
    /// Per-flow progress, in member order.
    pub flows: Vec<FlowProgress>,
    /// Typed drop budget of the group's flows (the drop ledger's budget
    /// for the group's tag): how many of the group's packets each
    /// defense/queue mechanism discarded.
    pub drops: DropBudget,
}

impl RoleSeries {
    /// Average goodput across the group's flows over `[0, sim_time]`.
    pub fn avg_bps(&self, sim_time: Nanos) -> f64 {
        avg(self.flows.iter().map(|p| p.goodput_bps(0, sim_time)))
    }
}

/// One goodput sample: cumulative delivered bytes of each role at a
/// sampled instant (enabled by
/// [`ScenarioSpec::sampled`](crate::spec::ScenarioSpec::sampled)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GoodputSample {
    /// Sample instant.
    pub at: Nanos,
    /// Cumulative bytes delivered by all user flows.
    pub user_bytes: u64,
    /// Cumulative bytes delivered by all attacker flows.
    pub attacker_bytes: u64,
}

/// One fault window injected into the run: what hit, when, and when it
/// cleared — the instants the record's recovery metrics are measured
/// against. (For one-shot faults like a reboot, `clear_at == at`: the
/// disruption is instantaneous but its aftermath is not.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultWindowRecord {
    /// Fault kind label (`"link-failure"`, `"reboot"`, `"key-desync"`,
    /// `"clock-skew"`, `"memory-pressure"`).
    pub kind: String,
    /// When the fault hit.
    pub at: Nanos,
    /// When it cleared.
    pub clear_at: Nanos,
}

/// Statistics of one monitored (bottleneck) link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkStats {
    /// Link label ("bottleneck", "L1", "L2").
    pub label: String,
    /// Configured capacity, bits per second.
    pub capacity_bps: u64,
    /// Utilization over the run.
    pub utilization: f64,
    /// Loss rate over the run.
    pub loss: f64,
}

/// The uniform outcome of one [`Runner`](crate::runner::Runner) run.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Scenario name (from the spec).
    pub name: String,
    /// Defense system that ran.
    pub defense: DefenseKind,
    /// Simulated duration.
    pub sim_time: Nanos,
    /// RNG seed.
    pub seed: u64,
    /// Total simulated senders.
    pub senders: usize,
    /// The per-sender max-min fair share on the tightest bottleneck.
    pub fair_share_bps: f64,
    /// Per-role flow series.
    pub roles: Vec<RoleSeries>,
    /// Per-bottleneck statistics (first entry = the tightest/primary one).
    pub links: Vec<LinkStats>,
    /// The deployed defense's merged typed counters (rate limiters,
    /// filters, capabilities, monitoring state, deployment extent).
    pub report: DefenseReport,
    /// Periodic goodput samples (empty unless the spec enabled sampling).
    pub samples: Vec<GoodputSample>,
    /// When the earliest attacker starts sending (`None` without
    /// attackers), the reference instant of [`Record::reaction_secs`].
    pub attack_start: Option<Nanos>,
    /// The fault windows injected into the run, in plan order (empty
    /// without a fault plan — the default, preserving record equality with
    /// pre-fault runs). Reference instants of
    /// [`Record::fault_recovery_secs`] and [`Record::availability`].
    pub faults: Vec<FaultWindowRecord>,
    /// Engine profiling counters for the run (events processed, forwards,
    /// enqueues/dequeues, drops) — deterministic, always collected.
    pub engine: EngineProfile,
}

impl Record {
    /// The named role group, if present.
    pub fn group(&self, name: &str) -> Option<&RoleSeries> {
        self.roles.iter().find(|r| r.group == name)
    }

    /// Average goodput of a named group, bits per second.
    pub fn group_avg_bps(&self, name: &str) -> f64 {
        self.group(name).map(|g| g.avg_bps(self.sim_time)).unwrap_or(0.0)
    }

    /// Every user flow across all groups.
    pub fn users(&self) -> impl Iterator<Item = &FlowProgress> {
        self.roles.iter().filter(|r| r.role == Role::User).flat_map(|r| r.flows.iter())
    }

    /// Every attacker flow across all groups.
    pub fn attackers(&self) -> impl Iterator<Item = &FlowProgress> {
        self.roles.iter().filter(|r| r.role == Role::Attacker).flat_map(|r| r.flows.iter())
    }

    /// Average goodput (bps) across all users.
    pub fn avg_user_bps(&self) -> f64 {
        avg(self.users().map(|p| p.goodput_bps(0, self.sim_time)))
    }

    /// Average goodput (bps) across all attackers.
    pub fn avg_attacker_bps(&self) -> f64 {
        avg(self.attackers().map(|p| p.goodput_bps(0, self.sim_time)))
    }

    /// Throughput ratio (users / attackers), Figure 9's metric.
    pub fn throughput_ratio(&self) -> f64 {
        let a = self.avg_attacker_bps();
        if a == 0.0 {
            f64::INFINITY
        } else {
            self.avg_user_bps() / a
        }
    }

    /// Jain fairness index across legitimate users' goodputs.
    pub fn user_fairness(&self) -> f64 {
        let v: Vec<f64> = self.users().map(|p| p.goodput_bps(0, self.sim_time)).collect();
        jain_fairness_index(&v)
    }

    /// Average completed-transfer time across users, in seconds.
    pub fn avg_user_transfer_secs(&self) -> Option<f64> {
        let times: Vec<f64> = self.users().filter_map(|p| p.avg_transfer_secs()).collect();
        if times.is_empty() {
            None
        } else {
            Some(times.iter().sum::<f64>() / times.len() as f64)
        }
    }

    /// Fraction of attempted user transfers that completed.
    pub fn user_completion_ratio(&self) -> f64 {
        let done: usize = self.users().map(|p| p.completions.len()).sum();
        let failed: u64 = self.users().map(|p| p.failed_transfers).sum();
        let attempted = done as u64 + failed;
        if attempted == 0 {
            1.0
        } else {
            done as f64 / attempted as f64
        }
    }

    /// Defense reaction time in seconds: attack start → the first instant
    /// user goodput sustainably recovers to ≥ 90% of its pre-attack level.
    ///
    /// Computed from the periodic [`GoodputSample`]s: the baseline is the
    /// mean per-window user goodput over the windows ending at or before
    /// the attack start; recovery is the first post-attack window that
    /// reaches 90% of it *and* is followed only by windows whose average
    /// also holds the threshold (so a transient spike mid-collapse does
    /// not count). Returns `None` when sampling was off, no pre-attack
    /// baseline exists, or the goodput never recovers within the run —
    /// callers treat `None` as "did not react".
    pub fn reaction_secs(&self) -> Option<f64> {
        let attack_start = self.attack_start?;
        let deltas = self.window_deltas();
        let pre: Vec<u64> =
            deltas.iter().filter(|&&(_, end, _)| end <= attack_start).map(|&(_, _, b)| b).collect();
        if pre.is_empty() {
            return None;
        }
        let baseline = pre.iter().sum::<u64>() as f64 / pre.len() as f64;
        if baseline <= 0.0 {
            return None;
        }
        sustained_recovery_end(&deltas, attack_start, baseline * 0.9)
            .map(|end| (end.saturating_sub(attack_start)) as f64 / SEC as f64)
    }

    /// Per-window user byte deltas from the goodput samples: window i
    /// spans (at[i-1], at[i]], with window 0 spanning (0, at[0]].
    fn window_deltas(&self) -> Vec<(Nanos, Nanos, u64)> {
        self.samples
            .iter()
            .scan((0, 0u64), |(prev_at, prev_bytes), s| {
                let d = (*prev_at, s.at, s.user_bytes.saturating_sub(*prev_bytes));
                *prev_at = s.at;
                *prev_bytes = s.user_bytes;
                Some(d)
            })
            .collect()
    }

    /// Recovery time of the `index`-th fault window, in seconds: fault
    /// clearance → the first instant user goodput sustainably returns to
    /// ≥ 90% of its pre-fault level.
    ///
    /// The pre-fault baseline is the mean per-window user goodput over the
    /// (up to [`BASELINE_WINDOWS`]) sample windows ending at or before the
    /// fault hit — a *trailing* baseline, so it reflects the steady state
    /// right before this fault even when an attack (already absorbed by
    /// the defense) or an earlier fault reshaped goodput since the start
    /// of the run. Sustained means the remaining windows also hold the
    /// threshold on average, exactly like [`Record::reaction_secs`].
    /// `None` = sampling off, no measurable baseline, or never recovered
    /// within the run.
    pub fn fault_recovery_secs(&self, index: usize) -> Option<f64> {
        let w = self.faults.get(index)?;
        let deltas = self.window_deltas();
        let baseline = trailing_baseline(&deltas, w.at)?;
        sustained_recovery_end(&deltas, w.clear_at, baseline * 0.9)
            .map(|end| (end.saturating_sub(w.clear_at)) as f64 / SEC as f64)
    }

    /// The slowest per-window [`Record::fault_recovery_secs`] of the run —
    /// the chaos sweep's headline metric. Windows that never recover (or
    /// cannot be measured) are censored at the end of the run: they count
    /// as `sim_time - clear_at`, so "worse" stays monotone instead of
    /// disappearing into `None`. `None` only without fault windows.
    pub fn worst_fault_recovery_secs(&self) -> Option<f64> {
        if self.faults.is_empty() {
            return None;
        }
        let mut worst: f64 = 0.0;
        for (i, w) in self.faults.iter().enumerate() {
            let censored = self.sim_time.saturating_sub(w.clear_at) as f64 / SEC as f64;
            worst = worst.max(self.fault_recovery_secs(i).unwrap_or(censored));
        }
        Some(worst)
    }

    /// Availability under faults: the fraction of sample windows from the
    /// first fault onward whose user goodput held ≥ 90% of the pre-fault
    /// baseline (trailing mean, as in [`Record::fault_recovery_secs`]).
    /// 1.0 = the faults never dented goodput below threshold; 0.0 = it
    /// never held again. `None` without fault windows, sampling, or a
    /// measurable baseline.
    pub fn availability(&self) -> Option<f64> {
        let first = self.faults.iter().map(|w| w.at).min()?;
        let deltas = self.window_deltas();
        let baseline = trailing_baseline(&deltas, first)?;
        let threshold = baseline * 0.9;
        let post: Vec<u64> =
            deltas.iter().filter(|&&(start, _, _)| start >= first).map(|&(_, _, b)| b).collect();
        if post.is_empty() {
            return None;
        }
        let ok = post.iter().filter(|&&b| b as f64 >= threshold).count();
        Some(ok as f64 / post.len() as f64)
    }

    /// Utilization of the primary bottleneck.
    pub fn bottleneck_utilization(&self) -> f64 {
        self.links.first().map(|l| l.utilization).unwrap_or(0.0)
    }
}

/// How many trailing sample windows form a fault's pre-fault baseline.
pub const BASELINE_WINDOWS: usize = 8;

/// Mean per-window goodput over the (up to [`BASELINE_WINDOWS`]) windows
/// ending at or before `t`; `None` when no window ends by `t` or the mean
/// is zero (no measurable baseline).
fn trailing_baseline(deltas: &[(Nanos, Nanos, u64)], t: Nanos) -> Option<f64> {
    let pre: Vec<u64> =
        deltas.iter().filter(|&&(_, end, _)| end <= t).map(|&(_, _, b)| b).collect();
    if pre.is_empty() {
        return None;
    }
    let tail = &pre[pre.len().saturating_sub(BASELINE_WINDOWS)..];
    let baseline = tail.iter().sum::<u64>() as f64 / tail.len() as f64;
    (baseline > 0.0).then_some(baseline)
}

/// The end instant of the first window starting at or after `from` that
/// holds `threshold` *sustainably* — the remaining windows must hold it on
/// average too (individual windows may dip; TCP goodput is bursty at
/// sample granularity). `None` = never within the run.
fn sustained_recovery_end(
    deltas: &[(Nanos, Nanos, u64)],
    from: Nanos,
    threshold: f64,
) -> Option<Nanos> {
    let post: Vec<&(Nanos, Nanos, u64)> =
        deltas.iter().filter(|&&(start, _, _)| start >= from).collect();
    for (i, &&(_, end, bytes)) in post.iter().enumerate() {
        if (bytes as f64) < threshold {
            continue;
        }
        let rest = &post[i..];
        let rest_avg = rest.iter().map(|&&(_, _, b)| b as f64).sum::<f64>() / rest.len() as f64;
        if rest_avg >= threshold {
            return Some(end);
        }
    }
    None
}

fn avg(iter: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = iter.collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn progress(delivered: u64) -> FlowProgress {
        FlowProgress { delivered_bytes: delivered, ..Default::default() }
    }

    fn sample() -> Record {
        Record {
            name: "t".into(),
            defense: DefenseKind::NetFence,
            sim_time: 10 * SEC,
            seed: 1,
            senders: 4,
            fair_share_bps: 1000.0,
            roles: vec![
                RoleSeries {
                    group: "users".into(),
                    role: Role::User,
                    flows: vec![progress(1000), progress(3000)],
                    drops: DropBudget::default(),
                },
                RoleSeries {
                    group: "attackers".into(),
                    role: Role::Attacker,
                    flows: vec![progress(1000)],
                    drops: DropBudget::default(),
                },
            ],
            links: vec![LinkStats {
                label: "bottleneck".into(),
                capacity_bps: 4000,
                utilization: 0.5,
                loss: 0.1,
            }],
            report: DefenseReport::default(),
            samples: Vec::new(),
            attack_start: None,
            faults: Vec::new(),
            engine: EngineProfile::default(),
        }
    }

    /// Samples tracing: healthy baseline (1000 B/window), collapse after
    /// the attack at 4 s, recovery from 8 s on.
    fn sampled() -> Record {
        let user_bytes = [1000, 2000, 3000, 4000, 4100, 4200, 4300, 5300, 6300, 7300];
        let samples = user_bytes
            .iter()
            .enumerate()
            .map(|(i, &b)| GoodputSample {
                at: (i as u64 + 1) * SEC,
                user_bytes: b,
                attacker_bytes: 0,
            })
            .collect();
        Record { samples, attack_start: Some(4 * SEC), ..sample() }
    }

    #[test]
    fn derived_metrics() {
        let r = sample();
        // 1000 bytes over 10 s = 800 bps; mean of 800 and 2400 = 1600.
        assert_eq!(r.avg_user_bps(), 1600.0);
        assert_eq!(r.avg_attacker_bps(), 800.0);
        assert_eq!(r.throughput_ratio(), 2.0);
        assert!(r.user_fairness() > 0.7 && r.user_fairness() < 1.0);
        assert_eq!(r.bottleneck_utilization(), 0.5);
        assert_eq!(r.group_avg_bps("users"), 1600.0);
        assert_eq!(r.group_avg_bps("missing"), 0.0);
    }

    #[test]
    fn completion_ratio_counts_failures() {
        let mut r = sample();
        r.roles[0].flows[0].completions.push((0, SEC, 100));
        r.roles[0].flows[1].failed_transfers = 1;
        assert_eq!(r.user_completion_ratio(), 0.5);
        // No attempts at all counts as complete.
        let empty = Record { roles: vec![], ..sample() };
        assert_eq!(empty.user_completion_ratio(), 1.0);
    }

    #[test]
    fn reaction_time_measures_recovery_after_collapse() {
        let r = sampled();
        // Baseline 1000 B/s; collapse to 100 B/s at 4 s; first sustained
        // ≥ 900 B window ends at 8 s → reaction 4 s.
        assert_eq!(r.reaction_secs(), Some(4.0));
    }

    #[test]
    fn reaction_time_needs_samples_attackers_and_recovery() {
        assert_eq!(sample().reaction_secs(), None, "no samples, no metric");
        let r = Record { attack_start: None, ..sampled() };
        assert_eq!(r.reaction_secs(), None, "no attack, no metric");
        let mut r = sampled();
        // Chop the trace right after the collapse: goodput never recovers.
        r.samples.truncate(7);
        assert_eq!(r.reaction_secs(), None, "no recovery, no metric");
    }

    #[test]
    fn reaction_time_ignores_transient_spikes() {
        let mut r = sampled();
        // One good window mid-collapse (5→6 s) followed by more collapse:
        // the spike alone must not count as recovery.
        let bytes = [1000, 2000, 3000, 4000, 4100, 5100, 5200, 5300, 6300, 7300];
        for (s, &b) in r.samples.iter_mut().zip(bytes.iter()) {
            s.user_bytes = b;
        }
        // True recovery only from 8 s on: first sustained window ends 9 s.
        assert_eq!(r.reaction_secs(), Some(5.0), "spike at 6 s must not count");
    }

    #[test]
    fn reaction_time_with_attack_at_time_zero_has_no_baseline() {
        // Attack from the very first instant: no pre-attack window exists,
        // so no baseline can be computed and the metric is undefined.
        let r = Record { attack_start: Some(0), ..sampled() };
        assert_eq!(r.reaction_secs(), None, "t=0 attack has no pre-attack baseline");
    }

    #[test]
    fn reaction_time_when_goodput_never_recovers_is_none() {
        // Collapse at 4 s that persists to the end of the run: every
        // post-attack window stays below 90% of the 1000 B baseline.
        let mut r = sampled();
        let bytes = [1000, 2000, 3000, 4000, 4100, 4200, 4300, 4400, 4500, 4600];
        for (s, &b) in r.samples.iter_mut().zip(bytes.iter()) {
            s.user_bytes = b;
        }
        assert_eq!(r.reaction_secs(), None, "never-recovering run must not report a reaction");
    }

    #[test]
    fn reaction_time_on_a_single_sample_run() {
        // One sample only. If the attack starts after that window, there is
        // no post-attack window to recover in; if it starts at 0, there is
        // no baseline. Either way the metric must be None, not a panic.
        let mut r = sampled();
        r.samples.truncate(1);
        r.attack_start = Some(2 * SEC);
        assert_eq!(r.reaction_secs(), None, "single pre-attack sample, nothing after");
        r.attack_start = Some(0);
        assert_eq!(r.reaction_secs(), None, "single sample with t=0 attack");
    }

    /// Healthy 1000 B/s baseline, a fault window [3 s, 5 s] collapsing
    /// goodput, recovery from 8 s on.
    fn faulted() -> Record {
        let user_bytes = [1000, 2000, 3000, 3100, 3200, 3300, 3400, 4400, 5400, 6400];
        let samples = user_bytes
            .iter()
            .enumerate()
            .map(|(i, &b)| GoodputSample {
                at: (i as u64 + 1) * SEC,
                user_bytes: b,
                attacker_bytes: 0,
            })
            .collect();
        let faults =
            vec![FaultWindowRecord { kind: "link-failure".into(), at: 3 * SEC, clear_at: 5 * SEC }];
        Record { samples, faults, ..sample() }
    }

    #[test]
    fn fault_recovery_measures_from_clearance_to_sustained_return() {
        let r = faulted();
        // Baseline 1000 B/s over windows 1–3; first sustained ≥ 900 B
        // window after the 5 s clearance ends at 8 s → recovery 3 s.
        assert_eq!(r.fault_recovery_secs(0), Some(3.0));
        assert_eq!(r.worst_fault_recovery_secs(), Some(3.0));
        // Out-of-range window index: no metric, no panic.
        assert_eq!(r.fault_recovery_secs(1), None);
    }

    #[test]
    fn availability_counts_threshold_holding_windows_after_the_first_fault() {
        let r = faulted();
        // Windows starting at ≥ 3 s: 7 of them (3→4 … 9→10 s); the three
        // from 7 s on hold ≥ 900 B.
        assert_eq!(r.availability(), Some(3.0 / 7.0));
    }

    #[test]
    fn fault_metrics_without_faults_or_samples_are_none() {
        assert_eq!(sample().worst_fault_recovery_secs(), None, "no faults");
        assert_eq!(sample().availability(), None, "no faults");
        let mut r = faulted();
        r.samples.clear();
        assert_eq!(r.fault_recovery_secs(0), None, "no samples, no baseline");
        assert_eq!(r.availability(), None, "no samples");
        // Never recovering: the per-window metric is None but the worst-
        // case metric censors at the end of the run.
        let mut r = faulted();
        let bytes = [1000, 2000, 3000, 3100, 3200, 3300, 3400, 3500, 3600, 3700];
        for (s, &b) in r.samples.iter_mut().zip(bytes.iter()) {
            s.user_bytes = b;
        }
        assert_eq!(r.fault_recovery_secs(0), None);
        assert_eq!(r.worst_fault_recovery_secs(), Some(5.0), "censored at sim_time - clear_at");
        assert_eq!(r.availability(), Some(0.0));
    }

    #[test]
    fn fault_baseline_is_trailing_not_global() {
        // An attack collapses goodput long before the fault; the defense
        // restores it to 500 B/s (the new steady state). The fault baseline
        // must be the trailing 500 B/s, not a mean polluted by the
        // 1000 B/s pre-attack era — recovery back to 500 B/s counts.
        let user_bytes: Vec<u64> = {
            let deltas = [
                1000, 1000, 1000, 100, 100, 500, 500, 500, 500, 500, 500, 500, 500, // steady
                50, 50, // fault at 13 s, cleared 15 s
                500, 500, 500, 500, 500, // recovered
            ];
            deltas
                .iter()
                .scan(0u64, |acc, d| {
                    *acc += d;
                    Some(*acc)
                })
                .collect()
        };
        let samples: Vec<GoodputSample> = user_bytes
            .iter()
            .enumerate()
            .map(|(i, &b)| GoodputSample {
                at: (i as u64 + 1) * SEC,
                user_bytes: b,
                attacker_bytes: 0,
            })
            .collect();
        let faults =
            vec![FaultWindowRecord { kind: "reboot".into(), at: 13 * SEC, clear_at: 13 * SEC }];
        let r = Record { samples, faults, sim_time: 20 * SEC, ..sample() };
        // Trailing baseline = 500 B/s; first sustained ≥ 450 B window after
        // the 13 s clearance ends at 16 s → 3 s recovery.
        assert_eq!(r.fault_recovery_secs(0), Some(3.0));
    }

    #[test]
    fn zero_attacker_ratio_is_infinite() {
        let mut r = sample();
        r.roles[1].flows.clear();
        assert!(r.throughput_ratio().is_infinite());
    }
}
