//! The defense half of a [`ScenarioSpec`](crate::spec::ScenarioSpec):
//! which system runs, how it is configured, which ASes deploy it, and the
//! role assignment its suppression mechanisms read. [`DefenseSpec::build`]
//! turns it into a [`Defense`] for the [`Runner`](crate::runner::Runner)
//! to deploy.

use netfence_adversary::strategic_request_priority;
use netfence_core::config::Config;
use netfence_sim::prelude::*;
use netfence_systems::{Defense, FairQueuingDefense, NetFenceDefense, StopItDefense, TvaDefense};

/// Which defense system a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DefenseKind {
    /// NetFence (this paper).
    NetFence,
    /// TVA+ capability baseline.
    Tva,
    /// StopIt filter baseline.
    StopIt,
    /// Per-sender fair queuing at every link.
    Fq,
    /// No defense at all.
    None,
}

impl DefenseKind {
    /// All systems compared in the paper's figures.
    pub const ALL: [DefenseKind; 4] =
        [DefenseKind::Fq, DefenseKind::NetFence, DefenseKind::Tva, DefenseKind::StopIt];

    /// Every kind [`DefenseSpec::build`] can build, including `None`.
    pub const EVERY: [DefenseKind; 5] = [
        DefenseKind::Fq,
        DefenseKind::NetFence,
        DefenseKind::Tva,
        DefenseKind::StopIt,
        DefenseKind::None,
    ];

    /// Display name matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            DefenseKind::NetFence => "NetFence",
            DefenseKind::Tva => "TVA+",
            DefenseKind::StopIt => "StopIt",
            DefenseKind::Fq => "FQ",
            DefenseKind::None => "None",
        }
    }
}

/// Whether the victim exercises its sender-suppression mechanism
/// (feedback-withholding / capabilities / filters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Suppression {
    /// Suppress exactly when the attack targets the victim (the paper's
    /// setting: victims block identified attackers, colluders never do).
    #[default]
    Auto,
    /// Always suppress.
    On,
    /// Never suppress.
    Off,
}

/// The defense half of a cell: which system, how configured, and how much
/// of the network deploys it.
#[derive(Debug, Clone)]
pub struct DefenseSpec {
    /// Which system.
    pub kind: DefenseKind,
    /// Protocol parameters for NetFence runs.
    pub netfence: Config,
    /// TTL of NetFence's installed AS keys (0 = permanent, the legacy
    /// behavior). With a nonzero TTL routers keep re-announcing their keys
    /// over the control plane — the refresh traffic that lets a rebooted
    /// router re-bootstrap its key table (fault recovery needs this on).
    pub key_ttl: Nanos,
    /// Victim suppression policy.
    pub suppression: Suppression,
    /// Which ASes deploy the defense. The [`Runner`](crate::runner::Runner)
    /// resolves a fractional coverage against the topology's *source* ASes
    /// ([`DeploymentSpec::resolve_for_source_ases`]).
    pub deployment: DeploymentSpec,
}

impl DefenseSpec {
    /// A defense with the experiment-default NetFence configuration,
    /// deployed everywhere.
    pub fn new(kind: DefenseKind) -> Self {
        DefenseSpec {
            kind,
            netfence: netfence_config(),
            key_ttl: 0,
            suppression: Suppression::Auto,
            deployment: DeploymentSpec::full(),
        }
    }

    /// Override the suppression policy.
    pub fn with_suppression(mut self, s: Suppression) -> Self {
        self.suppression = s;
        self
    }

    /// Construct the defense for a built scenario; the
    /// [`Runner`](crate::runner::Runner) deploys it according to
    /// [`DefenseSpec::deployment`]. `ctx` carries the role assignment the
    /// suppression mechanisms need; each [`SuppressionGroup`] is one victim
    /// with the senders it knows about (the dumbbell has one group, the
    /// parking lot three).
    pub fn build(&self, ctx: &DefenseContext<'_>) -> Defense {
        let suppress = match self.suppression {
            Suppression::Auto => ctx.attack_on_victim,
            Suppression::On => true,
            Suppression::Off => false,
        };
        let groups: &[SuppressionGroup<'_>] = if suppress { &ctx.groups } else { &[] };
        match self.kind {
            DefenseKind::None => Defense::None,
            DefenseKind::Fq => Defense::Fq(FairQueuingDefense),
            DefenseKind::StopIt => {
                let mut s = StopItDefense::new();
                for g in groups {
                    s.auto_filter(g.victim, g.users);
                }
                Defense::StopIt(s)
            }
            DefenseKind::Tva => {
                let mut t = TvaDefense::new();
                for g in groups {
                    t.deny_by_default(g.victim, g.users);
                }
                Defense::Tva(t)
            }
            DefenseKind::NetFence => {
                let mut n = NetFenceDefense::new(self.netfence.clone());
                n.key_ttl(self.key_ttl);
                let total: u64 = groups.iter().map(|g| g.attackers.len() as u64).sum();
                let prio = attacker_request_priority(&self.netfence, total, ctx.bottleneck_bps);
                for g in groups {
                    for &a in g.attackers {
                        n.suppress_sender(g.victim, a);
                        n.set_request_priority(a, prio);
                    }
                }
                Defense::NetFence(n)
            }
        }
    }
}

/// One victim and the senders it can tell apart, for suppression purposes.
#[derive(Debug, Clone)]
pub struct SuppressionGroup<'a> {
    /// The victim destination.
    pub victim: HostAddr,
    /// Legitimate senders the victim whitelists.
    pub users: &'a [HostAddr],
    /// Attackers the victim blocks.
    pub attackers: &'a [HostAddr],
}

/// Role assignment handed to [`DefenseSpec::build`] by the
/// [`Runner`](crate::runner::Runner).
#[derive(Debug, Clone, Default)]
pub struct DefenseContext<'a> {
    /// Victims with their known senders (empty disables suppression).
    pub groups: Vec<SuppressionGroup<'a>>,
    /// Capacity of the (tightest) bottleneck, bits per second.
    pub bottleneck_bps: u64,
    /// Whether the attack is aimed at the victim (resolves
    /// [`Suppression::Auto`]).
    pub attack_on_victim: bool,
}

/// The NetFence protocol configuration used by the experiments: Figure 3
/// parameters with `Ta`/`Tb` shortened so that simulated minutes (rather
/// than hours) exercise cycle termination.
pub fn netfence_config() -> Config {
    Config { ta: 600 * SEC, tb: 600 * SEC, ..Config::default() }
}

/// The strategic request priority attackers pick in the unwanted-traffic
/// scenario (§6.3.1): the highest level at which their aggregate traffic can
/// still saturate the bottleneck's request channel, under the protocol
/// parameters `cfg` the defense actually runs with.
pub fn attacker_request_priority(cfg: &Config, attackers: u64, bottleneck_bps: u64) -> u8 {
    strategic_request_priority(
        attackers,
        bottleneck_bps as f64 * cfg.request_channel_fraction,
        92.0,
        cfg.request_tokens_per_sec(),
        cfg.max_request_priority,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategic_priority_is_reasonable() {
        let p = attacker_request_priority(&netfence_config(), 90, 10_000_000);
        assert!((1..=12).contains(&p), "priority {p}");
    }
}
