//! The receiver policy TVA+ and StopIt share: some receivers are victims
//! that turn every sender away (refuse it a capability, file a filter
//! against it) except the senders explicitly allowed there.

use std::collections::BTreeSet;

use netfence_sim::packet::HostAddr;

/// The victims of a deployment and the senders each one still accepts.
#[derive(Debug, Default)]
pub(crate) struct Victims {
    victims: BTreeSet<HostAddr>,
    /// `(victim, sender)`: victim first, so one host's allowed senders are
    /// a range. A `BTreeSet` because per-host shim state is built from it
    /// and must never depend on hash order.
    allowed: BTreeSet<(HostAddr, HostAddr)>,
}

impl Victims {
    /// Make `victim` turn away every sender but `allowed`.
    pub(crate) fn insert(&mut self, victim: HostAddr, allowed: &[HostAddr]) {
        self.victims.insert(victim);
        self.allowed.extend(allowed.iter().map(|&sender| (victim, sender)));
    }

    /// Whom `host`, as a receiver, accepts traffic from.
    pub(crate) fn acceptance_of(&self, host: HostAddr) -> Acceptance {
        let allowed = self.allowed.range((host, HostAddr::MIN)..=(host, HostAddr::MAX));
        Acceptance {
            victim: self.victims.contains(&host),
            allowed: allowed.map(|&(_, sender)| sender).collect(),
        }
    }
}

/// One host's share of a [`Victims`] table.
#[derive(Debug)]
pub(crate) struct Acceptance {
    victim: bool,
    allowed: BTreeSet<HostAddr>,
}

impl Acceptance {
    /// Whether this receiver wants traffic from `sender`.
    pub(crate) fn wants(&self, sender: HostAddr) -> bool {
        !self.victim || self.allowed.contains(&sender)
    }
}
