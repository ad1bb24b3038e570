//! # netfence
//!
//! Facade crate for the NetFence (SIGCOMM 2010) reproduction workspace. It
//! re-exports the sub-crates under stable names and hosts the `netfence`
//! experiment CLI (`src/main.rs`: `cargo run --release -- list`), the
//! repository-level integration tests (`tests/`) and runnable examples
//! (`examples/`).
//!
//! | Crate | Contents |
//! |---|---|
//! | [`core`] | Sans-I/O protocol state machines (feedback, AIMD, policing) |
//! | [`crypto`] | Software AES-128, AES-CMAC, Passport-style key exchange |
//! | [`telemetry`] | Typed drop causes, engine profile, timeline and flight-recorder exports |
//! | [`sim`] | Deterministic packet-level discrete-event simulator |
//! | [`topo`] | Internet-scale topology generation (`TopoSpec` → `BuiltTopo`) |
//! | [`ctrl`] | Asynchronous control-plane transport (latency, loss, outages, TTL'd rules) |
//! | [`adversary`] | Adaptive attacker strategies (shrew, rolling, probe, flash-mimic agents) |
//! | [`systems`] | NetFence / TVA+ / StopIt / FQ bound to the simulator |
//! | [`faults`] | Declarative, deterministic fault plans (chaos engine) |
//! | [`experiments`] | Declarative `ScenarioSpec` → `Runner` → `Record` API and the experiment table |
//!
//! Quickstart — run a scenario through the declarative API:
//!
//! ```
//! use netfence::experiments::prelude::*;
//!
//! let spec = ScenarioSpec::dumbbell(Scale::tiny())
//!     .defense(DefenseKind::NetFence)
//!     .fair_share(100_000)
//!     .attackers(AttackStrategy::static_cbr(1_000_000), AttackTarget::Colluders { ases: 2 });
//! let record = Runner::new(spec).run();
//! assert!(record.throughput_ratio() > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use netfence_adversary as adversary;
pub use netfence_core as core;
pub use netfence_crypto as crypto;
pub use netfence_ctrl as ctrl;
pub use netfence_experiments as experiments;
pub use netfence_faults as faults;
pub use netfence_sim as sim;
pub use netfence_systems as systems;
pub use netfence_telemetry as telemetry;
pub use netfence_topo as topo;
