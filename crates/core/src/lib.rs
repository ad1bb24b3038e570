//! # netfence-core
//!
//! A from-scratch implementation of the **NetFence** DoS-resistant network
//! architecture (Liu, Yang, Xia — SIGCOMM 2010): *secure congestion policing
//! feedback* plus the closed-loop congestion policing built on top of it.
//!
//! The crate is sans-I/O and simulation-agnostic: every state machine takes
//! explicit `now` timestamps and packet/header values and returns decisions.
//! The companion crates bind it to a discrete-event network simulator
//! (`netfence-sim` / `netfence-systems`) and regenerate the paper's
//! evaluation (`netfence-experiments`).
//!
//! ## Module map (paper section → module)
//!
//! | Paper | Module |
//! |---|---|
//! | §4.1, §4.4 feedback + MAC tokens (Eq. 1–3) | [`feedback`] |
//! | Figure 6 header wire format | [`header`] |
//! | §4.2 request channel policing (Figure 15) | [`request_limiter`] |
//! | §4.3.3 leaky-bucket regular limiter (Figure 16) | [`regular_limiter`] |
//! | §4.3.4 robust AIMD (Figure 17) | [`aimd`] |
//! | §4.3.1 attack detection & monitoring cycles (Figure 19) | [`monitor`] |
//! | §4.3.2 bottleneck feedback rewriting | [`bottleneck`] |
//! | Figure 18 access-router policing pipeline | [`access`] |
//! | §3.1/§4.2 end-host shim behaviour | [`endpoint`] |
//! | Appendix B multi-bottleneck extensions | [`multi`] |
//! | Figure 3 parameters | [`config`] |
//!
//! §4.5's per-AS damage localization, the Passport MAC and §7's congestion
//! quota are not modelled: no simulated packet would reach them (DESIGN.md
//! §4). Only the Passport header's length is kept, as
//! [`header::PASSPORT_HEADER_LEN`].
//!
//! ## Quick example
//!
//! ```
//! use netfence_core::prelude::*;
//! use netfence_crypto::{full_mesh_exchange, AsKeyAgent};
//!
//! // Two ASes exchange Passport keys.
//! let agents = vec![AsKeyAgent::new(1, 42), AsKeyAgent::new(2, 43)];
//! let mut tables = full_mesh_exchange(&agents);
//!
//! // AS 1 runs an access router; AS 2 runs a bottleneck link.
//! let cfg = Config::default();
//! let mut access = AccessRouter::new(cfg.clone(), AsId(1), [7; 16], tables.remove(0));
//! access.register_link_as(LinkId(100), AsId(2));
//!
//! // A sender requests, the access router stamps nop feedback.
//! let flow = FlowPair::new(HostId(10), HostId(20));
//! let mut header = NetFenceHeader::request(6, 0, Feedback::Nop { ts: 0, token: 0 });
//! let verdict = access.process_outbound(SEC, flow, &mut header, 92);
//! assert!(matches!(verdict, AccessVerdict::Forward { .. }));
//! assert!(header.presented.is_nop());
//! ```

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod access;
pub mod aimd;
pub mod bottleneck;
pub mod config;
pub mod endpoint;
pub mod feedback;
pub mod header;
pub mod monitor;
pub mod multi;
pub mod regular_limiter;
pub mod request_limiter;
pub mod types;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::access::{AccessRouter, AccessVerdict};
    pub use crate::aimd::{Adjustment, AimdState};
    pub use crate::bottleneck::{BottleneckLink, Channel, StampOutcome};
    pub use crate::config::Config;
    pub use crate::endpoint::{ReceiverPolicy, ReceiverShim, SenderShim};
    pub use crate::feedback::{Action, Feedback, FeedbackError};
    pub use crate::header::{NetFenceHeader, PacketKind};
    pub use crate::monitor::MonitorEvent;
    pub use crate::regular_limiter::{BucketVerdict, LeakyBucket};
    pub use crate::request_limiter::{RequestLimiter, RequestVerdict};
    pub use crate::types::{
        AsId, Bps, FlowPair, HostId, LimiterKey, LinkId, Nanos, MICRO, MILLI, SEC,
    };
}

pub use prelude::*;
