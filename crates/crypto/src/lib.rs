//! # netfence-crypto
//!
//! Lightweight symmetric-key cryptography substrate for the NetFence
//! reproduction.
//!
//! The NetFence architecture (Liu, Yang, Xia — SIGCOMM 2010) assumes that
//! routers can perform symmetric-key cryptography at line speed (§2.1) and
//! uses AES-based MACs to make congestion policing feedback unforgeable
//! (§3.2, §4.4). This crate provides everything the protocol layer
//! (`netfence-core`) needs:
//!
//! * [`aes`] — a portable software AES-128 block cipher (the paper assumes
//!   hardware AES; see `DESIGN.md` for the substitution note).
//! * [`cmac`] — AES-CMAC (RFC 4493) plus the 32-bit truncated MAC carried in
//!   the NetFence header's `MAC` field.
//! * [`secret`] — the periodically changing access-router secret `Ka`
//!   (Eq. 1–2 of the paper) with a validation grace window.
//! * [`keyexchange`] — Passport-style per-AS pairwise keys `Kai` (Eq. 3)
//!   established by a Diffie–Hellman exchange piggybacked on a BGP-like
//!   announcement round.
//!
//! Nothing in this crate performs I/O or depends on wall-clock time; all
//! time-dependent APIs take explicit `now` timestamps so that the discrete
//! event simulator fully controls time.

#![warn(missing_docs)]

pub mod aes;
pub mod cmac;
pub mod keyexchange;
pub mod secret;

pub use aes::Aes128;
pub use cmac::{Cmac, Mac32, MacInput};
pub use keyexchange::{full_mesh_exchange, AsKeyAgent, AsKeyTable, AsNumber, Install};
pub use secret::{Nanos, TimeVaryingSecret};
