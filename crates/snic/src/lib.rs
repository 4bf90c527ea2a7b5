//! SmartNIC hardware models for NetSparse (paper §5 and §6.1).
//!
//! The paper extends an AMD Pensando-like SNIC with four structures, all
//! modeled here as passive, cycle-cost-annotated state machines:
//!
//! - [`protocol`] — the two-layer NetSparse packet format (Figure 6) and
//!   header-overhead accounting (Tables 3 and 5),
//! - [`filter`] — the **Idx Filter**, a per-node bit vector in SNIC DRAM
//!   marking properties already fetched (§5.2),
//! - [`pending`] — the **Pending PR Table**, a per-RIG-unit CAM tracking
//!   outstanding PRs and enabling request coalescing (§5.2),
//! - [`rig`] — the **RIG Unit** client pipeline: scan idxs at one per
//!   cycle, drop local/filtered/coalesced ones, emit read PRs (§5.1, §5.3),
//! - [`mod@concat`] — the **Concatenator**: [`ConcatPoint`], per-destination
//!   delay queues with an expiration queue, merging PRs into shared-header
//!   packets (§6.1); every NIC and switch component uses it,
//! - [`vconcat`] — the §7.2 extension: the configuration of a fixed pool of
//!   virtualized sub-MTU queues, which a [`ConcatPoint`] can draw on
//!   instead of per-destination SRAM,
//! - [`config`] — the SNIC parameters of Table 5.
//!
//! The event-driven composition of these pieces into a full cluster lives
//! in the `netsparse` core crate; everything here is directly
//! unit-testable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library rules (docs/STATIC_ANALYSIS.md).
#![deny(clippy::disallowed_types)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
// Event-path rules.
#![deny(clippy::cast_sign_loss, clippy::redundant_clone)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_macros))]

pub mod concat;
pub mod config;
pub mod filter;
pub mod pending;
pub mod protocol;
pub mod rig;
pub mod vconcat;

pub use concat::{ConcatConfig, ConcatPacket, ConcatPoint};
pub use config::SnicConfig;
pub use filter::IdxFilter;
pub use pending::PendingTable;
pub use protocol::{HeaderSpec, Pr, PrKind};
pub use rig::{IdxOutcome, RigClient};
