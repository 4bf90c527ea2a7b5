//! Network substrate for the NetSparse reproduction.
//!
//! The paper simulates a 128-node cluster (Table 5, Figure 11) with a
//! Leaf-Spine topology — and, in §9.6, HyperX and Dragonfly alternatives —
//! using SST/Merlin. This crate rebuilds that substrate: typed network
//! elements, the three topologies with deterministic routing, and
//! bandwidth/latency link models whose store-and-forward timing reproduces
//! the paper's zero-load RTTs (2.4 µs intra-rack, 5.4 µs inter-rack with
//! 450 ns links and 300 ns switch traversal).
//!
//! The crate is payload-agnostic: packets are just byte counts to a
//! [`link::Link`]; the NetSparse packet format and switch/NIC processing
//! live in the `netsparse-snic` and `netsparse-switch` crates, orchestrated
//! by the `netsparse` core crate.
//!
//! # Example
//!
//! ```
//! use netsparse_netsim::{Network, Topology};
//!
//! let net = Network::new(Topology::leaf_spine_128());
//! assert_eq!(net.nodes(), 128);
//! // Nodes 0 and 1 share a rack: their path is NIC -> ToR -> NIC.
//! assert_eq!(net.path(0, 1).hops.len(), 2);
//! // Nodes 0 and 127 are in different racks: two extra spine hops.
//! assert_eq!(net.path(0, 127).hops.len(), 4);
//! ```

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

pub mod link;
pub mod metrics;
pub mod topology;

pub use link::{Link, LinkParams};
pub use metrics::TopologyMetrics;
pub use topology::{Element, FailureSet, LinkId, Network, Path, RouteError, SwitchId, Topology};
