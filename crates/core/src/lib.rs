//! # NetSparse — in-network acceleration of distributed sparse kernels
//!
//! A from-scratch reproduction of *NetSparse: In-Network Acceleration of
//! Distributed Sparse Kernels* (MICRO 2025). NetSparse accelerates the
//! communication of distributed SpMM/SpMV/SDDMM with four hardware
//! mechanisms: **Remote Indexed Gather (RIG)** offload in the SmartNIC,
//! **filtering + coalescing** of redundant Property Requests, **PR
//! concatenation** in NICs and switches, and an **in-switch Property
//! Cache** shared by each rack.
//!
//! This crate is the top of the workspace: it binds the substrate crates
//! (event engine, sparse workloads, network, SNIC and switch hardware
//! models, compute rooflines) into a full 128-node cluster simulation, the
//! SUOpt/SAOpt software baselines, and the experiment drivers that
//! regenerate every table and figure of the paper's evaluation.
//!
//! ## Quick start
//!
//! ```
//! use netsparse::prelude::*;
//!
//! // A small arabic-like workload on an 8-node mini cluster.
//! let wl = SuiteConfig {
//!     matrix: SuiteMatrix::Arabic,
//!     nodes: 8,
//!     rack_size: 4,
//!     scale: 0.02,
//!     seed: 1,
//! }
//! .generate();
//! let cfg = ClusterConfig::mini(Topology::LeafSpine { racks: 2, rack_size: 4, spines: 2 }, 16);
//! let report = simulate(&cfg, &wl);
//! assert!(report.functional_check_passed);
//! assert!(report.comm_time_s() > 0.0);
//! ```
//!
//! See `DESIGN.md` for the full system inventory and the per-experiment
//! index, and the `netsparse-bench` crate for the table/figure harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library rules (docs/STATIC_ANALYSIS.md).
#![deny(clippy::disallowed_types)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![deny(clippy::cast_sign_loss)]

pub mod baselines;
pub mod config;
pub mod experiments;
pub mod metrics;
pub mod sim;

pub use config::{ClusterConfig, Mechanisms, ReduceConfig};
pub use metrics::{ReduceReport, SimReport};
pub use sim::{simulate, simulate_traced, try_simulate, try_simulate_traced, SimError};

/// One-stop imports for examples and benches.
pub mod prelude {
    pub use crate::baselines::{Baselines, CommComparison};
    pub use crate::config::{ClusterConfig, Mechanisms, ReduceConfig};
    pub use crate::experiments;
    pub use crate::metrics::{ReduceReport, SimReport};
    pub use crate::sim::{simulate, try_simulate, SimError};
    pub use netsparse_accel::{ComputeEngine, ComputeModel, SaOptModel, SuOptModel};
    pub use netsparse_netsim::Topology;
    pub use netsparse_sparse::suite::SuiteConfig;
    pub use netsparse_sparse::{CommWorkload, SuiteMatrix};
}
