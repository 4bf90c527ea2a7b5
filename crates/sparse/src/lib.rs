//! Sparse-matrix substrate for the NetSparse reproduction.
//!
//! The paper (NetSparse, MICRO 2025) evaluates distributed SpMM / SpMV /
//! SDDMM over five large SuiteSparse matrices partitioned 1-D across a
//! 128-node cluster. This crate provides everything on the *data* side of
//! that evaluation:
//!
//! - [`coo`]/[`csr`] — coordinate and compressed-sparse-row storage with
//!   validated invariants,
//! - [`io`] — Matrix Market reading/writing so real SuiteSparse matrices can
//!   be dropped in when available,
//! - [`partition`] — 1-D block partitioning and ownership mapping,
//! - [`kernels`] — reference (single-node, dense-property) SpMM, SpMV and
//!   SDDMM used for functional validation,
//! - [`gen`] — structural synthetic generators (banded, geometric/road,
//!   power-law community graphs),
//! - [`suite`] — calibrated stand-ins for the paper's five benchmark
//!   matrices (arabic, europe, queen, stokes, uk), reproducing each matrix's
//!   *communication signature* at configurable scale,
//! - [`comm`] — extraction of per-node communication workloads and the
//!   analytic statistics behind the paper's Tables 1, 3 and 4,
//! - [`analysis`] — structural characterization (degree distributions,
//!   bandwidth, imbalance) of matrices and workloads.
//!
//! # Example: from matrix to communication pattern
//!
//! ```
//! use netsparse_sparse::gen::banded;
//! use netsparse_sparse::partition::Partition1D;
//! use netsparse_sparse::comm::CommWorkload;
//!
//! let m = banded(1_024, 8, 48, 7).to_csr();
//! let part = Partition1D::even(m.ncols() as u32, 8);
//! let wl = CommWorkload::from_csr(&m, &part);
//! // Every column index a node scans is either local or owned remotely.
//! let stats = wl.pattern_stats();
//! assert!(stats.total_remote_refs() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library rules (docs/STATIC_ANALYSIS.md).
#![deny(clippy::disallowed_types)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod analysis;
pub mod comm;
pub mod coo;
pub mod csr;
pub mod gen;
pub mod io;
pub mod kernels;
pub mod partition;
pub mod suite;

pub use comm::{ColumnSet, CommWorkload};
pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use partition::Partition1D;
pub use suite::SuiteMatrix;
