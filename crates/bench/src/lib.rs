//! Benchmark harness for the NetSparse reproduction.
//!
//! One public function per paper table/figure (see `DESIGN.md`'s
//! experiment index), each returning its formatted output. The
//! [`sections`] registry names them, and the `repro` binary prints one
//! section by key or all of them in order. Simulation-backed sweeps fan
//! their independent points across threads via [`sweep::SweepRunner`]
//! (`--workers`/`--parallel`) with byte-identical output at any worker
//! count. Micro-benchmarks of the substrate components live in
//! `benches/`, running on the in-tree [`microbench`] harness. The
//! [`chaos`] module is the chaoscheck harness: seed-derived fault
//! scenarios, invariant oracles, and the failing-schedule shrinker behind
//! the `chaos` binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library rules (docs/STATIC_ANALYSIS.md); this package's manifest leaves
// the `allow_attributes` pair to its roots.
#![deny(clippy::disallowed_types)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod chaos;
pub mod microbench;
pub mod opts;
pub mod sections;
pub mod sweep;
pub mod tables;

pub use chaos::{ChaosScenario, ScenarioOutcome};
pub use opts::BenchOpts;
pub use sweep::{SweepError, SweepRunner};
