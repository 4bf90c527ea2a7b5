//! Compute and software-communication models (paper §8.1, §8.2, §9.6).
//!
//! NetSparse's end-to-end results pair hardware-accelerated communication
//! with per-node compute engines, and compare against idealized software
//! baselines. This crate supplies the analytic models for both sides:
//!
//! - [`compute`] — memory-bandwidth roofline models of the per-node compute
//!   engines: the SPADE sparse accelerator (128 PEs, 800 GB/s HBM) and the
//!   Sapphire-Rapids-class CPUs (DDR and HBM variants) of §9.6,
//! - [`sw_model`] — the calibrated software-overhead models behind the
//!   SUOpt and SAOpt baselines (§8.1): dense all-to-all wire time for
//!   SUOpt, Conveyors-style per-PR software cost with per-core prefiltering
//!   for SAOpt, and the vanilla-SA per-PR cost used for the motivation
//!   measurements (Tables 2 and Figure 10).
//!
//! All constants are in one place, documented with the paper observation
//! they are calibrated against, so the calibration is auditable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library rules (docs/STATIC_ANALYSIS.md).
#![deny(clippy::disallowed_types)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod compute;
pub mod sw_model;

pub use compute::{ComputeEngine, ComputeModel};
pub use sw_model::{HybridOptModel, SaOptModel, SuOptModel, VanillaSaModel};
