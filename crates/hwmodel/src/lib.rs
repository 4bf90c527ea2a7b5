//! Analytic area & power model for the NetSparse hardware extensions
//! (paper §8.3, §9.5, Figure 20, Table 9).
//!
//! The paper implements the RIG pipelines and Concatenators in RTL,
//! synthesizes at 45 nm (FreePDK45 + Design Compiler), models SRAMs/CAMs
//! with CACTI, and scales to 10 nm with the Stillmaker–Baas equations. We
//! do not have a synthesis flow; instead this crate provides a transparent
//! analytic estimator with three primitives — SRAM, CAM and synthesized
//! logic — whose per-bit densities and energies at 10 nm are calibrated so
//! the totals land on the paper's reported numbers (SNIC extensions:
//! ≈1.4 mm², ≈2.1 W peak; switch caches ≈21 mm²; Table 9's RIG-unit area
//! split). The *structure* of the model (which storage exists, how large)
//! follows Table 5 exactly, so parameter sweeps respond the way real
//! estimates would.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library rules (docs/STATIC_ANALYSIS.md).
#![deny(clippy::disallowed_types)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod estimate;
pub mod scaling;

pub use estimate::{
    rig_unit_breakdown, snic_extension_report, switch_extension_report, ComponentEstimate,
    TechParams,
};
pub use scaling::ProcessScaling;
