//! Roofline compute models for the per-node engines.
//!
//! The paper computes SpMM with SPADE accelerators (Table 5: 128 PEs at
//! 1 GHz with 64 GB of 800 GB/s HBM) and, in §9.6, with Sapphire-Rapids
//! CPUs (48-core DDR and 56-core HBM variants running MKL). For the
//! figures we reproduce (13, 14, 21), only per-node *compute time* matters,
//! and SpMM/SDDMM on these engines is memory-bandwidth-bound; a roofline
//! with an empirical efficiency factor reproduces the compute/communication
//! ratios the paper reports.

/// Which engine performs the per-node computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComputeEngine {
    /// The SPADE sparse accelerator of Table 5.
    Spade,
    /// 48-core Sapphire Rapids with DDR5 (§9.6).
    CpuDdr,
    /// 56-core Sapphire Rapids Max with HBM (§9.6).
    CpuHbm,
}

/// A memory-bandwidth roofline for sparse kernels.
///
/// `spmm_time` charges one pass over the matrix structure plus the
/// property traffic:
///
/// - matrix bytes: `nnz * 8` (4 B column idx + 4 B value),
/// - input-property reads: `nnz * K * 4 * (1 - input_reuse)` — on-chip
///   buffering captures a fraction `input_reuse` of repeated property
///   reads (SPADE's row-window reuse; MKL's cache blocking),
/// - output writes: `rows * K * 4`,
///
/// bounded below by the FLOP roofline `2 * nnz * K / peak_flops`.
///
/// # Example
///
/// ```
/// use netsparse_accel::{ComputeEngine, ComputeModel};
/// let spade = ComputeModel::new(ComputeEngine::Spade);
/// let t = spade.spmm_time(1_000_000, 10_000, 16);
/// assert!(t > 0.0 && t < 1.0); // seconds
/// // The HBM CPU outruns the DDR CPU on the same kernel.
/// let ddr = ComputeModel::new(ComputeEngine::CpuDdr).spmm_time(1_000_000, 10_000, 16);
/// let hbm = ComputeModel::new(ComputeEngine::CpuHbm).spmm_time(1_000_000, 10_000, 16);
/// assert!(hbm < ddr);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeModel {
    /// The engine modeled.
    pub engine: ComputeEngine,
    /// Sustained memory bandwidth, bytes/second.
    pub mem_bw: f64,
    /// Peak multiply-accumulate throughput, FLOP/s.
    pub peak_flops: f64,
    /// Fraction of repeated input-property reads served on-chip.
    pub input_reuse: f64,
    /// Fraction of peak bandwidth sustained on sparse access patterns.
    pub bw_efficiency: f64,
}

impl ComputeModel {
    /// The calibrated model for `engine`.
    ///
    /// Bandwidths follow Table 5 / §9.6 (SPADE 800 GB/s HBM, SPR-DDR
    /// ~300 GB/s, SPR-HBM ~800 GB/s); efficiency factors are set so the
    /// relative single-node rates match the paper's observation that
    /// SPR+HBM approaches SPADE while SPR+DDR trails it.
    pub fn new(engine: ComputeEngine) -> Self {
        match engine {
            ComputeEngine::Spade => ComputeModel {
                engine,
                mem_bw: 800e9,
                // 128 PEs x 1 GHz x 2-flop MAC x 16-wide property lanes.
                peak_flops: 4_096e9,
                input_reuse: 0.5,
                bw_efficiency: 0.85,
            },
            ComputeEngine::CpuDdr => ComputeModel {
                engine,
                mem_bw: 300e9,
                peak_flops: 3_000e9,
                input_reuse: 0.5,
                bw_efficiency: 0.55,
            },
            ComputeEngine::CpuHbm => ComputeModel {
                engine,
                mem_bw: 800e9,
                peak_flops: 3_500e9,
                input_reuse: 0.5,
                bw_efficiency: 0.55,
            },
        }
    }

    /// Seconds to run SpMM over `nnz` nonzeros and `rows` output rows with
    /// K-element (`k`) single-precision properties on one node.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn spmm_time(&self, nnz: u64, rows: u64, k: u32) -> f64 {
        assert!(k > 0, "property size must be nonzero");
        let prop = 4.0 * k as f64;
        let bytes =
            nnz as f64 * 8.0 + nnz as f64 * prop * (1.0 - self.input_reuse) + rows as f64 * prop;
        let mem_time = bytes / (self.mem_bw * self.bw_efficiency);
        let flops = 2.0 * nnz as f64 * k as f64;
        let flop_time = flops / self.peak_flops;
        mem_time.max(flop_time)
    }

    /// Seconds for an SDDMM over the same structure (two dense reads per
    /// nonzero, one scalar write).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn sddmm_time(&self, nnz: u64, k: u32) -> f64 {
        assert!(k > 0, "property size must be nonzero");
        let prop = 4.0 * k as f64;
        let bytes = nnz as f64 * (8.0 + 2.0 * prop * (1.0 - self.input_reuse) + 4.0);
        let mem_time = bytes / (self.mem_bw * self.bw_efficiency);
        let flop_time = 2.0 * nnz as f64 * k as f64 / self.peak_flops;
        mem_time.max(flop_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spmm_time_scales_linearly_in_nnz() {
        let m = ComputeModel::new(ComputeEngine::Spade);
        let t1 = m.spmm_time(1_000_000, 1_000, 16);
        let t2 = m.spmm_time(2_000_000, 1_000, 16);
        assert!(t2 > t1 * 1.8 && t2 < t1 * 2.2);
    }

    #[test]
    fn spmm_time_grows_with_k() {
        let m = ComputeModel::new(ComputeEngine::Spade);
        assert!(m.spmm_time(1_000_000, 1_000, 128) > m.spmm_time(1_000_000, 1_000, 16));
    }

    #[test]
    fn spade_is_memory_bound_at_small_k() {
        let m = ComputeModel::new(ComputeEngine::Spade);
        // At K=16 the memory term dominates the flop term.
        let nnz = 1_000_000u64;
        let flop_time = 2.0 * nnz as f64 * 16.0 / m.peak_flops;
        assert!(m.spmm_time(nnz, 1_000, 16) > flop_time);
    }

    #[test]
    fn engine_ordering_matches_paper() {
        // Single-node rates: SPADE >= SPR+HBM > SPR+DDR.
        let nnz = 10_000_000u64;
        let spade = ComputeModel::new(ComputeEngine::Spade).spmm_time(nnz, 100_000, 128);
        let hbm = ComputeModel::new(ComputeEngine::CpuHbm).spmm_time(nnz, 100_000, 128);
        let ddr = ComputeModel::new(ComputeEngine::CpuDdr).spmm_time(nnz, 100_000, 128);
        assert!(spade < hbm && hbm < ddr, "{spade} {hbm} {ddr}");
    }

    #[test]
    fn sddmm_time_positive_and_bandwidth_bound() {
        let m = ComputeModel::new(ComputeEngine::CpuDdr);
        assert!(m.sddmm_time(500_000, 32) > 0.0);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_k_rejected() {
        ComputeModel::new(ComputeEngine::Spade).spmm_time(10, 10, 0);
    }
}
