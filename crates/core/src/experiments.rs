//! High-level experiment drivers shared by the bench harness, examples
//! and integration tests.
//!
//! Each paper experiment composes three things: a calibrated workload
//! (generated once per matrix and reused across property sizes), a
//! [`ClusterConfig`], and either the full simulation, the analytic
//! baselines, or both. The bench crate's binaries do the sweeping and
//! table formatting; the building blocks live here.

use netsparse_accel::{ComputeEngine, ComputeModel};
use netsparse_netsim::Topology;
use netsparse_sparse::suite::SuiteConfig;
use netsparse_sparse::{CommWorkload, SuiteMatrix};

use crate::baselines::{Baselines, CommComparison};
use crate::config::ClusterConfig;
use crate::metrics::SimReport;
use crate::sim::simulate;

/// The three sparse kernels of the paper (§2.1). Their *communication*
/// pattern is identical — a remote indexed gather of K-element input
/// properties driven by the nonzero column ids — so one simulated gather
/// serves all three; only the compute-side cost differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SparseKernel {
    /// Sparse matrix x dense vector (K = 1).
    SpMV,
    /// Sparse matrix x tall-skinny dense matrix.
    SpMM {
        /// Property width in elements.
        k: u32,
    },
    /// Sampled dense-dense multiply over the nonzero pattern.
    Sddmm {
        /// Property width in elements.
        k: u32,
    },
}

impl SparseKernel {
    /// The property width this kernel gathers.
    pub fn k(&self) -> u32 {
        match *self {
            SparseKernel::SpMV => 1,
            SparseKernel::SpMM { k } | SparseKernel::Sddmm { k } => k,
        }
    }

    /// Per-node compute time under `model`.
    pub fn compute_time(&self, model: &ComputeModel, nnz: u64, rows: u64) -> f64 {
        match *self {
            SparseKernel::SpMV => model.spmm_time(nnz, rows, 1),
            SparseKernel::SpMM { k } => model.spmm_time(nnz, rows, k),
            SparseKernel::Sddmm { k } => model.sddmm_time(nnz, k),
        }
    }
}

/// A matrix's workload pinned to a cluster size, reused across runs.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Which benchmark matrix.
    pub matrix: SuiteMatrix,
    /// The generated communication workload.
    pub wl: CommWorkload,
}

impl Experiment {
    /// Generates `matrix` for a 128-node, rack-of-16 cluster at `scale`.
    pub fn new(matrix: SuiteMatrix, scale: f64, seed: u64) -> Self {
        Experiment {
            matrix,
            wl: matrix.workload(scale, seed),
        }
    }

    /// Generates `matrix` for an arbitrary cluster shape.
    pub fn with_cluster(
        matrix: SuiteMatrix,
        nodes: u32,
        rack_size: u32,
        scale: f64,
        seed: u64,
    ) -> Self {
        Experiment {
            matrix,
            wl: SuiteConfig {
                matrix,
                nodes,
                rack_size,
                scale,
                seed,
            }
            .generate(),
        }
    }

    /// Runs the NetSparse simulation under `cfg`.
    pub fn run(&self, cfg: &ClusterConfig) -> SimReport {
        simulate(cfg, &self.wl)
    }

    /// Runs the simulation with a structured trace capture attached; the
    /// report's `trace` field carries the buffer, timeline and digest.
    #[cfg(feature = "trace")]
    pub fn run_traced(&self, cfg: &ClusterConfig, tcfg: netsparse_desim::TraceConfig) -> SimReport {
        crate::sim::simulate_traced(cfg, &self.wl, tcfg)
    }

    /// Runs the simulation and compares against the software baselines at
    /// the same line rate (Figure 12's bars for one matrix and K).
    pub fn compare(&self, cfg: &ClusterConfig) -> (CommComparison, SimReport) {
        let report = self.run(cfg);
        let baselines = Baselines::for_line_rate(cfg.link.bandwidth_bps / 1e9);
        let cmp = CommComparison::new(&baselines, &self.wl, &report);
        (cmp, report)
    }

    /// Runs the five cumulative ablation stages of Table 8.
    pub fn ablation(&self, base_cfg: &ClusterConfig) -> Vec<AblationRow> {
        crate::config::Mechanisms::ablation_stages()
            .into_iter()
            .map(|(name, mechanisms)| {
                let mut cfg = base_cfg.clone();
                cfg.mechanisms = mechanisms;
                let (cmp, report) = self.compare(&cfg);
                let su_tail_bytes = self.su_tail_bytes(&report);
                AblationRow {
                    stage: name,
                    speedup_vs_su: cmp.netsparse_over_su(),
                    traffic_reduction_vs_su: su_tail_bytes as f64
                        / report.tail().rx_wire_bytes.max(1) as f64,
                    goodput: report.tail_goodput(),
                }
            })
            .collect()
    }

    /// SUOpt bytes the simulated tail node would have received.
    fn su_tail_bytes(&self, report: &SimReport) -> u64 {
        self.wl.su_received(report.tail_node() as u32) * 4 * report.k as u64
    }

    /// Full end-to-end SpMM comparison (Figures 13/14/21).
    pub fn end_to_end(&self, cfg: &ClusterConfig, engine: ComputeEngine) -> EndToEnd {
        let report = self.run(cfg);
        self.end_to_end_from(cfg, engine, &report)
    }

    /// End-to-end comparison for any of the paper's kernels (§2.1). The
    /// gather is identical across kernels at equal K — one simulation at
    /// `kernel.k()` serves — but the compute roofline differs.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.k` differs from the kernel's property width.
    pub fn end_to_end_kernel(
        &self,
        cfg: &ClusterConfig,
        engine: ComputeEngine,
        kernel: SparseKernel,
    ) -> EndToEnd {
        assert_eq!(
            cfg.k,
            kernel.k(),
            "cluster K must match the kernel's property width"
        );
        let report = self.run(cfg);
        self.end_to_end_with(cfg, engine, kernel, &report)
    }

    /// Like [`Experiment::end_to_end`], but reusing an existing simulation
    /// report (the compute engine only affects the analytic compute side,
    /// so one simulation serves several engines).
    pub fn end_to_end_from(
        &self,
        cfg: &ClusterConfig,
        engine: ComputeEngine,
        report: &SimReport,
    ) -> EndToEnd {
        self.end_to_end_with(cfg, engine, SparseKernel::SpMM { k: cfg.k }, report)
    }

    fn end_to_end_with(
        &self,
        cfg: &ClusterConfig,
        engine: ComputeEngine,
        kernel: SparseKernel,
        report: &SimReport,
    ) -> EndToEnd {
        let baselines = Baselines::for_line_rate(cfg.link.bandwidth_bps / 1e9);
        // The mini profile scales every bandwidth of the machine by the
        // same factor (network 400 -> 100 Gbps); the node's memory system
        // scales with it, or the compute/communication ratios of
        // Figures 13/14/21 would be distorted by exactly that factor.
        let bw_scale = cfg.link.bandwidth_bps / 400e9;
        let mut model = ComputeModel::new(engine);
        model.mem_bw *= bw_scale;
        model.peak_flops *= bw_scale;
        let k = cfg.k;
        let wl = &self.wl;

        let total_rows: u64 = (0..wl.nodes()).map(|p| wl.rows_of(p) as u64).sum();
        let t1 = kernel.compute_time(&model, wl.total_nnz(), total_rows);
        let comp: Vec<f64> = (0..wl.nodes())
            .map(|p| kernel.compute_time(&model, wl.stream(p).len() as u64, wl.rows_of(p) as u64))
            .collect();
        let sa_comm: Vec<f64> = baselines
            .sa
            .node_pr_counts(wl)
            .into_iter()
            .map(|prs| baselines.sa.comm_time(prs, k))
            .collect();

        // Communication and computation partially overlap: per node the
        // kernel takes max(comp, comm).
        let kernel_time = |comm: &dyn Fn(usize) -> f64| {
            comp.iter()
                .enumerate()
                .map(|(p, &c)| c.max(comm(p)))
                .fold(0.0f64, f64::max)
        };
        let t_netsparse = kernel_time(&|p| report.nodes[p].finish.as_secs_f64());
        let t_su = kernel_time(&|p| baselines.su.comm_time(wl.su_received(p as u32), k));
        let t_sa = kernel_time(&|p| sa_comm[p]);
        let t_ideal = comp.iter().copied().fold(0.0f64, f64::max);

        let tail = report.tail_node();
        EndToEnd {
            engine,
            k,
            speedup_su: t1 / t_su,
            speedup_sa: t1 / t_sa,
            speedup_netsparse: t1 / t_netsparse,
            speedup_ideal: t1 / t_ideal,
            tail_comp_s: comp[tail],
            tail_comm_netsparse_s: report.nodes[tail].finish.as_secs_f64(),
            tail_comm_sa_s: sa_comm[tail],
        }
    }
}

/// One row of the Table 8 ablation.
#[derive(Debug, Clone, Copy)]
pub struct AblationRow {
    /// Mechanism stage name (RIG, Filter, Coalesce, ConcNIC, Switch).
    pub stage: &'static str,
    /// Communication speedup over SUOpt ("Spd").
    pub speedup_vs_su: f64,
    /// Tail-node traffic reduction over SUOpt ("-Trfc").
    pub traffic_reduction_vs_su: f64,
    /// Tail-node goodput ("Gput").
    pub goodput: f64,
}

/// End-to-end strong-scaling results (one matrix, one K, one engine).
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Compute engine used.
    pub engine: ComputeEngine,
    /// Property size.
    pub k: u32,
    /// 128-node speedup over 1 node with SUOpt communication.
    pub speedup_su: f64,
    /// … with SAOpt communication.
    pub speedup_sa: f64,
    /// … with NetSparse communication.
    pub speedup_netsparse: f64,
    /// … with free communication (the dashed ideal).
    pub speedup_ideal: f64,
    /// Tail node's compute time (seconds).
    pub tail_comp_s: f64,
    /// Tail node's NetSparse communication time (seconds).
    pub tail_comm_netsparse_s: f64,
    /// Tail node's SAOpt communication time (seconds).
    pub tail_comm_sa_s: f64,
}

/// The topology set of Figure 22.
pub fn figure22_topologies() -> [(&'static str, Topology); 3] {
    [
        ("Leaf-Spine", Topology::leaf_spine_128()),
        ("HyperX", Topology::hyperx_128()),
        ("Dragonfly", Topology::dragonfly_128()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsparse_netsim::Topology;

    fn tiny_experiment() -> Experiment {
        Experiment::with_cluster(SuiteMatrix::Queen, 8, 4, 0.02, 3)
    }

    fn tiny_cfg(k: u32) -> ClusterConfig {
        ClusterConfig::mini(
            Topology::LeafSpine {
                racks: 2,
                rack_size: 4,
                spines: 2,
            },
            k,
        )
    }

    #[test]
    fn compare_produces_positive_speedups() {
        let e = tiny_experiment();
        let (cmp, report) = e.compare(&tiny_cfg(16));
        assert!(report.functional_check_passed);
        assert!(cmp.netsparse_over_su() > 0.0);
        assert!(cmp.sa_over_su() > 0.0);
    }

    #[test]
    fn ablation_has_five_cumulative_stages() {
        let e = tiny_experiment();
        let rows = e.ablation(&tiny_cfg(16));
        assert_eq!(rows.len(), 5);
        // The full design should not be slower than RIG-only.
        assert!(rows[4].speedup_vs_su >= rows[0].speedup_vs_su * 0.8);
        // Traffic monotonically improves for queen (heavy reuse).
        assert!(rows[4].traffic_reduction_vs_su > rows[0].traffic_reduction_vs_su);
    }

    #[test]
    fn end_to_end_speedups_are_ordered() {
        let e = tiny_experiment();
        let r = e.end_to_end(&tiny_cfg(16), ComputeEngine::Spade);
        assert!(r.speedup_ideal >= r.speedup_netsparse);
        assert!(r.speedup_netsparse >= r.speedup_sa * 0.9);
        assert!(r.speedup_ideal > 0.0);
    }

    #[test]
    fn kernels_share_the_gather_but_not_the_compute() {
        let e = tiny_experiment();
        let spmm = e.end_to_end_kernel(
            &tiny_cfg(16),
            ComputeEngine::Spade,
            SparseKernel::SpMM { k: 16 },
        );
        let sddmm = e.end_to_end_kernel(
            &tiny_cfg(16),
            ComputeEngine::Spade,
            SparseKernel::Sddmm { k: 16 },
        );
        let spmv = e.end_to_end_kernel(&tiny_cfg(1), ComputeEngine::Spade, SparseKernel::SpMV);
        // Same ordering invariants hold for every kernel.
        for r in [spmm, sddmm, spmv] {
            assert!(r.speedup_ideal >= r.speedup_netsparse);
            assert!(r.speedup_netsparse > 0.0);
        }
        // SDDMM's compute profile differs from SpMM's.
        assert!(spmm.tail_comp_s != sddmm.tail_comp_s);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn kernel_k_mismatch_panics() {
        let e = tiny_experiment();
        e.end_to_end_kernel(&tiny_cfg(16), ComputeEngine::Spade, SparseKernel::SpMV);
    }
}
