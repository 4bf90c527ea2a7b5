//! SUOpt / SAOpt baselines and baseline-vs-NetSparse comparisons (§8.1).

use netsparse_accel::{SaOptModel, SuOptModel};
use netsparse_sparse::CommWorkload;

use crate::metrics::SimReport;

/// The two idealized software baselines, configured for one cluster.
#[derive(Debug, Clone, Copy)]
pub struct Baselines {
    /// The sparsity-unaware optimum.
    pub su: SuOptModel,
    /// The Conveyors-augmented sparsity-aware baseline.
    pub sa: SaOptModel,
}

impl Baselines {
    /// Baselines at the paper's 400 Gbps line rate.
    pub fn paper() -> Self {
        Baselines {
            su: SuOptModel::new(400.0),
            sa: SaOptModel::paper(),
        }
    }

    /// Baselines matched to a simulated line rate (the mini profile runs
    /// at 100 Gbps; the baselines must see the same wire).
    ///
    /// SAOpt's per-PR software cost is a *fixed* real-time cost; on a
    /// scaled-down machine it would claim a smaller share of the kernel
    /// than it does at paper scale. To keep SAOpt's position relative to
    /// SUOpt invariant under the scaling (both are bandwidth-normalized),
    /// the per-PR cost is scaled by `400 / line_rate` — at 400 Gbps this
    /// is exactly the paper-calibrated value.
    pub fn for_line_rate(gbps: f64) -> Self {
        let paper = SaOptModel::paper();
        Baselines {
            su: SuOptModel::new(gbps),
            sa: SaOptModel {
                line_rate_gbps: gbps,
                per_pr_ns: paper.per_pr_ns * (400.0 / gbps),
                ..paper
            },
        }
    }
}

/// Communication-time comparison for one workload and property size
/// (the data behind Figure 12 and Table 8's speedup columns).
#[derive(Debug, Clone, Copy)]
pub struct CommComparison {
    /// Property size in elements.
    pub k: u32,
    /// SUOpt kernel communication time, seconds.
    pub su_time: f64,
    /// SAOpt kernel communication time, seconds.
    pub sa_time: f64,
    /// NetSparse simulated communication time, seconds.
    pub netsparse_time: f64,
}

impl CommComparison {
    /// Builds the comparison from the analytic baselines and a simulation
    /// report.
    pub fn new(baselines: &Baselines, wl: &CommWorkload, report: &SimReport) -> Self {
        Self::with_sa_prs(baselines, wl, report, &baselines.sa.node_pr_counts(wl))
    }

    /// [`CommComparison::new`], given SAOpt's PR count of every node
    /// ([`SaOptModel::node_pr_counts`]). The counts depend only on the
    /// workload and SAOpt's core count, so one count serves every K.
    pub fn with_sa_prs(
        baselines: &Baselines,
        wl: &CommWorkload,
        report: &SimReport,
        sa_prs: &[u64],
    ) -> Self {
        CommComparison {
            k: report.k,
            su_time: baselines.su.kernel_comm_time(wl, report.k),
            sa_time: baselines.sa.kernel_comm_time_of(sa_prs, report.k),
            netsparse_time: report.comm_time_s(),
        }
    }

    /// NetSparse speedup over SUOpt (Figure 12's main series).
    pub fn netsparse_over_su(&self) -> f64 {
        safe_ratio(self.su_time, self.netsparse_time)
    }

    /// SAOpt speedup over SUOpt (Figure 12's second series).
    pub fn sa_over_su(&self) -> f64 {
        safe_ratio(self.su_time, self.sa_time)
    }

    /// NetSparse speedup over SAOpt.
    pub fn netsparse_over_sa(&self) -> f64 {
        safe_ratio(self.sa_time, self.netsparse_time)
    }
}

fn safe_ratio(num: f64, den: f64) -> f64 {
    if den <= 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Geometric mean of a nonempty slice (0 for empty input).
pub fn gmean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-300).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gmean_of_constants() {
        assert!((gmean(&[4.0, 4.0, 4.0]) - 4.0).abs() < 1e-12);
        assert!((gmean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(gmean(&[]), 0.0);
    }

    #[test]
    fn ratios_guard_division_by_zero() {
        let c = CommComparison {
            k: 16,
            su_time: 1.0,
            sa_time: 0.0,
            netsparse_time: 0.0,
        };
        assert_eq!(c.netsparse_over_su(), 0.0);
        assert_eq!(c.sa_over_su(), 0.0);
    }

    #[test]
    fn baselines_share_line_rate() {
        let b = Baselines::for_line_rate(100.0);
        assert_eq!(b.su.line_rate_gbps, 100.0);
        assert_eq!(b.sa.line_rate_gbps, 100.0);
    }
}
