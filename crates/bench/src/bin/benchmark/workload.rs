//! The four benchmark workloads and the input each generates.
//!
//! Every workload runs on the 128-node leaf-spine cluster of the paper's
//! evaluation, in the scaled `mini` profile, at property size K = 16, on
//! one matrix generated from the run's seed at [`SCALE`] (about 17 M
//! nonzeros; 12.6 M for europe).

use netsparse::config::{ConcatImpl, FaultConfig};
use netsparse::prelude::*;
use netsparse_snic::vconcat::VirtualCqConfig;

/// Scale of the generated matrix (1.0 ≈ 128 k nonzeros per node).
pub const SCALE: f64 = 1.0;

/// One benchmark workload: a matrix shape plus a cluster configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// uk with every mechanism: handler-heavy (filter, coalescing,
    /// Property Cache, concatenation all do real work).
    UkFull,
    /// The same uk input with every handler bypassed: each remote idx is
    /// its own packet, so the run is bound by the event queue and links.
    UkRigOnly,
    /// europe with every mechanism: almost no reuse, so concatenation and
    /// links do the work while filter and cache do almost none.
    EuropeFull,
    /// arabic with in-network reduction, virtual CQs and 0.5% loss under
    /// a watchdog: the only workload on the reduce, virtual-CQ and
    /// recovery paths.
    ArabicExt,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::UkFull,
        Workload::UkRigOnly,
        Workload::EuropeFull,
        Workload::ArabicExt,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::UkFull => "uk_full",
            Workload::UkRigOnly => "uk_rigonly",
            Workload::EuropeFull => "europe_full",
            Workload::ArabicExt => "arabic_ext",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The matrix whose calibrated signature the inputs are drawn from.
    pub fn matrix(self) -> SuiteMatrix {
        match self {
            Workload::UkFull | Workload::UkRigOnly => SuiteMatrix::Uk,
            Workload::EuropeFull => SuiteMatrix::Europe,
            Workload::ArabicExt => SuiteMatrix::Arabic,
        }
    }

    /// The cluster configuration for the input generated from `seed`
    /// (only the fault workload's loss process uses it).
    pub fn config(self, seed: u64) -> ClusterConfig {
        let mut cfg = ClusterConfig::mini(Topology::leaf_spine_128(), 16);
        match self {
            Workload::UkFull | Workload::EuropeFull => {}
            Workload::UkRigOnly => cfg.mechanisms = Mechanisms::rig_only(),
            Workload::ArabicExt => {
                cfg.reduce = ReduceConfig::in_network();
                cfg.concat_impl = ConcatImpl::Virtual(VirtualCqConfig::paper_sketch());
                cfg.faults = FaultConfig::builder()
                    .bernoulli_loss(0.005)
                    .watchdog_ns(50_000)
                    .seed(seed ^ 0xFA17_5EED)
                    .build()
                    .expect("the fault workload's loss model is a valid constant");
            }
        }
        cfg
    }

    /// Generates the input drawn from `seed`, at `scale`.
    pub fn instance(self, seed: u64, scale: f64) -> Instance {
        let wl = SuiteConfig {
            matrix: self.matrix(),
            nodes: 128,
            rack_size: 16,
            scale,
            seed,
        }
        .generate();
        Instance {
            cfg: self.config(seed),
            wl,
        }
    }
}

/// One generated input with the configuration it runs under.
pub struct Instance {
    /// The cluster configuration.
    pub cfg: ClusterConfig,
    /// The generated communication workload.
    pub wl: CommWorkload,
}

impl Instance {
    /// The Fig. 12 / Table 7 comparison one simulated cell pays: SUOpt
    /// and SAOpt times against the report, plus the tail node's SUOpt
    /// bytes. Returns `(comparison, tail SUOpt bytes)`.
    pub fn compare(&self, r: &SimReport) -> (CommComparison, u64) {
        let baselines = Baselines::for_line_rate(self.cfg.link.bandwidth_bps / 1e9);
        let cmp = CommComparison::new(&baselines, &self.wl, r);
        let stats = self.wl.pattern_stats();
        let su_tail = stats.per_node[r.tail_node()].su_received * 4 * r.k as u64;
        (cmp, su_tail)
    }
}
