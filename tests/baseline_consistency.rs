//! Consistency of the analytic baselines with each other and with the
//! simulated system: orderings the paper reports must emerge here too.

use netsparse::baselines::{gmean, Baselines};
use netsparse::experiments::Experiment;
use netsparse::prelude::*;

fn exp(m: SuiteMatrix) -> Experiment {
    Experiment::with_cluster(m, 32, 8, 0.08, 33)
}

fn cfg(k: u32) -> ClusterConfig {
    ClusterConfig::mini(
        Topology::LeafSpine {
            racks: 4,
            rack_size: 8,
            spines: 4,
        },
        k,
    )
}

#[test]
fn netsparse_beats_both_baselines_on_the_gmean() {
    let mut over_su = Vec::new();
    let mut over_sa = Vec::new();
    for m in SuiteMatrix::ALL {
        let e = exp(m);
        let (cmp, _) = e.compare(&cfg(16));
        over_su.push(cmp.netsparse_over_su());
        over_sa.push(cmp.netsparse_over_sa());
    }
    assert!(gmean(&over_su) > 3.0, "vs SUOpt: {over_su:?}");
    assert!(gmean(&over_sa) > 3.0, "vs SAOpt: {over_sa:?}");
}

#[test]
fn speedups_grow_with_property_size() {
    // Paper: SUOpt is favored by small properties, so NetSparse's and
    // SAOpt's speedups over SUOpt increase with K.
    let e = exp(SuiteMatrix::Arabic);
    let mut ns = Vec::new();
    for k in [1u32, 16, 128] {
        let (cmp, _) = e.compare(&cfg(k));
        ns.push(cmp.netsparse_over_su());
    }
    assert!(ns[0] < ns[1] && ns[1] < ns[2], "{ns:?}");
}

#[test]
fn saopt_loses_to_suopt_on_stokes() {
    // Paper Figure 12: SAOpt performs worse than SUOpt for stokes (its
    // SU redundancy is lowest, so the dense schedule is nearly free).
    let e = exp(SuiteMatrix::Stokes);
    let (cmp, _) = e.compare(&cfg(1));
    assert!(
        cmp.sa_over_su() < 1.0,
        "stokes K=1 SAOpt/SUOpt = {}",
        cmp.sa_over_su()
    );
}

#[test]
fn su_baseline_time_matches_closed_form() {
    let e = exp(SuiteMatrix::Queen);
    let b = Baselines::for_line_rate(100.0);
    let stats = e.wl.pattern_stats();
    let max_recv = stats.per_node.iter().map(|n| n.su_received).max().unwrap();
    let expect = max_recv as f64 * 64.0 * 8.0 / 100e9;
    let got = b.su.kernel_comm_time(&e.wl, 16);
    assert!((got - expect).abs() < 1e-12);
}

#[test]
fn saopt_pr_counts_bound_by_refs_and_unique() {
    let e = exp(SuiteMatrix::Uk);
    let b = Baselines::for_line_rate(100.0);
    let stats = e.wl.pattern_stats();
    for p in 0..e.wl.nodes() {
        let prs = b.sa.node_pr_count(&e.wl, p);
        let node = &stats.per_node[p as usize];
        assert!(prs >= node.unique_remote, "node {p}");
        assert!(prs <= node.remote_refs, "node {p}");
    }
}

/// The analytic layer's outputs on two inputs, pinned from the hash-set
/// implementation the column-bitset passes replaced: queen reuses its
/// remote columns heavily, europe hardly at all.
#[test]
fn analytic_outputs_match_pinned_values() {
    struct Pinned {
        matrix: SuiteMatrix,
        /// `PatternStats` totals: nnz, remote refs, unique remote, SU
        /// transfers.
        totals: [u64; 4],
        /// SAOpt per-node PR counts: their sum and a digest of the list.
        prs: (u64, u64),
        /// `f64::to_bits` of the SAOpt kernel time, the SAOpt tail
        /// goodput, the hybrid kernel time, rack sharing (racks of 8) and
        /// destination locality (windows of 64).
        floats: [u64; 5],
        /// `f64::to_bits` of the hybrid at popularity thresholds 4, 1 and
        /// 0: queen broadcasts at the last two, europe at all three.
        hybrid_at: [u64; 3],
    }
    let pins = [
        Pinned {
            matrix: SuiteMatrix::Queen,
            totals: [336_791, 191_380, 7_496, 554_590],
            prs: (57_883, 0xae12_69dc_906e_af51),
            floats: [
                0x3f29_058a_837c_20e3,
                0x3faa_36e2_eb1c_432d,
                0x3f26_8eb7_be47_cecc,
                0x3fd5_2417_806b_6fa2,
                0x3ff0_bb2e_cbb2_ecbb,
            ],
            hybrid_at: [
                0x3f29_058a_837c_20e3,
                0x3f24_a82d_b113_32e3,
                0x3ef8_3a9e_b65d_d063,
            ],
        },
        Pinned {
            matrix: SuiteMatrix::Europe,
            totals: [247_523, 24_331, 23_499, 15_102_611],
            prs: (24_329, 0x853a_d1d4_8800_a1f9),
            floats: [
                0x3f26_6673_d25f_b3c5,
                0x3faa_36e2_eb1c_432d,
                0x3f25_493d_60b3_9efe,
                0x3fb9_c4cf_802b_35e7,
                0x401b_76e8_37f4_cf0a,
            ],
            hybrid_at: [
                0x3f25_d62b_1a5f_fd97,
                0x3f24_c305_a3ad_ef92,
                0x3f1c_83b9_f66a_dcc1,
            ],
        },
    ];
    let b = Baselines::for_line_rate(100.0);
    for pin in pins {
        let wl = &exp(pin.matrix).wl;
        let s = wl.pattern_stats();
        let totals = [
            s.total_nnz(),
            s.total_remote_refs(),
            s.total_unique_remote(),
            s.total_su_transfers(),
        ];
        assert_eq!(totals, pin.totals, "{}", pin.matrix);
        let counts = b.sa.node_pr_counts(wl);
        let digest = counts
            .iter()
            .fold(0u64, |h, &c| h.wrapping_mul(1_000_003) ^ c);
        assert_eq!((counts.iter().sum(), digest), pin.prs, "{}", pin.matrix);
        let hybrid = netsparse_accel::HybridOptModel::new(b.sa);
        let floats = [
            b.sa.kernel_comm_time(wl, 16),
            b.sa.tail_goodput(wl, 16),
            hybrid.kernel_comm_time(wl, 16),
            wl.rack_sharing(8),
            wl.dest_locality(64),
        ];
        assert_eq!(floats.map(f64::to_bits), pin.floats, "{}", pin.matrix);
        let hybrid_at = [4, 1, 0].map(|t| hybrid.comm_time_at(wl, 16, t).to_bits());
        assert_eq!(hybrid_at, pin.hybrid_at, "{}", pin.matrix);
    }
}

#[test]
fn comparison_struct_is_self_consistent() {
    let e = exp(SuiteMatrix::Europe);
    let (cmp, report) = e.compare(&cfg(16));
    assert_eq!(cmp.k, 16);
    assert!((cmp.netsparse_time - report.comm_time_s()).abs() < 1e-15);
    let derived = cmp.netsparse_over_su() / cmp.netsparse_over_sa();
    assert!((derived - cmp.sa_over_su()).abs() / cmp.sa_over_su() < 1e-9);
}

#[test]
fn end_to_end_ideal_dominates_everything() {
    for m in [SuiteMatrix::Arabic, SuiteMatrix::Europe] {
        let e = exp(m);
        let r = e.end_to_end(&cfg(16), ComputeEngine::Spade);
        assert!(r.speedup_ideal >= r.speedup_netsparse);
        assert!(r.speedup_ideal >= r.speedup_sa);
        assert!(r.speedup_ideal >= r.speedup_su);
        assert!(r.speedup_netsparse >= r.speedup_su, "{m}: hw comm must win");
    }
}

#[test]
fn compute_engines_order_end_to_end_sensibly() {
    // Faster compute exposes communication more: the NetSparse advantage
    // over SAOpt grows from DDR to HBM (paper §9.6).
    let e = exp(SuiteMatrix::Arabic);
    let c = cfg(128);
    let report = e.run(&c);
    let ddr = e.end_to_end_from(&c, ComputeEngine::CpuDdr, &report);
    let hbm = e.end_to_end_from(&c, ComputeEngine::CpuHbm, &report);
    let adv_ddr = ddr.speedup_netsparse / ddr.speedup_sa;
    let adv_hbm = hbm.speedup_netsparse / hbm.speedup_sa;
    assert!(
        adv_hbm >= adv_ddr * 0.95,
        "DDR adv {adv_ddr}, HBM adv {adv_hbm}"
    );
}

#[test]
fn vanilla_sa_is_orders_of_magnitude_below_line_rate() {
    let model = netsparse_accel::VanillaSaModel::paper();
    for dests in [1.0, 2.5, 7.4] {
        assert!(model.line_utilization(32, dests) < 0.01);
    }
}
