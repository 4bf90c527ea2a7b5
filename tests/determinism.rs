//! Determinism regression: two same-seed end-to-end cluster simulations
//! must be bit-identical — same metrics, and (when auditing is compiled
//! in) the same event-stream digest from the engine's auditor.
//!
//! This is the strongest cheap check against nondeterminism creeping back
//! into the stack (unordered map iteration, wall-clock leakage, foreign
//! RNGs): any divergence in event timing or ordering changes the digest.
//!
//! The seed-7 point is also pinned to committed constants, with every
//! mechanism on and again with in-network reduction, so a change that
//! moves the simulated behaviour fails here even though it is still
//! deterministic. The trace-level pins live in `trace_golden.rs`, which
//! needs the `trace` feature.

use netsparse::config::ReduceConfig;
use netsparse::{simulate, ClusterConfig, SimReport};
use netsparse_netsim::Topology;
use netsparse_sparse::suite::SuiteConfig;
use netsparse_sparse::SuiteMatrix;

/// One committed seed-7 point: `events`, `comm_time`, `total_link_bytes`
/// and, when the auditor is compiled in, the engine's event digest.
struct Pin {
    events: u64,
    comm_time_ps: u64,
    total_link_bytes: u64,
    audit_digest: u64,
}

/// The seed-7 point with every mechanism on (the `mini` default).
const ALL_SEED7: Pin = Pin {
    events: 1_531,
    comm_time_ps: 7_113_473,
    total_link_bytes: 757_250,
    audit_digest: 0x9a4a_0ff8_727f_6ebf,
};

/// The seed-7 point with scatter contributions merged in the ToRs.
const REDUCE_SEED7: Pin = Pin {
    events: 3_045,
    comm_time_ps: 9_936_345,
    total_link_bytes: 1_249_122,
    audit_digest: 0x6d39_f3e8_b6da_033f,
};

fn topo() -> Topology {
    Topology::LeafSpine {
        racks: 2,
        rack_size: 4,
        spines: 2,
    }
}

/// The `mini` profile on the 2 × 4 leaf-spine, every mechanism on.
fn mini() -> ClusterConfig {
    ClusterConfig::mini(topo(), 16)
}

fn run(seed: u64, cfg: &ClusterConfig) -> SimReport {
    let wl = SuiteConfig {
        matrix: SuiteMatrix::Uk,
        nodes: 8,
        rack_size: 4,
        scale: 0.1,
        seed,
    }
    .generate();
    simulate(cfg, &wl)
}

fn assert_pinned(label: &str, r: &SimReport, pin: &Pin) {
    assert!(
        r.functional_check_passed,
        "{label}: functional check failed"
    );
    assert_eq!(r.events, pin.events, "{label}: event count changed");
    assert_eq!(
        r.comm_time.as_ps(),
        pin.comm_time_ps,
        "{label}: comm_time changed"
    );
    assert_eq!(
        r.total_link_bytes, pin.total_link_bytes,
        "{label}: link bytes changed"
    );
    if let Some(d) = r.audit_digest {
        assert_eq!(
            d, pin.audit_digest,
            "{label}: event digest changed: {d:#018x}"
        );
    }
}

fn assert_identical(a: &SimReport, b: &SimReport) {
    assert_eq!(a.comm_time, b.comm_time, "comm_time diverged");
    assert_eq!(a.events, b.events, "event count diverged");
    assert_eq!(
        a.total_link_bytes, b.total_link_bytes,
        "link bytes diverged"
    );
    assert_eq!(a.cache_lookups, b.cache_lookups, "cache lookups diverged");
    assert_eq!(a.cache_hits, b.cache_hits, "cache hits diverged");
    assert_eq!(
        a.max_link_backlog_bytes, b.max_link_backlog_bytes,
        "backlog diverged"
    );
    for (x, y) in a.nodes.iter().zip(&b.nodes) {
        assert_eq!(x.finish, y.finish, "node finish time diverged");
        assert_eq!(x.issued, y.issued, "node issue count diverged");
        assert_eq!(x.responses, y.responses, "node response count diverged");
    }
    // The engine digest folds every (time, seq) pair delivered: equality
    // means the two event streams were identical, not merely that the
    // summary statistics agree.
    assert_eq!(a.audit_digest, b.audit_digest, "event digest diverged");
}

#[test]
fn same_seed_runs_are_bit_identical() {
    let a = run(7, &mini());
    let b = run(7, &mini());
    assert!(a.functional_check_passed && b.functional_check_passed);
    assert_identical(&a, &b);
}

#[test]
fn different_seeds_diverge() {
    // Guard against the digest being vacuous (e.g. always None/0): two
    // different workload seeds must produce different event streams.
    let a = run(7, &mini());
    let b = run(8, &mini());
    assert!(
        a.events != b.events || a.comm_time != b.comm_time || a.audit_digest != b.audit_digest,
        "different seeds produced indistinguishable runs"
    );
}

#[test]
fn digest_present_when_auditing() {
    // Debug builds (and `--features audit`) compile the auditor in; the
    // report must then carry a digest covering every processed event.
    let r = run(7, &mini());
    if cfg!(any(debug_assertions, feature = "audit")) {
        assert!(
            r.audit_digest.is_some(),
            "auditor compiled in but no digest"
        );
    }
    assert!(r.events > 0);
}

#[test]
fn seed7_matches_the_committed_pins() {
    assert_pinned("all mechanisms", &run(7, &mini()), &ALL_SEED7);
    let mut cfg = mini();
    cfg.reduce = ReduceConfig::in_network();
    let r = run(7, &cfg);
    let reduce = r.reduce.as_ref().expect("reduction runs report it");
    assert!(reduce.merges > 0, "the ToRs must merge contributions");
    assert_pinned("in-network reduction", &r, &REDUCE_SEED7);
}
