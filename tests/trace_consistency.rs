//! Trace-vs-metrics consistency: replaying the structured trace must
//! reproduce the simulator's own counters. The trace and the `SimReport`
//! are computed by *independent* code paths (per-record emission vs
//! accumulated statistics), so agreement here means neither side is
//! silently miscounting — the observability layer is a checksum on the
//! metrics layer and vice versa.
//!
//! Run with `--features audit` so the release-mode auditor is active
//! alongside the tracer (CI does; see `scripts/ci.sh`).

use netsparse::config::{ConcatImpl, FaultConfig};
use netsparse::prelude::*;
use netsparse::simulate_traced;
use netsparse_desim::trace::ReplayCounters;
use netsparse_desim::TraceConfig;
use netsparse_snic::vconcat::VirtualCqConfig;

fn topo() -> Topology {
    Topology::LeafSpine {
        racks: 2,
        rack_size: 4,
        spines: 2,
    }
}

fn workload(seed: u64) -> CommWorkload {
    SuiteConfig {
        matrix: SuiteMatrix::Uk,
        nodes: 8,
        rack_size: 4,
        scale: 0.1,
        seed,
    }
    .generate()
}

/// The mini profile with 2% Bernoulli loss and the watchdog armed.
fn lossy() -> ClusterConfig {
    let mut cfg = ClusterConfig::mini(topo(), 16);
    cfg.faults = FaultConfig::builder()
        .bernoulli_loss(0.02)
        .watchdog_ns(100_000)
        .seed(7)
        .build()
        .expect("test fault config is valid");
    cfg
}

fn traced(cfg: &ClusterConfig, wl: &CommWorkload) -> (SimReport, ReplayCounters) {
    let report = simulate_traced(cfg, wl, TraceConfig::default());
    let tr = report.trace.as_ref().expect("traced run carries a trace");
    assert_eq!(
        tr.buffer.dropped(),
        0,
        "test scale must not overflow the buffer"
    );
    let counters = ReplayCounters::replay(tr.buffer.records());
    (report, counters)
}

/// The cross-checks that hold for every run, faulted or not.
fn assert_consistent(r: &SimReport, c: &ReplayCounters) {
    let sum =
        |f: fn(&netsparse::metrics::NodeReport) -> u64| -> u64 { r.nodes.iter().map(f).sum() };
    assert_eq!(c.prs_issued, sum(|n| n.issued), "issued PRs");
    assert_eq!(c.filter_hits, sum(|n| n.filtered), "filter hits");
    assert_eq!(c.coalesced, sum(|n| n.coalesced), "coalesced idxs");
    assert_eq!(c.stalls, sum(|n| n.stalls), "stall events");
    // Every response PR is traced exactly once, as resolved or stale.
    assert_eq!(
        c.prs_resolved + c.stale_responses,
        sum(|n| n.responses),
        "responses"
    );
    assert_eq!(c.cache_lookups, r.cache_lookups, "cache lookups");
    assert_eq!(c.cache_hits, r.cache_hits, "cache hits");
    assert_eq!(
        c.cache_misses,
        r.cache_lookups - r.cache_hits,
        "cache misses"
    );
    // Concatenation: one flush record per packet the histogram saw,
    // carrying exactly the histogram's PR total.
    assert_eq!(c.flushes, r.prs_per_packet.count(), "flush count");
    assert_eq!(c.flushed_prs, r.prs_per_packet.sum(), "flushed PRs");
    // Only network links are traced, so the byte totals line up 1:1.
    assert_eq!(c.link_bytes, r.total_link_bytes, "link bytes");
    assert_eq!(
        c.watchdog_retries,
        sum(|n| n.watchdog_retries),
        "watchdog retries"
    );
}

#[test]
fn fault_free_trace_replays_to_the_report() {
    let wl = workload(7);
    let cfg = ClusterConfig::mini(topo(), 16);
    let (r, c) = traced(&cfg, &wl);
    assert!(r.functional_check_passed);
    assert_consistent(&r, &c);
    // Fault-free: every command completes, nothing drops, nothing stale.
    assert_eq!(c.cmds_issued, c.cmds_completed, "command lifecycle");
    assert!(c.cmds_issued > 0);
    assert_eq!(c.dropped_loss + c.dropped_dead, 0);
    assert_eq!(c.stale_responses, 0);
    assert_eq!(c.fault_transitions, 0);
}

/// The tracer observes and never perturbs: with its capture cleared, a
/// traced report prints exactly as the untraced report of the same point
/// (the audit digest included, in builds that audit).
#[test]
fn tracing_never_perturbs_the_report() {
    let mut reduce = ClusterConfig::mini(topo(), 16);
    reduce.reduce = ReduceConfig::in_network();
    reduce.concat_impl = ConcatImpl::Virtual(VirtualCqConfig::paper_sketch());
    let points = [
        ("fault-free", ClusterConfig::mini(topo(), 16), 7),
        ("2% loss with the watchdog", lossy(), 9),
        ("in-network reduction on virtual CQs", reduce, 7),
    ];
    for (name, cfg, seed) in points {
        let wl = workload(seed);
        let (mut r, _) = traced(&cfg, &wl);
        r.trace = None;
        assert_eq!(
            format!("{r:?}"),
            format!("{:?}", netsparse::simulate(&cfg, &wl)),
            "{name}: tracing changed the report"
        );
    }
}

#[test]
fn lossy_trace_replays_to_the_fault_report() {
    let wl = workload(9);
    let (r, c) = traced(&lossy(), &wl);
    assert!(r.functional_check_passed);
    assert_consistent(&r, &c);
    let fr = r
        .faults
        .as_ref()
        .expect("faulted run carries a fault report");
    assert!(c.dropped_loss > 0, "loss must actually occur");
    assert_eq!(c.dropped_loss, fr.dropped_loss, "loss drops");
    assert_eq!(c.dropped_dead, fr.dropped_dead, "dead drops");
    assert_eq!(c.watchdog_retries, fr.watchdog_retries, "retries");
    assert_eq!(c.abandoned_prs, fr.abandoned_prs, "abandoned PRs");
    assert_eq!(c.stale_responses, fr.stale_responses, "stale responses");
    assert_eq!(c.fault_transitions, fr.fault_transitions, "transitions");
}

#[test]
fn consistency_holds_across_seeds() {
    for seed in [3, 5] {
        let wl = workload(seed);
        let (r, c) = traced(&ClusterConfig::mini(topo(), 16), &wl);
        assert!(r.functional_check_passed, "seed {seed}");
        assert_consistent(&r, &c);
    }
}
