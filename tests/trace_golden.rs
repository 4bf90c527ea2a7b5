//! Golden-trace regression: the structured trace of a pinned end-to-end
//! simulation is part of the repo's contract. The committed digest (and
//! the human-readable prefix next to it) must reproduce bit-for-bit on
//! every toolchain and profile — event-flow arithmetic is all-integer, so
//! debug and release agree. Any intentional change to event ordering,
//! timing, or instrumentation must update the constants below *and* say
//! why in the commit message.

use netsparse::config::{ConcatImpl, ReduceConfig};
use netsparse::{simulate_traced, ClusterConfig, Mechanisms, ReduceReport, SimReport};
use netsparse_desim::TraceConfig;
use netsparse_netsim::Topology;
use netsparse_snic::vconcat::VirtualCqConfig;
use netsparse_sparse::suite::SuiteConfig;
use netsparse_sparse::SuiteMatrix;

/// Digest of the seed-7 golden run's full record stream.
const GOLDEN_DIGEST_SEED7: u64 = 0xefae_e44c_217e_7e60;
/// Digest of the seed-11 golden run (a second seed guards against a
/// digest function that collapses distinct streams).
const GOLDEN_DIGEST_SEED11: u64 = 0x068f_08d1_e086_69f7;
/// The first records of the seed-7 run, as CSV rows — a human-readable
/// anchor so a digest mismatch is debuggable from the diff alone.
const GOLDEN_PREFIX_SEED7: &str = "\
0,0,0,cmd_issued,0,2048
0,1,0,cmd_issued,0,2048
0,2,0,cmd_issued,0,2048
0,3,0,cmd_issued,0,2048
0,4,0,cmd_issued,0,2048
0,5,0,cmd_issued,0,2048
0,6,0,cmd_issued,0,2048
0,7,0,cmd_issued,0,2048
";
/// How many records the seed-7 run captures (no drops at this scale).
const GOLDEN_LEN_SEED7: usize = 12_045;

/// Digest of the seed-7 run of the same point with every handler
/// bypassed (`Mechanisms::rig_only()`): each remote idx is its own
/// packet, so links backlog thousands of packets deep and the event
/// queue holds ~4,600 pending events on average (the all-mechanisms
/// point averages under 100 and never backlogs a link). This pins the
/// order in which long per-link FIFO bursts interleave.
const RIG_ONLY_DIGEST_SEED7: u64 = 0xa14b_165b_6e21_cf67;
/// Digest of the seed-11 rig-only run.
const RIG_ONLY_DIGEST_SEED11: u64 = 0x059b_a5c0_1317_9d35;
/// How many records the seed-7 rig-only run captures.
const RIG_ONLY_LEN_SEED7: usize = 62_132;
/// How many events the seed-7 rig-only run processes.
const RIG_ONLY_EVENTS_SEED7: u64 = 36_334;

/// Digest of the seed-7 golden run with §7.2 virtual CQs from the
/// paper's 64 × 128 B pool. The pool never runs dry here (224 full and
/// 474 expired flushes, no pressure), so this pins the order in which
/// expired virtual CQs drain: ascending `(dest, kind)`. Draining them in
/// expiry-arming order instead reproduces the dedicated digests above.
const PAPER_POOL_DIGEST_SEED7: u64 = 0x5b32_a347_8675_290a;
/// Digest of the seed-11 paper-pool run.
const PAPER_POOL_DIGEST_SEED11: u64 = 0xd4a6_a610_6515_6e4d;
/// How many records the seed-7 paper-pool run captures.
const PAPER_POOL_LEN_SEED7: usize = 12_045;
/// How many events the seed-7 paper-pool run processes.
const PAPER_POOL_EVENTS_SEED7: u64 = 1_531;

/// Digest of the seed-7 golden run with an 8 × 256 B pool (the chaos
/// harness's): 680 pressure flushes, so this pins which virtual CQ the
/// pool evicts when it runs dry.
const SMALL_POOL_DIGEST_SEED7: u64 = 0x8e06_57fe_002e_2bac;
/// Digest of the seed-11 small-pool run (494 pressure flushes).
const SMALL_POOL_DIGEST_SEED11: u64 = 0x2199_8c6c_05e6_355a;
/// How many records the seed-7 small-pool run captures.
const SMALL_POOL_LEN_SEED7: usize = 12_576;
/// How many events the seed-7 small-pool run processes.
const SMALL_POOL_EVENTS_SEED7: u64 = 1_607;

/// Digest of the seed-7 golden run with in-network reduction
/// (`ReduceConfig::in_network()`): every issued read also sends a
/// contribution toward its row's owner, and the ToRs fold rack-mates'
/// contributions for one row. The 4,096-entry table never fills, so
/// this pins absorb, merge and window-expiry flushes.
const REDUCE_DIGEST_SEED7: u64 = 0xddf9_0b75_0490_ee8c;
/// Digest of the seed-11 in-network reduction run.
const REDUCE_DIGEST_SEED11: u64 = 0xe7a1_ca02_6aa6_dfbf;
/// How many records the seed-7 in-network reduction run captures.
const REDUCE_LEN_SEED7: usize = 13_041;
/// How many events the seed-7 in-network reduction run processes.
const REDUCE_EVENTS_SEED7: u64 = 3_045;

/// Digest of the seed-7 golden run with a reduce table of
/// `SMALL_TABLE_ENTRIES` rows: it fills, so 3,037 contributions bypass
/// it and travel on unmerged beside 142 merges. This pins the bypass
/// path and the order in which a full table's rows free up.
const SMALL_TABLE_DIGEST_SEED7: u64 = 0xc9d7_d46a_28ac_5951;
/// Digest of the seed-11 small-table run.
const SMALL_TABLE_DIGEST_SEED11: u64 = 0xe245_4d0e_e07c_f9d6;
/// How many records the seed-7 small-table run captures.
const SMALL_TABLE_LEN_SEED7: usize = 13_140;
/// How many events the seed-7 small-table run processes.
const SMALL_TABLE_EVENTS_SEED7: u64 = 2_511;

/// Rows of the small reduce table.
const SMALL_TABLE_ENTRIES: usize = 8;

/// The chaos harness's virtual-CQ pool.
const SMALL_POOL: VirtualCqConfig = VirtualCqConfig {
    physical_queues: 8,
    physical_bytes: 256,
};

/// The pinned golden configuration: same cluster and workload shape as
/// `determinism.rs`, with tracing attached at default capacity.
fn golden_run(seed: u64) -> SimReport {
    golden_run_with(
        seed,
        Mechanisms::all(),
        ConcatImpl::Dedicated,
        ReduceConfig::disabled(),
    )
}

/// The golden configuration under an explicit mechanism set,
/// concatenator implementation and reduction setting.
fn golden_run_with(
    seed: u64,
    mechanisms: Mechanisms,
    concat_impl: ConcatImpl,
    reduce: ReduceConfig,
) -> SimReport {
    let topo = Topology::LeafSpine {
        racks: 2,
        rack_size: 4,
        spines: 2,
    };
    let wl = SuiteConfig {
        matrix: SuiteMatrix::Uk,
        nodes: 8,
        rack_size: 4,
        scale: 0.1,
        seed,
    }
    .generate();
    let mut cfg = ClusterConfig::mini(topo, 16);
    cfg.mechanisms = mechanisms;
    cfg.concat_impl = concat_impl;
    cfg.reduce = reduce;
    simulate_traced(&cfg, &wl, TraceConfig::default())
}

#[test]
fn same_seed_reruns_produce_identical_traces() {
    for seed in [7, 11] {
        let a = golden_run(seed);
        let b = golden_run(seed);
        let (ta, tb) = (a.trace.as_ref().unwrap(), b.trace.as_ref().unwrap());
        assert_eq!(ta.digest, tb.digest, "seed {seed}: digest diverged");
        // Not just the digest: the full record streams are equal, so a
        // digest collision cannot mask a divergence here.
        assert_eq!(
            ta.buffer.records(),
            tb.buffer.records(),
            "seed {seed}: record streams diverged"
        );
        assert_eq!(ta.buffer.dropped(), 0, "golden runs must not drop");
    }
}

#[test]
fn golden_digest_matches_the_committed_constants() {
    let a = golden_run(7);
    let tr = a.trace.as_ref().unwrap();
    assert_eq!(
        tr.buffer.len(),
        GOLDEN_LEN_SEED7,
        "seed-7 record count changed; retune the golden constants"
    );
    assert_eq!(
        tr.buffer.human_prefix(8),
        GOLDEN_PREFIX_SEED7,
        "seed-7 trace prefix changed; the first records are the debugging anchor"
    );
    assert_eq!(
        tr.digest, GOLDEN_DIGEST_SEED7,
        "seed-7 trace digest changed: {:#018x}",
        tr.digest
    );
    let b = golden_run(11);
    assert_eq!(
        b.trace.as_ref().unwrap().digest,
        GOLDEN_DIGEST_SEED11,
        "seed-11 trace digest changed: {:#018x}",
        b.trace.as_ref().unwrap().digest
    );
}

#[test]
fn rig_only_digest_matches_the_committed_constants() {
    let a = golden_run_with(
        7,
        Mechanisms::rig_only(),
        ConcatImpl::Dedicated,
        ReduceConfig::disabled(),
    );
    assert!(a.functional_check_passed);
    assert_eq!(
        a.events, RIG_ONLY_EVENTS_SEED7,
        "rig-only seed-7 event count changed"
    );
    let tr = a.trace.as_ref().unwrap();
    assert_eq!(tr.buffer.dropped(), 0, "golden runs must not drop");
    assert_eq!(
        tr.buffer.len(),
        RIG_ONLY_LEN_SEED7,
        "rig-only seed-7 record count changed; retune the golden constants"
    );
    assert_eq!(
        tr.digest, RIG_ONLY_DIGEST_SEED7,
        "rig-only seed-7 trace digest changed: {:#018x}",
        tr.digest
    );
    let b = golden_run_with(
        11,
        Mechanisms::rig_only(),
        ConcatImpl::Dedicated,
        ReduceConfig::disabled(),
    );
    assert_eq!(
        b.trace.as_ref().unwrap().digest,
        RIG_ONLY_DIGEST_SEED11,
        "rig-only seed-11 trace digest changed: {:#018x}",
        b.trace.as_ref().unwrap().digest
    );
}

/// Checks one pinned variant of the golden point, `run` being its
/// golden run at a given seed: the seed-7 event count, record count and
/// digest, and the seed-11 digest. Returns the seed-7 report.
fn assert_pin(
    label: &str,
    run: impl Fn(u64) -> SimReport,
    events: u64,
    len: usize,
    seed7: u64,
    seed11: u64,
) -> SimReport {
    let a = run(7);
    assert!(a.functional_check_passed);
    assert_eq!(a.events, events, "{label} seed-7 event count changed");
    let tr = a.trace.as_ref().unwrap();
    assert_eq!(tr.buffer.dropped(), 0, "golden runs must not drop");
    assert_eq!(tr.buffer.len(), len, "{label} seed-7 record count changed");
    assert_eq!(
        tr.digest, seed7,
        "{label} seed-7 trace digest changed: {:#018x}",
        tr.digest
    );
    let digest = run(11).trace.as_ref().unwrap().digest;
    assert_eq!(
        digest, seed11,
        "{label} seed-11 trace digest changed: {digest:#018x}"
    );
    a
}

/// Checks one virtual-CQ pin (see [`assert_pin`]).
fn assert_virtual_pin(pool: VirtualCqConfig, events: u64, len: usize, seed7: u64, seed11: u64) {
    let run = |seed| {
        golden_run_with(
            seed,
            Mechanisms::all(),
            ConcatImpl::Virtual(pool),
            ReduceConfig::disabled(),
        )
    };
    assert_pin(&format!("{pool:?}"), run, events, len, seed7, seed11);
}

/// Checks one reduction pin (see [`assert_pin`]) and returns the seed-7
/// run's reduction report.
fn assert_reduce_pin(
    reduce: ReduceConfig,
    events: u64,
    len: usize,
    seed7: u64,
    seed11: u64,
) -> ReduceReport {
    let run = |seed| golden_run_with(seed, Mechanisms::all(), ConcatImpl::Dedicated, reduce);
    let a = assert_pin(&format!("{reduce:?}"), run, events, len, seed7, seed11);
    let r = a.reduce.expect("reduction runs report it");
    assert_eq!(
        r.contribs_delivered, r.contribs_issued,
        "fault-free runs deliver every contribution"
    );
    r
}

#[test]
fn paper_pool_digest_matches_the_committed_constants() {
    assert_virtual_pin(
        VirtualCqConfig::paper_sketch(),
        PAPER_POOL_EVENTS_SEED7,
        PAPER_POOL_LEN_SEED7,
        PAPER_POOL_DIGEST_SEED7,
        PAPER_POOL_DIGEST_SEED11,
    );
}

#[test]
fn small_pool_digest_matches_the_committed_constants() {
    assert_virtual_pin(
        SMALL_POOL,
        SMALL_POOL_EVENTS_SEED7,
        SMALL_POOL_LEN_SEED7,
        SMALL_POOL_DIGEST_SEED7,
        SMALL_POOL_DIGEST_SEED11,
    );
}

#[test]
fn in_network_reduce_digest_matches_the_committed_constants() {
    let r = assert_reduce_pin(
        ReduceConfig::in_network(),
        REDUCE_EVENTS_SEED7,
        REDUCE_LEN_SEED7,
        REDUCE_DIGEST_SEED7,
        REDUCE_DIGEST_SEED11,
    );
    assert!(r.merges > 0, "the ToRs must merge contributions");
}

#[test]
fn small_reduce_table_digest_matches_the_committed_constants() {
    let r = assert_reduce_pin(
        ReduceConfig {
            table_entries: SMALL_TABLE_ENTRIES,
            ..ReduceConfig::in_network()
        },
        SMALL_TABLE_EVENTS_SEED7,
        SMALL_TABLE_LEN_SEED7,
        SMALL_TABLE_DIGEST_SEED7,
        SMALL_TABLE_DIGEST_SEED11,
    );
    assert!(r.merges > 0, "the small table must still merge: {r:?}");
    assert!(
        r.bypassed > 0,
        "the small table must fill and bypass: {r:?}"
    );
}

#[test]
fn different_seeds_produce_different_traces() {
    let a = golden_run(7);
    let b = golden_run(11);
    assert_ne!(
        a.trace.as_ref().unwrap().digest,
        b.trace.as_ref().unwrap().digest,
        "distinct workloads hashed to the same trace digest"
    );
}

#[test]
fn report_digest_mirrors_the_buffer() {
    let r = golden_run(7);
    let tr = r.trace.as_ref().unwrap();
    assert_eq!(tr.digest, tr.buffer.digest());
    assert_eq!(tr.buffer.offered(), tr.buffer.len() as u64);
    assert!(r.functional_check_passed);
}
