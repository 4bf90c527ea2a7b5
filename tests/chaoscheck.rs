//! End-to-end pins for the chaoscheck harness (bench crate's `chaos`
//! module): deterministic scenario batches, typed rejection of poisoned
//! configs, structured stalls from the liveness watchdog, and the
//! shrinker's repro round trip on the deliberately-broken fixture.

use netsparse::prelude::*;
use netsparse_bench::chaos::{
    self, parse_repro, replay_repro, run_batch, shrink, write_repro, ChaosScenario,
    ScenarioOutcome, REDUCE_SEED_BIT,
};
use netsparse_desim::Liveness;

/// `run_batch(1, 10).to_json()`: the seeds' outcomes and recovery ratios,
/// so a change to the simulated behaviour under faults fails here.
const BASE_BATCH_JSON: &str = r#"{
  "tool": "chaoscheck",
  "schema_version": 1,
  "seed0": 1,
  "seeds": 10,
  "rejected": 1,
  "stalled": 0,
  "violated": 0,
  "passed": 9,
  "delivered": 7,
  "abandoned_gracefully": 2,
  "determinism_checked": 1,
  "recovery_ratio_permille": {"count": 8, "min": 1000, "p50": 36441, "p90": 602358, "max": 654801},
  "violations": [],
  "rejections": [
    {"seed": 3, "error": "invalid cluster config: cluster config is degenerate: k must be nonzero"}
  ]
}
"#;

/// `run_batch(REDUCE_SEED_BIT + 1, 8).to_json()`: the same pin for the
/// reduction slice, where dead-switch and loss drops meet in-network
/// reduction.
const REDUCE_BATCH_JSON: &str = r#"{
  "tool": "chaoscheck",
  "schema_version": 1,
  "seed0": 4294967297,
  "seeds": 8,
  "rejected": 1,
  "stalled": 0,
  "violated": 0,
  "passed": 7,
  "delivered": 5,
  "abandoned_gracefully": 2,
  "determinism_checked": 1,
  "recovery_ratio_permille": {"count": 6, "min": 1000, "p50": 196642, "p90": 27841661, "max": 27841661},
  "violations": [],
  "rejections": [
    {"seed": 4294967299, "error": "invalid cluster config: cluster config is degenerate: k must be nonzero"}
  ]
}
"#;

/// The committed smoke range: these seeds must stay clean (no oracle
/// violations, no stalls) on every machine, forever, and render the
/// committed report. CI runs a longer range in release; this pins a
/// slice of it in the tier-1 suite.
#[test]
fn committed_seed_batch_is_clean_and_deterministic() {
    let a = run_batch(1, 10);
    assert!(
        a.is_clean(),
        "committed seeds must not violate or stall: {:?}",
        a.violations
    );
    assert!(a.passed > 0, "the batch must actually run scenarios");
    // Same seed range → byte-identical CHAOS_report.json content.
    assert_eq!(
        a.to_json(),
        BASE_BATCH_JSON,
        "batch report must match the committed one"
    );
}

#[test]
fn reduce_slice_batch_is_clean_and_deterministic() {
    // The reduction slice of the seed space (bit 32 set) runs the same
    // scenario population with scatter contributions flowing; the
    // reduce-conservation oracle must hold under every fault mix, and
    // the batch must render the committed report.
    let a = run_batch(REDUCE_SEED_BIT + 1, 8);
    assert!(
        a.is_clean(),
        "reduce-slice seeds must not violate or stall: {:?}",
        a.violations
    );
    assert!(a.passed > 0, "the slice must actually run scenarios");
    assert_eq!(a.to_json(), REDUCE_BATCH_JSON);
}

#[test]
fn poisoned_scenarios_come_back_as_typed_rejections() {
    // Seeds ≡ 3 (mod 8) carry a deliberate config poison; each must be
    // rejected by front-loaded validation — counted, never crashed on.
    // The reduce bit (≡ 0 mod 8) must not disturb the poisoned slice.
    for seed in [
        3u64,
        11,
        19,
        27,
        35,
        REDUCE_SEED_BIT + 3,
        REDUCE_SEED_BIT + 11,
    ] {
        let sc = ChaosScenario::generate(seed);
        match sc.run() {
            ScenarioOutcome::Rejected(err) => {
                assert!(!err.is_empty(), "rejection must carry a reason");
            }
            other => panic!("poisoned seed {seed} must be rejected, got {other:?}"),
        }
    }
}

#[test]
fn starved_event_budget_is_a_structured_stall() {
    // A healthy scenario under an absurdly small event budget must come
    // back as SimError::Stalled with an EventBudget report — not hang,
    // not panic — and the chaos harness classifies it as Stalled.
    let sc = ChaosScenario::generate(1);
    let mut cfg = sc.cluster_config();
    cfg.limits = Liveness {
        max_events: Some(50),
        max_stagnant_events: None,
    };
    match try_simulate(&cfg, &sc.workload()) {
        Err(SimError::Stalled(report)) => {
            assert_eq!(report.processed, 50);
            assert!(report.pending > 0, "a stall leaves work pending");
            let msg = report.to_string();
            assert!(msg.contains("event budget"), "report: {msg}");
        }
        other => panic!("starved budget must stall, got {other:?}"),
    }
}

#[test]
fn broken_fixture_shrinks_to_a_minimal_replayable_repro() {
    let fixture = ChaosScenario::broken_fixture();
    // The fixture plants a delivery bug under noise faults.
    let oracle = match fixture.run() {
        ScenarioOutcome::Violated { violations } => {
            assert!(
                violations.iter().any(|v| v.oracle == "delivery"),
                "the planted bug is a delivery violation: {violations:?}"
            );
            "delivery"
        }
        other => panic!("broken fixture must violate, got {other:?}"),
    };
    // The shrinker strips every noise fault: the minimal scenario keeps
    // only the permanent ToR kill that actually causes the violation.
    let (min, ops) = shrink(&fixture, oracle);
    assert!(!ops.is_empty(), "the noisy fixture must shrink");
    assert_eq!(
        min.faults.failures.len(),
        1,
        "only the causal failure survives shrinking"
    );
    assert!(
        min.faults.failures[0].repair_at_ns.is_none(),
        "the survivor is the permanent ToR death"
    );
    assert!(min.faults.degraded.is_empty(), "stragglers are noise");
    assert!(
        matches!(min.faults.loss, netsparse_desim::LossModel::None),
        "loss is noise"
    );
    // The repro file round-trips and replays to the same violation.
    let json = write_repro(&min, oracle, &ops);
    let repro = parse_repro(&json).expect("repro content must parse back");
    assert_eq!(repro.oracle, oracle);
    match replay_repro(&repro).expect("repro must replay") {
        ScenarioOutcome::Violated { violations } => {
            assert!(
                violations.iter().any(|v| v.oracle == oracle),
                "replay must reproduce the recorded oracle: {violations:?}"
            );
        }
        other => panic!("repro must reproduce the violation, got {other:?}"),
    }
}

#[test]
fn oracle_suite_accepts_a_healthy_fault_free_run() {
    // A scenario with faults manually stripped must pass every oracle.
    let mut sc = ChaosScenario::generate(2);
    sc.faults = netsparse::config::FaultConfig::none();
    sc.expect_delivery = true;
    match sc.run() {
        ScenarioOutcome::Passed { report } => {
            assert!(report.functional_check_passed);
            assert!(chaos::check_report(&sc, &report).is_empty());
        }
        other => panic!("clean scenario must pass, got {other:?}"),
    }
}
