//! chaoscheck — seed-driven chaos testing of the fault-injection stack.
//!
//! A [`ChaosScenario`] is derived deterministically from a single `u64`
//! seed: topology, workload matrix/scale, mechanism configuration,
//! concatenator implementation, and a random (but reproducible) fault
//! schedule — burst/uniform loss, scheduled switch/link failures,
//! straggler nodes. Every scenario runs through the *fallible* simulator
//! entry point (`netsparse::try_simulate`) under a deterministic liveness
//! budget, and its [`SimReport`] is checked against the invariant-oracle
//! suite in [`check_report`]:
//!
//! - **conservation** — every issued PR is resolved or abandoned
//!   (`issued == (responses − stale) + abandoned_prs`), with exact
//!   balance and zero abandonment on fault-free runs;
//! - **delivery** — scenarios whose fault mix cannot lose data
//!   (no loss, no scheduled failures) must pass the functional check
//!   with nothing abandoned;
//! - **graceful-abandonment** — a run that fails functionally must have
//!   *recorded* abandoned commands under an active fault config: silent
//!   data loss is the one unforgivable outcome;
//! - **retry-accounting** — watchdog counters consistent with the
//!   config: no retries without an armed watchdog, no abandonment
//!   without the retry budget spent, degraded nodes imply escalation;
//! - **report-consistency** — aggregate counters agree with each other
//!   (`comm_time` is the node-finish max, drop totals match, cache hits
//!   bounded by lookups).
//!
//! A deliberately invalid slice of the seed space (~1/8) exercises the
//! rejection path: those configs must come back as typed `SimError`s,
//! not panics. When a scenario *violates* an oracle, [`shrink`]
//! minimizes it — dropping scheduled failures and degradations,
//! disabling loss, halving scale and K — while the violation still
//! reproduces, and [`write_repro`] emits a `chaos_repro.json` that
//! [`replay_repro`] turns back into the same violation with one command
//! (`chaos --replay chaos_repro.json`).

use netsparse::config::{FailureEvent, FaultConfig, FaultTarget, NodeDegradation};
use netsparse::metrics::FaultReport;
use netsparse::prelude::*;
use netsparse_desim::{Liveness, LossModel, SplitMix64};
use netsparse_sparse::suite::SuiteConfig;

/// Where a scenario came from: a generator seed or a named fixture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioSource {
    /// Derived from [`ChaosScenario::generate`] with this seed.
    Seed(u64),
    /// A hand-built fixture (see [`ChaosScenario::broken_fixture`]).
    Fixture(String),
}

impl std::fmt::Display for ScenarioSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioSource::Seed(s) => write!(f, "seed:{s}"),
            ScenarioSource::Fixture(name) => write!(f, "fixture:{name}"),
        }
    }
}

/// One generated chaos scenario: everything needed to build the cluster
/// config and workload, plus the oracle expectations derived alongside.
#[derive(Debug, Clone)]
pub struct ChaosScenario {
    /// Seed or fixture identity (stable across shrinking).
    pub source: ScenarioSource,
    /// Cluster topology (small: ≤ 32 nodes, all three families).
    pub topology: Topology,
    /// Hosts per edge switch, for the workload's locality structure.
    pub rack_size: u32,
    /// Workload matrix signature.
    pub matrix: SuiteMatrix,
    /// Workload scale in thousandths (integer so repros round-trip
    /// through JSON exactly).
    pub scale_milli: u32,
    /// Workload generator seed.
    pub workload_seed: u64,
    /// Property size.
    pub k: u32,
    /// Nonzeros per RIG command.
    pub batch_size: usize,
    /// Mechanism on/off mask.
    pub mechanisms: Mechanisms,
    /// Use the §7.2 virtual concatenation queues in the NIC.
    pub virtual_cq: bool,
    /// Enable the adaptive batch controller.
    pub adaptive_batch: bool,
    /// The generated fault schedule.
    pub faults: FaultConfig,
    /// In-network reduction configuration. Disabled outside the
    /// reduce slice of the seed space (bit 32 clear), so the base seed
    /// range produces byte-identical scenarios with or without the
    /// extension compiled in.
    pub reduce: ReduceConfig,
    /// Whether the oracle suite must insist on full delivery (true only
    /// when the fault mix cannot lose data).
    pub expect_delivery: bool,
}

/// Outcome of one scenario run.
#[derive(Debug)]
pub enum ScenarioOutcome {
    /// The generated config was invalid and the simulator rejected it
    /// with a typed error before any event ran. Expected for the
    /// deliberately-poisoned slice of the seed space.
    Rejected(String),
    /// The liveness watchdog tripped: the run exceeded its event budget
    /// or froze at one instant.
    Stalled(String),
    /// The run finished but one or more oracles failed.
    Violated {
        /// The failing oracles, in check order.
        violations: Vec<Violation>,
    },
    /// The run finished and every oracle held.
    Passed {
        /// The run's report, for recovery-time accounting.
        report: Box<SimReport>,
    },
}

/// One failed invariant oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which oracle (stable identifier, used by the shrinker to match
    /// "the same violation").
    pub oracle: &'static str,
    /// Deterministic human-readable evidence.
    pub detail: String,
}

const GEN_SALT: u64 = 0xC4A0_5C7E_11AA_55EE;

/// Seeds with this bit set opt into the reduction slice of the seed
/// space: scatter contributions flow, and roughly half the slice merges
/// them in-network. Lives above the 32-bit range so every historical
/// batch (seeds 0..N) is untouched.
pub const REDUCE_SEED_BIT: u64 = 1 << 32;

/// Salt for the *independent* generator that derives reduction
/// parameters. Keeping it separate from [`GEN_SALT`]'s stream means the
/// reduce fields consume no draws from the base generator, so a seed's
/// topology/workload/fault schedule is identical whether or not the
/// reduce bit is set.
const REDUCE_SALT: u64 = 0x5EED_0FF5_B17E_CA5E;

impl ChaosScenario {
    /// Derives a complete scenario from `seed`. Deterministic: the same
    /// seed always yields the same scenario, byte for byte. Roughly 1/8
    /// of seeds are deliberately invalid (bad probabilities, unarmed
    /// watchdogs, out-of-range or nonexistent fault targets, degenerate
    /// clusters) to exercise the typed-rejection path.
    pub fn generate(seed: u64) -> ChaosScenario {
        // The base generator never sees the reduce bit: seed S and
        // S | REDUCE_SEED_BIT are twins that differ only in the
        // reduction config, so the reduce slice ablates the extension
        // over the exact scenario population the base slice covers.
        let mut rng = SplitMix64::new((seed & !REDUCE_SEED_BIT) ^ GEN_SALT);

        let (topology, rack_size) = match rng.next_range(3) {
            0 => {
                let rack_size = [2u32, 4][rng.next_range(2) as usize];
                (
                    Topology::LeafSpine {
                        racks: rng.range_u32_inclusive(2, 4),
                        rack_size,
                        spines: rng.range_u32_inclusive(2, 3),
                    },
                    rack_size,
                )
            }
            1 => {
                let hosts = rng.range_u32_inclusive(1, 2);
                (
                    Topology::HyperX {
                        dims: [
                            rng.range_u32_inclusive(2, 3),
                            rng.range_u32_inclusive(2, 3),
                            1,
                        ],
                        hosts_per_switch: hosts,
                    },
                    hosts,
                )
            }
            _ => {
                let hosts = rng.range_u32_inclusive(1, 2);
                (
                    Topology::Dragonfly {
                        groups: rng.range_u32_inclusive(2, 3),
                        switches_per_group: rng.range_u32_inclusive(2, 3),
                        hosts_per_switch: hosts,
                        global_links_per_pair: rng.range_u32_inclusive(1, 2),
                    },
                    hosts,
                )
            }
        };
        let nodes = topology.nodes();

        let matrix = SuiteMatrix::ALL[rng.next_range(SuiteMatrix::ALL.len() as u64) as usize];
        let scale_milli = rng.range_u32_inclusive(4, 30);
        let workload_seed = rng.next_u64();
        let mut k = [1u32, 4, 16, 64][rng.next_range(4) as usize];
        let batch_size = [256usize, 512, 1024, 2048][rng.next_range(4) as usize];
        let mechanisms = Mechanisms {
            filter: rng.next_bool(),
            coalesce: rng.next_bool(),
            nic_concat: rng.next_bool(),
            switch_concat: rng.next_bool(),
            property_cache: rng.next_bool(),
        };
        let virtual_cq = rng.chance(0.25);
        let adaptive_batch = rng.chance(0.125);

        // The fault schedule. Loss and scheduled failures may abandon
        // commands (the watchdog's escalation ladder is *supposed* to);
        // only fault mixes that cannot lose data keep the strict
        // delivery oracle.
        let loss = match rng.next_range(10) {
            0..=4 => LossModel::None,
            5..=7 => LossModel::Bernoulli {
                rate: rng.range_f64(0.001, 0.02),
            },
            _ => LossModel::GilbertElliott {
                p_enter_burst: rng.range_f64(0.001, 0.01),
                p_exit_burst: rng.range_f64(0.2, 0.5),
                loss_good: 0.0,
                loss_bad: rng.range_f64(0.1, 0.3),
            },
        };
        let n_failures = rng.next_range(3) as usize;
        let mut failures = Vec::new();
        for _ in 0..n_failures {
            let target = random_fault_target(&mut rng, &topology);
            let at_ns = rng.range_u64(500, 5_000);
            let repair_at_ns = if rng.chance(0.6) {
                Some(at_ns + rng.range_u64(20_000, 80_000))
            } else {
                None
            };
            failures.push(FailureEvent {
                at_ns,
                target,
                repair_at_ns,
            });
        }
        let mut degraded = Vec::new();
        for _ in 0..rng.next_range(3) {
            degraded.push(NodeDegradation {
                node: rng.next_range(nodes as u64) as u32,
                compute_slowdown: rng.range_f64(1.5, 4.0),
                nic_bandwidth_factor: rng.range_f64(0.3, 1.0),
            });
        }
        let lossless = matches!(loss, LossModel::None);
        // Arm the watchdog only when the fault mix needs it: an armed
        // watchdog on a clean run can spuriously retry commands that are
        // merely slow, which would poison the strict delivery oracle.
        let needs_watchdog = !lossless || !failures.is_empty();
        let mut faults = FaultConfig {
            loss,
            watchdog_ns: if needs_watchdog {
                rng.range_u64(60_000, 160_000)
            } else {
                0
            },
            max_retries: rng.range_u32_inclusive(2, 4),
            backoff_multiplier: rng.range_f64(1.2, 2.5),
            backoff_jitter: rng.range_f64(0.0, 0.3),
            seed: rng.next_u64(),
            failures,
            degraded,
        };
        let expect_delivery = lossless && faults.failures.is_empty();

        // The reduction slice: an independent generator so these draws
        // cannot perturb the base scenario above.
        let reduce = if seed & REDUCE_SEED_BIT != 0 {
            let mut rrng = SplitMix64::new(seed ^ REDUCE_SALT);
            let mut rc = if rrng.next_bool() {
                ReduceConfig::in_network()
            } else {
                ReduceConfig::software_baseline()
            };
            rc.table_entries = [64usize, 256, 1024, 4096][rrng.next_range(4) as usize];
            rc.flush_ns = rrng.range_u64(50, 400);
            rc
        } else {
            ReduceConfig::disabled()
        };

        // Poison ~1/8 of the seed space with configs that must be
        // *rejected* (typed SimError), never run and never crash.
        if seed % 8 == 3 {
            match rng.next_range(5) {
                0 => {
                    // Loss without a watchdog would hang the kernel.
                    faults.loss = LossModel::Bernoulli { rate: 0.01 };
                    faults.watchdog_ns = 0;
                }
                1 => {
                    faults.loss = LossModel::Bernoulli { rate: 1.5 };
                    faults.watchdog_ns = 50_000;
                }
                2 => {
                    faults.watchdog_ns = 50_000;
                    faults.failures.push(FailureEvent {
                        at_ns: 1_000,
                        target: FaultTarget::Switch(topology.switches() + 7),
                        repair_at_ns: None,
                    });
                }
                3 => {
                    faults.watchdog_ns = 50_000;
                    faults.failures.push(FailureEvent {
                        at_ns: 10_000,
                        target: FaultTarget::Switch(0),
                        repair_at_ns: Some(5_000),
                    });
                }
                _ => k = 0,
            }
        }

        ChaosScenario {
            source: ScenarioSource::Seed(seed),
            topology,
            rack_size,
            matrix,
            scale_milli,
            workload_seed,
            k,
            batch_size,
            mechanisms,
            virtual_cq,
            adaptive_batch,
            faults,
            reduce,
            expect_delivery,
        }
    }

    /// The deliberately-broken fixture for the shrinker demo: a
    /// permanent ToR death (which genuinely severs a rack) wrongly
    /// tagged `expect_delivery`, buried under noise faults — loss, a
    /// transient spine failure, two stragglers. The shrinker must strip
    /// the noise and reproduce the delivery violation with the ToR kill
    /// alone.
    pub fn broken_fixture() -> ChaosScenario {
        ChaosScenario {
            source: ScenarioSource::Fixture("broken-delivery".to_string()),
            topology: Topology::LeafSpine {
                racks: 2,
                rack_size: 4,
                spines: 2,
            },
            rack_size: 4,
            matrix: SuiteMatrix::Uk,
            scale_milli: 20,
            workload_seed: 7,
            k: 16,
            batch_size: 1024,
            mechanisms: Mechanisms::all(),
            virtual_cq: false,
            adaptive_batch: false,
            faults: FaultConfig {
                loss: LossModel::Bernoulli { rate: 0.01 },
                watchdog_ns: 60_000,
                max_retries: 2,
                backoff_multiplier: 2.0,
                backoff_jitter: 0.1,
                seed: 11,
                failures: vec![
                    FailureEvent {
                        at_ns: 1_000,
                        // ToR 1: every path to rack 1 dies with it.
                        target: FaultTarget::Switch(1),
                        repair_at_ns: None,
                    },
                    FailureEvent {
                        at_ns: 2_000,
                        // Spine 2: transient, survivable noise.
                        target: FaultTarget::Switch(2),
                        repair_at_ns: Some(30_000),
                    },
                ],
                degraded: vec![
                    NodeDegradation {
                        node: 0,
                        compute_slowdown: 2.0,
                        nic_bandwidth_factor: 0.5,
                    },
                    NodeDegradation {
                        node: 2,
                        compute_slowdown: 1.5,
                        nic_bandwidth_factor: 0.8,
                    },
                ],
            },
            reduce: ReduceConfig::disabled(),
            // The planted bug: a permanent ToR death cannot deliver.
            expect_delivery: true,
        }
    }

    /// The scenario's workload scale as a float.
    pub fn scale(&self) -> f64 {
        self.scale_milli as f64 / 1000.0
    }

    /// The deterministic event budget for this scenario: generous (a
    /// healthy run uses a small fraction) but finite, so a livelocked
    /// model surfaces as a structured stall instead of a hang.
    pub fn event_budget(&self) -> u64 {
        let wl = self.workload();
        let total_idxs: u64 = (0..wl.nodes()).map(|p| wl.stream(p).len() as u64).sum();
        2_000_000 + 100 * total_idxs + 200_000 * self.faults.failures.len() as u64
    }

    /// Builds the cluster configuration for this scenario, liveness
    /// limits armed.
    pub fn cluster_config(&self) -> ClusterConfig {
        let mut cfg = ClusterConfig::mini(self.topology, self.k);
        cfg.batch_size = self.batch_size;
        cfg.mechanisms = self.mechanisms;
        cfg.adaptive_batch = self.adaptive_batch;
        if self.virtual_cq {
            cfg.concat_impl =
                netsparse::config::ConcatImpl::Virtual(netsparse_snic::vconcat::VirtualCqConfig {
                    physical_queues: 8,
                    physical_bytes: 256,
                });
        }
        cfg.faults = self.faults.clone();
        cfg.reduce = self.reduce;
        cfg.limits = Liveness {
            max_events: Some(self.event_budget()),
            max_stagnant_events: Some(250_000),
        };
        cfg
    }

    /// Generates the scenario's workload (deterministic in
    /// `workload_seed`).
    pub fn workload(&self) -> CommWorkload {
        SuiteConfig {
            matrix: self.matrix,
            nodes: self.topology.nodes(),
            rack_size: self.rack_size.max(1),
            scale: self.scale(),
            seed: self.workload_seed,
        }
        .generate()
    }

    /// Runs the scenario end to end: try-simulate under the liveness
    /// budget, then the oracle suite.
    pub fn run(&self) -> ScenarioOutcome {
        if self.k == 0 || self.batch_size == 0 || self.topology.nodes() < 2 {
            // Degenerate clusters would also trip the workload
            // generator's own assertions; classify them by the same
            // front-loaded validation the simulator applies.
            let cfg = ClusterConfig::mini(self.topology, self.k);
            if let Err(e) = cfg.validate() {
                return ScenarioOutcome::Rejected(format!("invalid cluster config: {e}"));
            }
            return ScenarioOutcome::Rejected("degenerate cluster".to_string());
        }
        let cfg = self.cluster_config();
        let wl = self.workload();
        match try_simulate(&cfg, &wl) {
            Err(SimError::Stalled(report)) => ScenarioOutcome::Stalled(report.to_string()),
            Err(e) => ScenarioOutcome::Rejected(e.to_string()),
            Ok(report) => {
                let violations = check_report(self, &report);
                if violations.is_empty() {
                    ScenarioOutcome::Passed {
                        report: Box::new(report),
                    }
                } else {
                    ScenarioOutcome::Violated { violations }
                }
            }
        }
    }
}

/// A deterministic, topology-valid fault target: a random switch, or an
/// existing switch-to-switch link.
fn random_fault_target(rng: &mut SplitMix64, topo: &Topology) -> FaultTarget {
    if rng.next_bool() {
        return FaultTarget::Switch(rng.next_range(topo.switches() as u64) as u32);
    }
    match *topo {
        Topology::LeafSpine { racks, spines, .. } => {
            let tor = rng.next_range(racks as u64) as u32;
            let spine = racks + rng.next_range(spines as u64) as u32;
            FaultTarget::SwitchLink {
                from: tor,
                to: spine,
            }
        }
        Topology::HyperX { dims, .. } => {
            // Two switches adjacent along the x dimension line.
            let s = rng.next_range((dims[0] * dims[1] * dims[2]) as u64) as u32;
            let x = s % dims[0];
            let partner = s - x + (x + 1) % dims[0];
            FaultTarget::SwitchLink {
                from: s,
                to: partner,
            }
        }
        Topology::Dragonfly {
            groups,
            switches_per_group,
            ..
        } => {
            // An intra-group mesh link (spg ≥ 2 by construction).
            let g = rng.next_range(groups as u64) as u32;
            let a = rng.next_range(switches_per_group as u64) as u32;
            let b = (a + 1) % switches_per_group;
            FaultTarget::SwitchLink {
                from: g * switches_per_group + a,
                to: g * switches_per_group + b,
            }
        }
    }
}

/// Runs the invariant-oracle suite over a finished run's report.
/// Returns one [`Violation`] per failed oracle (empty = all held).
pub fn check_report(sc: &ChaosScenario, r: &SimReport) -> Vec<Violation> {
    let mut v = Vec::new();
    let default_fr = FaultReport::default();
    let fr = r.faults.as_ref().unwrap_or(&default_fr);
    let issued: u64 = r.nodes.iter().map(|n| n.issued).sum();
    let responses: u64 = r.nodes.iter().map(|n| n.responses).sum();
    let retries: u64 = r.nodes.iter().map(|n| n.watchdog_retries).sum();
    let resolved = responses.saturating_sub(fr.stale_responses);
    let faults_on = sc.faults.is_active();

    // conservation: at termination every issued PR was resolved by a
    // (non-stale) response, abandoned by the watchdog, or orphaned (its
    // packet dropped, its command completed without it).
    if issued != resolved + fr.abandoned_prs + fr.orphaned_prs {
        v.push(Violation {
            oracle: "conservation",
            detail: format!(
                "issued {} != resolved {} + abandoned {} + orphaned {} (responses {}, stale {})",
                issued, resolved, fr.abandoned_prs, fr.orphaned_prs, responses, fr.stale_responses
            ),
        });
    }
    if fr.orphaned_prs > 0 && fr.total_dropped() == 0 {
        v.push(Violation {
            oracle: "conservation",
            detail: format!("{} PRs orphaned with zero dropped packets", fr.orphaned_prs),
        });
    }
    if !faults_on
        && (fr.abandoned_prs != 0
            || fr.stale_responses != 0
            || fr.orphaned_prs != 0
            || fr.total_dropped() != 0)
    {
        v.push(Violation {
            oracle: "conservation",
            detail: format!(
                "fault-free run recorded abandonment/loss: abandoned {}, stale {}, orphaned {}, \
                 dropped {}",
                fr.abandoned_prs,
                fr.stale_responses,
                fr.orphaned_prs,
                fr.total_dropped()
            ),
        });
    }

    // delivery: a fault mix that cannot lose data must deliver fully.
    if sc.expect_delivery && (!r.functional_check_passed || fr.abandoned_commands != 0) {
        v.push(Violation {
            oracle: "delivery",
            detail: format!(
                "scenario tagged expect_delivery failed: functional {}, abandoned commands {}",
                r.functional_check_passed, fr.abandoned_commands
            ),
        });
    }

    // graceful-abandonment: a functional failure is only acceptable as
    // *recorded* watchdog abandonment under an active fault config.
    if !r.functional_check_passed && (!faults_on || fr.abandoned_commands == 0) {
        v.push(Violation {
            oracle: "graceful-abandonment",
            detail: format!(
                "functional failure without recorded abandonment (faults active: {}, \
                 abandoned commands: {})",
                faults_on, fr.abandoned_commands
            ),
        });
    }

    // retry-accounting: watchdog counters consistent with the config.
    if sc.faults.watchdog_ns == 0 && (retries != 0 || fr.abandoned_prs != 0) {
        v.push(Violation {
            oracle: "retry-accounting",
            detail: format!(
                "unarmed watchdog recorded activity: retries {}, abandoned PRs {}",
                retries, fr.abandoned_prs
            ),
        });
    }
    if fr.watchdog_retries != retries {
        v.push(Violation {
            oracle: "retry-accounting",
            detail: format!(
                "FaultReport retries {} != node retry sum {}",
                fr.watchdog_retries, retries
            ),
        });
    }
    if fr.abandoned_commands > 0 {
        let floor = 2 * sc.faults.max_retries.max(1) as u64 + 1;
        if retries < floor {
            v.push(Violation {
                oracle: "retry-accounting",
                detail: format!(
                    "{} commands abandoned with only {} retries (final rung needs {})",
                    fr.abandoned_commands, retries, floor
                ),
            });
        }
    }
    if fr.degraded_nodes > 0 && retries < sc.faults.max_retries.max(1) as u64 {
        v.push(Violation {
            oracle: "retry-accounting",
            detail: format!(
                "{} nodes degraded with only {} retries (escalation needs {})",
                fr.degraded_nodes, retries, sc.faults.max_retries
            ),
        });
    }

    // failover-validity: dead-route drops require scheduled failures,
    // and failover reroutes require fault transitions.
    if fr.dropped_dead > 0 && sc.faults.failures.is_empty() {
        v.push(Violation {
            oracle: "failover-validity",
            detail: format!(
                "{} packets blackholed with no scheduled failures",
                fr.dropped_dead
            ),
        });
    }
    if fr.route_failovers > 0 && fr.fault_transitions == 0 {
        v.push(Violation {
            oracle: "failover-validity",
            detail: format!(
                "{} route failovers with zero fault transitions",
                fr.route_failovers
            ),
        });
    }

    // reduce-conservation: partial-sum contributions balance exactly —
    // every issued contribution is delivered at its root or accounted
    // for at a drop site, in count and in wrapping value sum — and the
    // extension reports iff it is configured.
    match (sc.reduce.enabled, r.reduce.as_ref()) {
        (true, None) => v.push(Violation {
            oracle: "reduce-conservation",
            detail: "reduction enabled but no reduce report".to_string(),
        }),
        (false, Some(_)) => v.push(Violation {
            oracle: "reduce-conservation",
            detail: "reduction disabled but a reduce report exists".to_string(),
        }),
        (true, Some(rr)) => {
            if !rr.conserved() {
                v.push(Violation {
                    oracle: "reduce-conservation",
                    detail: format!(
                        "contributions not conserved: issued {} != delivered {} + dropped {} \
                         (values {} vs {} + {})",
                        rr.contribs_issued,
                        rr.contribs_delivered,
                        rr.contribs_dropped,
                        rr.value_issued,
                        rr.value_delivered,
                        rr.value_dropped
                    ),
                });
            }
            if !faults_on && rr.contribs_dropped != 0 {
                v.push(Violation {
                    oracle: "reduce-conservation",
                    detail: format!(
                        "fault-free run dropped {} contributions",
                        rr.contribs_dropped
                    ),
                });
            }
            if !sc.reduce.in_network && rr.merges != 0 {
                v.push(Violation {
                    oracle: "reduce-conservation",
                    detail: format!("software baseline folded {} PRs in-network", rr.merges),
                });
            }
        }
        (false, None) => {}
    }

    // report-consistency: aggregates agree with each other.
    let max_finish = r.nodes.iter().map(|n| n.finish).max().unwrap_or_default();
    if r.comm_time != max_finish {
        v.push(Violation {
            oracle: "report-consistency",
            detail: format!(
                "comm_time {} != max node finish {}",
                r.comm_time, max_finish
            ),
        });
    }
    if r.dropped_packets != fr.total_dropped() {
        v.push(Violation {
            oracle: "report-consistency",
            detail: format!(
                "dropped_packets {} != FaultReport total {}",
                r.dropped_packets,
                fr.total_dropped()
            ),
        });
    }
    if r.cache_hits > r.cache_lookups {
        v.push(Violation {
            oracle: "report-consistency",
            detail: format!(
                "cache hits {} exceed lookups {}",
                r.cache_hits, r.cache_lookups
            ),
        });
    }
    v
}

// ---------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------

/// One scenario-simplification step the shrinker may take. Ops carry
/// stable string names (`drop-failure:2`, `disable-loss`, …) so a shrunk
/// schedule round-trips through `chaos_repro.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShrinkOp {
    /// Remove scheduled failure `i`.
    DropFailure(usize),
    /// Remove node degradation `i`.
    DropDegradation(usize),
    /// Turn packet loss off entirely.
    DisableLoss,
    /// Turn the reduction extension off entirely.
    DisableReduce,
    /// Halve the workload scale (floor 2‰).
    HalveScale,
    /// Halve the property size (floor 1).
    HalveK,
}

impl ShrinkOp {
    /// The op's stable repro name.
    pub fn name(&self) -> String {
        match self {
            ShrinkOp::DropFailure(i) => format!("drop-failure:{i}"),
            ShrinkOp::DropDegradation(i) => format!("drop-degradation:{i}"),
            ShrinkOp::DisableLoss => "disable-loss".to_string(),
            ShrinkOp::DisableReduce => "disable-reduce".to_string(),
            ShrinkOp::HalveScale => "halve-scale".to_string(),
            ShrinkOp::HalveK => "halve-k".to_string(),
        }
    }

    /// Parses a repro name back into an op.
    pub fn parse(name: &str) -> Option<ShrinkOp> {
        if let Some(i) = name.strip_prefix("drop-failure:") {
            return i.parse().ok().map(ShrinkOp::DropFailure);
        }
        if let Some(i) = name.strip_prefix("drop-degradation:") {
            return i.parse().ok().map(ShrinkOp::DropDegradation);
        }
        match name {
            "disable-loss" => Some(ShrinkOp::DisableLoss),
            "disable-reduce" => Some(ShrinkOp::DisableReduce),
            "halve-scale" => Some(ShrinkOp::HalveScale),
            "halve-k" => Some(ShrinkOp::HalveK),
            _ => None,
        }
    }

    /// Applies the op; returns false when it would be a no-op (nothing
    /// left to remove, floor reached).
    pub fn apply(&self, sc: &mut ChaosScenario) -> bool {
        match *self {
            ShrinkOp::DropFailure(i) => {
                if i >= sc.faults.failures.len() {
                    return false;
                }
                sc.faults.failures.remove(i);
                true
            }
            ShrinkOp::DropDegradation(i) => {
                if i >= sc.faults.degraded.len() {
                    return false;
                }
                sc.faults.degraded.remove(i);
                true
            }
            ShrinkOp::DisableLoss => {
                if matches!(sc.faults.loss, LossModel::None) {
                    return false;
                }
                sc.faults.loss = LossModel::None;
                true
            }
            ShrinkOp::DisableReduce => {
                if !sc.reduce.enabled {
                    return false;
                }
                sc.reduce = ReduceConfig::disabled();
                true
            }
            ShrinkOp::HalveScale => {
                if sc.scale_milli <= 2 {
                    return false;
                }
                sc.scale_milli = (sc.scale_milli / 2).max(2);
                true
            }
            ShrinkOp::HalveK => {
                if sc.k <= 1 {
                    return false;
                }
                sc.k /= 2;
                true
            }
        }
    }
}

/// Greedily minimizes a violating scenario: tries each candidate op, and
/// keeps it iff the shrunk scenario still violates `oracle`. Runs to a
/// fixpoint (no candidate is accepted) and returns the minimal scenario
/// plus the accepted ops in application order.
pub fn shrink(sc: &ChaosScenario, oracle: &str) -> (ChaosScenario, Vec<ShrinkOp>) {
    let reproduces = |cand: &ChaosScenario| -> bool {
        matches!(
            cand.run(),
            ScenarioOutcome::Violated { violations } if violations.iter().any(|v| v.oracle == oracle)
        )
    };
    let mut cur = sc.clone();
    let mut applied = Vec::new();
    // Each accepted op strictly shrinks the scenario, so the fixpoint is
    // reached in finitely many rounds; the cap is a safety net.
    for _ in 0..64 {
        let mut candidates: Vec<ShrinkOp> = Vec::new();
        for i in 0..cur.faults.failures.len() {
            candidates.push(ShrinkOp::DropFailure(i));
        }
        for i in 0..cur.faults.degraded.len() {
            candidates.push(ShrinkOp::DropDegradation(i));
        }
        candidates.push(ShrinkOp::DisableLoss);
        candidates.push(ShrinkOp::DisableReduce);
        candidates.push(ShrinkOp::HalveScale);
        candidates.push(ShrinkOp::HalveK);

        let mut progressed = false;
        for op in candidates {
            let mut cand = cur.clone();
            if !op.apply(&mut cand) {
                continue;
            }
            if reproduces(&cand) {
                cur = cand;
                applied.push(op);
                progressed = true;
                break; // restart: indices shifted
            }
        }
        if !progressed {
            break;
        }
    }
    (cur, applied)
}

// ---------------------------------------------------------------------
// Repro files
// ---------------------------------------------------------------------

/// A parsed `chaos_repro.json`: the scenario source plus the shrink ops
/// to re-apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repro {
    /// `seed:N` or `fixture:NAME`.
    pub source: ScenarioSource,
    /// The oracle the shrunk scenario violates.
    pub oracle: String,
    /// Shrink ops, in application order.
    pub ops: Vec<String>,
}

/// Serializes a shrunk violation as `chaos_repro.json` content: the
/// scenario source, the violated oracle, and the accepted shrink ops —
/// everything [`replay_repro`] needs for a one-command replay — plus a
/// human-readable summary of the shrunk config.
pub fn write_repro(sc: &ChaosScenario, oracle: &str, ops: &[ShrinkOp]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"tool\": \"chaoscheck\",\n");
    s.push_str("  \"schema_version\": 1,\n");
    s.push_str(&format!("  \"scenario\": \"{}\",\n", sc.source));
    s.push_str(&format!("  \"oracle\": \"{oracle}\",\n"));
    let names: Vec<String> = ops.iter().map(|o| format!("\"{}\"", o.name())).collect();
    s.push_str(&format!("  \"ops\": [{}],\n", names.join(", ")));
    s.push_str(&format!(
        "  \"shrunk\": {{\"topology\": \"{:?}\", \"matrix\": \"{}\", \"scale_milli\": {}, \
         \"k\": {}, \"failures\": {}, \"degraded\": {}, \"loss\": \"{}\"}}\n",
        sc.topology,
        sc.matrix.name(),
        sc.scale_milli,
        sc.k,
        sc.faults.failures.len(),
        sc.faults.degraded.len(),
        match sc.faults.loss {
            LossModel::None => "none",
            LossModel::Bernoulli { .. } => "bernoulli",
            LossModel::GilbertElliott { .. } => "gilbert-elliott",
        }
    ));
    s.push_str("}\n");
    s
}

/// Parses `chaos_repro.json` content written by [`write_repro`] (a flat,
/// line-oriented subset of JSON — the workspace deliberately has no JSON
/// dependency).
pub fn parse_repro(content: &str) -> Result<Repro, String> {
    let field = |name: &str| -> Option<String> {
        for line in content.lines() {
            let t = line.trim().trim_end_matches(',');
            if let Some(rest) = t.strip_prefix(&format!("\"{name}\": ")) {
                return Some(rest.trim_matches('"').to_string());
            }
        }
        None
    };
    let scenario = field("scenario").ok_or("missing \"scenario\" field")?;
    let oracle = field("oracle").ok_or("missing \"oracle\" field")?;
    let source = if let Some(seed) = scenario.strip_prefix("seed:") {
        ScenarioSource::Seed(seed.parse().map_err(|_| "bad seed".to_string())?)
    } else if let Some(name) = scenario.strip_prefix("fixture:") {
        ScenarioSource::Fixture(name.to_string())
    } else {
        return Err(format!("unknown scenario source `{scenario}`"));
    };
    let ops_line = field("ops").ok_or("missing \"ops\" field")?;
    let inner = ops_line
        .trim_start_matches('[')
        .trim_end_matches(']')
        .trim();
    let mut ops = Vec::new();
    if !inner.is_empty() {
        for part in inner.split(',') {
            ops.push(part.trim().trim_matches('"').to_string());
        }
    }
    Ok(Repro {
        source,
        oracle,
        ops,
    })
}

/// Reconstructs the shrunk scenario from a repro and runs it, returning
/// the outcome (which must be the recorded violation for a good repro).
pub fn replay_repro(repro: &Repro) -> Result<ScenarioOutcome, String> {
    let mut sc = match &repro.source {
        ScenarioSource::Seed(s) => ChaosScenario::generate(*s),
        ScenarioSource::Fixture(name) if name == "broken-delivery" => {
            ChaosScenario::broken_fixture()
        }
        ScenarioSource::Fixture(name) => return Err(format!("unknown fixture `{name}`")),
    };
    for name in &repro.ops {
        let op = ShrinkOp::parse(name).ok_or_else(|| format!("unknown shrink op `{name}`"))?;
        op.apply(&mut sc);
    }
    Ok(sc.run())
}

// ---------------------------------------------------------------------
// Batches
// ---------------------------------------------------------------------

/// Aggregated results of a chaoscheck batch over a contiguous seed
/// range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReport {
    /// First seed of the batch.
    pub seed0: u64,
    /// Number of seeds run.
    pub seeds: u64,
    /// Scenarios rejected with a typed error (the poisoned slice).
    pub rejected: u64,
    /// Scenarios that tripped the liveness watchdog.
    pub stalled: u64,
    /// Scenarios that passed every oracle.
    pub passed: u64,
    /// Passed scenarios that delivered fully.
    pub delivered: u64,
    /// Passed scenarios that recorded graceful abandonment.
    pub abandoned_gracefully: u64,
    /// Scenarios re-run to verify bit-identical determinism.
    pub determinism_checked: u64,
    /// Time-to-recovery ratios (faulted vs fault-stripped comm time, in
    /// permille) for passed fault-active scenarios.
    pub recovery_ratio_permille: Vec<u64>,
    /// Violations: (seed, oracle, detail).
    pub violations: Vec<(u64, String, String)>,
    /// Rejections: (seed, error).
    pub rejections: Vec<(u64, String)>,
}

impl BatchReport {
    /// Total scenarios that violated at least one oracle.
    pub fn violated(&self) -> u64 {
        let mut seeds: Vec<u64> = self.violations.iter().map(|(s, _, _)| *s).collect();
        seeds.dedup();
        seeds.len() as u64
    }

    /// Whether the batch is clean: no violations and no stalls.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.stalled == 0
    }

    /// Renders the deterministic `CHAOS_report.json` content: pure
    /// integers and config-derived strings, so the same seed range
    /// produces byte-identical output on every run and machine.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"tool\": \"chaoscheck\",\n");
        s.push_str("  \"schema_version\": 1,\n");
        s.push_str(&format!("  \"seed0\": {},\n", self.seed0));
        s.push_str(&format!("  \"seeds\": {},\n", self.seeds));
        s.push_str(&format!("  \"rejected\": {},\n", self.rejected));
        s.push_str(&format!("  \"stalled\": {},\n", self.stalled));
        s.push_str(&format!("  \"violated\": {},\n", self.violated()));
        s.push_str(&format!("  \"passed\": {},\n", self.passed));
        s.push_str(&format!("  \"delivered\": {},\n", self.delivered));
        s.push_str(&format!(
            "  \"abandoned_gracefully\": {},\n",
            self.abandoned_gracefully
        ));
        s.push_str(&format!(
            "  \"determinism_checked\": {},\n",
            self.determinism_checked
        ));
        let q = |sorted: &[u64], f: f64| -> u64 {
            if sorted.is_empty() {
                return 0;
            }
            let i = ((sorted.len() - 1) as f64 * f).round() as usize;
            sorted[i]
        };
        let mut rec = self.recovery_ratio_permille.clone();
        rec.sort_unstable();
        s.push_str(&format!(
            "  \"recovery_ratio_permille\": {{\"count\": {}, \"min\": {}, \"p50\": {}, \
             \"p90\": {}, \"max\": {}}},\n",
            rec.len(),
            rec.first().copied().unwrap_or(0),
            q(&rec, 0.5),
            q(&rec, 0.9),
            rec.last().copied().unwrap_or(0)
        ));
        let esc = |t: &str| -> String {
            t.chars()
                .flat_map(|c| match c {
                    '"' => vec!['\\', '"'],
                    '\\' => vec!['\\', '\\'],
                    '\n' => vec!['\\', 'n'],
                    c => vec![c],
                })
                .collect()
        };
        let viols: Vec<String> = self
            .violations
            .iter()
            .map(|(seed, oracle, detail)| {
                format!(
                    "    {{\"seed\": {seed}, \"oracle\": \"{}\", \"detail\": \"{}\"}}",
                    esc(oracle),
                    esc(detail)
                )
            })
            .collect();
        if viols.is_empty() {
            s.push_str("  \"violations\": [],\n");
        } else {
            s.push_str(&format!(
                "  \"violations\": [\n{}\n  ],\n",
                viols.join(",\n")
            ));
        }
        let rejs: Vec<String> = self
            .rejections
            .iter()
            .map(|(seed, err)| format!("    {{\"seed\": {seed}, \"error\": \"{}\"}}", esc(err)))
            .collect();
        if rejs.is_empty() {
            s.push_str("  \"rejections\": []\n");
        } else {
            s.push_str(&format!("  \"rejections\": [\n{}\n  ]\n", rejs.join(",\n")));
        }
        s.push_str("}\n");
        s
    }
}

/// Runs seeds `seed0 .. seed0 + seeds` through generation, simulation,
/// and the oracle suite. Every eighth seed is run twice and compared for
/// bit-identical determinism; passed fault-active scenarios additionally
/// run a fault-stripped twin to measure time-to-recovery overhead.
pub fn run_batch(seed0: u64, seeds: u64) -> BatchReport {
    let mut report = BatchReport {
        seed0,
        seeds,
        rejected: 0,
        stalled: 0,
        passed: 0,
        delivered: 0,
        abandoned_gracefully: 0,
        determinism_checked: 0,
        recovery_ratio_permille: Vec::new(),
        violations: Vec::new(),
        rejections: Vec::new(),
    };
    for seed in seed0..seed0 + seeds {
        let sc = ChaosScenario::generate(seed);
        match sc.run() {
            ScenarioOutcome::Rejected(err) => {
                report.rejected += 1;
                report.rejections.push((seed, err));
            }
            ScenarioOutcome::Stalled(detail) => {
                report.stalled += 1;
                report
                    .violations
                    .push((seed, "liveness".to_string(), detail));
            }
            ScenarioOutcome::Violated { violations } => {
                for v in violations {
                    report
                        .violations
                        .push((seed, v.oracle.to_string(), v.detail));
                }
            }
            ScenarioOutcome::Passed { report: run } => {
                report.passed += 1;
                let abandoned = run
                    .faults
                    .as_ref()
                    .is_some_and(|fr| fr.abandoned_commands > 0);
                if abandoned {
                    report.abandoned_gracefully += 1;
                } else if run.functional_check_passed {
                    report.delivered += 1;
                }
                if seed % 8 == 0 {
                    report.determinism_checked += 1;
                    if let ScenarioOutcome::Passed { report: again } = sc.run() {
                        if again.events != run.events
                            || again.comm_time != run.comm_time
                            || again.audit_digest != run.audit_digest
                        {
                            report.violations.push((
                                seed,
                                "determinism".to_string(),
                                format!(
                                    "re-run diverged: events {} vs {}, comm_time {} vs {}",
                                    run.events, again.events, run.comm_time, again.comm_time
                                ),
                            ));
                        }
                    } else {
                        report.violations.push((
                            seed,
                            "determinism".to_string(),
                            "re-run changed outcome class".to_string(),
                        ));
                    }
                }
                if sc.faults.is_active() && run.comm_time.as_ps() > 0 {
                    let mut clean = sc.clone();
                    clean.faults = FaultConfig::none();
                    if let ScenarioOutcome::Passed { report: base } = clean.run() {
                        if base.comm_time.as_ps() > 0 {
                            let ratio = (run.comm_time.as_ps() as u128 * 1000
                                / base.comm_time.as_ps() as u128)
                                as u64;
                            report.recovery_ratio_permille.push(ratio);
                        }
                    }
                }
            }
        }
    }
    report.recovery_ratio_permille.sort_unstable();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = ChaosScenario::generate(42);
        let b = ChaosScenario::generate(42);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = ChaosScenario::generate(43);
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
    }

    #[test]
    fn poisoned_seeds_are_rejected_not_crashed() {
        // seed % 8 == 3 scenarios carry a deliberate config poison.
        let sc = ChaosScenario::generate(3);
        match sc.run() {
            ScenarioOutcome::Rejected(_) => {}
            other => panic!("poisoned seed must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn shrink_ops_round_trip_their_names() {
        for op in [
            ShrinkOp::DropFailure(3),
            ShrinkOp::DropDegradation(0),
            ShrinkOp::DisableLoss,
            ShrinkOp::DisableReduce,
            ShrinkOp::HalveScale,
            ShrinkOp::HalveK,
        ] {
            assert_eq!(ShrinkOp::parse(&op.name()), Some(op));
        }
        assert_eq!(ShrinkOp::parse("no-such-op"), None);
    }

    #[test]
    fn repro_files_round_trip() {
        let sc = ChaosScenario::broken_fixture();
        let ops = vec![ShrinkOp::DisableLoss, ShrinkOp::DropFailure(1)];
        let json = write_repro(&sc, "delivery", &ops);
        let parsed = parse_repro(&json).unwrap();
        assert_eq!(
            parsed.source,
            ScenarioSource::Fixture("broken-delivery".to_string())
        );
        assert_eq!(parsed.oracle, "delivery");
        assert_eq!(parsed.ops, vec!["disable-loss", "drop-failure:1"]);
        // An empty op list parses back as empty.
        let json = write_repro(&sc, "delivery", &[]);
        assert!(parse_repro(&json).unwrap().ops.is_empty());
    }

    #[test]
    fn reduce_bit_yields_a_twin_scenario() {
        // Seed S and S | REDUCE_SEED_BIT must differ only in source and
        // reduce config: the reduce slice is an ablation over the exact
        // scenario population of the base slice.
        for s in [0u64, 1, 2, 42] {
            let base = ChaosScenario::generate(s);
            let twin = ChaosScenario::generate(s | REDUCE_SEED_BIT);
            assert!(!base.reduce.enabled, "base slice keeps reduction off");
            assert!(
                twin.reduce.enabled,
                "reduce slice always flows contributions"
            );
            let mut twin_cmp = twin.clone();
            twin_cmp.source = base.source.clone();
            twin_cmp.reduce = base.reduce;
            assert_eq!(format!("{base:?}"), format!("{twin_cmp:?}"));
        }
        // The slice mixes both transports.
        let transports: Vec<bool> = (0..16)
            .map(|s| {
                ChaosScenario::generate(s | REDUCE_SEED_BIT)
                    .reduce
                    .in_network
            })
            .collect();
        assert!(transports.iter().any(|&t| t) && transports.iter().any(|&t| !t));
    }

    #[test]
    fn fault_targets_exist_in_their_topologies() {
        // Every generated link target must name a real adjacency;
        // resolve_fault_schedule (via scenario.run) would reject it
        // otherwise, and non-poisoned seeds must not be rejected for
        // target validity.
        for seed in 0..40u64 {
            if seed % 8 == 3 {
                continue;
            }
            let sc = ChaosScenario::generate(seed);
            let cfg = sc.cluster_config();
            assert!(
                cfg.validate().is_ok(),
                "seed {seed} generated an invalid config: {:?}",
                cfg.validate()
            );
        }
    }
}
