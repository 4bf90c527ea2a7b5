//! §7 extensions under test: packet-loss recovery via the RIG watchdog
//! (§7.1) — including burst loss, link/switch failures, failover routing
//! and degraded-mode escalation — and virtualized Concatenation Queues
//! (§7.2).

use netsparse::config::{ConcatImpl, FaultConfig};
use netsparse::prelude::*;
use netsparse_desim::{Liveness, LossModel};
use netsparse_snic::vconcat::{dedicated_sram_bytes, VirtualCqConfig};

fn topo() -> Topology {
    Topology::LeafSpine {
        racks: 4,
        rack_size: 8,
        spines: 4,
    }
}

fn workload(seed: u64) -> CommWorkload {
    SuiteConfig {
        matrix: SuiteMatrix::Uk,
        nodes: 32,
        rack_size: 8,
        scale: 0.05,
        seed,
    }
    .generate()
}

fn lossy_cfg(loss: f64) -> ClusterConfig {
    let mut cfg = ClusterConfig::mini(topo(), 16);
    // Generous watchdog: far above a command's worst-case latency, so it
    // only fires for genuinely lost packets.
    cfg.faults = FaultConfig::builder()
        .bernoulli_loss(loss)
        .watchdog_ns(100_000)
        .seed(7)
        .build()
        .expect("test fault config is valid");
    cfg
}

#[test]
fn watchdog_without_loss_never_fires() {
    let wl = workload(1);
    let lossless = simulate(&lossy_cfg(0.0), &wl);
    assert!(lossless.functional_check_passed);
    assert_eq!(lossless.dropped_packets, 0);
    let retries: u64 = lossless.nodes.iter().map(|n| n.watchdog_retries).sum();
    assert_eq!(retries, 0, "spurious watchdog restarts");
    // And it matches a run without any fault config at all.
    let plain = simulate(&ClusterConfig::mini(topo(), 16), &wl);
    assert_eq!(plain.comm_time, lossless.comm_time);
}

#[test]
fn kernel_survives_one_percent_packet_loss() {
    let wl = workload(2);
    let report = simulate(&lossy_cfg(0.01), &wl);
    assert!(report.dropped_packets > 0, "loss must actually occur");
    assert!(
        report.functional_check_passed,
        "recovery must re-fetch every lost property"
    );
    let retries: u64 = report.nodes.iter().map(|n| n.watchdog_retries).sum();
    assert!(retries > 0, "drops must trigger watchdog restarts");
}

#[test]
fn kernel_survives_heavy_packet_loss() {
    let wl = workload(3);
    let report = simulate(&lossy_cfg(0.05), &wl);
    assert!(report.functional_check_passed);
}

#[test]
fn recovery_costs_time() {
    let wl = workload(4);
    let clean = simulate(&lossy_cfg(0.0), &wl);
    let lossy = simulate(&lossy_cfg(0.02), &wl);
    assert!(
        lossy.comm_time > clean.comm_time,
        "retries cannot be free: {} vs {}",
        lossy.comm_time,
        clean.comm_time
    );
}

#[test]
#[should_panic(expected = "watchdog")]
fn loss_without_watchdog_is_rejected() {
    let mut cfg = ClusterConfig::mini(topo(), 16);
    // Bypasses the validated builder; simulate() still re-validates.
    cfg.faults.loss = LossModel::Bernoulli { rate: 0.01 };
    simulate(&cfg, &workload(5));
}

#[test]
fn burst_loss_recovers_and_is_seed_deterministic() {
    let wl = workload(10);
    let mut cfg = ClusterConfig::mini(topo(), 16);
    cfg.faults = FaultConfig::builder()
        .burst_loss(0.02, 0.2, 0.001, 0.2)
        .watchdog_ns(100_000)
        .seed(7)
        .build()
        .expect("burst config is valid");
    let a = simulate(&cfg, &wl);
    let b = simulate(&cfg, &wl);
    assert!(a.functional_check_passed);
    let fr = a
        .faults
        .as_ref()
        .expect("faulted run populates FaultReport");
    assert!(fr.dropped_loss > 0, "burst loss must actually drop packets");
    assert!(
        fr.drop_bursts.count() > 0,
        "drops must be recorded as bursts"
    );
    // Same seed: identical trajectory, down to the event digest.
    assert_eq!(a.comm_time, b.comm_time);
    assert_eq!(a.events, b.events);
    assert_eq!(a.audit_digest, b.audit_digest);
    // Different fault seed: a different (but still recovered) trajectory.
    let mut other = cfg.clone();
    other.faults.seed = 8;
    let c = simulate(&other, &wl);
    assert!(c.functional_check_passed);
    assert_ne!(
        (a.comm_time, a.events),
        (c.comm_time, c.events),
        "fault randomness must key off the fault seed"
    );
}

#[test]
fn link_failure_triggers_failover_and_recovers() {
    let wl = workload(11);
    let mut cfg = ClusterConfig::mini(topo(), 16);
    // Cut rack 0's uplink to spine 4 (the primary spine for every fourth
    // destination) mid-run (the clean run drains in ~4 us); ECMP
    // next-choice reroutes via spines 5..8.
    cfg.faults = FaultConfig::builder()
        .fail_link_at(0, 4, 2_000)
        .watchdog_ns(100_000)
        .seed(7)
        .build()
        .expect("link-failure config is valid");
    let report = simulate(&cfg, &wl);
    assert!(
        report.functional_check_passed,
        "failover routing must keep every property deliverable"
    );
    let fr = report
        .faults
        .as_ref()
        .expect("faulted run populates FaultReport");
    assert_eq!(fr.fault_transitions, 1);
    assert!(fr.route_failovers > 0, "routes must actually move");
}

#[test]
fn remote_tor_death_escalates_to_degraded_delivery() {
    let wl = workload(12);
    let mut cfg = ClusterConfig::mini(topo(), 16);
    // Rack 1's ToR (and its property cache) dies at 1 us — mid-run, the
    // clean run drains in ~4 us — and stays dead for 60 us. Commands
    // fetching from rack 1 burn their 3-retry budget against the
    // blackhole by ~30 us (4 us watchdog, doubling), escalate to degraded
    // direct PRs, and finish after the repair — instead of hanging or
    // panicking. The final-abandon rung (7 restarts, ~500 us) stays far
    // behind the repair, so no data is given up.
    cfg.faults = FaultConfig::builder()
        .fail_switch_transient(1, 1_000, 60_000)
        .watchdog_ns(4_000)
        .max_retries(3)
        .backoff(2.0, 0.1)
        .seed(7)
        .build()
        .expect("transient ToR death config is valid");
    let report = simulate(&cfg, &wl);
    assert!(
        report.functional_check_passed,
        "delivery must complete once the switch is repaired"
    );
    let fr = report
        .faults
        .as_ref()
        .expect("faulted run populates FaultReport");
    assert_eq!(fr.fault_transitions, 2, "failure and repair both applied");
    assert!(fr.dropped_dead > 0, "the dead ToR must blackhole packets");
    assert!(
        fr.degraded_nodes > 0,
        "some node must exhaust its retry budget and degrade"
    );
    assert!(fr.degraded_prs > 0, "degraded nodes emit singleton PRs");
}

/// Total network partition: rack 1's ToR dies permanently, severing
/// every path to its 8 nodes. The run must *terminate* (no hang, no
/// panic): affected commands burn their extended retry budget, are
/// abandoned with the abandonment on the record, and the conservation
/// ledger still balances exactly.
#[test]
fn total_partition_terminates_with_recorded_abandonment() {
    let wl = workload(16);
    let mut cfg = ClusterConfig::mini(topo(), 16);
    cfg.faults = FaultConfig::builder()
        .fail_switch_at(1, 1_000) // rack 1's ToR, never repaired
        .watchdog_ns(4_000)
        .max_retries(2)
        .backoff(2.0, 0.1)
        .seed(7)
        .build()
        .expect("partition config is valid");
    // Liveness-guarded entry point: a hang would come back as a typed
    // stall, not a wedged test run.
    cfg.limits = Liveness {
        max_events: Some(50_000_000),
        max_stagnant_events: Some(1_000_000),
    };
    let report = try_simulate(&cfg, &wl).expect("partitioned run must terminate, not stall");
    assert!(
        !report.functional_check_passed,
        "a severed rack cannot deliver"
    );
    let fr = report
        .faults
        .as_ref()
        .expect("faulted run populates FaultReport");
    assert!(fr.dropped_dead > 0, "the dead ToR must blackhole packets");
    assert!(
        fr.abandoned_commands > 0,
        "unreachable destinations must be abandoned, not spun on"
    );
    assert!(fr.abandoned_prs > 0, "abandoned commands abandon their PRs");
    // Conservation still balances exactly: every issued PR resolved,
    // abandoned, or orphaned by a drop.
    let issued: u64 = report.nodes.iter().map(|n| n.issued).sum();
    let responses: u64 = report.nodes.iter().map(|n| n.responses).sum();
    assert_eq!(
        issued,
        (responses - fr.stale_responses) + fr.abandoned_prs + fr.orphaned_prs,
        "PR conservation must balance at termination"
    );
}

#[test]
fn straggler_slows_the_cluster_but_changes_nothing_else() {
    let wl = workload(13);
    let clean = simulate(&ClusterConfig::mini(topo(), 16), &wl);
    let mut cfg = ClusterConfig::mini(topo(), 16);
    cfg.faults = FaultConfig::builder()
        .degrade_node(0, 4.0, 0.25)
        .build()
        .expect("degradation config is valid");
    let slow = simulate(&cfg, &wl);
    assert!(slow.functional_check_passed);
    assert!(
        slow.comm_time > clean.comm_time,
        "a 4x straggler with a quarter-rate NIC cannot be free"
    );
    // Pure degradation loses nothing and never trips the watchdog.
    let fr = slow
        .faults
        .as_ref()
        .expect("degradation populates the report");
    assert_eq!(fr.total_dropped(), 0);
    assert_eq!(fr.watchdog_retries, 0);
    assert_eq!(fr.degraded_nodes, 0, "slow is not escalated");
}

#[test]
fn tight_watchdog_surfaces_a_warning() {
    let wl = workload(14);
    let mut cfg = ClusterConfig::mini(topo(), 16);
    let est = cfg.estimated_worst_rtt_ns();
    cfg.faults = FaultConfig::builder()
        .watchdog_ns(est / 2)
        .build()
        .expect("watchdog-only config is valid");
    let report = simulate(&cfg, &wl);
    assert!(report.functional_check_passed);
    let fr = report
        .faults
        .as_ref()
        .expect("an armed watchdog populates the fault report");
    let warning = fr
        .watchdog_warning
        .as_ref()
        .expect("a timeout below the worst-case RTT must warn");
    assert!(warning.contains("watchdog_ns"), "warning: {warning}");
}

/// The PR's acceptance scenario: burst loss + one spine death + one
/// straggler on the mini cluster completes functionally, populates the
/// fault report, and replays bit-identically under the same seed.
#[test]
fn combined_faults_meet_the_acceptance_bar() {
    let wl = workload(15);
    let mut cfg = ClusterConfig::mini(topo(), 16);
    cfg.faults = FaultConfig::builder()
        .burst_loss(0.01, 0.1, 0.001, 0.05)
        .fail_switch_at(5, 3_000) // spine 5 of ToRs 0..4 / spines 4..8
        .degrade_node(3, 2.0, 0.5)
        .watchdog_ns(100_000)
        .seed(21)
        .build()
        .expect("combined scenario is valid");
    let a = simulate(&cfg, &wl);
    assert!(a.functional_check_passed);
    let fr = a
        .faults
        .as_ref()
        .expect("faulted run populates FaultReport");
    assert!(fr.total_dropped() > 0, "faults must be observable");
    assert_eq!(fr.fault_transitions, 1);
    assert!(
        fr.route_failovers > 0,
        "the dead spine must be routed around"
    );
    let b = simulate(&cfg, &wl);
    assert_eq!(
        a.events, b.events,
        "same-seed rerun must replay identically"
    );
    assert_eq!(a.audit_digest, b.audit_digest);
    assert_eq!(a.comm_time, b.comm_time);
}

#[test]
fn virtual_cqs_preserve_functionality() {
    let wl = workload(6);
    let mut cfg = ClusterConfig::mini(topo(), 16);
    cfg.concat_impl = ConcatImpl::Virtual(VirtualCqConfig {
        physical_queues: 64,
        physical_bytes: 128,
    });
    let report = simulate(&cfg, &wl);
    assert!(report.functional_check_passed);
    assert!(report.prs_per_packet.mean() > 1.0, "still concatenates");
}

#[test]
fn virtual_cqs_track_dedicated_performance_with_a_fraction_of_sram() {
    let wl = workload(7);
    let dedicated = simulate(&ClusterConfig::mini(topo(), 16), &wl);
    let mut cfg = ClusterConfig::mini(topo(), 16);
    let pool = VirtualCqConfig {
        physical_queues: 128,
        physical_bytes: 256,
    };
    cfg.concat_impl = ConcatImpl::Virtual(pool);
    let virt = simulate(&cfg, &wl);
    assert!(virt.functional_check_passed);
    // §7.2's claim: similar behaviour, cluster-size-independent SRAM.
    assert!(
        virt.comm_time_s() < dedicated.comm_time_s() * 1.5,
        "virtual {} vs dedicated {}",
        virt.comm_time_s(),
        dedicated.comm_time_s()
    );
    assert!(pool.sram_bytes() * 2 < dedicated_sram_bytes(32, 1_500));
}

#[test]
fn tiny_virtual_pool_still_correct_under_pressure() {
    let wl = workload(8);
    let mut cfg = ClusterConfig::mini(topo(), 16);
    cfg.concat_impl = ConcatImpl::Virtual(VirtualCqConfig {
        physical_queues: 4,
        physical_bytes: 128,
    });
    let report = simulate(&cfg, &wl);
    assert!(report.functional_check_passed);
}

#[test]
fn faults_and_virtual_cqs_compose() {
    let wl = workload(9);
    let mut cfg = lossy_cfg(0.01);
    cfg.concat_impl = ConcatImpl::Virtual(VirtualCqConfig::paper_sketch());
    let report = simulate(&cfg, &wl);
    assert!(report.functional_check_passed);
}
