//! Simulation reports: everything the paper's tables and figures read off.

use std::fmt;

use netsparse_desim::{Histogram, Reservoir, SimTime};

/// Per-node results of a NetSparse simulation.
#[derive(Debug, Clone, Default)]
pub struct NodeReport {
    /// Idxs scanned (nonzeros of the node's rows).
    pub idxs_scanned: u64,
    /// Idxs that referenced local properties.
    pub local: u64,
    /// PRs dropped by the Idx Filter.
    pub filtered: u64,
    /// PRs dropped by coalescing.
    pub coalesced: u64,
    /// Read PRs issued into the network.
    pub issued: u64,
    /// Responses received (property payloads written to host memory).
    pub responses: u64,
    /// Responses carrying a property this node already had (cross-unit
    /// duplicates; zero when filtering+coalescing fully succeed).
    pub duplicate_responses: u64,
    /// Property payload bytes received.
    pub rx_payload_bytes: u64,
    /// Wire bytes received on the node's downlink (headers included).
    pub rx_wire_bytes: u64,
    /// Wire bytes sent on the node's uplink.
    pub tx_wire_bytes: u64,
    /// When the node finished all its RIG commands.
    pub finish: SimTime,
    /// RIG-unit stall events (Pending PR Table full).
    pub stalls: u64,
    /// RIG commands restarted by the §7.1 watchdog.
    pub watchdog_retries: u64,
}

impl NodeReport {
    /// Remote references scanned (idxs that needed a remote property).
    pub fn remote_refs(&self) -> u64 {
        self.filtered + self.coalesced + self.issued
    }

    /// Fraction of remote references eliminated by filtering + coalescing
    /// (Table 7, "F+C Rate").
    pub fn fc_rate(&self) -> f64 {
        let remote = self.remote_refs();
        if remote == 0 {
            0.0
        } else {
            (self.filtered + self.coalesced) as f64 / remote as f64
        }
    }
}

/// Everything the fault-injection layer observed in one run — populated
/// only when faults are configured (see `docs/FAULTS.md`).
#[derive(Debug, Clone, Default)]
pub struct FaultReport {
    /// Packets dropped by the stochastic loss process (Bernoulli or
    /// Gilbert–Elliott), per switch traversal.
    pub dropped_loss: u64,
    /// Packets blackholed by a dead switch or severed route.
    pub dropped_dead: u64,
    /// Distribution of consecutive-drop burst lengths from the loss
    /// process (the Gilbert–Elliott signature; Bernoulli runs cluster at
    /// 1).
    pub drop_bursts: Histogram,
    /// Total watchdog command restarts across the cluster.
    pub watchdog_retries: u64,
    /// Extra waiting accumulated by exponential backoff beyond the base
    /// watchdog interval.
    pub backoff_wait: SimTime,
    /// Next-hop routing entries rewritten by failover recomputations.
    pub route_failovers: u64,
    /// Scheduled failure/repair transitions applied.
    pub fault_transitions: u64,
    /// Nodes that escalated to degraded mode (retry budget exhausted).
    pub degraded_nodes: u64,
    /// PRs sent via the degraded direct path (unconcatenated, uncached).
    pub degraded_prs: u64,
    /// PRs abandoned by watchdog restarts (conservation ledger's
    /// `abandoned` column).
    pub abandoned_prs: u64,
    /// Commands given up entirely after the extended budget (destination
    /// unreachable); nonzero here means `functional_check_passed` is
    /// expected to be false.
    pub abandoned_commands: u64,
    /// Responses that arrived for already-abandoned PRs (the data is
    /// still delivered; the ledger counts them separately to avoid
    /// over-resolving).
    pub stale_responses: u64,
    /// PR ledger entries still open at termination: PRs whose packet was
    /// dropped but whose command completed without them (e.g. a lost
    /// duplicate). Closes the conservation law exactly:
    /// `issued == resolved + abandoned_prs + orphaned_prs`.
    pub orphaned_prs: u64,
    /// Set when `watchdog_ns` is below the estimated worst-case command
    /// RTT: the watchdog restarts *healthy* commands, and the resulting
    /// storm masquerades as loss.
    pub watchdog_warning: Option<String>,
}

impl FaultReport {
    /// Total packets lost to any cause.
    pub fn total_dropped(&self) -> u64 {
        self.dropped_loss + self.dropped_dead
    }
}

/// What the in-network reduction extension observed in one run —
/// populated only when `ClusterConfig::reduce.enabled` is set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReduceReport {
    /// Partial-sum contributions issued by nodes (one per issued read PR).
    pub contribs_issued: u64,
    /// Original contributions that reached their root (counted through
    /// merged PRs' fold counts).
    pub contribs_delivered: u64,
    /// Original contributions lost in flight (fault runs only), counted at
    /// the drop site through each dropped PR's fold count.
    pub contribs_dropped: u64,
    /// Wrapping sum of issued contribution values.
    pub value_issued: u32,
    /// Wrapping sum of delivered contribution values at the roots.
    pub value_delivered: u32,
    /// Wrapping sum of dropped contribution values.
    pub value_dropped: u32,
    /// Partial PRs folded into an existing partial-sum table entry, each
    /// one a PR that stopped traveling at a switch. Counted per table
    /// traversal, not per contribution: an inter-rack partial meets a
    /// table at its source ToR and again at its root's ToR, and a merged
    /// PR counts once however many contributions it carries.
    pub merges: u64,
    /// Partial PRs a table passed on unmerged because it was full (or a
    /// fold would overflow the PR-layer count field), counted per table
    /// traversal like `merges`.
    pub bypassed: u64,
    /// Partial PRs that arrived at root NICs (merged or not).
    pub partial_prs_at_root: u64,
    /// Wire bytes of Partial-carrying packets received on root downlinks.
    pub root_wire_bytes: u64,
}

impl ReduceReport {
    /// Exact conservation check: every issued contribution is delivered or
    /// accounted for at a drop site, and values match wrappingly.
    pub fn conserved(&self) -> bool {
        self.contribs_issued == self.contribs_delivered + self.contribs_dropped
            && self.value_issued == self.value_delivered.wrapping_add(self.value_dropped)
    }
}

/// The full result of one cluster simulation.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Property size (elements).
    pub k: u32,
    /// Per-node breakdown.
    pub nodes: Vec<NodeReport>,
    /// Kernel communication time (the slowest node's finish).
    pub comm_time: SimTime,
    /// PRs per packet across every concatenation point (Table 7).
    pub prs_per_packet: Histogram,
    /// Property Cache lookups across all switches.
    pub cache_lookups: u64,
    /// Property Cache hits across all switches.
    pub cache_hits: u64,
    /// Total wire bytes over all network links (per-hop accounting).
    pub total_link_bytes: u64,
    /// Network line rate in bits/second (for utilization math).
    pub line_rate_bps: f64,
    /// Every node received exactly its needed set of remote properties.
    pub functional_check_passed: bool,
    /// Total events processed by the engine.
    pub events: u64,
    /// Packets lost to injected hardware failures (§7.1).
    pub dropped_packets: u64,
    /// Sampled PR round-trip latencies (issue to response arrival).
    pub pr_latency: Reservoir,
    /// Worst per-link output-queue occupancy in bytes — must stay far
    /// below the switch packet buffer (Table 5: 96 MB) for the lossless
    /// assumption to hold.
    pub max_link_backlog_bytes: u64,
    /// The five busiest links, most-loaded first — where the bottleneck
    /// lives.
    pub hot_links: Vec<HotLink>,
    /// Event-stream digest from the engine's auditor: two same-seed runs
    /// must report identical digests. `None` in release builds without the
    /// `audit` feature (auditing compiled out).
    pub audit_digest: Option<u64>,
    /// Fault-injection observations; `None` when the run was fault-free.
    pub faults: Option<FaultReport>,
    /// In-network reduction observations; `None` when the extension is
    /// disabled (every pre-extension scenario).
    pub reduce: Option<ReduceReport>,
    /// Structured trace capture (`simulate_traced`); `None` for untraced
    /// runs.
    pub trace: Option<netsparse_desim::TraceReport>,
}

/// One heavily loaded link in the run.
#[derive(Debug, Clone, PartialEq)]
pub struct HotLink {
    /// Human-readable source element (e.g. `switch 3`, `nic 17`).
    pub from: String,
    /// Human-readable destination element.
    pub to: String,
    /// Bytes carried.
    pub bytes: u64,
    /// Fraction of the line rate used over the kernel.
    pub utilization: f64,
}

impl SimReport {
    /// Communication time in seconds.
    pub fn comm_time_s(&self) -> f64 {
        self.comm_time.as_secs_f64()
    }

    /// Index of the tail node (latest finish).
    pub fn tail_node(&self) -> usize {
        self.nodes
            .iter()
            .enumerate()
            .max_by_key(|(_, n)| n.finish)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// The tail node's report.
    pub fn tail(&self) -> &NodeReport {
        &self.nodes[self.tail_node()]
    }

    /// Property Cache hit rate (Table 7).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.cache_lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.cache_lookups as f64
        }
    }

    /// Tail-node goodput: useful payload bits over `comm_time` at the line
    /// rate (Table 7, "Gput").
    pub fn tail_goodput(&self) -> f64 {
        let t = self.comm_time_s();
        if t <= 0.0 {
            return 0.0;
        }
        let bits = self.tail().rx_payload_bytes as f64 * 8.0;
        bits / t / self.line_rate_bps
    }

    /// Tail-node downlink line utilization (Table 7, "Line Util.").
    pub fn tail_line_utilization(&self) -> f64 {
        let t = self.comm_time_s();
        if t <= 0.0 {
            return 0.0;
        }
        let bits = self.tail().rx_wire_bytes as f64 * 8.0;
        bits / t / self.line_rate_bps
    }

    /// Total read PRs issued cluster-wide.
    pub fn total_issued(&self) -> u64 {
        self.nodes.iter().map(|n| n.issued).sum()
    }

    /// The `q`-quantile of PR round-trip latency, if any PRs completed.
    pub fn pr_latency_quantile(&self, q: f64) -> Option<SimTime> {
        self.pr_latency.quantile(q).map(SimTime::from_ps)
    }

    /// Figure 19's curve: how many nodes are still communicating at each
    /// of `samples` evenly spaced instants of the kernel.
    pub fn active_nodes_curve(&self, samples: usize) -> Vec<u32> {
        let end = self.comm_time;
        (0..samples)
            .map(|i| {
                let t = SimTime::from_ps(
                    ((end.as_ps() as u128 * i as u128) / samples.max(1) as u128) as u64,
                );
                self.nodes.iter().filter(|n| n.finish > t).count() as u32
            })
            .collect()
    }
}

impl fmt::Display for SimReport {
    /// A one-screen human summary of the run (examples print this).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "communication: {} over {} nodes (K={}, {} events)",
            self.comm_time,
            self.nodes.len(),
            self.k,
            self.events
        )?;
        let tail = self.tail();
        writeln!(
            f,
            "tail node {}: F+C {:.1}% | goodput {:.1}% | line util {:.1}%",
            self.tail_node(),
            tail.fc_rate() * 100.0,
            self.tail_goodput() * 100.0,
            self.tail_line_utilization() * 100.0
        )?;
        writeln!(
            f,
            "PRs: {} issued, {:.1}/packet | cache hits {:.1}% | {} B on the wire",
            self.total_issued(),
            self.prs_per_packet.mean(),
            self.cache_hit_rate() * 100.0,
            self.total_link_bytes
        )?;
        if let (Some(p50), Some(p99)) = (
            self.pr_latency_quantile(0.5),
            self.pr_latency_quantile(0.99),
        ) {
            writeln!(f, "PR latency: p50 {p50}, p99 {p99}")?;
        }
        if let Some(fr) = &self.faults {
            writeln!(
                f,
                "faults: {} dropped ({} loss / {} dead), {} retries, {} failovers",
                fr.total_dropped(),
                fr.dropped_loss,
                fr.dropped_dead,
                fr.watchdog_retries,
                fr.route_failovers
            )?;
            if fr.degraded_nodes > 0 {
                writeln!(
                    f,
                    "degraded mode: {} nodes, {} direct PRs, {} PRs abandoned",
                    fr.degraded_nodes, fr.degraded_prs, fr.abandoned_prs
                )?;
            }
            if let Some(w) = &fr.watchdog_warning {
                writeln!(f, "warning: {w}")?;
            }
        } else if self.dropped_packets > 0 {
            writeln!(f, "faults: {} packets dropped", self.dropped_packets)?;
        }
        if let Some(rr) = &self.reduce {
            writeln!(
                f,
                "reduction: {} contribs, {} merged in-network ({} bypassed), {} PRs / {} B at roots",
                rr.contribs_issued,
                rr.merges,
                rr.bypassed,
                rr.partial_prs_at_root,
                rr.root_wire_bytes
            )?;
        }
        if let Some(tr) = &self.trace {
            writeln!(
                f,
                "trace: {} records ({} dropped), digest {:#018x}",
                tr.buffer.len(),
                tr.buffer.dropped(),
                tr.digest
            )?;
        }
        write!(
            f,
            "functional check: {}",
            if self.functional_check_passed {
                "passed"
            } else {
                "FAILED"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(finish_ns: u64, payload: u64, wire: u64) -> NodeReport {
        NodeReport {
            finish: SimTime::from_ns(finish_ns),
            rx_payload_bytes: payload,
            rx_wire_bytes: wire,
            filtered: 6,
            coalesced: 2,
            issued: 2,
            ..NodeReport::default()
        }
    }

    fn report() -> SimReport {
        SimReport {
            k: 16,
            nodes: vec![node(100, 800, 1_000), node(200, 1_600, 2_000)],
            comm_time: SimTime::from_ns(200),
            prs_per_packet: Histogram::new(),
            cache_lookups: 10,
            cache_hits: 4,
            total_link_bytes: 3_000,
            line_rate_bps: 400e9,
            functional_check_passed: true,
            events: 42,
            dropped_packets: 0,
            pr_latency: Reservoir::new(16, 0),
            max_link_backlog_bytes: 0,
            hot_links: Vec::new(),
            audit_digest: None,
            faults: None,
            reduce: None,
            trace: None,
        }
    }

    #[test]
    fn tail_node_is_latest_finisher() {
        let r = report();
        assert_eq!(r.tail_node(), 1);
        assert_eq!(r.tail().rx_payload_bytes, 1_600);
    }

    #[test]
    fn fc_rate_counts_drops() {
        let n = node(1, 0, 0);
        assert_eq!(n.remote_refs(), 10);
        assert!((n.fc_rate() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn goodput_and_utilization() {
        let r = report();
        // 1600 B in 200 ns at 400 Gbps: 1600*8 / 200e-9 / 400e9 = 0.16.
        assert!((r.tail_goodput() - 0.16).abs() < 1e-12);
        assert!((r.tail_line_utilization() - 0.20).abs() < 1e-12);
    }

    #[test]
    fn cache_hit_rate() {
        assert!((report().cache_hit_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn display_summarizes_the_run() {
        let text = report().to_string();
        assert!(text.contains("tail node 1"));
        assert!(text.contains("functional check: passed"));
    }

    #[test]
    fn display_summarizes_faults() {
        let mut r = report();
        r.faults = Some(FaultReport {
            dropped_loss: 7,
            dropped_dead: 3,
            watchdog_retries: 5,
            route_failovers: 2,
            degraded_nodes: 1,
            degraded_prs: 11,
            watchdog_warning: Some("watchdog 1 us below estimated RTT 4 us".into()),
            ..FaultReport::default()
        });
        let text = r.to_string();
        assert!(text.contains("10 dropped (7 loss / 3 dead)"), "{text}");
        assert!(text.contains("degraded mode: 1 nodes"), "{text}");
        assert!(text.contains("warning: watchdog"), "{text}");
        assert_eq!(r.faults.as_ref().unwrap().total_dropped(), 10);
    }

    #[test]
    fn reduce_report_conservation_and_display() {
        let mut r = report();
        let mut rr = ReduceReport {
            contribs_issued: 10,
            contribs_delivered: 9,
            contribs_dropped: 1,
            value_issued: 5u32.wrapping_add(u32::MAX),
            value_delivered: u32::MAX,
            value_dropped: 5,
            merges: 6,
            bypassed: 1,
            partial_prs_at_root: 3,
            root_wire_bytes: 512,
        };
        assert!(rr.conserved());
        rr.contribs_dropped = 0;
        assert!(!rr.conserved());
        rr.contribs_dropped = 1;
        r.reduce = Some(rr);
        let text = r.to_string();
        assert!(text.contains("reduction: 10 contribs, 6 merged"), "{text}");
        assert!(text.contains("512 B at roots"), "{text}");
    }

    #[test]
    fn active_nodes_curve_decreases() {
        let r = report();
        let curve = r.active_nodes_curve(4);
        assert_eq!(curve, vec![2, 2, 1, 1]);
    }
}
