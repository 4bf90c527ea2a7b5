//! The generic simulation driver: component wiring, shared state, and the
//! single event loop behind [`simulate`] and `simulate_traced`.
//!
//! The driver owns the component instances (one [`NodeState`] per rank,
//! one [`RackState`] per switch), the transport [`Fabric`], and the
//! [`Shared`] cross-cutting state (global latencies, the loss process,
//! fault counters, the PR-latency reservoir, and — when compiled in — the
//! model auditor and the structured tracer). Each delivered event is
//! routed by [`Event::port`] to exactly one component's
//! [`Component::handle`]; the component sees its own state as `&mut self`
//! and everything else through [`Ctx`], so a handler *cannot* reach into
//! another component's state — the port map is the complete coupling
//! surface.
//!
//! Auditing and tracing are hooks, not forks: the same driver body runs
//! with or without them (they compile to nothing when the features are
//! off), which is what lets [`simulate`] and `simulate_traced` share every
//! line of the event loop.

use netsparse_desim::{Engine, Histogram, LossProcess, Reservoir, Scheduler, SimTime, SplitMix64};
use netsparse_netsim::{Element, LinkParams};
use netsparse_snic::{ConcatPacket, IdxFilter, PrKind};
use netsparse_sparse::{ColumnSet, CommWorkload};

#[cfg(feature = "trace")]
use netsparse_desim::trace::{
    lane, DropReason, TraceConfig, TraceEvent, TraceReport, Tracer, TrackId,
};

use crate::config::ClusterConfig;
use crate::metrics::{FaultReport, HotLink, NodeReport, ReduceReport, SimReport};
use crate::sim::error::SimError;
use crate::sim::events::{Event, FaultAction, Port};
use crate::sim::fabric::Fabric;
use crate::sim::node::{build_nodes, NodeState};
use crate::sim::rack::{build_racks, RackState};

/// A component of the cluster model: handles exactly the events addressed
/// to its port, touching only its own state and the shared context.
pub(crate) trait Component {
    /// Handles one event delivered at `now`.
    fn handle(&mut self, now: SimTime, ev: Event, ctx: &mut Ctx<'_, '_, '_>);
}

/// Everything a component may touch besides its own state: the (immutable)
/// configuration and workload, the transport fabric, the shared
/// cross-cutting state, and the scheduler for follow-up events.
pub(crate) struct Ctx<'r, 'w, 'q> {
    pub(crate) cfg: &'w ClusterConfig,
    pub(crate) wl: &'w CommWorkload,
    pub(crate) fabric: &'r mut Fabric,
    pub(crate) shared: &'r mut Shared,
    pub(crate) sched: &'r mut Scheduler<'q, Event>,
}

/// Cross-cutting run state shared by every component: precomputed global
/// latencies, the packet-loss process, fault accounting, the PR round-trip
/// reservoir, and the (feature-gated) audit/trace hooks.
pub(crate) struct Shared {
    /// Property payload bytes (`k * 4`).
    pub(crate) payload: u32,
    /// Baseline switch traversal latency.
    pub(crate) switch_lat: SimTime,
    /// One-way PCIe latency.
    pub(crate) pcie_lat: SimTime,
    /// PCIe line rate, for the first Idx Buffer chunk's serialization.
    pub(crate) pcie: LinkParams,
    /// The configured packet-loss process (applied per switch traversal).
    pub(crate) loss: LossProcess,
    /// Cached `loss.is_lossy()`: skips the RNG entirely when loss is off.
    pub(crate) loss_active: bool,
    /// Deterministic jitter source for watchdog backoff.
    pub(crate) jitter_rng: SplitMix64,
    /// Fault/recovery accounting, folded into the report.
    pub(crate) faults: FaultReport,
    /// Reduction conservation counters (contributions issued, delivered at
    /// roots, dropped by faults) and root-side traffic; the switch-side
    /// `merges` and `bypassed` are filled in at report time.
    pub(crate) reduce: ReduceReport,
    /// Reservoir sample of PR round-trip latencies (ps).
    pub(crate) pr_latency: Reservoir,
    /// Model-level conservation ledger ("pr" issued/resolved/abandoned).
    #[cfg(any(debug_assertions, feature = "audit"))]
    pub(crate) audit: netsparse_desim::Auditor,
    /// Structured tracer, when one is attached.
    #[cfg(feature = "trace")]
    pub(crate) tracer: Option<Tracer>,
}

impl Shared {
    /// Precomputes the shared run state from the configuration.
    pub(crate) fn new(cfg: &ClusterConfig) -> Self {
        Shared {
            payload: cfg.payload_bytes(),
            switch_lat: cfg.switch_latency(),
            pcie_lat: cfg.pcie_latency(),
            pcie: cfg.pcie_link(),
            loss: LossProcess::new(cfg.faults.loss, cfg.faults.seed ^ 0x10DD_F00D),
            loss_active: cfg.faults.loss.is_lossy(),
            jitter_rng: SplitMix64::new(cfg.faults.seed ^ 0x0BAC_C0FF),
            faults: FaultReport::default(),
            reduce: ReduceReport::default(),
            pr_latency: Reservoir::new(4_096, 0x01A7_E0C1),
            #[cfg(any(debug_assertions, feature = "audit"))]
            audit: netsparse_desim::Auditor::new(),
            #[cfg(feature = "trace")]
            tracer: None,
        }
    }

    /// Records a trace event if a tracer is attached.
    #[cfg(feature = "trace")]
    #[inline]
    pub(crate) fn trace(&self, track: TrackId, event: TraceEvent) {
        if let Some(tr) = &self.tracer {
            tr.record(track, event);
        }
    }

    /// Blackholes `pkt` at switch `sw` because its switch, route or next
    /// link is dead: counts the drop, closes the reduction ledger for it
    /// and traces it. The watchdog recovers the PRs it carried.
    pub(crate) fn drop_dead(&mut self, sw: u32, pkt: &ConcatPacket) {
        self.faults.dropped_dead += 1;
        self.account_partial_drop(pkt);
        #[cfg(feature = "trace")]
        self.trace(
            TrackId::switch(sw, lane::FAULT),
            TraceEvent::PacketDropped {
                reason: DropReason::Dead,
                prs: pkt.prs.len() as u32,
            },
        );
        #[cfg(not(feature = "trace"))]
        let _ = sw;
    }

    /// Closes the reduction conservation ledger for a dropped packet: any
    /// Partial contributions it carried are counted as dropped (so
    /// `issued == delivered + dropped` holds under faults too).
    #[inline]
    pub(crate) fn account_partial_drop(&mut self, pkt: &ConcatPacket) {
        if pkt.kind != PrKind::Partial {
            return;
        }
        for pr in &pkt.prs {
            self.reduce.contribs_dropped += pr.partial_contribs();
            self.reduce.value_dropped = self.reduce.value_dropped.wrapping_add(pr.partial_value());
        }
    }
}

/// The assembled cluster: components, fabric, shared state, and the
/// resolved fault schedule awaiting injection into the engine.
struct World<'a> {
    cfg: &'a ClusterConfig,
    wl: &'a CommWorkload,
    nodes: Vec<NodeState>,
    racks: Vec<RackState>,
    fabric: Fabric,
    shared: Shared,
    pending_transitions: Vec<(SimTime, FaultAction)>,
}

impl<'a> World<'a> {
    fn try_new(cfg: &'a ClusterConfig, wl: &'a CommWorkload) -> Result<Self, SimError> {
        let fabric = Fabric::try_new(cfg)?;
        if fabric.net.nodes() != wl.nodes() {
            return Err(SimError::WorkloadMismatch {
                workload_nodes: wl.nodes(),
                topology_nodes: fabric.net.nodes(),
            });
        }
        let pending_transitions = fabric.resolve_fault_schedule(cfg)?;
        let nodes = build_nodes(cfg, wl);
        let racks = build_racks(cfg, fabric.net.switches());
        Ok(World {
            cfg,
            wl,
            nodes,
            racks,
            fabric,
            shared: Shared::new(cfg),
            pending_transitions,
        })
    }

    /// Wires `tracer` into every instrumented component: RIG units, NIC
    /// and switch concatenation points, Property-Cache banks, and the
    /// network links (the only links the model has, so the sum of
    /// `link_tx` bytes replays to exactly `total_link_bytes`).
    #[cfg(feature = "trace")]
    fn attach_tracer(&mut self, tracer: &Tracer) {
        for st in &mut self.nodes {
            for u in &mut st.units {
                u.rig.set_tracer(tracer.clone());
            }
            st.concat
                .set_tracer(tracer.clone(), TrackId::node(st.id, lane::CONCAT));
        }
        for st in &mut self.racks {
            st.concat
                .set_tracer(tracer.clone(), TrackId::switch(st.id, lane::CONCAT));
            if let Some(cache) = &mut st.cache {
                cache.set_tracer(tracer.clone(), TrackId::switch(st.id, lane::CACHE));
            }
        }
        for (i, link) in self.fabric.links.iter_mut().enumerate() {
            link.set_tracer(tracer.clone(), TrackId::link(i as u32));
        }
        self.shared.tracer = Some(tracer.clone());
    }

    /// Routes one event to the component that owns its port.
    fn dispatch(&mut self, now: SimTime, ev: Event, sched: &mut Scheduler<'_, Event>) {
        // Advance the tracer's stamp clock once per delivered event; every
        // component record within this event carries this (monotone) time.
        #[cfg(feature = "trace")]
        if let Some(tr) = &self.shared.tracer {
            tr.set_now(now);
        }
        let mut ctx = Ctx {
            cfg: self.cfg,
            wl: self.wl,
            fabric: &mut self.fabric,
            shared: &mut self.shared,
            sched,
        };
        match ev.port() {
            Port::Node(n) => self.nodes[n as usize].handle(now, ev, &mut ctx),
            Port::Rack(s) => self.racks[s as usize].handle(now, ev, &mut ctx),
            Port::Fabric => {
                let Event::FaultTransition { action } = ev else {
                    // simaudit:allow(no-lib-panic): the port-wiring lint pass proves this arm unreachable
                    unreachable!("only fault transitions address the fabric port");
                };
                ctx.fabric.apply_fault(ctx.shared, action);
            }
        }
    }

    /// Final invariant sweep, run before the report is assembled: cache
    /// accounting per switch, concatenators drained, link utilization
    /// physical, and (loss-free, retry-free runs only) PR conservation.
    #[cfg(any(debug_assertions, feature = "audit"))]
    fn audit_end_of_run(&self, comm_end: SimTime) {
        for s in &self.racks {
            if let Some(cache) = &s.cache {
                cache.check_invariants();
            }
        }
        for n in &self.nodes {
            self.shared.audit.check(
                n.concat.queued_prs() == 0,
                "NIC concatenators drained at end of run",
            );
            self.shared.audit.check(
                n.finish.is_none() || n.units.iter().all(|u| u.rig.outstanding() == 0),
                "no PR outstanding on a finished node",
            );
        }
        for s in &self.racks {
            self.shared.audit.check(
                s.concat.queued_prs() == 0,
                "switch concatenators drained at end of run",
            );
            self.shared.audit.check(
                s.reduce.as_ref().is_none_or(|t| t.in_flight() == 0),
                "reduce tables drained at end of run",
            );
        }
        if comm_end > SimTime::ZERO {
            for l in &self.fabric.links {
                self.shared.audit.check(
                    l.utilization(comm_end) <= 1.0 + 1e-9,
                    "link utilization within line rate",
                );
            }
        }
        let retries: u64 = self
            .nodes
            .iter()
            .flat_map(|n| n.units.iter())
            .map(|u| u.retries)
            .sum();
        if self.shared.audit.ledger("pr").is_some() {
            if !self.cfg.faults.needs_watchdog() && retries == 0 {
                // Fault-free runs must balance exactly: every issued PR
                // resolved, nothing abandoned.
                self.shared.audit.check_balanced("pr");
            } else {
                // Faulted runs conserve instead: issued PRs are resolved,
                // abandoned by the watchdog, or still tracked (a dropped
                // duplicate whose command completed without it).
                let outstanding: u64 = self.nodes.iter().map(|n| n.issue_times.len() as u64).sum();
                self.shared.audit.check_conserved("pr", outstanding);
            }
        }
    }

    fn into_report(mut self, events: u64, audit_digest: Option<u64>) -> SimReport {
        let k = self.cfg.k;
        self.shared.loss.finish();
        let mut fr = std::mem::take(&mut self.shared.faults);
        // Ledger entries still open at termination (dropped PRs whose
        // command completed without them) close the conservation law:
        // issued == resolved + abandoned + orphaned.
        fr.orphaned_prs = self.nodes.iter().map(|n| n.issue_times.len() as u64).sum();
        fr.dropped_loss = self.shared.loss.drops();
        fr.drop_bursts = self.shared.loss.burst_lengths().clone();
        fr.degraded_nodes = self.nodes.iter().filter(|n| n.degraded_mode).count() as u64;
        let mut prs_per_packet = Histogram::new();
        for n in &self.nodes {
            prs_per_packet.merge(n.concat.prs_per_packet());
        }
        let mut cache_lookups = 0;
        let mut cache_hits = 0;
        let mut reduce_merges = 0;
        let mut reduce_bypassed = 0;
        for s in &self.racks {
            prs_per_packet.merge(s.concat.prs_per_packet());
            if let Some(cs) = s.cache.as_ref().map(|c| c.stats()) {
                cache_lookups += cs.lookups;
                cache_hits += cs.hits;
            }
            if let Some(rs) = s.reduce.as_ref().map(|t| t.stats()) {
                reduce_merges += rs.merged;
                reduce_bypassed += rs.bypassed;
            }
        }
        let reduce = if self.cfg.reduce.enabled {
            Some(ReduceReport {
                merges: reduce_merges,
                bypassed: reduce_bypassed,
                ..std::mem::take(&mut self.shared.reduce)
            })
        } else {
            None
        };
        let total_link_bytes = self.fabric.links.iter().map(|l| l.bytes()).sum();
        let comm_end = self
            .nodes
            .iter()
            .filter_map(|n| n.finish)
            .max()
            .unwrap_or(SimTime::ZERO);
        #[cfg(any(debug_assertions, feature = "audit"))]
        self.audit_end_of_run(comm_end);
        let describe = |e: Element| match e {
            Element::Nic(n) => format!("nic {n}"),
            Element::Switch(s) => format!("switch {}", s.0),
        };
        let mut ranked: Vec<(u64, u32)> = self
            .fabric
            .links
            .iter()
            .enumerate()
            .filter(|(_, l)| l.bytes() > 0)
            .map(|(i, l)| (l.bytes(), i as u32))
            .collect();
        ranked.sort_unstable_by(|a, b| b.cmp(a));
        let hot_links: Vec<HotLink> = ranked
            .into_iter()
            .take(5)
            .map(|(bytes, i)| {
                let (from, to) = self.fabric.net.link_ends(netsparse_netsim::LinkId(i));
                HotLink {
                    from: describe(from),
                    to: describe(to),
                    bytes,
                    utilization: self.fabric.links[i as usize].utilization(comm_end),
                }
            })
            .collect();
        // Worst output-queue backlog across all links, expressed in bytes
        // at the line rate: the switch packet-buffer occupancy audit.
        let max_backlog = self
            .fabric
            .links
            .iter()
            .map(|l| (l.max_backlog().as_secs_f64() * l.params().bandwidth_bps / 8.0) as u64)
            .max()
            .unwrap_or(0);
        let mut functional = true;
        let payload = u64::from(self.shared.payload);
        // One column set, refilled per node: the remote idxs its stream
        // references, which its Idx Filter must hold exactly.
        let mut needed = ColumnSet::new(self.wl.n_cols());
        let nodes: Vec<NodeReport> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(p, n)| {
                let p32 = p as u32;
                needed.insert_outside(self.wl.stream(p32), self.wl.partition().range(p32));
                if !fetched_exactly(&n.filter, &needed) {
                    functional = false;
                }
                needed.clear();
                let mut r = NodeReport {
                    idxs_scanned: self.wl.stream(p32).len() as u64,
                    responses: n.responses,
                    duplicate_responses: n.dup_responses,
                    rx_payload_bytes: n.responses * payload,
                    rx_wire_bytes: self.fabric.links[self.fabric.downlink[p].0 as usize].bytes(),
                    tx_wire_bytes: self.fabric.links[self.fabric.from_nic[p].0 .0 as usize].bytes(),
                    finish: n.finish.unwrap_or(SimTime::ZERO),
                    ..NodeReport::default()
                };
                for u in &n.units {
                    let s = u.rig.stats();
                    r.local += s.local;
                    r.filtered += s.filtered;
                    r.coalesced += s.coalesced;
                    r.issued += s.issued;
                    r.stalls += s.stalls;
                    r.watchdog_retries += u.retries;
                }
                if n.finish.is_none() {
                    functional = false;
                }
                r
            })
            .collect();
        let comm_time = nodes
            .iter()
            .map(|n| n.finish)
            .max()
            .unwrap_or(SimTime::ZERO);
        fr.watchdog_retries = nodes.iter().map(|n| n.watchdog_retries).sum();
        let wd = self.cfg.faults.watchdog_ns;
        if wd > 0 {
            // Watchdog-sanity check (satellite of §7.1): a timeout below
            // the worst-case PR round trip restarts healthy commands.
            let est = self.cfg.estimated_worst_rtt_ns();
            if wd < est {
                fr.watchdog_warning = Some(format!(
                    "watchdog_ns = {wd} is below the estimated worst-case \
                     PR round trip of {est} ns; expect spurious restarts"
                ));
            }
        }
        let dropped_packets = fr.total_dropped();
        let faults = if self.cfg.faults.is_active() || wd > 0 {
            Some(fr)
        } else {
            None
        };
        // Fold the trace into the report: raw buffer, derived timeline
        // (16 windows), and the full-trace digest.
        #[cfg(feature = "trace")]
        let trace = self
            .shared
            .tracer
            .as_ref()
            .map(|t| TraceReport::from_tracer(t, 16));
        SimReport {
            k,
            nodes,
            comm_time,
            prs_per_packet,
            cache_lookups,
            cache_hits,
            total_link_bytes,
            line_rate_bps: self.cfg.link.bandwidth_bps,
            functional_check_passed: functional,
            events,
            dropped_packets,
            pr_latency: self.shared.pr_latency,
            max_link_backlog_bytes: max_backlog,
            hot_links,
            audit_digest,
            faults,
            reduce,
            #[cfg(feature = "trace")]
            trace,
        }
    }
}

/// Runs the communication phase of one distributed sparse kernel under
/// `cfg` and returns the full report.
///
/// # Panics
///
/// Panics on any [`SimError`]: the workload's node count differs from the
/// topology's, the configuration fails [`ClusterConfig::validate`] (e.g.
/// packet loss configured without a watchdog), the topology is
/// unroutable, or a [`ClusterConfig::limits`] liveness budget trips.
/// Callers that must survive arbitrary generated configurations use
/// [`try_simulate`] instead.
///
/// # Example
///
/// See the crate-level example.
pub fn simulate(cfg: &ClusterConfig, wl: &CommWorkload) -> SimReport {
    // simaudit:allow(no-lib-panic): documented panicking wrapper over try_simulate for experiments
    try_simulate(cfg, wl).unwrap_or_else(|e| panic!("simulate: {e}"))
}

/// The fallible simulation entry point: every failure mode — invalid
/// configuration, workload/topology mismatch, unroutable topology, fault
/// schedule naming absent links, liveness stall — comes back as a typed
/// [`SimError`] instead of a panic. Validation is front-loaded, so a bad
/// configuration is rejected before any event runs.
pub fn try_simulate(cfg: &ClusterConfig, wl: &CommWorkload) -> Result<SimReport, SimError> {
    cfg.validate()?;
    let world = World::try_new(cfg, wl)?;
    drive(world)
}

/// Runs exactly like [`simulate`] with a structured tracer attached; the
/// returned report additionally carries a `TraceReport` (records,
/// timeline metrics, full-trace digest). Available only under the `trace`
/// feature — default builds compile no trace code at all.
///
/// # Panics
///
/// Same conditions as [`simulate`].
#[cfg(feature = "trace")]
pub fn simulate_traced(cfg: &ClusterConfig, wl: &CommWorkload, tcfg: TraceConfig) -> SimReport {
    // simaudit:allow(no-lib-panic): documented panicking wrapper over try_simulate_traced
    try_simulate_traced(cfg, wl, tcfg).unwrap_or_else(|e| panic!("simulate: {e}"))
}

/// The fallible counterpart of [`simulate_traced`]; see [`try_simulate`].
#[cfg(feature = "trace")]
pub fn try_simulate_traced(
    cfg: &ClusterConfig,
    wl: &CommWorkload,
    tcfg: TraceConfig,
) -> Result<SimReport, SimError> {
    cfg.validate()?;
    let mut world = World::try_new(cfg, wl)?;
    let tracer = Tracer::new(tcfg);
    world.attach_tracer(&tracer);
    drive(world)
}

/// The single event-loop body behind [`simulate`] and `simulate_traced`:
/// inject the fault schedule and the initial host stimuli, drain the
/// queue through the port dispatcher under the `cfg.limits` liveness
/// budgets ([`Engine::run`]), then assemble the report. A tripped budget
/// comes back as [`SimError::Stalled`].
fn drive(mut world: World<'_>) -> Result<SimReport, SimError> {
    let mut engine = Engine::new();
    for (t, action) in std::mem::take(&mut world.pending_transitions) {
        engine.schedule(t, Event::FaultTransition { action });
    }
    for node in 0..world.wl.nodes() {
        if !world.wl.stream(node).is_empty() {
            engine.schedule(SimTime::ZERO, Event::HostIssue { node });
        }
    }
    // The run drains naturally: every queued PR has an armed expiry and
    // every outstanding PR a response in flight. The liveness guard only
    // exists to turn a model bug (or an adversarial chaos scenario) into
    // a structured stall instead of a hang.
    engine.run(world.cfg.limits, |now, ev, sched| {
        world.dispatch(now, ev, sched)
    })?;
    let digest = engine.audit_digest();
    Ok(world.into_report(engine.processed(), digest))
}

/// The functional check of one node: its Idx Filter holds exactly the
/// remote idxs its stream references. Equal counts plus every needed idx
/// set is set equality.
fn fetched_exactly(filter: &IdxFilter, needed: &ColumnSet) -> bool {
    filter.len() == needed.members().len() as u64
        && needed.members().iter().all(|&idx| filter.contains(idx))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functional_check_is_set_equality() {
        let mut needed = ColumnSet::new(10_000);
        // A stream of 12 references to 6 remote idxs; 100..200 is local.
        needed.insert_outside(
            &[7, 150, 4_096, 7, 9_999, 64, 120, 4_096, 63, 3, 7, 199],
            100..200,
        );
        assert_eq!(needed.members().len(), 6);
        let filled = |idxs: &[u32]| {
            let mut f = IdxFilter::new(10_000);
            for &i in idxs {
                f.insert(i);
            }
            f
        };
        let exact = [3, 7, 63, 64, 4_096, 9_999];
        assert!(fetched_exactly(&filled(&exact), &needed), "equal sets");
        assert!(
            !fetched_exactly(&filled(&exact[1..]), &needed),
            "one needed idx missing"
        );
        assert!(
            !fetched_exactly(&filled(&[3, 7, 63, 64, 4_096, 9_999, 5_000]), &needed),
            "one idx fetched that was never needed"
        );
        // Same count, different sets: the membership test decides.
        assert!(!fetched_exactly(
            &filled(&[3, 7, 63, 64, 4_096, 5_000]),
            &needed
        ));
    }
}
