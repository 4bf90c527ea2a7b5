//! The network fabric: link state, routing tables, and failover.
//!
//! [`Fabric`] is the shared transport substrate underneath the node and
//! rack components. Components never touch links or forwarding tables
//! directly — they hand packet batches to [`Fabric::send_batch_from_nic`]
//! / [`Fabric::send_from_switch`], and the fabric serializes them onto
//! links, consults the forwarding tables, and schedules the arrival
//! events. Each arrival is scheduled on the event-queue lane numbered by
//! its [`LinkId`]: [`Link::transmit`] returns nondecreasing arrival times
//! (the wire's `busy_until` never moves back and its latency is fixed),
//! which is exactly the order a lane requires. Fault transitions
//! (scheduled failures and repairs) are fabric events: they mutate the
//! [`FailureSet`] and reconverge every route over the survivors.

use netsparse_desim::{Scheduler, SimTime};
use netsparse_netsim::topology::FailureSet;
use netsparse_netsim::{Element, Link, LinkId, Network, SwitchId, Topology};
use netsparse_snic::ConcatPacket;

#[cfg(feature = "trace")]
use netsparse_desim::trace::{TraceEvent, TrackId};

use crate::config::{ClusterConfig, FaultTarget};
use crate::sim::driver::Shared;
use crate::sim::error::SimError;
use crate::sim::events::{Event, FaultAction};

/// Link state, routing tables, and the live failure set of the cluster
/// network (NIC uplinks, ToR and spine switches, and their wiring).
pub(crate) struct Fabric {
    pub(crate) net: Network,
    pub(crate) links: Vec<Link>,
    /// Per node: its uplink and ToR.
    pub(crate) from_nic: Vec<(LinkId, u32)>,
    /// Per node: its downlink (ToR -> NIC), for rx accounting.
    pub(crate) downlink: Vec<LinkId>,
    /// `[switch][dest node]` -> next hop.
    pub(crate) from_switch: Vec<Vec<Option<(LinkId, Element)>>>,
    /// Currently-dead links and switches.
    pub(crate) failures: FailureSet,
}

impl Fabric {
    /// Builds the network, its per-link runtime state, and the initial
    /// (failure-free) routing tables from the precomputed paths. An
    /// unroutable or degenerate topology comes back as a typed
    /// [`SimError::Route`] so generated configurations can be rejected.
    pub(crate) fn try_new(cfg: &ClusterConfig) -> Result<Self, SimError> {
        let net = Network::try_new(cfg.topology)?;
        let n_nodes = net.nodes();
        let n_switches = net.switches();

        // Runtime link states.
        let mut links: Vec<Link> = (0..net.links()).map(|_| Link::new(cfg.link)).collect();

        // Routing tables from the precomputed paths.
        let mut from_nic = vec![(LinkId(0), 0u32); n_nodes as usize];
        let mut downlink = vec![LinkId(0); n_nodes as usize];
        let mut from_switch: Vec<Vec<Option<(LinkId, Element)>>> =
            vec![vec![None; n_nodes as usize]; n_switches as usize];
        for src in 0..n_nodes {
            for dst in 0..n_nodes {
                if src == dst {
                    continue;
                }
                let path = net.try_path(src, dst)?;
                let mut prev = Element::Nic(src);
                for hop in &path.hops {
                    match prev {
                        Element::Nic(n) if n == src => {
                            let Element::Switch(sw) = hop.to else {
                                // simaudit:allow(no-lib-panic): netsim paths start NIC->switch by construction
                                panic!("first hop must reach a switch");
                            };
                            from_nic[src as usize] = (hop.link, sw.0);
                        }
                        Element::Switch(sw) => {
                            let entry = &mut from_switch[sw.0 as usize][dst as usize];
                            if let Some(existing) = entry {
                                debug_assert_eq!(
                                    *existing,
                                    (hop.link, hop.to),
                                    "routing must be destination-deterministic"
                                );
                            } else {
                                *entry = Some((hop.link, hop.to));
                            }
                            if let Element::Nic(n) = hop.to {
                                downlink[n as usize] = hop.link;
                            }
                        }
                        // simaudit:allow(no-lib-panic): netsim paths terminate at the first foreign NIC
                        Element::Nic(_) => panic!("path passes through a foreign NIC"),
                    }
                    prev = hop.to;
                }
            }
        }

        // Per-node degradation: a reduced-bandwidth NIC slows both the
        // uplink and the ToR->NIC downlink of the affected node.
        for d in &cfg.faults.degraded {
            let mut params = cfg.link;
            params.bandwidth_bps *= d.nic_bandwidth_factor;
            links[from_nic[d.node as usize].0 .0 as usize] = Link::new(params);
            links[downlink[d.node as usize].0 as usize] = Link::new(params);
        }

        Ok(Fabric {
            net,
            links,
            from_nic,
            downlink,
            from_switch,
            failures: FailureSet::new(),
        })
    }

    /// Resolves the config's fault schedule to concrete netsim ids up
    /// front, so transitions are O(1) mutations at event time. A schedule
    /// naming a switch-switch link the topology does not have is a typed
    /// [`SimError::MissingFaultLink`] — config validation checks index
    /// ranges, but only the built network knows its adjacencies.
    pub(crate) fn resolve_fault_schedule(
        &self,
        cfg: &ClusterConfig,
    ) -> Result<Vec<(SimTime, FaultAction)>, SimError> {
        let mut pending: Vec<(SimTime, FaultAction)> = Vec::new();
        for ev in &cfg.faults.failures {
            match ev.target {
                FaultTarget::Switch(s) => {
                    let s = SwitchId(s);
                    pending.push((SimTime::from_ns(ev.at_ns), FaultAction::FailSwitch(s)));
                    if let Some(r) = ev.repair_at_ns {
                        pending.push((SimTime::from_ns(r), FaultAction::RepairSwitch(s)));
                    }
                }
                FaultTarget::SwitchLink { from, to } => {
                    let link = self
                        .net
                        .find_link(
                            Element::Switch(SwitchId(from)),
                            Element::Switch(SwitchId(to)),
                        )
                        .ok_or(SimError::MissingFaultLink { from, to })?;
                    pending.push((SimTime::from_ns(ev.at_ns), FaultAction::FailLink(link)));
                    if let Some(r) = ev.repair_at_ns {
                        pending.push((SimTime::from_ns(r), FaultAction::RepairLink(link)));
                    }
                }
            }
        }
        Ok(pending)
    }

    /// The static topology the fabric was built over.
    pub(crate) fn topology(&self) -> Topology {
        *self.net.topology()
    }

    /// Serializes a batch of packets onto `node`'s uplink and schedules
    /// their arrivals at the node's ToR on the uplink's event-queue lane.
    /// Drains `batch` so the caller can reuse its allocation.
    pub(crate) fn send_batch_from_nic(
        &mut self,
        node: u32,
        batch: &mut Vec<(SimTime, ConcatPacket)>,
        sched: &mut Scheduler<'_, Event>,
    ) {
        let (link, sw) = self.from_nic[node as usize];
        let now = sched.now();
        for (at, pkt) in batch.drain(..) {
            let arrive = self.links[link.0 as usize].transmit(at.max(now), pkt.wire_bytes);
            let event = Event::PacketAtSwitch {
                switch: sw,
                from_nic: true,
                pkt,
            };
            sched.schedule_lane(link.0, arrive, event);
        }
    }

    /// Forwards a batch of packets one hop from `sw`, each exactly as
    /// [`Fabric::send_from_switch`] does. Drains `batch` so the caller can
    /// reuse its allocation.
    pub(crate) fn send_batch_from_switch(
        &mut self,
        shared: &mut Shared,
        sw: u32,
        batch: &mut Vec<(SimTime, ConcatPacket)>,
        sched: &mut Scheduler<'_, Event>,
    ) {
        for (at, pkt) in batch.drain(..) {
            self.send_from_switch(shared, sw, at, pkt, sched);
        }
    }

    /// Forwards `pkt` one hop from `sw` toward its destination, scheduling
    /// its arrival on the outgoing link's event-queue lane, or blackholes
    /// it if the route is gone.
    pub(crate) fn send_from_switch(
        &mut self,
        shared: &mut Shared,
        sw: u32,
        at: SimTime,
        pkt: ConcatPacket,
        sched: &mut Scheduler<'_, Event>,
    ) {
        // With no failures the table is total by construction; under an
        // active failure set it can have holes — the destination may be
        // unreachable, or the packet may sit on a stale path after a
        // failover rebuild. Either way the packet is blackholed here and
        // the watchdog recovers the PRs it carried.
        let route = self.from_switch[sw as usize][pkt.dest as usize];
        let Some((link, to)) = route.filter(|&(link, _)| !self.failures.link_dead(link)) else {
            shared.drop_dead(sw, &pkt);
            return;
        };
        let arrive = self.links[link.0 as usize].transmit(at.max(sched.now()), pkt.wire_bytes);
        let event = match to {
            Element::Switch(next) => Event::PacketAtSwitch {
                switch: next.0,
                from_nic: false,
                pkt,
            },
            Element::Nic(n) => Event::PacketAtNic { node: n, pkt },
        };
        sched.schedule_lane(link.0, arrive, event);
    }

    /// Applies a scheduled failure or repair, then reconverges routing.
    pub(crate) fn apply_fault(&mut self, shared: &mut Shared, action: FaultAction) {
        match action {
            FaultAction::FailSwitch(s) => self.failures.fail_switch(s),
            FaultAction::RepairSwitch(s) => self.failures.repair_switch(s),
            FaultAction::FailLink(l) => self.failures.fail_link(l),
            FaultAction::RepairLink(l) => self.failures.repair_link(l),
        }
        shared.faults.fault_transitions += 1;
        #[cfg(feature = "trace")]
        let failovers_before = shared.faults.route_failovers;
        self.rebuild_routes(shared);
        #[cfg(feature = "trace")]
        shared.trace(
            TrackId::cluster(),
            TraceEvent::FaultApplied {
                failovers: (shared.faults.route_failovers - failovers_before) as u32,
            },
        );
    }

    /// Recomputes every (switch, dest) forwarding entry over the surviving
    /// elements using deterministic failover paths (ECMP next-choice).
    /// Entries whose next hop changed are counted as route failovers.
    /// Packets already in flight on a stale path are blackholed at their
    /// next hop lookup — exactly what a real reconvergence does to
    /// in-flight traffic — and recovered by the watchdog.
    fn rebuild_routes(&mut self, shared: &mut Shared) {
        let n_nodes = self.net.nodes();
        let n_switches = self.net.switches();
        let mut table: Vec<Vec<Option<(LinkId, Element)>>> =
            vec![vec![None; n_nodes as usize]; n_switches as usize];
        for src in 0..n_nodes {
            for dst in 0..n_nodes {
                if src == dst {
                    continue;
                }
                let Some(path) = self.net.failover_path(src, dst, &self.failures) else {
                    continue; // dst unreachable from src right now
                };
                let mut prev = Element::Nic(src);
                for hop in &path.hops {
                    if let Element::Switch(sw) = prev {
                        let entry = &mut table[sw.0 as usize][dst as usize];
                        // First writer wins: sources sharing a switch on
                        // their paths to dst agree by construction on most
                        // topologies; where they don't (HyperX dim-order
                        // fallbacks), any surviving choice is loop-free.
                        if entry.is_none() {
                            *entry = Some((hop.link, hop.to));
                        }
                    }
                    prev = hop.to;
                }
            }
        }
        let mut changed = 0u64;
        for (old_row, new_row) in self.from_switch.iter().zip(&table) {
            for (old, new) in old_row.iter().zip(new_row) {
                if old != new {
                    changed += 1;
                }
            }
        }
        shared.faults.route_failovers += changed;
        self.from_switch = table;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsparse_netsim::Topology;

    fn fabric_and_shared() -> (Fabric, Shared) {
        let topo = Topology::LeafSpine {
            racks: 2,
            rack_size: 4,
            spines: 2,
        };
        let cfg = ClusterConfig::mini(topo, 16);
        (Fabric::try_new(&cfg).unwrap(), Shared::new(&cfg))
    }

    /// The fabric can be constructed and exercised without any node or
    /// rack component: the initial tables are total, and a spine death
    /// reconverges every inter-rack route onto the surviving spine.
    #[test]
    fn failover_reroutes_around_a_dead_spine_in_isolation() {
        let (mut f, mut shared) = fabric_and_shared();
        // Initially every ToR row is total: a ToR can forward toward any
        // destination. (Spine rows may have holes — ECMP need not select
        // every spine for every destination.)
        for sw in 0..2u32 {
            for dst in 0..f.net.nodes() {
                let entry = f.from_switch[sw as usize][dst as usize];
                assert!(entry.is_some(), "hole in initial routing: {sw} -> {dst}");
            }
        }
        // Leaf-spine with 2 racks of 4: switches 0..2 are ToRs, 2..4 are
        // spines. Kill spine 2; routes must reconverge via spine 3.
        let spine = SwitchId(2);
        f.apply_fault(&mut shared, FaultAction::FailSwitch(spine));
        assert_eq!(shared.faults.fault_transitions, 1);
        assert!(shared.faults.route_failovers > 0, "no route changed");
        // Cross-rack routes from ToR 0 must now avoid the dead spine.
        for dst in 4..8 {
            let (_, to) = f.from_switch[0][dst].expect("dst must stay reachable");
            assert_ne!(to, Element::Switch(spine), "route still uses dead spine");
        }
        // Repair heals the ToR rows back to a total map.
        f.apply_fault(&mut shared, FaultAction::RepairSwitch(spine));
        for sw in 0..2u32 {
            for dst in 0..f.net.nodes() {
                assert!(f.from_switch[sw as usize][dst as usize].is_some());
            }
        }
    }

    /// A one-PR read packet toward `dest` carrying `idx`.
    fn packet(dest: u32, idx: u32) -> ConcatPacket {
        ConcatPacket::degraded_singleton(
            &netsparse_snic::HeaderSpec::paper(),
            dest,
            netsparse_snic::PrKind::Read,
            netsparse_snic::Pr {
                src_node: 0,
                src_tid: 0,
                idx,
                req_id: idx,
            },
            0,
        )
    }

    /// A packet toward an unreachable destination is blackholed and
    /// counted, not forwarded or panicked on.
    #[test]
    fn unreachable_destination_blackholes_and_counts() {
        let (mut f, mut shared) = fabric_and_shared();
        // Kill node 7's downlink path entirely by failing its ToR.
        f.apply_fault(&mut shared, FaultAction::FailSwitch(SwitchId(1)));
        let dropped_before = shared.faults.dropped_dead;
        let mut queue = netsparse_desim::EventQueue::new();
        let mut sched = netsparse_desim::Scheduler::at(&mut queue, SimTime::ZERO);
        f.send_from_switch(&mut shared, 0, SimTime::ZERO, packet(7, 1), &mut sched);
        assert_eq!(shared.faults.dropped_dead, dropped_before + 1);
        assert!(queue.is_empty(), "blackholed packet must not schedule");
    }

    /// Two back-to-back bursts on one uplink arrive at the ToR in send
    /// order, one serialization time apart. Events scheduled off the lane
    /// between the bursts, at the same instants as two arrivals, keep
    /// their push order against them: after the first burst's packet,
    /// before the second burst's.
    #[test]
    fn uplink_burst_arrives_in_fifo_order() {
        let (mut f, _) = fabric_and_shared();
        let (uplink, tor) = f.from_nic[0];
        let params = *f.links[uplink.0 as usize].params();
        let ser = params.serialization(packet(5, 0).wire_bytes);
        let latency: SimTime = params.latency.into();
        let arrival = |i: u64| SimTime::from_ps(ser.as_ps() * (i + 1)) + latency;

        let mut queue = netsparse_desim::EventQueue::new();
        let mut sched = netsparse_desim::Scheduler::at(&mut queue, SimTime::ZERO);
        let mut batch: Vec<(SimTime, ConcatPacket)> =
            (0..16).map(|i| (SimTime::ZERO, packet(5, i))).collect();
        f.send_batch_from_nic(0, &mut batch, &mut sched);
        assert!(batch.is_empty(), "the batch is drained for reuse");
        sched.schedule(arrival(5), Event::HostIssue { node: 5 });
        sched.schedule(arrival(20), Event::HostIssue { node: 20 });
        batch.extend((16..32).map(|i| (SimTime::ZERO, packet(5, i))));
        f.send_batch_from_nic(0, &mut batch, &mut sched);
        assert_eq!(queue.len(), 34);

        let mut order = Vec::new();
        while let Some((t, ev)) = queue.pop() {
            match ev {
                Event::PacketAtSwitch {
                    switch,
                    from_nic: true,
                    pkt,
                } => {
                    assert_eq!(switch, tor);
                    let idx = pkt.prs[0].idx;
                    assert_eq!(t, arrival(u64::from(idx)), "packet {idx} mistimed");
                    order.push(format!("p{idx}"));
                }
                Event::HostIssue { node } => {
                    assert_eq!(t, arrival(u64::from(node)));
                    order.push(format!("h{node}"));
                }
                _ => panic!("unexpected event"),
            }
        }
        let mut expect: Vec<String> = (0..32).map(|i| format!("p{i}")).collect();
        expect.insert(20, "h20".into());
        expect.insert(6, "h5".into());
        assert_eq!(order, expect);
    }
}
