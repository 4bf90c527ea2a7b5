//! The rack component: one switch (ToR or spine) with its NetSparse
//! extensions.
//!
//! A [`RackState`] owns a switch's middle-pipe hardware: the Property
//! Cache (edge switches with the mechanism on), the in-network reduction
//! table (edge switches of reduce-enabled runs) and the cross-node
//! concatenation point. Edge (ToR) switches deconcatenate arriving packets
//! and run every PR through these in a fixed order
//! ([`RackState::middle_pipes`]); spines (and every switch when the
//! mechanisms are off) forward packets verbatim through the
//! [`Fabric`](super::fabric::Fabric). Ingress fault handling — dead-switch
//! blackholing and the configured loss process — also happens here,
//! before any processing, exactly once per traversal.

use netsparse_desim::{Scheduler, SimTime};
use netsparse_snic::{ConcatConfig, ConcatPacket, ConcatPoint, PrKind};
use netsparse_switch::{MiddlePipes, ReduceTable};

#[cfg(feature = "trace")]
use netsparse_desim::trace::{lane, DropReason, TraceEvent, TrackId};

use netsparse_netsim::SwitchId;

use crate::config::ClusterConfig;
use crate::sim::driver::{Component, Ctx};
use crate::sim::events::Event;
use crate::sim::node::concat_point;

/// One switch of the cluster: the component bound to `Port::Rack(id)`.
pub(crate) struct RackState {
    /// This switch's id (netsim switch index).
    pub(crate) id: u32,
    /// The Property Cache's middle pipes: edge switches with the cache on
    /// (possibly too small to form a set, which still costs its latency).
    pub(crate) cache: Option<MiddlePipes>,
    /// The partial-sum table: edge switches of reduce-enabled runs.
    pub(crate) reduce: Option<ReduceTable>,
    /// The cross-node concatenation point.
    pub(crate) concat: ConcatPoint,
    /// Latency of one cache probe or fill, and of one reduce fold.
    cache_lat: SimTime,
    pub(crate) concat_sched: Option<SimTime>,
    /// Earliest scheduled reduce-window expiry, if any.
    pub(crate) reduce_sched: Option<SimTime>,
    /// Whether this switch runs the NetSparse extensions (edge switches
    /// with the mechanisms enabled).
    pub(crate) netsparse: bool,
    /// Pooled per-event output batch (time-stamped packets bound for the
    /// fabric), reused across events so the hot path never allocates.
    pub(crate) out_buf: Vec<(SimTime, ConcatPacket)>,
}

/// Builds every switch component of the cluster (`n_switches` of them,
/// ToRs first, matching netsim's switch numbering).
pub(crate) fn build_racks(cfg: &ClusterConfig, n_switches: u32) -> Vec<RackState> {
    let switch_concat_cfg = ConcatConfig {
        headers: cfg.headers,
        mtu: cfg.snic.mtu,
        delay: cfg.switch_concat_delay(),
        enabled: cfg.mechanisms.switch_concat,
    };
    let cache_lat = cfg
        .switch_clock()
        .cycles(cfg.switch.cache.latency_cycles as u64);
    let reduce_on = cfg.reduce.enabled && cfg.reduce.in_network;
    (0..n_switches)
        .map(|s| {
            // Non-edge switches carry no NetSparse extensions.
            let edge = cfg.topology.is_edge_switch(SwitchId(s));
            RackState {
                id: s,
                cache: (edge && cfg.mechanisms.property_cache)
                    .then(|| MiddlePipes::new(&cfg.switch, cfg.payload_bytes().max(1))),
                reduce: (edge && reduce_on).then(|| {
                    ReduceTable::new(
                        cfg.reduce.table_entries,
                        SimTime::from_ns(cfg.reduce.flush_ns),
                    )
                }),
                concat: concat_point(switch_concat_cfg, cfg.concat_impl),
                cache_lat,
                concat_sched: None,
                reduce_sched: None,
                netsparse: edge && cfg.mechanisms.netsparse_switch(),
                out_buf: Vec::new(),
            }
        })
        .collect()
}

impl Component for RackState {
    fn handle(&mut self, now: SimTime, ev: Event, ctx: &mut Ctx<'_, '_, '_>) {
        match ev {
            Event::PacketAtSwitch { from_nic, pkt, .. } => {
                self.packet_at_switch(now, from_nic, pkt, ctx);
            }
            Event::SwitchConcatExpire { .. } => self.concat_expire(now, ctx),
            Event::ReduceExpire { .. } => self.reduce_expire(now, ctx),
            // simaudit:allow(no-lib-panic): the port-wiring lint pass proves this arm unreachable
            _ => unreachable!("event routed to the wrong port"),
        }
    }
}

impl RackState {
    /// (Re-)schedules the earliest pending concatenator expiry.
    fn arm_concat(&mut self, sched: &mut Scheduler<'_, Event>) {
        if let Some(t) = self.concat.next_expiry() {
            let t = t.max(sched.now());
            if self.concat_sched.is_none_or(|cur| t < cur) {
                self.concat_sched = Some(t);
                sched.schedule(t, Event::SwitchConcatExpire { switch: self.id });
            }
        }
    }

    /// (Re-)schedules the earliest pending reduce-window close.
    fn arm_reduce(&mut self, sched: &mut Scheduler<'_, Event>) {
        if let Some(t) = self.reduce.as_ref().and_then(ReduceTable::next_expiry) {
            let t = t.max(sched.now());
            if self.reduce_sched.is_none_or(|cur| t < cur) {
                self.reduce_sched = Some(t);
                sched.schedule(t, Event::ReduceExpire { switch: self.id });
            }
        }
    }

    /// Hands the output batch to the fabric, returns the buffer to the
    /// pool and re-arms the concatenator's expiry.
    fn send_out(&mut self, mut out: Vec<(SimTime, ConcatPacket)>, ctx: &mut Ctx<'_, '_, '_>) {
        ctx.fabric
            .send_batch_from_switch(ctx.shared, self.id, &mut out, ctx.sched);
        self.out_buf = out;
        self.arm_concat(ctx.sched);
    }

    /// Flushes expired concatenation queues onto the forwarding path
    /// through the pooled output buffer.
    fn concat_expire(&mut self, now: SimTime, ctx: &mut Ctx<'_, '_, '_>) {
        self.concat_sched = None;
        let mut out = std::mem::take(&mut self.out_buf);
        self.concat.flush_expired_with(now, |p| out.push((now, p)));
        self.send_out(out, ctx);
    }

    /// Flushes reduce-table entries whose aggregation window closed: each
    /// merged Partial PR goes straight into the concatenation point (below
    /// the table, so it is never re-absorbed) toward its root.
    fn reduce_expire(&mut self, now: SimTime, ctx: &mut Ctx<'_, '_, '_>) {
        self.reduce_sched = None;
        let payload = ctx.shared.payload;
        let mut out = std::mem::take(&mut self.out_buf);
        if let Some(table) = &mut self.reduce {
            let concat = &mut self.concat;
            table.flush_expired_with(now, |root, pr| {
                concat.push_with(now, root, PrKind::Partial, pr, payload, |p| {
                    out.push((now, p));
                });
            });
        }
        self.send_out(out, ctx);
        self.arm_reduce(ctx.sched);
    }

    fn packet_at_switch(
        &mut self,
        now: SimTime,
        from_nic: bool,
        pkt: ConcatPacket,
        ctx: &mut Ctx<'_, '_, '_>,
    ) {
        let sw = self.id;
        // §7.1 hardware faults: a dead switch blackholes everything it
        // receives; surviving packets then face the configured loss
        // process (Bernoulli or Gilbert–Elliott bursts) per traversal.
        // Detection/recovery is the RIG watchdog.
        if ctx.fabric.failures.switch_dead(SwitchId(sw)) {
            ctx.shared.drop_dead(sw, &pkt);
            return;
        }
        if ctx.shared.loss_active && ctx.shared.loss.drop_packet() {
            ctx.shared.account_partial_drop(&pkt);
            #[cfg(feature = "trace")]
            ctx.shared.trace(
                TrackId::switch(sw, lane::FAULT),
                TraceEvent::PacketDropped {
                    reason: DropReason::Loss,
                    prs: pkt.prs.len() as u32,
                },
            );
            return; // counted by the loss process, surfaced in FaultReport
        }
        let t = now + ctx.shared.switch_lat;
        let topo = ctx.fabric.topology();
        let process =
            !pkt.degraded && self.netsparse && (from_nic || topo.edge_switch_of(pkt.dest).0 == sw);
        if process {
            self.middle_pipes(t, pkt, ctx);
        } else {
            ctx.fabric
                .send_from_switch(ctx.shared, sw, t, pkt, ctx.sched);
        }
    }

    /// The processing path: deconcatenates `pkt` and runs each PR through
    /// the middle pipes in their fixed order: Property Cache probe or
    /// fill, reduce fold, concatenation. A probe, a fill and a fold each
    /// cost `cache_lat`; concatenation is free.
    fn middle_pipes(&mut self, t: SimTime, pkt: ConcatPacket, ctx: &mut Ctx<'_, '_, '_>) {
        let topo = ctx.fabric.topology();
        let partition = ctx.wl.partition();
        let payload = ctx.shared.payload;
        let mut out = std::mem::take(&mut self.out_buf);
        for &pr in &pkt.prs {
            let (mut t, mut dest, mut kind) = (t, pkt.dest, pkt.kind);
            // Only properties homed outside this rack are cached: rack-local
            // traffic never crosses this switch twice.
            match kind {
                PrKind::Read => {
                    if let Some(cache) = &mut self.cache {
                        t += self.cache_lat;
                        if topo.edge_switch_of(dest).0 != self.id && cache.lookup(dest, pr.idx) {
                            // Hit: the read becomes a response to its source.
                            (dest, kind) = (pr.src_node, PrKind::Response);
                        }
                    }
                }
                PrKind::Response => {
                    if let Some(cache) = &mut self.cache {
                        t += self.cache_lat;
                        let home = partition.owner(pr.idx);
                        if topo.edge_switch_of(home).0 != self.id {
                            cache.insert(home, pr.idx);
                        }
                    }
                }
                PrKind::Partial => {
                    if let Some(table) = &mut self.reduce {
                        t += self.cache_lat;
                        // A full table hands the PR back to travel unmerged.
                        if table.absorb(t, dest, pr).is_none() {
                            continue;
                        }
                    }
                }
            }
            // A read carries no property; a response or a partial one.
            let bytes = if kind == PrKind::Read { 0 } else { payload };
            self.concat
                .push_with(t, dest, kind, pr, bytes, |p| out.push((t, p)));
        }
        self.concat.recycle(pkt.prs);
        self.send_out(out, ctx);
        self.arm_reduce(ctx.sched);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ReduceConfig;
    use crate::sim::driver::Shared;
    use crate::sim::fabric::Fabric;
    use netsparse_desim::EventQueue;
    use netsparse_netsim::Topology;
    use netsparse_snic::protocol::partial_contrib_value;
    use netsparse_snic::Pr;
    use netsparse_sparse::{CommWorkload, Partition1D};

    fn topo() -> Topology {
        Topology::LeafSpine {
            racks: 2,
            rack_size: 4,
            spines: 2,
        }
    }

    fn workload() -> CommWorkload {
        let part = Partition1D::even(8 * 16, 8);
        CommWorkload::from_streams(part, vec![16; 8], vec![vec![]; 8])
    }

    fn pr(idx: u32) -> Pr {
        Pr {
            src_node: 0,
            src_tid: 0,
            idx,
            req_id: 1,
        }
    }

    /// The rack component is testable in isolation: a response PR crossing
    /// a ToR fills the Property Cache for its (remote) home, and a
    /// subsequent read for the same idx hits instead of being forwarded.
    #[test]
    fn cache_fills_on_response_and_hits_on_read_in_isolation() {
        let cfg = ClusterConfig::mini(topo(), 16);
        let wl = workload();
        let mut fabric = Fabric::try_new(&cfg).unwrap();
        let mut shared = Shared::new(&cfg);
        let mut racks = build_racks(&cfg, fabric.net.switches());
        let tor = &mut racks[0];
        assert!(tor.netsparse, "mini config must enable the edge extensions");

        // idx 64 is owned by node 4 (rack 1): remote from ToR 0's rack.
        let idx = 64;
        assert_eq!(wl.partition().owner(idx), 4);

        let mut queue: EventQueue<Event> = EventQueue::new();
        {
            let mut sched = netsparse_desim::Scheduler::at(&mut queue, SimTime::ZERO);
            let mut ctx = Ctx {
                cfg: &cfg,
                wl: &wl,
                fabric: &mut fabric,
                shared: &mut shared,
                sched: &mut sched,
            };
            // A response for idx 64 headed back to requester 0 crosses
            // ToR 0 and fills the cache line for home 4.
            let resp = ConcatPacket::degraded_singleton(
                &cfg.headers,
                0,
                PrKind::Response,
                pr(idx),
                cfg.payload_bytes(),
            );
            // Force it through the processing path (degraded packets skip
            // it by design).
            let resp = ConcatPacket {
                degraded: false,
                ..resp
            };
            tor.packet_at_switch(SimTime::ZERO, false, resp, &mut ctx);
            assert_eq!(
                tor.cache.as_ref().unwrap().stats().insertions,
                1,
                "response must fill the cache"
            );

            // A read for the same idx entering from a local NIC now hits.
            let read = ConcatPacket::degraded_singleton(&cfg.headers, 4, PrKind::Read, pr(idx), 0);
            let read = ConcatPacket {
                degraded: false,
                ..read
            };
            tor.packet_at_switch(SimTime::ZERO, true, read, &mut ctx);
            let stats = tor.cache.as_ref().unwrap().stats();
            assert_eq!(stats.lookups, 1);
            assert_eq!(stats.hits, 1, "second reference must be served by the ToR");
        }
    }

    /// A cache fill and a cache probe each cost the cache latency before
    /// the PR is concatenated, and a hit turns the read into a response
    /// bound for its source instead of forwarding it to the home.
    #[test]
    fn cache_stage_charges_cost_and_turns_hits_into_responses() {
        let cfg = ClusterConfig::mini(topo(), 16);
        let wl = workload();
        let mut fabric = Fabric::try_new(&cfg).unwrap();
        let mut shared = Shared::new(&cfg);
        let mut racks = build_racks(&cfg, fabric.net.switches());
        let tor = &mut racks[0];
        let lat = cfg
            .switch_clock()
            .cycles(cfg.switch.cache.latency_cycles as u64);
        assert!(lat > SimTime::ZERO);
        // A PR reaching ToR 0 at time zero is concatenated after the
        // traversal and one cache access, and waits the concat delay.
        let expiry = cfg.switch_latency() + lat + cfg.switch_concat_delay();

        let mut queue: EventQueue<Event> = EventQueue::new();
        let mut sched = netsparse_desim::Scheduler::at(&mut queue, SimTime::ZERO);
        let mut ctx = Ctx {
            cfg: &cfg,
            wl: &wl,
            fabric: &mut fabric,
            shared: &mut shared,
            sched: &mut sched,
        };
        // A response for idx 64 (home node 4, rack 1) back to requester 0
        // fills the cache.
        let resp = ConcatPacket::degraded_singleton(
            &cfg.headers,
            0,
            PrKind::Response,
            pr(64),
            cfg.payload_bytes(),
        );
        let resp = ConcatPacket {
            degraded: false,
            ..resp
        };
        tor.packet_at_switch(SimTime::ZERO, false, resp, &mut ctx);
        assert_eq!(tor.cache.as_ref().unwrap().stats().insertions, 1);
        assert_eq!(tor.concat.next_expiry(), Some(expiry));
        assert_eq!(tor.concat.flush_all().len(), 1);

        // A read for the same idx from a local NIC toward the home hits.
        let read = ConcatPacket::degraded_singleton(&cfg.headers, 4, PrKind::Read, pr(64), 0);
        let read = ConcatPacket {
            degraded: false,
            ..read
        };
        tor.packet_at_switch(SimTime::ZERO, true, read, &mut ctx);
        let stats = tor.cache.as_ref().unwrap().stats();
        assert_eq!((stats.lookups, stats.hits), (1, 1));
        assert_eq!(tor.concat.next_expiry(), Some(expiry));
        let sent = tor.concat.flush_all();
        assert_eq!(sent.len(), 1);
        assert_eq!((sent[0].dest, sent[0].kind), (0, PrKind::Response));
        assert_eq!(sent[0].payload_per_pr, cfg.payload_bytes());
        assert_eq!(sent[0].prs, vec![pr(64)]);
    }

    /// A spine never processes: it has no cache, and packets forward
    /// through the fabric untouched instead of entering its concatenation
    /// point.
    #[test]
    fn spine_forwards_without_processing() {
        let cfg = ClusterConfig::mini(topo(), 16);
        let wl = workload();
        let mut fabric = Fabric::try_new(&cfg).unwrap();
        let mut shared = Shared::new(&cfg);
        let mut racks = build_racks(&cfg, fabric.net.switches());
        // Leaf-spine 2x4: switches 0..2 are ToRs, 2..4 spines.
        let spine = &mut racks[2];
        assert!(!spine.netsparse);

        let mut queue: EventQueue<Event> = EventQueue::new();
        {
            let mut sched = netsparse_desim::Scheduler::at(&mut queue, SimTime::ZERO);
            let mut ctx = Ctx {
                cfg: &cfg,
                wl: &wl,
                fabric: &mut fabric,
                shared: &mut shared,
                sched: &mut sched,
            };
            let read = ConcatPacket::degraded_singleton(&cfg.headers, 4, PrKind::Read, pr(64), 0);
            let read = ConcatPacket {
                degraded: false,
                ..read
            };
            spine.packet_at_switch(SimTime::ZERO, false, read, &mut ctx);
        }
        assert!(spine.cache.is_none());
        assert_eq!(spine.concat.queued_prs(), 0, "nothing deconcatenated");
        assert_eq!(queue.len(), 1, "the packet must be forwarded onward");
    }

    /// An edge switch with in-network reduction absorbs Partial
    /// contributions into its table and, when the window expires, emits a
    /// single merged PR toward the root — conserving counts and values.
    #[test]
    fn reduce_absorbs_partials_and_emits_merged_on_expiry() {
        let mut cfg = ClusterConfig::mini(topo(), 16);
        cfg.reduce = ReduceConfig::in_network();
        let wl = workload();
        let mut fabric = Fabric::try_new(&cfg).unwrap();
        let mut shared = Shared::new(&cfg);
        let mut racks = build_racks(&cfg, fabric.net.switches());
        let tor = &mut racks[0];
        assert!(tor.reduce.is_some(), "edge ToR has a table");

        // Contributions from nodes 0 and 1 (rack 0) toward row 64's owner
        // (node 4, rack 1) arrive from local NICs.
        let root = wl.partition().owner(64);
        let mut queue: EventQueue<Event> = EventQueue::new();
        {
            let mut sched = netsparse_desim::Scheduler::at(&mut queue, SimTime::ZERO);
            let mut ctx = Ctx {
                cfg: &cfg,
                wl: &wl,
                fabric: &mut fabric,
                shared: &mut shared,
                sched: &mut sched,
            };
            for src in 0..2u32 {
                let p = Pr::partial(src, 64, 1, partial_contrib_value(src, 64));
                let pkt = ConcatPacket::degraded_singleton(
                    &cfg.headers,
                    root,
                    PrKind::Partial,
                    p,
                    cfg.payload_bytes(),
                );
                let pkt = ConcatPacket {
                    degraded: false,
                    ..pkt
                };
                tor.packet_at_switch(SimTime::ZERO, true, pkt, &mut ctx);
            }
            let stats = tor.reduce.as_ref().unwrap().stats();
            assert_eq!((stats.allocated, stats.merged), (1, 1));
            assert_eq!(stats.allocated - stats.flushed, 1, "one entry in flight");
            assert!(
                tor.reduce_sched.is_some(),
                "an aggregation window must be armed"
            );

            // Fire the expiry: the merged PR flushes into the
            // concatenation point toward the root.
            let t = tor.reduce_sched.unwrap();
            tor.reduce_expire(t, &mut ctx);
        }
        let stats = tor.reduce.as_ref().unwrap().stats();
        assert_eq!(stats.allocated - stats.flushed, 0, "table drained");
        assert_eq!(stats.flushed, 1);
        // One merged PR carries both folds and their wrapping value sum.
        let merged: Vec<Pr> = tor
            .concat
            .flush_all()
            .into_iter()
            .flat_map(|p| p.prs)
            .collect();
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].partial_contribs(), 2);
        let expect = (0..2u32)
            .map(|s| partial_contrib_value(s, 64))
            .fold(0u32, u32::wrapping_add);
        assert_eq!(merged[0].partial_value(), expect);
    }

    /// Absorbed partials emit nothing; when the window closes the merged
    /// PR enters the concatenation point below the table (it is not
    /// re-absorbed) and carries every fold toward the root.
    #[test]
    fn reduce_stage_absorbs_partials_and_flushes_merged() {
        let mut cfg = ClusterConfig::mini(topo(), 16);
        cfg.reduce = ReduceConfig::in_network();
        let wl = workload();
        let mut fabric = Fabric::try_new(&cfg).unwrap();
        let mut shared = Shared::new(&cfg);
        let mut racks = build_racks(&cfg, fabric.net.switches());
        let tor = &mut racks[0];
        // Row 70 is owned by node 4, in rack 1.
        let root = wl.partition().owner(70);
        assert_eq!(root, 4);

        let mut queue: EventQueue<Event> = EventQueue::new();
        let mut sched = netsparse_desim::Scheduler::at(&mut queue, SimTime::ZERO);
        let mut ctx = Ctx {
            cfg: &cfg,
            wl: &wl,
            fabric: &mut fabric,
            shared: &mut shared,
            sched: &mut sched,
        };
        for src in 0..3u32 {
            let p = Pr::partial(src, 70, 1, partial_contrib_value(src, 70));
            let pkt = ConcatPacket::degraded_singleton(
                &cfg.headers,
                root,
                PrKind::Partial,
                p,
                cfg.payload_bytes(),
            );
            let pkt = ConcatPacket {
                degraded: false,
                ..pkt
            };
            tor.packet_at_switch(SimTime::ZERO, true, pkt, &mut ctx);
        }
        assert_eq!(tor.concat.queued_prs(), 0, "absorbed partials emit nothing");
        let stats = tor.reduce.as_ref().unwrap().stats();
        assert_eq!((stats.allocated, stats.merged), (1, 2));
        assert_eq!(stats.allocated - stats.flushed, 1, "one entry in flight");

        let t = tor.reduce_sched.unwrap();
        tor.reduce_expire(t, &mut ctx);
        let stats = tor.reduce.as_ref().unwrap().stats();
        assert_eq!(stats.allocated - stats.flushed, 0, "table drained");
        assert_eq!(stats.allocated, 1, "the merged PR is not re-absorbed");
        assert_eq!(tor.concat.queued_prs(), 1);
        let sent = tor.concat.flush_all();
        assert_eq!(sent.len(), 1);
        assert_eq!((sent[0].dest, sent[0].kind), (root, PrKind::Partial));
        assert_eq!(sent[0].prs.len(), 1);
        let merged = sent[0].prs[0];
        assert_eq!(merged.partial_contribs(), 3);
        let expect = (0..3u32)
            .map(|s| partial_contrib_value(s, 70))
            .fold(0u32, u32::wrapping_add);
        assert_eq!(merged.partial_value(), expect);
    }

    /// With `in_network` off no switch builds a reduce table, so Partial
    /// traffic flows through concat untouched.
    #[test]
    fn software_baseline_has_no_reduce_stage() {
        let mut cfg = ClusterConfig::mini(topo(), 16);
        cfg.reduce = ReduceConfig::software_baseline();
        let fabric = Fabric::try_new(&cfg).unwrap();
        let racks = build_racks(&cfg, fabric.net.switches());
        assert!(racks.iter().all(|r| r.reduce.is_none()));
    }

    /// The middle-pipe latency ToR 0 charges one PR of `kind` from a local
    /// NIC: when it enters the concatenation point, less the traversal.
    fn middle_pipe_cost(cfg: &ClusterConfig, kind: PrKind) -> SimTime {
        let wl = workload();
        let mut fabric = Fabric::try_new(cfg).unwrap();
        let mut shared = Shared::new(cfg);
        let mut racks = build_racks(cfg, fabric.net.switches());
        let tor = &mut racks[0];
        let mut queue: EventQueue<Event> = EventQueue::new();
        let mut sched = netsparse_desim::Scheduler::at(&mut queue, SimTime::ZERO);
        let mut ctx = Ctx {
            cfg,
            wl: &wl,
            fabric: &mut fabric,
            shared: &mut shared,
            sched: &mut sched,
        };
        // Toward node 4, in the other rack: cacheable and reducible.
        let p = match kind {
            PrKind::Partial => Pr::partial(0, 64, 1, partial_contrib_value(0, 64)),
            _ => pr(64),
        };
        let pkt = ConcatPacket::degraded_singleton(&cfg.headers, 4, kind, p, cfg.payload_bytes());
        let pkt = ConcatPacket {
            degraded: false,
            ..pkt
        };
        tor.packet_at_switch(SimTime::ZERO, true, pkt, &mut ctx);
        assert_eq!(tor.concat.queued_prs(), 1, "the PR must reach concat");
        tor.concat.next_expiry().unwrap() - cfg.switch_latency() - cfg.switch_concat_delay()
    }

    /// A cache probe and a reduce fold each cost the cache latency before
    /// the PR is concatenated: the probe whenever the Property Cache is
    /// on, even when it is too small to form one set, and the fold even
    /// when a full table sends the PR on unmerged. Nothing else costs.
    #[test]
    fn middle_pipes_charge_the_cache_latency_per_probe_and_fold() {
        let mut cfg = ClusterConfig::mini(topo(), 16);
        let lat = cfg
            .switch_clock()
            .cycles(cfg.switch.cache.latency_cycles as u64);
        assert!(lat > SimTime::ZERO);
        cfg.switch.cache.capacity_bytes = 64;
        assert!(!MiddlePipes::new(&cfg.switch, cfg.payload_bytes()).enabled());
        assert_eq!(middle_pipe_cost(&cfg, PrKind::Read), lat);
        assert_eq!(middle_pipe_cost(&cfg, PrKind::Response), lat);
        assert_eq!(middle_pipe_cost(&cfg, PrKind::Partial), SimTime::ZERO);
        cfg.mechanisms.property_cache = false;
        assert_eq!(middle_pipe_cost(&cfg, PrKind::Read), SimTime::ZERO);
        cfg.reduce = ReduceConfig {
            table_entries: 0,
            ..ReduceConfig::in_network()
        };
        assert_eq!(middle_pipe_cost(&cfg, PrKind::Partial), lat);
    }
}
