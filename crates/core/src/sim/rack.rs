//! The rack component: one switch (ToR or spine) with its NetSparse
//! extensions.
//!
//! A [`RackState`] owns a switch's middle-pipe handler [`Pipeline`]
//! (Property-Cache probe/fill, optional in-network reduction, cross-node
//! concatenation) and the NetSparse enablement flag. Edge (ToR) switches
//! deconcatenate arriving packets and drive every PR through the pipeline;
//! spines (and every switch when the mechanisms are off) forward packets
//! verbatim through the [`Fabric`](super::fabric::Fabric). Ingress fault
//! handling — dead-switch blackholing and the configured loss process —
//! also happens here, before any processing, exactly once per traversal.

use netsparse_desim::{Scheduler, SimTime};
use netsparse_snic::{ConcatConfig, ConcatPacket};
use netsparse_switch::{MiddlePipes, ReduceTable};

#[cfg(feature = "trace")]
use netsparse_desim::trace::{lane, DropReason, TraceEvent, TrackId};

use netsparse_netsim::SwitchId;

use crate::config::ClusterConfig;
use crate::sim::driver::{Component, Ctx};
use crate::sim::events::Event;
use crate::sim::node::concat_point;
use crate::sim::pipeline::{Pipeline, PrCtx};

/// One switch of the cluster: the component bound to `Port::Rack(id)`.
pub(crate) struct RackState {
    /// This switch's id (netsim switch index).
    pub(crate) id: u32,
    /// The middle-pipe handler pipeline: cache, optional reduce, concat.
    pub(crate) pipeline: Pipeline,
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
    let payload = cfg.payload_bytes();
    let switch_concat_cfg = ConcatConfig {
        headers: cfg.headers,
        mtu: cfg.snic.mtu,
        delay: cfg.switch_concat_delay(),
        enabled: cfg.mechanisms.switch_concat,
    };
    let cache_bytes = if cfg.mechanisms.property_cache {
        cfg.switch.cache.capacity_bytes
    } else {
        0
    };
    let cache_on = cfg.mechanisms.property_cache;
    let cache_lat = cfg
        .switch_clock()
        .cycles(cfg.switch.cache.latency_cycles as u64);
    let reduce_on = cfg.reduce.enabled && cfg.reduce.in_network;
    (0..n_switches)
        .map(|s| {
            let edge = cfg.topology.is_edge_switch(SwitchId(s));
            let mut sw_cfg = cfg.switch;
            // Non-edge switches carry no NetSparse extensions.
            sw_cfg.cache.capacity_bytes = if edge { cache_bytes } else { 0 };
            let reduce = if reduce_on && edge {
                Some(ReduceTable::new(
                    cfg.reduce.table_entries,
                    SimTime::from_ns(cfg.reduce.flush_ns),
                ))
            } else {
                None
            };
            RackState {
                id: s,
                pipeline: Pipeline::for_rack(
                    MiddlePipes::new(&sw_cfg, payload.max(1)),
                    cache_lat,
                    cache_on,
                    reduce,
                    concat_point(switch_concat_cfg, cfg.concat_impl),
                ),
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
        if let Some(t) = self.pipeline.next_concat_expiry() {
            let t = t.max(sched.now());
            if self.concat_sched.is_none_or(|cur| t < cur) {
                self.concat_sched = Some(t);
                sched.schedule(t, Event::SwitchConcatExpire { switch: self.id });
            }
        }
    }

    /// (Re-)schedules the earliest pending reduce-window close.
    fn arm_reduce(&mut self, sched: &mut Scheduler<'_, Event>) {
        if let Some(t) = self.pipeline.next_reduce_expiry() {
            let t = t.max(sched.now());
            if self.reduce_sched.is_none_or(|cur| t < cur) {
                self.reduce_sched = Some(t);
                sched.schedule(t, Event::ReduceExpire { switch: self.id });
            }
        }
    }

    /// Flushes expired concatenation queues onto the forwarding path
    /// through the pooled output buffer.
    fn concat_expire(&mut self, now: SimTime, ctx: &mut Ctx<'_, '_, '_>) {
        self.concat_sched = None;
        let mut out = std::mem::take(&mut self.out_buf);
        self.pipeline.flush_concat(now, &mut out);
        ctx.fabric
            .send_batch_from_switch(ctx.shared, self.id, &mut out, ctx.sched);
        self.out_buf = out;
        self.arm_concat(ctx.sched);
    }

    /// Flushes reduce-table entries whose aggregation window closed: each
    /// merged Partial PR re-enters the pipeline below the reduce stage and
    /// concatenates toward its root.
    fn reduce_expire(&mut self, now: SimTime, ctx: &mut Ctx<'_, '_, '_>) {
        self.reduce_sched = None;
        let mut out = std::mem::take(&mut self.out_buf);
        {
            let prc = PrCtx {
                sw: self.id,
                pkt_dest: 0, // unused: each flushed PR carries its own root
                payload: ctx.shared.payload,
                topo: ctx.fabric.topology(),
                partition: ctx.wl.partition(),
            };
            self.pipeline.flush_reduce(now, &prc, &mut out);
        }
        ctx.fabric
            .send_batch_from_switch(ctx.shared, self.id, &mut out, ctx.sched);
        self.out_buf = out;
        self.arm_concat(ctx.sched);
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
        if !process {
            ctx.fabric
                .send_from_switch(ctx.shared, sw, t, pkt, ctx.sched);
            return;
        }

        // The processing path: deconcatenate and drive every PR through
        // the handler pipeline (cache probe/fill, optional reduce fold,
        // reconcatenation). Each handler charges its own cycle cost.
        let mut out = std::mem::take(&mut self.out_buf);
        {
            let prc = PrCtx {
                sw,
                pkt_dest: pkt.dest,
                payload: ctx.shared.payload,
                topo,
                partition: ctx.wl.partition(),
            };
            for &pr in &pkt.prs {
                self.pipeline.run(t, pr, pkt.kind, &prc, &mut out);
            }
            self.pipeline.concat_mut().recycle(pkt.prs);
        }
        ctx.fabric
            .send_batch_from_switch(ctx.shared, sw, &mut out, ctx.sched);
        self.out_buf = out;
        self.arm_concat(ctx.sched);
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
    use netsparse_snic::{Pr, PrKind};
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
                tor.pipeline.pipes().unwrap().stats().insertions,
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
            let stats = tor.pipeline.pipes().unwrap().stats();
            assert_eq!(stats.lookups, 1);
            assert_eq!(stats.hits, 1, "second reference must be served by the ToR");
        }
    }

    /// A spine never processes: packets forward through the fabric
    /// untouched, leaving its cache pipeline idle.
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
        assert_eq!(spine.pipeline.pipes().unwrap().stats().lookups, 0);
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
        assert!(
            tor.pipeline.reduce_stats().is_some(),
            "edge ToR has a table"
        );

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
            let stats = tor.pipeline.reduce_stats().unwrap();
            assert_eq!((stats.allocated, stats.merged), (1, 1));
            assert_eq!(stats.allocated - stats.flushed, 1, "one entry in flight");
            assert!(
                tor.reduce_sched.is_some(),
                "an aggregation window must be armed"
            );

            // Fire the expiry: the merged PR flushes through the concat
            // stage toward the root.
            let t = tor.reduce_sched.unwrap();
            tor.reduce_expire(t, &mut ctx);
        }
        let stats = tor.pipeline.reduce_stats().unwrap();
        assert_eq!(stats.allocated - stats.flushed, 0, "table drained");
        assert_eq!(stats.flushed, 1);
    }

    /// With `in_network` off no switch builds a reduce stage, so Partial
    /// traffic flows through concat untouched.
    #[test]
    fn software_baseline_has_no_reduce_stage() {
        let mut cfg = ClusterConfig::mini(topo(), 16);
        cfg.reduce = ReduceConfig::software_baseline();
        let fabric = Fabric::try_new(&cfg).unwrap();
        let racks = build_racks(&cfg, fabric.net.switches());
        assert!(racks.iter().all(|r| r.pipeline.reduce_stats().is_none()));
    }
}
