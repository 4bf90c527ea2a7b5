//! The node component: host core + SmartNIC command lifecycle.
//!
//! One [`NodeState`] models a host and its SNIC: the host core issuing
//! RIG commands (paying per-command software cost plus the PCIe DMA of
//! the idx batch), the client RIG units scanning idxs and emitting read
//! PRs through the NIC concatenator, the server units fetching properties
//! over PCIe for inbound reads, and the response path that clears pending
//! entries, sets Idx Filter bits, and completes commands. The §7.1
//! watchdog (exponential backoff, degraded-mode escalation, final
//! abandon) also lives here — recovery is a node-local protocol.
//!
//! All handlers touch only this node's state plus the shared context
//! ([`Ctx`]): the fabric for egress, the scheduler for follow-up events,
//! and the shared counters/auditor/tracer. The handlers make this node's
//! trace records: command issue and completion, each RIG decision from
//! its [`IdxOutcome`], each concatenation flush from the packet's seal
//! reason, and each response and watchdog restart.

use std::collections::VecDeque;

use netsparse_desim::trace::{lane, TraceEvent, TrackId};
use netsparse_desim::{Scheduler, SimTime};
use netsparse_snic::protocol::partial_contrib_value;
use netsparse_snic::{
    ConcatConfig, ConcatPacket, ConcatPoint, IdxFilter, IdxOutcome, Pr, PrKind, RigClient,
};
use netsparse_sparse::CommWorkload;

use crate::config::{ClusterConfig, ConcatImpl};
use crate::sim::driver::{Ctx, Shared};
use crate::sim::events::Event;

/// Instantiates a concatenation point for the configured implementation.
pub(crate) fn concat_point(cfg: ConcatConfig, implementation: ConcatImpl) -> ConcatPoint {
    match implementation {
        ConcatImpl::Dedicated => ConcatPoint::dedicated(cfg),
        ConcatImpl::Virtual(pool) => ConcatPoint::virtualized(cfg, pool),
    }
}

/// A NIC's send path during the event at `now`: PRs enter its
/// concatenation point, whose flushes are traced on `track`, or, when
/// `degraded` (§7.1), each leaves alone in a singleton packet that
/// switches forward verbatim, never concatenated, cached or traced.
struct Egress<'a> {
    concat: &'a mut ConcatPoint,
    out: &'a mut Vec<(SimTime, ConcatPacket)>,
    now: SimTime,
    track: TrackId,
    degraded: bool,
}

impl Egress<'_> {
    /// Sends `pr` of `kind`, carrying `payload` bytes, toward `dest` at `t`.
    #[inline]
    fn send(
        &mut self,
        shared: &mut Shared,
        t: SimTime,
        dest: u32,
        kind: PrKind,
        pr: Pr,
        payload: u32,
    ) {
        if self.degraded {
            let pkt = self.concat.degraded_singleton(dest, kind, pr, payload);
            self.out.push((t, pkt));
        } else {
            let (now, track, out) = (self.now, self.track, &mut *self.out);
            self.concat.push_with(t, dest, kind, pr, payload, |p| {
                shared.trace_flush(now, track, &p);
                out.push((t, p));
            });
        }
    }
}

/// An [`IssueLedger`] slot whose PR has been resolved.
const RESOLVED: SimTime = SimTime::MAX;

/// Issue timestamps of outstanding PRs, one req_id window per client unit.
///
/// `RigClient` hands out req_ids consecutively per unit and every issued
/// PR is recorded, so a unit's outstanding PRs lie in a window starting
/// at its oldest unresolved req_id: `slots[i]` is the issue time of
/// req_id `base + i` (wrapping), or [`RESOLVED`]; `live` counts the
/// unresolved slots. Recording is a push, resolution an index plus a
/// trim of resolved slots off the front, and a watchdog abandon clears
/// the window. req_id (not idx) keeps duplicate issues of one idx
/// distinct, so a watchdog abandon and a late response can't collide.
pub(crate) struct IssueLedger {
    units: Vec<Window>,
}

#[derive(Clone, Default)]
struct Window {
    base: u32,
    slots: VecDeque<SimTime>,
    live: u32,
}

impl IssueLedger {
    #[expect(
        clippy::disallowed_macros,
        reason = "sizes the ledger once per node, at build time"
    )]
    fn new(units: usize) -> Self {
        IssueLedger {
            units: vec![Window::default(); units],
        }
    }

    /// Records the issue time of `(unit, req_id)`; `req_id` must follow
    /// the unit's previous one.
    #[inline]
    fn record(&mut self, unit: u16, req_id: u32, t: SimTime) {
        let w = &mut self.units[unit as usize];
        assert_eq!(req_id, w.base.wrapping_add(w.slots.len() as u32));
        w.slots.push_back(t);
        w.live += 1;
    }

    /// Resolves `(unit, req_id)` and returns its issue time, if that PR is
    /// still outstanding.
    #[inline]
    fn resolve(&mut self, unit: u16, req_id: u32) -> Option<SimTime> {
        let w = self.units.get_mut(unit as usize)?;
        let slot = w.slots.get_mut(req_id.wrapping_sub(w.base) as usize)?;
        let t = std::mem::replace(slot, RESOLVED);
        if t == RESOLVED {
            return None;
        }
        w.live -= 1;
        while w.slots.front() == Some(&RESOLVED) {
            w.slots.pop_front();
            w.base = w.base.wrapping_add(1);
        }
        Some(t)
    }

    /// Forgets every outstanding PR of `unit` (watchdog abandon); returns
    /// how many were dropped.
    fn abandon_unit(&mut self, unit: u16) -> u64 {
        let w = &mut self.units[unit as usize];
        w.base = w.base.wrapping_add(w.slots.len() as u32);
        w.slots.clear();
        u64::from(std::mem::take(&mut w.live))
    }

    /// Outstanding PRs across all units.
    pub(crate) fn len(&self) -> usize {
        self.units.iter().map(|w| w.live as usize).sum()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UnitState {
    /// No command assigned.
    Idle,
    /// Scanning idxs (a ClientProcess event is pending).
    Running,
    /// Pending PR Table full; waiting for a response to free an entry.
    Stalled,
    /// Stream fully scanned; waiting for outstanding responses.
    Draining,
}

pub(crate) struct ClientUnit {
    pub(crate) rig: RigClient,
    pub(crate) state: UnitState,
    /// Current command's idx range within the node's stream.
    pub(crate) cmd: Option<(usize, usize)>,
    pub(crate) pos: usize,
    /// Bumped on every command assignment and watchdog restart; stale
    /// watchdog events check it and stand down.
    pub(crate) generation: u64,
    /// Properties delivered for the current command (discarded on a
    /// watchdog failure, per §7.1). Filled only when the watchdog is
    /// armed (`faults.watchdog_ns > 0`), since only it reads them.
    pub(crate) received_this_cmd: Vec<u32>,
    /// Watchdog restarts suffered by this unit (lifetime total).
    pub(crate) retries: u64,
    /// Watchdog restarts of the *current* command; drives the exponential
    /// backoff and the escalation ladder, reset on every assignment.
    pub(crate) cmd_retries: u32,
}

/// One host + SNIC pair: the component that owns every event naming node
/// `id`.
pub(crate) struct NodeState {
    /// This node's id (its rank and its NIC's element id).
    pub(crate) id: u32,
    pub(crate) units: Vec<ClientUnit>,
    /// The Idx Filter: the distinct idxs a response has arrived for (the
    /// functional check compares it against the stream's remote idxs).
    pub(crate) filter: IdxFilter,
    /// The NIC's concatenation point: every PR the node sends outside
    /// degraded mode leaves through it.
    pub(crate) concat: ConcatPoint,
    pub(crate) concat_sched: Option<SimTime>,
    pub(crate) server_busy: SimTime,
    pub(crate) host_busy: SimTime,
    /// Next unscheduled position in the node's idx stream (commands are
    /// carved from here at issue time, so batch sizes may vary).
    pub(crate) stream_pos: usize,
    pub(crate) active_cmds: usize,
    /// Adaptive concurrency control (§9.4): how many commands may run at
    /// once. Cross-unit duplicate responses shrink it; clean completions
    /// grow it.
    pub(crate) concurrency_limit: usize,
    /// Duplicate/response counters at the last adaptation step.
    pub(crate) last_dup: u64,
    pub(crate) last_resp: u64,
    pub(crate) finish: Option<SimTime>,
    /// Issue timestamp of each outstanding PR — the PR round-trip-latency
    /// probe and the conservation ledger's outstanding set.
    pub(crate) issue_times: IssueLedger,
    pub(crate) responses: u64,
    pub(crate) dup_responses: u64,
    /// SNIC client cycle period, scaled by this node's straggler slowdown.
    pub(crate) cycle: SimTime,
    /// Server PR service time, scaled by this node's straggler slowdown.
    pub(crate) serve: SimTime,
    /// §7.1 escalation: once set, this node's client units stop using
    /// concatenation and the cached path and emit bare singleton PRs.
    pub(crate) degraded_mode: bool,
    /// Pooled per-event output batch (time-stamped packets bound for the
    /// fabric), reused across events so the hot path never allocates.
    pub(crate) out_buf: Vec<(SimTime, ConcatPacket)>,
    /// Pooled unit-id batches for the response path (stalled units to
    /// wake, drained units to complete).
    pub(crate) wake_buf: Vec<u16>,
    pub(crate) done_buf: Vec<u16>,
}

/// Builds every node component of the cluster from the configuration and
/// the workload (one per workload rank).
#[expect(
    clippy::disallowed_methods,
    reason = "builds the nodes once, before the first event"
)]
pub(crate) fn build_nodes(cfg: &ClusterConfig, wl: &CommWorkload) -> Vec<NodeState> {
    let snic_clock = cfg.snic_clock();
    let cycle = snic_clock.period();
    let payload = cfg.payload_bytes();
    // Server PR service: one PR per cycle across the server units,
    // floored by the PCIe fetch bandwidth for the property payload.
    let per_unit = cycle.as_ps() as f64 / cfg.snic.server_units() as f64;
    let fetch_ps = payload as f64 * 8.0 / (cfg.snic.pcie_gbps * 8e9) * 1e12;
    let server_svc = SimTime::from_ps_f64(per_unit.max(fetch_ps));

    let nic_concat_cfg = ConcatConfig {
        headers: cfg.headers,
        mtu: cfg.snic.mtu,
        delay: cfg.nic_concat_delay(),
        enabled: cfg.mechanisms.nic_concat,
    };

    (0..wl.nodes())
        .map(|p| {
            let stream = wl.stream(p);
            // Straggler slowdown stretches this node's SNIC cycle and
            // server service times.
            let slowdown = cfg
                .faults
                .degraded
                .iter()
                .find(|d| d.node == p)
                .map_or(1.0, |d| d.compute_slowdown);
            NodeState {
                id: p,
                units: (0..cfg.snic.client_units())
                    .map(|tid| ClientUnit {
                        rig: RigClient::with_idx_domain(
                            p,
                            tid as u16,
                            cfg.snic.pending_entries,
                            wl.n_cols(),
                        ),
                        state: UnitState::Idle,
                        cmd: None,
                        pos: 0,
                        generation: 0,
                        received_this_cmd: Vec::new(),
                        retries: 0,
                        cmd_retries: 0,
                    })
                    .collect(),
                filter: IdxFilter::new(wl.n_cols()),
                concat: concat_point(nic_concat_cfg, cfg.concat_impl),
                concat_sched: None,
                server_busy: SimTime::ZERO,
                host_busy: SimTime::ZERO,
                stream_pos: 0,
                active_cmds: 0,
                concurrency_limit: cfg.snic.client_units() as usize,
                last_dup: 0,
                last_resp: 0,
                finish: if stream.is_empty() {
                    Some(SimTime::ZERO)
                } else {
                    None
                },
                issue_times: IssueLedger::new(cfg.snic.client_units() as usize),
                responses: 0,
                dup_responses: 0,
                cycle: SimTime::from_ps_f64(cycle.as_ps() as f64 * slowdown),
                serve: SimTime::from_ps_f64(server_svc.as_ps() as f64 * slowdown),
                degraded_mode: false,
                out_buf: Vec::new(),
                wake_buf: Vec::new(),
                done_buf: Vec::new(),
            }
        })
        .collect()
}

impl NodeState {
    /// (Re-)schedules the earliest pending concatenator expiry.
    fn arm_concat(&mut self, sched: &mut Scheduler<'_, Event>) {
        if let Some(t) = self.concat.next_expiry() {
            let t = t.max(sched.now());
            if self.concat_sched.is_none_or(|cur| t < cur) {
                self.concat_sched = Some(t);
                sched.schedule(t, Event::NicConcatExpire { node: self.id });
            }
        }
    }

    /// Hands the output batch to the uplink, returns the buffer to the
    /// pool and re-arms the concatenator's expiry.
    fn send_out(&mut self, mut out: Vec<(SimTime, ConcatPacket)>, ctx: &mut Ctx<'_, '_, '_>) {
        ctx.fabric
            .send_batch_from_nic(ctx.shared, self.id, &mut out, ctx.sched);
        self.out_buf = out;
        self.arm_concat(ctx.sched);
    }

    /// Flushes expired NIC concatenation queues onto the uplink through
    /// the pooled output buffer.
    pub(crate) fn concat_expire(&mut self, now: SimTime, ctx: &mut Ctx<'_, '_, '_>) {
        self.concat_sched = None;
        let mut out = std::mem::take(&mut self.out_buf);
        let track = TrackId::node(self.id, lane::CONCAT);
        self.concat.flush_expired_with(now, |p| {
            ctx.shared.trace_flush(now, track, &p);
            out.push((now, p));
        });
        self.send_out(out, ctx);
    }

    /// The host core issues the next RIG command to a free client unit.
    pub(crate) fn host_issue(&mut self, now: SimTime, ctx: &mut Ctx<'_, '_, '_>) {
        let cfg = ctx.cfg;
        let wl = ctx.wl;
        let batch = cfg.batch_size.max(1);
        let host_cmd = SimTime::from_ns(cfg.host_cmd_ns);
        let idx_buffer = cfg.snic.idx_buffer_bytes as u64;
        let stream_len = wl.stream(self.id).len();
        if self.stream_pos >= stream_len {
            return;
        }
        if cfg.adaptive_batch && self.active_cmds >= self.concurrency_limit {
            return; // re-triggered when a command completes
        }
        let Some(unit_id) = self.units.iter().position(|u| u.state == UnitState::Idle) else {
            return; // re-triggered when a command completes
        };
        // The host core serializes command issues.
        let t_cmd = self.host_busy.max(now) + host_cmd;
        self.host_busy = t_cmd;
        let start = self.stream_pos;
        let end = (start + batch).min(stream_len);
        self.stream_pos = end;
        self.active_cmds += 1;
        ctx.shared.trace(
            now,
            TrackId::node(self.id, lane::HOST),
            TraceEvent::CmdIssued {
                unit: unit_id as u16,
                idxs: (end - start) as u32,
            },
        );
        // Idx batch DMA: the unit starts once the first Idx Buffer chunk
        // has crossed PCIe.
        let first_chunk = ((end - start) as u64 * 4).min(idx_buffer);
        let start_t = t_cmd + ctx.shared.pcie_lat + ctx.shared.pcie.serialization(first_chunk);
        let unit = &mut self.units[unit_id];
        unit.cmd = Some((start, end));
        unit.pos = start;
        unit.state = UnitState::Running;
        unit.generation += 1;
        unit.received_this_cmd.clear();
        unit.cmd_retries = 0;
        let generation = unit.generation;
        ctx.sched.schedule(
            start_t,
            Event::ClientProcess {
                node: self.id,
                unit: unit_id as u16,
            },
        );
        if cfg.faults.watchdog_ns > 0 {
            ctx.sched.schedule(
                start_t + SimTime::from_ns(cfg.faults.watchdog_ns),
                Event::Watchdog {
                    node: self.id,
                    unit: unit_id as u16,
                    generation,
                },
            );
        }
        // Chain: keep issuing while units are free and commands remain.
        let below_limit = !cfg.adaptive_batch || self.active_cmds < self.concurrency_limit;
        if self.stream_pos < stream_len
            && below_limit
            && self.units.iter().any(|u| u.state == UnitState::Idle)
        {
            ctx.sched
                .schedule(t_cmd, Event::HostIssue { node: self.id });
        }
    }

    /// Client unit `unit_id` scans its next idx chunk.
    pub(crate) fn client_process(&mut self, now: SimTime, unit_id: u16, ctx: &mut Ctx<'_, '_, '_>) {
        let cfg = ctx.cfg;
        let wl = ctx.wl;
        let chunk = cfg.snic.idx_chunk();
        let mechanisms = cfg.mechanisms;
        let cycle = self.cycle;
        let degraded_mode = self.degraded_mode;
        let id = self.id;
        let stream = wl.stream(id);
        let partition = wl.partition();
        // Scatter-side reduction: every issued read also owes the owner a
        // partial-sum contribution for its output row.
        let reduce_on = cfg.reduce.enabled;
        let payload = ctx.shared.payload;
        let mut out = std::mem::take(&mut self.out_buf);
        let mut command_done = false;
        let mut degraded_sent = 0u64;

        {
            let NodeState {
                units,
                filter,
                concat,
                issue_times,
                ..
            } = self;
            let mut nic = Egress {
                concat,
                out: &mut out,
                now,
                track: TrackId::node(id, lane::CONCAT),
                degraded: degraded_mode,
            };
            let rig = TrackId::node(id, lane::RIG_BASE + u32::from(unit_id));
            let unit = &mut units[unit_id as usize];
            let Some((_, end)) = unit.cmd else {
                return; // spurious wakeup after completion
            };
            debug_assert!(matches!(unit.state, UnitState::Running));
            let mut cycles: u64 = 0;
            let mut processed = 0usize;
            // One range lookup for the whole chunk: node `id` owns exactly
            // this contiguous idx range, so locality is two compares.
            let local = partition.range(id);
            while processed < chunk && unit.pos < end {
                let idx = stream[unit.pos];
                if local.contains(&idx) {
                    // Local idxs dominate real streams (>90% under 1-D
                    // partitioning), and each one only costs a scan cycle
                    // and a stat tick — consume the whole run here instead
                    // of round-tripping the RIG pipeline per idx.
                    let stop = unit.pos + (chunk - processed).min(end - unit.pos);
                    let run = stream[unit.pos..stop]
                        .iter()
                        .take_while(|i| local.contains(i))
                        .count();
                    unit.pos += run;
                    cycles += run as u64;
                    processed += run;
                    unit.rig.tally_local(run as u64);
                    continue;
                }
                match unit.rig.process_idx(
                    idx,
                    false,
                    mechanisms.coalesce,
                    mechanisms.filter,
                    filter,
                ) {
                    IdxOutcome::Stalled => {
                        let outstanding = unit.rig.outstanding() as u32;
                        ctx.shared
                            .trace(now, rig, TraceEvent::Stalled { outstanding });
                        unit.state = UnitState::Stalled;
                        break;
                    }
                    IdxOutcome::Issued(pr) => {
                        ctx.shared.trace(now, rig, TraceEvent::PrIssued { idx });
                        // The PR leaves at the end of this idx's cycle.
                        let t_pr = now + cycle * (cycles + 1);
                        #[cfg(any(debug_assertions, feature = "audit"))]
                        ctx.shared.audit.issue("pr");
                        issue_times.record(unit_id, pr.req_id, t_pr);
                        let dest = partition.owner(idx);
                        nic.send(ctx.shared, t_pr, dest, PrKind::Read, pr, 0);
                        if degraded_mode {
                            degraded_sent += 1;
                        }
                        if reduce_on {
                            // One contribution per issued read, toward the
                            // row owner (`dest` is the reduction root).
                            let v = partial_contrib_value(id, idx);
                            let contrib = Pr::partial(id, idx, 1, v);
                            ctx.shared.reduce.contribs_issued += 1;
                            ctx.shared.reduce.value_issued =
                                ctx.shared.reduce.value_issued.wrapping_add(v);
                            nic.send(ctx.shared, t_pr, dest, PrKind::Partial, contrib, payload);
                        }
                    }
                    IdxOutcome::Filtered => {
                        ctx.shared.trace(now, rig, TraceEvent::FilterHit { idx });
                    }
                    IdxOutcome::Coalesced => {
                        ctx.shared.trace(now, rig, TraceEvent::Coalesced { idx });
                    }
                    IdxOutcome::Local => {}
                }
                // Every decision but a stall spends this idx's cycle.
                cycles += 1;
                processed += 1;
                unit.pos += 1;
            }
            let t_end = now + cycle * cycles.max(1);
            if unit.state == UnitState::Stalled {
                // Woken by the next response.
            } else if unit.pos >= end {
                if unit.rig.outstanding() == 0 {
                    command_done = true;
                } else {
                    unit.state = UnitState::Draining;
                }
            } else {
                ctx.sched.schedule(
                    t_end,
                    Event::ClientProcess {
                        node: self.id,
                        unit: unit_id,
                    },
                );
            }
        }

        ctx.shared.faults.degraded_prs += degraded_sent;
        self.send_out(out, ctx);
        if command_done {
            self.complete_command(now, unit_id, ctx);
        }
    }

    fn complete_command(&mut self, now: SimTime, unit_id: u16, ctx: &mut Ctx<'_, '_, '_>) {
        let pcie_lat = ctx.shared.pcie_lat;
        let adaptive = ctx.cfg.adaptive_batch;
        let unit = &mut self.units[unit_id as usize];
        if unit.cmd.is_none() {
            // Already completed (e.g. two duplicate responses for this
            // unit landed in one packet with coalescing disabled).
            return;
        }
        unit.cmd = None;
        unit.state = UnitState::Idle;
        unit.generation += 1;
        unit.received_this_cmd.clear();
        unit.cmd_retries = 0;
        self.active_cmds -= 1;
        ctx.shared.trace(
            now,
            TrackId::node(self.id, lane::HOST),
            TraceEvent::CmdCompleted { unit: unit_id },
        );
        if adaptive {
            // §9.4 adaptive control: cross-unit duplicate responses mean
            // concurrent commands are re-fetching each other's columns —
            // halve the concurrency (AIMD); clean intervals grow it.
            let dup = self.dup_responses - self.last_dup;
            let resp = self.responses - self.last_resp;
            self.last_dup = self.dup_responses;
            self.last_resp = self.responses;
            if resp > 0 {
                // Thresholds are deliberately permissive: duplicates are
                // only worth trading concurrency for when they dominate
                // the response stream (their absolute byte cost is small
                // for high-reuse matrices with small unique sets).
                let rate = dup as f64 / resp as f64;
                if rate > 0.25 {
                    self.concurrency_limit = (self.concurrency_limit / 2).max(2);
                } else if rate < 0.05 {
                    self.concurrency_limit = (self.concurrency_limit + 1).min(self.units.len());
                }
            }
        }
        if self.stream_pos < ctx.wl.stream(self.id).len() {
            // Completion notification crosses PCIe before the host reacts.
            ctx.sched
                .schedule(now + pcie_lat, Event::HostIssue { node: self.id });
        } else if self.active_cmds == 0 {
            self.finish = Some(self.finish.map_or(now, |f| f.max(now)));
        }
    }

    /// A packet arrives at this node's NIC.
    pub(crate) fn packet_at_nic(
        &mut self,
        now: SimTime,
        pkt: ConcatPacket,
        ctx: &mut Ctx<'_, '_, '_>,
    ) {
        match pkt.kind {
            PrKind::Read => self.serve_reads(now, pkt, ctx),
            PrKind::Response => self.accept_responses(now, pkt, ctx),
            PrKind::Partial => self.accept_partials(pkt, ctx),
        }
    }

    /// Server path: fetch each requested property over PCIe and emit a
    /// response PR. Degraded requests get degraded responses: the same
    /// bare forward-only path back to the requester.
    fn serve_reads(&mut self, now: SimTime, pkt: ConcatPacket, ctx: &mut Ctx<'_, '_, '_>) {
        debug_assert_eq!(pkt.dest, self.id, "read packet delivered to wrong node");
        let payload = ctx.shared.payload;
        let pcie_lat = ctx.shared.pcie_lat;
        let mut out = std::mem::take(&mut self.out_buf);
        let mut nic = Egress {
            concat: &mut self.concat,
            out: &mut out,
            now,
            track: TrackId::node(self.id, lane::CONCAT),
            degraded: pkt.degraded,
        };
        for &pr in &pkt.prs {
            let t = self.server_busy.max(now) + self.serve;
            self.server_busy = t;
            let t = t + pcie_lat;
            nic.send(ctx.shared, t, pr.src_node, PrKind::Response, pr, payload);
        }
        self.concat.recycle(pkt.prs);
        self.send_out(out, ctx);
    }

    /// Client path: deliver arrived properties, clear pending entries, set
    /// filter bits, wake stalled units, complete commands.
    fn accept_responses(&mut self, now: SimTime, pkt: ConcatPacket, ctx: &mut Ctx<'_, '_, '_>) {
        debug_assert_eq!(pkt.dest, self.id, "response packet delivered to wrong node");
        let id = self.id;
        let watchdog_armed = ctx.cfg.faults.watchdog_ns > 0;
        let mut wake = std::mem::take(&mut self.wake_buf);
        let mut completed = std::mem::take(&mut self.done_buf);
        {
            for &pr in &pkt.prs {
                let NodeState {
                    units,
                    filter,
                    issue_times,
                    ..
                } = self;
                let rig = TrackId::node(id, lane::RIG_BASE + u32::from(pr.src_tid));
                if let Some(t_issue) = issue_times.resolve(pr.src_tid, pr.req_id) {
                    ctx.shared
                        .pr_latency
                        .record(now.saturating_sub(t_issue).as_ps());
                    #[cfg(any(debug_assertions, feature = "audit"))]
                    ctx.shared.audit.resolve("pr");
                    ctx.shared
                        .trace(now, rig, TraceEvent::PrResolved { idx: pr.idx });
                } else {
                    // The watchdog already abandoned this PR (its ledger
                    // entry is closed); the data is still good, so deliver
                    // it, but don't resolve or time it.
                    ctx.shared.faults.stale_responses += 1;
                    ctx.shared
                        .trace(now, rig, TraceEvent::StaleResponse { idx: pr.idx });
                }
                if filter.contains(pr.idx) {
                    self.dup_responses += 1;
                }
                let unit = &mut units[pr.src_tid as usize];
                unit.rig.complete(pr.idx, filter);
                if watchdog_armed && unit.cmd.is_some() {
                    unit.received_this_cmd.push(pr.idx);
                }
                self.responses += 1;
                let unit = &mut self.units[pr.src_tid as usize];
                match unit.state {
                    UnitState::Stalled => {
                        unit.state = UnitState::Running;
                        wake.push(pr.src_tid);
                    }
                    UnitState::Draining if unit.rig.outstanding() == 0 => {
                        completed.push(pr.src_tid);
                    }
                    _ => {}
                }
            }
        }
        self.concat.recycle(pkt.prs);
        for u in wake.drain(..) {
            ctx.sched.schedule(
                now,
                Event::ClientProcess {
                    node: self.id,
                    unit: u,
                },
            );
        }
        self.wake_buf = wake;
        for &u in &completed {
            self.complete_command(now, u, ctx);
        }
        completed.clear();
        self.done_buf = completed;
    }

    /// Root path of the reduction extension: partial-sum contributions for
    /// rows this node owns arrive (merged or not) and are accounted for
    /// conservation.
    fn accept_partials(&mut self, pkt: ConcatPacket, ctx: &mut Ctx<'_, '_, '_>) {
        debug_assert_eq!(pkt.dest, self.id, "partial packet delivered to wrong node");
        let r = &mut ctx.shared.reduce;
        r.partial_prs_at_root += pkt.prs.len() as u64;
        r.root_wire_bytes += pkt.wire_bytes;
        for pr in &pkt.prs {
            r.contribs_delivered += pr.partial_contribs();
            r.value_delivered = r.value_delivered.wrapping_add(pr.partial_value());
        }
        self.concat.recycle(pkt.prs);
    }

    /// §7.1 recovery: the RIG operation timed out. Abandon outstanding
    /// PRs, discard the partial gather (drop its filter bits), and restart
    /// the command from its first idx with an exponentially backed-off,
    /// jittered watchdog. The escalation ladder: after `max_retries`
    /// restarts the node enters degraded mode (singleton PRs, forward-only
    /// switching); after twice that budget the command is abandoned
    /// outright so the run terminates instead of hanging on an unreachable
    /// destination.
    pub(crate) fn watchdog(
        &mut self,
        now: SimTime,
        unit_id: u16,
        generation: u64,
        ctx: &mut Ctx<'_, '_, '_>,
    ) {
        let base_ns = ctx.cfg.faults.watchdog_ns;
        let max_retries = ctx.cfg.faults.max_retries.max(1);
        let multiplier = ctx.cfg.faults.backoff_multiplier;
        let jitter_frac = ctx.cfg.faults.backoff_jitter;

        let cmd_retries;
        {
            let unit = &mut self.units[unit_id as usize];
            if unit.generation != generation {
                return; // the command completed; stand down
            }
            if unit.cmd.is_none() {
                return; // spurious wakeup after completion
            }
            unit.retries += 1;
            unit.cmd_retries += 1;
            cmd_retries = unit.cmd_retries;
        }

        // Abandon the unit's outstanding PRs: any response that still
        // arrives is stale and must not resolve the ledger twice.
        let n_stale = self.issue_times.abandon_unit(unit_id);
        ctx.shared.faults.abandoned_prs += n_stale;
        #[cfg(any(debug_assertions, feature = "audit"))]
        ctx.shared.audit.abandon_n("pr", n_stale);
        ctx.shared.trace(
            now,
            TrackId::node(self.id, lane::RIG_BASE + unit_id as u32),
            TraceEvent::WatchdogRetry {
                retry: cmd_retries,
                abandoned: n_stale as u32,
            },
        );

        // Final escalation rung: the retry budget is exhausted twice over
        // (degraded mode included) — the destination is presumed gone.
        // Keep whatever data arrived, clear the pending table, and retire
        // the command; the functional check will flag the missing columns.
        if cmd_retries > 2 * max_retries {
            let unit = &mut self.units[unit_id as usize];
            unit.received_this_cmd.clear();
            unit.rig.reset_pending();
            ctx.shared.faults.abandoned_commands += 1;
            self.complete_command(now, unit_id, ctx);
            return;
        }

        // First escalation rung: out of direct retries — fall back to
        // degraded direct PRs that skip every mechanism that kept failing.
        if cmd_retries >= max_retries {
            self.degraded_mode = true;
        }

        let new_generation;
        {
            let NodeState { units, filter, .. } = self;
            let unit = &mut units[unit_id as usize];
            let Some((start, _)) = unit.cmd else {
                return;
            };
            for idx in unit.received_this_cmd.drain(..) {
                filter.remove(idx);
            }
            unit.rig.reset_pending();
            unit.pos = start;
            unit.generation += 1;
            new_generation = unit.generation;
            let was_running = unit.state == UnitState::Running;
            unit.state = UnitState::Running;
            if !was_running {
                ctx.sched.schedule(
                    now,
                    Event::ClientProcess {
                        node: self.id,
                        unit: unit_id,
                    },
                );
            }
        }

        // Exponential backoff with jitter: doubling (by default) spreads
        // retries past transient outages; the jitter desynchronizes units
        // that all timed out on the same failure.
        let exponent = cmd_retries.saturating_sub(1).min(16) as i32;
        let jitter = 1.0 + jitter_frac * ctx.shared.jitter_rng.next_f64();
        #[expect(
            clippy::cast_sign_loss,
            reason = "truncates the backoff to whole ns outside `SimTime`'s rounding \
                      constructors; rounding it would move the fault-run digests"
        )]
        let interval_ns = (base_ns as f64 * multiplier.powi(exponent) * jitter) as u64;
        let interval = SimTime::from_ns(interval_ns.max(base_ns));
        ctx.shared.faults.backoff_wait += interval.saturating_sub(SimTime::from_ns(base_ns));
        ctx.sched.schedule(
            now + interval,
            Event::Watchdog {
                node: self.id,
                unit: unit_id,
                generation: new_generation,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::driver::{Ctx, Shared};
    use crate::sim::fabric::Fabric;
    use netsparse_desim::{Engine, Liveness};
    use netsparse_netsim::Topology;
    use netsparse_sparse::Partition1D;

    /// The req_id-window ledger agrees with a map model under random
    /// record, resolve and abandon churn on four units, one of which
    /// starts just below `u32::MAX` so its window wraps.
    #[test]
    fn issue_ledger_matches_a_map_model() {
        use netsparse_desim::SplitMix64;
        use std::collections::{BTreeMap, BTreeSet};

        const UNITS: usize = 4;
        let mut ledger = IssueLedger::new(UNITS);
        let mut model: BTreeMap<(u16, u32), SimTime> = BTreeMap::new();
        let mut issued: Vec<Vec<u32>> = vec![Vec::new(); UNITS];
        let mut abandoned: BTreeSet<(u16, u32)> = BTreeSet::new();
        let mut next = [0u32; UNITS];
        next[3] = u32::MAX - 8;
        ledger.units[3].base = next[3];
        // How often a resolve hit a resolved, an abandoned and a never
        // issued req_id.
        let (mut stale, mut gone, mut unissued) = (0, 0, 0);
        let mut rng = SplitMix64::new(0x1ED6_E700);
        for step in 0..40_000 {
            let unit = rng.next_range(UNITS as u64) as u16;
            let u = unit as usize;
            match rng.next_range(100) {
                0..=44 => {
                    let t = SimTime::from_ps(rng.next_range(1 << 40));
                    ledger.record(unit, next[u], t);
                    model.insert((unit, next[u]), t);
                    issued[u].push(next[u]);
                    next[u] = next[u].wrapping_add(1);
                }
                45..=97 => {
                    let req_id = match (issued[u].len(), rng.next_range(10)) {
                        (0, _) | (_, 0) => next[u].wrapping_add(rng.range_u32(0, 3)),
                        (_, 1) => next[u].wrapping_add(rng.range_u32(1_000, u32::MAX / 2)),
                        (k, _) => issued[u][k - 1 - rng.next_range(k.min(48) as u64) as usize],
                    };
                    let want = model.remove(&(unit, req_id));
                    assert_eq!(ledger.resolve(unit, req_id), want, "step {step}");
                    if want.is_none() {
                        if abandoned.contains(&(unit, req_id)) {
                            gone += 1;
                        } else if issued[u].contains(&req_id) {
                            stale += 1;
                        } else {
                            unissued += 1;
                        }
                    }
                }
                _ => {
                    let open: Vec<(u16, u32)> = model
                        .range((unit, 0)..=(unit, u32::MAX))
                        .map(|(&k, _)| k)
                        .collect();
                    for k in &open {
                        model.remove(k);
                    }
                    abandoned.extend(&open);
                    assert_eq!(ledger.abandon_unit(unit), open.len() as u64);
                }
            }
            assert_eq!(ledger.len(), model.len(), "step {step}");
        }
        assert!(next[3] < u32::MAX - 8, "unit 3 never wrapped");
        assert!(
            stale > 0 && gone > 0 && unissued > 0,
            "{stale} {gone} {unissued}"
        );
        assert_eq!(ledger.resolve(UNITS as u16, 0), None, "no such unit");
        for (unit, w) in ledger.units.iter().enumerate() {
            assert_ne!(w.slots.front(), Some(&RESOLVED), "unit {unit} untrimmed");
        }
    }

    fn topo() -> Topology {
        Topology::LeafSpine {
            racks: 2,
            rack_size: 4,
            spines: 2,
        }
    }

    /// Delivers `ev` to the lone `node` under test as the driver's dispatch
    /// would, failing on any event addressed to another component.
    fn deliver(node: &mut NodeState, now: SimTime, ev: Event, ctx: &mut Ctx<'_, '_, '_>) {
        let id = node.id;
        match ev {
            Event::HostIssue { node: n } if n == id => node.host_issue(now, ctx),
            Event::ClientProcess { node: n, unit } if n == id => {
                node.client_process(now, unit, ctx);
            }
            Event::NicConcatExpire { node: n } if n == id => node.concat_expire(now, ctx),
            Event::PacketAtNic { node: n, pkt } if n == id => node.packet_at_nic(now, pkt, ctx),
            Event::Watchdog {
                node: n,
                unit,
                generation,
            } if n == id => node.watchdog(now, unit, generation, ctx),
            _ => panic!("event escaped node {id}"),
        }
    }

    /// The node component runs its full command lifecycle in isolation —
    /// no rack, no cluster driver. A stream referencing only the node's
    /// own columns completes entirely on-NIC: every event the node emits
    /// routes back to itself, nothing reaches the network, and the node
    /// finishes with all units idle.
    #[test]
    fn local_only_command_lifecycle_in_isolation() {
        let cfg = ClusterConfig::mini(topo(), 16);
        let part = Partition1D::even(8 * 16, 8);
        let mut streams: Vec<Vec<u32>> = vec![vec![]; 8];
        streams[0] = vec![0, 1, 2, 3, 0, 1]; // node 0 owns cols 0..16
        let wl = CommWorkload::from_streams(part, vec![16; 8], streams);

        let mut nodes = build_nodes(&cfg, &wl);
        let node = &mut nodes[0];
        let mut fabric = Fabric::try_new(&cfg).unwrap();
        let mut shared = Shared::new(&cfg);

        let mut engine: Engine<Event> = Engine::new();
        engine.schedule(SimTime::ZERO, Event::HostIssue { node: 0 });
        engine
            .run(Liveness::none(), |now, ev, sched| {
                let mut ctx = Ctx {
                    cfg: &cfg,
                    wl: &wl,
                    fabric: &mut fabric,
                    shared: &mut shared,
                    sched,
                };
                deliver(node, now, ev, &mut ctx);
            })
            .unwrap();

        assert!(node.finish.is_some(), "local-only command must complete");
        assert_eq!(node.active_cmds, 0);
        assert_eq!(node.stream_pos, 6);
        assert!(node.units.iter().all(|u| u.state == UnitState::Idle));
        assert_eq!(node.issue_times.len(), 0);
        assert_eq!(node.responses, 0, "no PR may cross the fabric");
        let scanned: u64 = node.units.iter().map(|u| u.rig.stats().local).sum();
        assert_eq!(scanned, 6);
    }

    /// Stalling and draining: with a single pending entry and remote refs,
    /// the unit transitions Running -> Stalled/Draining and only completes
    /// once responses arrive. Responses are injected by hand — still no
    /// rack or fabric forwarding involved.
    #[test]
    fn remote_refs_drain_only_after_responses() {
        let mut cfg = ClusterConfig::mini(topo(), 16);
        cfg.mechanisms.nic_concat = false; // singleton packets, no expiry
        let part = Partition1D::even(8 * 16, 8);
        let mut streams: Vec<Vec<u32>> = vec![vec![]; 8];
        streams[0] = vec![16, 17]; // owned by node 1
        let wl = CommWorkload::from_streams(part, vec![16; 8], streams);

        let mut nodes = build_nodes(&cfg, &wl);
        let node = &mut nodes[0];
        let mut fabric = Fabric::try_new(&cfg).unwrap();
        let mut shared = Shared::new(&cfg);

        let mut engine: Engine<Event> = Engine::new();
        engine.schedule(SimTime::ZERO, Event::HostIssue { node: 0 });
        let mut outbound: Vec<netsparse_snic::Pr> = Vec::new();
        engine
            .run(Liveness::none(), |now, ev, sched| {
                // Intercept the node's own uplink sends: the fabric would
                // schedule PacketAtSwitch; deliver responses directly instead.
                match ev {
                    Event::PacketAtSwitch { pkt, .. } => {
                        outbound.extend(pkt.prs.iter().copied());
                        // Answer every read with an immediate response packet.
                        for pr in pkt.prs {
                            let resp = node.concat.degraded_singleton(
                                pr.src_node,
                                PrKind::Response,
                                pr,
                                cfg.payload_bytes(),
                            );
                            sched.schedule(now, Event::PacketAtNic { node: 0, pkt: resp });
                        }
                    }
                    ev => {
                        let mut ctx = Ctx {
                            cfg: &cfg,
                            wl: &wl,
                            fabric: &mut fabric,
                            shared: &mut shared,
                            sched,
                        };
                        deliver(node, now, ev, &mut ctx);
                    }
                }
            })
            .unwrap();

        assert_eq!(outbound.len(), 2, "both remote refs must issue PRs");
        assert!(node.finish.is_some());
        assert_eq!(node.responses, 2);
        assert_eq!(node.issue_times.len(), 0, "all PRs resolved");
        assert!(node.units.iter().all(|u| u.rig.outstanding() == 0));
    }
}
