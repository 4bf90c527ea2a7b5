//! Host-time replays of single layers, driven from outside through each
//! crate's public API with the workload's own generated inputs.
//!
//! Each replay feeds one hardware model the sequence it would see in the
//! cluster, stripped of everything else, so its time per operation is
//! that layer's own cost. The sequences are derived from the idx streams
//! before timing starts:
//!
//! - **RIG** (`snic`): every node's stream through one `RigClient` and the
//!   node's `IdxFilter`, under the workload's filter/coalesce switches;
//!   responses return in issue order once half the Pending PR Table is
//!   outstanding.
//! - **concat** (`snic::point`): the read PRs a node's RIG would issue
//!   (first references when filtering or coalescing is on, every remote
//!   reference otherwise), one per SNIC cycle, through the workload's
//!   `ConcatPoint` implementation.
//! - **link** (`netsim`): the packets the concat replay sealed, through the
//!   node's uplink `Link`.
//! - **cache** (`switch`): each rack's inter-rack reads, interleaved
//!   across the rack's nodes, through `MiddlePipes` (probe, fill on miss)
//!   sized as the workload's switch.
//! - **reduce** (`switch`): one partial-sum contribution per issued read,
//!   interleaved across each rack's nodes, through a `ReduceTable`.
//! - **desim**: a hold model on `EventQueue` (pop the minimum, push it
//!   back a random interval later) at a steady occupancy.
//!
//! The cache and reduce replays always run with the mechanism on, so a
//! workload that bypasses it still times the structure on its inputs.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::Instant; // simaudit:allow(no-wall-clock): replays time a layer's host cost

use netsparse::config::ConcatImpl;
use netsparse::prelude::*;
use netsparse_desim::{EventQueue, SimTime, SplitMix64};
use netsparse_netsim::Link;
use netsparse_snic::protocol::partial_contrib_value;
use netsparse_snic::{
    ConcatConfig, ConcatPacket, ConcatPoint, IdxFilter, IdxOutcome, Pr, PrKind, RigClient,
};
use netsparse_switch::{MiddlePipes, ReduceTable};

use crate::spans::Spans;
use crate::stats::Summary;
use crate::workload::Instance;

/// Passes a layer replay makes at least.
const MIN_PASSES: usize = 3;

/// A packet a NIC sealed: `(send time, wire bytes)`.
type Sealed = (SimTime, u64);

/// The sequences the replays consume.
pub struct Inputs {
    /// Read PRs each node's RIG would issue, in stream order.
    prs: Vec<Vec<u32>>,
    /// Per rack: `(round, node, idx)` for every issued read, round-robin
    /// across the rack's nodes.
    rack_prs: Vec<Vec<(u64, u32, u32)>>,
    /// Per node: the packets its NIC seals.
    packets: Vec<Vec<Sealed>>,
}

impl Inputs {
    /// Derives the replay sequences of the input.
    pub fn new(inst: &Instance) -> Inputs {
        let wl = &inst.wl;
        let m = inst.cfg.mechanisms;
        let dedup = m.filter || m.coalesce;
        let prs: Vec<Vec<u32>> = (0..wl.nodes())
            .map(|p| {
                let local = wl.partition().range(p);
                let mut seen = IdxFilter::new(wl.n_cols());
                wl.stream(p)
                    .iter()
                    .copied()
                    .filter(|&idx| !local.contains(&idx) && (!dedup || seen.insert(idx)))
                    .collect()
            })
            .collect();
        let mut racks: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for p in 0..wl.nodes() {
            let tor = inst.cfg.topology.edge_switch_of(p).0;
            racks.entry(tor).or_default().push(p);
        }
        let rack_prs = racks
            .values()
            .map(|nodes| {
                let longest = nodes.iter().map(|&p| prs[p as usize].len()).max();
                let mut seq = Vec::new();
                for round in 0..longest.unwrap_or(0) {
                    for &p in nodes {
                        if let Some(&idx) = prs[p as usize].get(round) {
                            seq.push((round as u64, p, idx));
                        }
                    }
                }
                seq
            })
            .collect();
        let mut packets = vec![Vec::new(); wl.nodes() as usize];
        concat_pass(inst, &prs, &mut packets);
        Inputs {
            prs,
            rack_prs,
            packets,
        }
    }
}

/// Runs every node's stream through a RIG client unit; returns the idxs
/// processed.
pub fn rig_pass(inst: &Instance) -> u64 {
    let wl = &inst.wl;
    let m = inst.cfg.mechanisms;
    let cap = inst.cfg.snic.pending_entries;
    let mut idxs = 0;
    for p in 0..wl.nodes() {
        let local = wl.partition().range(p);
        let mut filter = IdxFilter::new(wl.n_cols());
        let mut unit = RigClient::with_idx_domain(p, 0, cap, wl.n_cols());
        let mut inflight: VecDeque<u32> = VecDeque::with_capacity(cap);
        for &idx in wl.stream(p) {
            let is_local = local.contains(&idx);
            loop {
                match unit.process_idx(idx, is_local, m.coalesce, m.filter, &mut filter) {
                    IdxOutcome::Issued(pr) => {
                        inflight.push_back(pr.idx);
                        if inflight.len() >= cap / 2 {
                            if let Some(done) = inflight.pop_front() {
                                unit.complete(done, &mut filter);
                            }
                        }
                        break;
                    }
                    IdxOutcome::Stalled => match inflight.pop_front() {
                        Some(done) => unit.complete(done, &mut filter),
                        None => break,
                    },
                    _ => break,
                }
            }
        }
        for done in inflight.drain(..) {
            unit.complete(done, &mut filter);
        }
        idxs += wl.stream(p).len() as u64;
        black_box(unit.stats());
    }
    idxs
}

/// Pushes each node's reads through its NIC concatenation point, writing
/// the sealed packets into `packets`; returns the PRs pushed.
fn concat_pass(inst: &Instance, prs: &[Vec<u32>], packets: &mut [Vec<Sealed>]) -> u64 {
    let cfg = &inst.cfg;
    let ccfg = ConcatConfig {
        headers: cfg.headers,
        mtu: cfg.snic.mtu,
        delay: cfg.nic_concat_delay(),
        enabled: cfg.mechanisms.nic_concat,
    };
    let cycle = cfg.snic_clock().period();
    let mut pushed = 0;
    let mut spent: Vec<Vec<Pr>> = Vec::new();
    for (p, (reads, out)) in prs.iter().zip(packets.iter_mut()).enumerate() {
        let mut point = match cfg.concat_impl {
            ConcatImpl::Dedicated => ConcatPoint::dedicated(ccfg),
            ConcatImpl::Virtual(pool) => ConcatPoint::virtualized(ccfg, pool),
        };
        out.clear();
        let mut now = SimTime::ZERO;
        for (i, &idx) in reads.iter().enumerate() {
            now += cycle;
            let mut seal = |pkt: ConcatPacket| {
                out.push((now, pkt.wire_bytes));
                spent.push(pkt.prs);
            };
            if point.next_expiry().is_some_and(|e| e <= now) {
                point.flush_expired_with(now, &mut seal);
            }
            let pr = Pr {
                src_node: p as u32,
                src_tid: 0,
                idx,
                req_id: i as u32,
            };
            point.push_with(now, inst.wl.owner(idx), PrKind::Read, pr, 0, &mut seal);
            for v in spent.drain(..) {
                point.recycle(v);
            }
        }
        point.flush_expired_with(SimTime::MAX, |pkt| out.push((now, pkt.wire_bytes)));
        pushed += reads.len() as u64;
    }
    pushed
}

/// The concat replay over the input's reads; `scratch` receives the
/// sealed packets. Returns the PRs pushed.
pub fn concat_replay(inst: &Instance, inputs: &Inputs, scratch: &mut [Vec<Sealed>]) -> u64 {
    concat_pass(inst, &inputs.prs, scratch)
}

/// Scratch space for [`concat_replay`].
pub fn concat_scratch(inst: &Instance) -> Vec<Vec<Sealed>> {
    vec![Vec::new(); inst.wl.nodes() as usize]
}

/// Replays each node's sealed packets through its uplink; returns the
/// transmissions.
pub fn link_pass(inst: &Instance, inputs: &Inputs) -> u64 {
    let mut sent = 0;
    for pkts in &inputs.packets {
        let mut link = Link::new(inst.cfg.link);
        for &(t, bytes) in pkts {
            black_box(link.transmit(t, bytes));
        }
        sent += pkts.len() as u64;
    }
    sent
}

/// Replays each rack's inter-rack reads through its cache banks; returns
/// the lookups.
pub fn cache_pass(inst: &Instance, inputs: &Inputs) -> u64 {
    let topo = &inst.cfg.topology;
    let mut lookups = 0;
    for seq in &inputs.rack_prs {
        let mut pipes = MiddlePipes::new(&inst.cfg.switch, inst.cfg.payload_bytes());
        for &(_, node, idx) in seq {
            let home = inst.wl.owner(idx);
            if topo.edge_switch_of(home) == topo.edge_switch_of(node) {
                continue;
            }
            lookups += 1;
            if !pipes.lookup(home, idx) {
                pipes.insert(home, idx);
            }
        }
        black_box(pipes.stats());
    }
    lookups
}

/// Replays one contribution per issued read through each rack's
/// partial-sum table; returns the contributions absorbed.
pub fn reduce_pass(inst: &Instance, inputs: &Inputs) -> u64 {
    let rc = if inst.cfg.reduce.enabled {
        inst.cfg.reduce
    } else {
        ReduceConfig::in_network()
    };
    let cycle = inst.cfg.snic_clock().period().as_ps();
    let mut absorbed = 0;
    for seq in &inputs.rack_prs {
        let mut table = ReduceTable::new(rc.table_entries, SimTime::from_ns(rc.flush_ns));
        for &(round, node, idx) in seq {
            let now = SimTime::from_ps(round * cycle);
            if table.next_expiry().is_some_and(|e| e <= now) {
                table.flush_expired_with(now, |root, pr| {
                    black_box((root, pr));
                });
            }
            let pr = Pr::partial(node, idx, 1, partial_contrib_value(node, idx));
            black_box(table.absorb(now, inst.wl.owner(idx), pr));
        }
        table.flush_all_with(|root, pr| {
            black_box((root, pr));
        });
        absorbed += seq.len() as u64;
        black_box(table.stats());
    }
    absorbed
}

/// The classic hold model on the engine's event queue: at a steady
/// occupancy, pop the earliest event and push it back a uniform random
/// interval (mean 1 ns per pending event) later.
pub struct HoldModel {
    queue: EventQueue<u32>,
    rng: SplitMix64,
    spread_ps: u64,
}

impl HoldModel {
    /// A queue filled to `occupancy` events.
    pub fn new(occupancy: usize, seed: u64) -> HoldModel {
        let mut rng = SplitMix64::new(seed);
        let spread_ps = 2_000 * occupancy as u64;
        let mut queue = EventQueue::new();
        for i in 0..occupancy {
            queue.push(SimTime::from_ps(rng.range_u64(0, spread_ps)), i as u32);
        }
        HoldModel {
            queue,
            rng,
            spread_ps,
        }
    }

    /// Runs `ops` hold operations; returns `ops`.
    pub fn run(&mut self, ops: u64) -> u64 {
        for _ in 0..ops {
            let (t, e) = self
                .queue
                .pop()
                .expect("the hold model keeps its occupancy");
            let dt = SimTime::from_ps(self.rng.range_u64(1, self.spread_ps));
            self.queue.push(t + dt, e);
        }
        ops
    }
}

/// The input's partition with every stream empty: simulating it costs
/// only building the cluster and assembling the report.
pub fn empty_point(inst: &Instance) -> CommWorkload {
    let wl = &inst.wl;
    CommWorkload::from_streams(
        wl.partition().clone(),
        (0..wl.nodes()).map(|p| wl.rows_of(p)).collect(),
        vec![Vec::new(); wl.nodes() as usize],
    )
}

/// Repeats `pass` (which returns its operation count) inside `name` spans
/// until `budget` seconds elapse, at least [`MIN_PASSES`] times; returns the
/// pass times in seconds and the operations per pass. Callers report the
/// median of the pass times, as the end-to-end pass does.
pub fn timed(
    spans: &mut Spans,
    name: &'static str,
    budget: f64,
    mut pass: impl FnMut() -> u64,
) -> (Summary, u64) {
    let start = Instant::now(); // simaudit:allow(no-wall-clock): the replay's share of the window is host time
    let mut times = Vec::new();
    let mut ops = 0;
    while times.len() < MIN_PASSES || start.elapsed().as_secs_f64() < budget {
        let (n, dt) = spans.time(name, times.len() as u64, &mut pass);
        ops = n;
        times.push(dt);
    }
    (Summary::of(&times), ops)
}
