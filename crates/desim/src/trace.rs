//! `simtrace`: structured tracing and timeline metrics for simulations.
//!
//! Where the [`Auditor`](crate::Auditor) answers "did the run keep its
//! invariants?" with a digest, a [`Tracer`] answers "what did the run *do*
//! over time?" with a stream of typed [`TraceRecord`]s: command lifecycle,
//! RIG pipeline decisions, concatenator flushes (with their reason),
//! Property-Cache hits/misses/evictions, link transmissions with queue
//! depth, and fault/retry events. Records are stamped with the engine's
//! current event time and buffered in a bounded ring with drop accounting,
//! so tracing a multi-minute run cannot exhaust memory.
//!
//! Tracing is compiled into every build and off until a tracer is
//! attached. A run is traced exactly when its caller attaches one
//! (`simulate_traced` in the `netsparse` crate): the driver then owns it
//! as an `Option<Tracer>` and makes every record in its event handlers,
//! from what each component call returns. Components hold no tracer, so
//! a run without one pays a single not-taken branch per record site.
//! [`Tracer::record`] is `#[cold]` and `#[inline(never)]`, which keeps
//! the record path out of the event handlers' hot loops.
//!
//! Three consumers read the buffer back (see `docs/OBSERVABILITY.md`):
//!
//! - [`TraceBuffer::to_chrome_json`] emits Chrome trace-event JSON that
//!   Perfetto / `chrome://tracing` load directly (sim time in µs);
//! - [`TraceBuffer::to_csv`] emits one row per record for ad-hoc analysis;
//! - [`TimelineMetrics::derive`] folds the stream into windowed time
//!   series (cache hit rate, coalescing ratio, flush sizes) and high-water
//!   marks, and [`ReplayCounters::replay`] reconstructs the aggregate
//!   counters — the double-entry bookkeeping check against `SimReport`.

use std::fmt::Write as _;

use crate::time::SimTime;

/// FNV-1a offset basis / prime (64-bit), matching the auditor's digest.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// First pid of the switch track range ([`TrackId::switch`]).
pub const SWITCH_PID_BASE: u32 = 0x0001_0000;
/// First pid of the link track range ([`TrackId::link`]).
pub const LINK_PID_BASE: u32 = 0x0002_0000;
/// The pid of cluster-scope events (fault transitions, route rebuilds).
pub const CLUSTER_PID: u32 = 0x0003_0000;

/// Lane (`tid`) conventions within a track; see [`TrackId`].
pub mod lane {
    /// Host command lifecycle (issue/complete) on a node track.
    pub const HOST: u32 = 0;
    /// Concatenation point of a node or switch track.
    pub const CONCAT: u32 = 1;
    /// Property-Cache bank array of a switch track.
    pub const CACHE: u32 = 2;
    /// Wire activity of a link track.
    pub const WIRE: u32 = 3;
    /// Fault events (drops, transitions) of any track.
    pub const FAULT: u32 = 4;
    /// RIG client unit `u` of a node track uses lane `RIG_BASE + u`.
    pub const RIG_BASE: u32 = 8;
}

/// Addresses one emitting component as a Chrome trace-event
/// (process, thread) pair: the *pid* is the cluster element (node,
/// switch, link, or the cluster itself) and the *tid* is a [`lane`]
/// within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TrackId {
    /// Process id: the cluster element (see the `*_PID*` constants).
    pub pid: u32,
    /// Thread id: a [`lane`] within the element.
    pub tid: u32,
}

impl TrackId {
    /// The track of `lane` on node `node`.
    pub const fn node(node: u32, lane: u32) -> Self {
        TrackId {
            pid: node,
            tid: lane,
        }
    }

    /// The track of `lane` on switch `sw`.
    pub const fn switch(sw: u32, lane: u32) -> Self {
        TrackId {
            pid: SWITCH_PID_BASE + sw,
            tid: lane,
        }
    }

    /// The wire track of link `link`.
    pub const fn link(link: u32) -> Self {
        TrackId {
            pid: LINK_PID_BASE + link,
            tid: lane::WIRE,
        }
    }

    /// The cluster-scope track (fault transitions, route rebuilds).
    pub const fn cluster() -> Self {
        TrackId {
            pid: CLUSTER_PID,
            tid: lane::FAULT,
        }
    }

    /// Human-readable name of the element this track belongs to.
    pub fn process_name(&self) -> String {
        match self.pid {
            p if p < SWITCH_PID_BASE => format!("node {p}"),
            p if p < LINK_PID_BASE => format!("switch {}", p - SWITCH_PID_BASE),
            p if p < CLUSTER_PID => format!("link {}", p - LINK_PID_BASE),
            _ => "cluster".to_string(),
        }
    }

    /// Human-readable name of the lane within the element.
    pub fn thread_name(&self) -> String {
        match self.tid {
            lane::HOST => "host".to_string(),
            lane::CONCAT => "concat".to_string(),
            lane::CACHE => "cache".to_string(),
            lane::WIRE => "wire".to_string(),
            lane::FAULT => "fault".to_string(),
            t if t >= lane::RIG_BASE => format!("rig {}", t - lane::RIG_BASE),
            t => format!("lane {t}"),
        }
    }
}

/// Why a concatenation queue emitted a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// The next PR would not fit within the MTU.
    Full,
    /// The queue's first PR exhausted its delay budget.
    Expired,
    /// End-of-run (or caller-requested) drain.
    Drained,
    /// The PR bypassed queuing entirely (concatenation disabled, or a PR
    /// too large for the virtual-CQ pool).
    Bypass,
    /// A virtual CQ was evicted early under physical-pool pressure.
    Pressure,
}

impl FlushReason {
    /// Stable small integer for digests and CSV columns.
    pub const fn code(self) -> u64 {
        match self {
            FlushReason::Full => 0,
            FlushReason::Expired => 1,
            FlushReason::Drained => 2,
            FlushReason::Bypass => 3,
            FlushReason::Pressure => 4,
        }
    }
}

/// Why a packet was lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The stochastic loss process dropped it.
    Loss,
    /// A dead switch or severed route blackholed it.
    Dead,
}

/// One typed trace event; the payload of a [`TraceRecord`].
///
/// Every variant exposes exactly two `u64` argument columns
/// ([`TraceEvent::arg_values`]) so the CSV schema stays fixed; the
/// Chrome exporter names them per variant ([`TraceEvent::arg_names`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// The host issued a RIG command of `idxs` idxs to client unit `unit`.
    CmdIssued {
        /// Client unit the command was assigned to.
        unit: u16,
        /// Idx count carved into the command.
        idxs: u32,
    },
    /// A RIG command on `unit` completed (all responses arrived).
    CmdCompleted {
        /// Client unit that finished.
        unit: u16,
    },
    /// The RIG pipeline issued a read PR for `idx`.
    PrIssued {
        /// Property index requested.
        idx: u32,
    },
    /// The response for an outstanding PR arrived and resolved it.
    PrResolved {
        /// Property index delivered.
        idx: u32,
    },
    /// A response arrived for a PR the watchdog had already abandoned.
    StaleResponse {
        /// Property index delivered late.
        idx: u32,
    },
    /// The Idx Filter dropped `idx` (property already fetched).
    FilterHit {
        /// Property index filtered.
        idx: u32,
    },
    /// Coalescing dropped `idx` (a PR for it is already outstanding).
    Coalesced {
        /// Property index coalesced.
        idx: u32,
    },
    /// A client unit stalled on a full Pending PR Table.
    Stalled {
        /// Outstanding PRs at the stall.
        outstanding: u32,
    },
    /// A concatenation queue emitted a packet.
    ConcatFlush {
        /// What triggered the emission.
        reason: FlushReason,
        /// PRs in the packet.
        prs: u32,
        /// Wire bytes of the packet.
        wire_bytes: u32,
    },
    /// A Property-Cache probe hit.
    CacheHit {
        /// Property index probed.
        idx: u32,
    },
    /// A Property-Cache probe missed.
    CacheMiss {
        /// Property index probed.
        idx: u32,
    },
    /// A property was deposited into the Property Cache.
    CacheInsert {
        /// Property index inserted.
        idx: u32,
    },
    /// A valid line was evicted to make room.
    CacheEvict {
        /// Property index evicted.
        idx: u32,
    },
    /// A packet was handed to a link's output queue.
    LinkTx {
        /// Wire bytes of the packet.
        bytes: u32,
        /// Output-queueing delay the packet saw (the link's backlog), in
        /// picoseconds — the queue-depth signal of the timeline metrics.
        backlog_ps: u64,
    },
    /// A packet was lost.
    PacketDropped {
        /// Loss process or dead element.
        reason: DropReason,
        /// PRs the packet carried.
        prs: u32,
    },
    /// The §7.1 watchdog restarted a command.
    WatchdogRetry {
        /// Retry ordinal of the current command (1 = first restart).
        retry: u32,
        /// Outstanding PRs abandoned by the restart.
        abandoned: u32,
    },
    /// A scheduled failure/repair took effect and routes reconverged.
    FaultApplied {
        /// Next-hop entries rewritten by the failover recomputation.
        failovers: u32,
    },
}

impl TraceEvent {
    /// Stable event name (Chrome `name` field / CSV `event` column).
    pub const fn name(&self) -> &'static str {
        match self {
            TraceEvent::CmdIssued { .. } => "cmd_issued",
            TraceEvent::CmdCompleted { .. } => "cmd_completed",
            TraceEvent::PrIssued { .. } => "pr_issued",
            TraceEvent::PrResolved { .. } => "pr_resolved",
            TraceEvent::StaleResponse { .. } => "stale_response",
            TraceEvent::FilterHit { .. } => "filter_hit",
            TraceEvent::Coalesced { .. } => "coalesced",
            TraceEvent::Stalled { .. } => "stalled",
            TraceEvent::ConcatFlush { .. } => "concat_flush",
            TraceEvent::CacheHit { .. } => "cache_hit",
            TraceEvent::CacheMiss { .. } => "cache_miss",
            TraceEvent::CacheInsert { .. } => "cache_insert",
            TraceEvent::CacheEvict { .. } => "cache_evict",
            TraceEvent::LinkTx { .. } => "link_tx",
            TraceEvent::PacketDropped { .. } => "packet_dropped",
            TraceEvent::WatchdogRetry { .. } => "watchdog_retry",
            TraceEvent::FaultApplied { .. } => "fault_applied",
        }
    }

    /// Names of the two argument columns (Chrome `args` keys).
    pub const fn arg_names(&self) -> [&'static str; 2] {
        match self {
            TraceEvent::CmdIssued { .. } => ["unit", "idxs"],
            TraceEvent::CmdCompleted { .. } => ["unit", "_"],
            TraceEvent::PrIssued { .. }
            | TraceEvent::PrResolved { .. }
            | TraceEvent::StaleResponse { .. }
            | TraceEvent::FilterHit { .. }
            | TraceEvent::Coalesced { .. }
            | TraceEvent::CacheHit { .. }
            | TraceEvent::CacheMiss { .. }
            | TraceEvent::CacheInsert { .. }
            | TraceEvent::CacheEvict { .. } => ["idx", "_"],
            TraceEvent::Stalled { .. } => ["outstanding", "_"],
            TraceEvent::ConcatFlush { .. } => ["prs", "wire_bytes"],
            TraceEvent::LinkTx { .. } => ["bytes", "backlog_ps"],
            TraceEvent::PacketDropped { .. } => ["reason", "prs"],
            TraceEvent::WatchdogRetry { .. } => ["retry", "abandoned"],
            TraceEvent::FaultApplied { .. } => ["failovers", "_"],
        }
    }

    /// Values of the two argument columns (CSV `a`,`b`).
    pub const fn arg_values(&self) -> [u64; 2] {
        match *self {
            TraceEvent::CmdIssued { unit, idxs } => [unit as u64, idxs as u64],
            TraceEvent::CmdCompleted { unit } => [unit as u64, 0],
            TraceEvent::PrIssued { idx }
            | TraceEvent::PrResolved { idx }
            | TraceEvent::StaleResponse { idx }
            | TraceEvent::FilterHit { idx }
            | TraceEvent::Coalesced { idx }
            | TraceEvent::CacheHit { idx }
            | TraceEvent::CacheMiss { idx }
            | TraceEvent::CacheInsert { idx }
            | TraceEvent::CacheEvict { idx } => [idx as u64, 0],
            TraceEvent::Stalled { outstanding } => [outstanding as u64, 0],
            TraceEvent::ConcatFlush {
                reason,
                prs,
                wire_bytes,
            } => [(reason.code() << 32) | prs as u64, wire_bytes as u64],
            TraceEvent::LinkTx { bytes, backlog_ps } => [bytes as u64, backlog_ps],
            TraceEvent::PacketDropped { reason, prs } => [
                match reason {
                    DropReason::Loss => 0,
                    DropReason::Dead => 1,
                },
                prs as u64,
            ],
            TraceEvent::WatchdogRetry { retry, abandoned } => [retry as u64, abandoned as u64],
            TraceEvent::FaultApplied { failovers } => [failovers as u64, 0],
        }
    }
}

/// One timestamped trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Engine event time the record was emitted at.
    pub time: SimTime,
    /// The emitting component's track.
    pub track: TrackId,
    /// The typed event.
    pub event: TraceEvent,
}

/// Tracer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Maximum records buffered; further records are counted as dropped.
    pub capacity: usize,
}

impl Default for TraceConfig {
    /// One million records (~40 MB) — ample for the test-scale clusters.
    fn default() -> Self {
        TraceConfig { capacity: 1 << 20 }
    }
}

/// The bounded record buffer with drop accounting.
///
/// The buffer keeps the *earliest* `capacity` records and counts the rest
/// as dropped: the prefix of a trace stays exactly reproducible whatever
/// the capacity, which is what the golden-trace test pins down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceBuffer {
    capacity: usize,
    records: Vec<TraceRecord>,
    dropped: u64,
}

impl TraceBuffer {
    /// Creates an empty buffer holding at most `capacity` records.
    pub fn new(capacity: usize) -> Self {
        TraceBuffer {
            capacity,
            records: Vec::new(),
            dropped: 0,
        }
    }

    /// Appends `rec`, or counts it as dropped when the buffer is full.
    #[inline]
    pub fn record(&mut self, rec: TraceRecord) {
        if self.records.len() < self.capacity {
            self.records.push(rec);
        } else {
            self.dropped += 1;
        }
    }

    /// The buffered records, in emission order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Records currently buffered.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records discarded because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records offered overall (buffered + dropped).
    pub fn offered(&self) -> u64 {
        self.records.len() as u64 + self.dropped
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// FNV-1a digest over every buffered record (time, track, event name
    /// and arguments). Two same-seed runs must produce identical digests —
    /// the full-trace strengthening of the engine's event digest.
    pub fn digest(&self) -> u64 {
        fn fold(d: u64, v: u64) -> u64 {
            v.to_le_bytes()
                .iter()
                .fold(d, |d, &b| (d ^ b as u64).wrapping_mul(FNV_PRIME))
        }
        let mut d = FNV_OFFSET;
        for r in &self.records {
            d = fold(d, r.time.as_ps());
            d = fold(d, r.track.pid as u64);
            d = fold(d, r.track.tid as u64);
            for b in r.event.name().bytes() {
                d = (d ^ b as u64).wrapping_mul(FNV_PRIME);
            }
            let [a, bv] = r.event.arg_values();
            d = fold(d, a);
            d = fold(d, bv);
        }
        d
    }

    /// The first `n` CSV rows (no header) — the golden test's
    /// human-readable prefix.
    pub fn human_prefix(&self, n: usize) -> String {
        let mut out = String::new();
        for r in self.records.iter().take(n) {
            Self::csv_row(&mut out, r);
        }
        out
    }

    fn csv_row(out: &mut String, r: &TraceRecord) {
        let [a, b] = r.event.arg_values();
        let _ = writeln!(
            out,
            "{},{},{},{},{a},{b}",
            r.time.as_ps(),
            r.track.pid,
            r.track.tid,
            r.event.name()
        );
    }

    /// Exports the buffer as CSV: a header line, then exactly one row per
    /// buffered record (`offered() - dropped()` rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time_ps,pid,tid,event,a,b\n");
        for r in &self.records {
            Self::csv_row(&mut out, r);
        }
        out
    }

    /// Exports the buffer as Chrome trace-event JSON (the object form with
    /// a `traceEvents` array), loadable by Perfetto and `chrome://tracing`.
    ///
    /// Each record becomes an instant event (`"ph":"i"`) on its
    /// (pid, tid) track; metadata events name every process and thread.
    /// Timestamps are sim time converted to microseconds with picosecond
    /// precision (integer formatting — no float rounding).
    pub fn to_chrome_json(&self) -> String {
        let mut tracks: Vec<TrackId> = self.records.iter().map(|r| r.track).collect();
        tracks.sort_unstable();
        tracks.dedup();
        let mut pids: Vec<u32> = tracks.iter().map(|t| t.pid).collect();
        pids.dedup();

        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        let mut push = |out: &mut String, ev: String| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&ev);
        };
        for pid in &pids {
            let name = TrackId { pid: *pid, tid: 0 }.process_name();
            push(
                &mut out,
                format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                     \"args\":{{\"name\":\"{name}\"}}}}"
                ),
            );
        }
        for t in &tracks {
            let name = t.thread_name();
            push(
                &mut out,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\
                     \"args\":{{\"name\":\"{name}\"}}}}",
                    t.pid, t.tid
                ),
            );
        }
        for r in &self.records {
            let ps = r.time.as_ps();
            let (us, frac) = (ps / 1_000_000, ps % 1_000_000);
            let [an, bn] = r.event.arg_names();
            let [av, bv] = r.event.arg_values();
            push(
                &mut out,
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{us}.{frac:06},\
                     \"pid\":{},\"tid\":{},\"args\":{{\"{an}\":{av},\"{bn}\":{bv}}}}}",
                    r.event.name(),
                    r.track.pid,
                    r.track.tid
                ),
            );
        }
        out.push_str("]}");
        out
    }
}

/// The recording end of a trace: a [`TraceBuffer`] that stamps each
/// record with the event time its caller passes.
///
/// The simulation driver owns the one tracer of a run and makes every
/// record from its event handlers, each stamped with the time of the
/// event being handled, so the stream is monotone non-decreasing by
/// construction. Components never see it.
///
/// # Example
///
/// ```
/// use netsparse_desim::trace::{lane, TraceConfig, TraceEvent, Tracer, TrackId};
/// use netsparse_desim::SimTime;
///
/// let mut tracer = Tracer::new(TraceConfig { capacity: 16 });
/// let track = TrackId::node(0, lane::HOST);
/// tracer.record(SimTime::from_ns(5), track, TraceEvent::CmdIssued { unit: 0, idxs: 64 });
/// let buf = tracer.into_buffer();
/// assert_eq!(buf.len(), 1);
/// assert_eq!(buf.records()[0].time, SimTime::from_ns(5));
/// ```
#[derive(Debug)]
pub struct Tracer {
    buf: TraceBuffer,
}

impl Tracer {
    /// Creates a tracer with an empty buffer.
    pub fn new(cfg: TraceConfig) -> Self {
        Tracer {
            buf: TraceBuffer::new(cfg.capacity),
        }
    }

    /// Records `event` on `track`, stamped `time`.
    ///
    /// Cold and never inlined: its callers sit in the event handlers'
    /// hot paths behind an `if let Some(tracer)`, and an inlined body
    /// there costs untraced runs about 3% (see docs/OBSERVABILITY.md).
    #[cold]
    #[inline(never)]
    pub fn record(&mut self, time: SimTime, track: TrackId, event: TraceEvent) {
        self.buf.record(TraceRecord { time, track, event });
    }

    /// The buffer of everything recorded (call at end of run).
    pub fn into_buffer(self) -> TraceBuffer {
        self.buf
    }
}

/// Aggregate counters reconstructed by replaying a trace; the
/// double-entry bookkeeping side of the trace-vs-metrics consistency test.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayCounters {
    /// `cmd_issued` records.
    pub cmds_issued: u64,
    /// `cmd_completed` records.
    pub cmds_completed: u64,
    /// `pr_issued` records.
    pub prs_issued: u64,
    /// `pr_resolved` records.
    pub prs_resolved: u64,
    /// `stale_response` records.
    pub stale_responses: u64,
    /// `filter_hit` records.
    pub filter_hits: u64,
    /// `coalesced` records.
    pub coalesced: u64,
    /// `stalled` records.
    pub stalls: u64,
    /// `concat_flush` records.
    pub flushes: u64,
    /// PRs carried by all `concat_flush` records.
    pub flushed_prs: u64,
    /// `cache_hit` + `cache_miss` records.
    pub cache_lookups: u64,
    /// `cache_hit` records.
    pub cache_hits: u64,
    /// `cache_miss` records.
    pub cache_misses: u64,
    /// `cache_insert` records.
    pub cache_insertions: u64,
    /// `cache_evict` records.
    pub cache_evictions: u64,
    /// `link_tx` records.
    pub link_packets: u64,
    /// Bytes carried by all `link_tx` records.
    pub link_bytes: u64,
    /// `packet_dropped` records with the loss reason.
    pub dropped_loss: u64,
    /// `packet_dropped` records with the dead reason.
    pub dropped_dead: u64,
    /// `watchdog_retry` records.
    pub watchdog_retries: u64,
    /// PRs abandoned across all `watchdog_retry` records.
    pub abandoned_prs: u64,
    /// `fault_applied` records.
    pub fault_transitions: u64,
}

impl ReplayCounters {
    /// Replays `records`, tallying every event kind.
    pub fn replay(records: &[TraceRecord]) -> Self {
        let mut c = ReplayCounters::default();
        for r in records {
            match r.event {
                TraceEvent::CmdIssued { .. } => c.cmds_issued += 1,
                TraceEvent::CmdCompleted { .. } => c.cmds_completed += 1,
                TraceEvent::PrIssued { .. } => c.prs_issued += 1,
                TraceEvent::PrResolved { .. } => c.prs_resolved += 1,
                TraceEvent::StaleResponse { .. } => c.stale_responses += 1,
                TraceEvent::FilterHit { .. } => c.filter_hits += 1,
                TraceEvent::Coalesced { .. } => c.coalesced += 1,
                TraceEvent::Stalled { .. } => c.stalls += 1,
                TraceEvent::ConcatFlush { prs, .. } => {
                    c.flushes += 1;
                    c.flushed_prs += prs as u64;
                }
                TraceEvent::CacheHit { .. } => {
                    c.cache_lookups += 1;
                    c.cache_hits += 1;
                }
                TraceEvent::CacheMiss { .. } => {
                    c.cache_lookups += 1;
                    c.cache_misses += 1;
                }
                TraceEvent::CacheInsert { .. } => c.cache_insertions += 1,
                TraceEvent::CacheEvict { .. } => c.cache_evictions += 1,
                TraceEvent::LinkTx { bytes, .. } => {
                    c.link_packets += 1;
                    c.link_bytes += bytes as u64;
                }
                TraceEvent::PacketDropped { reason, .. } => match reason {
                    DropReason::Loss => c.dropped_loss += 1,
                    DropReason::Dead => c.dropped_dead += 1,
                },
                TraceEvent::WatchdogRetry { abandoned, .. } => {
                    c.watchdog_retries += 1;
                    c.abandoned_prs += abandoned as u64;
                }
                TraceEvent::FaultApplied { .. } => c.fault_transitions += 1,
            }
        }
        c
    }
}

/// Windowed time series and high-water marks derived from a trace — the
/// internal curves the paper's evaluation points at (queue occupancy,
/// cache hit rate over the epoch, coalescing efficiency).
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineMetrics {
    /// Number of equal-width time windows the run was split into.
    pub windows: usize,
    /// Window width in picoseconds.
    pub window_ps: u64,
    /// Per-window Property-Cache hit rate (`None`: no lookup in the
    /// window).
    pub cache_hit_rate: Vec<Option<f64>>,
    /// Per-window fraction of remote references eliminated by filtering +
    /// coalescing (`(filter_hit + coalesced) / (… + pr_issued)`; `None`:
    /// no RIG decision in the window).
    pub coalescing_ratio: Vec<Option<f64>>,
    /// Per-window mean PRs per concatenator flush (`None`: no flush in
    /// the window).
    pub flush_prs_mean: Vec<Option<f64>>,
    /// Worst link output-queue delay observed, in picoseconds.
    pub link_backlog_high_water_ps: u64,
    /// Largest PR count in any single concatenator flush.
    pub max_flush_prs: u64,
    /// Records the metrics were derived from.
    pub records: u64,
    /// Records dropped by the bounded buffer (not represented here).
    pub dropped: u64,
}

impl TimelineMetrics {
    /// Splits `buf`'s time span into `windows` equal windows and derives
    /// the per-window series and high-water marks.
    pub fn derive(buf: &TraceBuffer, windows: usize) -> Self {
        let windows = windows.max(1);
        let end_ps = buf
            .records()
            .iter()
            .map(|r| r.time.as_ps())
            .max()
            .unwrap_or(0);
        let window_ps = (end_ps / windows as u64).max(1);
        let win_of = |t: SimTime| -> usize { ((t.as_ps() / window_ps) as usize).min(windows - 1) };
        let mut hits = vec![0u64; windows];
        let mut lookups = vec![0u64; windows];
        let mut eliminated = vec![0u64; windows];
        let mut remote = vec![0u64; windows];
        let mut flushes = vec![0u64; windows];
        let mut flush_prs = vec![0u64; windows];
        let mut backlog_hw = 0u64;
        let mut max_flush = 0u64;
        for r in buf.records() {
            let w = win_of(r.time);
            match r.event {
                TraceEvent::CacheHit { .. } => {
                    hits[w] += 1;
                    lookups[w] += 1;
                }
                TraceEvent::CacheMiss { .. } => lookups[w] += 1,
                TraceEvent::FilterHit { .. } | TraceEvent::Coalesced { .. } => {
                    eliminated[w] += 1;
                    remote[w] += 1;
                }
                TraceEvent::PrIssued { .. } => remote[w] += 1,
                TraceEvent::ConcatFlush { prs, .. } => {
                    flushes[w] += 1;
                    flush_prs[w] += prs as u64;
                    max_flush = max_flush.max(prs as u64);
                }
                TraceEvent::LinkTx { backlog_ps, .. } => {
                    backlog_hw = backlog_hw.max(backlog_ps);
                }
                _ => {}
            }
        }
        let ratio = |num: &[u64], den: &[u64]| -> Vec<Option<f64>> {
            num.iter()
                .zip(den)
                .map(|(&n, &d)| (d > 0).then(|| n as f64 / d as f64))
                .collect()
        };
        TimelineMetrics {
            windows,
            window_ps,
            cache_hit_rate: ratio(&hits, &lookups),
            coalescing_ratio: ratio(&eliminated, &remote),
            flush_prs_mean: ratio(&flush_prs, &flushes),
            link_backlog_high_water_ps: backlog_hw,
            max_flush_prs: max_flush,
            records: buf.len() as u64,
            dropped: buf.dropped(),
        }
    }
}

/// Everything the simulation folds back into its report when tracing is
/// enabled: the raw buffer, the derived timeline, and the trace digest.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// The buffered records (bounded; see [`TraceBuffer::dropped`]).
    pub buffer: TraceBuffer,
    /// Windowed time series and high-water marks.
    pub timeline: TimelineMetrics,
    /// Full-trace FNV-1a digest ([`TraceBuffer::digest`]).
    pub digest: u64,
}

impl TraceReport {
    /// Builds the report from a finished tracer, deriving `windows`
    /// timeline windows.
    pub fn from_tracer(tracer: Tracer, windows: usize) -> Self {
        let buffer = tracer.into_buffer();
        let timeline = TimelineMetrics::derive(&buffer, windows);
        let digest = buffer.digest();
        TraceReport {
            buffer,
            timeline,
            digest,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t_ns: u64, track: TrackId, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            time: SimTime::from_ns(t_ns),
            track,
            event,
        }
    }

    #[test]
    fn bounded_buffer_accounts_drops() {
        let mut b = TraceBuffer::new(2);
        for i in 0..5 {
            b.record(rec(
                i,
                TrackId::node(0, lane::HOST),
                TraceEvent::CmdCompleted { unit: 0 },
            ));
        }
        assert_eq!(b.len(), 2);
        assert_eq!(b.dropped(), 3);
        assert_eq!(b.offered(), 5);
        // CSV rows = header + buffered records only.
        assert_eq!(b.to_csv().lines().count(), 3);
    }

    #[test]
    fn digest_is_deterministic_and_content_sensitive() {
        let mut a = TraceBuffer::new(16);
        let mut b = TraceBuffer::new(16);
        for i in 0..4 {
            let r = rec(
                i,
                TrackId::switch(1, lane::CACHE),
                TraceEvent::CacheHit { idx: i as u32 },
            );
            a.record(r);
            b.record(r);
        }
        assert_eq!(a.digest(), b.digest());
        b.record(rec(
            9,
            TrackId::link(0),
            TraceEvent::LinkTx {
                bytes: 80,
                backlog_ps: 0,
            },
        ));
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn tracer_stamps_engine_time() {
        let mut tr = Tracer::new(TraceConfig { capacity: 1 });
        let track = TrackId::node(1, lane::RIG_BASE);
        tr.record(SimTime::from_ns(3), track, TraceEvent::PrIssued { idx: 7 });
        tr.record(
            SimTime::from_ns(4),
            track,
            TraceEvent::PrResolved { idx: 7 },
        );
        let buf = tr.into_buffer();
        assert_eq!(buf.records()[0].time, SimTime::from_ns(3));
        assert_eq!((buf.len(), buf.dropped()), (1, 1));
    }

    #[test]
    fn chrome_json_has_metadata_and_instants() {
        let mut b = TraceBuffer::new(8);
        b.record(rec(
            1,
            TrackId::node(0, lane::HOST),
            TraceEvent::CmdIssued { unit: 2, idxs: 64 },
        ));
        b.record(rec(
            2,
            TrackId::link(3),
            TraceEvent::LinkTx {
                bytes: 80,
                backlog_ps: 500,
            },
        ));
        let json = b.to_chrome_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"node 0\""));
        assert!(json.contains("\"link 3\""));
        // 1 ns = 0.001 µs, printed with integer precision.
        assert!(json.contains("\"ts\":0.001000"), "{json}");
    }

    #[test]
    fn replay_tallies_every_kind() {
        let t = TrackId::node(0, lane::RIG_BASE);
        let mut b = TraceBuffer::new(32);
        b.record(rec(0, t, TraceEvent::PrIssued { idx: 1 }));
        b.record(rec(1, t, TraceEvent::FilterHit { idx: 1 }));
        b.record(rec(1, t, TraceEvent::Coalesced { idx: 2 }));
        b.record(rec(2, t, TraceEvent::PrResolved { idx: 1 }));
        b.record(rec(
            2,
            TrackId::switch(0, lane::CACHE),
            TraceEvent::CacheMiss { idx: 1 },
        ));
        b.record(rec(
            3,
            TrackId::switch(0, lane::CACHE),
            TraceEvent::CacheHit { idx: 1 },
        ));
        b.record(rec(
            3,
            TrackId::node(0, lane::CONCAT),
            TraceEvent::ConcatFlush {
                reason: FlushReason::Expired,
                prs: 5,
                wire_bytes: 152,
            },
        ));
        let c = ReplayCounters::replay(b.records());
        assert_eq!(c.prs_issued, 1);
        assert_eq!(c.prs_resolved, 1);
        assert_eq!(c.filter_hits, 1);
        assert_eq!(c.coalesced, 1);
        assert_eq!(c.cache_lookups, 2);
        assert_eq!(c.cache_hits, 1);
        assert_eq!((c.flushes, c.flushed_prs), (1, 5));
    }

    #[test]
    fn timeline_windows_partition_the_run() {
        let mut b = TraceBuffer::new(64);
        // Lookups in the first half hit, second half miss.
        for i in 0..10u64 {
            let ev = if i < 5 {
                TraceEvent::CacheHit { idx: i as u32 }
            } else {
                TraceEvent::CacheMiss { idx: i as u32 }
            };
            b.record(rec(i * 100, TrackId::switch(0, lane::CACHE), ev));
        }
        b.record(rec(
            450,
            TrackId::link(0),
            TraceEvent::LinkTx {
                bytes: 1,
                backlog_ps: 777,
            },
        ));
        let m = TimelineMetrics::derive(&b, 2);
        assert_eq!(m.windows, 2);
        assert_eq!(m.cache_hit_rate, [Some(1.0), Some(0.0)]);
        assert_eq!(m.link_backlog_high_water_ps, 777);
    }

    /// A window that holds no sample of a rate reports `None`, not 0:
    /// here the second of three windows has no lookup, no RIG decision
    /// and no flush, and the third a real 0% hit rate.
    #[test]
    fn empty_windows_have_no_rate() {
        let mut b = TraceBuffer::new(16);
        let cache = TrackId::switch(0, lane::CACHE);
        let rig = TrackId::node(0, lane::RIG_BASE);
        b.record(rec(0, cache, TraceEvent::CacheHit { idx: 1 }));
        b.record(rec(0, rig, TraceEvent::Coalesced { idx: 1 }));
        b.record(rec(0, rig, TraceEvent::PrIssued { idx: 2 }));
        b.record(rec(
            0,
            TrackId::node(0, lane::CONCAT),
            TraceEvent::ConcatFlush {
                reason: FlushReason::Full,
                prs: 4,
                wire_bytes: 134,
            },
        ));
        b.record(rec(4, rig, TraceEvent::PrResolved { idx: 2 }));
        b.record(rec(8, cache, TraceEvent::CacheMiss { idx: 3 }));
        let m = TimelineMetrics::derive(&b, 3);
        assert_eq!(m.cache_hit_rate, [Some(1.0), None, Some(0.0)]);
        assert_eq!(m.coalescing_ratio, [Some(0.5), None, None]);
        assert_eq!(m.flush_prs_mean, [Some(4.0), None, None]);
    }

    #[test]
    fn track_names_are_human_readable() {
        assert_eq!(TrackId::node(3, lane::HOST).process_name(), "node 3");
        assert_eq!(TrackId::switch(2, lane::CACHE).process_name(), "switch 2");
        assert_eq!(TrackId::link(9).process_name(), "link 9");
        assert_eq!(TrackId::cluster().process_name(), "cluster");
        assert_eq!(TrackId::node(0, lane::RIG_BASE + 2).thread_name(), "rig 2");
        assert_eq!(TrackId::node(0, lane::CONCAT).thread_name(), "concat");
    }

    #[test]
    fn human_prefix_matches_csv_rows() {
        let mut b = TraceBuffer::new(8);
        b.record(rec(
            1,
            TrackId::node(0, lane::HOST),
            TraceEvent::CmdCompleted { unit: 1 },
        ));
        b.record(rec(
            2,
            TrackId::node(0, lane::HOST),
            TraceEvent::CmdCompleted { unit: 2 },
        ));
        let prefix = b.human_prefix(1);
        assert_eq!(prefix, "1000,0,0,cmd_completed,1,0\n");
        assert!(b.to_csv().contains(&prefix));
    }
}
