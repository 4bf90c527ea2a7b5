//! The PR Concatenator: per-destination delay queues (paper §6.1.2), with
//! the §7.2 physical-CQ pool as an optional policy on the same core.
//!
//! A Concatenation Point (in an SNIC or a ToR switch) keeps one
//! **Concatenation Queue** (CQ) per `(destination, PR type)` pair. An
//! arriving PR is pushed into its CQ; the CQ's contents are emitted as a
//! single packet when either
//!
//! - the CQ cannot fit another PR within the MTU, or
//! - the *Expiration Time* of the CQ's first PR (entry time + a fixed
//!   `DelayCycles` budget) passes.
//!
//! Expirations are tracked by an **Expiration Queue** (EQ). In hardware
//! every PR gets the same delay budget, so CQs expire in first-PR arrival
//! order and the EQ is the paper's circular queue whose head is the only
//! candidate. The simulation processes idx batches in lumped events whose
//! emitted timestamps can interleave slightly across units, so the EQ here
//! is a small min-heap — same semantics, robust to out-of-order pushes.
//! Entries are invalidated by a generation counter when their CQ flushes
//! early (the paper's "EQ index" metadata).
//!
//! The two designs differ only in where a CQ's bytes come from. A
//! dedicated point ([`ConcatPoint::dedicated`]) gives every CQ its own MTU
//! of SRAM. A virtualized point ([`ConcatPoint::virtualized`], §7.2, see
//! [`crate::vconcat`]) links sub-MTU physical CQs from a fixed pool into
//! each CQ on demand; when the pool runs dry, the least recently touched
//! other CQ is flushed early to free its physical CQs, and a PR larger
//! than the whole pool bypasses the queues. Expired virtual CQs drain in
//! ascending `(dest, kind)` order rather than in EQ order; the virtual-CQ
//! golden traces pin that order, so changing it changes every §7.2
//! simulation.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use netsparse_desim::trace::FlushReason;
use netsparse_desim::{Histogram, SimTime};

use crate::protocol::{HeaderSpec, Pr, PrKind, PR_KINDS};
use crate::vconcat::VirtualCqConfig;

/// Configuration of one concatenation point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConcatConfig {
    /// Protocol header sizes.
    pub headers: HeaderSpec,
    /// Maximum transmission unit in bytes (paper: 1500 B).
    pub mtu: u32,
    /// Maximum time any PR waits for companions (paper: 500 SNIC cycles /
    /// 125 switch cycles).
    pub delay: SimTime,
    /// When `false`, every PR departs immediately in its own packet
    /// (the no-concatenation ablation).
    pub enabled: bool,
}

impl ConcatConfig {
    /// A disabled concatenation point (one PR per packet).
    pub fn disabled(headers: HeaderSpec) -> Self {
        ConcatConfig {
            headers,
            mtu: 1_500,
            delay: SimTime::ZERO,
            enabled: false,
        }
    }
}

/// A packet emitted by a concatenation point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConcatPacket {
    /// Destination node of every PR inside.
    pub dest: u32,
    /// PR type of every PR inside.
    pub kind: PrKind,
    /// Property payload bytes carried per PR (0 for reads).
    pub payload_per_pr: u32,
    /// The concatenated PRs.
    pub prs: Vec<Pr>,
    /// Total wire bytes (upper + concat headers + per-PR headers +
    /// payloads).
    pub wire_bytes: u64,
    /// Why the point sealed the packet. A degraded-mode singleton
    /// ([`ConcatPoint::degraded_singleton`]) carries
    /// [`FlushReason::Bypass`]: it never entered a queue.
    pub reason: FlushReason,
    /// Degraded-mode marker: emitted by a node whose watchdog retry budget
    /// ran out. Switches forward such packets verbatim — no property-cache
    /// probe, no reconcatenation — so delivery no longer depends on the
    /// NetSparse extensions that kept failing (e.g. a dead rack switch on
    /// the cached path).
    pub degraded: bool,
}

#[derive(Debug, Default)]
struct Cq {
    prs: Vec<Pr>,
    payload_per_pr: u32,
    /// PRs of `payload_per_pr` bytes that fit an MTU, set at the CQ's
    /// first PR (its payload is fixed while it fills).
    max_prs: u32,
    generation: u64,
}

/// Most emptied PR buffers a concatenation point keeps for reuse; beyond
/// this, returned buffers are simply dropped.
const SPARE_CAP: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EqEntry {
    expires: SimTime,
    seq: u64,
    slot: usize,
    generation: u64,
}

/// A virtual CQ's claim on the §7.2 pool.
#[derive(Debug, Clone, Copy, Default)]
struct Share {
    /// Physical CQs linked into this virtual CQ.
    physical: usize,
    /// When a PR last entered it (unique per push, for LRU eviction).
    last_touch: u64,
}

/// The §7.2 physical-CQ pool, kept apart from the CQ slab so a dedicated
/// point's CQs carry none of it.
#[derive(Debug)]
struct Pool {
    cfg: VirtualCqConfig,
    free: usize,
    touch: u64,
    /// Per slab slot, parallel to the CQs.
    shares: Vec<Share>,
}

/// A concatenation point: CQs plus the expiration queue, optionally backed
/// by a §7.2 physical-CQ pool.
///
/// CQ storage is a dense slab indexed by `dest * PR_KINDS + kind` (the
/// id-space contract: destinations are dense node ids assigned by the
/// cluster, so the slab is at most `PR_KINDS * nodes` small structs).
/// Slot order is destination ascending, [`PrKind::Read`] before
/// [`PrKind::Response`] before [`PrKind::Partial`]; drains follow it.
/// An idle CQ holds no buffer: a flush hands its buffer to the packet,
/// and the CQ's next first PR takes the most recently recycled one
/// ([`ConcatPoint::recycle`]), so buffers rotate through a spare pool
/// instead of being reallocated per packet, and only CQs that hold PRs
/// hold memory.
///
/// # Example
///
/// ```
/// use netsparse_snic::vconcat::VirtualCqConfig;
/// use netsparse_snic::{ConcatConfig, ConcatPoint, HeaderSpec, Pr, PrKind};
/// use netsparse_desim::SimTime;
///
/// let cfg = ConcatConfig {
///     headers: HeaderSpec::paper(),
///     mtu: 1_500,
///     delay: SimTime::from_ns(200),
///     enabled: true,
/// };
/// let pr = |i| Pr { src_node: 0, src_tid: 0, idx: i, req_id: i };
/// let t0 = SimTime::ZERO;
/// for mut c in [
///     ConcatPoint::dedicated(cfg),
///     ConcatPoint::virtualized(cfg, VirtualCqConfig::paper_sketch()),
/// ] {
///     assert!(c.push(t0, 7, PrKind::Read, pr(1), 0).is_empty()); // waits
///     assert!(c.push(t0, 7, PrKind::Read, pr(2), 0).is_empty()); // same CQ
///     // Nothing expired yet...
///     assert!(c.flush_expired(t0).is_empty());
///     // ...but 200 ns later the CQ expires as one 2-PR packet.
///     let pkts = c.flush_expired(SimTime::from_ns(200));
///     assert_eq!(pkts.len(), 1);
///     assert_eq!(pkts[0].prs.len(), 2);
/// }
/// ```
#[derive(Debug)]
pub struct ConcatPoint {
    cfg: ConcatConfig,
    queues: Vec<Cq>,
    spare: Vec<Vec<Pr>>,
    eq: BinaryHeap<Reverse<EqEntry>>,
    eq_seq: u64,
    /// Scratch for the slots one expiry flush seals, reused across calls.
    expired: Vec<usize>,
    pool: Option<Pool>,
    prs_per_packet: Histogram,
}

/// The slab slot of a `(dest, kind)` CQ: destinations are dense ids, so
/// each gets [`PR_KINDS`] adjacent slots (read, response, partial).
#[inline]
fn slot(dest: u32, kind: PrKind) -> usize {
    dest as usize * PR_KINDS + kind as usize
}

/// The `(dest, kind)` a slab slot holds.
#[inline]
fn unslot(slot: usize) -> (u32, PrKind) {
    let kind = match slot % PR_KINDS {
        0 => PrKind::Read,
        1 => PrKind::Response,
        _ => PrKind::Partial,
    };
    ((slot / PR_KINDS) as u32, kind)
}

impl ConcatPoint {
    /// An empty point with one MTU-sized CQ per `(destination, type)`
    /// pair (§6.1.2).
    #[must_use]
    pub fn dedicated(cfg: ConcatConfig) -> Self {
        Self::new(cfg, None)
    }

    /// An empty point whose CQs draw sub-MTU physical CQs from `pool`
    /// (§7.2), all of them free.
    ///
    /// # Panics
    ///
    /// Panics if the pool is empty or a physical CQ is larger than the MTU.
    #[must_use]
    pub fn virtualized(cfg: ConcatConfig, pool: VirtualCqConfig) -> Self {
        assert!(pool.physical_queues > 0, "pool needs at least one CQ");
        assert!(
            pool.physical_bytes > 0 && pool.physical_bytes <= cfg.mtu,
            "physical CQs must be sub-MTU"
        );
        Self::new(cfg, Some(pool))
    }

    fn new(cfg: ConcatConfig, pool: Option<VirtualCqConfig>) -> Self {
        let pool = pool.map(|pool| Pool {
            cfg: pool,
            free: pool.physical_queues,
            touch: 0,
            shares: Vec::new(),
        });
        ConcatPoint {
            cfg,
            queues: Vec::new(),
            spare: Vec::new(),
            eq: BinaryHeap::new(),
            eq_seq: 0,
            expired: Vec::new(),
            pool,
            prs_per_packet: Histogram::new(),
        }
    }

    /// Donates an emptied PR buffer (a consumed packet's `prs`) back to
    /// the spare pool, so the next CQ to take its first PR (or the next
    /// bypassing PR) reuses its capacity.
    #[inline]
    pub fn recycle(&mut self, mut prs: Vec<Pr>) {
        if self.spare.len() < SPARE_CAP {
            prs.clear();
            self.spare.push(prs);
        }
    }

    /// Builds a degraded-mode singleton (§7.1): `pr` alone in a packet
    /// that bypasses every concatenation queue and that switches forward
    /// verbatim. Its buffer comes from the spare pool, as a CQ's does; the
    /// packet is neither queued nor counted in
    /// [`ConcatPoint::prs_per_packet`].
    pub fn degraded_singleton(
        &mut self,
        dest: u32,
        kind: PrKind,
        pr: Pr,
        payload: u32,
    ) -> ConcatPacket {
        let mut prs = self.spare.pop().unwrap_or_default();
        prs.push(pr);
        ConcatPacket {
            dest,
            kind,
            payload_per_pr: payload,
            wire_bytes: self.cfg.headers.packet_bytes(1, payload),
            prs,
            reason: FlushReason::Bypass,
            degraded: true,
        }
    }

    /// Pushes a PR bound for `dest`, handing every packet the push seals
    /// to `sink`: the CQ's own MTU-full emission and, on a virtualized
    /// point, CQs flushed under pool pressure. This is the zero-allocation
    /// event-path entry point.
    ///
    /// `payload_bytes` is the property payload this PR will carry (0 for
    /// read PRs); all PRs in one CQ must carry equal payloads (the
    /// concatenation-layer header holds a single property length).
    ///
    /// # Panics
    ///
    /// Panics if `payload_bytes` differs from PRs already queued for the
    /// same `(dest, kind)`.
    pub fn push_with(
        &mut self,
        now: SimTime,
        dest: u32,
        kind: PrKind,
        pr: Pr,
        payload_bytes: u32,
        mut sink: impl FnMut(ConcatPacket),
    ) {
        let pr_bytes = self.cfg.headers.pr + payload_bytes;
        // A PR the whole pool cannot hold can never concatenate (a
        // dedicated CQ always admits one: `prs_per_mtu` is at least 1).
        let oversized = self
            .pool
            .as_ref()
            .is_some_and(|pool| pr_bytes as u64 > pool.cfg.sram_bytes());
        if !self.cfg.enabled || oversized {
            let mut prs = self.spare.pop().unwrap_or_default();
            prs.push(pr);
            sink(self.emit(dest, kind, prs, payload_bytes, FlushReason::Bypass));
            return;
        }
        let slot = slot(dest, kind);
        if slot >= self.queues.len() {
            // First PR for this destination: grow the slab (amortized
            // once per destination over the whole run, then reused).
            self.queues.resize_with(slot + 1, Cq::default);
            if let Some(pool) = &mut self.pool {
                pool.shares.resize(slot + 1, Share::default());
            }
        }
        let cq = &self.queues[slot];
        if !cq.prs.is_empty() {
            assert_eq!(
                cq.payload_per_pr, payload_bytes,
                "mixed payload sizes in one concatenation queue"
            );
            // Flush first if this PR does not fit.
            if cq.prs.len() as u32 >= cq.max_prs {
                if let Some(p) = self.flush_slot(slot, FlushReason::Full) {
                    sink(p);
                }
            }
        }
        self.claim_physical(slot, pr_bytes, &mut sink);
        let cq = &mut self.queues[slot];
        if cq.prs.is_empty() {
            // First PR of a (new) CQ, which holds no buffer: take the most
            // recently recycled one, fix the CQ's payload and PR count, and
            // arm its expiration. A dedicated CQ owns a full MTU, so size
            // its buffer for one up front (no doubling reallocs mid-fill);
            // a virtual CQ's grows as needed.
            cq.prs = self.spare.pop().unwrap_or_default();
            cq.payload_per_pr = payload_bytes;
            cq.max_prs = self.cfg.headers.prs_per_mtu(self.cfg.mtu, payload_bytes);
            if self.pool.is_none() {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "allocates unless the buffer taken has room for a full MTU of PRs"
                )]
                cq.prs.reserve(cq.max_prs as usize);
            }
            self.eq.push(Reverse(EqEntry {
                expires: now + self.cfg.delay,
                seq: self.eq_seq,
                slot,
                generation: cq.generation,
            }));
            self.eq_seq += 1;
        }
        cq.prs.push(pr);
    }

    /// Pushes a PR; returns every packet the push sealed (see
    /// [`ConcatPoint::push_with`]).
    pub fn push(
        &mut self,
        now: SimTime,
        dest: u32,
        kind: PrKind,
        pr: Pr,
        payload_bytes: u32,
    ) -> Vec<ConcatPacket> {
        let mut out = Vec::new();
        self.push_with(now, dest, kind, pr, payload_bytes, |p| out.push(p));
        out
    }

    /// The §7.2 policy (a no-op on a dedicated point): link physical CQs
    /// into the CQ at `slot` until it can hold one more PR of `pr_bytes`.
    /// When the pool is dry, flush the least recently touched other CQ
    /// (touches are unique, so the choice does not depend on scan order),
    /// or this one if no other holds any.
    fn claim_physical(&mut self, slot: usize, pr_bytes: u32, sink: &mut impl FnMut(ConcatPacket)) {
        loop {
            let Some(pool) = &mut self.pool else { return };
            // Every PR in a CQ carries the same payload (asserted on push).
            let needed = (self.queues[slot].prs.len() as u64 + 1) * pr_bytes as u64;
            let share = &mut pool.shares[slot];
            if needed <= share.physical as u64 * pool.cfg.physical_bytes as u64 {
                pool.touch += 1;
                share.last_touch = pool.touch;
                return;
            }
            if pool.free > 0 {
                pool.free -= 1;
                share.physical += 1;
                continue;
            }
            let victim = pool
                .shares
                .iter()
                .zip(&self.queues)
                .enumerate()
                .filter(|&(s, (_, cq))| s != slot && !cq.prs.is_empty())
                .min_by_key(|(_, (share, _))| share.last_touch)
                .map_or(slot, |(s, _)| s);
            if let Some(p) = self.flush_slot(victim, FlushReason::Pressure) {
                sink(p);
            }
        }
    }

    /// Whether `e` still describes its CQ's current contents.
    fn live(&self, e: &EqEntry) -> bool {
        let cq = &self.queues[e.slot];
        cq.generation == e.generation && !cq.prs.is_empty()
    }

    /// The earliest pending expiration, if any (stale entries are
    /// discarded on the way).
    pub fn next_expiry(&mut self) -> Option<SimTime> {
        while let Some(&Reverse(head)) = self.eq.peek() {
            if self.live(&head) {
                return Some(head.expires);
            }
            self.eq.pop();
        }
        None
    }

    /// Flushes every CQ whose expiration time has passed, handing each
    /// emitted packet to `sink`: in expiry order on a dedicated point, in
    /// ascending `(dest, kind)` order on a virtualized one. This is the
    /// event-path entry point: the caller owns the output buffer, so the
    /// flush itself allocates nothing.
    pub fn flush_expired_with(&mut self, now: SimTime, mut sink: impl FnMut(ConcatPacket)) {
        let mut expired = std::mem::take(&mut self.expired);
        while let Some(&Reverse(head)) = self.eq.peek() {
            if head.expires > now {
                break;
            }
            self.eq.pop();
            if self.live(&head) {
                expired.push(head.slot);
            }
        }
        if self.pool.is_some() {
            expired.sort_unstable();
        }
        for slot in expired.drain(..) {
            if let Some(p) = self.flush_slot(slot, FlushReason::Expired) {
                sink(p);
            }
        }
        self.expired = expired;
    }

    /// Flushes every CQ whose expiration time has passed.
    pub fn flush_expired(&mut self, now: SimTime) -> Vec<ConcatPacket> {
        let mut out = Vec::new();
        self.flush_expired_with(now, |p| out.push(p));
        out
    }

    /// Flushes every non-empty CQ regardless of expiry (drain at kernel
    /// end), in slot order.
    pub fn flush_all(&mut self) -> Vec<ConcatPacket> {
        let mut out = Vec::new();
        for slot in 0..self.queues.len() {
            out.extend(self.flush_slot(slot, FlushReason::Drained));
        }
        out
    }

    /// Total PRs currently waiting across all CQs (must be zero once a
    /// run drains; checked by the runtime auditor).
    #[must_use]
    pub fn queued_prs(&self) -> usize {
        self.queues.iter().map(|cq| cq.prs.len()).sum()
    }

    /// Distribution of PRs per emitted packet.
    #[must_use]
    pub fn prs_per_packet(&self) -> &Histogram {
        &self.prs_per_packet
    }

    /// Physical CQs currently unassigned (`None` on a dedicated point).
    #[must_use]
    pub fn free_physical(&self) -> Option<usize> {
        self.pool.as_ref().map(|pool| pool.free)
    }

    /// Seals the CQ at `slot` if it holds any PR, handing its buffer to
    /// the packet (the CQ is left with none), returning its physical CQs
    /// to the pool and invalidating its EQ entry.
    fn flush_slot(&mut self, slot: usize, reason: FlushReason) -> Option<ConcatPacket> {
        let cq = &mut self.queues[slot];
        if cq.prs.is_empty() {
            return None;
        }
        let prs = std::mem::take(&mut cq.prs);
        let payload = cq.payload_per_pr;
        cq.generation += 1;
        if let Some(pool) = &mut self.pool {
            pool.free += std::mem::take(&mut pool.shares[slot].physical);
        }
        let (dest, kind) = unslot(slot);
        Some(self.emit(dest, kind, prs, payload, reason))
    }

    fn emit(
        &mut self,
        dest: u32,
        kind: PrKind,
        prs: Vec<Pr>,
        payload: u32,
        reason: FlushReason,
    ) -> ConcatPacket {
        debug_assert!(!prs.is_empty());
        let wire_bytes = self.cfg.headers.packet_bytes(prs.len() as u32, payload);
        self.prs_per_packet.record(prs.len() as u64);
        ConcatPacket {
            dest,
            kind,
            payload_per_pr: payload,
            prs,
            wire_bytes,
            reason,
            degraded: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(delay_ns: u64) -> ConcatConfig {
        ConcatConfig {
            headers: HeaderSpec::paper(),
            mtu: 1_500,
            delay: SimTime::from_ns(delay_ns),
            enabled: true,
        }
    }

    /// Both designs over `cfg`; the virtual pool is ample, so it never
    /// runs dry in these cases.
    fn points(cfg: ConcatConfig) -> [ConcatPoint; 2] {
        [
            ConcatPoint::dedicated(cfg),
            ConcatPoint::virtualized(cfg, VirtualCqConfig::paper_sketch()),
        ]
    }

    fn pr(idx: u32) -> Pr {
        Pr {
            src_node: 1,
            src_tid: 0,
            idx,
            req_id: idx,
        }
    }

    #[test]
    fn disabled_mode_emits_singletons() {
        for mut c in points(ConcatConfig::disabled(HeaderSpec::paper())) {
            let out = c.push(SimTime::ZERO, 5, PrKind::Read, pr(1), 0);
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].prs.len(), 1);
            assert_eq!(out[0].wire_bytes, 80);
            assert_eq!(c.queued_prs(), 0);
            assert_eq!(c.next_expiry(), None);
        }
    }

    #[test]
    fn mtu_full_flushes() {
        for mut c in points(cfg(1_000_000)) {
            // Read PRs (payload 0): (1500 - 62) / 18 = 79 PRs per MTU.
            let cap = HeaderSpec::paper().prs_per_mtu(1_500, 0);
            let mut flushed = None;
            for i in 0..=cap {
                let out = c.push(SimTime::ZERO, 2, PrKind::Read, pr(i), 0);
                if let Some(p) = out.into_iter().next() {
                    flushed = Some((i, p));
                }
            }
            let (at, p) = flushed.expect("must flush when MTU exceeded");
            assert_eq!(at, cap);
            assert_eq!(p.prs.len(), cap as usize);
            assert!(p.wire_bytes <= 1_500);
            // The overflowing PR starts a fresh CQ.
            assert_eq!(c.queued_prs(), 1);
        }
    }

    #[test]
    fn expiry_uses_first_pr_entry_time() {
        for mut c in points(cfg(100)) {
            c.push(SimTime::from_ns(10), 3, PrKind::Read, pr(1), 0);
            c.push(SimTime::from_ns(90), 3, PrKind::Read, pr(2), 0);
            assert_eq!(c.next_expiry(), Some(SimTime::from_ns(110)));
            assert!(c.flush_expired(SimTime::from_ns(109)).is_empty());
            let pkts = c.flush_expired(SimTime::from_ns(110));
            assert_eq!(pkts.len(), 1);
            assert_eq!(pkts[0].prs.len(), 2);
            assert_eq!(c.next_expiry(), None);
            assert_eq!(c.prs_per_packet().count(), 1);
        }
    }

    #[test]
    fn different_destinations_do_not_mix() {
        for mut c in points(cfg(50)) {
            c.push(SimTime::ZERO, 1, PrKind::Read, pr(1), 0);
            c.push(SimTime::ZERO, 2, PrKind::Read, pr(2), 0);
            let pkts = c.flush_expired(SimTime::from_ns(50));
            assert_eq!(pkts.len(), 2);
            assert!(pkts.iter().all(|p| p.prs.len() == 1));
        }
    }

    #[test]
    fn reads_and_responses_do_not_mix() {
        for mut c in points(cfg(50)) {
            c.push(SimTime::ZERO, 1, PrKind::Read, pr(1), 0);
            c.push(SimTime::ZERO, 1, PrKind::Response, pr(2), 64);
            let pkts = c.flush_expired(SimTime::from_ns(50));
            assert_eq!(pkts.len(), 2);
            let kinds: Vec<_> = pkts.iter().map(|p| p.kind).collect();
            assert!(kinds.contains(&PrKind::Read) && kinds.contains(&PrKind::Response));
        }
    }

    #[test]
    fn alternating_payload_sizes_fill_each_cq_to_its_own_mtu() {
        let h = HeaderSpec::paper();
        for mut c in points(cfg(1_000_000)) {
            let mut sealed = Vec::new();
            for i in 0..200 {
                sealed.extend(c.push(SimTime::ZERO, 1, PrKind::Read, pr(i), 0));
                sealed.extend(c.push(SimTime::ZERO, 2, PrKind::Response, pr(i), 64));
            }
            // 79 reads or 17 responses of 64 B fill a 1,500 B MTU.
            for p in &sealed {
                assert_eq!(p.prs.len() as u32, h.prs_per_mtu(1_500, p.payload_per_pr));
            }
            let count = |kind| sealed.iter().filter(|p| p.kind == kind).count();
            assert_eq!((count(PrKind::Read), count(PrKind::Response)), (2, 11));
        }
    }

    #[test]
    fn refilled_cq_seals_at_its_new_payload_count() {
        let h = HeaderSpec::paper();
        let (n64, n8) = (h.prs_per_mtu(1_500, 64), h.prs_per_mtu(1_500, 8));
        for mut c in points(cfg(1_000_000)) {
            // One response CQ fills at 64 B per PR, drains, then at 8 B.
            let mut sealed = Vec::new();
            for (payload, n) in [(64, n64), (8, n8)] {
                for i in 0..=n {
                    sealed.extend(c.push(SimTime::ZERO, 2, PrKind::Response, pr(i), payload));
                }
                sealed.extend(c.flush_all());
            }
            let seen: Vec<(u32, u32)> = sealed
                .iter()
                .map(|p| (p.payload_per_pr, p.prs.len() as u32))
                .collect();
            assert_eq!(seen, [(64, n64), (64, 1), (8, n8), (8, 1)]);
        }
    }

    #[test]
    fn flushed_cq_holds_no_buffer_until_its_next_first_pr() {
        for mut c in points(cfg(100)) {
            let s = slot(3, PrKind::Read);
            c.push(SimTime::ZERO, 3, PrKind::Read, pr(1), 0);
            assert!(c.queues[s].prs.capacity() > 0);
            // A spare waits in the pool while the CQ flushes; it stays there.
            c.recycle(Vec::with_capacity(128));
            let sealed = c.flush_expired(SimTime::from_ns(100)).remove(0);
            assert_eq!(
                c.queues[s].prs.capacity(),
                0,
                "a flushed CQ keeps no buffer"
            );
            assert_eq!(c.spare.len(), 1);
            // Two more buffers come back; the next first PR takes the last.
            let latest: Vec<Pr> = Vec::with_capacity(128);
            let latest_at = latest.as_ptr();
            c.recycle(sealed.prs);
            c.recycle(latest);
            c.push(SimTime::from_ns(200), 3, PrKind::Read, pr(2), 0);
            assert_eq!(c.queues[s].prs.as_ptr(), latest_at);
            assert_eq!(c.spare.len(), 2);
            assert_eq!(c.queued_prs(), 1);
        }
    }

    #[test]
    fn early_flush_invalidates_eq_entry() {
        for mut c in points(cfg(1_000)) {
            let cap = HeaderSpec::paper().prs_per_mtu(1_500, 0);
            for i in 0..=cap {
                c.push(SimTime::ZERO, 4, PrKind::Read, pr(i), 0);
            }
            // The original CQ flushed early; its EQ entry must not
            // re-flush. The overflow PR re-armed a fresh entry at the same
            // expiry time.
            let pkts = c.flush_expired(SimTime::from_us(10));
            assert_eq!(pkts.len(), 1);
            assert_eq!(pkts[0].prs.len(), 1);
        }
    }

    #[test]
    fn flush_all_drains_everything() {
        for mut c in points(cfg(1_000)) {
            c.push(SimTime::ZERO, 2, PrKind::Response, pr(2), 4);
            c.push(SimTime::ZERO, 1, PrKind::Read, pr(1), 0);
            let pkts = c.flush_all();
            // Slot order: destination ascending.
            let dests: Vec<u32> = pkts.iter().map(|p| p.dest).collect();
            assert_eq!(dests, [1, 2]);
            assert_eq!(c.queued_prs(), 0);
            assert_eq!(c.prs_per_packet().count(), 2);
            assert_eq!(c.next_expiry(), None);
        }
    }

    #[test]
    fn wire_bytes_account_shared_headers() {
        for mut c in points(cfg(10)) {
            for i in 0..5 {
                c.push(SimTime::ZERO, 1, PrKind::Response, pr(i), 64);
            }
            let pkts = c.flush_expired(SimTime::from_ns(10));
            assert_eq!(pkts[0].wire_bytes, 62 + 5 * (18 + 64));
            assert_eq!(c.prs_per_packet().mean(), 5.0);
        }
    }

    #[test]
    fn degraded_singleton_bypasses_queues() {
        let headers = HeaderSpec::paper();
        for mut c in points(cfg(10)) {
            let spare: Vec<Pr> = Vec::with_capacity(8);
            let spare_at = spare.as_ptr();
            c.recycle(spare);
            let p = c.degraded_singleton(9, PrKind::Response, pr(3), 64);
            assert!(p.degraded);
            assert_eq!((p.dest, p.reason), (9, FlushReason::Bypass));
            assert_eq!(p.prs, [pr(3)]);
            assert_eq!(p.prs.as_ptr(), spare_at, "the spare buffer carries it");
            // Same wire cost as a disabled-concat singleton of equal payload.
            assert_eq!(p.wire_bytes, headers.packet_bytes(1, 64));
            // Neither queued nor counted as a concatenated packet.
            assert_eq!((c.queued_prs(), c.prs_per_packet().count()), (0, 0));
            assert_eq!(c.next_expiry(), None);
            // With no spare left, it gets a fresh buffer.
            assert_eq!(c.degraded_singleton(9, PrKind::Read, pr(4), 0).prs, [pr(4)]);
            // Normal concatenator output is never flagged degraded.
            assert!(c.push(SimTime::ZERO, 1, PrKind::Read, pr(1), 0).is_empty());
            assert!(c.flush_all().iter().all(|p| !p.degraded));
        }
    }

    /// Every packet names why it was sealed: a bypass when concatenation
    /// is off or the PR outgrows the whole pool, a full MTU, pool
    /// pressure on a virtual point, an expiry and a drain.
    #[test]
    fn each_packet_carries_its_seal_reason() {
        use FlushReason::{Bypass, Drained, Expired, Full, Pressure};
        let reasons = |pkts: Vec<ConcatPacket>| -> Vec<FlushReason> {
            pkts.into_iter().map(|p| p.reason).collect()
        };
        for mut c in points(ConcatConfig::disabled(HeaderSpec::paper())) {
            assert_eq!(
                reasons(c.push(SimTime::ZERO, 1, PrKind::Read, pr(1), 0)),
                [Bypass]
            );
        }
        // One 64 B physical CQ cannot hold a 64 B property plus its header.
        let tiny = VirtualCqConfig {
            physical_queues: 1,
            physical_bytes: 64,
        };
        let mut c = ConcatPoint::virtualized(cfg(100), tiny);
        let oversized = c.push(SimTime::ZERO, 1, PrKind::Response, pr(1), 64);
        assert_eq!(reasons(oversized), [Bypass]);
        // The pool's one CQ holds dest 1's read; dest 2's evicts it.
        assert!(c.push(SimTime::ZERO, 1, PrKind::Read, pr(2), 0).is_empty());
        assert_eq!(
            reasons(c.push(SimTime::ZERO, 2, PrKind::Read, pr(3), 0)),
            [Pressure]
        );
        for mut c in points(cfg(100)) {
            let cap = HeaderSpec::paper().prs_per_mtu(1_500, 0);
            let mut sealed = Vec::new();
            for i in 0..=cap {
                sealed.extend(c.push(SimTime::ZERO, 1, PrKind::Read, pr(i), 0));
            }
            sealed.extend(c.flush_expired(SimTime::from_ns(100)));
            c.push(SimTime::from_ns(100), 2, PrKind::Read, pr(0), 0);
            sealed.extend(c.flush_all());
            assert_eq!(reasons(sealed), [Full, Expired, Drained]);
        }
    }

    fn push_mixed_payloads(mut c: ConcatPoint) {
        c.push(SimTime::ZERO, 1, PrKind::Response, pr(1), 64);
        c.push(SimTime::ZERO, 1, PrKind::Response, pr(2), 128);
    }

    #[test]
    #[should_panic(expected = "mixed payload sizes")]
    fn mixed_payloads_rejected() {
        push_mixed_payloads(ConcatPoint::dedicated(cfg(10)));
    }

    #[test]
    #[should_panic(expected = "mixed payload sizes")]
    fn mixed_payloads_rejected_by_virtual_cqs() {
        push_mixed_payloads(ConcatPoint::virtualized(
            cfg(10),
            VirtualCqConfig::paper_sketch(),
        ));
    }
}
