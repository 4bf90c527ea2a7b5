//! The RIG (Remote Indexed Gather) client unit (paper §5.1, §5.3).
//!
//! A client RIG unit receives a coarse-grained RIG command from the host
//! (a batch of nonzero idxs), DMAs the idxs into its Idx Buffer, and then
//! processes one idx per SNIC cycle:
//!
//! 1. **local check** — idxs owned by this node need no PR,
//! 2. **coalescing** — idxs with an outstanding PR in this unit's Pending
//!    PR Table are dropped,
//! 3. **filtering** — idxs whose Idx Filter bit is set (property already
//!    fetched by any unit of this node) are dropped,
//! 4. otherwise a read PR is generated and registered in the Pending PR
//!    Table.
//!
//! The unit stalls only when its Pending PR Table is full; the pipeline
//! otherwise sustains one idx per cycle (the paper's §5.3 overlap
//! argument). The event-loop integration — *when* cycles elapse — lives in
//! the core crate; this type answers *what happens* to each idx.

use crate::filter::IdxFilter;
use crate::pending::PendingTable;
use crate::protocol::Pr;

/// What the RIG pipeline decided for one idx.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdxOutcome {
    /// The idx is owned locally; no network activity.
    Local,
    /// Dropped: the property was already fetched (Idx Filter hit).
    Filtered,
    /// Dropped: a PR for this idx is already outstanding in this unit.
    Coalesced,
    /// A read PR was issued.
    Issued(Pr),
    /// The Pending PR Table is full; the unit must stall and retry this
    /// idx after a response frees an entry.
    Stalled,
}

/// Per-unit statistics counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RigStats {
    /// Idxs that referenced locally owned properties.
    pub local: u64,
    /// Idxs dropped by the Idx Filter.
    pub filtered: u64,
    /// Idxs dropped by coalescing.
    pub coalesced: u64,
    /// Read PRs issued to the network.
    pub issued: u64,
    /// Stall occurrences (pending table full).
    pub stalls: u64,
}

/// A client-mode RIG unit.
///
/// # Example
///
/// ```
/// use netsparse_snic::{IdxFilter, RigClient, IdxOutcome};
///
/// let mut filter = IdxFilter::new(100);
/// let mut unit = RigClient::new(/*node*/ 0, /*tid*/ 3, /*pending*/ 8);
/// // idx 42 is remote and fresh: a PR is issued.
/// let out = unit.process_idx(42, false, true, true, &mut filter);
/// assert!(matches!(out, IdxOutcome::Issued(pr) if pr.idx == 42));
/// // The same idx again coalesces against the outstanding PR.
/// let out = unit.process_idx(42, false, true, true, &mut filter);
/// assert_eq!(out, IdxOutcome::Coalesced);
/// // The response lands: filter set, pending cleared.
/// unit.complete(42, &mut filter);
/// let out = unit.process_idx(42, false, true, true, &mut filter);
/// assert_eq!(out, IdxOutcome::Filtered);
/// ```
#[derive(Debug, Clone)]
pub struct RigClient {
    node: u32,
    tid: u16,
    pending: PendingTable,
    next_req_id: u32,
    stats: RigStats,
}

impl RigClient {
    /// Creates a client unit for `node`, thread id `tid`, with a pending
    /// table of `pending_entries` accepting every idx except `u32::MAX`,
    /// which the table reserves as its empty-slot key.
    pub fn new(node: u32, tid: u16, pending_entries: usize) -> Self {
        Self::build(node, tid, PendingTable::new(pending_entries))
    }

    /// Like [`RigClient::new`], but declares that every idx this unit will
    /// ever see lies in `[0, idx_domain)` (the workload's column count):
    /// the pending table ([`PendingTable::for_domain`]) panics on an
    /// insert outside it. Its size and probe cost do not depend on the
    /// domain.
    pub fn with_idx_domain(node: u32, tid: u16, pending_entries: usize, idx_domain: u32) -> Self {
        Self::build(
            node,
            tid,
            PendingTable::for_domain(pending_entries, idx_domain),
        )
    }

    fn build(node: u32, tid: u16, pending: PendingTable) -> Self {
        RigClient {
            node,
            tid,
            pending,
            next_req_id: 0,
            stats: RigStats::default(),
        }
    }

    /// The owning node.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// This unit's thread id within the SNIC.
    pub fn tid(&self) -> u16 {
        self.tid
    }

    /// Outstanding PR count.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// Whether the unit is stalled (pending table full).
    pub fn is_stalled(&self) -> bool {
        self.pending.is_full()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> RigStats {
        self.stats
    }

    /// Runs one idx through the pipeline.
    ///
    /// `is_local` marks idxs owned by this node. `coalesce_enabled` /
    /// `filter_enabled` gate the two redundancy-elimination mechanisms
    /// (ablation Table 8 disables them independently). The shared
    /// `filter` belongs to the node's SNIC.
    #[inline]
    pub fn process_idx(
        &mut self,
        idx: u32,
        is_local: bool,
        coalesce_enabled: bool,
        filter_enabled: bool,
        filter: &mut IdxFilter,
    ) -> IdxOutcome {
        if is_local {
            self.stats.local += 1;
            return IdxOutcome::Local;
        }
        if coalesce_enabled && self.pending.contains(idx) {
            self.stats.coalesced += 1;
            return IdxOutcome::Coalesced;
        }
        if filter_enabled && filter.contains(idx) {
            self.stats.filtered += 1;
            return IdxOutcome::Filtered;
        }
        // Without coalescing, a duplicate outstanding idx must still not be
        // double-inserted into the pending table; issue it as a fresh PR
        // that bypasses tracking (its response is redundant traffic, which
        // is exactly the inefficiency the mechanism exists to remove).
        if !coalesce_enabled && self.pending.contains(idx) {
            self.stats.issued += 1;
            let pr = Pr {
                src_node: self.node,
                src_tid: self.tid,
                idx,
                req_id: self.bump_req_id(),
            };
            return IdxOutcome::Issued(pr);
        }
        if !self.pending.insert(idx) {
            self.stats.stalls += 1;
            return IdxOutcome::Stalled;
        }
        self.stats.issued += 1;
        IdxOutcome::Issued(Pr {
            src_node: self.node,
            src_tid: self.tid,
            idx,
            req_id: self.bump_req_id(),
        })
    }

    /// Bulk form of [`IdxOutcome::Local`]: credits `n` locally-served
    /// idxs in one step. The driver consumes *runs* of local idxs (the
    /// overwhelmingly common case under 1-D partitioning) without
    /// entering the per-idx pipeline; each run idx still costs its one
    /// scan cycle at the call site.
    #[inline]
    pub fn tally_local(&mut self, n: u64) {
        self.stats.local += n;
    }

    /// Handles the response for `idx`: clears the pending entry (if
    /// tracked) and sets the node's Idx Filter bit.
    #[inline]
    pub fn complete(&mut self, idx: u32, filter: &mut IdxFilter) {
        if self.pending.contains(idx) {
            self.pending.remove(idx);
        }
        filter.insert(idx);
    }

    /// Abandons every outstanding PR (watchdog recovery, §7.1). Responses
    /// that later arrive for abandoned PRs are tolerated by
    /// [`RigClient::complete`].
    pub fn reset_pending(&mut self) {
        self.pending.clear();
    }

    fn bump_req_id(&mut self) -> u32 {
        let id = self.next_req_id;
        self.next_req_id = self.next_req_id.wrapping_add(1);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (RigClient, IdxFilter) {
        (RigClient::new(2, 1, 4), IdxFilter::new(1_000))
    }

    #[test]
    fn local_idxs_produce_no_pr() {
        let (mut u, mut f) = setup();
        assert_eq!(
            u.process_idx(10, true, true, true, &mut f),
            IdxOutcome::Local
        );
        assert_eq!(u.outstanding(), 0);
        assert_eq!(u.stats().local, 1);
    }

    #[test]
    fn issue_then_coalesce_then_filter() {
        let (mut u, mut f) = setup();
        assert!(matches!(
            u.process_idx(5, false, true, true, &mut f),
            IdxOutcome::Issued(_)
        ));
        assert_eq!(
            u.process_idx(5, false, true, true, &mut f),
            IdxOutcome::Coalesced
        );
        u.complete(5, &mut f);
        assert_eq!(
            u.process_idx(5, false, true, true, &mut f),
            IdxOutcome::Filtered
        );
        let s = u.stats();
        assert_eq!((s.issued, s.coalesced, s.filtered), (1, 1, 1));
    }

    #[test]
    fn stall_when_pending_full_and_recover() {
        let (mut u, mut f) = setup();
        for i in 0..4 {
            assert!(matches!(
                u.process_idx(i, false, true, true, &mut f),
                IdxOutcome::Issued(_)
            ));
        }
        assert!(u.is_stalled());
        assert_eq!(
            u.process_idx(100, false, true, true, &mut f),
            IdxOutcome::Stalled
        );
        u.complete(2, &mut f);
        assert!(matches!(
            u.process_idx(100, false, true, true, &mut f),
            IdxOutcome::Issued(_)
        ));
    }

    #[test]
    fn filtering_disabled_reissues_completed_idx() {
        let (mut u, mut f) = setup();
        u.process_idx(5, false, true, false, &mut f);
        u.complete(5, &mut f);
        // Filter bit is set, but filtering is off -> reissue.
        assert!(matches!(
            u.process_idx(5, false, true, false, &mut f),
            IdxOutcome::Issued(_)
        ));
    }

    #[test]
    fn coalescing_disabled_reissues_outstanding_idx() {
        let (mut u, mut f) = setup();
        u.process_idx(5, false, false, true, &mut f);
        // Outstanding, but coalescing off -> duplicate PR issued.
        assert!(matches!(
            u.process_idx(5, false, false, true, &mut f),
            IdxOutcome::Issued(_)
        ));
        // Only one pending entry is tracked; one completion clears it.
        assert_eq!(u.outstanding(), 1);
        u.complete(5, &mut f);
        assert_eq!(u.outstanding(), 0);
        // A second (redundant) response must not panic.
        u.complete(5, &mut f);
    }

    #[test]
    fn reset_pending_recovers_a_stalled_unit() {
        let (mut u, mut f) = setup();
        for i in 0..4 {
            u.process_idx(i, false, true, true, &mut f);
        }
        assert!(u.is_stalled());
        u.reset_pending();
        assert!(!u.is_stalled());
        assert_eq!(u.outstanding(), 0);
        // A late response for an abandoned PR must not panic.
        u.complete(0, &mut f);
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "only membership is checked, never iteration order"
    )]
    fn req_ids_are_unique_per_unit() {
        let (mut u, mut f) = setup();
        let mut ids = std::collections::HashSet::new();
        for i in 0..4 {
            if let IdxOutcome::Issued(pr) = u.process_idx(i, false, true, true, &mut f) {
                assert!(ids.insert(pr.req_id));
                assert_eq!(pr.src_node, 2);
                assert_eq!(pr.src_tid, 1);
            } else {
                panic!("expected issue");
            }
        }
    }
}
