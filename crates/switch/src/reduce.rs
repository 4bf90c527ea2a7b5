//! In-network reduction: the switch-side partial-sum table.
//!
//! The reduction extension (SwitchML/Flare-style, the scatter-side dual
//! of NetSparse's gather mechanisms) lets edge switches merge
//! [`PrKind::Partial`] contribution PRs heading for the same output row
//! before forwarding them toward the row's owner (the *root*). A
//! [`ReduceTable`] holds one in-flight partial sum per `(row)` key: the
//! first contribution for a row allocates an entry and starts its
//! aggregation window; later contributions fold in (wrapping value sum,
//! plain contribution count) without emitting anything; when the window
//! expires the entry leaves as a single merged Partial PR. The table is
//! capacity-bounded — contributions arriving while it is full bypass
//! merging and forward unchanged, so reduction degrades to plain
//! forwarding under pressure and never loses a contribution.
//!
//! The cluster runs a Partial through the table of its source ToR and,
//! when the root sits in another rack, through the table of the root's
//! ToR as well, where PRs merged upstream fold again. A PR may so carry
//! several contributions; the table folds it as one PR and adds its
//! count, and [`ReduceStats`] counts PRs per table, not contributions.
//!
//! Like every other hardware model in this crate the table is a pure
//! state machine: the rack component of the event loop (`netsparse::sim`)
//! folds partials into it in its middle pipes and owns all scheduling.

use netsparse_desim::SimTime;
use netsparse_snic::{Pr, PrKind};
use std::collections::VecDeque;

/// One in-flight partial sum.
#[derive(Debug, Clone, Copy)]
struct ReduceEntry {
    /// Output row (property index) being reduced.
    row: u32,
    /// Root node the merged PR will be forwarded to.
    root: u32,
    /// Original contributions folded in so far.
    contribs: u32,
    /// Wrapping sum of the folded contribution values.
    value: u32,
    /// When the aggregation window closes.
    deadline: SimTime,
}

/// Running counters of one table (folded into `SimReport`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReduceStats {
    /// Partial PRs folded into an existing entry (each one a PR that did
    /// not travel further on its own), however many contributions each
    /// carried.
    pub merged: u64,
    /// Entries allocated (first Partial PR for a row).
    pub allocated: u64,
    /// Merged PRs emitted by window expiry or final drain.
    pub flushed: u64,
    /// Partial PRs passed on unmerged because the table was full (or a
    /// count would have overflowed the PR-layer field).
    pub bypassed: u64,
}

/// A capacity-bounded partial-sum table keyed by output row.
///
/// Entries are indexed by a sorted row list (binary search; the table is
/// small and fixed-capacity, so inserts shift at most `capacity` slots
/// and the structure never allocates after construction). Aggregation
/// windows close in arrival order — event time is monotone, so the
/// deadline queue is FIFO, mirroring the concatenator's EQ.
///
/// # Example
///
/// ```
/// use netsparse_switch::reduce::ReduceTable;
/// use netsparse_snic::{Pr, PrKind};
/// use netsparse_desim::SimTime;
///
/// let mut t = ReduceTable::new(16, SimTime::from_ns(100));
/// let a = Pr::partial(0, 7, 1, 10);
/// let b = Pr::partial(1, 7, 1, 20);
/// assert!(t.absorb(SimTime::ZERO, 5, a).is_none()); // allocates
/// assert!(t.absorb(SimTime::ZERO, 5, b).is_none()); // merges
/// assert_eq!(t.next_expiry(), Some(SimTime::from_ns(100)));
/// let mut out = Vec::new();
/// t.flush_expired_with(SimTime::from_ns(100), |root, pr| out.push((root, pr)));
/// assert_eq!(out, vec![(5, Pr::partial(5, 7, 2, 30))]);
/// ```
#[derive(Debug)]
pub struct ReduceTable {
    /// Maximum simultaneous entries.
    capacity: usize,
    /// Aggregation window per entry.
    window: SimTime,
    /// Entries sorted by `row` (unique keys).
    entries: Vec<ReduceEntry>,
    /// Rows in deadline order (deadlines are monotone in arrival order).
    expiry: VecDeque<u32>,
    stats: ReduceStats,
}

impl ReduceTable {
    /// An empty table of `capacity` entries with the given aggregation
    /// window. All storage is preallocated; the event path never grows it.
    #[must_use]
    #[expect(
        clippy::disallowed_methods,
        reason = "preallocates the table once, at build time"
    )]
    pub fn new(capacity: usize, window: SimTime) -> Self {
        ReduceTable {
            capacity,
            window,
            entries: Vec::with_capacity(capacity),
            expiry: VecDeque::with_capacity(capacity),
            stats: ReduceStats::default(),
        }
    }

    /// Running counters.
    #[must_use]
    pub fn stats(&self) -> ReduceStats {
        self.stats
    }

    /// Partial sums currently in flight (must be zero once a run drains;
    /// checked by the runtime auditor).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.entries.len()
    }

    /// Folds one contribution into the table. Returns the PR back when it
    /// must travel on unmerged: the table is full and `pr.idx` has no
    /// entry, or folding would overflow the PR-layer contribution count.
    /// `root` is the node the merged PR will eventually be forwarded to
    /// (the owner of `pr.idx`); contributions for one row always share it.
    pub fn absorb(&mut self, now: SimTime, root: u32, pr: Pr) -> Option<Pr> {
        debug_assert!(pr.partial_contribs() > 0, "a Partial PR carries >= 1");
        match self.entries.binary_search_by_key(&pr.idx, |e| e.row) {
            Ok(i) => {
                let e = &mut self.entries[i];
                debug_assert_eq!(e.root, root, "one row has one root");
                let folded = e.contribs as u64 + pr.partial_contribs();
                if folded > u16::MAX as u64 {
                    // The merged count must still fit the PR layer when
                    // the entry flushes; never silently saturate.
                    self.stats.bypassed += 1;
                    return Some(pr);
                }
                e.contribs = folded as u32;
                e.value = e.value.wrapping_add(pr.partial_value());
                self.stats.merged += 1;
                None
            }
            Err(i) => {
                if self.entries.len() >= self.capacity {
                    self.stats.bypassed += 1;
                    return Some(pr);
                }
                self.entries.insert(
                    i,
                    ReduceEntry {
                        row: pr.idx,
                        root,
                        contribs: pr.partial_contribs() as u32,
                        value: pr.partial_value(),
                        deadline: now + self.window,
                    },
                );
                self.expiry.push_back(pr.idx);
                self.stats.allocated += 1;
                None
            }
        }
    }

    /// The earliest aggregation-window close, if any entry is in flight.
    #[must_use]
    pub fn next_expiry(&self) -> Option<SimTime> {
        let row = *self.expiry.front()?;
        match self.entries.binary_search_by_key(&row, |e| e.row) {
            Ok(i) => Some(self.entries[i].deadline),
            #[expect(
                clippy::unreachable,
                reason = "every queued row has a live entry (1:1 by construction)"
            )]
            Err(_) => unreachable!("expiry queue references a missing entry"),
        }
    }

    /// Emits every entry whose window has closed, in arrival order, as
    /// `(root, merged Partial PR)` pairs handed to `sink`. Zero-allocation
    /// event-path entry point.
    pub fn flush_expired_with(&mut self, now: SimTime, mut sink: impl FnMut(u32, Pr)) {
        while let Some(&row) = self.expiry.front() {
            #[expect(
                clippy::unreachable,
                reason = "every queued row has a live entry (1:1 by construction)"
            )]
            let Ok(i) = self.entries.binary_search_by_key(&row, |e| e.row) else {
                unreachable!("expiry queue references a missing entry");
            };
            if self.entries[i].deadline > now {
                break;
            }
            self.expiry.pop_front();
            let e = self.entries.remove(i);
            self.stats.flushed += 1;
            sink(
                e.root,
                Pr::partial(e.root, e.row, e.contribs as u16, e.value),
            );
        }
    }

    /// Emits everything still in flight (drain at kernel end), in arrival
    /// order.
    pub fn flush_all_with(&mut self, mut sink: impl FnMut(u32, Pr)) {
        while let Some(row) = self.expiry.pop_front() {
            #[expect(
                clippy::unreachable,
                reason = "every queued row has a live entry (1:1 by construction)"
            )]
            let Ok(i) = self.entries.binary_search_by_key(&row, |e| e.row) else {
                unreachable!("expiry queue references a missing entry");
            };
            let e = self.entries.remove(i);
            self.stats.flushed += 1;
            sink(
                e.root,
                Pr::partial(e.root, e.row, e.contribs as u16, e.value),
            );
        }
    }
}

/// The kind every PR entering a reduce table must have.
pub const REDUCE_KIND: PrKind = PrKind::Partial;

#[cfg(test)]
mod tests {
    use super::*;
    use netsparse_snic::protocol::partial_contrib_value;

    fn contrib(src: u32, row: u32) -> Pr {
        Pr::partial(src, row, 1, partial_contrib_value(src, row))
    }

    #[test]
    fn merging_conserves_counts_and_wrapping_values() {
        let mut t = ReduceTable::new(8, SimTime::from_ns(50));
        let mut issued_value = 0u32;
        for src in 0..5u32 {
            let pr = contrib(src, 9);
            issued_value = issued_value.wrapping_add(pr.partial_value());
            assert!(t.absorb(SimTime::from_ns(src as u64), 3, pr).is_none());
        }
        let mut out = Vec::new();
        t.flush_all_with(|root, pr| out.push((root, pr)));
        assert_eq!(out.len(), 1);
        let (root, merged) = out[0];
        assert_eq!(root, 3);
        assert_eq!(merged.partial_contribs(), 5);
        assert_eq!(merged.partial_value(), issued_value);
        assert_eq!(t.stats().merged, 4);
        assert_eq!(t.stats().allocated, 1);
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn full_table_bypasses_instead_of_dropping() {
        let mut t = ReduceTable::new(2, SimTime::from_ns(50));
        assert!(t.absorb(SimTime::ZERO, 0, contrib(0, 1)).is_none());
        assert!(t.absorb(SimTime::ZERO, 0, contrib(0, 2)).is_none());
        // Third distinct row: no slot — the PR comes straight back.
        let back = t.absorb(SimTime::ZERO, 0, contrib(0, 3));
        assert_eq!(back, Some(contrib(0, 3)));
        // But an existing row still merges at capacity.
        assert!(t.absorb(SimTime::ZERO, 0, contrib(1, 1)).is_none());
        assert_eq!(t.stats().bypassed, 1);
    }

    #[test]
    fn windows_close_in_arrival_order() {
        let mut t = ReduceTable::new(8, SimTime::from_ns(100));
        t.absorb(SimTime::from_ns(0), 0, contrib(0, 5));
        t.absorb(SimTime::from_ns(10), 1, contrib(0, 2));
        assert_eq!(t.next_expiry(), Some(SimTime::from_ns(100)));
        let mut rows = Vec::new();
        t.flush_expired_with(SimTime::from_ns(100), |_, pr| rows.push(pr.idx));
        assert_eq!(rows, vec![5]);
        assert_eq!(t.next_expiry(), Some(SimTime::from_ns(110)));
        t.flush_expired_with(SimTime::from_ns(110), |_, pr| rows.push(pr.idx));
        assert_eq!(rows, vec![5, 2]);
        assert_eq!(t.next_expiry(), None);
    }

    #[test]
    fn count_overflow_bypasses() {
        let mut t = ReduceTable::new(4, SimTime::from_ns(50));
        assert!(t
            .absorb(SimTime::ZERO, 0, Pr::partial(0, 1, u16::MAX, 7))
            .is_none());
        let back = t.absorb(SimTime::ZERO, 0, Pr::partial(1, 1, 1, 9));
        assert_eq!(back, Some(Pr::partial(1, 1, 1, 9)));
        let mut out = Vec::new();
        t.flush_all_with(|_, pr| out.push(pr));
        assert_eq!(out[0].partial_contribs(), u16::MAX as u64);
    }
}
