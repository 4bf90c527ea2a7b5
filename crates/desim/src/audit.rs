//! Runtime invariant auditor for the simulation stack.
//!
//! An [`Auditor`] watches a run and fails fast (with a precise message) the
//! moment an invariant breaks, instead of letting corruption surface as a
//! subtly wrong table three crates away. Two instances typically exist per
//! simulation:
//!
//! - the [`Engine`](crate::Engine) embeds one that checks **event-time
//!   monotonicity** and folds every `(time, seq)` pair into a running
//!   **digest** — two runs with the same seed must produce bit-identical
//!   digests, which is the strongest cheap determinism check available;
//! - the embedding simulator (e.g. `netsparse::sim`) owns one for
//!   **conservation ledgers** (every issued PR must be resolved exactly
//!   once in fault-free runs) and **bounds checks** (property-cache hit
//!   accounting, occupancy).
//!
//! Auditing is compiled in under `debug_assertions` or the `audit` cargo
//! feature and compiled out otherwise — release builds without the feature
//! pay nothing. The module itself always compiles so signatures stay
//! nameable; only the call sites are gated (see `Engine::with_audit`).

use crate::time::SimTime;

/// FNV-1a offset basis / prime (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A named conservation ledger. Every opened entry must eventually be
/// *resolved* (completed normally) or *abandoned* (explicitly given up —
/// e.g. a watchdog discarding the outstanding PRs of a timed-out command),
/// so at the end of a run `issued == resolved + abandoned + outstanding`
/// holds even under fault injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ledger {
    /// Ledger name (e.g. `"pr"`).
    pub name: &'static str,
    /// Entries opened.
    pub issued: u64,
    /// Entries closed normally.
    pub resolved: u64,
    /// Entries explicitly given up (fault recovery).
    pub abandoned: u64,
}

/// Watches one simulation run for invariant violations; see the module
/// docs for the invariant catalogue.
///
/// # Example
///
/// ```
/// use netsparse_desim::{audit::Auditor, SimTime};
/// let mut a = Auditor::new();
/// a.record_event(SimTime::from_ns(1));
/// a.record_event(SimTime::from_ns(2));
/// a.issue("pr");
/// a.resolve("pr");
/// a.check_balanced("pr"); // would panic if issued != resolved
/// assert_ne!(a.digest(), Auditor::new().digest());
/// ```
#[derive(Debug, Clone)]
pub struct Auditor {
    last_time: SimTime,
    events: u64,
    digest: u64,
    // Tiny linear-scan map: audits track a handful of ledgers, and a Vec
    // keeps insertion order deterministic without any hashing.
    ledgers: Vec<Ledger>,
}

impl Default for Auditor {
    fn default() -> Self {
        Self::new()
    }
}

impl Auditor {
    /// Creates an auditor with an empty event stream and no ledgers.
    pub fn new() -> Self {
        Auditor {
            last_time: SimTime::ZERO,
            events: 0,
            digest: FNV_OFFSET,
            ledgers: Vec::new(),
        }
    }

    /// Records one delivered event: checks time monotonicity and folds the
    /// `(time, index)` pair into the run digest.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the previously recorded event.
    #[inline]
    pub fn record_event(&mut self, time: SimTime) {
        assert!(
            time >= self.last_time,
            "audit: event time went backwards: {} after {}",
            time,
            self.last_time
        );
        self.last_time = time;
        self.fold(time.as_ps());
        self.fold(self.events);
        self.events += 1;
    }

    /// Folds an arbitrary value into the digest (FNV-1a over the bytes).
    /// Simulators may mix in final metrics so the digest also covers
    /// model-level outputs, not just event timing.
    #[inline]
    pub fn fold(&mut self, value: u64) {
        let mut d = self.digest;
        for b in value.to_le_bytes() {
            d = (d ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        self.digest = d;
    }

    /// The running event-stream digest. Equal seeds must yield equal
    /// digests; anything else is a determinism bug.
    #[inline]
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Events recorded so far.
    #[inline]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Timestamp of the most recently recorded event.
    #[inline]
    pub fn last_time(&self) -> SimTime {
        self.last_time
    }

    fn ledger_mut(&mut self, name: &'static str) -> &mut Ledger {
        if let Some(i) = self.ledgers.iter().position(|l| l.name == name) {
            &mut self.ledgers[i]
        } else {
            self.ledgers.push(Ledger {
                name,
                issued: 0,
                resolved: 0,
                abandoned: 0,
            });
            let last = self.ledgers.len() - 1;
            &mut self.ledgers[last]
        }
    }

    /// Opens one entry on `name`'s ledger.
    #[inline]
    pub fn issue(&mut self, name: &'static str) {
        self.ledger_mut(name).issued += 1;
    }

    /// Closes one entry on `name`'s ledger.
    ///
    /// # Panics
    ///
    /// Panics if the ledger would go negative — resolving something that
    /// was never issued is always an accounting bug.
    #[inline]
    pub fn resolve(&mut self, name: &'static str) {
        let l = self.ledger_mut(name);
        l.resolved += 1;
        assert!(
            l.resolved + l.abandoned <= l.issued,
            "audit: ledger `{}` over-resolved: {} resolved + {} abandoned vs {} issued",
            l.name,
            l.resolved,
            l.abandoned,
            l.issued
        );
    }

    /// Abandons one entry on `name`'s ledger (fault recovery explicitly
    /// giving up on an issued entry).
    ///
    /// # Panics
    ///
    /// Panics if the ledger would go negative.
    #[inline]
    pub fn abandon(&mut self, name: &'static str) {
        self.abandon_n(name, 1);
    }

    /// Abandons `n` entries at once (e.g. a watchdog discarding every
    /// outstanding PR of a command).
    ///
    /// # Panics
    ///
    /// Panics if the ledger would go negative.
    #[inline]
    pub fn abandon_n(&mut self, name: &'static str, n: u64) {
        let l = self.ledger_mut(name);
        l.abandoned += n;
        assert!(
            l.resolved + l.abandoned <= l.issued,
            "audit: ledger `{}` over-abandoned: {} resolved + {} abandoned vs {} issued",
            l.name,
            l.resolved,
            l.abandoned,
            l.issued
        );
    }

    /// Reads a ledger back (testing / reporting).
    pub fn ledger(&self, name: &str) -> Option<Ledger> {
        self.ledgers.iter().find(|l| l.name == name).copied()
    }

    /// Asserts that `name`'s ledger balances (`issued == resolved`). Call
    /// at end of run, and only when the run semantics guarantee balance
    /// (e.g. fault injection disabled).
    ///
    /// # Panics
    ///
    /// Panics on imbalance, or if the ledger was never touched (a wiring
    /// bug: the check would otherwise pass vacuously forever).
    pub fn check_balanced(&self, name: &str) {
        #[expect(
            clippy::panic,
            reason = "a vacuously passing audit is a wiring bug; abort loudly"
        )]
        let l = self
            .ledgers
            .iter()
            .find(|l| l.name == name)
            .unwrap_or_else(|| panic!("audit: ledger `{name}` was never touched"));
        assert!(
            l.issued == l.resolved && l.abandoned == 0,
            "audit: ledger `{}` imbalanced: {} issued vs {} resolved ({} abandoned)",
            l.name,
            l.issued,
            l.resolved,
            l.abandoned
        );
    }

    /// Asserts loss-aware conservation on `name`'s ledger:
    /// `issued == resolved + abandoned + outstanding`. This is the check to
    /// run at end of a *faulted* run, where [`Auditor::check_balanced`]
    /// does not apply: every issue must still be accounted for, either by a
    /// normal resolution, an explicit abandonment (watchdog recovery), or
    /// by still being in flight.
    ///
    /// # Panics
    ///
    /// Panics on imbalance, or if the ledger was never touched.
    pub fn check_conserved(&self, name: &str, outstanding: u64) {
        #[expect(
            clippy::panic,
            reason = "a vacuously passing audit is a wiring bug; abort loudly"
        )]
        let l = self
            .ledgers
            .iter()
            .find(|l| l.name == name)
            .unwrap_or_else(|| panic!("audit: ledger `{name}` was never touched"));
        assert!(
            l.issued == l.resolved + l.abandoned + outstanding,
            "audit: ledger `{}` not conserved: {} issued vs {} resolved + {} abandoned \
             + {} outstanding",
            l.name,
            l.issued,
            l.resolved,
            l.abandoned,
            outstanding
        );
    }

    /// Asserts an arbitrary named invariant, producing an `audit:`-prefixed
    /// message so violations are greppable across the stack.
    ///
    /// # Panics
    ///
    /// Panics if `holds` is false.
    #[inline]
    pub fn check(&self, holds: bool, what: &str) {
        assert!(holds, "audit: invariant violated: {what}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_deterministic_and_order_sensitive() {
        let mut a = Auditor::new();
        let mut b = Auditor::new();
        for i in 0..100 {
            a.record_event(SimTime::from_ns(i));
            b.record_event(SimTime::from_ns(i));
        }
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.events(), 100);

        // A different stream (same multiset of times, different spacing)
        // must change the digest.
        let mut c = Auditor::new();
        for i in 0..100 {
            c.record_event(SimTime::from_ns(i / 2 * 2));
        }
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    #[should_panic(expected = "event time went backwards")]
    fn non_monotonic_time_panics() {
        let mut a = Auditor::new();
        a.record_event(SimTime::from_ns(10));
        a.record_event(SimTime::from_ns(9));
    }

    #[test]
    fn ledgers_balance() {
        let mut a = Auditor::new();
        for _ in 0..5 {
            a.issue("pr");
        }
        for _ in 0..5 {
            a.resolve("pr");
        }
        a.check_balanced("pr");
        assert_eq!(a.ledger("pr").unwrap().issued, 5);
    }

    #[test]
    #[should_panic(expected = "imbalanced")]
    fn unbalanced_ledger_panics() {
        let mut a = Auditor::new();
        a.issue("pr");
        a.check_balanced("pr");
    }

    #[test]
    #[should_panic(expected = "over-resolved")]
    fn over_resolving_panics() {
        let mut a = Auditor::new();
        a.resolve("pr");
    }

    #[test]
    fn conservation_holds_with_abandonment() {
        let mut a = Auditor::new();
        for _ in 0..10 {
            a.issue("pr");
        }
        for _ in 0..6 {
            a.resolve("pr");
        }
        a.abandon_n("pr", 3);
        a.check_conserved("pr", 1); // one still outstanding
        let l = a.ledger("pr").unwrap();
        assert_eq!((l.issued, l.resolved, l.abandoned), (10, 6, 3));
    }

    #[test]
    #[should_panic(expected = "not conserved")]
    fn lost_entry_breaks_conservation() {
        let mut a = Auditor::new();
        a.issue("pr");
        a.issue("pr");
        a.resolve("pr");
        // The second entry vanished: neither resolved, abandoned, nor
        // claimed outstanding.
        a.check_conserved("pr", 0);
    }

    #[test]
    #[should_panic(expected = "over-abandoned")]
    fn over_abandoning_panics() {
        let mut a = Auditor::new();
        a.issue("pr");
        a.abandon_n("pr", 2);
    }

    #[test]
    #[should_panic(expected = "imbalanced")]
    fn balanced_check_rejects_abandonment() {
        let mut a = Auditor::new();
        a.issue("pr");
        a.abandon("pr");
        a.check_balanced("pr");
    }

    #[test]
    #[should_panic(expected = "never touched")]
    fn checking_untouched_ledger_panics() {
        Auditor::new().check_balanced("ghost");
    }

    #[test]
    #[should_panic(expected = "invariant violated: cache hits exceed lookups")]
    fn named_invariant_panics_with_context() {
        Auditor::new().check(false, "cache hits exceed lookups");
    }
}
