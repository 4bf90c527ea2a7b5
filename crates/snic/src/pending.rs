//! The Pending PR Table: a per-RIG-unit CAM of outstanding requests
//! (paper §5.2, §5.3).
//!
//! Each client RIG unit tracks the PRs it has issued whose responses have
//! not yet arrived. The table serves two purposes:
//!
//! - **Coalescing**: a new idx matching an outstanding entry is dropped —
//!   the in-flight response will satisfy it (only PRs from the *same* RIG
//!   unit coalesce; the paper avoids cross-unit synchronization).
//! - **Flow control**: when the table is full (256 entries in Table 5) the
//!   unit stalls, bounding the node's outstanding traffic — this is what
//!   makes the lossless-network assumption self-enforcing.
//!
//! The CAM is modelled as an open-addressed hash set whose size depends
//! on its occupancy and capacity, never on the column count: a
//! multiplicative hash picks each key's home slot, collisions probe
//! linearly, and deletion shifts later chain members back so a probe can
//! stop at the first empty slot. The hardware table is a fixed SRAM; the
//! model's slot array starts at 64 slots and doubles as the occupancy
//! grows, since many units never fill theirs.

/// Slot value of an empty entry; never a valid idx.
const EMPTY: u32 = u32::MAX;

/// Fibonacci-hashing multiplier (2³² / φ, odd).
const HASH_MUL: u32 = 0x9E37_79B9;

/// Slots a new table starts with (fewer if its full size is smaller):
/// 256 bytes, room for 32 outstanding PRs before the first doubling.
const INITIAL_SLOTS: usize = 64;

/// A bounded set of outstanding PR idxs.
///
/// # Example
///
/// ```
/// use netsparse_snic::PendingTable;
/// let mut t = PendingTable::new(2);
/// assert!(t.insert(5));
/// assert!(t.insert(9));
/// assert!(t.is_full());
/// assert!(!t.insert(11)); // no room
/// assert!(t.contains(5)); // coalescing check
/// t.remove(5);
/// assert!(t.insert(11));
/// ```
///
/// The table starts with 64 `u32` slots (fewer if its full size is
/// smaller) and doubles them, re-placing every key, whenever an insert
/// would make it more than half full, up to
/// `(2 × capacity).next_power_of_two()` slots (512 at the paper's 256
/// entries). So it is never more than half full and every probe ends at
/// an empty slot within a short chain; [`clear`] keeps the size reached. `u32::MAX` marks an empty slot and is the one idx the
/// table cannot hold; no idx of an [`IdxFilter`](crate::IdxFilter) can be
/// `u32::MAX`, since `idx < n_cols ≤ u32::MAX`.
///
/// [`clear`]: PendingTable::clear
#[derive(Debug, Clone)]
pub struct PendingTable {
    capacity: usize,
    len: usize,
    peak: usize,
    /// Every inserted idx is below this.
    domain: u32,
    /// Right shift that turns a hash product into a slot index.
    shift: u32,
    slots: Box<[u32]>,
}

impl PendingTable {
    /// Creates an empty table with room for `capacity` outstanding PRs,
    /// accepting every idx except `u32::MAX` (the empty-slot key).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        Self::for_domain(capacity, u32::MAX)
    }

    /// Creates an empty table with room for `capacity` outstanding PRs
    /// whose idxs all lie in `[0, domain)` (the workload's column count).
    /// The table is the same size as [`PendingTable::new`]'s; the domain
    /// only adds a check on insert.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn for_domain(capacity: usize, domain: u32) -> Self {
        assert!(capacity > 0, "pending table needs at least one entry");
        let n_slots = (2 * capacity).next_power_of_two().min(INITIAL_SLOTS);
        PendingTable {
            capacity,
            len: 0,
            peak: 0,
            domain,
            shift: u32::BITS - n_slots.trailing_zeros(),
            slots: vec![EMPTY; n_slots].into_boxed_slice(),
        }
    }

    /// Maximum outstanding PRs.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current outstanding PRs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no PRs are outstanding.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the table has no free entries (the unit must stall).
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    /// Home slot of `idx`: the top bits of its multiplicative hash.
    #[inline]
    fn home(&self, idx: u32) -> usize {
        (idx.wrapping_mul(HASH_MUL) >> self.shift) as usize
    }

    /// The slot holding `idx`, or `Err` with the empty slot that ends its
    /// probe chain.
    #[inline]
    fn find(&self, idx: u32) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(idx);
        loop {
            match self.slots[i] {
                EMPTY => return Err(i),
                key if key == idx => return Ok(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Whether a PR for `idx` is outstanding (the coalescing probe).
    #[inline]
    pub fn contains(&self, idx: u32) -> bool {
        self.find(idx).is_ok()
    }

    /// Registers an outstanding PR for `idx`. Returns `false` (and does
    /// nothing) if the table is full.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is already present — the caller must coalesce
    /// duplicates before issuing, so a double insert is a model bug.
    /// Also panics if `idx` lies outside the declared domain (for
    /// [`PendingTable::new`], if `idx` is `u32::MAX`).
    #[inline]
    pub fn insert(&mut self, idx: u32) -> bool {
        if self.is_full() {
            return false;
        }
        assert!(idx < self.domain, "idx {idx} outside the declared domain");
        // Below capacity, `2 × (len + 1)` never exceeds the full size, so
        // the table only doubles while it is smaller.
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        match self.find(idx) {
            // simaudit:allow(no-lib-panic): double insert is a model bug, same contract as before
            Ok(_) => panic!("idx {idx} already outstanding; caller must coalesce"),
            Err(free) => self.slots[free] = idx,
        }
        self.len += 1;
        self.peak = self.peak.max(self.len);
        true
    }

    /// Doubles the slot array and re-places every key at its home in the
    /// new size (rare: at most a few times per table).
    #[cold]
    fn grow(&mut self) {
        let doubled = vec![EMPTY; 2 * self.slots.len()].into_boxed_slice();
        let old = std::mem::replace(&mut self.slots, doubled);
        self.shift -= 1;
        let mask = self.slots.len() - 1;
        for &key in old.iter().filter(|&&k| k != EMPTY) {
            let mut i = self.home(key);
            while self.slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = key;
        }
    }

    /// Clears the entry for `idx` when its response arrives.
    ///
    /// # Panics
    ///
    /// Panics if `idx` was not outstanding — a response without a matching
    /// request is a protocol violation.
    #[inline]
    pub fn remove(&mut self, idx: u32) {
        let Ok(mut hole) = self.find(idx) else {
            // simaudit:allow(no-lib-panic): orphan response is a protocol violation, same contract as before
            panic!("response for idx {idx} that was never outstanding")
        };
        // Backward-shift deletion: walk the rest of the chain and move
        // back every key whose home slot does not lie in (hole, i], so no
        // key is left behind an empty slot its probe would stop at.
        let mask = self.slots.len() - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let key = self.slots[i];
            if key == EMPTY {
                break;
            }
            if (i.wrapping_sub(self.home(key)) & mask) >= (i.wrapping_sub(hole) & mask) {
                self.slots[hole] = key;
                hole = i;
            }
        }
        self.slots[hole] = EMPTY;
        self.len -= 1;
    }

    /// Highest simultaneous occupancy observed.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Forgets every outstanding entry (watchdog recovery, §7.1: the
    /// failed RIG operation's in-flight PRs are abandoned). The slot array
    /// keeps the size it has grown to.
    pub fn clear(&mut self) {
        if self.len == 0 {
            return;
        }
        self.slots.fill(EMPTY);
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsparse_desim::SplitMix64;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn fills_and_frees() {
        let mut t = PendingTable::new(3);
        for i in 0..3 {
            assert!(t.insert(i));
        }
        assert!(t.is_full());
        assert!(!t.insert(99));
        t.remove(1);
        assert!(!t.is_full());
        assert!(t.insert(99));
        assert_eq!(t.peak(), 3);
    }

    #[test]
    fn contains_tracks_outstanding_only() {
        let mut t = PendingTable::new(3);
        t.insert(7);
        assert!(t.contains(7));
        t.remove(7);
        assert!(!t.contains(7));
    }

    #[test]
    fn clear_forgets_everything() {
        let mut t = PendingTable::new(3);
        t.insert(1);
        t.insert(2);
        t.clear();
        assert!(t.is_empty());
        assert!(!t.contains(1) && !t.contains(2));
        assert!(t.insert(1));
    }

    #[test]
    fn widest_domain_accepts_every_unreserved_idx() {
        let mut t = PendingTable::for_domain(4, u32::MAX);
        assert!(!t.contains(u32::MAX));
        assert!(t.insert(u32::MAX - 1));
        assert!(t.insert(0));
        assert!(t.contains(u32::MAX - 1));
        t.remove(u32::MAX - 1);
        t.remove(0);
        assert!(t.is_empty());
    }

    /// Idxs whose home is the last slot of an `n_slots`-slot table, so
    /// their probe chain wraps to slot 0.
    fn colliding_at_end(n_slots: usize, n: usize) -> Vec<u32> {
        let shift = u32::BITS - n_slots.trailing_zeros();
        (0u32..)
            .filter(|&i| (i.wrapping_mul(HASH_MUL) >> shift) as usize == n_slots - 1)
            .take(n)
            .collect()
    }

    #[test]
    fn shared_home_chains_wrap_and_survive_removal() {
        let mut t = PendingTable::new(256);
        let keys = colliding_at_end(t.slots.len(), 6);
        for &k in &keys {
            assert!(t.insert(k));
        }
        // The chain fills the last slot, then wraps to 0..5.
        assert_eq!(t.slots[t.slots.len() - 1], keys[0]);
        assert_eq!(&t.slots[..5], &keys[1..]);
        for &gone in &[keys[0], keys[3], keys[5]] {
            t.remove(gone);
            assert!(!t.contains(gone));
        }
        for &k in &[keys[1], keys[2], keys[4]] {
            assert!(t.contains(k), "idx {k} lost by backward shift");
        }
        assert_eq!(t.len(), 3);
    }

    /// Randomized churn against a `BTreeSet` model: inserts, removals,
    /// probes, refusals when full and clears, over keys from a small
    /// range (frequent repeats) mixed with keys sharing the last home
    /// slot of the table's current size (chains that wrap the slot
    /// array). Rounds alternate between filling past capacity and
    /// draining. The 40- and 256-entry tables start at 64 slots and
    /// double once and three times, never before an insert would pass
    /// half full; each is cleared right after its first doubling, and
    /// every size a table takes must see a chain wrap.
    #[test]
    fn matches_btreeset_model_on_random_churn() {
        for capacity in [1usize, 3, 40, 256] {
            let full = (2 * capacity).next_power_of_two();
            let mut rng = SplitMix64::new(0x5EED ^ capacity as u64);
            let colliding: BTreeMap<usize, Vec<u32>> = (1..=full.trailing_zeros())
                .map(|b| (1 << b, colliding_at_end(1 << b, 8)))
                .collect();
            let key = |rng: &mut SplitMix64, n_slots: usize| {
                if rng.chance(0.3) {
                    let at_end = &colliding[&n_slots];
                    at_end[rng.next_range(at_end.len() as u64) as usize]
                } else {
                    rng.next_range(4 * capacity as u64 + 8) as u32
                }
            };
            let mut t = PendingTable::for_domain(capacity, 1 << 20);
            let start = t.slots.len();
            assert_eq!(start, full.min(INITIAL_SLOTS));
            let mut model = BTreeSet::new();
            let mut refused = 0;
            // Wrapped-chain sightings per slot count the table took.
            let mut wrapped = BTreeMap::from([(t.slots.len(), 0)]);
            for round in 0..20 {
                let insert_pct = if round % 2 == 0 { 70 } else { 30 };
                for step in 0..8 * capacity + 64 {
                    let n_slots = t.slots.len();
                    let op = rng.next_range(100);
                    if op < insert_pct {
                        let k = key(&mut rng, n_slots);
                        if model.contains(&k) {
                            assert!(t.contains(k));
                        } else if model.len() == capacity {
                            assert!(!t.insert(k), "round {round} step {step}: over capacity");
                            refused += 1;
                        } else {
                            assert!(t.insert(k), "round {round} step {step}: insert {k}");
                            model.insert(k);
                        }
                    } else if op < 90 && !model.is_empty() {
                        let nth = rng.next_range(model.len() as u64) as usize;
                        let k = *model.iter().nth(nth).expect("nth < len");
                        t.remove(k);
                        model.remove(&k);
                    } else {
                        let k = key(&mut rng, n_slots);
                        assert_eq!(t.contains(k), model.contains(&k), "idx {k}");
                    }
                    if t.slots.len() != n_slots && wrapped.len() == 1 {
                        // Just doubled for the first time: clear mid-growth.
                        t.clear();
                        model.clear();
                        assert!(t.slots.iter().all(|&s| s == EMPTY));
                    }
                    let last = t.slots.len() - 1;
                    let seen = wrapped.entry(t.slots.len()).or_insert(0);
                    assert_eq!(t.len(), model.len());
                    assert_eq!(t.is_full(), model.len() == capacity);
                    assert!(2 * t.len() <= t.slots.len(), "more than half full");
                    assert!(
                        t.slots.len() == start || 4 * t.peak() > t.slots.len(),
                        "doubled before passing half full"
                    );
                    assert!(
                        model.iter().all(|&k| t.contains(k)),
                        "round {round} step {step}"
                    );
                    let stored = t.slots.iter().filter(|&&s| s != EMPTY).count();
                    assert_eq!(stored, model.len());
                    if t.slots[0] != EMPTY && t.slots[last] != EMPTY && t.home(t.slots[0]) == last {
                        *seen += 1;
                    }
                }
                if round % 5 == 4 {
                    t.clear();
                    model.clear();
                    assert!(t.slots.iter().all(|&s| s == EMPTY));
                }
            }
            assert_eq!(t.peak(), capacity);
            assert!(refused > 0, "capacity {capacity}: never full");
            assert_eq!(t.slots.len(), full, "capacity {capacity}");
            let sizes: Vec<usize> = wrapped.keys().copied().collect();
            let expected: Vec<usize> = (start.trailing_zeros()..=full.trailing_zeros())
                .map(|b| 1 << b)
                .collect();
            assert_eq!(sizes, expected, "capacity {capacity}: sizes taken");
            // One entry cannot form a chain.
            for (n_slots, seen) in wrapped {
                assert!(
                    capacity == 1 || seen > 0,
                    "capacity {capacity}: no chain wrapped at {n_slots} slots"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "already outstanding")]
    fn double_insert_is_a_bug() {
        let mut t = PendingTable::new(4);
        t.insert(7);
        t.insert(7);
    }

    #[test]
    #[should_panic(expected = "never outstanding")]
    fn orphan_response_is_a_bug() {
        PendingTable::new(4).remove(1);
    }

    #[test]
    #[should_panic(expected = "outside the declared domain")]
    fn dense_rejects_out_of_domain_insert() {
        PendingTable::for_domain(4, 64).insert(64);
    }

    #[test]
    #[should_panic(expected = "outside the declared domain")]
    fn empty_slot_key_is_rejected() {
        PendingTable::new(4).insert(u32::MAX);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        PendingTable::new(0);
    }
}
