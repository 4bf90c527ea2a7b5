//! The Idx Filter: per-node "already fetched" bit vector (paper §5.2).
//!
//! The paper allocates one bit per sparse-matrix column in the SNIC's DRAM
//! (modern SNICs carry ≥16 GB, enough for 10¹¹ columns) and shares it
//! across all client RIG units of the node. A bit is set when the property
//! for that idx has been received and written to host memory; a set bit
//! makes every later PR for the idx redundant.
//!
//! The simulation keeps the same one-bit-per-column semantics as a paged
//! bitset: the column space is cut into fixed 512-bit pages, and a page's
//! words are allocated only when one of its bits is first set. A node's
//! stream reaches only part of the column space, and its remote idxs are
//! sparse in it (uk's 128 filters hold 148,486 set bits over 1.0 M
//! columns each), so each simulated node holds only the pages its stream
//! reaches, at any column count up to `u32::MAX`.

/// Bits per page: 8 words (64 B, one cache line) of the bit vector.
/// Small pages suit sparse filters: an allocated page holds little unused
/// space, at the cost of a 4-byte directory entry per 512 columns.
const PAGE_BITS: u32 = 512;
const PAGE_SHIFT: u32 = PAGE_BITS.trailing_zeros();
const PAGE_WORDS: usize = (PAGE_BITS / 64) as usize;

/// Directory entry of a page whose words are not allocated (all bits clear).
const NO_PAGE: u32 = u32::MAX;

type Page = [u64; PAGE_WORDS];

/// Stands in for every unallocated page when comparing contents.
const ZERO_PAGE: Page = [0; PAGE_WORDS];

/// A set of idx bits over `[0, n_cols)`.
///
/// Backed by a page directory with one entry per 512 columns and a
/// slab of 64-byte word pages, each allocated by the first insert into
/// its range. `contains` is two loads: the directory entry, then the word.
/// Equality compares the set bits, not which pages happen to be allocated.
///
/// # Example
///
/// ```
/// use netsparse_snic::IdxFilter;
/// let mut f = IdxFilter::new(1_000);
/// assert!(!f.contains(42));
/// assert!(f.insert(42));  // newly set
/// assert!(!f.insert(42)); // already set
/// assert!(f.contains(42));
/// ```
#[derive(Debug, Clone)]
pub struct IdxFilter {
    n_cols: u32,
    /// Slab slot of each page, or [`NO_PAGE`].
    dir: Vec<u32>,
    pages: Vec<Page>,
    set_bits: u64,
}

impl IdxFilter {
    /// Creates an empty filter over `n_cols` idxs. Only the page
    /// directory is allocated (4 bytes per 512 columns).
    #[expect(
        clippy::disallowed_macros,
        reason = "allocates the directory once per node, at build time"
    )]
    pub fn new(n_cols: u32) -> Self {
        IdxFilter {
            n_cols,
            dir: vec![NO_PAGE; n_cols.div_ceil(PAGE_BITS) as usize],
            pages: Vec::new(),
            set_bits: 0,
        }
    }

    /// Number of idxs covered.
    pub fn n_cols(&self) -> u32 {
        self.n_cols
    }

    /// The page of directory entry `p`, or [`ZERO_PAGE`] if unallocated.
    fn page(&self, p: usize) -> &Page {
        match self.dir[p] {
            NO_PAGE => &ZERO_PAGE,
            slot => &self.pages[slot as usize],
        }
    }

    /// Whether `idx`'s bit is set.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= n_cols`.
    #[inline]
    pub fn contains(&self, idx: u32) -> bool {
        assert!(idx < self.n_cols, "idx {idx} out of filter range");
        let (w, bit) = word_bit(idx);
        match self.dir[(idx >> PAGE_SHIFT) as usize] {
            NO_PAGE => false,
            slot => self.pages[slot as usize][w] & bit != 0,
        }
    }

    /// Sets `idx`'s bit; returns `true` if it was previously clear.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= n_cols`.
    #[inline]
    pub fn insert(&mut self, idx: u32) -> bool {
        assert!(idx < self.n_cols, "idx {idx} out of filter range");
        let entry = &mut self.dir[(idx >> PAGE_SHIFT) as usize];
        if *entry == NO_PAGE {
            *entry = self.pages.len() as u32;
            self.pages.push(ZERO_PAGE);
        }
        let (w, bit) = word_bit(idx);
        let word = &mut self.pages[*entry as usize][w];
        let newly = *word & bit == 0;
        *word |= bit;
        self.set_bits += u64::from(newly);
        newly
    }

    /// Number of set bits (distinct idxs marked fetched).
    pub fn len(&self) -> u64 {
        self.set_bits
    }

    /// Whether no bits are set.
    pub fn is_empty(&self) -> bool {
        self.set_bits == 0
    }

    /// Clears `idx`'s bit; returns whether it was set. Used by watchdog
    /// recovery (§7.1): when a RIG operation times out, the properties it
    /// partially wrote to host memory are discarded, so their filter bits
    /// must be dropped or they would never be re-fetched.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= n_cols`.
    pub fn remove(&mut self, idx: u32) -> bool {
        assert!(idx < self.n_cols, "idx {idx} out of filter range");
        let slot = self.dir[(idx >> PAGE_SHIFT) as usize];
        if slot == NO_PAGE {
            return false;
        }
        let (w, bit) = word_bit(idx);
        let word = &mut self.pages[slot as usize][w];
        let was = *word & bit != 0;
        *word &= !bit;
        self.set_bits -= u64::from(was);
        was
    }

    /// Clears every bit (the control plane resets the filter between
    /// kernel iterations when the input property array changes).
    pub fn clear(&mut self) {
        self.dir.fill(NO_PAGE);
        self.pages.clear();
        self.set_bits = 0;
    }
}

impl PartialEq for IdxFilter {
    fn eq(&self, other: &Self) -> bool {
        self.n_cols == other.n_cols
            && self.set_bits == other.set_bits
            && (0..self.dir.len()).all(|p| self.page(p) == other.page(p))
    }
}

impl Eq for IdxFilter {}

/// The word of `idx` within its page, and `idx`'s bit in that word.
#[inline]
fn word_bit(idx: u32) -> (usize, u64) {
    ((idx as usize / 64) % PAGE_WORDS, 1u64 << (idx % 64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains_dense() {
        let mut f = IdxFilter::new(200);
        assert!(f.is_empty());
        assert!(f.insert(0));
        assert!(f.insert(199));
        assert!(!f.insert(0));
        assert!(f.contains(0) && f.contains(199) && !f.contains(100));
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn clear_resets_both_backings() {
        let mut f = IdxFilter::new(100);
        f.insert(7);
        f.clear();
        assert!(!f.contains(7));
        assert!(f.is_empty());
        assert_eq!(f, IdxFilter::new(100));
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let idxs = [9_000u32, 3, 4_096, 70_000, 4_095, 12_345];
        let mut forward = IdxFilter::new(100_000);
        let mut backward = IdxFilter::new(100_000);
        for &i in &idxs {
            forward.insert(i);
        }
        for &i in idxs.iter().rev() {
            backward.insert(i);
        }
        assert_eq!(forward, backward);
        backward.remove(3);
        assert_ne!(forward, backward);
    }

    #[test]
    fn emptied_filter_equals_untouched_filter() {
        let mut f = IdxFilter::new(50_000);
        f.insert(40_000);
        assert_ne!(f, IdxFilter::new(50_000));
        assert!(f.remove(40_000));
        assert!(f.is_empty());
        assert_eq!(f, IdxFilter::new(50_000));
    }

    #[test]
    fn covers_both_ends_of_the_largest_column_space() {
        let n = u32::MAX / 2;
        let mut f = IdxFilter::new(n);
        for idx in [0, 1, n - PAGE_BITS, n - 2, n - 1] {
            assert!(!f.contains(idx));
            assert!(f.insert(idx), "idx {idx}");
            assert!(!f.insert(idx), "idx {idx}");
            assert!(f.contains(idx));
        }
        assert_eq!(f.len(), 5);
        assert!(f.remove(n - 1) && f.remove(0));
        assert!(!f.contains(n - 1) && !f.contains(0) && f.contains(n - 2));
        assert_eq!(f.len(), 3);
    }

    #[test]
    fn page_edges_and_a_partial_last_page() {
        // Two full pages and a last page of 76 columns.
        let n = 2 * PAGE_BITS + 76;
        let mut f = IdxFilter::new(n);
        assert_eq!(f.dir.len(), 3);
        let set = [511, 512, 513, 2 * PAGE_BITS, n - 1];
        for idx in set {
            assert!(f.insert(idx), "idx {idx}");
            assert!(!f.insert(idx), "idx {idx}");
        }
        // 511 ends page 0, 512 and 513 open page 1, the rest share page 2.
        assert_eq!(f.pages.len(), 3);
        assert!((0..n).all(|idx| f.contains(idx) == set.contains(&idx)));
        assert!(f.remove(512) && !f.remove(512));
        assert!(f.contains(511) && !f.contains(512) && f.contains(513));
        assert!(f.remove(n - 1) && !f.contains(n - 1) && f.contains(2 * PAGE_BITS));
        assert_eq!(f.len(), 3);
        for idx in [511, 513, 2 * PAGE_BITS] {
            assert!(f.remove(idx), "idx {idx}");
        }
        assert!(f.is_empty());
        assert_eq!(f, IdxFilter::new(n));
    }

    #[test]
    fn remove_clears_single_bits() {
        let mut f = IdxFilter::new(100);
        assert!(!f.remove(9));
        f.insert(9);
        f.insert(10);
        assert!(f.remove(9));
        assert!(!f.remove(9));
        assert!(!f.contains(9) && f.contains(10));
        assert_eq!(f.len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of filter range")]
    fn out_of_range_panics() {
        IdxFilter::new(10).contains(10);
    }
}
