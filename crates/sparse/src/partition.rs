//! 1-D partitioning of matrices and property arrays across cluster nodes.
//!
//! The paper partitions the sparse matrix, the input property array and the
//! output property array 1-D across nodes (§2.1): node `p` owns a contiguous
//! block of rows (and the same block of input-property indices). Writes are
//! then always local and the only communication is reads of remote input
//! properties.

/// A 1-D block partition of `[0, n)` into contiguous per-node ranges.
///
/// # Example
///
/// ```
/// use netsparse_sparse::Partition1D;
/// let p = Partition1D::even(10, 3);
/// assert_eq!(p.owner(0), 0);
/// assert_eq!(p.owner(9), 2);
/// assert_eq!(p.range(0), 0..4);   // ceil-ish split: 4,3,3
/// assert_eq!(p.range(2), 7..10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition1D {
    n: u32,
    bounds: Vec<u32>, // len = parts + 1, bounds[0] = 0, bounds[parts] = n
    /// `owner(b << shift)` for every bucket `b`: where [`Partition1D::owner`]
    /// starts its scan. A function of `bounds`, so equality is unaffected.
    buckets: Vec<u32>,
    shift: u32,
}

impl Partition1D {
    /// Splits `[0, n)` into `parts` nearly equal contiguous ranges (the
    /// first `n % parts` ranges get one extra element).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is zero.
    pub fn even(n: u32, parts: u32) -> Self {
        assert!(parts > 0, "partition must have at least one part");
        let base = n / parts;
        let extra = n % parts;
        let mut bounds = Vec::with_capacity(parts as usize + 1);
        let mut acc = 0u32;
        bounds.push(0);
        for p in 0..parts {
            acc += base + u32::from(p < extra);
            bounds.push(acc);
        }
        Self::with_buckets(n, bounds)
    }

    /// Builds a partition from explicit boundaries.
    ///
    /// `bounds` must start at 0, end at `n`, and be nondecreasing.
    ///
    /// # Panics
    ///
    /// Panics if the boundary invariants are violated.
    pub fn from_bounds(n: u32, bounds: Vec<u32>) -> Self {
        assert!(bounds.len() >= 2, "need at least one part");
        assert_eq!(bounds[0], 0, "bounds must start at 0");
        assert_eq!(*bounds.last().expect("nonempty"), n, "bounds must end at n");
        for w in bounds.windows(2) {
            assert!(w[0] <= w[1], "bounds must be nondecreasing");
        }
        Self::with_buckets(n, bounds)
    }

    /// Splits `[0, n)` so each part holds (approximately) equal *weight*,
    /// where `weight[i]` is the cost of element `i` — used for nnz-balanced
    /// row partitioning.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != n` or `parts == 0`.
    pub fn balanced(weights: &[u64], parts: u32) -> Self {
        assert!(parts > 0, "partition must have at least one part");
        let n = weights.len() as u32;
        let total: u64 = weights.iter().sum();
        let mut bounds = Vec::with_capacity(parts as usize + 1);
        bounds.push(0u32);
        let mut acc = 0u64;
        let mut next_target = 1u64;
        for (i, &w) in weights.iter().enumerate() {
            acc += w;
            // Close parts whose cumulative share has been reached.
            while bounds.len() <= parts as usize
                && acc * parts as u64 >= next_target * total
                && total > 0
            {
                if bounds.len() < parts as usize {
                    bounds.push(i as u32 + 1);
                }
                next_target += 1;
            }
        }
        while bounds.len() < parts as usize {
            bounds.push(n);
        }
        bounds.push(n);
        Self::with_buckets(n, bounds)
    }

    /// Finishes every constructor: buckets `[0, n)` into at most four
    /// power-of-two buckets per part and records each bucket's first owner.
    fn with_buckets(n: u32, bounds: Vec<u32>) -> Self {
        let max_buckets = 4 * (bounds.len() as u64 - 1);
        let mut shift = 0;
        while u64::from(n) >> shift >= max_buckets {
            shift += 1;
        }
        let mut buckets = Vec::with_capacity((u64::from(n) >> shift) as usize + 1);
        let mut p = 0;
        for start in (0..n).step_by(1 << shift) {
            while bounds[p + 1] <= start {
                p += 1;
            }
            buckets.push(p as u32);
        }
        Partition1D {
            n,
            bounds,
            buckets,
            shift,
        }
    }

    /// Total number of elements partitioned.
    pub fn len(&self) -> u32 {
        self.n
    }

    /// Whether the partitioned range is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of parts (nodes).
    pub fn parts(&self) -> u32 {
        (self.bounds.len() - 1) as u32
    }

    /// The node owning element `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= n`.
    #[inline]
    pub fn owner(&self, idx: u32) -> u32 {
        assert!(idx < self.n, "index {idx} out of partitioned range");
        // Start at the owner of idx's bucket's first element and step past
        // every part that ends at or before idx (empty parts included).
        let mut p = self.buckets[(idx >> self.shift) as usize] as usize;
        while self.bounds[p + 1] <= idx {
            p += 1;
        }
        p as u32
    }

    /// The half-open element range owned by `part`.
    ///
    /// # Panics
    ///
    /// Panics if `part` is out of bounds.
    #[inline]
    pub fn range(&self, part: u32) -> std::ops::Range<u32> {
        self.bounds[part as usize]..self.bounds[part as usize + 1]
    }

    /// Number of elements owned by `part`.
    pub fn part_len(&self, part: u32) -> u32 {
        let r = self.range(part);
        r.end - r.start
    }

    /// Whether `idx` is owned by `part` (i.e. a *local* access from `part`).
    #[inline]
    pub fn is_local(&self, part: u32, idx: u32) -> bool {
        let r = self.range(part);
        r.contains(&idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_partition_covers_everything_once() {
        let p = Partition1D::even(100, 7);
        assert_eq!(p.parts(), 7);
        let total: u32 = (0..7).map(|i| p.part_len(i)).sum();
        assert_eq!(total, 100);
        for idx in 0..100 {
            let o = p.owner(idx);
            assert!(p.range(o).contains(&idx));
        }
    }

    #[test]
    fn even_partition_sizes_differ_by_at_most_one() {
        let p = Partition1D::even(100, 7);
        let sizes: Vec<u32> = (0..7).map(|i| p.part_len(i)).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1, "sizes {sizes:?}");
    }

    #[test]
    fn owner_boundaries() {
        let p = Partition1D::even(8, 4);
        assert_eq!(p.owner(0), 0);
        assert_eq!(p.owner(1), 0);
        assert_eq!(p.owner(2), 1);
        assert_eq!(p.owner(7), 3);
    }

    #[test]
    fn is_local_matches_owner() {
        let p = Partition1D::even(64, 8);
        for idx in 0..64 {
            let o = p.owner(idx);
            for part in 0..8 {
                assert_eq!(p.is_local(part, idx), part == o);
            }
        }
    }

    #[test]
    fn balanced_partition_equalizes_weight() {
        // Heavy head: first 10 elements carry weight 100 each, rest weight 1.
        let mut w = vec![100u64; 10];
        w.extend(std::iter::repeat_n(1u64, 90));
        let p = Partition1D::balanced(&w, 4);
        assert_eq!(p.parts(), 4);
        let weight_of = |part: u32| -> u64 { p.range(part).map(|i| w[i as usize]).sum() };
        let total: u64 = w.iter().sum();
        for part in 0..4 {
            let share = weight_of(part) as f64 / total as f64;
            assert!(share < 0.5, "part {part} holds {share} of the weight");
        }
        // All elements covered.
        let covered: u32 = (0..4).map(|i| p.part_len(i)).sum();
        assert_eq!(covered, 100);
    }

    #[test]
    fn from_bounds_roundtrip() {
        let p = Partition1D::from_bounds(10, vec![0, 2, 2, 10]);
        assert_eq!(p.part_len(1), 0);
        assert_eq!(p.owner(2), 2);
        assert_eq!(p.owner(1), 0);
    }

    /// The bucketed `owner` agrees with a binary search over the bounds
    /// for every idx, including partitions with empty parts, whichever
    /// constructor built them.
    #[test]
    fn owner_matches_a_binary_search_over_bounds() {
        let check = |p: &Partition1D| {
            for idx in 0..p.len() {
                let want = p.bounds.partition_point(|&b| b <= idx) - 1;
                assert_eq!(
                    p.owner(idx),
                    want as u32,
                    "idx {idx}, bounds {:?}",
                    p.bounds
                );
            }
        };
        let has_empty_part = |p: &Partition1D| (0..p.parts()).any(|q| p.part_len(q) == 0);
        for (n, parts) in [(1, 1), (3, 8), (7, 8), (8, 8), (100, 7), (4_097, 128)] {
            check(&Partition1D::even(n, parts));
        }
        // Many elements per bucket.
        check(&Partition1D::even(100_003, 3));
        // Zero-weight runs: one heavy element closes several parts at
        // once, and an all-zero weight vector leaves every part but the
        // first empty.
        let mut w = vec![0u64; 50];
        w.extend([5; 10]);
        w.extend([0; 30]);
        w.push(1_000);
        w.extend([0; 20]);
        for parts in [5, 16, 40] {
            let p = Partition1D::balanced(&w, parts);
            assert!(has_empty_part(&p), "{parts} parts: {:?}", p.bounds);
            check(&p);
        }
        check(&Partition1D::balanced(&[0; 20], 4));
        // Empty parts at the start, in the middle and at the end.
        for bounds in [
            vec![0, 0, 0, 5, 10],
            vec![0, 3, 3, 3, 10],
            vec![0, 4, 10, 10, 10],
            vec![0, 0, 6, 6, 10, 10],
        ] {
            let p = Partition1D::from_bounds(10, bounds);
            assert!(has_empty_part(&p));
            check(&p);
        }
    }

    #[test]
    #[should_panic(expected = "out of partitioned range")]
    fn owner_out_of_range_panics() {
        Partition1D::even(4, 2).owner(4);
    }

    #[test]
    #[should_panic(expected = "at least one part")]
    fn zero_parts_panics() {
        Partition1D::even(4, 0);
    }
}
