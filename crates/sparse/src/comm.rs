//! Communication workloads and sparsity-pattern statistics.
//!
//! A [`CommWorkload`] is the communication-side view of a distributed sparse
//! kernel (§2.1–2.3 of the paper): for every node, the ordered stream of
//! column indices (*idxs*) its nonzero scan touches. Each remote idx is a
//! potential Property Request; the stream order determines filtering,
//! coalescing, concatenation and caching behaviour.
//!
//! [`PatternStats`] computes the paper's motivational statistics: the
//! useful-to-redundant transfer ratios of the SU and SA approaches
//! (Table 1), temporal remote-destination locality (Table 4), and
//! intra-rack sharing potential (§3).

use std::ops::Range;

use crate::csr::CsrMatrix;
use crate::partition::Partition1D;

/// Per-node communication view of a distributed sparse kernel.
///
/// # Example
///
/// ```
/// use netsparse_sparse::{gen, CommWorkload, Partition1D};
/// let m = gen::banded(512, 4, 32, 1).to_csr();
/// let part = Partition1D::even(512, 4);
/// let wl = CommWorkload::from_csr(&m, &part);
/// assert_eq!(wl.nodes(), 4);
/// let stats = wl.pattern_stats();
/// assert!(stats.total_unique_remote() <= stats.total_remote_refs());
/// ```
#[derive(Debug, Clone)]
pub struct CommWorkload {
    partition: Partition1D,
    rows_per_node: Vec<u32>,
    streams: Vec<Vec<u32>>,
}

impl CommWorkload {
    /// Builds a workload from per-node idx streams.
    ///
    /// `partition` describes column (input property) ownership;
    /// `rows_per_node` the output rows each node owns (used by compute
    /// models); `streams[p]` the ordered column idxs node `p` scans.
    ///
    /// # Panics
    ///
    /// Panics if `streams`/`rows_per_node` lengths do not match the
    /// partition's part count, or any idx is out of range.
    pub fn from_streams(
        partition: Partition1D,
        rows_per_node: Vec<u32>,
        streams: Vec<Vec<u32>>,
    ) -> Self {
        let nodes = partition.parts() as usize;
        assert_eq!(streams.len(), nodes, "one stream per node required");
        assert_eq!(rows_per_node.len(), nodes, "one row count per node");
        let n = partition.len();
        for (p, s) in streams.iter().enumerate() {
            for &idx in s {
                assert!(idx < n, "node {p} references column {idx} >= {n}");
            }
        }
        CommWorkload {
            partition,
            rows_per_node,
            streams,
        }
    }

    /// Extracts the workload of a real matrix under a 1-D partition: node
    /// `p` owns the rows in `partition.range(p)` and scans their nonzeros
    /// in row-major order.
    ///
    /// # Panics
    ///
    /// Panics if the partition does not span the matrix's rows, or the
    /// matrix is not square-partitionable (`ncols` must equal the partition
    /// length so column ownership is defined).
    pub fn from_csr(m: &CsrMatrix, partition: &Partition1D) -> Self {
        assert_eq!(
            partition.len(),
            m.ncols(),
            "partition must span the column space"
        );
        assert_eq!(
            m.nrows(),
            m.ncols(),
            "1-D partitioning here assumes a square matrix"
        );
        let nodes = partition.parts();
        let mut streams = Vec::with_capacity(nodes as usize);
        let mut rows_per_node = Vec::with_capacity(nodes as usize);
        for p in 0..nodes {
            let range = partition.range(p);
            rows_per_node.push(range.end - range.start);
            let mut s = Vec::new();
            for r in range {
                s.extend(m.row(r).map(|(c, _)| c));
            }
            streams.push(s);
        }
        CommWorkload::from_streams(partition.clone(), rows_per_node, streams)
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u32 {
        self.partition.parts()
    }

    /// Number of columns (input properties) in the global array.
    pub fn n_cols(&self) -> u32 {
        self.partition.len()
    }

    /// The column-ownership partition.
    pub fn partition(&self) -> &Partition1D {
        &self.partition
    }

    /// Output rows owned by `node`.
    pub fn rows_of(&self, node: u32) -> u32 {
        self.rows_per_node[node as usize]
    }

    /// The ordered idx stream scanned by `node`.
    pub fn stream(&self, node: u32) -> &[u32] {
        &self.streams[node as usize]
    }

    /// Total nonzeros across all nodes.
    pub fn total_nnz(&self) -> u64 {
        self.streams.iter().map(|s| s.len() as u64).sum()
    }

    /// Owner node of a column idx.
    #[inline]
    pub fn owner(&self, idx: u32) -> u32 {
        self.partition.owner(idx)
    }

    /// Materializes the workload as a concrete sparse matrix, assigning the
    /// nonzeros of each node's stream to that node's row range in order
    /// (row-major within the node). Values are deterministic synthetic
    /// data. Duplicate coordinates are preserved (a later `to_csr` merges
    /// them).
    pub fn to_coo(&self) -> crate::coo::CooMatrix {
        let n = self.n_cols();
        let mut m = crate::coo::CooMatrix::with_capacity(n, n, self.total_nnz() as usize);
        for p in 0..self.nodes() {
            let range = self.partition.range(p);
            let rows = (range.end - range.start).max(1) as u64;
            let len = self.stream(p).len().max(1) as u64;
            for (k, &idx) in self.stream(p).iter().enumerate() {
                let row = range.start + ((k as u64 * rows) / len) as u32;
                let row = row.min(range.end.saturating_sub(1)).max(range.start);
                m.push(row, idx, crate::kernels::synthetic_property(idx ^ row, 0));
            }
        }
        m
    }

    /// Properties `node` receives under the SU (dense all-to-all)
    /// schedule: every column outside its own part.
    pub fn su_received(&self, node: u32) -> u64 {
        u64::from(self.n_cols() - self.partition.part_len(node))
    }

    /// Computes SU/SA transfer statistics (paper Table 1 and §3).
    pub fn pattern_stats(&self) -> PatternStats {
        let mut unique = ColumnSet::new(self.n_cols());
        let per_node = (0..self.nodes())
            .map(|p| {
                let stream = self.stream(p);
                let remote_refs = unique.insert_outside(stream, self.partition.range(p));
                let node = NodePattern {
                    nnz: stream.len() as u64,
                    remote_refs,
                    unique_remote: unique.members().len() as u64,
                    su_received: self.su_received(p),
                };
                unique.clear();
                node
            })
            .collect();
        PatternStats {
            nodes: self.nodes(),
            n_cols: self.n_cols(),
            per_node,
        }
    }

    /// Average number of unique destination nodes within non-overlapping
    /// windows of `window` consecutive remote PRs (paper Table 4, window
    /// 64). Returns 0 if no node issues a full window of remote PRs.
    pub fn dest_locality(&self, window: usize) -> f64 {
        assert!(window > 0, "window must be nonzero");
        // marks[owner] is the last window that counted `owner`; every
        // window, full or dropped, gets a fresh number.
        let mut marks = vec![0u64; self.nodes() as usize];
        let mut current = 0u64;
        let (mut total_unique, mut windows) = (0u64, 0u64);
        for p in 0..self.nodes() {
            let local = self.partition.range(p);
            // A stream's last, partial window is dropped.
            let (mut filled, mut unique) = (0usize, 0u64);
            current += 1;
            for &idx in self.stream(p) {
                if local.contains(&idx) {
                    continue;
                }
                let mark = &mut marks[self.owner(idx) as usize];
                if *mark != current {
                    *mark = current;
                    unique += 1;
                }
                filled += 1;
                if filled == window {
                    total_unique += unique;
                    windows += 1;
                    (filled, unique) = (0, 0);
                    current += 1;
                }
            }
        }
        if windows == 0 {
            0.0
        } else {
            total_unique as f64 / windows as f64
        }
    }

    /// Fraction of unique `(node, remote idx)` property needs that are
    /// shared by at least two nodes of the same rack, computed over
    /// *inter-rack* properties only (§3: "85% of the PRs are for properties
    /// useful to more than one node in the same group").
    pub fn rack_sharing(&self, rack_size: u32) -> f64 {
        assert!(rack_size > 0, "rack size must be nonzero");
        let (nodes, n) = (self.nodes(), self.n_cols());
        // One node's distinct inter-rack columns, and the columns at least
        // one and at least two of its rack-mates need.
        let mut needed = ColumnSet::new(n);
        let (mut once, mut twice) = (ColumnSet::new(n), ColumnSet::new(n));
        // Distinct (node, inter-rack column) needs, and how many of them
        // no rack-mate shares.
        let (mut total, mut alone) = (0u64, 0u64);
        for first in (0..nodes).step_by(rack_size as usize) {
            let end = first.saturating_add(rack_size).min(nodes);
            // Racks are runs of nodes, so their columns are one range.
            let rack_cols = self.partition.range(first).start..self.partition.range(end - 1).end;
            for p in first..end {
                needed.insert_outside(self.stream(p), rack_cols.clone());
                for &idx in needed.members() {
                    if once.insert(idx) {
                        alone += 1;
                    } else if twice.insert(idx) {
                        alone -= 1;
                    }
                }
                total += needed.members().len() as u64;
                needed.clear();
            }
            once.clear();
            twice.clear();
        }
        if total == 0 {
            return 0.0;
        }
        (total - alone) as f64 / total as f64
    }
}

/// Length of the blocks [`gather_outside`] fills.
pub const GATHER_BLOCK: usize = 256;

/// Appends `key(idx)` for every idx of `piece` outside `local` to `block`,
/// from `block[len]` on, in stream order, and returns the new length.
///
/// No idx takes a branch: each is stored and only a remote one advances
/// the length. This beats a per-idx `!local.contains` branch, which
/// mispredicts on streams that mix local and remote idxs (measured in
/// `docs/ARCHITECTURE.md` §Analytic baselines). `ColumnSet` and SAOpt's
/// pair count both filter through it.
///
/// # Panics
///
/// Panics if `len + piece.len()` exceeds [`GATHER_BLOCK`].
#[inline]
pub fn gather_outside<T>(
    block: &mut [T; GATHER_BLOCK],
    mut len: usize,
    piece: &[u32],
    local: &Range<u32>,
    key: impl Fn(u32) -> T,
) -> usize {
    assert!(
        len + piece.len() <= GATHER_BLOCK,
        "piece overflows the block"
    );
    let (start, width) = (local.start, local.end - local.start);
    for &idx in piece {
        // len < GATHER_BLOCK here, so `% GATHER_BLOCK` only drops the
        // bounds check; the wrapping test is `!local.contains(&idx)`.
        block[len % GATHER_BLOCK] = key(idx);
        len += usize::from(idx.wrapping_sub(start) >= width);
    }
    len
}

/// A set of column idxs over `[0, n)` that empties in time proportional to
/// its size: a bitset for membership plus the list of members. The
/// analytic passes allocate one per call and reuse it for every node, so
/// deduplicating a reference costs one bit test.
#[derive(Debug, Clone)]
pub struct ColumnSet {
    words: Vec<u64>,
    members: Vec<u32>,
}

impl ColumnSet {
    /// An empty set over the columns `[0, n)`.
    pub fn new(n: u32) -> Self {
        ColumnSet {
            words: vec![0; (n as usize).div_ceil(64)],
            members: Vec::new(),
        }
    }

    /// Adds `idx`; returns whether it was absent.
    ///
    /// # Panics
    ///
    /// May panic if `idx` is outside the set's column range.
    #[inline]
    pub(crate) fn insert(&mut self, idx: u32) -> bool {
        let word = &mut self.words[(idx >> 6) as usize];
        let bit = 1u64 << (idx & 63);
        let absent = *word & bit == 0;
        if absent {
            *word |= bit;
            self.members.push(idx);
        }
        absent
    }

    /// Inserts every idx of `stream` outside `local` (a node's remote
    /// references, when `local` is its part) and returns how many there
    /// were, repeats included.
    pub fn insert_outside(&mut self, stream: &[u32], local: Range<u32>) -> u64 {
        let mut block = [0u32; GATHER_BLOCK];
        let mut outside = 0;
        for chunk in stream.chunks(GATHER_BLOCK) {
            let n = gather_outside(&mut block, 0, chunk, &local, |idx| idx);
            outside += n as u64;
            for &idx in &block[..n] {
                self.insert(idx);
            }
        }
        outside
    }

    /// The members, in insertion order.
    pub fn members(&self) -> &[u32] {
        &self.members
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        for &idx in &self.members {
            self.words[(idx >> 6) as usize] = 0;
        }
        self.members.clear();
    }
}

/// Per-node transfer counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodePattern {
    /// Nonzeros scanned by the node.
    pub nnz: u64,
    /// References to remotely owned columns (= SA transfers, unfiltered).
    pub remote_refs: u64,
    /// Distinct remotely owned columns referenced (= useful transfers).
    pub unique_remote: u64,
    /// Properties received under the SU (dense all-to-all) schedule.
    pub su_received: u64,
}

/// Aggregate SU/SA transfer statistics for a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternStats {
    /// Number of nodes.
    pub nodes: u32,
    /// Number of columns in the input property array.
    pub n_cols: u32,
    /// Per-node breakdown.
    pub per_node: Vec<NodePattern>,
}

impl PatternStats {
    /// Total nonzeros.
    pub fn total_nnz(&self) -> u64 {
        self.per_node.iter().map(|n| n.nnz).sum()
    }

    /// Total SA transfers (one per remote nonzero reference).
    pub fn total_remote_refs(&self) -> u64 {
        self.per_node.iter().map(|n| n.remote_refs).sum()
    }

    /// Total useful transfers (unique per node).
    pub fn total_unique_remote(&self) -> u64 {
        self.per_node.iter().map(|n| n.unique_remote).sum()
    }

    /// Total property transfers under the SU schedule.
    pub fn total_su_transfers(&self) -> u64 {
        self.per_node.iter().map(|n| n.su_received).sum()
    }

    /// Redundant SU transfers per useful transfer (Table 1, row "SU").
    pub fn su_redundancy(&self) -> f64 {
        let useful = self.total_unique_remote();
        if useful == 0 {
            return 0.0;
        }
        (self.total_su_transfers() - useful) as f64 / useful as f64
    }

    /// Redundant SA transfers per useful transfer (Table 1, row "SA").
    pub fn sa_redundancy(&self) -> f64 {
        let useful = self.total_unique_remote();
        if useful == 0 {
            return 0.0;
        }
        (self.total_remote_refs() - useful) as f64 / useful as f64
    }

    /// Fraction of nonzero references that touch remote columns.
    pub fn remote_fraction(&self) -> f64 {
        let nnz = self.total_nnz();
        if nnz == 0 {
            0.0
        } else {
            self.total_remote_refs() as f64 / nnz as f64
        }
    }

    /// Average reuse of each unique remote column per node
    /// (`remote_refs / unique_remote`).
    pub fn reuse(&self) -> f64 {
        let u = self.total_unique_remote();
        if u == 0 {
            0.0
        } else {
            self.total_remote_refs() as f64 / u as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use netsparse_desim::SplitMix64;

    /// Build the paper's Figure 1 example: 8x8 matrix, 4 nodes, nonzeros
    /// a..g with the depicted coordinates.
    fn figure1() -> CommWorkload {
        // (row, col): a=(0,4), b=(1,1), c=(2,6), d=(4,3), e=(5,3),
        // f=(6,0), g=(7,7)
        let mut m = CooMatrix::new(8, 8);
        for (r, c) in [(0, 4), (1, 1), (2, 6), (4, 3), (5, 3), (6, 0), (7, 7)] {
            m.push(r, c, 1.0);
        }
        let part = Partition1D::even(8, 4);
        CommWorkload::from_csr(&m.to_csr(), &part)
    }

    #[test]
    fn figure1_remote_transfers_match_paper() {
        let wl = figure1();
        let stats = wl.pattern_stats();
        // Paper: b and g are local; a, c, d, e, f are remote refs; d and e
        // share idx 3, so useful (unique per node) transfers are 4.
        assert_eq!(stats.total_remote_refs(), 5);
        assert_eq!(stats.total_unique_remote(), 4);
        // SU: every node receives all 6 remote properties regardless.
        assert_eq!(stats.total_su_transfers(), 4 * 6);
        assert!((stats.sa_redundancy() - 0.25).abs() < 1e-12);
        assert!((stats.su_redundancy() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn from_streams_validates_bounds() {
        let part = Partition1D::even(4, 2);
        let result = std::panic::catch_unwind(|| {
            CommWorkload::from_streams(part, vec![2, 2], vec![vec![0], vec![9]])
        });
        assert!(result.is_err());
    }

    #[test]
    fn dest_locality_of_single_destination_stream() {
        let part = Partition1D::even(64, 4);
        // Node 0 references only node 1's columns.
        let stream0: Vec<u32> = (0..128).map(|i| 16 + (i % 16)).collect();
        let wl =
            CommWorkload::from_streams(part, vec![16; 4], vec![stream0, vec![], vec![], vec![]]);
        assert!((wl.dest_locality(64) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dest_locality_counts_distinct_owners() {
        let part = Partition1D::even(64, 4);
        // Node 0 alternates between node 1, 2 and 3 columns.
        let stream0: Vec<u32> = (0..192)
            .map(|i| match i % 3 {
                0 => 16,
                1 => 32,
                _ => 48,
            })
            .collect();
        let wl =
            CommWorkload::from_streams(part, vec![16; 4], vec![stream0, vec![], vec![], vec![]]);
        assert!((wl.dest_locality(64) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn rack_sharing_detects_shared_needs() {
        let part = Partition1D::even(64, 4);
        // Rack size 2: nodes {0,1} and {2,3}. Nodes 0 and 1 both need
        // column 32 (owned by node 2, other rack) -> shared. Node 0 also
        // needs column 48 alone -> unshared.
        let wl = CommWorkload::from_streams(
            part,
            vec![16; 4],
            vec![vec![32, 48], vec![32], vec![], vec![]],
        );
        let s = wl.rack_sharing(2);
        // pairs: (rack0, 32) x2 nodes -> 2 shared pairs; (rack0, 48) -> 1.
        assert!((s - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn rack_sharing_ignores_intra_rack_properties() {
        let part = Partition1D::even(64, 4);
        // Rack size 2: node 0 referencing node 1's columns is intra-rack.
        let wl = CommWorkload::from_streams(
            part,
            vec![16; 4],
            vec![vec![16, 17], vec![], vec![], vec![]],
        );
        assert_eq!(wl.rack_sharing(2), 0.0);
    }

    /// The hash-set formulations the passes above replaced, kept as
    /// reference models.
    mod reference {
        use super::*;
        use std::collections::{HashMap, HashSet};

        pub fn pattern_stats(wl: &CommWorkload) -> PatternStats {
            let nodes = wl.nodes();
            let n_cols = wl.n_cols();
            let mut per_node = Vec::with_capacity(nodes as usize);
            for p in 0..nodes {
                let mut unique: HashSet<u32> = HashSet::new();
                let mut remote_refs = 0u64;
                for &idx in wl.stream(p) {
                    if !wl.partition.is_local(p, idx) {
                        remote_refs += 1;
                        unique.insert(idx);
                    }
                }
                per_node.push(NodePattern {
                    nnz: wl.stream(p).len() as u64,
                    remote_refs,
                    unique_remote: unique.len() as u64,
                    su_received: (n_cols - wl.partition.part_len(p)) as u64,
                });
            }
            PatternStats {
                nodes,
                n_cols,
                per_node,
            }
        }

        pub fn dest_locality(wl: &CommWorkload, window: usize) -> f64 {
            let mut total_unique = 0u64;
            let mut windows = 0u64;
            let mut dests: Vec<u32> = Vec::with_capacity(window);
            for p in 0..wl.nodes() {
                dests.clear();
                for &idx in wl.stream(p) {
                    if !wl.partition.is_local(p, idx) {
                        dests.push(wl.owner(idx));
                        if dests.len() == window {
                            let mut uniq = dests.clone();
                            uniq.sort_unstable();
                            uniq.dedup();
                            total_unique += uniq.len() as u64;
                            windows += 1;
                            dests.clear();
                        }
                    }
                }
            }
            if windows == 0 {
                0.0
            } else {
                total_unique as f64 / windows as f64
            }
        }

        pub fn rack_sharing(wl: &CommWorkload, rack_size: u32) -> f64 {
            let mut group_counts: HashMap<(u32, u32), u32> = HashMap::new();
            for p in 0..wl.nodes() {
                let rack = p / rack_size;
                let mut seen: HashSet<u32> = HashSet::new();
                for &idx in wl.stream(p) {
                    let owner = wl.owner(idx);
                    if owner != p && owner / rack_size != rack && seen.insert(idx) {
                        *group_counts.entry((rack, idx)).or_insert(0) += 1;
                    }
                }
            }
            let total: u64 = group_counts.values().map(|&c| c as u64).sum();
            if total == 0 {
                return 0.0;
            }
            let shared: u64 = group_counts
                .values()
                .filter(|&&c| c >= 2)
                .map(|&c| c as u64)
                .sum();
            shared as f64 / total as f64
        }
    }

    /// Random workloads over the shapes the passes must get right: empty
    /// parts, fewer columns than parts, streams that are empty, all local
    /// or all remote, and nodes that own no rows.
    fn random_workloads(seed: u64, count: usize) -> Vec<CommWorkload> {
        let mut rng = SplitMix64::new(seed);
        (0..count)
            .map(|case| {
                let parts = rng.range_u32_inclusive(1, 12);
                let n = if case % 4 == 0 {
                    rng.range_u32_inclusive(1, parts)
                } else {
                    rng.range_u32_inclusive(1, 400)
                };
                let partition = if case % 2 == 0 {
                    let mut bounds: Vec<u32> =
                        (1..parts).map(|_| rng.range_u32_inclusive(0, n)).collect();
                    bounds.push(0);
                    bounds.push(n);
                    bounds.sort_unstable();
                    Partition1D::from_bounds(n, bounds)
                } else {
                    Partition1D::even(n, parts)
                };
                let streams = (0..parts)
                    .map(|p| {
                        let own = partition.range(p);
                        let own_len = own.end - own.start;
                        let len = rng.range_u32_inclusive(0, 300);
                        // A narrow pool makes repeats common.
                        let pool = rng.range_u32_inclusive(1, n);
                        let offset = rng.range_u32(0, n);
                        let kind = rng.next_range(4);
                        (0..len)
                            .filter_map(|_| match kind {
                                0 if own_len > 0 => Some(rng.range_u32(own.start, own.end)),
                                1 if own_len < n => {
                                    let x = rng.range_u32(0, n - own_len);
                                    Some(if x >= own.start { x + own_len } else { x })
                                }
                                0 | 1 => None,
                                _ => Some((offset + rng.range_u32(0, pool)) % n),
                            })
                            .collect()
                    })
                    .collect();
                let rows = (0..parts).map(|_| rng.range_u32_inclusive(0, 20)).collect();
                CommWorkload::from_streams(partition, rows, streams)
            })
            .collect()
    }

    #[test]
    fn passes_match_the_hash_set_reference_models() {
        let workloads = random_workloads(0x5EED_C0DE, 300);
        let shape = |f: &dyn Fn(&CommWorkload) -> bool| workloads.iter().filter(|wl| f(wl)).count();
        let stats = |wl: &CommWorkload| reference::pattern_stats(wl).per_node;
        assert!(shape(&|wl| (0..wl.nodes()).any(|p| wl.partition.part_len(p) == 0)) > 50);
        assert!(shape(&|wl| wl.n_cols() < wl.nodes()) > 20);
        assert!(shape(&|wl| stats(wl).iter().any(|n| n.nnz > 0 && n.remote_refs == 0)) > 50);
        assert!(
            shape(&|wl| stats(wl)
                .iter()
                .any(|n| n.nnz > 0 && n.remote_refs == n.nnz))
                > 50
        );
        assert!(shape(&|wl| (0..wl.nodes()).any(|p| wl.rows_of(p) == 0)) > 50);
        for (case, wl) in workloads.iter().enumerate() {
            assert_eq!(
                wl.pattern_stats(),
                reference::pattern_stats(wl),
                "case {case}"
            );
            for window in [1, 3, 64] {
                assert_eq!(
                    wl.dest_locality(window).to_bits(),
                    reference::dest_locality(wl, window).to_bits(),
                    "case {case}, window {window}"
                );
            }
            for rack in [1, 2, 3, 5, wl.nodes(), wl.nodes() + 1, u32::MAX] {
                assert_eq!(
                    wl.rack_sharing(rack).to_bits(),
                    reference::rack_sharing(wl, rack).to_bits(),
                    "case {case}, rack {rack}"
                );
            }
        }
    }

    #[test]
    fn column_set_empties_and_refills() {
        let mut set = ColumnSet::new(130);
        for idx in [129, 0, 64, 63, 0, 129] {
            set.insert(idx);
        }
        assert_eq!(set.members(), &[129, 0, 64, 63]);
        set.clear();
        assert!(set.members().is_empty());
        assert!(set.insert(64) && !set.insert(64) && set.insert(65));
    }

    #[test]
    fn gather_outside_appends_remote_keys_in_order() {
        let mut block = [0u64; GATHER_BLOCK];
        // The part's ends: 2 is local, 6 is not.
        let n = gather_outside(&mut block, 0, &[5, 1, 6, 2, 9, 4, 0], &(2..6), u64::from);
        assert_eq!(&block[..n], &[1, 6, 9, 0]);
        let n = gather_outside(&mut block, n, &[7, 3], &(2..6), |idx| {
            1 << 32 | u64::from(idx)
        });
        assert_eq!(&block[..n], &[1, 6, 9, 0, 1 << 32 | 7]);
        // A piece may fill the block, but not overflow it.
        let all = [9u32; GATHER_BLOCK];
        assert_eq!(
            gather_outside(&mut block, 0, &all, &(0..0), u64::from),
            GATHER_BLOCK
        );
        let overflow = std::panic::catch_unwind(move || {
            gather_outside(&mut [0u32; GATHER_BLOCK], 1, &all, &(0..0), |idx| idx)
        });
        assert!(overflow.is_err());
    }

    #[test]
    fn reuse_and_remote_fraction() {
        let wl = figure1();
        let s = wl.pattern_stats();
        assert!((s.remote_fraction() - 5.0 / 7.0).abs() < 1e-12);
        assert!((s.reuse() - 1.25).abs() < 1e-12);
    }
}
