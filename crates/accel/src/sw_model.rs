//! Software communication models: SUOpt, SAOpt and vanilla SA (paper §8.1).
//!
//! The paper compares NetSparse against *idealized* software baselines:
//!
//! - **SUOpt**: communication time is just the bytes each node receives
//!   under the dense all-to-all property exchange, at 100 % line rate with
//!   no headers and no latency — the performance limit of the
//!   sparsity-unaware approach.
//! - **SAOpt**: the SA algorithm augmented with the Conveyors framework:
//!   idxs are batched per destination in software, pre-filtered per core
//!   (threads map to distinct ranks, so duplicates across cores survive),
//!   and shipped as aggregated messages. Only the software costs of PR
//!   generation / book-keeping / synchronization are charged, calibrated
//!   against the paper's Figure 10 single-node measurement.
//! - **Vanilla SA**: the unbatched one-PR-per-RDMA-read flow of §2.3,
//!   whose measured 2-node transfer rates motivate the work (Table 2).
//!
//! Calibration constants live on the model structs with the observation
//! they reproduce.

use netsparse_sparse::comm::{gather_outside, GATHER_BLOCK};
use netsparse_sparse::{ColumnSet, CommWorkload};

/// The SUOpt baseline: optimal sparsity-unaware communication.
///
/// # Example
///
/// ```
/// use netsparse_accel::SuOptModel;
/// let m = SuOptModel::new(400.0);
/// // A node receiving 1 M remote properties of 64 B at 400 Gbps:
/// let t = m.comm_time(1_000_000, 16);
/// assert!((t - 1.28e-3).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuOptModel {
    /// Network line rate in Gbps.
    pub line_rate_gbps: f64,
}

impl SuOptModel {
    /// Creates the model for a given line rate.
    pub fn new(line_rate_gbps: f64) -> Self {
        SuOptModel { line_rate_gbps }
    }

    /// Seconds for a node to receive `properties_received` properties of
    /// `k` 4-byte elements at full line rate, no headers, no latency.
    pub fn comm_time(&self, properties_received: u64, k: u32) -> f64 {
        let bits = properties_received as f64 * 4.0 * k as f64 * 8.0;
        bits / (self.line_rate_gbps * 1e9)
    }

    /// The kernel's communication time: the slowest node's receive time.
    /// Under SU every node receives all remotely owned properties, so this
    /// is simply the maximum per-node `su_received`: the columns outside
    /// the node's own part.
    pub fn kernel_comm_time(&self, wl: &CommWorkload, k: u32) -> f64 {
        (0..wl.nodes())
            .map(|p| self.comm_time(wl.su_received(p), k))
            .fold(0.0, f64::max)
    }
}

/// The SAOpt baseline: Conveyors-augmented sparsity-aware software.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaOptModel {
    /// Network line rate in Gbps.
    pub line_rate_gbps: f64,
    /// CPU cores per node devoted to communication (paper: all 64).
    pub cores: u32,
    /// Per-PR software cost per core, nanoseconds. Calibrated so 64 cores
    /// sustain ~10 % goodput at K=32 (Figure 10's ceiling) and the Table 7
    /// "Gput SA" column lands in its 1–11 % range.
    pub per_pr_ns: f64,
}

impl SaOptModel {
    /// The paper's configuration: 400 Gbps, 64 cores.
    pub fn paper() -> Self {
        SaOptModel {
            line_rate_gbps: 400.0,
            cores: 64,
            per_pr_ns: 1_600.0,
        }
    }

    /// Aggregate PR generation rate (PRs/second) with `cores` cores.
    pub fn pr_rate(&self, cores: u32) -> f64 {
        cores as f64 / (self.per_pr_ns * 1e-9)
    }

    /// Figure 10: goodput as a fraction of the line rate for `cores`
    /// cores and `k`-element properties, under perfectly balanced
    /// single-node communication.
    pub fn goodput_fraction(&self, cores: u32, k: u32) -> f64 {
        let payload_bits = 4.0 * k as f64 * 8.0;
        let bps = self.pr_rate(cores) * payload_bits;
        (bps / (self.line_rate_gbps * 1e9)).min(1.0)
    }

    /// PRs a node must generate under SAOpt: work is distributed to cores
    /// row by row (row `r` goes to core `r % cores`, the usual OpenMP-style
    /// interleaving), and each core pre-filters its *own* duplicates
    /// (offline and free, per the paper's optimistic assumption).
    /// Duplicates across cores survive because Conveyors maps threads to
    /// distinct ranks and cross-rank filtering is not possible — the reason
    /// Table 7 reports several-fold more PRs for SAOpt than for NetSparse.
    pub fn node_pr_count(&self, wl: &CommWorkload, node: u32) -> u64 {
        self.count_prs(&mut PairSet::default(), wl, node)
    }

    /// [`SaOptModel::node_pr_count`] of every node, in node order.
    pub fn node_pr_counts(&self, wl: &CommWorkload) -> Vec<u64> {
        let mut pairs = PairSet::default();
        (0..wl.nodes())
            .map(|p| self.count_prs(&mut pairs, wl, p))
            .collect()
    }

    fn count_prs(&self, pairs: &mut PairSet, wl: &CommWorkload, node: u32) -> u64 {
        let mut prs = 0;
        pairs.scan(wl, node, self.cores, |_| prs += 1);
        prs
    }

    /// Seconds of communication for a node that generates `prs` PRs: the
    /// larger of the software bound (PRs / aggregate rate) and the optimal
    /// wire bound (payload bytes at full line rate; Conveyors aggregation
    /// makes headers negligible and the model charges no network latency).
    pub fn comm_time(&self, prs: u64, k: u32) -> f64 {
        let sw = prs as f64 / self.pr_rate(self.cores);
        let wire = prs as f64 * 4.0 * k as f64 * 8.0 / (self.line_rate_gbps * 1e9);
        sw.max(wire)
    }

    /// Seconds of communication for `node` (see [`SaOptModel::comm_time`]).
    pub fn node_comm_time(&self, wl: &CommWorkload, node: u32, k: u32) -> f64 {
        self.comm_time(self.node_pr_count(wl, node), k)
    }

    /// The kernel's communication time: the slowest node.
    pub fn kernel_comm_time(&self, wl: &CommWorkload, k: u32) -> f64 {
        self.kernel_comm_time_of(&self.node_pr_counts(wl), k)
    }

    /// [`SaOptModel::kernel_comm_time`] from every node's PR count
    /// ([`SaOptModel::node_pr_counts`]).
    pub fn kernel_comm_time_of(&self, node_prs: &[u64], k: u32) -> f64 {
        node_prs
            .iter()
            .map(|&prs| self.comm_time(prs, k))
            .fold(0.0, f64::max)
    }

    /// The tail node's achieved goodput fraction (Table 7, "Gput SA").
    pub fn tail_goodput(&self, wl: &CommWorkload, k: u32) -> f64 {
        self.tail_goodput_of(&self.node_pr_counts(wl), k)
    }

    /// [`SaOptModel::tail_goodput`] from every node's PR count
    /// ([`SaOptModel::node_pr_counts`]).
    pub fn tail_goodput_of(&self, node_prs: &[u64], k: u32) -> f64 {
        let (mut worst_t, mut worst_prs) = (0.0f64, 0u64);
        for &prs in node_prs {
            let t = self.comm_time(prs, k);
            if t > worst_t {
                worst_t = t;
                worst_prs = prs;
            }
        }
        if worst_t == 0.0 {
            return 0.0;
        }
        let bits = worst_prs as f64 * 4.0 * k as f64 * 8.0;
        bits / worst_t / (self.line_rate_gbps * 1e9)
    }
}

/// One node's distinct `(core, idx)` PR keys, `core << 32 | idx`: an
/// open-addressed table with linear probing, kept at most half full and
/// reused from node to node. Emptying it costs the slots it filled.
#[derive(Debug, Default)]
struct PairSet {
    slots: Vec<u64>,
    /// Positions of the filled slots.
    filled: Vec<u32>,
    /// `64 - log2(slots.len())`: hashes keep their top bits.
    shift: u32,
}

impl PairSet {
    /// No key is `u64::MAX`: an idx is below the `u32` column count.
    const EMPTY: u64 = u64::MAX;

    /// Calls `new_pair(idx)` once per distinct `(core, idx)` among
    /// `node`'s remote references. The stream is cut into rows of
    /// `len / rows` idxs and row `r` goes to core `r % cores`.
    fn scan(&mut self, wl: &CommWorkload, node: u32, cores: u32, mut new_pair: impl FnMut(u32)) {
        self.clear();
        let stream = wl.stream(node);
        let local = wl.partition().range(node);
        // Approximate one matrix row as stream_len / rows contiguous idxs.
        let row_len = (stream.len() / wl.rows_of(node).max(1) as usize).max(1);
        // Remote keys of many rows collect in one block before insertion.
        let mut block = [0u64; GATHER_BLOCK];
        let mut n = 0;
        let mut flush = |keys: &[u64]| {
            for &key in keys {
                if self.insert(key) {
                    // A key's low half is its idx.
                    new_pair(key as u32);
                }
            }
        };
        let mut core = 0;
        for row in stream.chunks(row_len) {
            let core_key = u64::from(core) << 32;
            for piece in row.chunks(GATHER_BLOCK) {
                if n + piece.len() > GATHER_BLOCK {
                    flush(&block[..n]);
                    n = 0;
                }
                n = gather_outside(&mut block, n, piece, &local, |idx| {
                    core_key | u64::from(idx)
                });
            }
            core += 1;
            if core >= cores {
                core = 0;
            }
        }
        flush(&block[..n]);
    }

    #[inline]
    fn insert(&mut self, key: u64) -> bool {
        if 2 * self.filled.len() >= self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        loop {
            match self.slots[i] {
                Self::EMPTY => {
                    self.slots[i] = key;
                    self.filled.push(i as u32);
                    return true;
                }
                k if k == key => return false,
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn grow(&mut self) {
        let keys: Vec<u64> = self
            .filled
            .iter()
            .map(|&i| self.slots[i as usize])
            .collect();
        let len = (2 * self.slots.len()).max(1 << 10);
        self.slots = vec![Self::EMPTY; len];
        self.shift = 64 - len.trailing_zeros();
        self.filled.clear();
        for key in keys {
            self.insert(key);
        }
    }

    fn clear(&mut self) {
        for &i in &self.filled {
            self.slots[i as usize] = Self::EMPTY;
        }
        self.filled.clear();
    }
}

impl Default for SaOptModel {
    fn default() -> Self {
        SaOptModel::paper()
    }
}

/// A Two-Face-style hybrid software baseline (the paper's reference \[11\]):
/// *popular* columns — needed by many nodes — are broadcast SU-style
/// (collectives are efficient when everyone wants the data anyway), while
/// the long tail is fetched sparsity-aware through the Conveyors model.
///
/// This is the strongest software scheme the paper positions against; it
/// is not in the paper's evaluation, so `ext_hybrid` reports it as an
/// extension. The popularity threshold is swept and the best value taken
/// (an idealized, oracle-tuned hybrid).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridOptModel {
    /// The SA side (Conveyors) of the hybrid.
    pub sa: SaOptModel,
}

impl HybridOptModel {
    /// Builds the hybrid over a configured SAOpt model.
    pub fn new(sa: SaOptModel) -> Self {
        HybridOptModel { sa }
    }

    /// Kernel communication time with an oracle-chosen popularity
    /// threshold: columns needed by more than `threshold` nodes are
    /// broadcast; the rest go through SA. Returns the best time over a
    /// sweep of thresholds (including "broadcast nothing").
    pub fn kernel_comm_time(&self, wl: &CommWorkload, k: u32) -> f64 {
        self.comm_times(wl, k, &[u32::MAX, 128, 64, 32, 16, 8, 4, 2])
            .into_iter()
            .fold(f64::INFINITY, f64::min)
    }

    /// Communication time for one specific popularity threshold.
    pub fn comm_time_at(&self, wl: &CommWorkload, k: u32, threshold: u32) -> f64 {
        self.comm_times(wl, k, &[threshold])[0]
    }

    /// The communication time at each of `thresholds` (largest first),
    /// from one count of each column's requesters and one pass per node.
    fn comm_times(&self, wl: &CommWorkload, k: u32, thresholds: &[u32]) -> Vec<f64> {
        debug_assert!(thresholds.windows(2).all(|w| w[0] >= w[1]));
        let part = wl.partition();
        let nodes = wl.nodes();
        // How many distinct nodes need each column remotely.
        let mut requesters = vec![0u32; wl.n_cols() as usize];
        let mut needed = ColumnSet::new(wl.n_cols());
        for p in 0..nodes {
            needed.insert_outside(wl.stream(p), part.range(p));
            for &idx in needed.members() {
                requesters[idx as usize] += 1;
            }
            needed.clear();
        }
        // A column's class is the first threshold at which it is popular
        // (broadcast), or `thresholds.len()` if it never is: popular at
        // threshold `i` means class <= i.
        let m = thresholds.len();
        let class_of_count: Vec<usize> = (0..=nodes)
            .map(|c| thresholds.iter().position(|&t| c > t).unwrap_or(m))
            .collect();
        let class = |idx: u32| class_of_count[requesters[idx as usize] as usize];
        // owned[p][c]: columns node p owns in class c; popular[c]: all
        // columns in class c.
        let owned: Vec<Vec<u64>> = (0..nodes)
            .map(|p| {
                let mut by_class = vec![0u64; m + 1];
                for idx in part.range(p) {
                    by_class[class(idx)] += 1;
                }
                by_class
            })
            .collect();
        let mut popular = vec![0u64; m + 1];
        for by_class in &owned {
            for (total, n) in popular.iter_mut().zip(by_class) {
                *total += n;
            }
        }

        let bits_per_prop = 4.0 * k as f64 * 8.0;
        let line = self.sa.line_rate_gbps * 1e9;
        let mut worst = vec![0.0f64; m];
        let mut pairs = PairSet::default();
        let mut sa_by_class = vec![0u64; m + 1];
        for p in 0..nodes {
            // SA side: the node's distinct per-core PRs (SAOpt's
            // prefiltering), by the class of their column.
            sa_by_class.fill(0);
            pairs.scan(wl, p, self.sa.cores, |idx| sa_by_class[class(idx)] += 1);
            let mut sa_prs: u64 = sa_by_class.iter().sum();
            let mut pop_remote = 0u64;
            for (i, worst) in worst.iter_mut().enumerate() {
                // Class-i columns join the broadcast side at threshold i:
                // every node receives every remotely owned popular column
                // at full line rate (SU-optimal assumptions), and their PRs
                // leave the SA side.
                pop_remote += popular[i] - owned[p as usize][i];
                sa_prs -= sa_by_class[i];
                let sw = sa_prs as f64 / self.sa.pr_rate(self.sa.cores);
                let wire = (pop_remote as f64 + sa_prs as f64) * bits_per_prop / line;
                *worst = worst.max(sw.max(wire));
            }
        }
        worst
    }
}

/// Vanilla (unbatched) SA: one RDMA read per nonzero, host-driven.
///
/// Table 2 measures its 2-node transfer rate at 0.2–0.7 Gbps depending on
/// the matrix; the dominant variable is how scattered consecutive PR
/// destinations are (more destinations → worse batching in the NIC
/// doorbell path and worse cache behaviour). The model charges a base
/// per-PR cost plus a destination-spread penalty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VanillaSaModel {
    /// Base serialized per-PR software cost, nanoseconds.
    pub base_ns: f64,
    /// Additional cost per unique destination in a 64-PR window, ns.
    pub per_dest_ns: f64,
    /// Network line rate in Gbps.
    pub line_rate_gbps: f64,
}

impl VanillaSaModel {
    /// Constants calibrated against Table 2 (queen 0.7 Gbps, europe
    /// 0.2 Gbps at K=32 on 100 Gbps-class Slingshot).
    pub fn paper() -> Self {
        VanillaSaModel {
            base_ns: 1_110.0,
            per_dest_ns: 350.0,
            line_rate_gbps: 200.0,
        }
    }

    /// Achieved transfer rate in Gbps for `k`-element properties given the
    /// workload's Table 4 destination-locality statistic.
    pub fn transfer_rate_gbps(&self, k: u32, window_dests: f64) -> f64 {
        let per_pr_ns = self.base_ns + self.per_dest_ns * window_dests;
        let bits = 4.0 * k as f64 * 8.0;
        bits / per_pr_ns // bits per ns == Gbps
    }

    /// Line utilization fraction (Table 2, second row).
    pub fn line_utilization(&self, k: u32, window_dests: f64) -> f64 {
        self.transfer_rate_gbps(k, window_dests) / self.line_rate_gbps
    }

    /// Goodput fraction of the line rate (Table 2, third row): utilization
    /// discounted by the per-K header fraction.
    pub fn goodput(&self, k: u32, window_dests: f64, header_fraction: f64) -> f64 {
        self.line_utilization(k, window_dests) * (1.0 - header_fraction)
    }
}

impl Default for VanillaSaModel {
    fn default() -> Self {
        VanillaSaModel::paper()
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "the hash-set reference models are compared by count, never iterated in order"
)]
mod tests {
    use super::*;
    use netsparse_desim::SplitMix64;
    use netsparse_sparse::Partition1D;
    use std::collections::HashSet;

    /// The hash-set formulations the models above replaced, kept as
    /// reference models.
    mod reference {
        use super::*;
        use std::collections::HashMap;

        pub fn node_pr_count(sa: &SaOptModel, wl: &CommWorkload, node: u32) -> u64 {
            let stream = wl.stream(node);
            let part = wl.partition();
            let cores = sa.cores.max(1) as usize;
            let row_len = (stream.len() / wl.rows_of(node).max(1) as usize).max(1);
            let mut seen: Vec<HashSet<u32>> = vec![HashSet::new(); cores];
            let mut total = 0u64;
            for (row, slice) in stream.chunks(row_len).enumerate() {
                let core = row % cores;
                for &idx in slice {
                    if !part.is_local(node, idx) && seen[core].insert(idx) {
                        total += 1;
                    }
                }
            }
            total
        }

        pub fn node_comm_time(sa: &SaOptModel, wl: &CommWorkload, node: u32, k: u32) -> f64 {
            let prs = node_pr_count(sa, wl, node);
            let sw = prs as f64 / sa.pr_rate(sa.cores);
            let wire = prs as f64 * 4.0 * k as f64 * 8.0 / (sa.line_rate_gbps * 1e9);
            sw.max(wire)
        }

        pub fn kernel_comm_time(sa: &SaOptModel, wl: &CommWorkload, k: u32) -> f64 {
            (0..wl.nodes())
                .map(|p| node_comm_time(sa, wl, p, k))
                .fold(0.0, f64::max)
        }

        pub fn tail_goodput(sa: &SaOptModel, wl: &CommWorkload, k: u32) -> f64 {
            let (mut worst_t, mut worst_prs) = (0.0f64, 0u64);
            for p in 0..wl.nodes() {
                let t = node_comm_time(sa, wl, p, k);
                if t > worst_t {
                    worst_t = t;
                    worst_prs = node_pr_count(sa, wl, p);
                }
            }
            if worst_t == 0.0 {
                return 0.0;
            }
            let bits = worst_prs as f64 * 4.0 * k as f64 * 8.0;
            bits / worst_t / (sa.line_rate_gbps * 1e9)
        }

        pub fn hybrid_comm_time_at(
            h: &HybridOptModel,
            wl: &CommWorkload,
            k: u32,
            threshold: u32,
        ) -> f64 {
            let part = wl.partition();
            let mut requesters: HashMap<u32, u32> = HashMap::new();
            for p in 0..wl.nodes() {
                let mut uniq = HashSet::new();
                for &idx in wl.stream(p) {
                    if !part.is_local(p, idx) && uniq.insert(idx) {
                        *requesters.entry(idx).or_insert(0) += 1;
                    }
                }
            }
            let popular: HashSet<u32> = requesters
                .iter()
                .filter(|(_, &c)| c > threshold)
                .map(|(&idx, _)| idx)
                .collect();
            let bits_per_prop = 4.0 * k as f64 * 8.0;
            let line = h.sa.line_rate_gbps * 1e9;
            let mut worst = 0.0f64;
            for p in 0..wl.nodes() {
                let pop_remote = popular
                    .iter()
                    .filter(|&&idx| !part.is_local(p, idx))
                    .count() as f64;
                let sa_prs = sa_side_pr_count(h, wl, p, &popular);
                let sw = sa_prs as f64 / h.sa.pr_rate(h.sa.cores);
                let wire = (pop_remote + sa_prs as f64) * bits_per_prop / line;
                worst = worst.max(sw.max(wire));
            }
            worst
        }

        fn sa_side_pr_count(
            h: &HybridOptModel,
            wl: &CommWorkload,
            node: u32,
            popular: &HashSet<u32>,
        ) -> u64 {
            let stream = wl.stream(node);
            let part = wl.partition();
            let cores = h.sa.cores.max(1) as usize;
            let row_len = (stream.len() / wl.rows_of(node).max(1) as usize).max(1);
            let mut seen: Vec<HashSet<u32>> = vec![HashSet::new(); cores];
            let mut total = 0u64;
            for (row, slice) in stream.chunks(row_len).enumerate() {
                let core = row % cores;
                for &idx in slice {
                    if !part.is_local(node, idx)
                        && !popular.contains(&idx)
                        && seen[core].insert(idx)
                    {
                        total += 1;
                    }
                }
            }
            total
        }
    }

    /// Random workloads over the shapes the models must get right: empty
    /// parts, fewer columns than parts, streams that are empty, all local
    /// or all remote, nodes that own no rows, and (with up to 200 parts)
    /// hot columns that more than 128 nodes need.
    fn random_workloads(seed: u64, count: usize) -> Vec<CommWorkload> {
        let mut rng = SplitMix64::new(seed);
        (0..count)
            .map(|case| {
                let big = case % 10 == 0;
                let parts = if big {
                    rng.range_u32_inclusive(130, 200)
                } else {
                    rng.range_u32_inclusive(1, 12)
                };
                let n = if case % 4 == 1 {
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
                let hot = rng.range_u32_inclusive(1, 6).min(n);
                let streams = (0..parts)
                    .map(|p| {
                        let own = partition.range(p);
                        let own_len = own.end - own.start;
                        let len = rng.range_u32_inclusive(0, 200);
                        // Narrow pools make repeats common.
                        let pool = rng.range_u32_inclusive(1, n);
                        let offset = rng.range_u32(0, n);
                        // Most nodes of a big cluster read the hot columns.
                        let kind = if big && rng.chance(0.9) {
                            3
                        } else {
                            rng.next_range(4)
                        };
                        (0..len)
                            .filter_map(|_| match kind {
                                0 if own_len > 0 => Some(rng.range_u32(own.start, own.end)),
                                1 if own_len < n => {
                                    let x = rng.range_u32(0, n - own_len);
                                    Some(if x >= own.start { x + own_len } else { x })
                                }
                                0 | 1 => None,
                                2 => Some((offset + rng.range_u32(0, pool)) % n),
                                _ => Some(rng.range_u32(0, hot)),
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
    fn models_match_the_hash_set_reference_models() {
        let workloads = random_workloads(0xC0FF_EE00, 80);
        let mut broadcast_at_128 = 0;
        for (case, wl) in workloads.iter().enumerate() {
            for cores in [1, 3, 64, 100] {
                let sa = SaOptModel {
                    cores,
                    ..SaOptModel::paper()
                };
                let at = format!("case {case}, {cores} cores");
                let counts = sa.node_pr_counts(wl);
                for p in 0..wl.nodes() {
                    let want = reference::node_pr_count(&sa, wl, p);
                    assert_eq!(counts[p as usize], want, "{at}, node {p}");
                    assert_eq!(sa.node_pr_count(wl, p), want, "{at}, node {p}");
                    assert_eq!(
                        sa.node_comm_time(wl, p, 16).to_bits(),
                        reference::node_comm_time(&sa, wl, p, 16).to_bits(),
                        "{at}, node {p}"
                    );
                }
                for k in [1, 16] {
                    assert_eq!(
                        sa.kernel_comm_time(wl, k).to_bits(),
                        reference::kernel_comm_time(&sa, wl, k).to_bits(),
                        "{at}"
                    );
                    assert_eq!(
                        sa.tail_goodput(wl, k).to_bits(),
                        reference::tail_goodput(&sa, wl, k).to_bits(),
                        "{at}"
                    );
                }
                let hybrid = HybridOptModel::new(sa);
                // The reference kernel time is the best of the first eight.
                let mut want_best = f64::INFINITY;
                for (i, threshold) in [u32::MAX, 128, 64, 32, 16, 8, 4, 2, 1, 0]
                    .into_iter()
                    .enumerate()
                {
                    let want = reference::hybrid_comm_time_at(&hybrid, wl, 16, threshold);
                    assert_eq!(
                        hybrid.comm_time_at(wl, 16, threshold).to_bits(),
                        want.to_bits(),
                        "{at}, threshold {threshold}"
                    );
                    if i < 8 {
                        want_best = want_best.min(want);
                    }
                }
                assert_eq!(
                    hybrid.kernel_comm_time(wl, 16).to_bits(),
                    want_best.to_bits(),
                    "{at}"
                );
                if hybrid.comm_time_at(wl, 16, 128) != hybrid.comm_time_at(wl, 16, u32::MAX) {
                    broadcast_at_128 += 1;
                }
            }
        }
        assert!(
            broadcast_at_128 > 0,
            "no workload broadcasts at threshold 128"
        );
    }

    #[test]
    fn pair_set_grows_and_empties() {
        let mut set = PairSet::default();
        // Enough keys to grow the table twice, each inserted twice.
        for round in 0..2 {
            for key in 0..3_000u64 {
                let key = ((key % 7) << 32) | (key.wrapping_mul(7_919) % 100_003);
                assert_eq!(set.insert(key), round == 0, "key {key:#x}");
            }
        }
        assert_eq!(set.filled.len(), 3_000);
        set.clear();
        assert!(set.filled.is_empty());
        assert!(set.slots.iter().all(|&s| s == PairSet::EMPTY));
        assert!(set.insert(5) && !set.insert(5));
    }

    fn two_node_wl() -> CommWorkload {
        let part = Partition1D::even(64, 2);
        // Node 0: eight remote refs, four unique; node 1: all local.
        let s0 = vec![32, 33, 32, 34, 35, 33, 32, 34, 1, 2];
        let s1 = vec![40, 41];
        CommWorkload::from_streams(part, vec![32, 32], vec![s0, s1])
    }

    #[test]
    fn suopt_charges_all_remote_properties() {
        let wl = two_node_wl();
        let m = SuOptModel::new(400.0);
        let t = m.kernel_comm_time(&wl, 16);
        // Each node receives 32 remote properties of 64 B.
        let expect = 32.0 * 64.0 * 8.0 / 400e9;
        assert!((t - expect).abs() < 1e-15);
    }

    #[test]
    fn saopt_prefilters_per_core() {
        let wl = two_node_wl();
        let mut m = SaOptModel::paper();
        m.cores = 1;
        // One core: perfect per-node filtering -> 4 unique PRs.
        assert_eq!(m.node_pr_count(&wl, 0), 4);
        m.cores = 2;
        // Rows (one idx each here) interleave across cores: core 0 sees
        // {32, 35} among its remote refs, core 1 sees {33, 34} -> 4 total.
        assert_eq!(m.node_pr_count(&wl, 0), 4);
        assert_eq!(m.node_pr_count(&wl, 1), 0);
        // Fewer rows per core than duplicates: duplicates now split across
        // cores and survive. 10 idxs over 2 rows of 5 -> row 0 and row 1
        // on different cores, idx 32 counted on both.
        let part = netsparse_sparse::Partition1D::even(64, 2);
        let wl2 = CommWorkload::from_streams(
            part,
            vec![2, 2],
            vec![vec![32, 33, 34, 35, 36, 32, 33, 34, 35, 36], vec![]],
        );
        assert_eq!(m.node_pr_count(&wl2, 0), 10);
    }

    #[test]
    fn saopt_goodput_scales_with_cores_and_k() {
        let m = SaOptModel::paper();
        assert!(m.goodput_fraction(64, 32) > m.goodput_fraction(8, 32));
        assert!(m.goodput_fraction(64, 128) > m.goodput_fraction(64, 32));
        // Calibration anchor: 64 cores at K=32 sits near 10 %.
        let g = m.goodput_fraction(64, 32);
        assert!((0.05..0.2).contains(&g), "goodput {g}");
        // Never above the line rate.
        assert!(m.goodput_fraction(10_000, 256) <= 1.0);
    }

    #[test]
    fn saopt_kernel_time_is_tail_node() {
        let wl = two_node_wl();
        let m = SaOptModel::paper();
        let t = m.kernel_comm_time(&wl, 16);
        assert!((t - m.node_comm_time(&wl, 0, 16)).abs() < 1e-18);
        assert!(m.tail_goodput(&wl, 16) > 0.0);
    }

    #[test]
    fn hybrid_never_loses_to_pure_sa_or_pure_broadcast() {
        let wl = two_node_wl();
        let sa = SaOptModel::paper();
        let hybrid = HybridOptModel::new(sa);
        let t_hybrid = hybrid.kernel_comm_time(&wl, 16);
        let t_sa = sa.kernel_comm_time(&wl, 16);
        // threshold MAX = pure SA is inside the sweep.
        assert!(t_hybrid <= t_sa + 1e-15);
        // Pure broadcast (threshold 0-ish) is approximated by threshold 2
        // here; the oracle sweep can only improve on any fixed point.
        let t_bcast = hybrid.comm_time_at(&wl, 16, 2);
        assert!(t_hybrid <= t_bcast + 1e-15);
    }

    #[test]
    fn hybrid_broadcasts_hot_columns() {
        // Column 32 needed by three nodes; 48 by one. With threshold 2,
        // only 32 is broadcast.
        let part = Partition1D::even(64, 4);
        let wl = CommWorkload::from_streams(
            part,
            vec![16; 4],
            vec![vec![32, 48], vec![32], vec![32], vec![]],
        );
        let hybrid = HybridOptModel::new(SaOptModel::paper());
        // Pure SA charges 5 PRs; threshold-2 hybrid charges the
        // broadcast of one column to 3 non-owners + 2 SA PRs.
        let t2 = hybrid.comm_time_at(&wl, 16, 2);
        let t_sa = hybrid.comm_time_at(&wl, 16, u32::MAX);
        assert!(t2 <= t_sa);
    }

    #[test]
    fn models_match_an_owner_based_count_with_an_empty_part() {
        // Remoteness is tested against each node's own range; check both
        // models against counts that ask `owner()` instead, on a
        // partition whose part 1 owns nothing (every idx is remote to it).
        let part = Partition1D::from_bounds(100, vec![0, 30, 30, 70, 100]);
        // Scrambled idxs over every column, with repeats.
        let streams: Vec<Vec<u32>> = (0..4u32)
            .map(|p| {
                (0..400u32)
                    .map(|i| (i * i * 31 + i * 7 + p * 13) % 100)
                    .collect()
            })
            .collect();
        let wl = CommWorkload::from_streams(part, vec![7, 3, 5, 1], streams);

        let mut sa = SaOptModel::paper();
        sa.cores = 3;
        for node in 0..4 {
            let stream = wl.stream(node);
            let row_len = (stream.len() / wl.rows_of(node) as usize).max(1);
            let mut seen = vec![HashSet::new(); 3];
            let mut expect = 0u64;
            for (row, slice) in stream.chunks(row_len).enumerate() {
                for &idx in slice {
                    if wl.owner(idx) != node && seen[row % 3].insert(idx) {
                        expect += 1;
                    }
                }
            }
            assert_eq!(sa.node_pr_count(&wl, node), expect, "node {node}");
        }
        assert!(
            sa.node_pr_count(&wl, 1) > 0,
            "the empty part reads remotely"
        );

        let su = SuOptModel::new(400.0);
        let su_received = (0..4)
            .map(|node| (0..100).filter(|&idx| wl.owner(idx) != node).count() as u64)
            .max()
            .unwrap();
        assert_eq!(su_received, 100, "the empty part receives every column");
        assert_eq!(su.kernel_comm_time(&wl, 16), su.comm_time(su_received, 16));
    }

    #[test]
    fn vanilla_sa_rates_match_table2_shape() {
        let m = VanillaSaModel::paper();
        // queen (1.0 dests) transfers faster than europe (7.43 dests).
        let queen = m.transfer_rate_gbps(32, 1.0);
        let europe = m.transfer_rate_gbps(32, 7.43);
        assert!(queen > europe);
        // Absolute range: a few tenths of a Gbps (Table 2: 0.2–0.7).
        assert!((0.1..1.5).contains(&queen), "queen {queen}");
        assert!((0.05..0.5).contains(&europe), "europe {europe}");
        // Line utilization well under 1 %.
        assert!(m.line_utilization(32, 2.51) < 0.01);
    }
}
