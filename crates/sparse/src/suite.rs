//! Calibrated stand-ins for the paper's five benchmark matrices.
//!
//! The paper evaluates on arabic-2005, europe_osm, queen_4147, stokes and
//! uk-2002 from SuiteSparse (Table 6) — matrices with 10⁸–10⁹ nonzeros that
//! are impractical to simulate (or ship) here. All of NetSparse's results,
//! however, are driven by each matrix's *communication signature*, not its
//! absolute size:
//!
//! - the fraction of nonzeros referencing remote columns,
//! - the per-node **reuse** of each remote column (→ filtering/coalescing),
//! - the **SU redundancy** (how few of all columns a node actually needs),
//! - **temporal destination locality** (Table 4 → concatenation),
//! - **rack-level sharing** of needed columns (→ Property Cache), and
//! - per-node skew of remote traffic (→ Figure 19 imbalance).
//!
//! This module generates, at a configurable scale, per-node idx streams
//! whose measured signatures land on the paper's reported values (Table 1,
//! Table 4). The generator is a stochastic process, documented field by
//! field on [`Signature`]:
//!
//! 1. each nonzero is remote with probability `remote_frac` (node-skewed),
//! 2. the destination node follows a Markov process with stay probability
//!    derived from the Table 4 window statistic, over a matrix-specific
//!    destination shape (banded / geometric / power-law / strided),
//! 3. within a destination, columns come from a *drifting working set*: a
//!    slot counter advances once every `reuse` draws, so each distinct
//!    column is referenced ~`reuse` times in a temporally clustered burst
//!    (what makes both coalescing and caching behave like the real
//!    matrices), and
//! 4. slots map to concrete columns through either a rack-shared or a
//!    node-private hash, with `share_p` controlling how much of a rack's
//!    demand overlaps (→ Property Cache hit potential).

use netsparse_desim::SplitMix64;
use std::fmt;
use std::str::FromStr;

use crate::comm::CommWorkload;
use crate::partition::Partition1D;

/// One of the paper's five benchmark matrices (Table 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SuiteMatrix {
    /// `arabic-2005` — web crawl; 23 M rows, 640 M nnz. Dense-ish, strong
    /// URL locality, heavy column reuse.
    Arabic,
    /// `europe_osm` — road network; 51 M rows, 108 M nnz. Extremely sparse,
    /// almost no column reuse.
    Europe,
    /// `queen_4147` — 3D structural FEM; 4 M rows, 317 M nnz. Banded:
    /// every remote reference targets a neighbouring node.
    Queen,
    /// `stokes` — coupled flow problem; 11 M rows, 350 M nnz. Block
    /// structure with strided couplings.
    Stokes,
    /// `uk-2002` — web crawl; 19 M rows, 298 M nnz. Power-law with weaker
    /// locality than arabic.
    Uk,
}

impl SuiteMatrix {
    /// All five matrices, in the paper's column order.
    pub const ALL: [SuiteMatrix; 5] = [
        SuiteMatrix::Arabic,
        SuiteMatrix::Europe,
        SuiteMatrix::Queen,
        SuiteMatrix::Stokes,
        SuiteMatrix::Uk,
    ];

    /// Short lowercase name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            SuiteMatrix::Arabic => "arabic",
            SuiteMatrix::Europe => "europe",
            SuiteMatrix::Queen => "queen",
            SuiteMatrix::Stokes => "stokes",
            SuiteMatrix::Uk => "uk",
        }
    }

    /// The calibrated communication signature for this matrix.
    ///
    /// `remote_frac`, `reuse` and `su_redundancy` are derived from the
    /// paper's Tables 1 and 6 (see module docs for the arithmetic);
    /// `window_dests` is Table 4 directly; `share_p` and `skew` are tuned
    /// so rack sharing and Figure 19 imbalance land near reported values.
    pub fn signature(self) -> Signature {
        match self {
            SuiteMatrix::Arabic => Signature {
                matrix: self,
                paper_rows_m: 23.0,
                paper_nnz_m: 640.0,
                base_nnz_per_node: 131_072,
                remote_frac: 0.066,
                reuse: 28.0,
                su_redundancy: 1947.0,
                window_dests: 2.51,
                dest_shape: DestShape::GeomDecay { rho: 0.45 },
                share_p: 0.65,
                skew: 0.55,
                nnz_skew: 0.30,
                far_revisit: 0.55,
                hub_frac: 0.15,
                n_hubs: 4,
            },
            SuiteMatrix::Europe => Signature {
                matrix: self,
                paper_rows_m: 51.0,
                paper_nnz_m: 108.0,
                base_nnz_per_node: 98_304,
                remote_frac: 0.105,
                reuse: 1.02,
                su_redundancy: 582.0,
                window_dests: 7.43,
                dest_shape: DestShape::GeomDecay { rho: 0.75 },
                share_p: 0.10,
                skew: 0.40,
                nnz_skew: 0.22,
                far_revisit: 0.05,
                hub_frac: 0.0,
                n_hubs: 0,
            },
            SuiteMatrix::Queen => Signature {
                matrix: self,
                paper_rows_m: 4.0,
                paper_nnz_m: 317.0,
                base_nnz_per_node: 131_072,
                remote_frac: 0.573,
                reuse: 26.0,
                su_redundancy: 74.0,
                window_dests: 1.0,
                dest_shape: DestShape::GeomDecay { rho: 0.45 },
                share_p: 0.95,
                skew: 0.05,
                nnz_skew: 0.05,
                far_revisit: 0.10,
                hub_frac: 0.0,
                n_hubs: 0,
            },
            SuiteMatrix::Stokes => Signature {
                matrix: self,
                paper_rows_m: 11.0,
                paper_nnz_m: 350.0,
                base_nnz_per_node: 131_072,
                remote_frac: 0.557,
                reuse: 4.6,
                su_redundancy: 32.0,
                window_dests: 1.85,
                dest_shape: DestShape::Strided {
                    stride: 16,
                    far_frac: 0.35,
                    near_width: 3,
                },
                share_p: 0.15,
                skew: 0.45,
                nnz_skew: 0.25,
                far_revisit: 0.15,
                hub_frac: 0.0,
                n_hubs: 0,
            },
            SuiteMatrix::Uk => Signature {
                matrix: self,
                paper_rows_m: 19.0,
                paper_nnz_m: 298.0,
                base_nnz_per_node: 131_072,
                remote_frac: 0.045,
                reuse: 5.5,
                su_redundancy: 966.0,
                window_dests: 5.61,
                dest_shape: DestShape::PowerLaw { alpha: 1.4 },
                share_p: 0.60,
                skew: 0.60,
                nnz_skew: 0.35,
                far_revisit: 0.45,
                hub_frac: 0.20,
                n_hubs: 6,
            },
        }
    }

    /// Generates the workload with a default 128-node configuration.
    pub fn workload(self, scale: f64, seed: u64) -> CommWorkload {
        SuiteConfig {
            matrix: self,
            scale,
            seed,
            ..SuiteConfig::default_for(self)
        }
        .generate()
    }
}

impl fmt::Display for SuiteMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown matrix name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSuiteMatrixError(String);

impl fmt::Display for ParseSuiteMatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown matrix '{}' (expected arabic|europe|queen|stokes|uk)",
            self.0
        )
    }
}

impl std::error::Error for ParseSuiteMatrixError {}

impl FromStr for SuiteMatrix {
    type Err = ParseSuiteMatrixError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        SuiteMatrix::ALL
            .iter()
            .copied()
            .find(|m| m.name() == s.to_ascii_lowercase())
            .ok_or_else(|| ParseSuiteMatrixError(s.to_string()))
    }
}

/// The distribution of remote destination nodes, relative to the requester.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DestShape {
    /// Only nodes within `width` of the requester (banded matrices).
    Neighbor {
        /// Maximum node distance.
        width: u32,
    },
    /// Node distance `d ≥ 1` with probability ∝ `rho^d` (diagonal-heavy
    /// matrices with exponentially decaying fringe).
    GeomDecay {
        /// Decay ratio per node of distance, in `(0, 1)`.
        rho: f64,
    },
    /// Node distance `d ≥ 1` with probability ∝ `d^-alpha` (web graphs
    /// whose links reach across the whole id space).
    PowerLaw {
        /// Tail exponent, > 1.
        alpha: f64,
    },
    /// Mostly nearby nodes (distance 1..=`near_width`), with a `far_frac`
    /// fraction at a fixed `stride` (block-coupled physical problems).
    Strided {
        /// Far-coupling distance in nodes.
        stride: u32,
        /// Fraction of remote references using the far coupling.
        far_frac: f64,
        /// Maximum distance of the near couplings.
        near_width: u32,
    },
}

/// The communication signature a suite matrix is generated from.
///
/// All rates are in "paper space": they are preserved exactly as the scale
/// changes (pools shrink proportionally with the nonzero count).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Signature {
    /// Which matrix this signature describes.
    pub matrix: SuiteMatrix,
    /// Rows of the real matrix, in millions (Table 6; provenance only).
    pub paper_rows_m: f64,
    /// Nonzeros of the real matrix, in millions (Table 6; provenance only).
    pub paper_nnz_m: f64,
    /// Nonzeros per node at `scale = 1.0`.
    pub base_nnz_per_node: usize,
    /// Fraction of nonzeros that reference a remotely owned column.
    pub remote_frac: f64,
    /// Average references per distinct remote column per node
    /// (1 + Table 1 SA redundancy).
    pub reuse: f64,
    /// Redundant SU transfers per useful transfer (Table 1 SU row).
    pub su_redundancy: f64,
    /// Average unique destinations per 64 consecutive PRs (Table 4).
    pub window_dests: f64,
    /// Destination-node distribution shape.
    pub dest_shape: DestShape,
    /// Probability a column slot is drawn from the rack-shared pool.
    pub share_p: f64,
    /// Log-normal sigma of per-node remote-traffic skew.
    pub skew: f64,
    /// Log-normal sigma of per-node nonzero-count skew (drives compute
    /// imbalance: the paper's ideal strong-scaling tops out near 72x on
    /// 128 nodes because row blocks carry unequal nonzeros).
    pub nnz_skew: f64,
    /// Fraction of repeat draws that revisit a *long-past* column instead
    /// of the current working-set burst. Real matrices reuse columns at
    /// two timescales: adjacent rows (caught in-flight by coalescing) and
    /// far-apart rows (caught by the Idx Filter once the first response
    /// has landed). Table 8's Filter-vs-Coalesce split follows from this
    /// mix.
    pub far_revisit: f64,
    /// Fraction of destination draws that target one of `n_hubs` global
    /// hub nodes instead of the local shape. Web crawls concentrate
    /// popular columns (hubs) on a few owner nodes; their uplinks become
    /// hot, which is what the in-switch Property Cache relieves (§6.2,
    /// Figure 18).
    pub hub_frac: f64,
    /// Number of global hub nodes (0 disables hubs).
    pub n_hubs: u32,
}

/// Full generation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuiteConfig {
    /// Which matrix to generate.
    pub matrix: SuiteMatrix,
    /// Number of cluster nodes (paper: 128).
    pub nodes: u32,
    /// Nodes per rack (paper: 16) — defines the rack-shared pools.
    pub rack_size: u32,
    /// Scale factor on nonzeros per node (1.0 ≈ 128 k nnz/node).
    pub scale: f64,
    /// RNG seed; the generator is fully deterministic given the config.
    pub seed: u64,
}

impl SuiteConfig {
    /// The default 128-node, rack-of-16 configuration for `matrix`.
    pub fn default_for(matrix: SuiteMatrix) -> Self {
        SuiteConfig {
            matrix,
            nodes: 128,
            rack_size: 16,
            scale: 1.0,
            seed: 0x5EED_2025,
        }
    }

    /// Generates the workload for this configuration.
    ///
    /// # Panics
    ///
    /// Panics if `nodes < 2`, `rack_size == 0`, or `scale <= 0`.
    pub fn generate(&self) -> CommWorkload {
        generate(self)
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash of a (key, dest, slot) triple into 64 bits; used to map working-set
/// slots onto concrete columns so repeats of the same slot — within a node
/// or across a rack — land on the same column.
fn slot_hash(key: u64, dest: u32, slot: u64) -> u64 {
    splitmix(key ^ splitmix((dest as u64) << 32 ^ slot))
}

fn sample_dest(shape: DestShape, p: u32, nodes: u32, rng: &mut SplitMix64) -> u32 {
    debug_assert!(nodes >= 2);
    for _ in 0..64 {
        let (dist, up): (u32, bool) = match shape {
            DestShape::Neighbor { width } => {
                (rng.range_u32_inclusive(1, width.max(1)), rng.next_bool())
            }
            DestShape::GeomDecay { rho } => {
                let u: f64 = rng.next_f64_open();
                let d = 1 + (u.ln() / rho.ln()).floor() as u32;
                (d.min(nodes - 1), rng.next_bool())
            }
            DestShape::PowerLaw { alpha } => {
                // Inverse-CDF over d in [1, nodes): P(d) ∝ d^-alpha.
                let u: f64 = rng.next_f64();
                let one_m = 1.0 - alpha;
                let nmax = (nodes - 1) as f64;
                let d = if (one_m).abs() < 1e-9 {
                    nmax.powf(u)
                } else {
                    (1.0 + u * (nmax.powf(one_m) - 1.0)).powf(1.0 / one_m)
                };
                ((d.floor() as u32).clamp(1, nodes - 1), rng.next_bool())
            }
            DestShape::Strided {
                stride,
                far_frac,
                near_width,
            } => {
                if rng.chance(far_frac) {
                    (stride.max(1), rng.next_bool())
                } else {
                    (
                        rng.range_u32_inclusive(1, near_width.max(1)),
                        rng.next_bool(),
                    )
                }
            }
        };
        let cand = if up {
            p.checked_add(dist).filter(|&d| d < nodes)
        } else {
            p.checked_sub(dist)
        };
        if let Some(d) = cand {
            return d;
        }
        // Out of range (node near an edge): try the other direction once.
        let cand = if up {
            p.checked_sub(dist)
        } else {
            Some(p + dist)
        };
        if let Some(d) = cand.filter(|&d| d < nodes) {
            return d;
        }
    }
    // Degenerate fallback: adjacent node.
    if p + 1 < nodes {
        p + 1
    } else {
        p - 1
    }
}

/// Generates a calibrated workload (see module docs for the model).
///
/// # Panics
///
/// Panics if `cfg.nodes < 2`, `cfg.rack_size == 0`, or `cfg.scale <= 0`.
pub fn generate(cfg: &SuiteConfig) -> CommWorkload {
    assert!(cfg.nodes >= 2, "need at least 2 nodes");
    assert!(cfg.rack_size > 0, "rack size must be nonzero");
    assert!(
        cfg.scale > 0.0 && cfg.scale.is_finite(),
        "scale must be positive"
    );
    let sig = cfg.matrix.signature();
    let nodes = cfg.nodes;
    let nnz_per_node = ((sig.base_nnz_per_node as f64 * cfg.scale) as usize).max(256);

    let mut rng = SplitMix64::new(cfg.seed ^ splitmix(cfg.matrix as u64 + 1));

    // Per-node skews: lognormal, normalized to mean 1. `skew` scales each
    // node's remote-reference rate; `nnz_skew` scales its nonzero count
    // (compute imbalance).
    let lognormal = |rng: &mut SplitMix64, sigma: f64| -> Vec<f64> {
        let mean_correction = (sigma * sigma / 2.0).exp();
        (0..nodes)
            .map(|_| {
                // Box-Muller.
                let u1: f64 = rng.next_f64_open();
                let u2: f64 = rng.next_f64();
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                ((sigma * z).exp() / mean_correction).clamp(0.05, 8.0)
            })
            .collect()
    };
    let skew_f = lognormal(&mut rng, sig.skew);
    let nnz_f = lognormal(&mut rng, sig.nnz_skew);

    // Column-space size from the SU redundancy target: per node, the SU
    // schedule delivers (n - n/nodes) properties of which U are useful, so
    // n = U * (R + 1) * nodes / (nodes - 1).
    let u_avg = (nnz_per_node as f64 * sig.remote_frac / sig.reuse).max(1.0);
    let n_cols = ((u_avg * (sig.su_redundancy + 1.0) * nodes as f64 / (nodes - 1) as f64).ceil()
        as u64)
        .max(nodes as u64 * 64)
        .min(u32::MAX as u64 / 2) as u32;
    let partition = Partition1D::even(n_cols, nodes);

    // Markov stay-probability from the Table 4 window statistic: in a
    // window of W PRs there are ~1 + (W-1)(1-q) destination switches.
    let w = 64.0;
    // In a window of W PRs there are ~1 + (W-1)(1-q) destination switches,
    // but only a fraction of switches land on a dest *new to the window*
    // (the shapes re-draw near dests often); 0.75 is that fraction,
    // measured over the four shapes. Clamped strictly below 1: even a
    // perfectly single-destination window statistic (queen) must
    // eventually visit its other neighbours, or the whole run would
    // collapse onto one destination pool.
    let stay_q = (1.0 - (sig.window_dests - 1.0) / ((w - 1.0) * 0.75)).clamp(0.0, 0.999);

    let mut streams: Vec<Vec<u32>> = Vec::with_capacity(nodes as usize);
    let mut rows_per_node = Vec::with_capacity(nodes as usize);

    for p in 0..nodes {
        rows_per_node.push(partition.part_len(p));
        let rf = (sig.remote_frac * skew_f[p as usize]).min(0.95);
        let nnz_p = ((nnz_per_node as f64 * nnz_f[p as usize]) as usize).max(64);
        let own = partition.range(p);
        let rack = (p / cfg.rack_size) as u64;
        let mut stream = Vec::with_capacity(nnz_p);
        // Working-set draw counters, one per destination node.
        let mut draws: Vec<u64> = vec![0; nodes as usize];
        let mut current_dest: Option<u32> = None;
        // Width of the live working-set window, in slots. Kept tiny: the
        // window only exists to cluster repeats of a slot in time (so some
        // repeats land while the first PR is still in flight and get
        // *coalesced* rather than *filtered*). For near-reuse-free
        // matrices (europe) even a width of 2 would manufacture repeats,
        // so the window collapses to 1 slot there.
        let jitter_w: u64 = if sig.reuse < 2.0 { 1 } else { 2 };

        for _ in 0..nnz_p {
            if rng.chance(rf) {
                // Remote reference: maybe switch destination.
                let dest = match current_dest {
                    Some(d) if rng.chance(stay_q) => d,
                    _ => {
                        if sig.n_hubs > 0 && rng.chance(sig.hub_frac) {
                            // Hub homes are fixed per matrix (seed-drawn).
                            let h = rng.range_u32(0, sig.n_hubs) as u64;
                            let hub = (slot_hash(0x4B5, sig.n_hubs, h) % nodes as u64) as u32;
                            if hub != p {
                                hub
                            } else {
                                sample_dest(sig.dest_shape, p, nodes, &mut rng)
                            }
                        } else {
                            sample_dest(sig.dest_shape, p, nodes, &mut rng)
                        }
                    }
                };
                current_dest = Some(dest);
                // Drifting working set: slot base advances every `reuse`
                // draws; jitter keeps a small active window live.
                let t = draws[dest as usize];
                draws[dest as usize] += 1;
                let base = (t as f64 / sig.reuse) as u64;
                // A repeat draw either stays in the current burst window
                // (temporally clustered -> coalescing territory) or
                // revisits an older column (Idx Filter territory).
                let in_burst = (t as f64 % sig.reuse) >= 1.0;
                let slot = if in_burst && base > 0 && rng.chance(sig.far_revisit) {
                    rng.range_u64(0, base)
                } else {
                    base + rng.range_u64(0, jitter_w)
                };
                // Shared-vs-private decision must be node-independent so a
                // shared slot means the same column to everyone in the rack.
                let shared =
                    ((slot_hash(0xC0FFEE, dest, slot) % 10_000) as f64) < sig.share_p * 10_000.0;
                let key = if shared {
                    0x5AC0_0000 + rack
                } else {
                    0x0DE0_0000 + p as u64
                };
                let dr = partition.range(dest);
                let width = (dr.end - dr.start).max(1) as u64;
                // Affine *bijection* from slots onto the destination's
                // column range (a hash would birthday-collide once the
                // working set approaches the range width, silently
                // inflating reuse). The random phase separates the shared
                // and private sequences.
                let phase = slot_hash(key, dest, 0) % width;
                let col = dr.start + ((slot + phase) % width) as u32;
                stream.push(col);
            } else {
                // Local reference.
                let col = rng.range_u32(own.start, own.end.max(own.start + 1));
                stream.push(col.min(n_cols - 1));
            }
        }
        streams.push(stream);
    }

    CommWorkload::from_streams(partition, rows_per_node, streams)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(m: SuiteMatrix) -> CommWorkload {
        SuiteConfig {
            matrix: m,
            nodes: 32,
            rack_size: 8,
            scale: 0.05,
            seed: 7,
        }
        .generate()
    }

    /// A scale large enough for reuse/redundancy statistics to converge;
    /// the signature rates are per-draw, so small workloads undershoot
    /// reuse (each destination's working set has barely started drifting).
    fn medium(m: SuiteMatrix) -> CommWorkload {
        SuiteConfig {
            matrix: m,
            nodes: 64,
            rack_size: 16,
            scale: 0.3,
            seed: 7,
        }
        .generate()
    }

    #[test]
    fn generator_is_deterministic() {
        let a = tiny(SuiteMatrix::Arabic);
        let b = tiny(SuiteMatrix::Arabic);
        assert_eq!(a.stream(3), b.stream(3));
        assert_eq!(a.n_cols(), b.n_cols());
    }

    #[test]
    fn remote_fraction_lands_near_target() {
        for m in SuiteMatrix::ALL {
            let wl = tiny(m);
            let stats = wl.pattern_stats();
            let target = m.signature().remote_frac;
            let measured = stats.remote_fraction();
            // Lognormal skew and clamping allow some drift.
            assert!(
                (measured - target).abs() / target < 0.5,
                "{m}: remote_frac measured {measured}, target {target}"
            );
        }
    }

    #[test]
    fn reuse_lands_near_target() {
        for m in SuiteMatrix::ALL {
            let wl = medium(m);
            let stats = wl.pattern_stats();
            let target = m.signature().reuse;
            let measured = stats.reuse();
            assert!(
                measured / target < 2.5 && target / measured < 2.5,
                "{m}: reuse measured {measured}, target {target}"
            );
        }
    }

    #[test]
    fn queen_has_single_destination_windows() {
        let wl = tiny(SuiteMatrix::Queen);
        let l = wl.dest_locality(64);
        assert!(l < 1.6, "queen window dests {l}");
    }

    #[test]
    fn europe_has_spread_destinations() {
        let wl = tiny(SuiteMatrix::Europe);
        let l = wl.dest_locality(64);
        assert!(l > 3.0, "europe window dests {l}");
    }

    #[test]
    fn su_redundancy_ordering_matches_paper() {
        // Paper Table 1: arabic > uk > europe > queen > stokes.
        let r: Vec<f64> = SuiteMatrix::ALL
            .iter()
            .map(|&m| medium(m).pattern_stats().su_redundancy())
            .collect();
        let (arabic, europe, queen, stokes, uk) = (r[0], r[1], r[2], r[3], r[4]);
        assert!(
            arabic > uk && uk > europe && europe > queen && queen > stokes,
            "SU redundancy ordering violated: {r:?}"
        );
    }

    #[test]
    fn rack_sharing_higher_for_shared_matrices() {
        let arabic = tiny(SuiteMatrix::Arabic).rack_sharing(8);
        let europe = tiny(SuiteMatrix::Europe).rack_sharing(8);
        assert!(
            arabic > europe,
            "arabic sharing {arabic} should exceed europe {europe}"
        );
    }

    #[test]
    fn matrix_names_roundtrip() {
        for m in SuiteMatrix::ALL {
            assert_eq!(m.name().parse::<SuiteMatrix>().unwrap(), m);
        }
        assert!("foo".parse::<SuiteMatrix>().is_err());
    }

    #[test]
    fn all_streams_in_bounds() {
        let wl = tiny(SuiteMatrix::Stokes);
        for p in 0..wl.nodes() {
            for &idx in wl.stream(p) {
                assert!(idx < wl.n_cols());
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least 2 nodes")]
    fn single_node_rejected() {
        SuiteConfig {
            matrix: SuiteMatrix::Arabic,
            nodes: 1,
            rack_size: 1,
            scale: 0.1,
            seed: 0,
        }
        .generate();
    }
}
