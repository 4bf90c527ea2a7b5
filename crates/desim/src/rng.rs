//! A tiny deterministic PRNG — the *only* source of randomness in the
//! simulation stack.
//!
//! Every random decision in the workspace, from workload generation in
//! `netsparse-sparse` down to fault injection and sampled statistics, draws
//! from this SplitMix64 so that simulations are bit-reproducible functions
//! of their seeds across machines and Rust versions. Foreign RNGs cannot
//! enter: `tests/manifests.rs` admits only path packages, and clippy's
//! `disallowed_types` rejects std's randomly seeded `RandomState` (and the
//! hash containers whose order it scrambles) in every library crate; see
//! `docs/STATIC_ANALYSIS.md`.

/// SplitMix64: a fast, high-quality 64-bit PRNG with a single `u64` of
/// state. It is the generator Java's `SplittableRandom` and many simulators
/// use for seeding.
///
/// # Example
///
/// ```
/// use netsparse_desim::SplitMix64;
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// let x = a.next_range(10);
/// assert!(x < 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Any seed (including 0) is valid.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a uniform value in `[0, bound)` using Lemire's multiply-shift
    /// reduction (slightly biased for astronomically large bounds, which is
    /// fine for simulation decisions).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn next_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_range: bound must be nonzero");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Returns a uniform `u32` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        assert!(lo < hi, "range_u32: empty range {lo}..{hi}");
        lo + self.next_range((hi - lo) as u64) as u32
    }

    /// Returns a uniform `u32` in `[lo, hi]` (inclusive upper bound).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn range_u32_inclusive(&mut self, lo: u32, hi: u32) -> u32 {
        assert!(lo <= hi, "range_u32_inclusive: empty range {lo}..={hi}");
        lo + self.next_range((hi - lo) as u64 + 1) as u32
    }

    /// Returns a uniform `u64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "range_u64: empty range {lo}..{hi}");
        lo + self.next_range(hi - lo)
    }

    /// Returns a uniform random `bool`.
    #[inline]
    pub fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform `f64` in `(0, 1]` — safe to feed to `ln()`.
    #[inline]
    pub fn next_f64_open(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are not finite or `lo >= hi`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo < hi && lo.is_finite() && hi.is_finite(),
            "range_f64: invalid range {lo}..{hi}"
        );
        lo + self.next_f64() * (hi - lo)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SplitMix64::new(123);
        let mut b = SplitMix64::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn range_respects_bound() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            assert!(r.next_range(13) < 13);
        }
    }

    #[test]
    fn f64_is_unit_interval_and_roughly_uniform() {
        let mut r = SplitMix64::new(99);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn chance_matches_probability() {
        let mut r = SplitMix64::new(5);
        let hits = (0..100_000).filter(|_| r.chance(0.25)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01, "frac {frac}");
    }

    #[test]
    #[should_panic(expected = "bound must be nonzero")]
    fn zero_bound_panics() {
        SplitMix64::new(0).next_range(0);
    }
}
