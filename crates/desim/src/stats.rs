//! Measurement utilities shared by every model in the workspace:
//!
//! - [`Histogram`] — distributions (PRs per packet, queue depths…),
//! - [`Reservoir`] — a bounded sample for percentiles (PR latencies).

/// A streaming histogram that records count, sum, min, max, and mean without
/// storing samples.
///
/// # Example
///
/// ```
/// use netsparse_desim::Histogram;
/// let mut h = Histogram::new();
/// for v in [2, 4, 6] { h.record(v); }
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.mean(), 4.0);
/// assert_eq!(h.min(), Some(2));
/// assert_eq!(h.max(), Some(6));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: Option<u64>,
    max: Option<u64>,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum += value;
        self.min = Some(self.min.map_or(value, |m| m.min(value)));
        self.max = Some(self.max.map_or(value, |m| m.max(value)));
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of the samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample, if any were recorded.
    pub fn min(&self) -> Option<u64> {
        self.min
    }

    /// Largest sample, if any were recorded.
    pub fn max(&self) -> Option<u64> {
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

/// A bounded-memory sample reservoir for percentile estimates.
///
/// Keeps up to `capacity` samples via Vitter's Algorithm R; quantiles are
/// computed over the retained sample. Used for per-PR latency
/// distributions, where storing every sample would dwarf the simulation
/// state.
///
/// # Example
///
/// ```
/// use netsparse_desim::stats::Reservoir;
/// let mut r = Reservoir::new(100, 7);
/// for v in 0..1000u64 { r.record(v); }
/// let p50 = r.quantile(0.5).unwrap();
/// assert!((300..700).contains(&p50));
/// ```
#[derive(Debug, Clone)]
pub struct Reservoir {
    capacity: usize,
    samples: Vec<u64>,
    seen: u64,
    rng: crate::rng::SplitMix64,
}

impl Reservoir {
    /// Creates a reservoir retaining up to `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, seed: u64) -> Self {
        assert!(capacity > 0, "reservoir needs capacity");
        Reservoir {
            capacity,
            samples: Vec::with_capacity(capacity),
            seen: 0,
            rng: crate::rng::SplitMix64::new(seed),
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.seen += 1;
        if self.samples.len() < self.capacity {
            self.samples.push(value);
        } else {
            let j = self.rng.next_range(self.seen);
            if (j as usize) < self.capacity {
                self.samples[j as usize] = value;
            }
        }
    }

    /// Total samples offered (not retained).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) over the retained sample, or `None`
    /// if empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
        Some(sorted[rank])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_tracks_summary_stats() {
        let mut h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        for v in [5, 1, 9, 5] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 20);
        assert_eq!(h.mean(), 5.0);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(9));
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        a.record(2);
        let mut b = Histogram::new();
        b.record(10);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(2));
        assert_eq!(a.max(), Some(10));
        let mut empty = Histogram::new();
        empty.merge(&a);
        assert_eq!(empty.count(), 2);
    }

    #[test]
    fn reservoir_is_exact_under_capacity() {
        let mut r = Reservoir::new(10, 1);
        for v in [5u64, 1, 9] {
            r.record(v);
        }
        assert_eq!(r.quantile(0.0), Some(1));
        assert_eq!(r.quantile(1.0), Some(9));
        assert_eq!(r.quantile(0.5), Some(5));
        assert_eq!(r.seen(), 3);
    }

    #[test]
    fn reservoir_tracks_distribution_over_capacity() {
        let mut r = Reservoir::new(500, 2);
        for v in 0..100_000u64 {
            r.record(v);
        }
        let p50 = r.quantile(0.5).unwrap() as f64;
        assert!((30_000.0..70_000.0).contains(&p50), "{p50}");
        let p99 = r.quantile(0.99).unwrap() as f64;
        assert!(p99 > 90_000.0, "{p99}");
    }

    #[test]
    fn reservoir_empty_quantile_is_none() {
        assert_eq!(Reservoir::new(4, 0).quantile(0.5), None);
    }
}
