//! Summary statistics over timing samples, and the process's peak memory.

/// Order statistics of a sample of timings.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// The highest of p99/p95/p90/p75 with at least ten samples beyond
    /// it, as `(percentile, value)`; `None` below 40 samples.
    pub tail: Option<(u32, f64)>,
}

impl Summary {
    /// Summarises `samples` (which must be nonempty).
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "summary of an empty sample");
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let tail = [99u32, 95, 90, 75]
            .into_iter()
            .find(|&p| s.len() as f64 * (100 - p) as f64 / 100.0 >= 10.0)
            .map(|p| (p, quantile(&s, p as f64 / 100.0)));
        Summary {
            n: s.len(),
            q1: quantile(&s, 0.25),
            median: quantile(&s, 0.5),
            q3: quantile(&s, 0.75),
            tail,
        }
    }
}

/// Linear-interpolation quantile of a sorted, nonempty sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The process's peak resident set (`VmHWM`) in MiB, if the platform
/// exposes it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 3.0, 4.0));
        assert_eq!(Summary::of(&[1.0, 2.0]).median, 1.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (0..39).map(f64::from).collect();
        assert!(Summary::of(&few).tail.is_none());
        let many: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(Summary::of(&many).tail.map(|t| t.0), Some(95));
    }
}
