//! Minimal criterion-compatible micro-benchmark harness.
//!
//! The build environment is fully offline, so the real `criterion` crate is
//! unavailable; this module reimplements the slice of its API that the
//! benches in `benches/` use (`Criterion`, groups, `Throughput`,
//! `BenchmarkId`, `black_box`, and the `criterion_group!`/`criterion_main!`
//! macros). Timing uses wall-clock deliberately — benches measure the *host*,
//! not simulated time — so this one module of the library expects
//! `clippy::disallowed_types`.
//!
//! Each benchmark runs a calibration pass to pick an iteration count that
//! fills a modest measurement window, then reports mean ns/iter and
//! throughput when configured. No statistics beyond the mean: this harness
//! exists so `cargo bench` keeps working offline, not to replace criterion's
//! analysis.

#![expect(
    clippy::disallowed_types,
    reason = "the harness times host execution; wall time is the quantity it measures"
)]

use std::time::{Duration, Instant};

/// Re-export-compatible opaque-value barrier.
#[inline]
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Throughput annotation for a benchmark group.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A parameterized benchmark identifier, e.g. `scale/64`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// Creates an id from a function name and a parameter value.
    pub fn new(function: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            name: format!("{}/{}", function.into(), parameter),
        }
    }

    /// Creates an id from a parameter value alone.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            name: parameter.to_string(),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name)
    }
}

/// The timing loop handed to benchmark closures.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `f` over the calibrated number of iterations.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

/// Top-level harness; owns global configuration.
pub struct Criterion {
    sample_size: usize,
    measurement_window: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 10,
            measurement_window: Duration::from_millis(200),
        }
    }
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    #[expect(
        clippy::print_stdout,
        reason = "the console reporter prints group headers"
    )]
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\n== {name} ==");
        BenchmarkGroup {
            criterion: self,
            _name: name,
            throughput: None,
            sample_size: None,
        }
    }
}

/// A group of benchmarks sharing throughput/sample configuration.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    _name: String,
    throughput: Option<Throughput>,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Sets the per-iteration throughput used in reports.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Overrides the number of measurement samples.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n);
        self
    }

    /// Runs a simple benchmark.
    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run(&id.to_string(), &mut f);
        self
    }

    /// Runs a benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.run(&id.to_string(), &mut |b: &mut Bencher| f(b, input));
        self
    }

    /// Ends the group (provided for criterion compatibility).
    pub fn finish(&mut self) {}

    #[expect(
        clippy::print_stdout,
        reason = "the console reporter prints one row per benchmark"
    )]
    fn run(&mut self, label: &str, f: &mut dyn FnMut(&mut Bencher)) {
        // Calibrate: find an iteration count filling ~1/4 of the window.
        let mut iters = 1u64;
        loop {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            if b.elapsed * 4 >= self.criterion.measurement_window || iters >= 1 << 24 {
                break;
            }
            iters = iters.saturating_mul(2);
        }
        let samples = self
            .sample_size
            .unwrap_or(self.criterion.sample_size)
            .max(1);
        let mut total = Duration::ZERO;
        let mut total_iters = 0u64;
        for _ in 0..samples {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            total += b.elapsed;
            total_iters += b.iters;
        }
        let ns_per_iter = total.as_nanos() as f64 / total_iters.max(1) as f64;
        let rate = self.throughput.map(|t| match t {
            Throughput::Elements(n) => format!(" ({:.1} Melem/s)", n as f64 / ns_per_iter * 1e3),
            Throughput::Bytes(n) => {
                format!(" ({:.1} MiB/s)", n as f64 / ns_per_iter * 1e3 / 1.048_576)
            }
        });
        println!(
            "  {label:<40} {ns_per_iter:>12.1} ns/iter{}",
            rate.unwrap_or_default()
        );
    }
}

/// Collects benchmark functions into a named group runner, mirroring
/// criterion's macro of the same name.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::microbench::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Emits `main` running each group, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
