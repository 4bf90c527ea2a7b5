//! Command-line options shared by the bench binaries.

use std::num::NonZeroUsize;
use std::str::FromStr;

/// The options [`BenchOpts::from_args`] accepts, as a usage fragment.
pub const OPTIONS_USAGE: &str =
    "[--scale f64] [--seed u64] [--quick] [--paper] [--workers n] [--parallel]";

/// Options for a bench run.
///
/// `repro` and `bench_sweep` accept:
///
/// - `--scale <f64>`: workload scale factor, finite and positive (default
///   1.0 ≈ 128 k nonzeros/node; the paper's matrices are ~40x larger),
/// - `--seed <u64>`: generator seed (default 2025),
/// - `--quick`: quarter-scale run for fast sanity checks,
/// - `--paper`: use the verbatim Table 5 machine (400 Gbps, real
///   latencies, 32 MB caches) instead of the scaled `mini` profile.
///   Orderings still hold, but fixed costs claim a larger share of the
///   scaled-down kernels, so magnitudes compress (see DESIGN.md §3),
/// - `--workers <n>`: fan independent sweep points across `n` threads
///   (default 1, i.e. serial). Output is byte-identical at any worker
///   count — see `crate::sweep`,
/// - `--parallel`: shorthand for `--workers <available cores>`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchOpts {
    /// Workload scale factor.
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
    /// Run on the verbatim Table 5 cluster profile.
    pub paper_profile: bool,
    /// Worker threads for sweep execution (1 = serial).
    pub workers: usize,
}

impl Default for BenchOpts {
    fn default() -> Self {
        BenchOpts {
            scale: 1.0,
            seed: 2025,
            paper_profile: false,
            workers: 1,
        }
    }
}

/// Why [`BenchOpts::from_args`] returned no options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptsError {
    /// `--help` or `-h`: the caller prints its usage and exits cleanly.
    Help,
    /// A malformed argument: what is wrong with it.
    Invalid(String),
}

impl BenchOpts {
    /// Parses options from `args`, the command line after the program
    /// name (and after any positional argument the binary takes).
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Result<Self, OptsError> {
        const SCALE: &str = "a finite positive number";
        let mut opts = BenchOpts::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--scale" => opts.scale = value(&mut args, "--scale", SCALE)?,
                "--seed" => opts.seed = value(&mut args, "--seed", "an unsigned integer")?,
                "--quick" => opts.scale *= 0.25,
                "--paper" => opts.paper_profile = true,
                "--workers" => {
                    let n: NonZeroUsize = value(&mut args, "--workers", "a positive integer")?;
                    opts.workers = n.get();
                }
                "--parallel" => opts.workers = available_workers(),
                "--help" | "-h" => return Err(OptsError::Help),
                _ => return Err(OptsError::Invalid(format!("unknown option '{arg}'"))),
            }
        }
        // Checked on the final value, so `--quick` cannot round a tiny
        // scale down to zero either.
        if !(opts.scale.is_finite() && opts.scale > 0.0) {
            return Err(invalid("--scale", SCALE, &opts.scale.to_string()));
        }
        Ok(opts)
    }

    /// A derived option set running sweeps over `workers` threads.
    #[must_use]
    pub fn with_workers(&self, workers: usize) -> Self {
        BenchOpts {
            workers: workers.max(1),
            ..*self
        }
    }

    /// A derived option set with the scale multiplied by `f` (sweep
    /// experiments run smaller workloads by default).
    pub fn scaled(&self, f: f64) -> Self {
        BenchOpts {
            scale: self.scale * f,
            ..*self
        }
    }
}

/// Takes and parses the value following `flag`.
fn value<T: FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    want: &str,
) -> Result<T, OptsError> {
    let value = args
        .next()
        .ok_or_else(|| OptsError::Invalid(format!("{flag} needs a value")))?;
    value.parse().map_err(|_| invalid(flag, want, &value))
}

fn invalid(flag: &str, want: &str, value: &str) -> OptsError {
    OptsError::Invalid(format!("{flag} must be {want}, not '{value}'"))
}

/// The worker count `--parallel` selects: every available core.
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<BenchOpts, OptsError> {
        BenchOpts::from_args(args.iter().map(|a| (*a).to_string()))
    }

    #[test]
    fn defaults_and_scaling() {
        let o = BenchOpts::default();
        assert_eq!(o.scale, 1.0);
        assert_eq!(o.workers, 1);
        let half = o.scaled(0.5);
        assert_eq!(half.scale, 0.5);
        assert_eq!(half.seed, o.seed);
        // Scaling a sweep keeps its worker pool.
        assert_eq!(o.with_workers(8).scaled(0.5).workers, 8);
        assert_eq!(o.with_workers(0).workers, 1);
    }

    #[test]
    fn parser_returns_errors_not_panics() {
        let scale = "--scale must be a finite positive number, not";
        let cases: &[(&[&str], &str)] = &[
            (&["--seed"], "--seed needs a value"),
            (
                &["--workers", "x"],
                "--workers must be a positive integer, not 'x'",
            ),
            (&["--bogus"], "unknown option '--bogus'"),
            (
                &["--workers", "0"],
                "--workers must be a positive integer, not '0'",
            ),
            (&["--scale", "0"], &format!("{scale} '0'")),
            (&["--scale", "-1"], &format!("{scale} '-1'")),
            (&["--scale", "NaN"], &format!("{scale} 'NaN'")),
            (&["--scale", "inf"], &format!("{scale} 'inf'")),
        ];
        for (args, want) in cases {
            assert_eq!(
                parse(args),
                Err(OptsError::Invalid(want.to_string())),
                "{args:?}"
            );
        }
        assert_eq!(parse(&["--quick", "--help"]), Err(OptsError::Help));

        let o = parse(&["--scale", "2", "--quick"]).expect("valid");
        assert_eq!(o.scale, 0.5);
        assert_eq!((o.seed, o.workers, o.paper_profile), (2025, 1, false));
        let o = parse(&["--parallel", "--seed", "7", "--paper"]).expect("valid");
        assert_eq!(o.workers, available_workers());
        assert_eq!((o.seed, o.paper_profile), (7, true));
    }
}
