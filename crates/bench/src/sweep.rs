//! Deterministic parallel execution of benchmark sweeps.
//!
//! Every table/figure of the evaluation is a grid of *independent*
//! simulation points: (matrix, K), (matrix, batch size), (scenario, …).
//! Each point derives everything it needs — workload seed, cluster
//! config — from its submission index alone, so points can run on any
//! thread in any order without changing their results. [`SweepRunner`]
//! exploits that: it fans the points of one sweep across a fixed pool of
//! scoped threads and returns the results **in submission order**, so a
//! parallel sweep is byte-for-byte identical to a serial one. The only
//! thing parallelism may change is wall-clock time.
//!
//! Determinism contract: the closure passed to [`SweepRunner::run`] must
//! be a pure function of its index (plus captured immutable state). The
//! simulator itself guarantees this — `netsparse::simulate` is
//! deterministic per (config, workload) — so a sweep point must simply
//! not smuggle state between indices. `tests/sweep_parallel.rs` pins the
//! contract end to end against the engine's audit digests.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use crate::opts::BenchOpts;

/// A sweep point that panicked, identified by its submission index.
///
/// [`SweepRunner::try_run`] catches the unwind at the failing point,
/// poisons the work queue so the other workers stop claiming, and hands
/// back this structured error instead of hanging or aborting the whole
/// sweep. The original panic payload is preserved for callers
/// (like [`SweepRunner::run`]) that want to re-raise it.
pub struct SweepError {
    /// Submission index of the point that panicked. When several points
    /// panic concurrently, the lowest recorded index is reported.
    pub index: usize,
    /// The panic message, when the payload was a string (the usual
    /// `panic!`/`assert!` case).
    pub message: String,
    payload: Box<dyn std::any::Any + Send>,
}

impl SweepError {
    fn new(index: usize, payload: Box<dyn std::any::Any + Send>) -> Self {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "<non-string panic payload>".to_string());
        SweepError {
            index,
            message,
            payload,
        }
    }

    /// The original panic payload, for re-raising with
    /// `std::panic::resume_unwind`.
    pub fn into_payload(self) -> Box<dyn std::any::Any + Send> {
        self.payload
    }
}

impl std::fmt::Debug for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepError")
            .field("index", &self.index)
            .field("message", &self.message)
            .finish_non_exhaustive()
    }
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sweep point {} panicked: {}", self.index, self.message)
    }
}

/// Runs the independent points of a sweep across a worker pool,
/// returning results in submission order.
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    workers: usize,
}

impl SweepRunner {
    /// A runner that executes every point inline on the calling thread.
    #[must_use]
    pub fn serial() -> Self {
        SweepRunner { workers: 1 }
    }

    /// A runner with the given worker count (clamped to at least 1).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        SweepRunner {
            workers: workers.max(1),
        }
    }

    /// The runner selected by the benchmark options (`--workers N` /
    /// `--parallel`).
    #[must_use]
    pub fn from_opts(o: &BenchOpts) -> Self {
        SweepRunner::new(o.workers)
    }

    /// The worker count this runner fans out across.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Evaluates `point(i)` for every `i in 0..n` and returns the results
    /// in index order.
    ///
    /// With one worker (or one point) this is exactly a serial loop. With
    /// more, points are claimed from a shared atomic counter by scoped
    /// threads; each worker tags its results with their indices and the
    /// merged output is sorted back into submission order, so the caller
    /// sees the same `Vec` either way.
    ///
    /// A panic inside `point` propagates to the caller (after the other
    /// workers stop at the next claim), preserving the panic payload —
    /// sweep assertions behave the same serial and parallel. Use
    /// [`SweepRunner::try_run`] to receive the failing index as a
    /// structured [`SweepError`] instead of unwinding.
    pub fn run<T, F>(&self, n: usize, point: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        match self.try_run(n, point) {
            Ok(results) => results,
            Err(e) => std::panic::resume_unwind(e.into_payload()),
        }
    }

    /// Panic-isolating variant of [`SweepRunner::run`]: each point runs
    /// under `catch_unwind`, so one exploding point cannot take down (or
    /// hang) the sweep. On failure the work queue is poisoned — workers
    /// stop claiming new points, in-flight points finish, the scope joins
    /// — and the first failing point (lowest index among those recorded)
    /// comes back as a [`SweepError`] carrying its panic payload.
    pub fn try_run<T, F>(&self, n: usize, point: F) -> Result<Vec<T>, SweepError>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        // A panicked point's partially-built value is dropped wholesale
        // and the sweep result discarded, so unwind safety holds.
        let guarded = |i: usize| catch_unwind(AssertUnwindSafe(|| point(i)));
        if self.workers == 1 || n <= 1 {
            let mut results = Vec::with_capacity(n);
            for i in 0..n {
                results.push(guarded(i).map_err(|p| SweepError::new(i, p))?);
            }
            return Ok(results);
        }
        let next = AtomicUsize::new(0);
        let poisoned = AtomicBool::new(false);
        let guarded = &guarded;
        let next = &next;
        let poisoned = &poisoned;
        let mut tagged: Vec<(usize, T)> = Vec::with_capacity(n);
        let mut failures: Vec<(usize, Box<dyn std::any::Any + Send>)> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.workers.min(n))
                .map(|_| {
                    s.spawn(move || {
                        let mut local = Vec::new();
                        let mut failed = None;
                        while !poisoned.load(Ordering::Relaxed) {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            match guarded(i) {
                                Ok(v) => local.push((i, v)),
                                Err(payload) => {
                                    poisoned.store(true, Ordering::Relaxed);
                                    failed = Some((i, payload));
                                    break;
                                }
                            }
                        }
                        (local, failed)
                    })
                })
                .collect();
            for h in handles {
                // Workers cannot unwind (every point is caught), so the
                // join itself is infallible.
                if let Ok((local, failed)) = h.join() {
                    tagged.extend(local);
                    failures.extend(failed);
                }
            }
        });
        if let Some((index, payload)) = failures.into_iter().min_by_key(|&(i, _)| i) {
            return Err(SweepError::new(index, payload));
        }
        tagged.sort_unstable_by_key(|&(i, _)| i);
        Ok(tagged.into_iter().map(|(_, v)| v).collect())
    }

    /// [`run`](Self::run) over a slice: evaluates `f` on every item,
    /// results in item order.
    pub fn map<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(&I) -> T + Sync,
    {
        self.run(items.len(), |i| f(&items[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_results_match_serial_in_submission_order() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let serial = SweepRunner::serial().run(100, f);
        for workers in [2usize, 3, 8, 64] {
            assert_eq!(SweepRunner::new(workers).run(100, f), serial);
        }
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "the test staggers the workers' finish times in host time"
    )]
    fn unbalanced_points_still_come_back_in_order() {
        // Later indices finish first; order must still be by submission.
        let f = |i: usize| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(20 - 5 * i as u64));
            }
            i
        };
        let got = SweepRunner::new(4).run(12, f);
        assert_eq!(got, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn degenerate_sizes_work() {
        let r = SweepRunner::new(8);
        assert_eq!(r.run(0, |i| i), Vec::<usize>::new());
        assert_eq!(r.run(1, |i| i), vec![0]);
        assert_eq!(SweepRunner::new(0).workers(), 1);
    }

    #[test]
    fn map_preserves_item_order() {
        let items = ["a", "bb", "ccc"];
        let lens = SweepRunner::new(2).map(&items, |s| s.len());
        assert_eq!(lens, vec![1, 2, 3]);
    }

    #[test]
    fn try_run_identifies_the_failing_point() {
        for workers in [1usize, 2, 8] {
            let err = SweepRunner::new(workers)
                .try_run(16, |i| {
                    assert!(i != 5, "point 5 exploded");
                    i
                })
                .expect_err("point 5 must fail the sweep");
            assert_eq!(err.index, 5);
            assert!(err.message.contains("point 5 exploded"), "{err}");
            assert!(err.to_string().contains("sweep point 5"), "{err}");
        }
    }

    #[test]
    fn try_run_succeeds_when_no_point_panics() {
        let got = SweepRunner::new(4).try_run(12, |i| i * 2).unwrap();
        assert_eq!(got, (0..12).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn point_panics_propagate_with_their_payload() {
        let result = std::panic::catch_unwind(|| {
            SweepRunner::new(2).run(8, |i| {
                assert!(i != 5, "point 5 exploded");
                i
            })
        });
        let payload = result.expect_err("the sweep must propagate the panic");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("point 5 exploded"), "payload: {msg}");
    }
}
