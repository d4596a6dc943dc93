//! The parallel trial executor.
//!
//! [`TrialEngine::run`] fans `trials` independent closure invocations out
//! across a scoped worker pool and returns the results in trial order.
//! Because every trial derives its randomness from
//! [`crate::seed::derive_seed`] rather than a shared generator, the output
//! is bit-identical for any thread count — parallelism is purely a
//! wall-clock optimization.

use crate::observer::{NoopObserver, TrialObserver};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "DANTE_THREADS";

/// The trial executor: a thread count plus the fan-out logic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialEngine {
    threads: usize,
}

impl Default for TrialEngine {
    fn default() -> Self {
        Self::from_env()
    }
}

impl TrialEngine {
    /// An engine with the environment-configured thread count:
    /// `DANTE_THREADS` if set to a positive integer, else
    /// `available_parallelism`.
    ///
    /// # Panics
    ///
    /// Panics if `DANTE_THREADS` is set to zero or a non-integer — a
    /// mistyped knob silently falling back to "all cores" is the kind of
    /// misconfiguration that only surfaces weeks later as a perf mystery,
    /// so it fails loudly instead. Long-running services should prefer
    /// [`Self::try_from_env`] and surface the error at startup.
    #[must_use]
    pub fn from_env() -> Self {
        match Self::try_from_env() {
            Ok(engine) => engine,
            Err(why) => panic!("{why}"),
        }
    }

    /// [`Self::from_env`] returning a descriptive error instead of
    /// panicking when `DANTE_THREADS` is set but invalid.
    ///
    /// # Errors
    ///
    /// Returns a message naming the variable, the rejected value, and the
    /// accepted range when the value is zero, non-numeric, or not unicode.
    pub fn try_from_env() -> Result<Self, String> {
        let threads = match std::env::var(THREADS_ENV) {
            Ok(raw) => match raw.trim().parse::<usize>() {
                Ok(0) => {
                    return Err(format!(
                        "{THREADS_ENV} must be a positive integer (got \"0\"); \
                         unset it to use all cores"
                    ))
                }
                Ok(n) => n,
                Err(_) => {
                    return Err(format!(
                        "{THREADS_ENV} must be a positive integer (got {raw:?}); \
                         unset it to use all cores"
                    ))
                }
            },
            Err(std::env::VarError::NotPresent) => {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            }
            Err(std::env::VarError::NotUnicode(_)) => {
                return Err(format!("{THREADS_ENV} is set to a non-unicode value"))
            }
        };
        Ok(Self { threads })
    }

    /// An engine with an explicit thread count (the determinism tests pin
    /// this to compare 1-, 2-, and N-thread runs).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker thread");
        Self { threads }
    }

    /// The configured worker-thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `trials` invocations of `trial` (passing each its trial index)
    /// and returns the results in index order.
    ///
    /// `trial` must be independent per index: it sees no shared mutable
    /// state and derives randomness from the index (via
    /// [`crate::seed::derive_seed`]). The engine guarantees the returned
    /// `Vec` is identical for any thread count.
    pub fn run<T, F>(&self, trials: usize, trial: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run_observed(trials, &NoopObserver, trial)
    }

    /// [`Self::run`] with instrumentation: the observer sees batch
    /// start/end and per-trial completion times (from whichever worker ran
    /// the trial).
    pub fn run_observed<T, F>(
        &self,
        trials: usize,
        observer: &dyn TrialObserver,
        trial: F,
    ) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run_scratch_observed(trials, observer, || (), |index, ()| trial(index))
    }

    /// [`Self::run_observed`] with a per-worker scratch arena:
    /// `make_scratch` runs once on each worker thread, and every trial that
    /// worker executes receives `&mut` access to that worker's scratch.
    /// Monte-Carlo hot paths use this to reuse buffers across trials so
    /// steady-state execution allocates nothing; the scratch must not carry
    /// state that changes trial *results* (each trial still derives
    /// everything from its index), or determinism across thread counts is
    /// lost.
    pub fn run_scratch_observed<T, S, M, F>(
        &self,
        trials: usize,
        observer: &dyn TrialObserver,
        make_scratch: M,
        trial: F,
    ) -> Vec<T>
    where
        T: Send,
        M: Fn() -> S + Sync,
        F: Fn(usize, &mut S) -> T + Sync,
    {
        let batch_start = Instant::now();
        observer.on_batch_start(trials);
        let workers = self.threads.min(trials).max(1);
        // Work-stealing by atomic counter: each worker pulls the next
        // unclaimed trial index, so stragglers never idle the pool. The
        // scratch is built *inside* each worker, so it needs no `Send`
        // bound and is never shared.
        let next = AtomicUsize::new(0);
        let worker = || {
            let mut scratch = make_scratch();
            let mut mine = Vec::new();
            loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= trials {
                    return mine;
                }
                let t0 = Instant::now();
                let out = trial(index, &mut scratch);
                observer.on_trial_complete(index, t0.elapsed());
                mine.push((index, out));
            }
        };
        // A lone worker runs on the calling thread.
        let mut results: Vec<(usize, T)> = if workers == 1 {
            worker()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("trial worker panicked"))
                    .collect()
            })
        };
        // Reassemble in trial order: determinism must not depend on which
        // worker finished first.
        results.sort_unstable_by_key(|(index, _)| *index);
        observer.on_batch_complete(batch_start.elapsed());
        results.into_iter().map(|(_, out)| out).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed::{derive_seed, site};
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    #[test]
    fn results_come_back_in_trial_order() {
        let engine = TrialEngine::with_threads(4);
        let out = engine.run(100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let work = |i: usize| derive_seed(42, site::TRIAL, i as u64);
        let serial = TrialEngine::with_threads(1).run(257, work);
        for threads in [2, 3, 8] {
            let parallel = TrialEngine::with_threads(threads).run(257, work);
            assert_eq!(serial, parallel, "diverged at {threads} threads");
        }
    }

    #[test]
    fn more_trials_than_threads_and_vice_versa() {
        let engine = TrialEngine::with_threads(8);
        assert_eq!(engine.run(3, |i| i), vec![0, 1, 2]);
        assert_eq!(engine.run(0, |i| i), Vec::<usize>::new());
        let one = TrialEngine::with_threads(1);
        assert_eq!(one.run(5, |i| i), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn observer_sees_every_trial() {
        struct Counter {
            completions: AtomicUsize,
            total: AtomicUsize,
            batches: AtomicUsize,
        }
        impl TrialObserver for Counter {
            fn on_batch_start(&self, total: usize) {
                self.total.store(total, Ordering::Relaxed);
            }
            fn on_trial_complete(&self, _index: usize, _elapsed: Duration) {
                self.completions.fetch_add(1, Ordering::Relaxed);
            }
            fn on_batch_complete(&self, _elapsed: Duration) {
                self.batches.fetch_add(1, Ordering::Relaxed);
            }
        }
        let obs = Counter {
            completions: AtomicUsize::new(0),
            total: AtomicUsize::new(0),
            batches: AtomicUsize::new(0),
        };
        let engine = TrialEngine::with_threads(3);
        let _ = engine.run_observed(17, &obs, |i| i);
        assert_eq!(obs.completions.load(Ordering::Relaxed), 17);
        assert_eq!(obs.total.load(Ordering::Relaxed), 17);
        assert_eq!(obs.batches.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn parallel_run_actually_uses_multiple_threads() {
        // Record distinct thread ids; with 4 workers and 64 slow-ish trials
        // at least 2 must participate.
        let engine = TrialEngine::with_threads(4);
        let ids = engine.run(64, |_| {
            std::thread::sleep(Duration::from_millis(1));
            std::thread::current().id()
        });
        let distinct: std::collections::HashSet<_> = ids.into_iter().collect();
        assert!(
            distinct.len() >= 2,
            "only {} thread(s) participated",
            distinct.len()
        );
    }

    #[test]
    fn fault_bit_hook_accumulates() {
        struct Bits(AtomicU64);
        impl TrialObserver for Bits {
            fn on_fault_bits(&self, _index: usize, bits: u64) {
                self.0.fetch_add(bits, Ordering::Relaxed);
            }
        }
        let obs = Bits(AtomicU64::new(0));
        let engine = TrialEngine::with_threads(2);
        let _ = engine.run_observed(10, &obs, |i| obs.on_fault_bits(i, i as u64));
        assert_eq!(obs.0.load(Ordering::Relaxed), 45);
    }

    #[test]
    fn from_env_respects_override_and_rejects_garbage() {
        // Serialize env mutation within this test binary: this is the only
        // test that touches DANTE_THREADS.
        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(TrialEngine::from_env().threads(), 3);
        std::env::set_var(THREADS_ENV, " 4 ");
        assert_eq!(TrialEngine::from_env().threads(), 4, "whitespace trimmed");
        // Zero and non-numeric values are configuration errors, not silent
        // fallbacks.
        std::env::set_var(THREADS_ENV, "0");
        let err = TrialEngine::try_from_env().unwrap_err();
        assert!(err.contains(THREADS_ENV) && err.contains("\"0\""), "{err}");
        std::env::set_var(THREADS_ENV, "garbage");
        let err = TrialEngine::try_from_env().unwrap_err();
        assert!(err.contains("garbage"), "{err}");
        let panicked = std::panic::catch_unwind(TrialEngine::from_env).expect_err("must panic");
        let msg = panicked
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains(THREADS_ENV), "panic message was: {msg}");
        std::env::remove_var(THREADS_ENV);
        assert!(TrialEngine::from_env().threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let _ = TrialEngine::with_threads(0);
    }

    #[test]
    fn scratch_is_per_worker_and_reused_across_trials() {
        // Each worker's scratch counts the trials it ran; the per-worker
        // counts must sum to the total, and with one worker every trial
        // sees the same (incremented) scratch instance.
        let one = TrialEngine::with_threads(1);
        let counts = one.run_scratch_observed(
            5,
            &NoopObserver,
            || 0usize,
            |_, seen| {
                *seen += 1;
                *seen
            },
        );
        assert_eq!(counts, vec![1, 2, 3, 4, 5], "one worker reuses one scratch");

        let makes = AtomicUsize::new(0);
        let four = TrialEngine::with_threads(4);
        let ran = four.run_scratch_observed(
            64,
            &NoopObserver,
            || {
                makes.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |_, seen| {
                *seen += 1;
                1usize
            },
        );
        assert_eq!(ran.iter().sum::<usize>(), 64);
        assert!(
            makes.load(Ordering::Relaxed) <= 4,
            "at most one scratch per worker, got {}",
            makes.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn scratch_runs_match_plain_runs_for_pure_trials() {
        let work = |i: usize| derive_seed(7, site::TRIAL, i as u64);
        let plain = TrialEngine::with_threads(3).run(100, work);
        let scratched = TrialEngine::with_threads(3).run_scratch_observed(
            100,
            &NoopObserver,
            || (),
            |i, ()| work(i),
        );
        assert_eq!(plain, scratched);
    }
}
