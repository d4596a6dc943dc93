//! Trial instrumentation hooks.
//!
//! The engine reports per-trial progress through a [`TrialObserver`], the
//! one interface between the Monte-Carlo core and its consumers: the
//! default [`NoopObserver`] compiles away, [`StderrProgress`] gives the
//! long-running examples and bench binaries a live progress line without
//! touching their stdout data output, and `dante-serve` implements the
//! hooks its progress stream carries. Stage timings (`on_stage`) never
//! leave the process.

use std::io::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Instrumentation hooks for a batch of Monte-Carlo trials.
///
/// Implementations must be `Sync`: the engine invokes the hooks from worker
/// threads. All methods default to no-ops so observers implement only what
/// they need.
pub trait TrialObserver: Sync {
    /// A batch of `total` trials is starting.
    fn on_batch_start(&self, total: usize) {
        let _ = total;
    }

    /// Trial `index` finished in `elapsed` wall time.
    fn on_trial_complete(&self, index: usize, elapsed: Duration) {
        let _ = (index, elapsed);
    }

    /// A named stage of one trial took `elapsed` (e.g. `"corrupt"` /
    /// `"inference"`).
    fn on_stage(&self, stage: &'static str, elapsed: Duration) {
        let _ = (stage, elapsed);
    }

    /// Trial `index` injected `bits` flipped fault bits.
    fn on_fault_bits(&self, index: usize, bits: u64) {
        let _ = (index, bits);
    }

    /// The whole batch finished in `elapsed` wall time.
    fn on_batch_complete(&self, elapsed: Duration) {
        let _ = elapsed;
    }
}

/// The do-nothing default observer.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl TrialObserver for NoopObserver {}

/// A stderr progress reporter: one `\r`-rewritten line with completed/total
/// trials, throughput, and cumulative fault bits.
///
/// Data output stays on stdout, so piping figure tables to a file keeps
/// working while progress renders on the terminal.
#[derive(Debug)]
pub struct StderrProgress {
    label: &'static str,
    completed: AtomicUsize,
    total: AtomicUsize,
    fault_bits: AtomicU64,
    started_at: Instant,
}

impl StderrProgress {
    /// A progress reporter labelled `label` (printed before the counters).
    #[must_use]
    pub fn new(label: &'static str) -> Self {
        Self {
            label,
            completed: AtomicUsize::new(0),
            total: AtomicUsize::new(0),
            fault_bits: AtomicU64::new(0),
            started_at: Instant::now(),
        }
    }

    /// Trials completed so far (across batches).
    #[must_use]
    pub fn completed(&self) -> usize {
        self.completed.load(Ordering::Relaxed)
    }

    /// Total fault bits injected so far.
    #[must_use]
    pub fn fault_bits(&self) -> u64 {
        self.fault_bits.load(Ordering::Relaxed)
    }

    fn render(&self) {
        let done = self.completed.load(Ordering::Relaxed);
        let total = self.total.load(Ordering::Relaxed);
        let secs = self.started_at.elapsed().as_secs_f64();
        let rate = if secs > 0.0 { done as f64 / secs } else { 0.0 };
        let bits = self.fault_bits.load(Ordering::Relaxed);
        let mut err = std::io::stderr().lock();
        let _ = write!(
            err,
            "\r{}: {done}/{total} trials ({rate:.1}/s, {bits} fault bits)   ",
            self.label
        );
        let _ = err.flush();
    }
}

impl TrialObserver for StderrProgress {
    fn on_batch_start(&self, total: usize) {
        self.total.fetch_add(total, Ordering::Relaxed);
        self.render();
    }

    fn on_trial_complete(&self, _index: usize, _elapsed: Duration) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.render();
    }

    fn on_fault_bits(&self, _index: usize, bits: u64) {
        self.fault_bits.fetch_add(bits, Ordering::Relaxed);
    }

    fn on_batch_complete(&self, _elapsed: Duration) {
        let mut err = std::io::stderr().lock();
        let _ = writeln!(err);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_observer_accepts_all_hooks() {
        let obs = NoopObserver;
        obs.on_batch_start(10);
        obs.on_trial_complete(0, Duration::from_millis(1));
        obs.on_stage("corrupt", Duration::from_millis(1));
        obs.on_fault_bits(0, 42);
        obs.on_batch_complete(Duration::from_millis(10));
    }

    #[test]
    fn stderr_progress_counts() {
        let obs = StderrProgress::new("test");
        obs.on_batch_start(3);
        obs.on_trial_complete(0, Duration::ZERO);
        obs.on_trial_complete(1, Duration::ZERO);
        obs.on_fault_bits(0, 100);
        obs.on_fault_bits(1, 50);
        assert_eq!(obs.completed(), 2);
        assert_eq!(obs.fault_bits(), 150);
        obs.on_batch_complete(Duration::ZERO);
    }
}
