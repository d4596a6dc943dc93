//! # dante-sim
//!
//! The unified Monte-Carlo trial engine all repeated-trial consumers of the
//! Dante reproduction run on (accuracy evaluation, experiment drivers,
//! policy search, bench figure generators).
//!
//! Three pieces:
//!
//! * [`seed`] — counter-based deterministic seed derivation:
//!   `derive_seed(root, site, index)` replaces chained `rng.gen()` seeding,
//!   so any trial is reproducible in isolation and results are identical
//!   regardless of execution order or thread count.
//! * [`engine`] — [`TrialEngine`]: fans independent trials out across a
//!   scoped worker pool (`DANTE_THREADS` env override, default
//!   `available_parallelism`) and reassembles results in trial order.
//! * [`observer`] — [`TrialObserver`]: lightweight instrumentation hooks
//!   (trials completed, per-stage wall time, fault-bit counts) with a no-op
//!   default and a stderr progress reporter for long runs. It is the one
//!   interface between the engine and its consumers; `dante-serve`'s job
//!   log implements it directly, and stage timings never leave the
//!   process.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod engine;
pub mod observer;
pub mod seed;

pub use engine::TrialEngine;
pub use observer::{NoopObserver, StderrProgress, TrialObserver};
pub use seed::{derive_seed, site};
