//! **dante-serve** — a std-only HTTP service wrapping the sweep machinery.
//!
//! Exposes voltage-accuracy Monte-Carlo sweeps (`dante::sweep`) as a
//! long-running service with a bounded job queue, a worker pool, a
//! content-addressed result cache, and per-trial progress streaming — all
//! over a hand-rolled HTTP/1.1 layer on `std::net`, with zero external
//! dependencies.
//!
//! # Endpoints
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `POST /v1/sweep` | Run a sweep (JSON spec); add `?mode=async` for 202 + job id |
//! | `POST /v1/fleet` | Run a fleet V_min/yield sweep (JSON spec); `?mode=async` works too |
//! | `POST /v1/retrain` | Fault-aware retraining plus the hardened-vs-baseline `V_min` comparison; `?mode=async` works too |
//! | `GET /v1/iso-accuracy` | Solve `V_min` at an accuracy floor, compare supply energies |
//! | `POST /v1/shard/{sweep,fleet}` | Internal: compute one trial (die) window of a coordinator's job |
//! | `GET /v1/jobs/<id>` | Job status (embeds the result record once done) |
//! | `GET /v1/jobs/<id>/result` | The raw (byte-exact) result body |
//! | `GET /v1/jobs/<id>/events` | Chunked NDJSON stream of per-trial (or per-die) progress |
//! | `GET /healthz` | Liveness probe |
//! | `GET /metrics` | Flat-text counters, gauges, latency percentiles |
//!
//! # Determinism and caching
//!
//! The trial engine derives every per-trial seed from `(root seed, sweep
//! point, trial index)` counters, so a sweep's result depends only on its
//! [`dante::sweep::SweepSpec`] — never on thread count or scheduling. The
//! service exploits that: results are cached under a digest of the spec's
//! canonical string, and a cache hit is byte-identical to a cold run.
//! Identical requests arriving concurrently attach to one in-flight job.
//!
//! # Backpressure and shutdown
//!
//! The queue is bounded; when full, submissions receive `429` with
//! `Retry-After` instead of unbounded buffering. Graceful shutdown stops
//! accepting, cancels queued jobs, lets in-flight sweeps finish, and
//! terminates event streams with a final `shutdown` event and a clean
//! chunked-encoding end.

#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod http;
pub mod jobs;
pub mod metrics;
pub mod server;
pub mod shard;
pub mod store;

pub use cache::digest;
pub use jobs::{Job, JobQueue, JobRegistry, JobSpec, JobStatus, QueueFull};
pub use server::{start, ServerConfig, ServerHandle};
pub use store::{DiskStore, StoreStats, TieredCache};
