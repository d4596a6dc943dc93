//! # dante-bench
//!
//! The figure/table regeneration harness of the *Dante* reproduction:
//!
//! * [`record`] — experiment records ([`record::FigureRecord`])
//!   printable as tables and serializable to JSON, plus the
//!   [`record::RunScale`] sizing knobs (`DANTE_FULL=1` for
//!   paper-fidelity Monte-Carlo).
//! * [`figures`] — one function per paper artifact (`fig01`..`fig15`,
//!   `table1`..`table3`, `headlines`).
//! * [`perf`] — the crate's one timing harness, behind `BENCH_mc.json`
//!   (`cargo run -p dante-bench --release --bin bench_mc`):
//!   dense-vs-sparse overlay generation, per-trial corruption, the
//!   forward pass, the end-to-end accuracy sweep, fleet dies, trial-engine
//!   scaling and boosted inference on the chip simulator.
//!
//! Each artifact also has a binary (`cargo run -p dante-bench --release
//! --bin fig13`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod figures;
pub mod json;
pub mod perf;
pub mod record;

pub use record::{FigureRecord, RunScale, Series};
