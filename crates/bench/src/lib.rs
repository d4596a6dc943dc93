//! # dante-bench
//!
//! The figure/table regeneration harness of the *Dante* reproduction:
//!
//! * [`record`] — experiment records ([`record::FigureRecord`])
//!   printable as tables and serializable to JSON, plus the
//!   [`record::RunScale`] sizing knobs (`DANTE_FULL=1` for
//!   paper-fidelity Monte-Carlo).
//! * [`figures`] — one function per paper artifact (`fig01`..`fig15`,
//!   `table1`..`table3`, `headlines`, the ablations, `validation` and the
//!   golden records without a paper figure), and
//!   [`figures::ARTIFACTS`], the one list of them.
//! * [`perf`] — the crate's one timing harness, behind `BENCH_mc.json`
//!   (`cargo run -p dante-bench --release --bin bench_mc`):
//!   dense-vs-sparse overlay generation, per-trial corruption, the
//!   forward pass, the end-to-end accuracy sweep, fleet dies, trial-engine
//!   scaling, boosted inference on the chip simulator, and one retraining
//!   run with its epoch. Each section measures and returns its own JSON
//!   rows; the bin writes the assembled document and prints its path.
//!
//! The `reproduce` binary regenerates the artifacts it is given, or all of
//! them (`cargo run -p dante-bench --release --bin reproduce -- fig13`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod figures;
pub mod json;
pub mod perf;
pub mod record;

pub use record::{FigureRecord, RunScale, Series};
