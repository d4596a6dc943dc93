//! # dante-verify
//!
//! The golden-reference validation subsystem of the Dante reproduction —
//! the machinery that ties the simulator to (a) itself, (b) the paper, and
//! (c) the statistics it claims, in these pillars:
//!
//! * [`differential`] — the cycle-level `dante-accel` executor checked
//!   bit-exactly against an independent reference implementation of the
//!   compiled fixed-point math, under identical per-trial fault overlays,
//!   with a ddmin divergence minimizer that shrinks a failing corruption to
//!   a 1-minimal set of weight rows.
//! * [`dense`] — the dense per-cell fault die ([`FaultOverlay`] over a
//!   [`VminField`], thresholded into inclusive [`FaultMask`]s): the
//!   original O(bits) sampler, which production replaced with the sparse
//!   `DieFaultModel` sampler everywhere, the executor's memories included.
//!   Every oracle below that corrupts through a dense die draws it here.
//! * [`evaluator`] — the reference paths of the Monte-Carlo accuracy
//!   evaluator that production no longer ships: the full, non-incremental
//!   forward pass per trial ([`scalar_evaluate`], bit-identical to the
//!   evaluator) and the dense per-cell fault sampler ([`dense_evaluate`],
//!   equal in distribution).
//! * [`forward`] — the trial-batched incremental forward evaluator
//!   (`dante_nn::batched`) checked against the full `Network::accuracy`
//!   pass under identical fault-corrupted weights and inputs, with the same
//!   ddmin shrink reused at weight-unit granularity.
//! * [`gemm`] — the scalar float references the exact GEMM kernels in
//!   `dante_nn::gemm`, which run every float multiply-accumulate of
//!   production's training and inference, must reproduce bit for bit: the
//!   matrix products ([`scalar_matmul`], [`scalar_matmul_transposed`], over
//!   a [`transpose`] where a reference needs `Aᵀ`) and the direct
//!   convolution loops ([`scalar_conv_forward`], [`scalar_conv_backward`])
//!   that `Conv2d` lowers onto those kernels.
//! * [`golden`] — snapshot testing of every deterministic `dante-bench`
//!   figure/table record against blessed JSON in `results/golden/`, with
//!   per-metric tolerance bands, paper-anchored point checks, a unified
//!   human-readable diff on mismatch, and an `UPDATE_GOLDEN=1` re-bless
//!   flow.
//! * [`stats`] — statistical acceptance of the fault model: KS and
//!   chi-square goodness-of-fit of sampled per-cell `V_min` draws against
//!   the analytic Gaussian, plus Wilson score intervals for Monte-Carlo
//!   accuracy estimates.
//! * [`overlay`] — acceptance of the sparse tail-sampled overlay: the
//!   scalar Bernoulli walk and the spelled-out Gaussian die the one sampler
//!   must reproduce exactly, the truncated-Gaussian conditional CDF its
//!   `V_min` draws must follow, and an exact word-level differential check
//!   that a sparse projection of a dense die corrupts packed data
//!   identically.
//!
//! The top-level test suites `tests/differential.rs`,
//! `tests/golden_snapshots.rs`, and `tests/fault_model_stats.rs` wire these
//! pillars into `cargo test`. This crate's own `tests/gemm_props.rs` is
//! the GEMM property wall, and `tests/dense_props.rs` holds the dense die's
//! property tests plus the pin that keeps `dante_bench::perf`'s private
//! dense draw identical to [`FaultOverlay::from_seed`]; see EXPERIMENTS.md
//! for the re-bless workflow.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dense;
pub mod differential;
pub mod evaluator;
pub mod forward;
pub mod gemm;
pub mod golden;
pub mod overlay;
pub mod stats;

pub use dense::{FaultMask, FaultOverlay, VminField};
pub use differential::{
    check_program, corrupt_program, corrupt_sample, ddmin, minimize_corruption, reference_forward,
    run_differential, DiffConfig, DiffReport, Divergence, WeightRow,
};
pub use evaluator::{dense_evaluate, scalar_evaluate};
pub use forward::{
    apply_units, check_batched, corrupt_inputs, corrupt_weights, corrupted_units, minimize_units,
    run_forward_differential, ForwardCheck, ForwardDiffConfig, ForwardDiffReport,
    ForwardDivergence,
};
pub use gemm::{
    scalar_conv_backward, scalar_conv_forward, scalar_matmul, scalar_matmul_transposed, transpose,
};
pub use golden::{
    paper_anchors, tolerance_for, GoldenDiff, GoldenOutcome, GoldenStore, PaperAnchor, Tolerance,
};
pub use overlay::{
    reference_gaussian_cells, scalar_bernoulli_indices, sparse_matches_dense, sparse_projection,
    sparse_vmin_cdf, OverlayMismatch,
};
pub use stats::{
    bin_counts, chi_square_critical, chi_square_statistic, ks_critical, ks_statistic,
    normal_bin_edges, wilson_interval,
};
