//! # dante-sram
//!
//! Low-voltage SRAM behaviour for the *Dante* reproduction:
//!
//! * [`fault`] — the Gaussian cell-V_min fault model: bit error rate vs.
//!   supply voltage, calibrated to the paper's 14nm 4 Mbit measurements
//!   (Fig. 7 top).
//! * [`sparse`] — sparse tail-sampled fault overlays, the Monte-Carlo die
//!   of the paper's Fig. 11 methodology: only the faulty-at-floor cells
//!   are drawn (binomial count + truncated-Gaussian V_mins, each with its
//!   `p = 0.5` read-flip decision), so a die costs O(faulty bits), not
//!   O(bits). The one sampler is [`DieFaultModel`]. The accuracy
//!   evaluator streams each die's flip words straight from it
//!   ([`DieFaultModel::for_each_flip_word_at_floor`]); [`SparseOverlay`] is
//!   the owned die that [`DieFaultModel::overlay_from_seed`] builds for
//!   the bit-accurate executor's memories and the test oracles; a fleet
//!   reads each die as a [`DieSummary`], its faulty-cell count and worst
//!   V_min. The dense per-cell die survives only as a test oracle in
//!   `dante-verify`.
//! * [`geometry`] — macro/bank/memory geometry of the taped-out chip
//!   (4 KB macros, 64 Kbit banks, 128 KB + 16 KB memories).
//! * [`ber_fit`] — probit regression from measured `(V, BER)` points back to
//!   a fault model.
//! * [`model`] — pluggable fault-model specs above the Gaussian workhorse:
//!   i.i.d. Gaussian, spatially correlated row/column bursts, and
//!   chip-to-chip variation, with a versioned canonical encoding for
//!   cache keys and per-die resolution via counter-derived seeds.
//! * [`ecc`] — a Hamming(72,64) SEC-DED code, the conventional low-V_min
//!   alternative used as an ablation baseline.
//! * [`yield_model`] — array-level yield curves and V_min-for-yield search
//!   (the quantitative Fig. 1 landmarks).
//! * [`math`] — standard-normal tail and quantile helpers.
//!
//! # Examples
//!
//! ```
//! use dante_sram::fault::VminFaultModel;
//! use dante_circuit::units::Volt;
//!
//! let model = VminFaultModel::default_14nm();
//! // Bit failures rise exponentially below ~0.5 V:
//! assert!(model.bit_error_rate(Volt::new(0.38)) > 100.0 * model.bit_error_rate(Volt::new(0.50)));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ber_fit;
pub mod ecc;
pub mod fault;
pub mod geometry;
pub mod math;
pub mod model;
pub mod sparse;
pub mod yield_model;

pub use ber_fit::{fit_vmin_model, FitBerError};
pub use ecc::{decode as ecc_decode, encode as ecc_encode, Codeword, Correction};
pub use fault::{VminFaultModel, DEFAULT_READ_FLIP_PROBABILITY, V_DATA_RETENTION};
pub use geometry::{BankGeometry, MacroGeometry, MemoryGeometry};
pub use model::{BurstDie, CellFaultRate, DieFaultModel, DieSummary, FaultModel, SummaryScratch};
pub use sparse::{SparseCell, SparseOverlay};
pub use yield_model::{array_yield, array_yield_secded, vmin_for_yield, vmin_for_yield_secded};
