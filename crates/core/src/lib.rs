//! # dante
//!
//! The facade crate of the *Dante* reproduction ("Resilient Low Voltage
//! Accelerators for High Energy Efficiency", HPCA 2019): accuracy and
//! energy experiments over the circuit/SRAM/NN/dataflow/energy/accelerator
//! substrates.
//!
//! * [`accuracy`] — Monte-Carlo fault-injection accuracy evaluation
//!   (Sec. 5.1 methodology).
//! * [`schedule`] — the Table 2 boost configurations as the chip's
//!   [`BoostSchedule`](dante_accel::executor::BoostSchedule)s, their
//!   per-level access groups, and the 0.44 V input and 0.48 V iso-accuracy
//!   rail targets.
//! * [`report`] — energy reports for bit-accurate simulator runs.
//! * [`headlines`] — the abstract's headline numbers, recomputed.
//! * [`artifacts`] — disk-cached trained models for the heavy experiments.
//! * [`sweep`] — serializable sweep job specifications ([`sweep::SweepSpec`])
//!   with canonical content-addressing, the unit of work `dante-serve`
//!   queues and caches; every point is a joint (voltage, accuracy, energy)
//!   record under a configurable supply ([`sweep::SupplySpec`]: single,
//!   boosted at one level, scheduled, a Table 2 plan, or dual). The paper's
//!   Figs. 13 and 14 are sweeps over these supplies.
//! * [`iso`] — iso-accuracy solves: `V_min` at an accuracy floor plus each
//!   supply configuration's energy there (the `/v1/iso-accuracy` endpoint).
//! * [`fleet`] — fleet-scale V_min/yield sweeps ([`fleet::FleetSpec`]): a
//!   population of dies under any `dante-sram` fault-model spec, reporting
//!   per-voltage yield and V_min distribution quantiles (the `/v1/fleet`
//!   endpoint).
//! * [`retrain`] — fault-aware retraining ([`retrain::RetrainSpec`]):
//!   straight-through-estimator fine-tuning under injected bit errors,
//!   scored by baseline-vs-hardened iso-accuracy solves (the
//!   `/v1/retrain` endpoint).
//!
//! # Examples
//!
//! Recompute the paper's headline savings:
//!
//! ```
//! let h = dante::headlines::compute();
//! assert!(h.alexnet_peak_savings_vs_dual > 0.2); // paper: "up to 26%"
//! assert!(h.booster_leakage_overhead < 0.08);    // paper: "only 6% overhead"
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accuracy;
pub mod artifacts;
pub mod fleet;
pub mod headlines;
pub mod iso;
pub mod report;
pub mod retrain;
pub mod schedule;
pub mod sweep;

pub use accuracy::{
    AccuracyEvaluator, AccuracyStats, EccMode, PreparedEvaluation, VoltageAssignment,
};
pub use fleet::{DieOutcome, FleetResult, FleetSpec, FLEET_QUANTILES};
pub use headlines::Headlines;
pub use iso::{IsoAccuracyResult, IsoAccuracySpec, IsoConfigPoint};
pub use report::InferenceEnergyReport;
pub use retrain::{EpochReport, HardenedNetwork, ResamplePolicy, RetrainEvent, RetrainSpec};
pub use schedule::{NamedBoostConfig, INPUT_TARGET, ISO_ACCURACY_TARGET};
pub use sweep::{
    shard_ranges, GeometrySpec, NetworkSpec, PointEnergy, PreparedSweep, SupplySpec, SweepPoint,
    SweepSpec,
};
