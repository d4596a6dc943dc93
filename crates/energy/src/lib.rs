//! # dante-energy
//!
//! Accelerator energy models for the *Dante* reproduction, implementing the
//! paper's equations (2)–(7):
//!
//! * [`params`] — absolute 14nm-like calibration (SRAM access, PE op,
//!   leakage) shared by every experiment.
//! * [`supply`] — the three power-supply configurations: single supply
//!   (Eq. 2), boosted (Eqs. 3–4), dual supply with an LDO (Eqs. 5–7), and
//!   the iso-accuracy rail rule ([`EnergyModel::boost_to_reach`]).
//! * [`design_space`] — the Fig. 12 `Ops_ratio` x `Energy_ratio` sweep.
//! * [`breakdown`] — per-component (SRAM / logic / booster) energy splits.
//!
//! # Examples
//!
//! ```
//! use dante_energy::supply::{BoostedGroup, EnergyModel};
//! use dante_circuit::units::Volt;
//!
//! let m = EnergyModel::dante_chip();
//! let vdd = Volt::new(0.4);
//! // A conv-like workload: 1M MACs, 1.67% memory accesses, full boost.
//! let boost = m.dynamic_boosted(vdd, &[BoostedGroup { accesses: 16_700, level: 4 }], 1_000_000);
//! let dual = m.dynamic_dual(m.vddv(vdd, 4), vdd, 16_700, 1_000_000);
//! assert!(boost < dual); // boosting wins for reuse-friendly dataflows
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod breakdown;
pub mod design_space;
pub mod params;
pub mod supply;

pub use breakdown::EnergyBreakdown;
pub use design_space::{sweep, DesignSpacePoint, DesignSpaceScenario};
pub use params::{EnergyParams, GeometrySpec};
pub use supply::{BoostedGroup, EnergyModel, RailBoost};
