//! # dante-circuit
//!
//! Circuit-level models for the *Dante* low-voltage DNN accelerator
//! reproduction (HPCA 2019, "Resilient Low Voltage Accelerators for High
//! Energy Efficiency"):
//!
//! * [`units`] — strongly-typed physical quantities ([`Volt`], [`Farad`],
//!   [`Joule`], ...).
//! * [`device`] — the shared 14nm-like technology model (alpha-power delay,
//!   `CV^2` dynamic energy, exponential leakage).
//! * [`booster`] — the programmable SRAM supply booster: boost inverters,
//!   MIM capacitors, booster cells and per-bank booster columns implementing
//!   the paper's Eq. 1, plus the four named Fig. 6 comparison circuits. A
//!   bank's queries boost the array; the `*_scoped` queries take the
//!   array or whole-macro scope as an argument.
//! * [`bic`] — the Boost Input Control block: one bank's configuration
//!   register, chip-enable/clock gating, the `set_boost_config` register
//!   semantics. Which level each layer's bank gets is a per-layer plan
//!   one level up (`dante-accel`'s `BoostSchedule`).
//! * [`transient`] — a first-order transient simulator of the boosted rail
//!   (the Fig. 4 waveforms).
//! * [`latency`] — SRAM access latency vs. voltage and under array/macro
//!   boosting (Figs. 7 and 9).
//! * [`macro_model`] — the structural SRAM macro model: rows x cols x mux x
//!   banks geometry from which access capacitance, energy and replica-timed
//!   latency are derived (sram22 constants) instead of calibrated.
//! * [`ldo`] — the Low-Dropout regulator model of the dual-supply baseline
//!   (Eq. 5).
//!
//! # Examples
//!
//! Boost a 0.4 V rail to each of the four programmable levels:
//!
//! ```
//! use dante_circuit::booster::BoosterBank;
//! use dante_circuit::units::Volt;
//!
//! let bank = BoosterBank::standard();
//! let vdd = Volt::new(0.4);
//! let ladder = bank.voltage_ladder(vdd);
//! assert_eq!(ladder.len(), 5); // levels 0..=4
//! assert!(ladder[4] > ladder[0]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bic;
pub mod booster;
pub mod device;
pub mod latency;
pub mod ldo;
pub mod macro_model;
pub mod transient;
pub mod units;

pub use bic::{BoostConfig, BoostInputControl, CellDrive, ChipEnable, ClockPhase};
pub use booster::{BoostLoad, BoostScope, BoosterBank, BoosterCell, MimCapacitor};
pub use device::DeviceModel;
pub use latency::SramTiming;
pub use ldo::Ldo;
pub use macro_model::{AccessCapacitance, AccessKind, MacroGeometry, SramMacroModel};
pub use transient::{AccessEvent, TransientSim, Waveform};
pub use units::{Farad, Hertz, Joule, Second, SquareMicron, Volt, Watt};
