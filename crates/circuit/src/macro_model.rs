//! Structural SRAM macro model: access energy and latency *derived from
//! geometry* instead of asserted by calibration.
//!
//! The scalar calibration (`C_SRAM_ACCESS` in `dante-energy::params`, the
//! `nominal_access`/`peripheral_fraction` pair of [`crate::latency`]) pins
//! the paper's headline numbers directly. This module rebuilds the same
//! quantities bottom-up from a [`MacroGeometry`] — rows x columns x column
//! mux ratio x banks — following the open-source sram22 generator
//! (SNIPPETS.md): per-cell wordline/bitline capacitances measured by sram22,
//! a decoder tree sized by `log2(rows)`, precharge / column-mux / sense-amp
//! / write-driver column periphery, and a replica-bitline timing chain that
//! sets the sense-enable point.
//!
//! Per-access switched capacitance decomposes as
//!
//! ```text
//! C_access = C_decoder + C_wl·cols + C_bl·rows·swing + C_periph + C_outmux
//! ```
//!
//! where the bitline swing differs between access kinds: a *read* develops
//! only the sense-limited differential ([`BITLINE_SENSE_SWING`]) before the
//! replica path fires the sense amps, while a *write* drives the selected
//! columns rail-to-rail. Latency splits into a peripheral part (decode +
//! wordline drive) and an array part (replica-timed bitline development +
//! sense resolution); the ratio of the two *derives* the 45% peripheral
//! fraction the scalar model asserts, and the total derives the ~1 ns
//! nominal access.
//!
//! At the paper's geometries — a 32 Kbit macro (256 x 128, 4:1 mux) for
//! timing/boosting, two such macros ganged into a 64 Kbit bank for energy —
//! the derived numbers land on the scalar calibration: read access
//! capacitance ~6 pF (`Energy_ratio` ~3 against the 2 pF PE op), peripheral
//! fraction ~0.45, access time ~1 ns. The property tests in
//! `crates/circuit/tests/props.rs` and the `macro_model` golden record pin
//! this agreement.

use crate::device::DeviceModel;
use crate::latency::SramTiming;
use crate::units::{Farad, Second};

/// Wordline capacitance per attached cell, from sram22's measured 12-cell
/// extraction (`WORDLINE_CAP_PER_CELL`).
pub const C_WL_CELL: Farad = Farad::const_new(1.472_468_276_676_486e-14 / 12.0);

/// Bitline capacitance per attached cell, from sram22's measured 128-cell
/// extraction (`BITLINE_CAP_PER_CELL`).
pub const C_BL_CELL: Farad = Farad::const_new(8.859_364_177_937_068e-14 / 128.0);

/// Upper bound on a single wordline's capacitance before the driver can no
/// longer slew it within the access window (sram22's `WORDLINE_CAP_MAX`);
/// geometries whose `C_wl·cols` exceed it are rejected.
pub const WORDLINE_CAP_MAX: Farad = Farad::const_new(500e-15);

/// Fraction of the full rail a read develops on the bitlines before the
/// replica path fires the sense amps (sense-limited swing).
pub const BITLINE_SENSE_SWING: f64 = 0.225;

/// Precharge-device capacitance switched per column on every access.
pub const C_PRECHARGE_COL: Farad = Farad::const_new(2.0e-15);

/// Column-mux pass-gate capacitance switched per column.
pub const C_MUX_COL: Farad = Farad::const_new(1.5e-15);

/// Write-driver capacitance switched per *selected* column on a write.
pub const C_WRITE_DRIVER_COL: Farad = Farad::const_new(2.5e-15);

/// Sense-amplifier capacitance switched per sense amp (one per `mux`
/// columns) on a read.
pub const C_SENSE_AMP: Farad = Farad::const_new(4.0e-15);

/// Capacitance switched per decoder stage (predecode + hierarchical AND
/// tree); a macro with `2^k` rows burns `k` stages.
pub const C_DECODER_UNIT: Farad = Farad::const_new(2.0e-15);

/// The final wordline driver's own switched capacitance, as a fraction of
/// the wordline load it drives.
pub const WORDLINE_DRIVER_TAX: f64 = 0.35;

/// Output-multiplexer capacitance switched per data bit per bank hanging on
/// the shared bus.
pub const C_OUTPUT_BIT: Farad = Farad::const_new(1.5e-15);

/// Fraction of the rail the replica bitline must discharge before it trips
/// the sense-enable signal.
pub const REPLICA_TRIP: f64 = 0.5;

/// Number of always-on replica cells pulling the replica bitline down (the
/// sram22 control logic uses a multi-cell replica column so the replica
/// discharges faster than the worst-case data bitline — guaranteeing the
/// data swing is ready when sense-enable fires).
pub const REPLICA_CELLS: usize = 2;

/// Read current of one bitcell at the nominal 0.8 V rail, in amperes.
pub const I_CELL_READ: f64 = 80.0e-6;

/// Drive current of the final wordline driver at nominal voltage, in
/// amperes.
pub const I_WL_DRIVER: f64 = 1.25e-3;

/// Delay of one decoder stage at nominal voltage.
pub const T_DECODE_STAGE: Second = Second::const_new(45.0e-12);

/// Sense-amp resolution time after sense-enable fires, at nominal voltage.
pub const T_SENSE_RESOLVE: Second = Second::const_new(38.0e-12);

/// The kind of access whose switched capacitance is being computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Sense-limited read: bitlines develop only [`BITLINE_SENSE_SWING`] of
    /// the rail; sense amps fire, write drivers stay idle.
    Read,
    /// Full-swing write on the selected columns (half-selected columns still
    /// see the precharge-limited partial swing); write drivers fire, sense
    /// amps stay idle.
    Write,
}

/// Physical organization of one SRAM bank: `rows x cols` bitcell macros with
/// a `mux`:1 column multiplexer, `banks` of them ganged on one output bus.
///
/// # Examples
///
/// ```
/// use dante_circuit::macro_model::MacroGeometry;
///
/// let g = MacroGeometry::macro_32kbit();
/// assert_eq!(g.bits(), 32 * 1024);
/// assert_eq!(g.word_bits(), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MacroGeometry {
    /// Bitcell rows (wordlines) per macro; a power of two.
    pub rows: usize,
    /// Bitcell columns (bitline pairs) per macro; a power of two.
    pub cols: usize,
    /// Column-multiplexer ratio: `cols / mux` bits leave the macro per
    /// access. A power of two dividing `cols`.
    pub mux: usize,
    /// Macros ganged on one output bus (one accessed per cycle; the others
    /// only load the bus).
    pub banks: usize,
}

impl MacroGeometry {
    /// The paper's 32 Kbit macro: 256 rows x 128 columns, 4:1 mux, single
    /// bank — the unit the booster boosts and the timing model times.
    #[must_use]
    pub fn macro_32kbit() -> Self {
        Self {
            rows: 256,
            cols: 128,
            mux: 4,
            banks: 1,
        }
    }

    /// The 64 Kbit energy-accounting bank: two 32 Kbit macros ganged on one
    /// output bus (the unit `dante-energy` charges per access).
    #[must_use]
    pub fn bank_64kbit() -> Self {
        Self {
            rows: 256,
            cols: 128,
            mux: 4,
            banks: 2,
        }
    }

    /// Creates a validated geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails [`Self::validate`].
    #[must_use]
    pub fn new(rows: usize, cols: usize, mux: usize, banks: usize) -> Self {
        let g = Self {
            rows,
            cols,
            mux,
            banks,
        };
        if let Err(why) = g.validate() {
            panic!("invalid macro geometry: {why}");
        }
        g
    }

    /// Validates the geometry's bounds, returning a human-readable reason on
    /// rejection (the contract spec-level `validate` methods build on).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated bound.
    pub fn validate(&self) -> Result<(), String> {
        if !self.rows.is_power_of_two() || !(16..=1024).contains(&self.rows) {
            return Err(format!(
                "rows = {} must be a power of two in 16..=1024",
                self.rows
            ));
        }
        if !self.cols.is_power_of_two() || !(16..=512).contains(&self.cols) {
            return Err(format!(
                "cols = {} must be a power of two in 16..=512",
                self.cols
            ));
        }
        if !self.mux.is_power_of_two() || !(1..=16).contains(&self.mux) {
            return Err(format!(
                "mux = {} must be a power of two in 1..=16",
                self.mux
            ));
        }
        if self.mux > self.cols {
            return Err(format!(
                "mux = {} cannot exceed cols = {}",
                self.mux, self.cols
            ));
        }
        if !(1..=8).contains(&self.banks) {
            return Err(format!("banks = {} outside 1..=8", self.banks));
        }
        let c_wl = C_WL_CELL * self.cols as f64;
        if c_wl > WORDLINE_CAP_MAX {
            return Err(format!(
                "wordline load {:.1} fF exceeds the {:.0} fF driver limit \
                 (sram22 WORDLINE_CAP_MAX); reduce cols",
                c_wl.femtofarads(),
                WORDLINE_CAP_MAX.femtofarads()
            ));
        }
        Ok(())
    }

    /// Total bitcells across all banks.
    #[must_use]
    pub fn bits(&self) -> usize {
        self.rows * self.cols * self.banks
    }

    /// Data bits per access (`cols / mux`).
    #[must_use]
    pub fn word_bits(&self) -> usize {
        self.cols / self.mux
    }

    /// Sense amps per macro (one per mux group).
    #[must_use]
    pub fn sense_amps(&self) -> usize {
        self.cols / self.mux
    }

    /// Decoder stages: `log2(rows)` levels of predecode + AND tree.
    #[must_use]
    pub fn decoder_stages(&self) -> usize {
        self.rows.trailing_zeros() as usize
    }

    /// Capacitance of one full wordline (`C_wl · cols`).
    #[must_use]
    pub fn wordline_cap(&self) -> Farad {
        C_WL_CELL * self.cols as f64
    }

    /// Capacitance of one bitline column (`C_bl · rows`).
    #[must_use]
    pub fn bitline_cap(&self) -> Farad {
        C_BL_CELL * self.rows as f64
    }
}

/// Per-access switched capacitance, broken down by structure. Summing the
/// components gives the effective `C_access` that `dante-energy` charges as
/// `C·V^2` per access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessCapacitance {
    /// Row-decoder tree plus the final wordline driver.
    pub decoder: Farad,
    /// The fired wordline (`C_wl · cols`).
    pub wordline: Farad,
    /// Bitline charge moved across all columns (swing-weighted).
    pub bitline: Farad,
    /// Column periphery: precharge + column mux, plus sense amps (read) or
    /// write drivers (write).
    pub column_periphery: Farad,
    /// Bank output multiplexer / shared data bus (reads only).
    pub output_mux: Farad,
}

impl AccessCapacitance {
    /// Total effective switched capacitance of the access.
    #[must_use]
    pub fn total(&self) -> Farad {
        self.decoder + self.wordline + self.bitline + self.column_periphery + self.output_mux
    }
}

/// The structural macro model: a device technology plus a geometry, from
/// which access capacitance (hence `C·V^2` access energy) and
/// replica-timed latency are derived.
///
/// # Examples
///
/// ```
/// use dante_circuit::macro_model::{AccessKind, SramMacroModel};
/// use dante_circuit::units::Volt;
///
/// let model = SramMacroModel::paper_bank();
/// // The 64 Kbit bank's read capacitance lands on the ~6 pF calibration.
/// let c = model.access_capacitance(AccessKind::Read).total();
/// assert!((c.picofarads() - 6.0).abs() < 0.1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SramMacroModel {
    device: DeviceModel,
    geometry: MacroGeometry,
}

impl SramMacroModel {
    /// Builds a model from a device and a validated geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails [`MacroGeometry::validate`].
    #[must_use]
    pub fn new(device: DeviceModel, geometry: MacroGeometry) -> Self {
        if let Err(why) = geometry.validate() {
            panic!("invalid macro geometry: {why}");
        }
        Self { device, geometry }
    }

    /// The paper's 64 Kbit energy bank on the default 14nm device.
    #[must_use]
    pub fn paper_bank() -> Self {
        Self::new(DeviceModel::default_14nm(), MacroGeometry::bank_64kbit())
    }

    /// The paper's 32 Kbit timing macro on the default 14nm device.
    #[must_use]
    pub fn paper_macro() -> Self {
        Self::new(DeviceModel::default_14nm(), MacroGeometry::macro_32kbit())
    }

    /// The device model in use.
    #[must_use]
    pub fn device(&self) -> &DeviceModel {
        &self.device
    }

    /// The geometry in use.
    #[must_use]
    pub fn geometry(&self) -> MacroGeometry {
        self.geometry
    }

    /// The per-access switched-capacitance breakdown for `kind`.
    ///
    /// Only the accessed macro's internals switch; the other `banks - 1`
    /// macros contribute output-bus load only.
    #[must_use]
    pub fn access_capacitance(&self, kind: AccessKind) -> AccessCapacitance {
        let g = self.geometry;
        let c_wl = g.wordline_cap();
        let c_bl_col = g.bitline_cap();
        let decoder = C_DECODER_UNIT * g.decoder_stages() as f64 + c_wl * WORDLINE_DRIVER_TAX;
        let shared_cols = (C_PRECHARGE_COL + C_MUX_COL) * g.cols as f64;
        match kind {
            AccessKind::Read => AccessCapacitance {
                decoder,
                wordline: c_wl,
                // Every column develops the sense-limited differential.
                bitline: c_bl_col * (g.cols as f64 * BITLINE_SENSE_SWING),
                column_periphery: shared_cols + C_SENSE_AMP * g.sense_amps() as f64,
                output_mux: C_OUTPUT_BIT * (g.word_bits() * g.banks) as f64,
            },
            AccessKind::Write => {
                let selected = g.word_bits() as f64;
                let half_selected = (g.cols - g.word_bits()) as f64;
                AccessCapacitance {
                    decoder,
                    wordline: c_wl,
                    // Selected columns swing rail-to-rail; half-selected
                    // columns still see the precharge-limited partial swing.
                    bitline: c_bl_col * (selected + half_selected * BITLINE_SENSE_SWING),
                    column_periphery: shared_cols + C_WRITE_DRIVER_COL * selected,
                    output_mux: Farad::ZERO,
                }
            }
        }
    }

    /// Replica-bitline delay at nominal voltage: the time [`REPLICA_CELLS`]
    /// always-on cells take to discharge one bitline column by
    /// [`REPLICA_TRIP`] of the rail. This is the sense-enable point.
    #[must_use]
    pub fn replica_delay(&self) -> Second {
        let charge = self.geometry.bitline_cap().farads() * REPLICA_TRIP;
        Second::new(charge / (REPLICA_CELLS as f64 * I_CELL_READ))
    }

    /// Safety margin of the replica path: how much longer the replica waits
    /// than the data bitlines need to develop [`BITLINE_SENSE_SWING`]. Must
    /// be at least 1 or reads mis-sense; the sram22 replica sizing
    /// (`REPLICA_TRIP / (REPLICA_CELLS · BITLINE_SENSE_SWING)`) guarantees
    /// it by construction.
    #[must_use]
    pub fn replica_margin(&self) -> f64 {
        REPLICA_TRIP / (REPLICA_CELLS as f64 * BITLINE_SENSE_SWING)
    }

    /// Array-side access delay at nominal voltage: replica-timed bitline
    /// development plus sense-amp resolution.
    #[must_use]
    pub fn array_delay(&self) -> Second {
        self.replica_delay() + T_SENSE_RESOLVE
    }

    /// Peripheral-side access delay at nominal voltage: decoder stages plus
    /// the wordline driver slewing its `C_wl · cols` load.
    #[must_use]
    pub fn peripheral_delay(&self) -> Second {
        let wl_slew = Second::new(self.geometry.wordline_cap().farads() / I_WL_DRIVER);
        T_DECODE_STAGE * self.geometry.decoder_stages() as f64 + wl_slew
    }

    /// Total nominal-voltage access time, derived from the replica-timed
    /// critical path (peripheral + array).
    #[must_use]
    pub fn nominal_access_time(&self) -> Second {
        self.peripheral_delay() + self.array_delay()
    }

    /// The peripheral fraction of the access — the quantity the scalar model
    /// asserts as `PERIPHERAL_FRACTION = 0.45`, here derived from the
    /// decode/replica delay split.
    #[must_use]
    pub fn derived_peripheral_fraction(&self) -> f64 {
        self.peripheral_delay() / self.nominal_access_time()
    }

    /// Builds the voltage-dependent timing model from the derived nominal
    /// access and peripheral fraction: the structural replacement for
    /// [`SramTiming::macro_32kbit`], compatible with every boosted-latency
    /// query (Fig. 9).
    #[must_use]
    pub fn timing(&self) -> SramTiming {
        SramTiming::new(
            self.device.clone(),
            self.nominal_access_time(),
            self.derived_peripheral_fraction(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Volt;

    #[test]
    fn paper_geometries_have_the_paper_sizes() {
        assert_eq!(MacroGeometry::macro_32kbit().bits(), 32 * 1024);
        assert_eq!(MacroGeometry::bank_64kbit().bits(), 64 * 1024);
        assert_eq!(MacroGeometry::macro_32kbit().word_bits(), 32);
        assert_eq!(MacroGeometry::macro_32kbit().decoder_stages(), 8);
    }

    #[test]
    fn bank_read_capacitance_lands_on_the_6pf_calibration() {
        let c = SramMacroModel::paper_bank()
            .access_capacitance(AccessKind::Read)
            .total();
        assert!(
            (c.picofarads() - 6.0).abs() < 0.05,
            "derived read capacitance {c} should land on the 6 pF scalar"
        );
    }

    #[test]
    fn write_costs_more_than_read() {
        let m = SramMacroModel::paper_bank();
        let r = m.access_capacitance(AccessKind::Read).total();
        let w = m.access_capacitance(AccessKind::Write).total();
        assert!(
            w > r,
            "full-swing write {w} must exceed sense-limited read {r}"
        );
    }

    #[test]
    fn replica_timing_derives_the_45_percent_peripheral_fraction() {
        let m = SramMacroModel::paper_macro();
        let f = m.derived_peripheral_fraction();
        assert!(
            (f - 0.45).abs() < 0.02,
            "derived peripheral fraction {f:.3} should land near 0.45"
        );
        let t = m.nominal_access_time();
        assert!(
            (t.nanoseconds() - 1.0).abs() < 0.1,
            "derived nominal access {t} should land near 1 ns"
        );
    }

    #[test]
    fn replica_fires_after_the_data_swing_is_ready() {
        let m = SramMacroModel::paper_macro();
        assert!(
            m.replica_margin() >= 1.0,
            "replica margin {:.2} would mis-sense",
            m.replica_margin()
        );
    }

    #[test]
    fn structural_timing_behaves_like_the_scalar_timing() {
        let t = SramMacroModel::paper_macro().timing();
        // Monotone latency blow-up towards threshold, normalized at nominal.
        assert!((t.normalized_access(Volt::new(0.8)) - 1.0).abs() < 1e-12);
        assert!(t.normalized_access(Volt::new(0.4)) > t.normalized_access(Volt::new(0.5)));
    }

    #[test]
    fn the_array_is_dominated_by_bitlines() {
        let c = SramMacroModel::paper_bank().access_capacitance(AccessKind::Read);
        let array_fraction = (c.wordline + c.bitline) / c.total();
        assert!(array_fraction > 0.8, "bitlines dominate access charge");
        assert!(c.bitline > c.wordline);
    }

    #[test]
    fn larger_macros_cost_more_per_access() {
        let small = SramMacroModel::new(
            DeviceModel::default_14nm(),
            MacroGeometry::new(128, 64, 4, 1),
        );
        let large = SramMacroModel::paper_macro();
        assert!(
            large.access_capacitance(AccessKind::Read).total()
                > small.access_capacitance(AccessKind::Read).total()
        );
        assert!(large.nominal_access_time() > small.nominal_access_time());
    }

    #[test]
    fn validation_rejects_bad_geometries() {
        assert!(MacroGeometry {
            rows: 100,
            cols: 128,
            mux: 4,
            banks: 1
        }
        .validate()
        .is_err());
        assert!(MacroGeometry {
            rows: 256,
            cols: 8,
            mux: 4,
            banks: 1
        }
        .validate()
        .is_err());
        assert!(MacroGeometry {
            rows: 256,
            cols: 128,
            mux: 3,
            banks: 1
        }
        .validate()
        .is_err());
        assert!(MacroGeometry {
            rows: 256,
            cols: 128,
            mux: 4,
            banks: 0
        }
        .validate()
        .is_err());
        // 512 columns would put ~628 fF on one wordline, past the sram22
        // driver limit.
        let err = MacroGeometry {
            rows: 256,
            cols: 512,
            mux: 4,
            banks: 1,
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("wordline load"), "{err}");
    }

    #[test]
    #[should_panic(expected = "invalid macro geometry")]
    fn constructor_panics_on_invalid_geometry() {
        let _ = MacroGeometry::new(100, 128, 4, 1);
    }
}
