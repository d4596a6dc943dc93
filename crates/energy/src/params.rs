//! Absolute energy calibration of the taped-out chip (DESIGN.md Sec. 4).
//!
//! The paper measures SRAM access energy with Spectre and PE energy with
//! Cadence Joules post-route; this module is the analytic stand-in. Dynamic
//! energies follow `C_eff * V^2`; leakage follows the shared
//! [`DeviceModel`]. The two effective capacitances set the paper's
//! `Energy_ratio` (memory access vs. compute op) to ~3, the "small banks"
//! regime the paper argues accelerators live in (Sec. 6.1).

use core::fmt;

use dante_circuit::device::DeviceModel;
use dante_circuit::macro_model::{AccessKind, MacroGeometry, SramMacroModel};
use dante_circuit::units::{Farad, Hertz, Joule, Second, Volt, Watt};

/// Effective switched capacitance of one 64 Kbit bank access including the
/// output multiplexer (E = 3.84 pJ at 0.8 V).
pub const C_SRAM_ACCESS: Farad = Farad::const_new(6.0e-12);

/// Effective switched capacitance of one PE operation (16-bit MAC +
/// activation + control; E = 1.28 pJ at 0.8 V).
pub const C_PE_OP: Farad = Farad::const_new(2.0e-12);

/// Nominal-voltage leakage of one 64 Kbit SRAM bank.
pub const P_LEAK_SRAM_BANK_NOM: Watt = Watt::const_new(40.0e-6);

/// Nominal-voltage leakage of the PE array plus control logic.
pub const P_LEAK_PE_NOM: Watt = Watt::const_new(200.0e-6);

/// Booster-circuit leakage as a fraction of chip leakage at the same
/// voltage (the paper reports ~6% overhead).
pub const BOOSTER_LEAK_FRACTION: f64 = 0.06;

/// Number of 64 Kbit banks on the chip (144 KB / 8 KB).
pub const DANTE_BANKS: usize = 18;

/// Bitcells in the calibrated 64 Kbit bank, the reference size the
/// per-bank leakage constant is quoted at.
pub const CALIBRATED_BANK_BITS: usize = 64 * 1024;

/// Where the SRAM access energy comes from: the measured scalar
/// calibration, or a structural [`MacroGeometry`] from which it is derived.
///
/// `Calibrated` is the default. Both variants encode to a `geom=` token
/// ([`Self::canonical_token`]) in every canonical spec string that carries
/// a geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GeometrySpec {
    /// The measured scalar calibration (`C_SRAM_ACCESS` = 6 pF, 1 ns / 45%
    /// timing split).
    #[default]
    Calibrated,
    /// Access energy and leakage derived from a structural macro geometry
    /// via [`SramMacroModel`].
    Structural(MacroGeometry),
}

impl GeometrySpec {
    /// Canonical token for cache keys: `calibrated`, or
    /// `struct(r=..,c=..,m=..,b=..)` with every dimension printed.
    #[must_use]
    pub fn canonical_token(&self) -> String {
        match self {
            Self::Calibrated => "calibrated".to_owned(),
            Self::Structural(g) => format!(
                "struct(r={},c={},m={},b={})",
                g.rows, g.cols, g.mux, g.banks
            ),
        }
    }

    /// Validates a structural geometry's bounds; the calibrated default is
    /// always valid.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated bound.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Self::Calibrated => Ok(()),
            Self::Structural(g) => g.validate(),
        }
    }
}

impl fmt::Display for GeometrySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical_token())
    }
}

/// Calibrated energy parameters of one accelerator instance.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyParams {
    device: DeviceModel,
    c_sram_access: Farad,
    c_pe_op: Farad,
    p_leak_sram_bank_nom: Watt,
    p_leak_pe_nom: Watt,
    booster_leak_fraction: f64,
    sram_banks: usize,
    frequency: Hertz,
}

impl EnergyParams {
    /// The taped-out chip's calibration: 18 banks, 50 MHz (the frequency all
    /// of the paper's experiments run at).
    #[must_use]
    pub fn dante_chip() -> Self {
        Self {
            device: DeviceModel::default_14nm(),
            c_sram_access: C_SRAM_ACCESS,
            c_pe_op: C_PE_OP,
            p_leak_sram_bank_nom: P_LEAK_SRAM_BANK_NOM,
            p_leak_pe_nom: P_LEAK_PE_NOM,
            booster_leak_fraction: BOOSTER_LEAK_FRACTION,
            sram_banks: DANTE_BANKS,
            frequency: Hertz::const_new(50.0e6),
        }
    }

    /// Returns a copy with a different memory/compute energy ratio
    /// (`C_sram = ratio * C_pe`), used by the Fig. 12 design-space sweep.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is not positive and finite. (`f64::INFINITY`
    /// previously passed the `> 0` check and turned `c_sram_access` into an
    /// infinite capacitance that silently poisoned every downstream energy
    /// number.)
    #[must_use]
    pub fn with_energy_ratio(mut self, ratio: f64) -> Self {
        assert!(
            ratio.is_finite() && ratio > 0.0,
            "energy ratio must be positive and finite"
        );
        self.c_sram_access = self.c_pe_op * ratio;
        self
    }

    /// Returns a copy whose SRAM access energy and bank leakage are derived
    /// from a structural macro geometry instead of the scalar calibration:
    ///
    /// * `c_sram_access` becomes the geometry's read-access switched
    ///   capacitance ([`SramMacroModel::access_capacitance`]);
    /// * per-bank leakage scales with the geometry's bitcell count relative
    ///   to the calibrated 64 Kbit bank.
    ///
    /// With [`GeometrySpec::Calibrated`] this is the identity, so a
    /// calibrated spec runs exactly the scalar path.
    ///
    /// # Panics
    ///
    /// Panics if a structural geometry fails [`MacroGeometry::validate`].
    #[must_use]
    pub fn with_geometry(mut self, geometry: GeometrySpec) -> Self {
        match geometry {
            GeometrySpec::Calibrated => self,
            GeometrySpec::Structural(g) => {
                let model = SramMacroModel::new(self.device.clone(), g);
                self.c_sram_access = model.access_capacitance(AccessKind::Read).total();
                self.p_leak_sram_bank_nom =
                    P_LEAK_SRAM_BANK_NOM * (g.bits() as f64 / CALIBRATED_BANK_BITS as f64);
                self
            }
        }
    }

    /// The device model in use.
    #[must_use]
    pub fn device(&self) -> &DeviceModel {
        &self.device
    }

    /// Operating frequency (fixed 50 MHz in the paper's experiments).
    #[must_use]
    pub fn frequency(&self) -> Hertz {
        self.frequency
    }

    /// One clock period.
    #[must_use]
    pub fn cycle(&self) -> Second {
        self.frequency.period()
    }

    /// Number of SRAM banks.
    #[must_use]
    pub fn sram_banks(&self) -> usize {
        self.sram_banks
    }

    /// Dynamic energy of one SRAM bank access at rail voltage `v`
    /// (`E(SRAM, V)` of Eqs. 2/3/6).
    #[must_use]
    pub fn e_sram(&self, v: Volt) -> Joule {
        self.c_sram_access.switching_energy(v)
    }

    /// Dynamic energy of one PE operation at `v` (`E(PE, V)`).
    #[must_use]
    pub fn e_pe(&self, v: Volt) -> Joule {
        self.c_pe_op.switching_energy(v)
    }

    /// The memory-to-compute energy ratio at equal voltage (the paper's
    /// `Energy_ratio`).
    #[must_use]
    pub fn energy_ratio(&self) -> f64 {
        self.c_sram_access / self.c_pe_op
    }

    /// Total SRAM leakage power with every bank at `v`.
    #[must_use]
    pub fn leak_sram(&self, v: Volt) -> Watt {
        self.device
            .leakage_power(v, self.p_leak_sram_bank_nom * self.sram_banks as f64)
    }

    /// PE/control leakage power at `v`.
    #[must_use]
    pub fn leak_pe(&self, v: Volt) -> Watt {
        self.device.leakage_power(v, self.p_leak_pe_nom)
    }

    /// Booster-circuit leakage at `v` (`LE(BC, Vdd)` of Eq. 4): a fixed
    /// fraction of the chip leakage at the same voltage.
    #[must_use]
    pub fn leak_booster(&self, v: Volt) -> Watt {
        (self.leak_sram(v) + self.leak_pe(v)) * self.booster_leak_fraction
    }
}

impl Default for EnergyParams {
    fn default() -> Self {
        Self::dante_chip()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_energies_scale_as_v_squared() {
        let p = EnergyParams::dante_chip();
        let e1 = p.e_sram(Volt::new(0.4));
        let e2 = p.e_sram(Volt::new(0.8));
        assert!((e2.joules() / e1.joules() - 4.0).abs() < 1e-9);
        let p1 = p.e_pe(Volt::new(0.3));
        let p2 = p.e_pe(Volt::new(0.6));
        assert!((p2.joules() / p1.joules() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn energy_ratio_is_about_three() {
        // Sec. 6.1: "for designs with small banks ... the energy of a memory
        // access is not significantly higher than that of a compute op."
        let p = EnergyParams::dante_chip();
        assert!((p.energy_ratio() - 3.0).abs() < 0.01);
    }

    #[test]
    fn with_energy_ratio_overrides_sram_cost() {
        let p = EnergyParams::dante_chip().with_energy_ratio(10.0);
        assert!((p.energy_ratio() - 10.0).abs() < 1e-9);
        let v = Volt::new(0.5);
        assert!((p.e_sram(v).joules() / p.e_pe(v).joules() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn booster_leakage_is_six_percent_of_chip() {
        let p = EnergyParams::dante_chip();
        let v = Volt::new(0.4);
        let chip = p.leak_sram(v) + p.leak_pe(v);
        let bc = p.leak_booster(v);
        assert!((bc.watts() / chip.watts() - 0.06).abs() < 1e-9);
    }

    #[test]
    fn leakage_decreases_with_voltage() {
        let p = EnergyParams::dante_chip();
        assert!(p.leak_sram(Volt::new(0.4)) < p.leak_sram(Volt::new(0.6)));
        assert!(p.leak_pe(Volt::new(0.34)) < p.leak_pe(Volt::new(0.5)));
    }

    #[test]
    fn cycle_is_20ns_at_50mhz() {
        let p = EnergyParams::dante_chip();
        assert!((p.cycle().nanoseconds() - 20.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn infinite_energy_ratio_rejected() {
        // Regression: INFINITY passed the old `> 0.0` check and poisoned
        // c_sram_access into an infinite capacitance.
        let _ = EnergyParams::dante_chip().with_energy_ratio(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn nan_energy_ratio_rejected() {
        let _ = EnergyParams::dante_chip().with_energy_ratio(f64::NAN);
    }

    #[test]
    fn calibrated_geometry_is_the_identity() {
        let base = EnergyParams::dante_chip();
        let geo = base.clone().with_geometry(GeometrySpec::Calibrated);
        assert_eq!(base, geo);
    }

    #[test]
    fn structural_bank_geometry_reproduces_the_calibration() {
        // The whole point of the structural model: at the paper's 64 Kbit
        // bank geometry the derived access energy lands on the 6 pF scalar
        // and the leakage scale is exactly the calibrated bank's.
        let geo = EnergyParams::dante_chip()
            .with_geometry(GeometrySpec::Structural(MacroGeometry::bank_64kbit()));
        assert!(
            (geo.energy_ratio() - 3.0).abs() < 0.05,
            "derived Energy_ratio {} should land on ~3",
            geo.energy_ratio()
        );
        let e = geo.e_sram(Volt::new(0.8));
        assert!(
            (e.picojoules() - 3.84).abs() < 0.05,
            "derived access energy {e} should land on 3.84 pJ"
        );
        assert_eq!(
            geo.leak_sram(Volt::new(0.8)).watts(),
            EnergyParams::dante_chip().leak_sram(Volt::new(0.8)).watts()
        );
    }

    #[test]
    fn smaller_geometry_cuts_access_energy_and_leakage() {
        let small = EnergyParams::dante_chip()
            .with_geometry(GeometrySpec::Structural(MacroGeometry::new(128, 64, 4, 1)));
        let base = EnergyParams::dante_chip();
        assert!(small.e_sram(Volt::new(0.5)) < base.e_sram(Volt::new(0.5)));
        assert!(small.leak_sram(Volt::new(0.5)) < base.leak_sram(Volt::new(0.5)));
    }

    #[test]
    fn geometry_tokens_are_injective() {
        assert_eq!(GeometrySpec::Calibrated.canonical_token(), "calibrated");
        let a = GeometrySpec::Structural(MacroGeometry::bank_64kbit());
        let b = GeometrySpec::Structural(MacroGeometry::macro_32kbit());
        assert_eq!(a.canonical_token(), "struct(r=256,c=128,m=4,b=2)");
        assert_ne!(a.canonical_token(), b.canonical_token());
        assert_eq!(a.to_string(), a.canonical_token());
    }
}
