//! 14nm-like device/technology model: delay, dynamic energy, and leakage
//! versus supply voltage.
//!
//! The paper obtains these curves from Cadence Spectre and Cadence Joules on
//! the foundry PDK; this module is the analytic stand-in (see DESIGN.md
//! "Calibration constants"). Three standard compact relations are used:
//!
//! * **Delay** — the alpha-power law `t(V) = k * V / (V - V_t)^alpha`
//!   (Sakurai–Newton), which reproduces the super-linear latency blow-up of
//!   Fig. 7 (bottom) as `V` approaches the threshold voltage.
//! * **Dynamic energy** — `E = C_eff * V^2` per event.
//! * **Leakage power** — `P(V) = P0 * (V / V_nom) * exp((V - V_nom) / v_dibl)`,
//!   an exponential DIBL-style dependence anchored at the nominal voltage.
//!
//! All consumers share one [`DeviceModel`] so that every crate in the
//! workspace is calibrated identically.

use crate::units::{Second, Volt, Watt};

/// Nominal supply voltage of the 14nm process used by the paper (0.8 V).
pub const V_NOM: Volt = Volt(0.8);

/// Compact 14nm-like technology model shared by all simulators.
///
/// # Examples
///
/// ```
/// use dante_circuit::device::DeviceModel;
/// use dante_circuit::units::Volt;
///
/// let dev = DeviceModel::default_14nm();
/// // Delay grows as voltage drops towards threshold:
/// assert!(dev.relative_delay(Volt::new(0.4)) > dev.relative_delay(Volt::new(0.6)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceModel {
    /// Threshold voltage `V_t` of the alpha-power delay law.
    vt: Volt,
    /// Velocity-saturation exponent `alpha` (between 1 and 2 in FinFETs).
    alpha: f64,
    /// Nominal supply voltage the model is anchored at.
    v_nom: Volt,
    /// DIBL-style leakage voltage scale (exponential slope).
    v_dibl: Volt,
}

// `Volt` is a private-field newtype; construct the constant through a helper
// in this crate where the field is visible.
#[allow(non_snake_case)]
const fn Volt(v: f64) -> Volt {
    crate::units::Volt::const_new(v)
}

impl DeviceModel {
    /// Returns the calibrated 14nm-like model used throughout the paper
    /// reproduction (`V_t = 0.23 V`, `alpha = 1.45`, `V_nom = 0.8 V`,
    /// `v_dibl = 2.5 V`).
    ///
    /// The leakage scale is deliberately shallow (total standby power of a
    /// high-V_t server SRAM falls only slightly faster than linearly with
    /// the rail); this is what calibrates the paper's 32% boost-vs-dual
    /// leakage savings (DESIGN.md Sec. 4).
    #[must_use]
    pub fn default_14nm() -> Self {
        Self {
            vt: Volt(0.23),
            alpha: 1.45,
            v_nom: V_NOM,
            v_dibl: Volt(2.5),
        }
    }

    /// Builds a custom model.
    ///
    /// # Panics
    ///
    /// Panics if any voltage is non-finite, if `vt >= v_nom`, if `alpha` is
    /// not in `(0.5, 3.0]`, or if `v_dibl` is non-positive — such models are
    /// physically meaningless. (An infinite `v_nom` passes the ordering
    /// check but normalizes every delay to 0/inf, so finiteness is checked
    /// explicitly.)
    #[must_use]
    pub fn new(vt: Volt, alpha: f64, v_nom: Volt, v_dibl: Volt) -> Self {
        assert!(
            vt.is_finite() && v_nom.is_finite() && v_dibl.is_finite(),
            "device voltages must be finite"
        );
        assert!(vt.volts() < v_nom.volts(), "V_t must be below V_nom");
        assert!(
            alpha > 0.5 && alpha <= 3.0,
            "alpha-power exponent out of the physical range (0.5, 3.0]"
        );
        assert!(
            v_dibl.volts() > 0.0,
            "leakage voltage scale must be positive"
        );
        Self {
            vt,
            alpha,
            v_nom,
            v_dibl,
        }
    }

    /// Threshold voltage of the delay law.
    #[must_use]
    pub fn vt(&self) -> Volt {
        self.vt
    }

    /// Nominal supply voltage the model is anchored at.
    #[must_use]
    pub fn v_nom(&self) -> Volt {
        self.v_nom
    }

    /// Alpha-power delay relative to the delay at nominal voltage.
    ///
    /// `relative_delay(V_nom) == 1.0` and the value grows without bound as
    /// `v` approaches `V_t` from above.
    ///
    /// # Panics
    ///
    /// Panics if `v <= V_t`: logic does not switch below threshold in this
    /// model, so asking for its delay is a caller bug.
    #[must_use]
    pub fn relative_delay(&self, v: Volt) -> f64 {
        assert!(
            v.volts() > self.vt.volts(),
            "no valid delay at or below threshold ({} <= {})",
            v,
            self.vt
        );
        let d = |vv: f64| vv / (vv - self.vt.volts()).powf(self.alpha);
        d(v.volts()) / d(self.v_nom.volts())
    }

    /// Absolute delay given the delay measured at nominal voltage.
    #[must_use]
    pub fn delay(&self, v: Volt, delay_at_nominal: Second) -> Second {
        delay_at_nominal * self.relative_delay(v)
    }

    /// Leakage power at voltage `v` for a block whose leakage at nominal
    /// voltage is `p_nom`.
    ///
    /// Uses `P(V) = P_nom * (V/V_nom) * exp((V - V_nom)/v_dibl)`: the linear
    /// factor is the supply rail scaling, the exponential captures
    /// DIBL/subthreshold-slope reduction of leakage current at low voltage.
    #[must_use]
    pub fn leakage_power(&self, v: Volt, p_nom: Watt) -> Watt {
        let ratio = v.volts() / self.v_nom.volts();
        let expo = ((v.volts() - self.v_nom.volts()) / self.v_dibl.volts()).exp();
        p_nom * (ratio * expo)
    }
}

impl Default for DeviceModel {
    fn default() -> Self {
        Self::default_14nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{Second, Volt, Watt};

    #[test]
    fn relative_delay_is_one_at_nominal() {
        let dev = DeviceModel::default_14nm();
        assert!((dev.relative_delay(dev.v_nom()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn delay_grows_steeply_at_low_voltage() {
        let dev = DeviceModel::default_14nm();
        let d04 = dev.relative_delay(Volt::new(0.4));
        let d05 = dev.relative_delay(Volt::new(0.5));
        let d08 = dev.relative_delay(Volt::new(0.8));
        assert!(d04 > d05 && d05 > d08);
        // Super-linear slowdown: going 0.8 -> 0.4 V (2x voltage) must cost
        // well over 2x in delay.
        assert!(d04 / d08 > 2.5, "slowdown at 0.4 V was only {}", d04 / d08);
    }

    #[test]
    #[should_panic(expected = "no valid delay")]
    fn delay_below_threshold_panics() {
        let dev = DeviceModel::default_14nm();
        let _ = dev.relative_delay(Volt::new(0.2));
    }

    #[test]
    fn leakage_drops_superlinearly_with_voltage() {
        let dev = DeviceModel::default_14nm();
        let p_nom = Watt::from_microwatts(100.0);
        let p_half = dev.leakage_power(Volt::new(0.4), p_nom);
        // Halving the rail must save more than the linear 50%, but the slope
        // is deliberately shallow (see default_14nm docs).
        assert!(p_half.microwatts() < 50.0);
        assert!(p_half.microwatts() > 25.0);
    }

    #[test]
    fn leakage_at_nominal_is_nominal() {
        let dev = DeviceModel::default_14nm();
        let p_nom = Watt::from_microwatts(42.0);
        let p = dev.leakage_power(dev.v_nom(), p_nom);
        assert!((p.microwatts() - 42.0).abs() < 1e-9);
    }

    #[test]
    fn critical_path_matches_table1_shape() {
        // Table 1: 330 MHz @ 0.8 V, and a fixed 50 MHz target for the whole
        // Vdd <= 0.5 V range. The critical path must still close at 50 MHz at
        // the lowest operating point, 0.34 V.
        let dev = DeviceModel::default_14nm();
        let crit = Second::from_nanoseconds(1.0 / 0.330);
        let floor_ns = dev.delay(Volt::new(0.34), crit).nanoseconds();
        assert!(
            floor_ns <= 20.0,
            "0.34 V must sustain the 50 MHz target, got a {floor_ns:.1} ns path"
        );
        assert!(floor_ns > 5.0, "low-voltage path implausibly fast");
    }

    #[test]
    #[should_panic(expected = "V_t must be below")]
    fn invalid_model_rejected() {
        let _ = DeviceModel::new(Volt::new(0.9), 1.4, Volt::new(0.8), Volt::new(0.1));
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn infinite_v_nom_rejected() {
        // An infinite V_nom satisfies `vt < v_nom` but would normalize every
        // delay against infinity; the finiteness gate must catch it.
        let _ = DeviceModel::new(
            Volt::new(0.23),
            1.45,
            Volt::new(f64::INFINITY),
            Volt::new(2.5),
        );
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn infinite_v_dibl_rejected() {
        let _ = DeviceModel::new(
            Volt::new(0.23),
            1.45,
            Volt::new(0.8),
            Volt::new(f64::INFINITY),
        );
    }
}
