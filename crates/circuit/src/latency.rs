//! SRAM access latency vs. supply voltage (paper Fig. 7 bottom and Fig. 9).
//!
//! A macro access splits between peripheral logic (address decode, wordline
//! drive, sense) and the bitcell array. Both follow the alpha-power delay
//! law of [`crate::device::DeviceModel`], but under *array-level* boosting
//! only the array portion sees the boosted rail, while under *macro-level*
//! boosting everything speeds up at a somewhat lower boosted voltage (the
//! peripherals add load to the boost node). This reproduces the Fig. 9
//! observation that macro boosting cuts overall latency the most — up to
//! ~35% at 0.5 V — even though its `V_b` is smaller.

use crate::booster::{BoostScope, BoosterBank};
use crate::device::DeviceModel;
use crate::units::{Second, Volt};

/// Fraction of the unboosted access time spent in peripheral logic.
pub const PERIPHERAL_FRACTION: f64 = 0.45;

/// Access-latency model for one SRAM macro.
#[derive(Debug, Clone, PartialEq)]
pub struct SramTiming {
    device: DeviceModel,
    nominal_access: Second,
    peripheral_fraction: f64,
}

impl SramTiming {
    /// Creates a timing model.
    ///
    /// # Panics
    ///
    /// Panics if `peripheral_fraction` is outside `[0, 1]` or the nominal
    /// access time is non-positive or non-finite.
    #[must_use]
    pub fn new(device: DeviceModel, nominal_access: Second, peripheral_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&peripheral_fraction),
            "peripheral fraction must be in [0, 1]"
        );
        assert!(
            nominal_access.is_finite() && nominal_access.seconds() > 0.0,
            "nominal access time must be positive and finite"
        );
        Self {
            device,
            nominal_access,
            peripheral_fraction,
        }
    }

    /// The 32 Kbit dual-port macro of the paper: 1 ns access at nominal
    /// voltage, 45% of it in the peripherals.
    #[must_use]
    pub fn macro_32kbit() -> Self {
        Self::new(
            DeviceModel::default_14nm(),
            Second::from_nanoseconds(1.0),
            PERIPHERAL_FRACTION,
        )
    }

    /// The device model in use.
    #[must_use]
    pub fn device(&self) -> &DeviceModel {
        &self.device
    }

    /// Unboosted access time with the whole macro at `vdd`.
    #[must_use]
    pub fn access_time(&self, vdd: Volt) -> Second {
        self.nominal_access * self.device.relative_delay(vdd)
    }

    /// Access time normalized to the access time at nominal voltage
    /// (the Fig. 7 bottom curve).
    #[must_use]
    pub fn normalized_access(&self, vdd: Volt) -> f64 {
        self.device.relative_delay(vdd)
    }

    /// Access time when the macro is boosted by `bank` at `level` under the
    /// given scope:
    ///
    /// * [`BoostScope::Array`] — peripherals run at `vdd`, the array at the
    ///   (higher) array-boosted voltage;
    /// * [`BoostScope::Macro`] — everything runs at the (lower) macro-boosted
    ///   voltage.
    #[must_use]
    pub fn boosted_access_time(
        &self,
        vdd: Volt,
        bank: &BoosterBank,
        level: usize,
        scope: BoostScope,
    ) -> Second {
        let periph = self.nominal_access * self.peripheral_fraction;
        let array = self.nominal_access * (1.0 - self.peripheral_fraction);
        let vddv = bank.boosted_voltage_scoped(vdd, level, scope);
        match scope {
            BoostScope::Array => {
                periph * self.device.relative_delay(vdd) + array * self.device.relative_delay(vddv)
            }
            BoostScope::Macro => (periph + array) * self.device.relative_delay(vddv),
        }
    }

    /// Boosted access time expressed as a fraction of the *unboosted* access
    /// time at the same `vdd` — the y-axis of paper Fig. 9.
    #[must_use]
    pub fn boosted_access_fraction(
        &self,
        vdd: Volt,
        bank: &BoosterBank,
        level: usize,
        scope: BoostScope,
    ) -> f64 {
        self.boosted_access_time(vdd, bank, level, scope) / self.access_time(vdd)
    }
}

impl Default for SramTiming {
    fn default() -> Self {
        Self::macro_32kbit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_rises_as_voltage_drops() {
        let t = SramTiming::macro_32kbit();
        let mut prev = 0.0;
        for mv in [800, 700, 600, 500, 450, 400, 360, 340] {
            let n = t.normalized_access(Volt::from_millivolts(f64::from(mv)));
            assert!(n > prev, "latency must grow monotonically as V drops");
            prev = n;
        }
        // Normalized to 1.0 at nominal.
        assert!((t.normalized_access(Volt::new(0.8)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn boosting_reduces_access_time() {
        let t = SramTiming::macro_32kbit();
        let bank = BoosterBank::standard();
        let vdd = Volt::new(0.5);
        for scope in [BoostScope::Array, BoostScope::Macro] {
            let mut prev = 1.0 + 1e-12;
            for level in 0..=4 {
                let frac = t.boosted_access_fraction(vdd, &bank, level, scope);
                assert!(frac <= prev, "higher boost level must not slow access");
                prev = frac;
            }
        }
    }

    #[test]
    fn macro_boost_beats_array_boost_on_latency() {
        // Paper Sec. 3.3.2 / Fig. 9: boosting the peripherals too cuts
        // latency further despite the smaller V_b.
        let t = SramTiming::macro_32kbit();
        let bank = BoosterBank::standard();
        for mv in [500, 600, 700] {
            let vdd = Volt::from_millivolts(f64::from(mv));
            for level in 1..=4 {
                let a = t.boosted_access_fraction(vdd, &bank, level, BoostScope::Array);
                let m = t.boosted_access_fraction(vdd, &bank, level, BoostScope::Macro);
                assert!(m < a, "macro boost must be faster (level {level} @ {vdd})");
            }
        }
    }

    #[test]
    fn macro_boost_saves_around_35_percent_at_0v5() {
        // Paper: "boosting peripheral logic and the array leads to a maximum
        // of 35% reduction in overall macro access latency at 0.5 V."
        let t = SramTiming::macro_32kbit();
        let bank = BoosterBank::standard();
        let frac = t.boosted_access_fraction(Volt::new(0.5), &bank, 4, BoostScope::Macro);
        let reduction = 1.0 - frac;
        assert!(
            (0.25..=0.45).contains(&reduction),
            "latency reduction {reduction:.2} outside the band around 35%"
        );
    }

    #[test]
    fn zero_level_boost_is_identity() {
        let t = SramTiming::macro_32kbit();
        let bank = BoosterBank::standard();
        let vdd = Volt::new(0.6);
        let frac = t.boosted_access_fraction(vdd, &bank, 0, BoostScope::Array);
        assert!((frac - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "peripheral fraction")]
    fn bad_fraction_rejected() {
        let _ = SramTiming::new(
            DeviceModel::default_14nm(),
            Second::from_nanoseconds(1.0),
            1.5,
        );
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn infinite_nominal_access_rejected() {
        let _ = SramTiming::new(
            DeviceModel::default_14nm(),
            Second::new(f64::INFINITY),
            PERIPHERAL_FRACTION,
        );
    }
}
