//! Per-component energy breakdowns: where the joules of one inference go
//! under each supply configuration.
//!
//! The paper's argument is fundamentally about *which component pays*:
//! boosting moves a little energy into the SRAM (the boosted rail) and the
//! booster circuit so the logic can ride a much lower rail, while the LDO
//! baseline taxes every logic operation. Breakdowns make that visible and
//! are used by the examples and the report tooling.

use crate::supply::{BoostedGroup, EnergyModel};
use core::fmt;
use dante_circuit::units::{Joule, Volt};

/// Energy attributed to each component of one inference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyBreakdown {
    /// SRAM array access energy.
    pub sram: Joule,
    /// Processing-element (logic) energy, including any LDO loss.
    pub logic: Joule,
    /// Booster-circuit drive energy (zero for non-boosted configurations).
    pub booster: Joule,
}

impl EnergyBreakdown {
    /// Total energy.
    #[must_use]
    pub fn total(&self) -> Joule {
        self.sram + self.logic + self.booster
    }

    /// Fraction of the total spent in the SRAM.
    #[must_use]
    pub fn sram_fraction(&self) -> f64 {
        self.sram.joules() / self.total().joules()
    }

    /// Fraction of the total spent in the logic (incl. LDO loss).
    #[must_use]
    pub fn logic_fraction(&self) -> f64 {
        self.logic.joules() / self.total().joules()
    }

    /// Fraction of the total spent driving the booster.
    #[must_use]
    pub fn booster_fraction(&self) -> f64 {
        self.booster.joules() / self.total().joules()
    }
}

impl fmt::Display for EnergyBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sram {:.2} pJ ({:.0}%) | logic {:.2} pJ ({:.0}%) | booster {:.2} pJ ({:.0}%)",
            self.sram.picojoules(),
            self.sram_fraction() * 100.0,
            self.logic.picojoules(),
            self.logic_fraction() * 100.0,
            self.booster.picojoules(),
            self.booster_fraction() * 100.0,
        )
    }
}

impl EnergyModel {
    /// Component breakdown of the single-supply configuration (Eq. 2).
    #[must_use]
    pub fn breakdown_single(&self, vdd: Volt, sram_accesses: u64, macs: u64) -> EnergyBreakdown {
        EnergyBreakdown {
            sram: self.params().e_sram(vdd) * sram_accesses as f64,
            logic: self.params().e_pe(vdd) * macs as f64,
            booster: Joule::ZERO,
        }
    }

    /// Component breakdown of the boosted configuration (Eq. 3).
    ///
    /// # Panics
    ///
    /// Panics if any group's level exceeds the booster's.
    #[must_use]
    pub fn breakdown_boosted(
        &self,
        vdd: Volt,
        groups: &[BoostedGroup],
        macs: u64,
    ) -> EnergyBreakdown {
        let mut sram = Joule::ZERO;
        let mut booster = Joule::ZERO;
        for g in groups {
            let vddv = self.booster().boosted_voltage(vdd, g.level);
            sram += self.params().e_sram(vddv) * g.accesses as f64;
            booster += self.booster().boost_event_energy(vdd, g.level) * g.accesses as f64;
        }
        EnergyBreakdown {
            sram,
            logic: self.params().e_pe(vdd) * macs as f64,
            booster,
        }
    }

    /// Component breakdown of the dual-supply configuration (Eq. 6); the
    /// LDO loss is folded into the logic component, as in the paper.
    #[must_use]
    pub fn breakdown_dual(
        &self,
        v_mem: Volt,
        v_logic: Volt,
        sram_accesses: u64,
        macs: u64,
    ) -> EnergyBreakdown {
        let eta = self.ldo().efficiency(v_logic, v_mem);
        EnergyBreakdown {
            sram: self.params().e_sram(v_mem) * sram_accesses as f64,
            logic: self.params().e_pe(v_logic) * (macs as f64 / eta),
            booster: Joule::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VDD: Volt = Volt::const_new(0.40);

    #[test]
    fn breakdown_totals_match_the_energy_equations() {
        let m = EnergyModel::dante_chip();
        let groups = [BoostedGroup {
            accesses: 10_000,
            level: 4,
        }];
        // Eq. 3 folds per group and the breakdown per component, so the two
        // agree to rounding only.
        let b = m.breakdown_boosted(VDD, &groups, 1_000_000);
        let eq3 = m.dynamic_boosted(VDD, &groups, 1_000_000);
        assert!((b.total().joules() - eq3.joules()).abs() / eq3.joules() < 1e-12);

        // Eqs. 2 and 6 are the breakdown totals, bit for bit.
        let s = m.breakdown_single(VDD, 10_000, 1_000_000);
        let eq2 = m.dynamic_single(VDD, 10_000, 1_000_000);
        assert_eq!(s.total().joules().to_bits(), eq2.joules().to_bits());

        let vddv = m.vddv(VDD, 4);
        let d = m.breakdown_dual(vddv, VDD, 10_000, 1_000_000);
        let eq6 = m.dynamic_dual(vddv, VDD, 10_000, 1_000_000);
        assert_eq!(d.total().joules().to_bits(), eq6.joules().to_bits());
    }

    #[test]
    fn fractions_sum_to_one() {
        let m = EnergyModel::dante_chip();
        let b = m.breakdown_boosted(
            VDD,
            &[BoostedGroup {
                accesses: 5_000,
                level: 2,
            }],
            100_000,
        );
        let sum = b.sram_fraction() + b.logic_fraction() + b.booster_fraction();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn boosting_shifts_cost_from_logic_to_memory_side() {
        // The paper's Sec. 6.2 observation: "most of the energy savings are
        // obtained from the logic being able to operate at a lower voltage."
        let m = EnergyModel::dante_chip();
        let accesses = 16_700u64;
        let macs = 1_000_000u64;
        let vddv = m.vddv(VDD, 4);
        let boosted = m.breakdown_boosted(VDD, &[BoostedGroup { accesses, level: 4 }], macs);
        let single = m.breakdown_single(vddv, accesses, macs);
        // Logic energy drops by (vddv/vdd)^2 ~ 2.25x when boosted.
        let expected = (vddv.volts() / VDD.volts()).powi(2);
        assert!(
            (single.logic.joules() / boosted.logic.joules() - expected).abs() < 1e-9,
            "logic ratio {} vs expected {expected}",
            single.logic.joules() / boosted.logic.joules()
        );
        // SRAM energy is identical (same rail), modulo the booster tax.
        assert!((boosted.sram.joules() - single.sram.joules()).abs() < 1e-15);
        assert!(boosted.booster > Joule::ZERO);
    }

    #[test]
    fn dual_supply_logic_carries_the_ldo_tax() {
        let m = EnergyModel::dante_chip();
        let vddv = m.vddv(VDD, 4);
        let dual = m.breakdown_dual(vddv, VDD, 1_000, 1_000_000);
        let boosted = m.breakdown_boosted(
            VDD,
            &[BoostedGroup {
                accesses: 1_000,
                level: 4,
            }],
            1_000_000,
        );
        assert!(
            dual.logic > boosted.logic,
            "LDO loss must inflate dual logic energy"
        );
        assert_eq!(dual.booster, Joule::ZERO);
    }

    #[test]
    fn booster_fraction_is_small_for_conv_like_activity() {
        let m = EnergyModel::dante_chip();
        let b = m.breakdown_boosted(
            VDD,
            &[BoostedGroup {
                accesses: 16_700,
                level: 4,
            }],
            1_000_000,
        );
        assert!(
            b.booster_fraction() < 0.02,
            "booster tax {:.4}",
            b.booster_fraction()
        );
    }

    #[test]
    fn display_shows_all_components() {
        let m = EnergyModel::dante_chip();
        let b = m.breakdown_single(VDD, 100, 100);
        let s = format!("{b}");
        assert!(s.contains("sram") && s.contains("logic") && s.contains("booster"));
    }
}
