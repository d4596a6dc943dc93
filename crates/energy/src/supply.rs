//! The three power-supply configurations of paper Sec. 5.2 and their energy
//! equations.
//!
//! * **Single supply** (Eq. 2): logic and memory share one rail.
//! * **Boosted** (Eqs. 3, 4): logic at `Vdd`, each SRAM access boosted to a
//!   programmable `Vddv_i` by the per-bank booster; idle SRAM sits at `Vdd`.
//! * **Dual supply** (Eqs. 5–7): memory at an external `V_h`, logic at `V_l`
//!   generated by an on-chip LDO with efficiency `eta = (V_l/V_h) * eta_i`.

use crate::params::EnergyParams;
use dante_circuit::booster::BoosterBank;
use dante_circuit::ldo::Ldo;
use dante_circuit::units::{Joule, Volt};

/// A group of SRAM accesses boosted to the same level (`SRAMAcc_i` of
/// Eq. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoostedGroup {
    /// Number of accesses in the group.
    pub accesses: u64,
    /// Boost level applied to each access (0 = unboosted).
    pub level: usize,
}

/// The cheapest boost that lifts the SRAM rail to a target voltage, and
/// what it costs against a dual supply at the same rails — one iso-accuracy
/// operating point (paper Sec. 6.3, Fig. 15).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RailBoost {
    /// The lowest boost level whose rail reaches the target.
    pub level: usize,
    /// That level's rail, `Vddv(level) >= target`.
    pub vddv: Volt,
    /// Boosted dynamic energy with every access at `level` (Eq. 3).
    pub boosted: Joule,
    /// Dual-supply dynamic energy with memory at `vddv`, logic at `Vdd`
    /// (Eq. 6).
    pub dual: Joule,
}

/// The complete chip energy model: calibration + booster + LDO.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    params: EnergyParams,
    booster: BoosterBank,
    ldo: Ldo,
}

impl EnergyModel {
    /// The taped-out chip's model: calibrated parameters, the standard
    /// 4-level booster, and a 99%-current-efficiency LDO baseline.
    #[must_use]
    pub fn dante_chip() -> Self {
        Self {
            params: EnergyParams::dante_chip(),
            booster: BoosterBank::standard(),
            ldo: Ldo::new(),
        }
    }

    /// Builds a model from parts.
    #[must_use]
    pub fn new(params: EnergyParams, booster: BoosterBank, ldo: Ldo) -> Self {
        Self {
            params,
            booster,
            ldo,
        }
    }

    /// The calibration parameters.
    #[must_use]
    pub fn params(&self) -> &EnergyParams {
        &self.params
    }

    /// The booster bank model.
    #[must_use]
    pub fn booster(&self) -> &BoosterBank {
        &self.booster
    }

    /// The LDO model of the dual-supply baseline.
    #[must_use]
    pub fn ldo(&self) -> &Ldo {
        &self.ldo
    }

    /// The boosted rail voltage `Vddv` at a supply and level.
    #[must_use]
    pub fn vddv(&self, vdd: Volt, level: usize) -> Volt {
        self.booster.boosted_voltage(vdd, level)
    }

    /// **Eq. 2** — single-supply dynamic energy:
    /// `DE = SRAMAcc * E(SRAM, Vdd) + NC * E(PE, Vdd)`, the total of
    /// [`Self::breakdown_single`].
    #[must_use]
    pub fn dynamic_single(&self, vdd: Volt, sram_accesses: u64, macs: u64) -> Joule {
        self.breakdown_single(vdd, sram_accesses, macs).total()
    }

    /// **Eq. 3** — boosted dynamic energy:
    /// `DE = sum_i SRAMAcc_i * (E_boost(SRAM, Vddv_i) + E(BC, Vdd)) + NC * E(PE, Vdd)`.
    ///
    /// # Panics
    ///
    /// Panics if any group's level exceeds the booster's.
    #[must_use]
    pub fn dynamic_boosted(&self, vdd: Volt, groups: &[BoostedGroup], macs: u64) -> Joule {
        // Not `breakdown_boosted(..).total()`: this fold adds each group's
        // SRAM and booster energy before summing over groups, the breakdown
        // sums each component over groups first, so the two differ in the
        // last bits. Goldens pin both: fig12, fig15, headlines and
        // ablation_levels go through this fold, every boosted sweep, iso and
        // retrain body through the breakdown.
        let mut total = self.params.e_pe(vdd) * macs as f64;
        for g in groups {
            let vddv = self.booster.boosted_voltage(vdd, g.level);
            let per_access =
                self.params.e_sram(vddv) + self.booster.boost_event_energy(vdd, g.level);
            total += per_access * g.accesses as f64;
        }
        total
    }

    /// **Eq. 6** — dual-supply dynamic energy:
    /// `DE = SRAMAcc * E(SRAM, V_h) + NC * E(PE, V_l) / eta`, the total of
    /// [`Self::breakdown_dual`].
    #[must_use]
    pub fn dynamic_dual(&self, v_mem: Volt, v_logic: Volt, sram_accesses: u64, macs: u64) -> Joule {
        self.breakdown_dual(v_mem, v_logic, sram_accesses, macs)
            .total()
    }

    /// Single-supply leakage energy per cycle.
    #[must_use]
    pub fn leakage_single_per_cycle(&self, vdd: Volt) -> Joule {
        let p = self.params.leak_sram(vdd) + self.params.leak_pe(vdd);
        p.energy_over(self.params.cycle())
    }

    /// **Eq. 4** — boosted leakage energy per cycle:
    /// `LE = LE(SRAM, Vdd) + LE(BC, Vdd) + LE(PE, Vdd)`.
    ///
    /// Idle banks sit at the *unboosted* `Vdd` — the source of the paper's
    /// leakage savings.
    #[must_use]
    pub fn leakage_boosted_per_cycle(&self, vdd: Volt) -> Joule {
        let p =
            self.params.leak_sram(vdd) + self.params.leak_booster(vdd) + self.params.leak_pe(vdd);
        p.energy_over(self.params.cycle())
    }

    /// **Eq. 7** — dual-supply leakage energy per cycle:
    /// `LE = LE(SRAM, V_h) + LE(PE, V_l) / eta`.
    #[must_use]
    pub fn leakage_dual_per_cycle(&self, v_mem: Volt, v_logic: Volt) -> Joule {
        let eta = self.ldo.efficiency(v_logic, v_mem);
        let p = self.params.leak_sram(v_mem).watts() + self.params.leak_pe(v_logic).watts() / eta;
        dante_circuit::units::Watt::new(p).energy_over(self.params.cycle())
    }

    /// The chip reference energy the paper normalizes Fig. 13 against:
    /// dynamic energy of the given activity with logic and SRAM at 0.5 V.
    #[must_use]
    pub fn reference_energy_at_0v5(&self, sram_accesses: u64, macs: u64) -> Joule {
        self.dynamic_single(Volt::new(0.5), sram_accesses, macs)
    }

    /// Boosts every access to the lowest level whose rail reaches `target`
    /// at supply `vdd`, and prices it against a dual supply at the same
    /// rails; `None` if even full boost falls short. The paper's
    /// iso-accuracy rule: hold the memory at a fixed rail, let the logic
    /// sweep.
    #[must_use]
    pub fn boost_to_reach(
        &self,
        vdd: Volt,
        target: Volt,
        sram_accesses: u64,
        macs: u64,
    ) -> Option<RailBoost> {
        let level = self.booster.min_level_reaching(vdd, target)?;
        let vddv = self.booster.boosted_voltage(vdd, level);
        let group = BoostedGroup {
            accesses: sram_accesses,
            level,
        };
        Some(RailBoost {
            level,
            vddv,
            boosted: self.dynamic_boosted(vdd, &[group], macs),
            dual: self.dynamic_dual(vddv, vdd, sram_accesses, macs),
        })
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::dante_chip()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VDD: Volt = Volt::const_new(0.4);

    fn model() -> EnergyModel {
        EnergyModel::dante_chip()
    }

    #[test]
    fn eq2_is_linear_in_both_counts() {
        let m = model();
        let base = m.dynamic_single(VDD, 100, 1000);
        assert!((m.dynamic_single(VDD, 200, 2000).joules() - 2.0 * base.joules()).abs() < 1e-18);
        assert_eq!(m.dynamic_single(VDD, 0, 0), Joule::ZERO);
    }

    #[test]
    fn boosted_at_level_zero_equals_single_supply() {
        let m = model();
        let groups = [BoostedGroup {
            accesses: 500,
            level: 0,
        }];
        let boosted = m.dynamic_boosted(VDD, &groups, 1000);
        let single = m.dynamic_single(VDD, 500, 1000);
        assert!((boosted.joules() - single.joules()).abs() / single.joules() < 1e-12);
    }

    #[test]
    fn boosted_accesses_cost_more_per_access_than_unboosted() {
        let m = model();
        let lo = m.dynamic_boosted(
            VDD,
            &[BoostedGroup {
                accesses: 100,
                level: 1,
            }],
            0,
        );
        let hi = m.dynamic_boosted(
            VDD,
            &[BoostedGroup {
                accesses: 100,
                level: 4,
            }],
            0,
        );
        assert!(hi > lo);
    }

    #[test]
    fn boost_beats_dual_for_conv_like_activity() {
        // The paper's AlexNet headline: ~26% savings at Vddv4, ~19% across
        // levels, for SRAMAcc/MAC ~ 1.67%.
        let m = model();
        let macs = 1_000_000u64;
        let accesses = (macs as f64 * 0.0167) as u64;
        let mut savings = Vec::new();
        for level in 1..=4 {
            let vddv = m.vddv(VDD, level);
            let boost = m.dynamic_boosted(VDD, &[BoostedGroup { accesses, level }], macs);
            let dual = m.dynamic_dual(vddv, VDD, accesses, macs);
            savings.push(1.0 - boost.joules() / dual.joules());
        }
        assert!(
            (0.20..=0.40).contains(&savings[3]),
            "Vddv4 savings {:.3} should be ~0.26",
            savings[3]
        );
        let avg = savings.iter().sum::<f64>() / 4.0;
        assert!(
            (0.12..=0.30).contains(&avg),
            "mean savings {avg:.3} should be ~0.19"
        );
    }

    #[test]
    fn dual_competitive_only_at_high_memory_activity_and_low_boost() {
        // Paper Sec. 6.2: "dual supply can only be advantageous in cases
        // where the level of boost is low and the memory activity is very
        // high."
        let m = model();
        let macs = 1_000_000u64;
        let fc_accesses = (macs as f64 * 0.75) as u64;
        let margin = |level: usize, accesses: u64| -> f64 {
            let vddv = m.vddv(VDD, level);
            let boost = m.dynamic_boosted(VDD, &[BoostedGroup { accesses, level }], macs);
            let dual = m.dynamic_dual(vddv, VDD, accesses, macs);
            1.0 - boost.joules() / dual.joules()
        };
        // High activity: the boost advantage shrinks dramatically vs conv.
        let conv_margin = margin(4, (macs as f64 * 0.0167) as u64);
        let fc_margin = margin(4, fc_accesses);
        assert!(fc_margin < conv_margin);
        // But boosting still does not lose badly anywhere.
        assert!(fc_margin > -0.10, "fc margin {fc_margin}");
    }

    #[test]
    fn leakage_boosted_saves_about_a_third_vs_dual() {
        // Paper: "in the voltage range of 0.34 to 0.5V, boosting results in
        // 32% leakage energy savings compared to dual supplies."
        let m = model();
        let mut savings = Vec::new();
        for mv in (340..=500).step_by(20) {
            let vdd = Volt::from_millivolts(f64::from(mv));
            let vddv = m.vddv(vdd, 4);
            let b = m.leakage_boosted_per_cycle(vdd);
            let d = m.leakage_dual_per_cycle(vddv, vdd);
            savings.push(1.0 - b.joules() / d.joules());
        }
        let avg = savings.iter().sum::<f64>() / savings.len() as f64;
        assert!(
            (0.22..=0.45).contains(&avg),
            "average leakage savings {avg:.3} should be ~0.32"
        );
    }

    #[test]
    fn booster_leakage_overhead_is_small() {
        // Paper: "compared to the leakage energy per cycle at supply voltage
        // Vdd, the booster circuit results in only 6% overhead."
        let m = model();
        let b = m.leakage_boosted_per_cycle(VDD);
        let s = m.leakage_single_per_cycle(VDD);
        let overhead = b.joules() / s.joules() - 1.0;
        assert!((0.04..=0.08).contains(&overhead), "overhead {overhead:.3}");
    }

    #[test]
    fn eq6_reduces_to_eq2_when_rails_are_equal() {
        let m = model();
        let dual = m.dynamic_dual(VDD, VDD, 100, 1000);
        let single = m.dynamic_single(VDD, 100, 1000);
        // Only the LDO's 1% current-efficiency loss separates them.
        let ratio = dual.joules() / single.joules();
        assert!(ratio > 1.0 && ratio < 1.02, "ratio {ratio}");
    }

    #[test]
    fn reference_energy_matches_single_supply_at_0v5() {
        let m = model();
        assert_eq!(
            m.reference_energy_at_0v5(123, 456),
            m.dynamic_single(Volt::new(0.5), 123, 456)
        );
    }

    #[test]
    fn boost_to_reach_picks_the_lowest_level_clearing_the_target() {
        let m = model();
        let target = Volt::new(0.48);
        let (accesses, macs) = (1_000, 60_000);
        let mut levels = Vec::new();
        for mv in (340..=480).step_by(20) {
            let vdd = Volt::from_millivolts(f64::from(mv));
            let r = m
                .boost_to_reach(vdd, target, accesses, macs)
                .expect("full boost reaches 0.48 V from 0.34 V up");
            assert!(r.vddv >= target, "rail {} below target at {vdd}", r.vddv);
            if r.level > 0 {
                assert!(m.vddv(vdd, r.level - 1) < target, "level not minimal");
            }
            let group = [BoostedGroup {
                accesses,
                level: r.level,
            }];
            assert_eq!(r.vddv, m.vddv(vdd, r.level));
            assert_eq!(r.boosted, m.dynamic_boosted(vdd, &group, macs));
            assert_eq!(r.dual, m.dynamic_dual(r.vddv, vdd, accesses, macs));
            levels.push(r.level);
        }
        // Paper Sec. 6.3: Vddv3 at 0.38 V, Vddv1 at 0.46 V, no boost at 0.48 V.
        assert_eq!(levels[2], 3);
        assert_eq!(levels[6], 1);
        assert_eq!(levels[7], 0);
        assert!(levels.windows(2).all(|w| w[1] <= w[0]));
        assert_eq!(
            m.boost_to_reach(Volt::new(0.34), Volt::new(0.70), accesses, macs),
            None
        );
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn invalid_boost_level_rejected() {
        let m = model();
        let _ = m.dynamic_boosted(
            VDD,
            &[BoostedGroup {
                accesses: 1,
                level: 9,
            }],
            0,
        );
    }
}
