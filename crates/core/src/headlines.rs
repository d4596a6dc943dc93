//! The paper's headline numbers, computed from the models — the abstract's
//! summary claims, regenerated (see EXPERIMENTS.md for paper-vs-measured).

use crate::schedule::{BoostPlan, NamedBoostConfig, ISO_ACCURACY_TARGET};
use dante_circuit::units::Volt;
use dante_dataflow::activity::Dataflow;
use dante_dataflow::fc_dana::DanaFcDataflow;
use dante_dataflow::row_stationary::RowStationaryDataflow;
use dante_dataflow::workloads::{alexnet_conv, mnist_fc};
use dante_energy::supply::{BoostedGroup, EnergyModel};

/// The headline results of the paper's abstract and Sec. 6.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Headlines {
    /// Peak AlexNet dynamic-energy savings of boosting vs. dual supply at
    /// full boost (paper: up to 26%).
    pub alexnet_peak_savings_vs_dual: f64,
    /// Mean AlexNet savings vs. dual supply across the 0.34–0.46 V
    /// iso-accuracy sweep (paper: 17% on average).
    pub alexnet_avg_savings_vs_dual: f64,
    /// Mean AlexNet savings vs. the 0.48 V single-supply alternative
    /// (paper: 30%).
    pub alexnet_savings_vs_single_048: f64,
    /// Mean leakage savings of boosting vs. dual supply over 0.34–0.50 V
    /// (paper: 32%).
    pub leakage_savings_vs_dual: f64,
    /// Booster leakage overhead relative to the unboosted chip (paper: ~6%).
    pub booster_leakage_overhead: f64,
    /// Boost-vs-dual advantage for the memory-bound MNIST FC-DNN at 0.40 V
    /// full boost (small — dual is only competitive here).
    pub mnist_savings_vs_dual: f64,
}

/// Computes every headline from the calibrated models.
#[must_use]
pub fn compute() -> Headlines {
    let m = EnergyModel::dante_chip();
    let booster = m.booster().clone();

    let conv = RowStationaryDataflow::new().activity(&alexnet_conv());
    let conv_acc = conv.total_sram_accesses();
    let conv_macs = conv.total_macs();

    // Peak savings vs dual: full boost at 0.40 V.
    let vdd = Volt::new(0.40);
    let vddv4 = booster.boosted_voltage(vdd, 4);
    let boost4 = m
        .dynamic_boosted(
            vdd,
            &[BoostedGroup {
                accesses: conv_acc,
                level: 4,
            }],
            conv_macs,
        )
        .joules();
    let dual4 = m.dynamic_dual(vddv4, vdd, conv_acc, conv_macs).joules();
    let alexnet_peak_savings_vs_dual = 1.0 - boost4 / dual4;

    // Iso-accuracy sweep 0.34–0.46 V.
    let voltages: Vec<Volt> = (0..=6)
        .map(|i| Volt::new(0.34 + 0.02 * f64::from(i)))
        .collect();
    let single_048 = m
        .dynamic_single(ISO_ACCURACY_TARGET, conv_acc, conv_macs)
        .joules();
    let mut vs_dual = Vec::new();
    let mut vs_single = Vec::new();
    for &v in &voltages {
        let Some(r) = m.boost_to_reach(v, ISO_ACCURACY_TARGET, conv_acc, conv_macs) else {
            continue;
        };
        vs_dual.push(1.0 - r.boosted.joules() / r.dual.joules());
        vs_single.push(1.0 - r.boosted.joules() / single_048);
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let alexnet_avg_savings_vs_dual = mean(&vs_dual);
    let alexnet_savings_vs_single_048 = mean(&vs_single);

    // Leakage savings over 0.34–0.50 V at full boost.
    let mut leak_savings = Vec::new();
    for mv in (340..=500).step_by(20) {
        let v = Volt::from_millivolts(f64::from(mv));
        let vddv = booster.boosted_voltage(v, 4);
        let b = m.leakage_boosted_per_cycle(v).joules();
        let d = m.leakage_dual_per_cycle(vddv, v).joules();
        leak_savings.push(1.0 - b / d);
    }
    let leakage_savings_vs_dual = mean(&leak_savings);

    let booster_leakage_overhead =
        m.leakage_boosted_per_cycle(vdd).joules() / m.leakage_single_per_cycle(vdd).joules() - 1.0;

    // MNIST FC: full-boost plan vs dual at 0.40 V.
    let fc = DanaFcDataflow::new().activity(&mnist_fc());
    let plan = BoostPlan::from_named(NamedBoostConfig::Vddv4, 4, &booster, vdd);
    let boost_fc = m
        .dynamic_boosted(vdd, &plan.boosted_groups(&fc), fc.total_macs())
        .joules();
    let dual_fc = m
        .dynamic_dual(vddv4, vdd, fc.total_sram_accesses(), fc.total_macs())
        .joules();
    let mnist_savings_vs_dual = 1.0 - boost_fc / dual_fc;

    Headlines {
        alexnet_peak_savings_vs_dual,
        alexnet_avg_savings_vs_dual,
        alexnet_savings_vs_single_048,
        leakage_savings_vs_dual,
        booster_leakage_overhead,
        mnist_savings_vs_dual,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_numbers_land_in_the_paper_bands() {
        let h = compute();
        assert!(
            (0.20..=0.40).contains(&h.alexnet_peak_savings_vs_dual),
            "peak vs dual {:.3} (paper 0.26)",
            h.alexnet_peak_savings_vs_dual
        );
        assert!(
            (0.10..=0.30).contains(&h.alexnet_avg_savings_vs_dual),
            "avg vs dual {:.3} (paper 0.17)",
            h.alexnet_avg_savings_vs_dual
        );
        assert!(
            (0.18..=0.45).contains(&h.alexnet_savings_vs_single_048),
            "vs single@0.48 {:.3} (paper 0.30)",
            h.alexnet_savings_vs_single_048
        );
        assert!(
            (0.22..=0.45).contains(&h.leakage_savings_vs_dual),
            "leakage savings {:.3} (paper 0.32)",
            h.leakage_savings_vs_dual
        );
        assert!(
            (0.04..=0.08).contains(&h.booster_leakage_overhead),
            "booster overhead {:.3} (paper 0.06)",
            h.booster_leakage_overhead
        );
    }

    #[test]
    fn conv_workloads_benefit_far_more_than_fc() {
        let h = compute();
        assert!(h.alexnet_peak_savings_vs_dual > h.mnist_savings_vs_dual + 0.1);
        // Boosting should not lose badly even in the worst (FC) case.
        assert!(h.mnist_savings_vs_dual > -0.10);
    }
}
