//! Energy reports for simulator runs: bridges the accelerator's measured
//! per-level access counts (its `MemoryStats`) into the paper's energy
//! equations, so a concrete execution — not just an analytic activity
//! model — can be costed under the three supply configurations.

use dante_accel::executor::Dante;
use dante_circuit::units::{Joule, Volt};
use dante_energy::supply::{BoostedGroup, EnergyModel};

/// Dynamic + leakage energy of one simulator run under the three supply
/// configurations (boosted as executed; single/dual at the run's highest
/// rail).
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceEnergyReport {
    /// Supply voltage of the run.
    pub vdd: Volt,
    /// The highest rail any access used (the single/dual comparison rail).
    pub comparison_rail: Volt,
    /// Eq. 3 dynamic energy of the run as executed.
    pub boosted_dynamic: Joule,
    /// Eq. 2 dynamic energy with everything at the comparison rail.
    pub single_dynamic: Joule,
    /// Eq. 6 dynamic energy (memory at the rail, logic LDO'd to `vdd`).
    pub dual_dynamic: Joule,
    /// Eq. 4 leakage energy over the run's cycles.
    pub boosted_leakage: Joule,
    /// Dual-supply leakage over the run's cycles (Eq. 7).
    pub dual_leakage: Joule,
    /// Total SRAM accesses observed.
    pub sram_accesses: u64,
    /// MACs executed.
    pub macs: u64,
    /// Approximate cycles.
    pub cycles: u64,
}

impl InferenceEnergyReport {
    /// Builds a report from an accelerator's accumulated statistics.
    ///
    /// # Panics
    ///
    /// Panics if the accelerator has executed nothing (no accesses).
    #[must_use]
    pub fn from_run(dante: &Dante, model: &EnergyModel) -> Self {
        let vdd = dante.vdd();
        let weight = dante.weight_stats().accesses_per_level();
        let input = dante.input_stats().accesses_per_level();
        assert!(
            weight.iter().chain(&input).any(|&c| c > 0),
            "no accesses recorded; run a program first"
        );

        let mut groups: Vec<BoostedGroup> = Vec::new();
        let mut max_level = 0usize;
        for (level, count) in weight
            .iter()
            .zip(input.iter().chain(std::iter::repeat(&0)))
            .map(|(w, i)| w + i)
            .enumerate()
        {
            if count > 0 {
                groups.push(BoostedGroup {
                    accesses: count,
                    level,
                });
                max_level = max_level.max(level);
            }
        }
        let accesses: u64 = groups.iter().map(|g| g.accesses).sum();
        let macs = dante.stats().macs;
        let cycles = dante.stats().cycles;
        let rail = model.vddv(vdd, max_level);

        let per_cycle_boost = model.leakage_boosted_per_cycle(vdd);
        let per_cycle_dual = model.leakage_dual_per_cycle(rail, vdd);

        Self {
            vdd,
            comparison_rail: rail,
            boosted_dynamic: model.dynamic_boosted(vdd, &groups, macs),
            single_dynamic: model.dynamic_single(rail, accesses, macs),
            dual_dynamic: model.dynamic_dual(rail, vdd, accesses, macs),
            boosted_leakage: per_cycle_boost * cycles as f64,
            dual_leakage: per_cycle_dual * cycles as f64,
            sram_accesses: accesses,
            macs,
            cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dante_accel::chip::ChipConfig;
    use dante_accel::executor::BoostSchedule;
    use dante_accel::program::Program;
    use dante_nn::layers::{Dense, Layer, Relu};
    use dante_nn::network::Network;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_once(level: usize, input_level: usize) -> Dante {
        let mut rng = StdRng::seed_from_u64(4);
        let net = Network::new(vec![
            Layer::Dense(Dense::new(16, 12, &mut rng)),
            Layer::Relu(Relu::new(12)),
            Layer::Dense(Dense::new(12, 4, &mut rng)),
        ])
        .unwrap();
        let calib: Vec<f32> = (0..16).map(|i| i as f32 / 16.0).collect();
        let program = Program::compile(&net, &calib).unwrap();
        let mut dante = Dante::fault_free(ChipConfig::dante(), Volt::new(0.40));
        let _ = dante.run(
            &program,
            &BoostSchedule::uniform(level, 2, input_level),
            &calib,
        );
        dante
    }

    #[test]
    fn report_reflects_run_statistics() {
        let dante = run_once(4, 1);
        let model = EnergyModel::dante_chip();
        let report = InferenceEnergyReport::from_run(&dante, &model);
        assert_eq!(report.macs, (16 * 12 + 12 * 4) as u64);
        assert_eq!(
            report.sram_accesses,
            dante.weight_stats().total() + dante.input_stats().total()
        );
        assert!(report.boosted_dynamic > Joule::ZERO);
        // The comparison rail is the level-4 rail at 0.40 V: ~0.60 V.
        assert!((report.comparison_rail.volts() - 0.6).abs() < 0.01);
    }

    #[test]
    fn boost_saves_vs_single_at_level4() {
        let report = InferenceEnergyReport::from_run(&run_once(4, 1), &EnergyModel::dante_chip());
        assert!(
            report.boosted_dynamic < report.single_dynamic,
            "boosted {} vs single {}",
            report.boosted_dynamic,
            report.single_dynamic
        );
        assert!(report.boosted_leakage < report.dual_leakage);
    }

    #[test]
    fn level_zero_run_matches_single_supply() {
        let report = InferenceEnergyReport::from_run(&run_once(0, 0), &EnergyModel::dante_chip());
        // With no boosting anywhere the comparison rail is Vdd itself and
        // the boosted energy equals the single-supply energy.
        assert!((report.comparison_rail.volts() - 0.40).abs() < 1e-9);
        let ratio = report.boosted_dynamic.joules() / report.single_dynamic.joules();
        assert!((ratio - 1.0).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "no accesses recorded")]
    fn empty_run_rejected() {
        let dante = Dante::fault_free(ChipConfig::dante(), Volt::new(0.4));
        let _ = InferenceEnergyReport::from_run(&dante, &EnergyModel::dante_chip());
    }
}
