//! Ablation studies beyond the paper's figures (DESIGN.md Sec. 6):
//! ECC vs boosting, boost-level granularity, and dataflow sensitivity.

use crate::record::{FigureRecord, RunScale, Series};
use dante::accuracy::{AccuracyEvaluator, EccMode, VoltageAssignment};
use dante::artifacts::trained_mnist_fc;
use dante::schedule::ISO_ACCURACY_TARGET;
use dante_circuit::booster::BoosterBank;
use dante_circuit::units::Volt;
use dante_dataflow::activity::Dataflow;
use dante_dataflow::baselines::{
    NoLocalReuseDataflow, OutputStationaryDataflow, WeightStationaryDataflow,
};
use dante_dataflow::row_stationary::RowStationaryDataflow;
use dante_dataflow::workloads::alexnet_conv;
use dante_energy::supply::{BoostedGroup, EnergyModel};
use dante_sram::ecc::word_failure_probability;

/// ECC-vs-boosting ablation: accuracy of the FC-DNN across voltage for the
/// unprotected baseline, SEC-DED per word, and a level-4 boosted rail.
///
/// SEC-DED shifts the accuracy cliff down by a few tens of millivolts at a
/// constant 12.5% storage/energy tax; boosting moves the *rail*, keeping the
/// cliff wherever the application wants it.
#[must_use]
pub fn ablation_ecc(scale: RunScale) -> FigureRecord {
    let (net, test) = trained_mnist_fc(scale.train_images, scale.test_images, scale.epochs);
    let layers = net.weight_layer_indices().len();
    let plain = AccuracyEvaluator::new(scale.trials);
    let ecc = AccuracyEvaluator::new(scale.trials).with_ecc(EccMode::SecDed);
    let booster = BoosterBank::standard();

    let voltages: Vec<Volt> = (0..=8)
        .map(|i| Volt::new(0.34 + 0.02 * f64::from(i)))
        .collect();
    let eval = |e: &AccuracyEvaluator, rail: Volt, seed: u64| {
        e.evaluate(
            &net,
            &VoltageAssignment::uniform(rail, layers),
            test.images(),
            test.labels(),
            seed,
        )
        .mean()
    };

    let unprotected: Vec<(f64, f64)> = voltages
        .iter()
        .map(|&v| (v.volts(), eval(&plain, v, 0xAB1)))
        .collect();
    let secded: Vec<(f64, f64)> = voltages
        .iter()
        .map(|&v| (v.volts(), eval(&ecc, v, 0xAB2)))
        .collect();
    let boosted: Vec<(f64, f64)> = voltages
        .iter()
        .map(|&v| {
            (
                v.volts(),
                eval(&plain, booster.boosted_voltage(v, 4), 0xAB3),
            )
        })
        .collect();

    FigureRecord::new(
        "ablation_ecc",
        "ECC (SEC-DED) vs programmable boosting: FC-DNN accuracy across supply voltage",
        "Vdd [V]",
        "accuracy",
    )
    .with_series(Series::new("unprotected", unprotected))
    .with_series(Series::new("SEC-DED (72,64)", secded))
    .with_series(Series::new("boosted Vddv4", boosted))
    .with_note(format!(
        "SEC-DED word-failure rate at BER 1.4e-2 (0.44 V): {:.1}% per 72-bit word — multi-bit errors defeat it at deep VLV",
        word_failure_probability(0.014 * 0.5) * 100.0
    ))
    .with_note("ECC costs a fixed 12.5% storage/energy on every access; boosting is paid only when enabled")
}

/// Boost-granularity ablation (paper Sec. 6.3: "with finer voltage
/// adjustment (> 4 boost levels), one can obtain even greater energy
/// savings"): iso-accuracy AlexNet energy with 2/4/8/16-level boosters.
#[must_use]
pub fn ablation_levels() -> FigureRecord {
    let energy = EnergyModel::dante_chip();
    let activity = RowStationaryDataflow::new().activity(&alexnet_conv());
    let accesses = activity.total_sram_accesses();
    let macs = activity.total_macs();
    let target = ISO_ACCURACY_TARGET;
    let reference = energy.reference_energy_at_0v5(accesses, macs).joules();

    let mut rec = FigureRecord::new(
        "ablation_levels",
        "Iso-accuracy AlexNet energy vs boost-level granularity (target rail 0.48 V)",
        "Vdd [V]",
        "normalized dynamic energy",
    );
    let mut means = Vec::new();
    for p in [2usize, 4, 8, 16] {
        let model = EnergyModel::new(
            dante_energy::params::EnergyParams::dante_chip(),
            BoosterBank::with_levels(p),
            dante_circuit::ldo::Ldo::new(),
        );
        let pts: Vec<(f64, f64)> = (340..=460)
            .step_by(20)
            .filter_map(|mv| {
                let vdd = Volt::from_millivolts(f64::from(mv));
                let r = model.boost_to_reach(vdd, target, accesses, macs)?;
                Some((vdd.volts(), r.boosted.joules() / reference))
            })
            .collect();
        let mean = pts.iter().map(|p| p.1).sum::<f64>() / pts.len() as f64;
        means.push((p, mean));
        rec = rec.with_series(Series::new(format!("{p} levels"), pts));
    }
    // Binary-weighted variant: 15 distinct levels from the same 4-cell
    // hardware budget (see `BoosterBank::binary_weighted`).
    let bank = BoosterBank::binary_weighted(4);
    let params = dante_energy::params::EnergyParams::dante_chip();
    let mut pts = Vec::new();
    for mv in (340..=460).step_by(20) {
        let vdd = Volt::from_millivolts(f64::from(mv));
        // Cheapest mask whose rail reaches the target.
        let best = (0u32..16)
            .filter_map(|mask| {
                let cfg = dante_circuit::bic::BoostConfig::from_mask(mask, 4);
                let vddv = bank.boosted_voltage_masked(vdd, &cfg);
                (vddv >= target).then(|| {
                    (params.e_sram(vddv) + bank.boost_event_energy_masked(vdd, &cfg)).joules()
                })
            })
            .fold(f64::INFINITY, f64::min);
        if best.is_finite() {
            let e = (best * accesses as f64 + params.e_pe(vdd).joules() * macs as f64) / reference;
            pts.push((vdd.volts(), e));
        }
    }
    let binary_mean = pts.iter().map(|p| p.1).sum::<f64>() / pts.len() as f64;
    rec = rec.with_series(Series::new("binary-weighted (4 cells)", pts));

    let coarse = means.first().expect("non-empty").1;
    let fine = means.last().expect("non-empty").1;
    rec.with_note(format!(
        "mean normalized energy: {coarse:.4} with 2 levels -> {fine:.4} with 16 levels ({:.1}% further savings from granularity)",
        (1.0 - fine / coarse) * 100.0
    ))
    .with_note(format!(
        "binary-weighted 4-cell bank (15 levels at the 4-level hardware budget): mean {binary_mean:.4}"
    ))
}

/// Dataflow ablation: how the accelerator's dataflow (its position on the
/// Fig. 12 `Ops_ratio` axis) changes what boosting saves over dual supply.
#[must_use]
pub fn ablation_dataflow() -> FigureRecord {
    let energy = EnergyModel::dante_chip();
    let wl = alexnet_conv();
    let vdd = Volt::new(0.40);
    let vddv = energy.vddv(vdd, 4);

    let dataflows: [(&str, Box<dyn Dataflow>); 4] = [
        ("row-stationary", Box::new(RowStationaryDataflow::new())),
        (
            "output-stationary",
            Box::new(OutputStationaryDataflow::new()),
        ),
        (
            "weight-stationary",
            Box::new(WeightStationaryDataflow::new()),
        ),
        ("no-local-reuse", Box::new(NoLocalReuseDataflow::new())),
    ];

    let mut ratios = Vec::new();
    let mut savings = Vec::new();
    for (i, (_, df)) in dataflows.iter().enumerate() {
        let activity = df.activity(&wl);
        let accesses = activity.total_sram_accesses();
        let macs = activity.total_macs();
        let boost = energy
            .dynamic_boosted(vdd, &[BoostedGroup { accesses, level: 4 }], macs)
            .joules();
        let dual = energy.dynamic_dual(vddv, vdd, accesses, macs).joules();
        ratios.push((i as f64, activity.access_mac_ratio()));
        savings.push((i as f64, 1.0 - boost / dual));
    }

    FigureRecord::new(
        "ablation_dataflow",
        "Boost-vs-dual savings at 0.40 V full boost, per conv dataflow (AlexNet)",
        "dataflow (0=RS, 1=OS, 2=WS, 3=NLR)",
        "access/MAC ratio | fractional savings",
    )
    .with_series(Series::new("access/MAC ratio", ratios))
    .with_series(Series::new("boost savings vs dual", savings))
    .with_note("reuse-friendly dataflows (low Ops_ratio) benefit most from boosting — the Fig. 12 story made concrete")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> RunScale {
        RunScale {
            trials: 2,
            test_images: 100,
            epochs: 4,
            train_images: 1200,
        }
    }

    #[test]
    fn ecc_ablation_orderings_hold() {
        let rec = ablation_ecc(tiny_scale());
        let unprotected = &rec.series[0].points;
        let secded = &rec.series[1].points;
        let boosted = &rec.series[2].points;
        // In the transition region (0.42-0.46 V) ECC >= unprotected.
        for i in 4..=6 {
            assert!(
                secded[i].1 >= unprotected[i].1 - 0.03,
                "SEC-DED should help at {} V: {} vs {}",
                secded[i].0,
                secded[i].1,
                unprotected[i].1
            );
        }
        // Boosting beats both everywhere at deep VLV.
        for i in 0..3 {
            assert!(
                boosted[i].1 > secded[i].1 + 0.1,
                "boost must dominate at {} V",
                boosted[i].0
            );
        }
    }

    #[test]
    fn binary_weighted_matches_fine_grained_linear_banks() {
        let rec = ablation_levels();
        let mean = |s: &Series| s.points.iter().map(|p| p.1).sum::<f64>() / s.points.len() as f64;
        let sixteen = mean(&rec.series[3]);
        let binary = mean(rec.series.last().expect("binary series present"));
        // The 4-cell binary-weighted bank should track the 16-level linear
        // bank closely (within 1%) despite using 1/4 the config cells.
        assert!(
            (binary - sixteen).abs() / sixteen < 0.01,
            "binary {binary} vs 16-level {sixteen}"
        );
    }

    #[test]
    fn finer_levels_save_energy() {
        let rec = ablation_levels();
        assert_eq!(rec.series.len(), 5);
        // The note records coarse -> fine savings; verify the underlying
        // means directly: 16 levels never cost more than 2 levels.
        let mean = |s: &Series| s.points.iter().map(|p| p.1).sum::<f64>() / s.points.len() as f64;
        let coarse = mean(&rec.series[0]);
        let fine = mean(&rec.series[3]);
        assert!(
            fine <= coarse + 1e-12,
            "16 levels {fine} vs 2 levels {coarse}"
        );
        assert!((1.0 - fine / coarse) > 0.01, "granularity should save >1%");
    }

    #[test]
    fn dataflow_ablation_savings_fall_with_ops_ratio() {
        let rec = ablation_dataflow();
        let ratios = &rec.series[0].points;
        let savings = &rec.series[1].points;
        // RS has the lowest ratio and the highest savings; NLR the opposite.
        assert!(ratios[0].1 < ratios[3].1);
        assert!(savings[0].1 > savings[3].1);
        // NLR is memory-dominated enough that boosting can even lose.
        assert!(savings[3].1 < 0.05);
    }
}
