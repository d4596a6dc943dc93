//! Model-validation experiment: the fast statistical fault-injection path
//! (`dante::accuracy`) against the bit-accurate accelerator simulator
//! (`dante-accel`), across supply voltage.
//!
//! The paper validates its TensorFlow fault model against silicon; we have
//! no silicon, so the reproduction validates its *two independent
//! implementations of the same physics* against each other: the statistical
//! evaluator corrupts quantized weights analytically, the simulator runs
//! every access through boosted banked memories. Agreement across the cliff
//! region is the evidence that the fast path used by the big figures is
//! trustworthy.
//!
//! Every fault model is compared. For i.i.d. Gaussian cells the layout of
//! bits in memory does not matter, but for row/column bursts it does: the
//! evaluator lays each layer's bits out linearly over 32 Kbit tiles, while
//! the simulator places weights physically into banks and macros. Each
//! model's note states its largest gap both as accuracy and in combined
//! standard errors of the two Monte-Carlo means.

use crate::record::{FigureRecord, RunScale, Series};
use dante::accuracy::{AccuracyEvaluator, AccuracyStats, VoltageAssignment};
use dante_accel::chip::ChipConfig;
use dante_accel::executor::{BoostSchedule, Dante};
use dante_accel::program::Program;
use dante_circuit::units::Volt;
use dante_nn::data::generate_mnist_like;
use dante_nn::data::synth_mnist::downsample;
use dante_nn::layers::{Dense, Layer, Relu};
use dante_nn::network::Network;
use dante_nn::train::{train, SgdConfig};
use dante_sim::{derive_seed, site};
use dante_sram::model::FaultModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds the small pooled-digit network used for validation (49-48-10).
fn pooled_digit_net(train_n: usize) -> (Network, Vec<f32>, Vec<u8>) {
    let ds = generate_mnist_like(train_n, 21);
    let test = generate_mnist_like(160, 22);
    let train_x = downsample(ds.images(), 4);
    let test_x = downsample(test.images(), 4);
    let mut rng = StdRng::seed_from_u64(31);
    let mut net = Network::new(vec![
        Layer::Dense(Dense::new(49, 48, &mut rng)),
        Layer::Relu(Relu::new(48)),
        Layer::Dense(Dense::new(48, 10, &mut rng)),
    ])
    .expect("static shapes");
    let cfg = SgdConfig {
        epochs: 25,
        batch_size: 20,
        ..SgdConfig::default()
    };
    train(&mut net, &train_x, ds.labels(), &cfg, &mut rng);
    (net, test_x, test.labels().to_vec())
}

/// The fault models compared, with the labels their series carry.
fn models() -> [(&'static str, FaultModel); 3] {
    [
        ("gaussian", FaultModel::gaussian_default()),
        ("burst", FaultModel::burst_default()),
        ("chip", FaultModel::chip_variation_default()),
    ]
}

/// Runs the validation sweep for every fault model: weights exposed at the
/// supply voltage, activations protected (input level 3), statistical path
/// vs simulator, `scale.trials` dies on each path.
#[must_use]
pub fn validation(scale: RunScale) -> FigureRecord {
    let (net, test_x, labels) = pooled_digit_net(scale.train_images.clamp(400, 1000));
    let n = scale.test_images.min(labels.len());
    let images = &test_x[..49 * n];
    let labels = &labels[..n];

    let program = Program::compile(&net, &images[..49 * 20.min(n)]).expect("dense net");
    let booster = ChipConfig::dante().booster();
    let mut record = FigureRecord::new(
        "validation",
        "Statistical fault-injection path vs bit-accurate simulator: accuracy vs Vdd",
        "Vdd [V]",
        "accuracy",
    );
    for (label, spec) in models() {
        let evaluator = AccuracyEvaluator::new(scale.trials).with_fault_spec(spec);
        let mut eval_pts = Vec::new();
        let mut sim_pts = Vec::new();
        let mut max_gap = (0.0f64, 0.0);
        let mut max_z = (0.0f64, 0.0);
        for mv in (340..=500).step_by(40) {
            let vdd = Volt::from_millivolts(f64::from(mv));
            // Statistical path: weights at Vdd, inputs at the level-3 rail.
            let safe = booster.boosted_voltage(vdd, 3);
            let assignment = VoltageAssignment::weights_only(vdd, 2, safe);
            let eval = evaluator.evaluate(&net, &assignment, images, labels, 0x5A17);

            // Simulator path: weights unboosted, inputs at level 3. Die `t`
            // takes trial `t`'s seed, so a chip-variation die shares its
            // `(mu, sigma)` profile with the evaluator's trial `t`.
            let sim = AccuracyStats {
                per_trial: (0..scale.trials)
                    .map(|die| {
                        let seed = derive_seed(0x5A17, site::TRIAL, die as u64);
                        let mut dante = Dante::new(ChipConfig::dante(), &spec, vdd, seed);
                        dante.accuracy(&program, &BoostSchedule::uniform(0, 2, 3), images, labels)
                    })
                    .collect(),
            };
            let gap = (eval.mean() - sim.mean()).abs();
            let z = if gap == 0.0 {
                0.0
            } else {
                gap / standard_error(&eval).hypot(standard_error(&sim))
            };
            if gap > max_gap.0 {
                max_gap = (gap, vdd.volts());
            }
            if z > max_z.0 {
                max_z = (z, vdd.volts());
            }
            eval_pts.push((vdd.volts(), eval.mean()));
            sim_pts.push((vdd.volts(), sim.mean()));
        }
        record = record
            .with_series(Series::new(format!("{label} evaluator"), eval_pts))
            .with_series(Series::new(format!("{label} simulator"), sim_pts))
            .with_note(format!(
                "{label}: max disagreement {:.3} (at {:.2} V); max {:.1} combined s.e. (at {:.2} V)",
                max_gap.0, max_gap.1, max_z.0, max_z.1
            ));
    }
    record
}

/// Standard error of a Monte-Carlo mean accuracy.
fn standard_error(stats: &AccuracyStats) -> f64 {
    stats.std_dev() / (stats.per_trial.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_two_paths_agree_through_the_cliff() {
        let scale = RunScale {
            trials: 3,
            test_images: 60,
            epochs: 25,
            train_images: 600,
        };
        let rec = validation(scale);
        assert_eq!(rec.series.len(), 2 * models().len());
        for (pair, (label, _)) in rec.series.chunks(2).zip(models()) {
            let (eval, sim) = (&pair[0].points, &pair[1].points);
            assert_eq!(eval.len(), sim.len());
            // Every model shows the cliff on both paths: low accuracy at
            // 0.34 V, high at 0.50 V.
            for path in [eval, sim] {
                assert!(
                    path.first().unwrap().1 < 0.6 && path.last().unwrap().1 > 0.85,
                    "{label}: no cliff in {path:?}"
                );
            }
        }
        // Loose band for the Gaussian pair: at 3 dies x 60 images each path
        // carries ~0.06 of binomial noise, and the dies are independent
        // between the paths.
        let (eval, sim) = (&rec.series[0].points, &rec.series[1].points);
        for (e, s) in eval.iter().zip(sim) {
            assert!(
                (e.1 - s.1).abs() < 0.25,
                "paths disagree at {} V: evaluator {} vs simulator {}",
                e.0,
                e.1,
                s.1
            );
        }
    }
}
