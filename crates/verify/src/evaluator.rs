//! Reference oracles for the Monte-Carlo accuracy evaluator: the two
//! evaluation paths production no longer ships, kept here so tests can
//! check the fast path against them.
//!
//! * [`scalar_evaluate`] scores every trial with the full
//!   [`Network::accuracy`] pass over the whole test set, on a network and
//!   input buffer corrupted through the evaluator's own single-trial entry
//!   points ([`AccuracyEvaluator::corrupt_network`],
//!   [`AccuracyEvaluator::corrupt_inputs`]). The dies are exactly a trial's;
//!   none of the batched bookkeeping (clean-activation cache, dirty-image
//!   sets, column/channel localization, undo log) is involved. Per-trial
//!   accuracies must therefore equal [`AccuracyEvaluator::evaluate`]'s bit
//!   for bit, for every fault model and ECC mode. Both paths multiply on the
//!   same exact GEMM kernels (held to the scalar triple loop by
//!   [`crate::gemm`]), so what this oracle checks is the incremental
//!   re-scoring.
//! * [`dense_evaluate`] draws each die as a dense per-cell Gaussian `V_min`
//!   field ([`FaultOverlay::from_seed`]) thresholded at the evaluation
//!   voltage: the original sampler. It walks the same seed tree as a trial
//!   but consumes a different random stream than the sparse-tail sampler,
//!   so it agrees with the evaluator in distribution only
//!   (`tests/fault_model_stats.rs` checks the means against each other
//!   within Wilson intervals).
//!
//! Both run trials serially and re-quantize per trial; they are oracles,
//! not benchmarks.
//!
//! [`FaultOverlay::from_seed`]: crate::dense::FaultOverlay::from_seed

use crate::forward::corrupt_quantized;
use dante::accuracy::{AccuracyEvaluator, AccuracyStats, EccMode, VoltageAssignment};
use dante_nn::layers::Layer;
use dante_nn::network::Network;
use dante_sim::{derive_seed, site};

/// Evaluates `eval.trials()` trials exactly as [`AccuracyEvaluator::evaluate`]
/// does — trial `t` corrupts with `derive_seed(seed, site::TRIAL, t)` — but
/// scores each corrupted network with the full [`Network::accuracy`] pass.
///
/// # Panics
///
/// Panics on a mismatched assignment or inconsistent buffer lengths.
#[must_use]
pub fn scalar_evaluate(
    eval: &AccuracyEvaluator,
    net: &Network,
    assignment: &VoltageAssignment,
    images: &[f32],
    labels: &[u8],
    seed: u64,
) -> AccuracyStats {
    let per_trial = (0..eval.trials())
        .map(|t| {
            let trial_seed = derive_seed(seed, site::TRIAL, t as u64);
            let corrupted = eval.corrupt_network(net, assignment, trial_seed);
            let inputs = eval.corrupt_inputs(images, assignment.inputs, trial_seed);
            corrupted.accuracy(&inputs, labels)
        })
        .collect();
    AccuracyStats { per_trial }
}

/// Evaluates `eval.trials()` trials on the evaluator's seed tree with
/// dense per-cell dies: weight layer `pos` of trial `t` draws its overlay
/// from `derive_seed(trial_seed, WEIGHT_LAYER, pos)` and the input buffer
/// from `derive_seed(trial_seed, INPUTS, 0)`, where `trial_seed =
/// derive_seed(seed, TRIAL, t)`. Values are quantized to the evaluator's
/// 16-bit weight format, one scale per buffer, and scored with the full
/// [`Network::accuracy`] pass.
///
/// # Panics
///
/// Panics unless the evaluator has no ECC and a fault-model spec whose
/// dies are Gaussian, or on a mismatched assignment.
#[must_use]
pub fn dense_evaluate(
    eval: &AccuracyEvaluator,
    net: &Network,
    assignment: &VoltageAssignment,
    images: &[f32],
    labels: &[u8],
    seed: u64,
) -> AccuracyStats {
    assert_eq!(
        eval.ecc(),
        EccMode::None,
        "the dense oracle models unprotected SRAM only"
    );
    let spec = eval.fault_spec();
    assert_eq!(
        assignment.weight_layers.len(),
        net.weight_layer_indices().len(),
        "assignment covers {} layers, network has {}",
        assignment.weight_layers.len(),
        net.weight_layer_indices().len()
    );
    let per_trial = (0..eval.trials())
        .map(|t| {
            let trial_seed = derive_seed(seed, site::TRIAL, t as u64);
            let die = spec.resolve_die(trial_seed);
            let model = die
                .as_gaussian()
                .expect("the dense oracle draws Gaussian dies only");
            let corrupted = net.map_weight_layers(|pos, layer| {
                let die = Some((
                    model,
                    assignment.weight_layers[pos],
                    derive_seed(trial_seed, site::WEIGHT_LAYER, pos as u64),
                ));
                let mut layer = layer.clone();
                match &mut layer {
                    Layer::Dense(d) => {
                        let _ = corrupt_quantized(d.weights_mut().as_mut_slice(), die);
                    }
                    Layer::Conv2d(c) => {
                        let _ = corrupt_quantized(c.weights_mut(), die);
                    }
                    other => panic!("unexpected weight layer kind: {other:?}"),
                }
                layer
            });
            let mut inputs = images.to_vec();
            let _ = corrupt_quantized(
                &mut inputs,
                Some((
                    model,
                    assignment.inputs,
                    derive_seed(trial_seed, site::INPUTS, 0),
                )),
            );
            corrupted.accuracy(&inputs, labels)
        })
        .collect();
    AccuracyStats { per_trial }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dante_circuit::units::Volt;
    use dante_nn::layers::{Dense, Relu};
    use dante_sram::model::FaultModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_net_and_data() -> (Network, Vec<f32>, Vec<u8>) {
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = Network::new(vec![
            Layer::Dense(Dense::new(6, 12, &mut rng)),
            Layer::Relu(Relu::new(12)),
            Layer::Dense(Dense::new(12, 2, &mut rng)),
        ])
        .unwrap();
        let mut images = Vec::new();
        let mut labels = Vec::new();
        for i in 0..80 {
            let c = (i % 2) as u8;
            let base = if c == 0 { 0.75 } else { 0.15 };
            for j in 0..6 {
                images.push(base + ((i + j) % 7) as f32 * 0.02);
            }
            labels.push(c);
        }
        let cfg = dante_nn::train::SgdConfig {
            epochs: 20,
            batch_size: 8,
            ..Default::default()
        };
        dante_nn::train::train(&mut net, &images, &labels, &cfg, &mut rng);
        (net, images, labels)
    }

    fn bits(stats: &AccuracyStats) -> Vec<u64> {
        stats.per_trial.iter().map(|a| a.to_bits()).collect()
    }

    #[test]
    fn evaluator_matches_the_scalar_oracle_bitwise() {
        let (net, images, labels) = toy_net_and_data();
        let evals = [
            AccuracyEvaluator::new(4),
            AccuracyEvaluator::new(3).with_ecc(EccMode::SecDed),
            AccuracyEvaluator::new(3).with_fault_spec(FaultModel::chip_variation_default()),
            AccuracyEvaluator::new(3).with_fault_spec(FaultModel::burst_default()),
        ];
        for eval in &evals {
            for mv in [340_u32, 400, 440, 480, 540] {
                let a = VoltageAssignment::uniform(Volt::from_millivolts(f64::from(mv)), 2);
                let fast = eval.evaluate(&net, &a, &images, &labels, 17);
                let oracle = scalar_evaluate(eval, &net, &a, &images, &labels, 17);
                assert_eq!(bits(&fast), bits(&oracle), "{mv} mV, {eval:?}");
            }
        }
    }

    #[test]
    fn dense_oracle_reproduces_the_retired_dense_sampler() {
        // Correct counts (out of 80 images) the production evaluator's
        // dense sampler produced for this net, seed and trial count before
        // it moved here: the oracle is that path, byte for byte.
        let (net, images, labels) = toy_net_and_data();
        let eval = AccuracyEvaluator::new(6);
        for (mv, counts) in [
            (400_u32, [42_u32, 59, 37, 42, 40, 37]),
            (420, [73, 70, 69, 50, 38, 74]),
            (440, [79, 78, 79, 77, 78, 77]),
        ] {
            let a = VoltageAssignment::uniform(Volt::from_millivolts(f64::from(mv)), 2);
            let dense = dense_evaluate(&eval, &net, &a, &images, &labels, 17);
            let expected: Vec<u64> = counts
                .iter()
                .map(|&c| (f64::from(c) / 80.0).to_bits())
                .collect();
            assert_eq!(bits(&dense), expected, "{mv} mV");
        }
    }

    #[test]
    fn dense_oracle_is_clean_at_a_safe_voltage() {
        let (net, images, labels) = toy_net_and_data();
        let eval = AccuracyEvaluator::new(2);
        let a = VoltageAssignment::uniform(Volt::new(0.60), 2);
        let dense = dense_evaluate(&eval, &net, &a, &images, &labels, 3);
        let scalar = scalar_evaluate(&eval, &net, &a, &images, &labels, 3);
        assert_eq!(
            dense, scalar,
            "no cell faults at 0.60 V under either sampler"
        );
    }

    #[test]
    #[should_panic(expected = "unprotected SRAM only")]
    fn dense_oracle_rejects_ecc() {
        let (net, images, labels) = toy_net_and_data();
        let eval = AccuracyEvaluator::new(1).with_ecc(EccMode::SecDed);
        let a = VoltageAssignment::uniform(Volt::new(0.44), 2);
        let _ = dense_evaluate(&eval, &net, &a, &images, &labels, 0);
    }

    #[test]
    #[should_panic(expected = "Gaussian dies only")]
    fn dense_oracle_rejects_burst_dies() {
        let (net, images, labels) = toy_net_and_data();
        let eval = AccuracyEvaluator::new(1).with_fault_spec(FaultModel::burst_default());
        let a = VoltageAssignment::uniform(Volt::new(0.44), 2);
        let _ = dense_evaluate(&eval, &net, &a, &images, &labels, 0);
    }
}
