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
//! * [`filter_corruption`] heals a dense per-word corruption mask the way
//!   SEC-DED does. It is the dense form of the healing the evaluator
//!   streams, and this module's tests hold
//!   [`AccuracyEvaluator::corrupt_network`] and
//!   [`AccuracyEvaluator::corrupt_inputs`] under [`EccMode::SecDed`] to it
//!   bit for bit. They hold it in turn to the Hamming(72,64) decoder of
//!   `dante_sram::ecc` on every pattern of at most two flipped codeword
//!   bits.
//!
//! All of them run trials serially and re-quantize per trial; they are
//! oracles, not benchmarks.
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

/// Applies SEC-DED's statistical effect to a per-word corruption mask.
///
/// `data_corruption[w]` holds the fault-overlay flips of word `w`'s 64 data
/// bits; `check_flips[w]` the number of flips among its 8 check bits. Words
/// whose *total* flip count is <= 1 are healed (their data corruption is
/// cleared); words with two or more flips keep their data corruption (the
/// decoder detects but cannot correct, and on >= 3 flips may even
/// miscorrect — modelled conservatively as "corruption passes through").
///
/// Returns the number of words healed.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn filter_corruption(data_corruption: &mut [u64], check_flips: &[u32]) -> usize {
    assert_eq!(
        data_corruption.len(),
        check_flips.len(),
        "corruption and check-flip slices must align"
    );
    let mut healed = 0;
    for (word, &cf) in data_corruption.iter_mut().zip(check_flips) {
        let total = word.count_ones() + cf;
        // A single flip anywhere is corrected. Two or more flips pass
        // through (check-bit-only flips never corrupted the data anyway).
        if total <= 1 {
            if *word != 0 {
                healed += 1;
            }
            *word = 0;
        }
    }
    healed
}

#[cfg(test)]
mod tests {
    use super::*;
    use dante_circuit::units::Volt;
    use dante_nn::layers::{Dense, Relu};
    use dante_nn::quant;
    use dante_sram::model::{DieFaultModel, FaultModel};
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

    #[test]
    fn filter_heals_single_flips_and_passes_doubles() {
        let mut corruption = vec![
            0u64,    // clean
            1 << 5,  // single data flip -> healed
            0b11,    // double data flip -> passes
            1 << 40, // single data flip but a check bit also flipped -> passes
            0,       // two check-bit flips only -> data unaffected
        ];
        let checks = vec![0u32, 0, 0, 1, 2];
        let healed = filter_corruption(&mut corruption, &checks);
        assert_eq!(corruption, vec![0, 0, 0b11, 1 << 40, 0]);
        assert_eq!(healed, 1);
    }

    /// Holds [`filter_corruption`]'s SEC-DED model to the Hamming(72,64)
    /// codec itself: for several data words and every pattern of at most
    /// two flipped codeword positions, the data `decode` returns is the
    /// data the model leaves when given the pattern's data-bit flips as the
    /// word's mask and its flipped check positions, the overall parity bit
    /// included, as the check count. Scope: with three or more flips the
    /// model passes the corruption through while the decoder may
    /// miscorrect, so the two are held together only up to two flips.
    #[test]
    fn filter_corruption_matches_the_hamming_decoder_up_to_two_flips() {
        use dante_sram::ecc::{self, CODE_BITS, DATA_BITS};
        // The data bit each codeword position holds; `None` for a check bit.
        let data_bit: Vec<Option<u32>> = (0..CODE_BITS)
            .map(|pos| (0..DATA_BITS).find(|&i| ecc::data_position(i) == pos))
            .collect();
        assert_eq!(data_bit.iter().flatten().count(), 64);
        let mut patterns = vec![vec![]];
        for a in 0..CODE_BITS {
            patterns.push(vec![a]);
            patterns.extend((a + 1..CODE_BITS).map(|b| vec![a, b]));
        }
        for data in [
            0,
            u64::MAX,
            0xDEAD_BEEF_CAFE_F00D,
            0x0123_4567_89AB_CDEF,
            1 << 63,
        ] {
            let clean = ecc::encode(data);
            for flips in &patterns {
                let (mut codeword, mut mask, mut checks) = (clean, 0u64, 0u32);
                for &pos in flips {
                    codeword = codeword.with_flip(pos);
                    match data_bit[pos as usize] {
                        Some(bit) => mask |= 1 << bit,
                        None => checks += 1,
                    }
                }
                let mut corruption = [mask];
                filter_corruption(&mut corruption, &[checks]);
                let (decoded, _) = ecc::decode(codeword);
                assert_eq!(
                    decoded,
                    data ^ corruption[0],
                    "data {data:#x}, flipped positions {flips:?}"
                );
            }
        }
    }

    /// Corrupts `values` as a SEC-DED-protected buffer through the dense
    /// reference: both fault streams drawn into per-word masks, the data
    /// masks healed by [`filter_corruption`], XORed into the packed codes
    /// and dequantized. Returns the healed and the surviving word counts.
    fn secded_reference(
        values: &mut [f32],
        die: &DieFaultModel,
        v: Volt,
        seed: u64,
    ) -> (usize, usize) {
        let mut tensor = quant::quantize(values);
        let mut words = tensor.to_packed_words();
        let (mut indices, mut cells) = (Vec::new(), Vec::new());
        let mut dense = |bits: usize, seed: u64| {
            let mut masks = vec![0u64; bits.div_ceil(64)];
            die.for_each_flip_word_at_floor(bits, v, seed, &mut indices, &mut cells, |w, m| {
                masks[w] = m;
            });
            masks
        };
        let word_len = tensor.bit_len().div_ceil(64);
        let mut data = dense(tensor.bit_len(), seed);
        let check = dense(word_len * 8, derive_seed(seed, site::ECC_CHECK, 0));
        let check_flips: Vec<u32> = (0..word_len)
            .map(|w| ((check[w / 8] >> ((w % 8) * 8)) & 0xFF).count_ones())
            .collect();
        let healed = filter_corruption(&mut data, &check_flips);
        for (word, mask) in words.iter_mut().zip(&data) {
            *word ^= mask;
        }
        tensor.load_packed_words(&words);
        values.copy_from_slice(&tensor.to_f32());
        (healed, data.iter().filter(|&&m| m != 0).count())
    }

    fn weights(layer: &Layer) -> &[f32] {
        match layer {
            Layer::Dense(d) => d.weights().as_slice(),
            Layer::Conv2d(c) => c.weights(),
            other => panic!("unexpected weight layer kind: {other:?}"),
        }
    }

    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        let first = got
            .iter()
            .zip(want)
            .position(|(a, b)| a.to_bits() != b.to_bits());
        assert_eq!(first, None, "{what}: first differing value");
    }

    #[test]
    fn secded_corruption_matches_the_dense_healing_reference() {
        // 1,073, 145 and 35 weights and 293 inputs: none fills its last
        // 4-lane data word, and none of their 269, 37, 9 and 74 data words
        // fills its last 8-word check word.
        let mut rng = StdRng::seed_from_u64(9);
        let net = Network::new(vec![
            Layer::Dense(Dense::new(37, 29, &mut rng)),
            Layer::Relu(Relu::new(29)),
            Layer::Dense(Dense::new(29, 5, &mut rng)),
            Layer::Relu(Relu::new(5)),
            Layer::Dense(Dense::new(5, 7, &mut rng)),
        ])
        .unwrap();
        let images: Vec<f32> = (0..293).map(|i| (i % 17) as f32 / 16.0).collect();
        let (mut healed, mut survived) = (0, 0);
        for model in [
            FaultModel::default(),
            FaultModel::burst_default(),
            FaultModel::chip_variation_default(),
        ] {
            let eval = AccuracyEvaluator::new(1)
                .with_ecc(EccMode::SecDed)
                .with_fault_spec(model);
            for trial_seed in [3_u64, 17, 0xDA17E] {
                let die = model.resolve_die(trial_seed);
                for mv in (380..=520).step_by(20) {
                    let v = Volt::from_millivolts(f64::from(mv));
                    let what = format!("{model:?}, seed {trial_seed}, {mv} mV");
                    let a = VoltageAssignment::uniform(v, 3);
                    let corrupted = eval.corrupt_network(&net, &a, trial_seed);
                    for (pos, idx) in net.weight_layer_indices().into_iter().enumerate() {
                        let mut want = net.layers()[idx].clone();
                        let values = match &mut want {
                            Layer::Dense(d) => d.weights_mut().as_mut_slice(),
                            Layer::Conv2d(c) => c.weights_mut(),
                            other => panic!("unexpected weight layer kind: {other:?}"),
                        };
                        let seed = derive_seed(trial_seed, site::WEIGHT_LAYER, pos as u64);
                        let (h, s) = secded_reference(values, &die, v, seed);
                        (healed, survived) = (healed + h, survived + s);
                        assert_same_bits(
                            weights(&corrupted.layers()[idx]),
                            weights(&want),
                            &format!("{what}, weight layer {pos}"),
                        );
                    }
                    let mut want = images.clone();
                    let seed = derive_seed(trial_seed, site::INPUTS, 0);
                    let (h, s) = secded_reference(&mut want, &die, v, seed);
                    (healed, survived) = (healed + h, survived + s);
                    let got = eval.corrupt_inputs(&images, v, trial_seed);
                    assert_same_bits(&got, &want, &format!("{what}, inputs"));
                }
            }
        }
        // The sweep crosses from words that heal to words that do not.
        assert!(
            healed > 0 && survived > 0,
            "{healed} healed, {survived} survived"
        );
    }
}
