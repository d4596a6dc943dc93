//! End-to-end integration: training, compilation, and execution on the
//! bit-accurate accelerator simulator agree with the host-side reference,
//! and the boosted-SRAM architecture does what the paper claims.

use dante_accel::chip::ChipConfig;
use dante_accel::executor::{BoostSchedule, Dante};
use dante_accel::program::Program;
use dante_circuit::units::Volt;
use dante_nn::data::generate_mnist_like;
use dante_nn::layers::{Dense, Layer, Relu};
use dante_nn::network::Network;
use dante_nn::train::{train, SgdConfig};
use dante_sram::model::FaultModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A downsized MNIST-style network that trains in a second: inputs are the
/// 784-pixel digits averaged into 49 (7x7) superpixels.
fn small_digit_setup() -> (Network, Vec<f32>, Vec<u8>) {
    let ds = generate_mnist_like(600, 11);
    let test = generate_mnist_like(150, 12);
    let pool = |images: &[f32], n: usize| -> Vec<f32> {
        let mut out = Vec::with_capacity(n * 49);
        for s in 0..n {
            let img = &images[s * 784..(s + 1) * 784];
            for by in 0..7 {
                for bx in 0..7 {
                    let mut acc = 0.0f32;
                    for y in 0..4 {
                        for x in 0..4 {
                            acc += img[(by * 4 + y) * 28 + bx * 4 + x];
                        }
                    }
                    out.push(acc / 16.0);
                }
            }
        }
        out
    };
    let train_x = pool(ds.images(), ds.len());
    let test_x = pool(test.images(), test.len());

    let mut rng = StdRng::seed_from_u64(2);
    let mut net = Network::new(vec![
        Layer::Dense(Dense::new(49, 48, &mut rng)),
        Layer::Relu(Relu::new(48)),
        Layer::Dense(Dense::new(48, 10, &mut rng)),
    ])
    .unwrap();
    let cfg = SgdConfig {
        epochs: 20,
        batch_size: 20,
        ..SgdConfig::default()
    };
    train(&mut net, &train_x, ds.labels(), &cfg, &mut rng);
    let acc = net.accuracy(&test_x, test.labels());
    assert!(acc > 0.9, "small digit net failed to train: {acc}");
    (net, test_x, test.labels().to_vec())
}

#[test]
fn accelerator_matches_float_reference_on_clean_silicon() {
    let (net, test_x, labels) = small_digit_setup();
    let program = Program::compile(&net, &test_x[..49 * 20]).unwrap();
    let mut dante = Dante::fault_free(ChipConfig::dante(), Volt::new(0.5));
    let schedule = BoostSchedule::uniform(0, 2, 0);

    let n = 40;
    let mut agree = 0;
    for i in 0..n {
        let sample = &test_x[i * 49..(i + 1) * 49];
        let accel = dante.run(&program, &schedule, sample);
        let float_pred = net.predict(sample, 1)[0];
        if accel.prediction == float_pred {
            agree += 1;
        }
    }
    assert!(
        agree >= n - 1,
        "quantized accelerator disagreed with float reference on {} of {n}",
        n - agree
    );
    let accel_acc = dante.accuracy(&program, &schedule, &test_x[..49 * n], &labels[..n]);
    assert!(accel_acc > 0.85, "accelerator accuracy {accel_acc}");
}

#[test]
fn boosting_recovers_accuracy_lost_at_very_low_voltage() {
    // The paper's Fig. 1 story, end to end on the simulator.
    let (net, test_x, labels) = small_digit_setup();
    let program = Program::compile(&net, &test_x[..49 * 20]).unwrap();
    let vdd = Volt::new(0.36);
    let n = 40;

    let mut dante = Dante::new(ChipConfig::dante(), &FaultModel::default(), vdd, 77);

    let unboosted = dante.accuracy(
        &program,
        &BoostSchedule::uniform(0, 2, 0),
        &test_x[..49 * n],
        &labels[..n],
    );
    let boosted = dante.accuracy(
        &program,
        &BoostSchedule::uniform(4, 2, 4),
        &test_x[..49 * n],
        &labels[..n],
    );

    assert!(
        unboosted < 0.6,
        "0.36 V unboosted should be heavily corrupted, got {unboosted}"
    );
    assert!(
        boosted > 0.85,
        "full boost (rail ~0.54 V) should recover accuracy, got {boosted}"
    );
    assert!(boosted > unboosted + 0.25);
}

#[test]
fn spatial_programmability_boosts_data_classes_independently() {
    // The paper's Table 2 rule: inputs/activations only need their rail
    // above ~0.44 V (a *lower* level than weights demand), and with that in
    // place the weight-memory level controls accuracy. It also shows why
    // the rule exists: leaving the activation memory unboosted at 0.38 V
    // (24% BER) destroys the output no matter how hard weights are boosted.
    let (net, test_x, labels) = small_digit_setup();
    let program = Program::compile(&net, &test_x[..49 * 20]).unwrap();
    let vdd = Volt::new(0.38);
    let n = 40;

    let mut dante = Dante::new(ChipConfig::dante(), &FaultModel::default(), vdd, 88);

    // Inputs at level 2 (rail ~0.475 V, per the 0.44 V rule) and level 3
    // (rail ~0.52 V, where activation faults vanish entirely).
    let weights_protected = dante.accuracy(
        &program,
        &BoostSchedule::uniform(4, 2, 2),
        &test_x[..49 * n],
        &labels[..n],
    );
    let fully_protected = dante.accuracy(
        &program,
        &BoostSchedule::uniform(4, 2, 3),
        &test_x[..49 * n],
        &labels[..n],
    );
    let weights_exposed = dante.accuracy(
        &program,
        &BoostSchedule::uniform(0, 2, 2),
        &test_x[..49 * n],
        &labels[..n],
    );
    // Weights fully boosted but activations left unboosted at 0.38 V.
    let inputs_exposed = dante.accuracy(
        &program,
        &BoostSchedule::uniform(4, 2, 0),
        &test_x[..49 * n],
        &labels[..n],
    );

    assert!(
        fully_protected > 0.8,
        "weights@4 + inputs@3 should be near-clean, got {fully_protected}"
    );
    assert!(
        weights_protected > weights_exposed + 0.2,
        "weight-level must control accuracy ({weights_protected} vs {weights_exposed})"
    );
    assert!(
        inputs_exposed < 0.6,
        "unboosted activations at 0.38 V must corrupt regardless of weights, got {inputs_exposed}"
    );
}

#[test]
fn monte_carlo_evaluator_and_simulator_tell_the_same_story() {
    // The fast statistical path (core::accuracy) and the bit-accurate
    // simulator must agree on the qualitative outcome at the same voltages.
    let (net, test_x, labels) = small_digit_setup();
    let n = 40;
    let eval = dante::accuracy::AccuracyEvaluator::new(3);
    let layers = net.weight_layer_indices().len();

    let low = eval
        .evaluate(
            &net,
            &dante::accuracy::VoltageAssignment::uniform(Volt::new(0.36), layers),
            &test_x[..49 * n],
            &labels[..n],
            5,
        )
        .mean();
    let high = eval
        .evaluate(
            &net,
            &dante::accuracy::VoltageAssignment::uniform(Volt::new(0.54), layers),
            &test_x[..49 * n],
            &labels[..n],
            5,
        )
        .mean();
    assert!(high > 0.85, "evaluator at 0.54 V: {high}");
    assert!(
        high > low + 0.2,
        "evaluator must show the same cliff: {low} -> {high}"
    );
}

#[test]
fn set_boost_config_instruction_counts_stay_small() {
    // Paper Sec. 3.2.1: "In order to limit the overhead, the
    // set_boost_config instruction must be issued at relatively large
    // intervals." One inference issues a handful of config writes per layer
    // — vanishingly few against the thousands of data accesses.
    let (net, test_x, _) = small_digit_setup();
    let program = Program::compile(&net, &test_x[..49 * 10]).unwrap();
    let mut dante = Dante::fault_free(ChipConfig::dante(), Volt::new(0.4));
    let _ = dante.run(&program, &BoostSchedule::uniform(2, 2, 1), &test_x[..49]);
    let stats = dante.stats();
    let mem = dante.weight_stats().total() + dante.input_stats().total();
    assert!(stats.boost_config_writes > 0);
    // Even on this deliberately tiny network (where fixed per-layer config
    // costs are amortized worst), config writes stay a few percent of the
    // data accesses; on realistic layers the ratio is orders of magnitude
    // smaller.
    assert!(
        (stats.boost_config_writes as f64) < 0.05 * mem as f64,
        "{} config writes vs {} memory accesses",
        stats.boost_config_writes,
        mem
    );
}
