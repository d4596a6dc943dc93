//! Differential acceptance: the cycle-level executor and the independent
//! reference math must agree bit-exactly, stage by stage, on fault-free and
//! heavily corrupted programs — FC and conv topologies alike. On any
//! divergence the report carries the replayable `(seed, trial)` pair and
//! the failure is shrunk to a 1-minimal corruption before the panic, so the
//! log *is* the repro.

use dante_accel::{BoostSchedule, ChipConfig, Dante, Program};
use dante_circuit::units::Volt;
use dante_nn::layers::{Conv2d, Dense, Layer, MaxPool2d, Relu, Shape3};
use dante_nn::network::Network;
use dante_verify::differential::{
    corrupt_program, minimize_corruption, run_differential, DiffConfig,
};
use dante_verify::forward::ForwardDiffConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fc_program() -> Program {
    let mut rng = StdRng::seed_from_u64(17);
    let net = Network::new(vec![
        Layer::Dense(Dense::new(24, 16, &mut rng)),
        Layer::Relu(Relu::new(16)),
        Layer::Dense(Dense::new(16, 10, &mut rng)),
        Layer::Relu(Relu::new(10)),
        Layer::Dense(Dense::new(10, 4, &mut rng)),
    ])
    .unwrap();
    let calib: Vec<f32> = (0..24 * 6).map(|i| ((i * 13) % 19) as f32 / 19.0).collect();
    Program::compile(&net, &calib).unwrap()
}

fn conv_program() -> Program {
    let mut rng = StdRng::seed_from_u64(29);
    let net = Network::new(vec![
        Layer::Conv2d(Conv2d::new(Shape3::new(2, 10, 10), 6, 3, 1, &mut rng)),
        Layer::Relu(Relu::new(6 * 100)),
        Layer::MaxPool2d(MaxPool2d::new(Shape3::new(6, 10, 10))),
        Layer::Dense(Dense::new(150, 8, &mut rng)),
    ])
    .unwrap();
    let calib: Vec<f32> = (0..200 * 4)
        .map(|i| ((i * 11) % 23) as f32 / 23.0)
        .collect();
    Program::compile(&net, &calib).unwrap()
}

/// Runs the full differential suite on one program and panics with a
/// minimized repro on divergence.
fn assert_differentially_clean(program: &Program, config: &DiffConfig) {
    let report = run_differential(program, config);
    if report.is_clean() {
        return;
    }
    // Shrink the first divergence to a minimal corruption for the log,
    // replaying the exact trial sample run_differential used.
    let d = &report.divergences[0];
    let corrupted = corrupt_program(program, &config.model, config.weight_voltage, d.trial_seed);
    let sample: Vec<f32> = (0..program.in_len())
        .map(|i| ((i * 7 + d.trial * 13) % 23) as f32 / 23.0)
        .collect();
    let faulty_sample = dante_verify::corrupt_sample(
        program,
        &sample,
        &config.model,
        config.input_voltage,
        d.trial_seed,
    );
    let minimal = minimize_corruption(program, &corrupted, |p| {
        dante_verify::check_program(p, &faulty_sample, d.trial, d.trial_seed).is_some()
    });
    panic!(
        "executor/reference divergence:\n{}minimal corrupted rows: {minimal:?}",
        report.render()
    );
}

#[test]
fn fc_executor_agrees_with_reference_under_corruption() {
    assert_differentially_clean(&fc_program(), &DiffConfig::default());
}

#[test]
fn conv_executor_agrees_with_reference_under_corruption() {
    assert_differentially_clean(
        &conv_program(),
        &DiffConfig {
            trials: 6,
            ..DiffConfig::default()
        },
    );
}

#[test]
fn differential_agreement_holds_across_voltages() {
    // From fault-free (0.60 V) through the cliff (0.42 V) to deep VLV
    // (0.36 V, BER ~0.4): agreement is unconditional because both sides
    // read the same corrupted bit image.
    let program = fc_program();
    for mv in [600u32, 480, 420, 380, 360] {
        let config = DiffConfig {
            trials: 4,
            weight_voltage: Volt::from_millivolts(f64::from(mv)),
            input_voltage: Volt::from_millivolts(f64::from(mv)),
            seed: u64::from(mv),
            ..DiffConfig::default()
        };
        assert_differentially_clean(&program, &config);
    }
}

#[test]
fn differential_report_is_deterministic_across_thread_counts() {
    // The report (not just its emptiness) must be a pure function of the
    // config — the TrialEngine guarantee extended to the verifier.
    let program = fc_program();
    let config = DiffConfig::default();
    let a = run_differential(&program, &config);
    let b = run_differential(&program, &config);
    assert_eq!(a, b);
}

/// Runs the batched-vs-scalar forward differential and panics with a
/// ddmin-minimized repro (a 1-minimal weight-unit set) on divergence.
fn assert_forward_differentially_clean(
    net: &Network,
    inputs: &[f32],
    labels: &[u8],
    config: &ForwardDiffConfig,
) {
    let report = dante_verify::run_forward_differential(net, inputs, labels, config);
    if report.is_clean() {
        return;
    }
    // Shrink the first divergence: replay its die, then ddmin the corrupted
    // weight units under the same batched-vs-scalar check.
    let d = &report.divergences[0];
    let clean = dante_verify::forward::quantized_baseline(net);
    let clean_inputs = dante_verify::forward::quantized_input_baseline(inputs, net.in_len());
    let corrupted =
        dante_verify::corrupt_weights(net, &config.model, config.weight_voltage, d.trial_seed);
    let (trial_inputs, dirty) = dante_verify::corrupt_inputs(
        inputs,
        net.in_len(),
        &config.model,
        config.input_voltage,
        d.trial_seed,
    );
    let minimal = dante_verify::minimize_units(&clean, &corrupted, |hybrid| {
        !dante_verify::check_batched(
            &clean,
            hybrid,
            &clean_inputs,
            &trial_inputs,
            &dirty,
            labels,
            config.cache_budget,
        )
        .is_clean()
    });
    panic!(
        "batched/scalar divergence:\n{}minimal corrupted units: {minimal:?}",
        report.render()
    );
}

fn forward_dataset(seed: u64, n: usize, in_len: usize, classes: u8) -> (Vec<f32>, Vec<u8>) {
    use rand::Rng as _;
    let mut rng = StdRng::seed_from_u64(seed);
    let inputs = (0..n * in_len).map(|_| rng.gen::<f32>()).collect();
    let labels = (0..n).map(|_| rng.gen::<u8>() % classes).collect();
    (inputs, labels)
}

#[test]
fn batched_forward_agrees_with_scalar_on_fc_networks() {
    // Shapes vary the GEMM tile remainders; batch sizes straddle the
    // 256-image evaluation chunk.
    let mut rng = StdRng::seed_from_u64(71);
    for (in_len, hidden, classes, n) in [(24, 16, 4, 60), (19, 13, 5, 257)] {
        let net = Network::new(vec![
            Layer::Dense(Dense::new(in_len, hidden, &mut rng)),
            Layer::Relu(Relu::new(hidden)),
            Layer::Dense(Dense::new(hidden, classes, &mut rng)),
        ])
        .unwrap();
        let (inputs, labels) = forward_dataset(100 + n as u64, n, in_len, classes as u8);
        assert_forward_differentially_clean(
            &net,
            &inputs,
            &labels,
            &ForwardDiffConfig {
                trials: 6,
                ..ForwardDiffConfig::default()
            },
        );
    }
}

#[test]
fn batched_forward_agrees_with_scalar_on_conv_networks() {
    let mut rng = StdRng::seed_from_u64(73);
    let net = Network::new(vec![
        Layer::Conv2d(Conv2d::new(Shape3::new(2, 10, 10), 6, 3, 1, &mut rng)),
        Layer::Relu(Relu::new(6 * 100)),
        Layer::MaxPool2d(MaxPool2d::new(Shape3::new(6, 10, 10))),
        Layer::Dense(Dense::new(150, 8, &mut rng)),
    ])
    .unwrap();
    let (inputs, labels) = forward_dataset(74, 40, net.in_len(), 8);
    assert_forward_differentially_clean(
        &net,
        &inputs,
        &labels,
        &ForwardDiffConfig {
            trials: 6,
            ..ForwardDiffConfig::default()
        },
    );
}

#[test]
fn batched_forward_agrees_with_scalar_across_voltages() {
    // From fault-free (0.60 V) through the cliff to deep VLV: the dirty
    // sets range from empty to nearly everything.
    let mut rng = StdRng::seed_from_u64(75);
    let net = Network::new(vec![
        Layer::Dense(Dense::new(24, 16, &mut rng)),
        Layer::Relu(Relu::new(16)),
        Layer::Dense(Dense::new(16, 4, &mut rng)),
    ])
    .unwrap();
    let (inputs, labels) = forward_dataset(76, 80, 24, 4);
    for mv in [600u32, 480, 420, 380, 360] {
        let v = Volt::from_millivolts(f64::from(mv));
        assert_forward_differentially_clean(
            &net,
            &inputs,
            &labels,
            &ForwardDiffConfig {
                trials: 4,
                weight_voltage: v,
                input_voltage: v,
                seed: u64::from(mv),
                ..ForwardDiffConfig::default()
            },
        );
    }
}

#[test]
fn evaluator_agrees_bitwise_with_the_scalar_oracle_across_voltages_and_ecc() {
    // The end-to-end guarantee the sweep/iso/retrain stack rides on: the
    // Monte-Carlo evaluator's per-trial accuracies are bit-identical to the
    // scalar per-image oracle's for every voltage and ECC mode.
    use dante::{AccuracyEvaluator, EccMode, VoltageAssignment};

    let mut rng = StdRng::seed_from_u64(77);
    let net = Network::new(vec![
        Layer::Dense(Dense::new(20, 14, &mut rng)),
        Layer::Relu(Relu::new(14)),
        Layer::Dense(Dense::new(14, 5, &mut rng)),
    ])
    .unwrap();
    let (images, labels) = forward_dataset(78, 70, 20, 5);

    for mv in [360u32, 420, 460, 540] {
        let a = VoltageAssignment::uniform(Volt::from_millivolts(f64::from(mv)), 2);
        for ecc in [EccMode::None, EccMode::SecDed] {
            let eval = AccuracyEvaluator::new(3).with_ecc(ecc);
            let seed = u64::from(mv);
            let fast = eval.evaluate(&net, &a, &images, &labels, seed);
            let oracle = dante_verify::scalar_evaluate(&eval, &net, &a, &images, &labels, seed);
            let fb: Vec<u64> = fast.per_trial.iter().map(|x| x.to_bits()).collect();
            let ob: Vec<u64> = oracle.per_trial.iter().map(|x| x.to_bits()).collect();
            assert_eq!(fb, ob, "{mv} mV ecc={ecc:?}");
        }
    }
}

#[test]
fn iso_accuracy_golden_sweep_matches_the_scalar_oracle_bitwise() {
    // The single-supply sweep behind `results/golden/iso_accuracy.json`
    // (mnist_fc(1200,40,4), seed 1379020, 3 trials, 380-520 mV), scored
    // point by point through the production sweep and through the scalar
    // oracle on the same network, test set and point seeds.
    use dante::{AccuracyEvaluator, IsoAccuracySpec, NetworkSpec, VoltageAssignment};
    use dante_sim::{derive_seed, site};

    let iso = IsoAccuracySpec {
        seed: 0x150_ACC,
        voltages_mv: (380..=520).step_by(20).collect(),
        trials: 3,
        floor: 0.95,
        level: 4,
        network: NetworkSpec::MnistFc {
            train_n: 1200,
            test_n: 40,
            epochs: 4,
        },
        ..IsoAccuracySpec::toy_default()
    };
    let spec = iso.single_sweep();
    assert!(
        spec.canonical_string().starts_with(
            "dante.sweep.v5;seed=1379020;trials=3;ecc=none;geom=calibrated;\
             fault=gaussian(mu=352,sigma=40,flip=500000);supply=single;\
             net=mnist_fc(1200,40,4);mv=380,"
        ),
        "{}",
        spec.canonical_string()
    );
    let prepared = spec.prepare();
    let (net, test) = dante::artifacts::trained_mnist_fc(1200, 40, 4);
    let eval = AccuracyEvaluator::new(spec.trials);
    let layers = net.weight_layer_indices().len();
    for (i, &mv) in spec.voltages_mv.iter().enumerate() {
        let a = VoltageAssignment::uniform(Volt::from_millivolts(f64::from(mv)), layers);
        let seed = derive_seed(spec.seed, site::SWEEP_POINT, i as u64);
        let fast = prepared.run_point(i).stats;
        let oracle =
            dante_verify::scalar_evaluate(&eval, &net, &a, test.images(), test.labels(), seed);
        let fb: Vec<u64> = fast.per_trial.iter().map(|x| x.to_bits()).collect();
        let ob: Vec<u64> = oracle.per_trial.iter().map(|x| x.to_bits()).collect();
        assert_eq!(fb, ob, "{mv} mV");
    }
}

#[test]
fn corruption_actually_perturbs_the_execution() {
    // Guard against a vacuous differential: at the default voltages the
    // corrupted program must change observable outputs vs the clean one for
    // at least one trial sample — otherwise the suite tests nothing.
    let program = fc_program();
    let config = DiffConfig::default();
    let sample: Vec<f32> = (0..program.in_len())
        .map(|i| (i % 23) as f32 / 23.0)
        .collect();
    let mut dante = Dante::fault_free(ChipConfig::dante(), Volt::new(0.5));
    let schedule = BoostSchedule::uniform(0, program.weight_layer_count(), 0);
    let clean = dante.run(&program, &schedule, &sample);
    let corrupted = corrupt_program(
        &program,
        &config.model,
        config.weight_voltage,
        dante_sim::derive_seed(config.seed, dante_sim::site::DIFF_TRIAL, 0),
    );
    let faulty = dante.run(&corrupted, &schedule, &sample);
    assert_ne!(
        clean.codes, faulty.codes,
        "0.40 V corruption must visibly perturb the output codes"
    );
}
