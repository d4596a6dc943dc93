//! Determinism regression tests for the unified trial engine: the same root
//! seed must produce byte-identical Monte-Carlo results regardless of
//! worker-thread count, and regardless of whether an evaluation runs
//! directly or as a point inside a sweep.

use dante::accuracy::{AccuracyEvaluator, EccMode, VoltageAssignment};
use dante_circuit::units::Volt;
use dante_nn::layers::{Dense, Layer, Relu};
use dante_nn::network::Network;
use dante_sim::{derive_seed, site};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn toy_net_and_data() -> (Network, Vec<f32>, Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(40);
    let mut net = Network::new(vec![
        Layer::Dense(Dense::new(8, 12, &mut rng)),
        Layer::Relu(Relu::new(12)),
        Layer::Dense(Dense::new(12, 3, &mut rng)),
    ])
    .expect("static shapes");
    let mut images = Vec::new();
    let mut labels = Vec::new();
    for i in 0..90 {
        let c = (i % 3) as u8;
        for j in 0..8 {
            let on = (j % 3) == usize::from(c);
            images.push(if on { 0.85 } else { 0.1 } + ((i + j) % 5) as f32 * 0.02);
        }
        labels.push(c);
    }
    let cfg = dante_nn::train::SgdConfig {
        epochs: 15,
        batch_size: 10,
        ..Default::default()
    };
    dante_nn::train::train(&mut net, &images, &labels, &cfg, &mut rng);
    (net, images, labels)
}

/// Exact per-trial equality across 1, 2, and N worker threads — the heart
/// of the engine's contract: parallelism is purely a wall-clock knob.
#[test]
fn per_trial_results_identical_across_thread_counts() {
    let (net, images, labels) = toy_net_and_data();
    let assignment = VoltageAssignment::uniform(Volt::new(0.40), 2);
    let seed = 0xD0_0D;
    let reference = AccuracyEvaluator::new(9).with_threads(1).evaluate(
        &net,
        &assignment,
        &images,
        &labels,
        seed,
    );
    let many = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
    for threads in [2, 3, many.max(2)] {
        let parallel = AccuracyEvaluator::new(9).with_threads(threads).evaluate(
            &net,
            &assignment,
            &images,
            &labels,
            seed,
        );
        assert_eq!(
            reference.per_trial, parallel.per_trial,
            "per-trial results diverged at {threads} threads"
        );
    }
}

/// The thread-count invariance must also hold under the SEC-DED ablation,
/// which draws a second (check-bit) overlay per layer.
#[test]
fn secded_results_identical_across_thread_counts() {
    let (net, images, labels) = toy_net_and_data();
    let assignment = VoltageAssignment::uniform(Volt::new(0.40), 2);
    let serial = AccuracyEvaluator::new(6)
        .with_ecc(EccMode::SecDed)
        .with_threads(1)
        .evaluate(&net, &assignment, &images, &labels, 77);
    let parallel = AccuracyEvaluator::new(6)
        .with_ecc(EccMode::SecDed)
        .with_threads(4)
        .evaluate(&net, &assignment, &images, &labels, 77);
    assert_eq!(serial.per_trial, parallel.per_trial);
}

/// A sweep point is exactly a direct evaluation under the point's derived
/// seed — sweeps add no hidden generator state. Checked on the production
/// sweep path, over the cached `mnist_fc(1200, 40, 4)` artifact that
/// `tests/differential.rs` trains too.
#[test]
fn sweep_points_match_direct_evaluations() {
    use dante::artifacts::trained_mnist_fc;
    use dante::sweep::{NetworkSpec, SweepSpec};

    let spec = SweepSpec {
        seed: 0xCAFE,
        trials: 4,
        voltages_mv: vec![380, 440, 500],
        network: NetworkSpec::MnistFc {
            train_n: 1200,
            test_n: 40,
            epochs: 4,
        },
        ..SweepSpec::toy_default()
    };
    let prepared = spec.prepare();
    let (net, test) = trained_mnist_fc(1200, 40, 4);
    let eval = AccuracyEvaluator::new(spec.trials)
        .with_ecc(spec.ecc)
        .with_fault_spec(spec.fault_model);
    let layers = net.weight_layer_indices().len();
    for (i, &mv) in spec.voltages_mv.iter().enumerate() {
        let direct = eval.evaluate(
            &net,
            &VoltageAssignment::uniform(Volt::from_millivolts(f64::from(mv)), layers),
            test.images(),
            test.labels(),
            derive_seed(spec.seed, site::SWEEP_POINT, i as u64),
        );
        assert_eq!(
            prepared.run_point(i).stats.per_trial,
            direct.per_trial,
            "sweep point {i} at {mv} mV diverged from its direct evaluation"
        );
    }
}

/// The fault-aware retraining stage is a differential fixture: the same
/// spec must reproduce byte-identical hardened weights (and the identical
/// comparison artifact) run-to-run and under `DANTE_THREADS=1` versus the
/// default thread count, while a changed seed must diverge.
///
/// `DANTE_THREADS` is process-global; the other tests in this binary pin
/// their thread counts explicitly or are themselves thread-invariant, so a
/// moment under `DANTE_THREADS=1` is harmless — and if it were not, this
/// suite failing is exactly the signal we want.
#[test]
fn retrain_weights_are_byte_identical_across_runs_and_thread_counts() {
    use dante::retrain::RetrainSpec;

    let spec = RetrainSpec {
        trials: 2,
        voltages_mv: vec![360, 420, 480, 540],
        ..RetrainSpec::toy_default()
    };

    std::env::set_var(dante_sim::engine::THREADS_ENV, "1");
    let serial = spec.run();
    std::env::remove_var(dante_sim::engine::THREADS_ENV);
    let default_threads = spec.run();
    let again = spec.run();

    assert_eq!(
        serial.network.to_bytes(),
        default_threads.network.to_bytes(),
        "hardened weights diverged between DANTE_THREADS=1 and the default"
    );
    assert_eq!(serial.weight_digest(), default_threads.weight_digest());
    assert_eq!(serial.baseline, default_threads.baseline);
    assert_eq!(serial.hardened, default_threads.hardened);
    assert_eq!(
        default_threads.network.to_bytes(),
        again.network.to_bytes(),
        "hardened weights diverged between identical back-to-back runs"
    );
    assert_eq!(default_threads.epochs, again.epochs);

    // The seed is load-bearing: flipping one bit must change the weights.
    let reseeded = RetrainSpec {
        seed: spec.seed ^ 1,
        ..spec
    }
    .run();
    assert_ne!(
        serial.network.to_bytes(),
        reseeded.network.to_bytes(),
        "a different seed must produce different hardened weights"
    );
}

/// Trial seeds are independent of the trial count: the first trials of a
/// short run and a long run coincide, so scaling `DANTE_TRIALS` up only
/// appends dies — it never reshuffles the ones already evaluated.
#[test]
fn trial_prefix_is_stable_under_trial_count() {
    let (net, images, labels) = toy_net_and_data();
    let assignment = VoltageAssignment::uniform(Volt::new(0.42), 2);
    let short = AccuracyEvaluator::new(3).evaluate(&net, &assignment, &images, &labels, 5);
    let long = AccuracyEvaluator::new(8).evaluate(&net, &assignment, &images, &labels, 5);
    assert_eq!(short.per_trial[..], long.per_trial[..3]);
}
