//! The tracked Monte-Carlo performance harness behind `BENCH_mc.json`.
//!
//! Times the layers of the Monte-Carlo accuracy evaluator:
//!
//! 1. **Overlay generation** — drawing one fault die for a 4 Mbit image,
//!    dense per-cell Gaussian ([`dense_die`]) vs. sparse binomial +
//!    truncated tail. This is the one dense-vs-sparse comparison kept: it
//!    shows what every production die, the accelerator simulator's
//!    included, saves by sampling only the faulty tail.
//! 2. **Per-trial corruption** — the `"corrupt"` stage of the evaluator
//!    (quantize-once + undo-log hot path).
//! 3. **Forward pass** — the `"inference"` stage of the same evaluator
//!    (trial-batched incremental GEMM), with its throughput in images per
//!    second: `mnist_fc` at the cliff and in the deep tail, and the
//!    `cifar_cnn` proxy of Fig. 14 at the cliff.
//! 4. **Full accuracy sweep** — the end-to-end MNIST voltage sweep the
//!    figures run, wall clock and per-voltage mean accuracy.
//! 5. **Fleet dies** — one fleet die per fault model at the `fleet_yield`
//!    service shape (4 Mbit at a 500 mV floor): profile resolution plus
//!    the die summary `FleetSpec` reads, in microseconds per die.
//! 6. **Engine scaling** — one whole evaluation at the stage rows' point,
//!    at 1, 2, 4 and all available trial-engine workers, with its speedup
//!    over one worker.
//! 7. **Accelerator inference** — one bit-accurate boosted inference of a
//!    small dense program on the Dante chip simulator.
//! 8. **Retraining** — one whole `RetrainSpec::run` of the `retrain_harden`
//!    service spec (`mnist_fc` 1200/100/4 hardened for one epoch at 460 mV,
//!    two trials per point on 400..=560 mV in 40 mV steps), and its epoch
//!    from `EpochStart` to `EpochDone`, the split `bench_e2e`'s traced
//!    replay reports as `retrain.epoch_ms`.
//!
//! Rows 2 and 3 of `mnist_fc` at 0.44 V come from one observed evaluation:
//! the evaluator reports every stage of every trial, and the harness keeps
//! them all.
//!
//! Each section is one function that measures and returns its own JSON
//! rows, so every metric name is written once, where it is measured, and
//! [`run_mc_bench`] assembles them into the `BENCH_mc.json` document
//! committed at the repo root (see EXPERIMENTS.md, "Benchmark workflow").
//! The `bench_mc` binary writes that document, and `tests/perf_smoke.rs`
//! gates the headline generation speedup, the sweep wall clock and the
//! presence of every section.

use crate::json::{object, Value};
use dante::accuracy::{AccuracyEvaluator, VoltageAssignment};
use dante::artifacts::{trained_cifar_cnn, trained_mnist_fc};
use dante::retrain::{RetrainEvent, RetrainSpec};
use dante::sweep::NetworkSpec;
use dante_accel::chip::ChipConfig;
use dante_accel::executor::{BoostSchedule, Dante};
use dante_accel::program::Program;
use dante_circuit::units::Volt;
use dante_nn::layers::{Dense, Layer, Relu};
use dante_nn::network::Network;
use dante_sim::observer::TrialObserver;
use dante_sim::seed::{derive_seed, site};
use dante_sram::fault::VminFaultModel;
use dante_sram::model::{DieFaultModel, FaultModel, SummaryScratch};
use dante_sram::sparse::SparseCell;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::num::NonZeroUsize;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Overlay size for the generation benchmark: one 4 Mbit bit image, the
/// paper's SRAM test-array scale.
pub const OVERLAY_BITS: usize = 4 * 1024 * 1024;

/// Environment variable selecting quick mode (`=1`): smaller sample
/// counts and Monte-Carlo scale, suitable for CI smoke runs.
pub const QUICK_ENV: &str = "DANTE_BENCH_QUICK";

/// Environment variable overriding the output path of the `bench_mc`
/// binary (default `BENCH_mc.json` in the current directory).
pub const OUT_ENV: &str = "DANTE_BENCH_OUT";

/// Every size that differs between a quick and a full run. Seeds,
/// iteration counts and the other voltages are spelled where they are
/// measured.
struct Scale {
    /// Timed samples of every [`Timing::measure`] row but retraining's.
    samples: usize,
    /// Trials of the `mnist_fc` evaluations: the stage rows, the sweep and
    /// the engine-scaling rows.
    trials: usize,
    /// `trained_mnist_fc(train_n, test_n, epochs)`.
    mnist_fc: (usize, usize, usize),
    /// `trained_cifar_cnn(train_n, test_n, epochs)`.
    cifar_cnn: (usize, usize, usize),
    /// Trials of the `cifar_cnn` forward-pass row.
    cnn_trials: usize,
    /// Sweep voltages `first + step * i` for `i` in `0..points`:
    /// `(first, step, points)`, volts.
    sweep: (f64, f64, u32),
    /// Timed runs of the retraining row.
    retrain_runs: usize,
    /// The retraining row's spec.
    retrain: fn() -> RetrainSpec,
}

/// The CI smoke scale.
const QUICK: Scale = Scale {
    samples: 3,
    trials: 6,
    mnist_fc: (2_000, 200, 2),
    cifar_cnn: (300, 60, 1),
    cnn_trials: 3,
    sweep: (0.38, 0.06, 3),
    retrain_runs: 3,
    retrain: RetrainSpec::toy_default,
};

/// The scale behind the committed `BENCH_mc.json`.
const FULL: Scale = Scale {
    samples: 5,
    trials: 20,
    mnist_fc: (5_000, 1_000, 4),
    cifar_cnn: (2_000, 400, 4),
    cnn_trials: 10,
    sweep: (0.36, 0.02, 9),
    retrain_runs: 10,
    retrain: retrain_harden_spec,
};

impl Scale {
    /// The one place a run's scale is chosen.
    fn of(quick: bool) -> &'static Self {
        if quick {
            &QUICK
        } else {
            &FULL
        }
    }
}

/// Wall-time statistics of one benchmarked operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    /// Number of timed samples (after one untimed warmup).
    pub samples: usize,
    /// Mean nanoseconds per operation.
    pub mean_ns: f64,
    /// Fastest sample, nanoseconds per operation.
    pub min_ns: f64,
    /// Slowest sample, nanoseconds per operation.
    pub max_ns: f64,
}

impl Timing {
    /// Times `samples` batches of `iters` calls to `op` (one untimed
    /// warmup call first) and reports per-call statistics.
    ///
    /// # Panics
    ///
    /// Panics if `samples` or `iters` is zero.
    pub fn measure<F: FnMut()>(samples: usize, iters: usize, mut op: F) -> Self {
        assert!(
            samples > 0 && iters > 0,
            "need at least one sample and iter"
        );
        op();
        let mut per_call = Vec::with_capacity(samples);
        for _ in 0..samples {
            let t0 = Instant::now();
            for _ in 0..iters {
                op();
            }
            per_call.push(t0.elapsed().as_secs_f64() * 1e9 / iters as f64);
        }
        Self::from_samples(&per_call)
    }

    /// Statistics of per-call times already taken, in nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `per_call` is empty.
    #[must_use]
    pub fn from_samples(per_call: &[f64]) -> Self {
        assert!(!per_call.is_empty(), "need at least one sample");
        let mean = per_call.iter().sum::<f64>() / per_call.len() as f64;
        let min = per_call.iter().copied().fold(f64::INFINITY, f64::min);
        let max = per_call.iter().copied().fold(0.0f64, f64::max);
        Self {
            samples: per_call.len(),
            mean_ns: mean,
            min_ns: min,
            max_ns: max,
        }
    }

    fn to_json(&self) -> Value {
        object([
            ("samples", Value::Number(self.samples as f64)),
            ("mean_ns", Value::Number(self.mean_ns)),
            ("min_ns", Value::Number(self.min_ns)),
            ("max_ns", Value::Number(self.max_ns)),
        ])
    }
}

/// The dense per-cell die the `dense` generation row times: one Gaussian
/// V_min per cell, then one read-flip decision per cell, packed into
/// words, all on `StdRng::seed_from_u64(seed)`. Returns `(vmins, flips)`.
///
/// This is a private copy of the test oracle
/// `dante_verify::dense::FaultOverlay::from_seed`, because `dante-verify`
/// depends on this crate. A test there pins the two to the same V_mins and
/// flip words.
#[must_use]
pub fn dense_die(bits: usize, model: &VminFaultModel, seed: u64) -> (Vec<f32>, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let normal = Normal::new(model.mu().volts(), model.sigma().volts())
        .expect("validated sigma is positive");
    let vmins = (0..bits).map(|_| normal.sample(&mut rng) as f32).collect();
    let p = model.read_flip_probability();
    let mut flips = vec![0u64; bits.div_ceil(64)];
    for (idx, word) in flips.iter_mut().enumerate() {
        for bit in 0..64 {
            if idx * 64 + bit < bits && rng.gen_bool(p) {
                *word |= 1 << bit;
            }
        }
    }
    (vmins, flips)
}

/// One `generation` row: overlay generation for a 4 Mbit image at floor
/// voltage `v`, timed with the quick or the full run's sample count. The
/// `dense` draw is [`dense_die`]; the `sparse` one samples the same
/// Gaussian die's V_min-bearing cells with
/// [`DieFaultModel::sample_cells_into`] into reused buffers; `speedup` is
/// the mean dense time over the mean sparse time.
///
/// Sparse iteration counts scale with the expected faulty-cell count so
/// microsecond-scale draws still get millisecond-scale timed batches.
#[must_use]
pub fn generation_bench(v: Volt, quick: bool) -> Value {
    let model = VminFaultModel::default_14nm();
    let samples = Scale::of(quick).samples;
    let mut seed = 0u64;
    let dense = Timing::measure(samples, 1, || {
        seed += 1;
        black_box(dense_die(OVERLAY_BITS, &model, seed));
    });
    let expected_faults = OVERLAY_BITS as f64 * model.bit_error_rate(v);
    let iters = if expected_faults < 1_000.0 { 256 } else { 4 };
    let mut indices: Vec<u64> = Vec::new();
    let mut cells: Vec<SparseCell> = Vec::new();
    let die = DieFaultModel::Gaussian(model);
    let mut seed = 0u64;
    let sparse = Timing::measure(samples, iters, || {
        seed += 1;
        die.sample_cells_into(OVERLAY_BITS, v, seed, &mut indices, &mut cells);
        black_box(cells.len());
    });
    object([
        ("v_volts", Value::Number(v.volts())),
        ("bits", Value::Number(OVERLAY_BITS as f64)),
        ("speedup", Value::Number(dense.mean_ns / sparse.mean_ns)),
        ("dense", dense.to_json()),
        ("sparse", sparse.to_json()),
    ])
}

/// Sampling floor of the fleet-die rows: the lowest grid voltage of a
/// default fleet request.
pub const FLEET_FLOOR_MV: u32 = 500;

/// The `fleet` rows: one die of every fault model at 4 Mbit and
/// [`FLEET_FLOOR_MV`], each die on its own `FLEET_DIE` seed as `FleetSpec`
/// draws them, on one thread. A die is profile resolution plus
/// [`DieFaultModel::summary_at_floor`] into reused buffers; `model` is
/// spelled as in `bench_e2e`'s `fleet.die_us.*` metrics.
fn fleet(samples: usize) -> Value {
    let floor = Volt::from_millivolts(f64::from(FLEET_FLOOR_MV));
    let rows = [
        ("gaussian", FaultModel::gaussian_default()),
        ("chip_variation", FaultModel::chip_variation_default()),
        ("correlated_burst", FaultModel::burst_default()),
    ]
    .into_iter()
    .map(|(model, spec)| {
        let mut scratch = SummaryScratch::default();
        let mut die_index = 0u64;
        let die = Timing::measure(samples, 64, || {
            die_index += 1;
            let seed = derive_seed(0xF1EE7, site::FLEET_DIE, die_index);
            let summary =
                spec.resolve_die(seed)
                    .summary_at_floor(OVERLAY_BITS, floor, seed, &mut scratch);
            black_box(summary);
        });
        object([
            ("model", Value::String(model.into())),
            ("bits", Value::Number(OVERLAY_BITS as f64)),
            ("v_volts", Value::Number(floor.volts())),
            ("us_per_die", Value::Number(die.mean_ns / 1e3)),
            ("die", die.to_json()),
        ])
    });
    Value::Array(rows.collect())
}

/// Collects the evaluator's per-trial durations, by stage name.
#[derive(Debug, Default)]
struct StageCollector {
    durations: Mutex<BTreeMap<&'static str, Vec<Duration>>>,
}

impl TrialObserver for StageCollector {
    fn on_stage(&self, stage: &'static str, elapsed: Duration) {
        self.durations
            .lock()
            .expect("collector mutex poisoned")
            .entry(stage)
            .or_default()
            .push(elapsed);
    }
}

impl StageCollector {
    /// Mean per-trial duration of `stage`, nanoseconds.
    fn mean_ns(&self, stage: &str) -> f64 {
        let durations = self.durations.lock().expect("collector mutex poisoned");
        let durations = durations
            .get(stage)
            .unwrap_or_else(|| panic!("evaluator reported no {stage} stages"));
        durations.iter().map(|d| d.as_secs_f64() * 1e9).sum::<f64>() / durations.len() as f64
    }
}

/// Seed of the stage and engine-scaling evaluations.
const STAGE_SEED: u64 = 0xC0DE;

/// Times both evaluator stages of one observed `trials`-trial evaluation
/// of `net`, the model named `network`, at uniform voltage `v`. Returns
/// the `per_trial_corruption` object (the mean `"corrupt"` stage) and the
/// `forward_pass` row (the mean `"inference"` stage of the same trials and
/// its throughput in scored images per second).
///
/// The voltage sets how much the incremental forward pass can skip: at
/// the cliff (0.44 V) nearly every weight word is touched and the cost is
/// mostly the tiled GEMM; in the deep tail (0.54 V) only a handful of
/// words flip and the incremental re-scoring dominates.
fn stages(
    net: &Network,
    network: &str,
    images: &[f32],
    labels: &[u8],
    trials: usize,
    v: Volt,
) -> (Value, Value) {
    let layers = net.weight_layer_indices().len();
    let collector = StageCollector::default();
    let _ = AccuracyEvaluator::new(trials).evaluate_observed(
        net,
        &VoltageAssignment::uniform(v, layers),
        images,
        labels,
        STAGE_SEED,
        &collector,
    );
    let corruption = object([
        ("v_volts", Value::Number(v.volts())),
        ("trials", Value::Number(trials as f64)),
        ("corrupt_ns", Value::Number(collector.mean_ns("corrupt"))),
    ]);
    let inference_ns = collector.mean_ns("inference");
    let forward_pass = object([
        ("network", Value::String(network.into())),
        ("v_volts", Value::Number(v.volts())),
        ("trials", Value::Number(trials as f64)),
        ("test_images", Value::Number(labels.len() as f64)),
        ("inference_ns", Value::Number(inference_ns)),
        (
            "images_per_sec",
            Value::Number(labels.len() as f64 / (inference_ns * 1e-9)),
        ),
    ]);
    (corruption, forward_pass)
}

/// The `accuracy_sweep` object: the wall clock of one mean-accuracy
/// evaluation of `net` per sweep voltage, and those accuracies.
fn accuracy_sweep(net: &Network, images: &[f32], labels: &[u8], scale: &Scale) -> Value {
    let (first, step, points) = scale.sweep;
    let voltages: Vec<Volt> = (0..points)
        .map(|i| Volt::new(first + step * f64::from(i)))
        .collect();
    let layers = net.weight_layer_indices().len();
    let eval = AccuracyEvaluator::new(scale.trials);
    let t0 = Instant::now();
    let accuracy = voltages
        .iter()
        .map(|&v| {
            let assignment = VoltageAssignment::uniform(v, layers);
            Value::Number(
                eval.evaluate(net, &assignment, images, labels, 0x000F_1BE0)
                    .mean(),
            )
        })
        .collect();
    let seconds = t0.elapsed().as_secs_f64();
    object([
        (
            "voltages",
            Value::Array(voltages.iter().map(|v| Value::Number(v.volts())).collect()),
        ),
        ("trials", Value::Number(scale.trials as f64)),
        ("test_images", Value::Number(labels.len() as f64)),
        ("seconds", Value::Number(seconds)),
        ("accuracy", Value::Array(accuracy)),
    ])
}

/// The machine's available parallelism (1 if unknown).
fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Worker counts of the engine-scaling rows: 1, 2, 4 and the machine's
/// available parallelism, ascending without repeats.
fn scaling_thread_counts() -> Vec<usize> {
    let cores = available_parallelism();
    let mut counts = vec![1, 2, 4];
    if cores > 4 {
        counts.push(cores);
    }
    counts
}

/// The `engine_scaling` rows: one whole `trials`-trial evaluation of `net`
/// at uniform voltage `v` for each of [`scaling_thread_counts`], with its
/// speedup, the mean one-worker time over the row's mean time.
///
/// # Panics
///
/// Panics unless every worker count returns the one-worker per-trial
/// accuracies bit for bit: the trial engine's determinism contract.
fn engine_scaling(
    net: &Network,
    images: &[f32],
    labels: &[u8],
    trials: usize,
    v: Volt,
    samples: usize,
) -> Value {
    let assignment = VoltageAssignment::uniform(v, net.weight_layer_indices().len());
    let mut serial: Option<(f64, Vec<u64>)> = None;
    let rows = scaling_thread_counts().into_iter().map(|threads| {
        let eval = AccuracyEvaluator::new(trials).with_threads(threads);
        let mut per_trial = Vec::new();
        let evaluate = Timing::measure(samples, 1, || {
            per_trial = eval
                .evaluate(net, &assignment, images, labels, STAGE_SEED)
                .per_trial;
        });
        let bits: Vec<u64> = per_trial.iter().map(|a| a.to_bits()).collect();
        let (serial_ns, serial_bits) =
            serial.get_or_insert_with(|| (evaluate.mean_ns, bits.clone()));
        assert!(
            bits == *serial_bits,
            "{threads} workers changed the per-trial accuracies"
        );
        object([
            ("threads", Value::Number(threads as f64)),
            ("v_volts", Value::Number(v.volts())),
            ("trials", Value::Number(trials as f64)),
            ("test_images", Value::Number(labels.len() as f64)),
            ("speedup", Value::Number(*serial_ns / evaluate.mean_ns)),
            ("evaluate", evaluate.to_json()),
        ])
    });
    Value::Array(rows.collect())
}

/// Supply of the accelerator-inference row, volts.
const ACCEL_VDD: f64 = 0.40;

/// The `accel_inference` object: `Dante::run` of a seeded 64-64-10 dense
/// program on one chip at [`ACCEL_VDD`], every weight layer at boost level
/// 4 and the inputs at level 1 (`BoostSchedule::uniform(4, 2, 1)`).
fn accel_inference(samples: usize) -> Value {
    let mut rng = StdRng::seed_from_u64(0);
    let net = Network::new(vec![
        Layer::Dense(Dense::new(64, 64, &mut rng)),
        Layer::Relu(Relu::new(64)),
        Layer::Dense(Dense::new(64, 10, &mut rng)),
    ])
    .expect("static shapes");
    let sample: Vec<f32> = (0..64).map(|i| i as f32 / 64.0).collect();
    let program = Program::compile(&net, &sample).expect("dense network compiles");
    let mut chip = Dante::new(
        ChipConfig::dante(),
        &FaultModel::default(),
        Volt::new(ACCEL_VDD),
        0,
    );
    let schedule = BoostSchedule::uniform(4, 2, 1);
    let inference = Timing::measure(samples, 64, || {
        black_box(chip.run(&program, &schedule, &sample));
    });
    object([
        ("v_volts", Value::Number(ACCEL_VDD)),
        ("inference", inference.to_json()),
    ])
}

/// The retraining spec of the `retrain_harden` service workload, with
/// every field the request leaves out at the service's default.
fn retrain_harden_spec() -> RetrainSpec {
    RetrainSpec {
        network: NetworkSpec::MnistFc {
            train_n: 1200,
            test_n: 100,
            epochs: 4,
        },
        target_mv: 460,
        epochs: 1,
        trials: 2,
        voltages_mv: (400..=560).step_by(40).collect(),
        ..RetrainSpec::toy_default()
    }
}

/// The `retrain` object: whole `RetrainSpec::run_observed` calls of the
/// scale's spec (`network` is its canonical token, `toy` at quick scale),
/// and within each timed run every epoch from its `EpochStart` to its
/// `EpochDone` event.
fn retrain(scale: &Scale) -> Value {
    let spec = (scale.retrain)();
    let mut epoch_ns = Vec::new();
    let run = Timing::measure(scale.retrain_runs, 1, || {
        let mut started = None;
        black_box(spec.run_observed(&mut |event| match event {
            RetrainEvent::EpochStart { .. } => started = Some(Instant::now()),
            RetrainEvent::EpochDone { .. } => {
                let start = started.take().expect("an epoch starts before it ends");
                epoch_ns.push(start.elapsed().as_secs_f64() * 1e9);
            }
        }));
    });
    // The warmup run's epochs are not timed samples.
    let epoch = Timing::from_samples(&epoch_ns[spec.epochs..]);
    object([
        ("network", Value::String(spec.network.canonical_token())),
        ("target_mv", Value::Number(f64::from(spec.target_mv))),
        ("epochs", Value::Number(spec.epochs as f64)),
        ("trials", Value::Number(spec.trials as f64)),
        ("run", run.to_json()),
        ("epoch", epoch.to_json()),
    ])
}

/// Runs every section and assembles the `BENCH_mc.json` document.
///
/// Quick mode shrinks sample counts and the Monte-Carlo scale so the suite
/// finishes in seconds for CI smoke runs; full mode is the scale behind the
/// committed `BENCH_mc.json`.
#[must_use]
pub fn run_mc_bench(quick: bool) -> Value {
    let scale = Scale::of(quick);
    // Generation: the headline ≥100x claim lives at 0.54 V (deep tail,
    // a handful of faulty cells); 0.44 V shows the cliff-region balance.
    let generation = [0.54, 0.44].map(|v| generation_bench(Volt::new(v), quick));

    let (train_n, test_n, epochs) = scale.mnist_fc;
    let (net, test) = trained_mnist_fc(train_n, test_n, epochs);
    let (images, labels) = (test.images(), test.labels());
    // Cliff (everything dirty: the pure-GEMM cost) and deep tail (a
    // handful of flips: the incremental path), matching the generation
    // bench's two regimes. The cliff evaluation also gives the corruption
    // row.
    let v_cliff = Volt::new(0.44);
    let (corruption, cliff_pass) = stages(&net, "mnist_fc", images, labels, scale.trials, v_cliff);
    let (_, tail_pass) = stages(
        &net,
        "mnist_fc",
        images,
        labels,
        scale.trials,
        Volt::new(0.54),
    );
    // Fig. 14's CNN proxy at the cliff, where every trial re-scores the
    // whole test set through both convolutions.
    let (train_n, test_n, epochs) = scale.cifar_cnn;
    let (cnn, cnn_test) = trained_cifar_cnn(train_n, test_n, epochs);
    let (_, cnn_pass) = stages(
        &cnn,
        "cifar_cnn",
        cnn_test.images(),
        cnn_test.labels(),
        scale.cnn_trials,
        v_cliff,
    );

    object([
        ("bench", Value::String("mc".into())),
        ("quick", Value::Bool(quick)),
        // The stage rows, the sweep and `engine_scaling` depend on it.
        (
            "available_parallelism",
            Value::Number(available_parallelism() as f64),
        ),
        ("generation", Value::Array(generation.into())),
        ("per_trial_corruption", corruption),
        (
            "forward_pass",
            Value::Array(vec![cliff_pass, tail_pass, cnn_pass]),
        ),
        (
            "accuracy_sweep",
            accuracy_sweep(&net, images, labels, scale),
        ),
        ("fleet", fleet(scale.samples)),
        (
            "engine_scaling",
            engine_scaling(&net, images, labels, scale.trials, v_cliff, scale.samples),
        ),
        ("accel_inference", accel_inference(scale.samples)),
        ("retrain", retrain(scale)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The number at the dotted `path` below `row`.
    fn number(row: &Value, path: &str) -> f64 {
        path.split('.')
            .try_fold(row, |v, key| v.get(key))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("no number at {path}"))
    }

    fn rows(value: &Value) -> &[Value] {
        value.as_array().expect("an array of rows")
    }

    #[test]
    fn timing_measure_reports_consistent_stats() {
        let t = Timing::measure(4, 10, || {
            black_box((0..100).sum::<u64>());
        });
        assert_eq!(t.samples, 4);
        assert!(t.min_ns <= t.mean_ns && t.mean_ns <= t.max_ns);
        assert!(t.min_ns > 0.0);
    }

    #[test]
    fn fleet_rows_time_every_fault_model() {
        let fleet = fleet(QUICK.samples);
        let models: Vec<&str> = rows(&fleet)
            .iter()
            .map(|r| r.get("model").and_then(Value::as_str).expect("model"))
            .collect();
        assert_eq!(models, ["gaussian", "chip_variation", "correlated_burst"]);
        assert!(rows(&fleet).iter().all(|r| number(r, "us_per_die") > 0.0));
    }

    #[test]
    fn stages_time_both_stages_of_one_evaluation() {
        // A tiny trained net: the point is positive stage timings over the
        // requested trial count, not their size (the sweep wall clock is
        // gated at full scale in perf_smoke).
        let (net, test) = trained_mnist_fc(400, 64, 1);
        let (corruption, pass) = stages(
            &net,
            "mnist_fc",
            test.images(),
            test.labels(),
            3,
            Volt::new(0.44),
        );
        assert_eq!(
            (number(&corruption, "trials"), number(&pass, "trials")),
            (3.0, 3.0)
        );
        assert_eq!(number(&corruption, "v_volts"), number(&pass, "v_volts"));
        assert_eq!(
            pass.get("network").and_then(Value::as_str),
            Some("mnist_fc")
        );
        assert_eq!(number(&pass, "test_images"), 64.0);
        assert!(number(&corruption, "corrupt_ns") > 0.0);
        assert!(number(&pass, "inference_ns") > 0.0);
        assert!(number(&pass, "images_per_sec") > 0.0);
    }

    #[test]
    fn engine_scaling_rows_start_at_one_worker() {
        let (net, test) = trained_mnist_fc(400, 64, 1);
        let scaling = engine_scaling(
            &net,
            test.images(),
            test.labels(),
            3,
            Volt::new(0.44),
            QUICK.samples,
        );
        let rows = rows(&scaling);
        let threads: Vec<usize> = rows.iter().map(|r| number(r, "threads") as usize).collect();
        assert_eq!(threads, scaling_thread_counts());
        assert_eq!(threads[..3], [1, 2, 4]);
        assert!(threads.windows(2).all(|w| w[0] < w[1]), "{threads:?}");
        assert_eq!(number(&rows[0], "speedup"), 1.0);
        assert!(rows
            .iter()
            .all(|r| number(r, "evaluate.mean_ns") > 0.0 && number(r, "speedup").is_finite()));
    }

    #[test]
    fn retrain_times_every_epoch_of_the_timed_runs() {
        let row = retrain(&QUICK);
        let spec = RetrainSpec::toy_default();
        assert_eq!(row.get("network").and_then(Value::as_str), Some("toy"));
        assert_eq!(
            (number(&row, "target_mv"), number(&row, "epochs")),
            (f64::from(spec.target_mv), spec.epochs as f64)
        );
        assert_eq!(number(&row, "run.samples"), 3.0);
        assert_eq!(number(&row, "epoch.samples"), (3 * spec.epochs) as f64);
        let epoch_ns = number(&row, "epoch.mean_ns");
        assert!(epoch_ns > 0.0 && epoch_ns < number(&row, "run.mean_ns"));
    }

    #[test]
    fn accel_inference_times_the_boosted_program() {
        let row = accel_inference(QUICK.samples);
        assert_eq!(number(&row, "v_volts"), ACCEL_VDD);
        assert!(number(&row, "inference.mean_ns") > 0.0);
    }
}
