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
//!    second.
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
//! Rows 2 and 3 at 0.44 V come from one observed evaluation: the evaluator
//! reports every stage of every trial, and the harness keeps them all.
//!
//! The report serializes to the machine-readable `BENCH_mc.json` committed
//! at the repo root (see EXPERIMENTS.md, "Benchmark workflow"); the
//! `bench_mc` binary regenerates it and `tests/perf_smoke.rs` gates the
//! headline generation speedup, the sweep wall clock and the presence of
//! every section.

use crate::json::Value;
use dante::accuracy::{AccuracyEvaluator, VoltageAssignment};
use dante::artifacts::trained_mnist_fc;
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
        let mut map = BTreeMap::new();
        map.insert("samples".into(), Value::Number(self.samples as f64));
        map.insert("mean_ns".into(), Value::Number(self.mean_ns));
        map.insert("min_ns".into(), Value::Number(self.min_ns));
        map.insert("max_ns".into(), Value::Number(self.max_ns));
        Value::Object(map)
    }
}

/// Dense-vs-sparse overlay generation at one floor voltage.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationBench {
    /// The sampling-floor voltage, volts.
    pub v_volts: f64,
    /// Covered bits (always [`OVERLAY_BITS`]).
    pub bits: usize,
    /// Dense per-cell Gaussian draw ([`dense_die`]).
    pub dense: Timing,
    /// Sparse tail sampling of the same Gaussian die into reused buffers:
    /// V_min-bearing cells from [`DieFaultModel::sample_cells_into`].
    pub sparse: Timing,
}

impl GenerationBench {
    /// Mean dense time over mean sparse time.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.dense.mean_ns / self.sparse.mean_ns
    }

    fn to_json(&self) -> Value {
        let mut map = BTreeMap::new();
        map.insert("v_volts".into(), Value::Number(self.v_volts));
        map.insert("bits".into(), Value::Number(self.bits as f64));
        map.insert("dense".into(), self.dense.to_json());
        map.insert("sparse".into(), self.sparse.to_json());
        map.insert("speedup".into(), Value::Number(self.speedup()));
        Value::Object(map)
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

/// Times overlay generation for a 4 Mbit image at floor voltage `v`.
///
/// Sparse iteration counts scale with the expected faulty-cell count so
/// microsecond-scale draws still get millisecond-scale timed batches.
#[must_use]
pub fn generation_bench(v: Volt, quick: bool) -> GenerationBench {
    let model = VminFaultModel::default_14nm();
    let samples = if quick { 3 } else { 5 };
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
    GenerationBench {
        v_volts: v.volts(),
        bits: OVERLAY_BITS,
        dense,
        sparse,
    }
}

/// Sampling floor of the fleet-die rows: the lowest grid voltage of a
/// default fleet request.
pub const FLEET_FLOOR_MV: u32 = 500;

/// Per-die cost of one fault model's fleet dies.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetDieBench {
    /// The fault model, spelled as in `bench_e2e`'s `fleet.die_us.*`
    /// metrics.
    pub model: &'static str,
    /// Cells per die (always [`OVERLAY_BITS`]).
    pub bits: usize,
    /// The sampling floor, volts.
    pub v_volts: f64,
    /// One die: profile resolution plus
    /// [`DieFaultModel::summary_at_floor`], into reused buffers.
    pub die: Timing,
}

impl FleetDieBench {
    /// Mean microseconds per die.
    #[must_use]
    pub fn us_per_die(&self) -> f64 {
        self.die.mean_ns / 1e3
    }

    fn to_json(&self) -> Value {
        let mut map = BTreeMap::new();
        map.insert("model".into(), Value::String(self.model.into()));
        map.insert("bits".into(), Value::Number(self.bits as f64));
        map.insert("v_volts".into(), Value::Number(self.v_volts));
        map.insert("die".into(), self.die.to_json());
        map.insert("us_per_die".into(), Value::Number(self.us_per_die()));
        Value::Object(map)
    }
}

/// Times fleet dies of every fault model at 4 Mbit and
/// [`FLEET_FLOOR_MV`], each die on its own `FLEET_DIE` seed as
/// `FleetSpec` draws them, on one thread.
#[must_use]
pub fn fleet_die_bench(quick: bool) -> Vec<FleetDieBench> {
    let floor = Volt::from_millivolts(f64::from(FLEET_FLOOR_MV));
    let samples = if quick { 3 } else { 5 };
    [
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
        FleetDieBench {
            model,
            bits: OVERLAY_BITS,
            v_volts: floor.volts(),
            die,
        }
    })
    .collect()
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

/// Mean per-trial corruption time of the accuracy evaluator at one uniform
/// voltage.
#[derive(Debug, Clone, PartialEq)]
pub struct CorruptionBench {
    /// The uniform evaluation voltage, volts.
    pub v_volts: f64,
    /// Trials timed.
    pub trials: usize,
    /// Mean `"corrupt"` stage, nanoseconds.
    pub corrupt_ns: f64,
}

impl CorruptionBench {
    fn to_json(&self) -> Value {
        let mut map = BTreeMap::new();
        map.insert("v_volts".into(), Value::Number(self.v_volts));
        map.insert("trials".into(), Value::Number(self.trials as f64));
        map.insert("corrupt_ns".into(), Value::Number(self.corrupt_ns));
        Value::Object(map)
    }
}

/// Per-trial forward-pass (`"inference"` stage) timing of the accuracy
/// evaluator at one uniform voltage.
#[derive(Debug, Clone, PartialEq)]
pub struct ForwardPassBench {
    /// The uniform evaluation voltage, volts.
    pub v_volts: f64,
    /// Trials timed.
    pub trials: usize,
    /// Test images scored per trial.
    pub test_images: usize,
    /// Mean `"inference"` stage, nanoseconds.
    pub inference_ns: f64,
}

impl ForwardPassBench {
    /// Forward-pass throughput, scored images per second.
    #[must_use]
    pub fn images_per_sec(&self) -> f64 {
        self.test_images as f64 / (self.inference_ns * 1e-9)
    }

    fn to_json(&self) -> Value {
        let mut map = BTreeMap::new();
        map.insert("v_volts".into(), Value::Number(self.v_volts));
        map.insert("trials".into(), Value::Number(self.trials as f64));
        map.insert("test_images".into(), Value::Number(self.test_images as f64));
        map.insert("inference_ns".into(), Value::Number(self.inference_ns));
        map.insert(
            "images_per_sec".into(),
            Value::Number(self.images_per_sec()),
        );
        Value::Object(map)
    }
}

/// Seed of the stage and engine-scaling evaluations.
const STAGE_SEED: u64 = 0xC0DE;

/// Times both evaluator stages of one observed `trials`-trial evaluation
/// at uniform voltage `v`: the `"corrupt"` stage and the `"inference"`
/// stage of the same trials.
///
/// The voltage sets how much the incremental forward pass can skip: at
/// the cliff (0.44 V) nearly every weight word is touched and the cost is
/// mostly the tiled GEMM; in the deep tail (0.54 V) only a handful of
/// words flip and the incremental re-scoring dominates.
#[must_use]
fn stage_bench(
    net: &Network,
    images: &[f32],
    labels: &[u8],
    trials: usize,
    v: Volt,
) -> (CorruptionBench, ForwardPassBench) {
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
    let corruption = CorruptionBench {
        v_volts: v.volts(),
        trials,
        corrupt_ns: collector.mean_ns("corrupt"),
    };
    let forward_pass = ForwardPassBench {
        v_volts: v.volts(),
        trials,
        test_images: labels.len(),
        inference_ns: collector.mean_ns("inference"),
    };
    (corruption, forward_pass)
}

/// One worker count's wall time for a whole Monte-Carlo evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineScalingBench {
    /// Trial-engine workers.
    pub threads: usize,
    /// The uniform evaluation voltage, volts.
    pub v_volts: f64,
    /// Trials per evaluation.
    pub trials: usize,
    /// Test images scored per trial.
    pub test_images: usize,
    /// One `AccuracyEvaluator::evaluate` call.
    pub evaluate: Timing,
    /// Mean one-worker time over this row's mean time.
    pub speedup: f64,
}

impl EngineScalingBench {
    fn to_json(&self) -> Value {
        let mut map = BTreeMap::new();
        map.insert("threads".into(), Value::Number(self.threads as f64));
        map.insert("v_volts".into(), Value::Number(self.v_volts));
        map.insert("trials".into(), Value::Number(self.trials as f64));
        map.insert("test_images".into(), Value::Number(self.test_images as f64));
        map.insert("evaluate".into(), self.evaluate.to_json());
        map.insert("speedup".into(), Value::Number(self.speedup));
        Value::Object(map)
    }
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

/// Times one `trials`-trial evaluation at uniform voltage `v` for each of
/// [`scaling_thread_counts`].
///
/// # Panics
///
/// Panics unless every worker count returns the one-worker per-trial
/// accuracies bit for bit: the trial engine's determinism contract.
fn engine_scaling_bench(
    net: &Network,
    images: &[f32],
    labels: &[u8],
    trials: usize,
    v: Volt,
    quick: bool,
) -> Vec<EngineScalingBench> {
    let samples = if quick { 3 } else { 5 };
    let assignment = VoltageAssignment::uniform(v, net.weight_layer_indices().len());
    let mut serial: Option<(f64, Vec<u64>)> = None;
    scaling_thread_counts()
        .into_iter()
        .map(|threads| {
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
            EngineScalingBench {
                threads,
                v_volts: v.volts(),
                trials,
                test_images: labels.len(),
                speedup: *serial_ns / evaluate.mean_ns,
                evaluate,
            }
        })
        .collect()
}

/// Supply of the accelerator-inference row, volts.
const ACCEL_VDD: f64 = 0.40;

/// One bit-accurate boosted inference on the Dante chip simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct AccelInferenceBench {
    /// Chip supply, volts.
    pub v_volts: f64,
    /// One `Dante::run`, nanoseconds per inference.
    pub inference: Timing,
}

impl AccelInferenceBench {
    fn to_json(&self) -> Value {
        let mut map = BTreeMap::new();
        map.insert("v_volts".into(), Value::Number(self.v_volts));
        map.insert("inference".into(), self.inference.to_json());
        Value::Object(map)
    }
}

/// Times `Dante::run` of a seeded 64-64-10 dense program on one chip at
/// [`ACCEL_VDD`], every weight layer at boost level 4 and the inputs at
/// level 1 (`BoostSchedule::uniform(4, 2, 1)`).
fn accel_inference_bench(quick: bool) -> AccelInferenceBench {
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
    let inference = Timing::measure(if quick { 3 } else { 5 }, 64, || {
        black_box(chip.run(&program, &schedule, &sample));
    });
    AccelInferenceBench {
        v_volts: ACCEL_VDD,
        inference,
    }
}

/// One retraining run and its epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct RetrainBench {
    /// The network's canonical token (`mnist_fc(...)`, or `toy` at quick
    /// scale).
    pub network: String,
    /// Training-time logic-rail voltage, millivolts.
    pub target_mv: u32,
    /// Fine-tuning epochs per run.
    pub epochs: usize,
    /// Monte-Carlo dies per comparison point.
    pub trials: usize,
    /// One whole `RetrainSpec::run`: load, train, both iso solves.
    pub run: Timing,
    /// One epoch, from `EpochStart` to `EpochDone`.
    pub epoch: Timing,
}

impl RetrainBench {
    fn to_json(&self) -> Value {
        let mut map = BTreeMap::new();
        map.insert("network".into(), Value::String(self.network.clone()));
        map.insert("target_mv".into(), Value::Number(f64::from(self.target_mv)));
        map.insert("epochs".into(), Value::Number(self.epochs as f64));
        map.insert("trials".into(), Value::Number(self.trials as f64));
        map.insert("run".into(), self.run.to_json());
        map.insert("epoch".into(), self.epoch.to_json());
        Value::Object(map)
    }
}

/// The retraining spec of the `retrain_harden` service workload (the toy
/// default at quick scale), with every field the request leaves out at the
/// service's default.
fn retrain_spec(quick: bool) -> RetrainSpec {
    if quick {
        return RetrainSpec::toy_default();
    }
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

/// Times [`retrain_spec`]'s `RetrainSpec::run_observed`, and within each
/// timed run every epoch from its `EpochStart` to its `EpochDone` event.
fn retrain_bench(quick: bool) -> RetrainBench {
    let spec = retrain_spec(quick);
    let mut epoch_ns = Vec::new();
    let run = Timing::measure(if quick { 3 } else { 10 }, 1, || {
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
    RetrainBench {
        network: spec.network.canonical_token(),
        target_mv: spec.target_mv,
        epochs: spec.epochs,
        trials: spec.trials,
        run,
        epoch,
    }
}

/// End-to-end MNIST accuracy voltage sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepBench {
    /// Swept voltages, volts.
    pub voltages: Vec<f64>,
    /// Monte-Carlo trials per voltage.
    pub trials: usize,
    /// Test images per trial.
    pub test_images: usize,
    /// Wall clock of the whole sweep, seconds.
    pub seconds: f64,
    /// Mean accuracy per voltage.
    pub accuracy: Vec<f64>,
}

impl SweepBench {
    fn to_json(&self) -> Value {
        let numbers = |xs: &[f64]| Value::Array(xs.iter().map(|&x| Value::Number(x)).collect());
        let mut map = BTreeMap::new();
        map.insert("voltages".into(), numbers(&self.voltages));
        map.insert("trials".into(), Value::Number(self.trials as f64));
        map.insert("test_images".into(), Value::Number(self.test_images as f64));
        map.insert("seconds".into(), Value::Number(self.seconds));
        map.insert("accuracy".into(), numbers(&self.accuracy));
        Value::Object(map)
    }
}

/// The full Monte-Carlo benchmark report serialized to `BENCH_mc.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct McBenchReport {
    /// Whether the run used the quick (CI smoke) scale.
    pub quick: bool,
    /// The machine's available parallelism, which the multi-threaded rows
    /// (the stage rows, the sweep and `engine_scaling`) depend on.
    pub available_parallelism: usize,
    /// Overlay generation rows, one per floor voltage.
    pub generation: Vec<GenerationBench>,
    /// Per-trial corruption stage timing.
    pub corruption: CorruptionBench,
    /// Per-trial forward-pass stage timing, one row per voltage (cliff and
    /// tail).
    pub forward_pass: Vec<ForwardPassBench>,
    /// End-to-end accuracy sweep timing.
    pub sweep: SweepBench,
    /// Fleet-die cost, one row per fault model.
    pub fleet: Vec<FleetDieBench>,
    /// Whole-evaluation wall time, one row per trial-engine worker count.
    pub engine_scaling: Vec<EngineScalingBench>,
    /// One boosted inference on the chip simulator.
    pub accel_inference: AccelInferenceBench,
    /// One retraining run of the `retrain_harden` spec, and its epoch.
    pub retrain: RetrainBench,
}

impl McBenchReport {
    /// The report as a JSON value (the `BENCH_mc.json` schema).
    #[must_use]
    pub fn to_json(&self) -> Value {
        let mut map = BTreeMap::new();
        map.insert("bench".into(), Value::String("mc".into()));
        map.insert("quick".into(), Value::Bool(self.quick));
        map.insert(
            "available_parallelism".into(),
            Value::Number(self.available_parallelism as f64),
        );
        map.insert(
            "generation".into(),
            Value::Array(
                self.generation
                    .iter()
                    .map(GenerationBench::to_json)
                    .collect(),
            ),
        );
        map.insert("per_trial_corruption".into(), self.corruption.to_json());
        map.insert(
            "forward_pass".into(),
            Value::Array(
                self.forward_pass
                    .iter()
                    .map(ForwardPassBench::to_json)
                    .collect(),
            ),
        );
        map.insert("accuracy_sweep".into(), self.sweep.to_json());
        map.insert(
            "fleet".into(),
            Value::Array(self.fleet.iter().map(FleetDieBench::to_json).collect()),
        );
        map.insert(
            "engine_scaling".into(),
            Value::Array(
                self.engine_scaling
                    .iter()
                    .map(EngineScalingBench::to_json)
                    .collect(),
            ),
        );
        map.insert("accel_inference".into(), self.accel_inference.to_json());
        map.insert("retrain".into(), self.retrain.to_json());
        Value::Object(map)
    }

    /// Pretty-printed `BENCH_mc.json` content (trailing newline included).
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        let mut s = self.to_json().to_string_pretty();
        s.push('\n');
        s
    }
}

/// Runs the full benchmark suite.
///
/// Quick mode shrinks sample counts and the Monte-Carlo scale so the suite
/// finishes in well under a minute for CI smoke runs; full mode is the
/// scale behind the committed `BENCH_mc.json`.
#[must_use]
pub fn run_mc_bench(quick: bool) -> McBenchReport {
    // Generation: the headline ≥100x claim lives at 0.54 V (deep tail,
    // a handful of faulty cells); 0.44 V shows the cliff-region balance.
    let generation = vec![
        generation_bench(Volt::new(0.54), quick),
        generation_bench(Volt::new(0.44), quick),
    ];

    let (trials, train_n, test_n, epochs) = if quick {
        (6, 2_000, 200, 2)
    } else {
        (20, 5_000, 1_000, 4)
    };
    let (net, test) = trained_mnist_fc(train_n, test_n, epochs);
    let layers = net.weight_layer_indices().len();

    // Cliff (everything dirty: the pure-GEMM cost) and deep tail (a
    // handful of flips: the incremental path), matching the generation
    // bench's two regimes. The cliff evaluation also gives the corruption
    // row.
    let v_cliff = Volt::new(0.44);
    let (corruption, cliff_pass) = stage_bench(&net, test.images(), test.labels(), trials, v_cliff);
    let (_, tail_pass) = stage_bench(&net, test.images(), test.labels(), trials, Volt::new(0.54));
    let forward_pass = vec![cliff_pass, tail_pass];

    let voltages: Vec<Volt> = if quick {
        vec![Volt::new(0.38), Volt::new(0.44), Volt::new(0.50)]
    } else {
        (0..=8)
            .map(|i| Volt::new(0.36 + 0.02 * f64::from(i)))
            .collect()
    };
    let eval = AccuracyEvaluator::new(trials);
    let t0 = Instant::now();
    let accuracy = voltages
        .iter()
        .map(|&v| {
            eval.evaluate(
                &net,
                &VoltageAssignment::uniform(v, layers),
                test.images(),
                test.labels(),
                0x000F_1BE0,
            )
            .mean()
        })
        .collect();
    let sweep = SweepBench {
        voltages: voltages.iter().map(|v| v.volts()).collect(),
        trials,
        test_images: test.labels().len(),
        seconds: t0.elapsed().as_secs_f64(),
        accuracy,
    };

    let fleet = fleet_die_bench(quick);
    let engine_scaling =
        engine_scaling_bench(&net, test.images(), test.labels(), trials, v_cliff, quick);

    McBenchReport {
        quick,
        available_parallelism: available_parallelism(),
        generation,
        corruption,
        forward_pass,
        sweep,
        fleet,
        engine_scaling,
        accel_inference: accel_inference_bench(quick),
        retrain: retrain_bench(quick),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn generation_bench_meets_the_sparse_speedup_floor() {
        // The tentpole acceptance: at 0.54 V a 4 Mbit sparse draw must be
        // at least 100x faster than the dense per-cell draw.
        let row = generation_bench(Volt::new(0.54), true);
        assert!(
            row.speedup() >= 100.0,
            "sparse generation speedup {:.0}x below the 100x floor (dense {:.0} ns, sparse {:.0} ns)",
            row.speedup(),
            row.dense.mean_ns,
            row.sparse.mean_ns
        );
    }

    #[test]
    fn report_json_roundtrips_through_the_parser() {
        let report = McBenchReport {
            quick: true,
            available_parallelism: 2,
            generation: vec![GenerationBench {
                v_volts: 0.54,
                bits: OVERLAY_BITS,
                dense: Timing {
                    samples: 3,
                    mean_ns: 5e7,
                    min_ns: 4e7,
                    max_ns: 6e7,
                },
                sparse: Timing {
                    samples: 3,
                    mean_ns: 2e3,
                    min_ns: 1e3,
                    max_ns: 3e3,
                },
            }],
            corruption: CorruptionBench {
                v_volts: 0.44,
                trials: 6,
                corrupt_ns: 1e6,
            },
            forward_pass: vec![ForwardPassBench {
                v_volts: 0.44,
                trials: 6,
                test_images: 200,
                inference_ns: 1e8,
            }],
            sweep: SweepBench {
                voltages: vec![0.38, 0.44, 0.50],
                trials: 6,
                test_images: 200,
                seconds: 2.0,
                accuracy: vec![0.52, 0.79, 0.9],
            },
            fleet: vec![FleetDieBench {
                model: "gaussian",
                bits: OVERLAY_BITS,
                v_volts: 0.5,
                die: Timing {
                    samples: 3,
                    mean_ns: 8e3,
                    min_ns: 7e3,
                    max_ns: 9e3,
                },
            }],
            engine_scaling: [(1, 4e8), (2, 2.5e8)]
                .into_iter()
                .map(|(threads, mean_ns)| EngineScalingBench {
                    threads,
                    v_volts: 0.44,
                    trials: 6,
                    test_images: 200,
                    evaluate: Timing {
                        samples: 3,
                        mean_ns,
                        min_ns: mean_ns,
                        max_ns: mean_ns,
                    },
                    speedup: 4e8 / mean_ns,
                })
                .collect(),
            accel_inference: AccelInferenceBench {
                v_volts: 0.4,
                inference: Timing {
                    samples: 3,
                    mean_ns: 5e4,
                    min_ns: 4e4,
                    max_ns: 6e4,
                },
            },
            retrain: RetrainBench {
                network: "toy".into(),
                target_mv: 380,
                epochs: 2,
                trials: 4,
                run: Timing::from_samples(&[1.5e8, 1.4e8]),
                epoch: Timing::from_samples(&[9e7, 1.1e8]),
            },
        };
        let parsed = crate::json::parse(&report.to_json_pretty()).expect("valid JSON");
        assert_eq!(parsed.get("bench").and_then(Value::as_str), Some("mc"));
        assert_eq!(
            parsed.get("available_parallelism").and_then(Value::as_f64),
            Some(2.0)
        );
        let gen = parsed
            .get("generation")
            .and_then(Value::as_array)
            .expect("generation array");
        let speedup = gen[0]
            .get("speedup")
            .and_then(Value::as_f64)
            .expect("speedup");
        assert!((speedup - 25_000.0).abs() < 1.0);
        let seconds = parsed
            .get("accuracy_sweep")
            .and_then(|s| s.get("seconds"))
            .and_then(Value::as_f64)
            .expect("sweep seconds");
        assert!((seconds - 2.0).abs() < 1e-9);
        let fwd = &parsed
            .get("forward_pass")
            .and_then(Value::as_array)
            .expect("forward_pass rows")[0];
        let throughput = fwd
            .get("images_per_sec")
            .and_then(Value::as_f64)
            .expect("throughput");
        assert!((throughput - 2_000.0).abs() < 1e-6);
        let fleet = &parsed
            .get("fleet")
            .and_then(Value::as_array)
            .expect("fleet rows")[0];
        assert_eq!(fleet.get("model").and_then(Value::as_str), Some("gaussian"));
        let us = fleet
            .get("us_per_die")
            .and_then(Value::as_f64)
            .expect("us_per_die");
        assert!((us - 8.0).abs() < 1e-9);
        let scaling = parsed
            .get("engine_scaling")
            .and_then(Value::as_array)
            .expect("engine_scaling rows");
        let threads: Vec<f64> = scaling
            .iter()
            .map(|row| row.get("threads").and_then(Value::as_f64).expect("threads"))
            .collect();
        assert_eq!(threads, [1.0, 2.0]);
        let speedup = scaling[1]
            .get("speedup")
            .and_then(Value::as_f64)
            .expect("speedup");
        assert!((speedup - 1.6).abs() < 1e-9);
        let mean_ns = scaling[1]
            .get("evaluate")
            .and_then(|t| t.get("mean_ns"))
            .and_then(Value::as_f64)
            .expect("evaluate.mean_ns");
        assert!((mean_ns - 2.5e8).abs() < 1e-3);
        let accel = parsed.get("accel_inference").expect("accel_inference");
        let inference_ns = accel
            .get("inference")
            .and_then(|t| t.get("mean_ns"))
            .and_then(Value::as_f64)
            .expect("inference.mean_ns");
        assert!((inference_ns - 5e4).abs() < 1e-9);
        let retrain = parsed.get("retrain").expect("retrain");
        assert_eq!(retrain.get("network").and_then(Value::as_str), Some("toy"));
        let mean = |key: &str| {
            retrain
                .get(key)
                .and_then(|t| t.get("mean_ns"))
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("retrain.{key}.mean_ns"))
        };
        assert!((mean("run") - 1.45e8).abs() < 1e-3);
        assert!((mean("epoch") - 1e8).abs() < 1e-3);
    }

    #[test]
    fn fleet_die_bench_times_every_fault_model() {
        let rows = fleet_die_bench(true);
        let models: Vec<&str> = rows.iter().map(|r| r.model).collect();
        assert_eq!(models, ["gaussian", "chip_variation", "correlated_burst"]);
        assert!(rows.iter().all(|r| r.us_per_die() > 0.0));
    }

    #[test]
    fn stage_bench_times_both_stages_of_one_evaluation() {
        // A tiny trained net: the point is positive stage timings over the
        // requested trial count, not their size (the sweep wall clock is
        // gated at full scale in perf_smoke).
        let (net, test) = trained_mnist_fc(400, 64, 1);
        let (corruption, pass) =
            stage_bench(&net, test.images(), test.labels(), 3, Volt::new(0.44));
        assert_eq!((corruption.trials, pass.trials), (3, 3));
        assert_eq!(corruption.v_volts, pass.v_volts);
        assert_eq!(pass.test_images, 64);
        assert!(corruption.corrupt_ns > 0.0);
        assert!(pass.inference_ns > 0.0);
        assert!(pass.images_per_sec() > 0.0);
    }

    #[test]
    fn engine_scaling_rows_start_at_one_worker() {
        let (net, test) = trained_mnist_fc(400, 64, 1);
        let rows =
            engine_scaling_bench(&net, test.images(), test.labels(), 3, Volt::new(0.44), true);
        let threads: Vec<usize> = rows.iter().map(|r| r.threads).collect();
        assert_eq!(threads, scaling_thread_counts());
        assert_eq!(threads[..3], [1, 2, 4]);
        assert!(threads.windows(2).all(|w| w[0] < w[1]), "{threads:?}");
        assert_eq!(rows[0].speedup, 1.0);
        assert!(rows
            .iter()
            .all(|r| r.evaluate.mean_ns > 0.0 && r.speedup.is_finite()));
    }

    #[test]
    fn retrain_bench_times_every_epoch_of_the_timed_runs() {
        let row = retrain_bench(true);
        let spec = RetrainSpec::toy_default();
        assert_eq!(row.network, "toy");
        assert_eq!((row.target_mv, row.epochs), (spec.target_mv, spec.epochs));
        assert_eq!(row.run.samples, 3);
        assert_eq!(row.epoch.samples, 3 * spec.epochs);
        assert!(row.epoch.mean_ns > 0.0 && row.epoch.mean_ns < row.run.mean_ns);
    }

    #[test]
    fn accel_inference_bench_times_the_boosted_program() {
        let row = accel_inference_bench(true);
        assert_eq!(row.v_volts, ACCEL_VDD);
        assert!(row.inference.mean_ns > 0.0);
    }
}
