//! Fault-aware retraining: harden a network under injected bit errors and
//! quantify the `V_min` those errors buy back.
//!
//! The paper lowers `V_min` with circuit-level boosting; MATIC (Kim et
//! al.) and Stutz et al.'s bit-error-robust training show the
//! complementary software lever — injecting the *same* bit errors during
//! training yields networks that tolerate substantially lower voltages at
//! iso-accuracy. This module closes that loop over the existing stack:
//!
//! 1. load the base network a [`NetworkSpec`] describes (the cached
//!    trained artifact a sweep would evaluate);
//! 2. fine-tune it with straight-through-estimator SGD
//!    ([`dante_nn::train::train_fault_injected`]): every mini-batch's
//!    forward/backward pass runs through one held corrupted copy of the
//!    current weights, while the momentum update lands on the clean float
//!    weights. The epoch's die (a `WeightDie`, at the spec's target voltage,
//!    fault model and ECC mode) is sampled once, since its flipped words
//!    never depend on weight values; before each mini-batch the copy is
//!    refreshed in place — weights re-quantized, biases copied, the die's
//!    words rewritten — which is exactly what
//!    [`AccuracyEvaluator::corrupt_network`] returns for the current
//!    weights;
//! 3. run the iso-accuracy solve on both the baseline and the hardened
//!    network, each walking its own handle of one base sweep
//!    (`RetrainSpec::base_sweep`, handed the network with
//!    `SweepSpec::prepare_with`) — same seeds, same dies, same test set —
//!    and report the `V_min` gap and energy ratios under
//!    single/boosted/dual supplies. The base network and its test set load
//!    once. The baseline solve never reads the trained weights, so it runs
//!    on a scoped thread from the moment the base network is loaded,
//!    overlapping training-set generation and the training loop; the
//!    hardened solve follows, while a second scoped thread hashes the
//!    hardened weights for [`HardenedNetwork::weight_digest`].
//!
//! Determinism: the corruption die of epoch `e` is drawn from
//! `derive_seed(spec.seed, site::RETRAIN_EPOCH, e)` (or index 0 under
//! [`ResamplePolicy::Hold`]), the mini-batch shuffle stream from the
//! reserved top index of the same site, and the training loop runs on the
//! calling thread alone. The threads beside it share nothing mutable with
//! it: the baseline solve reads its own copy of the base network, and both
//! solves are the trial engine's thread-count-invariant evaluations. So
//! identical specs reproduce bit-identical hardened weights and solves on
//! any machine and under any `DANTE_THREADS` setting.

use crate::accuracy::{AccuracyEvaluator, EccMode, VoltageAssignment, WeightDie};
use crate::iso::{IsoAccuracyResult, IsoAccuracySpec, IsoConfigPoint};
use crate::sweep::{NetworkSpec, SweepSpec, SUPPORTED_MV};
use dante_circuit::units::Volt;
use dante_nn::network::Network;
use dante_nn::train::{train_fault_injected, SgdConfig, TrainPhase};
use dante_sim::{derive_seed, site};
use dante_sram::model::FaultModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

/// How often the corruption die is resampled while training.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResamplePolicy {
    /// A fresh die per epoch (`derive_seed(seed, RETRAIN_EPOCH, epoch)`):
    /// the network sees many fault patterns and learns the error
    /// *statistics* rather than one die's layout.
    EveryEpoch,
    /// One die for the whole run (`derive_seed(seed, RETRAIN_EPOCH, 0)`):
    /// the MATIC-style per-chip calibration setting.
    Hold,
}

impl ResamplePolicy {
    /// The canonical lowercase token (`every_epoch` / `hold`).
    #[must_use]
    pub fn canonical_token(self) -> &'static str {
        match self {
            Self::EveryEpoch => "every_epoch",
            Self::Hold => "hold",
        }
    }
}

/// Retraining hyper-parameters are fixed constants of the `v1` key family
/// (changing them would silently alias cache entries): a conservative
/// fine-tuning schedule on top of the already-trained base artifact.
const RETRAIN_LR: f32 = 0.0005;
const RETRAIN_MOMENTUM: f32 = 0.9;
const RETRAIN_BATCH: usize = 32;
const RETRAIN_LR_DECAY: f32 = 0.9;

/// A complete, serializable description of one fault-aware retraining run
/// plus the iso-accuracy comparison that scores it.
#[derive(Debug, Clone, PartialEq)]
pub struct RetrainSpec {
    /// Root seed: epoch dies, the shuffle stream, and both comparison
    /// solves derive from it.
    pub seed: u64,
    /// Base network (and training/test data) to harden.
    pub network: NetworkSpec,
    /// Logic-rail voltage (millivolts) the training-time overlays are
    /// drawn at — train at the voltage you intend to deploy at.
    pub target_mv: u32,
    /// Fault statistics injected during training *and* used by both
    /// comparison solves.
    pub fault_model: FaultModel,
    /// Fine-tuning epochs.
    pub epochs: usize,
    /// Die resampling policy.
    pub resample: ResamplePolicy,
    /// Candidate grid for the iso-accuracy comparison, in millivolts.
    pub voltages_mv: Vec<u32>,
    /// Monte-Carlo dies per candidate voltage in the comparison.
    pub trials: usize,
    /// Accuracy floor (fraction of clean accuracy) for the comparison.
    pub floor: f64,
    /// Boost level of the comparison's boosted configuration.
    pub level: usize,
    /// Error-protection mode (training corruption and comparison).
    pub ecc: EccMode,
}

impl RetrainSpec {
    /// A fast toy default: harden the toy network at 380 mV.
    #[must_use]
    pub fn toy_default() -> Self {
        Self {
            seed: 0x4E7_8A1,
            network: NetworkSpec::Toy,
            target_mv: 380,
            fault_model: FaultModel::default(),
            epochs: 2,
            resample: ResamplePolicy::EveryEpoch,
            voltages_mv: (340..=600).step_by(20).collect(),
            trials: 4,
            floor: 0.97,
            level: 4,
            ecc: EccMode::None,
        }
    }

    /// The iso-accuracy spec both comparison solves run under: its floor
    /// and boost level walk the spec's single-supply base sweep.
    #[must_use]
    pub fn iso_spec(&self) -> IsoAccuracySpec {
        IsoAccuracySpec {
            seed: self.seed,
            voltages_mv: self.voltages_mv.clone(),
            trials: self.trials,
            floor: self.floor,
            level: self.level,
            ecc: self.ecc,
            network: self.network.clone(),
        }
    }

    /// Validates the spec's bounds (including the comparison solve's and
    /// the fault model's).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated bound.
    pub fn validate(&self) -> Result<(), String> {
        if !SUPPORTED_MV.contains(&self.target_mv) {
            return Err(format!(
                "target_mv = {} outside the modeled {SUPPORTED_MV:?} mV range",
                self.target_mv
            ));
        }
        if !(1..=32).contains(&self.epochs) {
            return Err(format!("epochs = {} outside 1..=32", self.epochs));
        }
        self.fault_model.validate()?;
        self.iso_spec().validate()
    }

    /// The single-supply sweep both comparison solves walk: the iso spec's
    /// under this spec's fault model. Its canonical string is this spec's
    /// `base=`.
    #[must_use]
    pub(crate) fn base_sweep(&self) -> SweepSpec {
        SweepSpec {
            fault_model: self.fault_model,
            ..self.iso_spec().single_sweep()
        }
    }

    /// The canonical flat encoding of the spec — the `dante.retrain.v1`
    /// content-address family. All retrain-specific fields are encoded
    /// directly; everything shared with a sweep (seed, trials, ECC, fault
    /// model, network, grid) rides in the trailing `base=` encoding of the
    /// single-supply sweep both comparison solves walk, under the spec's
    /// fault model, which is itself injective. The floor is encoded by its
    /// exact bit pattern.
    #[must_use]
    pub fn canonical_string(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "dante.retrain.v1;target_mv={};epochs={};resample={};floor_bits={:016x};level={};base={}",
            self.target_mv,
            self.epochs,
            self.resample.canonical_token(),
            self.floor.to_bits(),
            self.level,
            self.base_sweep().canonical_string(),
        );
        out
    }

    /// Runs the full stage: load, harden, compare. Heavy — two iso solves
    /// plus the training loop.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`Self::validate`].
    #[must_use]
    pub fn run(&self) -> HardenedNetwork {
        self.run_observed(&mut |_| ())
    }

    /// [`Self::run`] with per-epoch telemetry: `on_event` sees a
    /// [`RetrainEvent`] at each epoch boundary while training runs (the
    /// NDJSON stream behind `POST /v1/retrain`). Events come from the
    /// calling thread, in order.
    ///
    /// The base network and its test set load once. The baseline iso solve
    /// walks a copy of them and never reads the trained weights, so it runs
    /// on a scoped thread from the moment they are loaded, while the
    /// calling thread generates the training set and trains. It is joined
    /// before the hardened solve, which walks the trained network and
    /// needs the baseline's accuracy bar; the hardened weights are hashed
    /// on a second scoped thread while that solve runs. A panic on either
    /// thread resurfaces here with its own payload.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`Self::validate`].
    #[must_use]
    pub fn run_observed(&self, on_event: &mut dyn FnMut(&RetrainEvent)) -> HardenedNetwork {
        if let Err(why) = self.validate() {
            panic!("invalid retrain spec: {why}");
        }
        let (mut net, test_images, test_labels) = self.network.load();
        let base = self.base_sweep();
        let iso = self.iso_spec();
        let baseline_sweep =
            base.prepare_with(net.clone(), test_images.clone(), test_labels.clone());
        let (epochs, baseline) = std::thread::scope(|scope| {
            let baseline = scope.spawn(|| iso.walk(baseline_sweep, None));
            let epochs = self.train(&mut net, &test_images, &test_labels, on_event);
            (epochs, joined(baseline))
        });

        // Both configurations must clear the SAME absolute accuracy bar —
        // the baseline's floor * clean_accuracy. Without the override a
        // hardened network whose clean accuracy slipped would get a lower
        // bar of its own, and the "gap" would reward degradation.
        let hardened_sweep = base.prepare_with(net.clone(), test_images, test_labels);
        let (hardened, digest) = std::thread::scope(|scope| {
            let digest = scope.spawn(|| crate::artifacts::fnv1a(&net.to_bytes()));
            let hardened = iso.walk(hardened_sweep, Some(baseline.target_accuracy));
            (hardened, joined(digest))
        });

        HardenedNetwork {
            spec: self.clone(),
            network: net,
            epochs,
            baseline,
            hardened,
            digest,
        }
    }

    /// Generates the training set and fine-tunes `net` on it, reporting
    /// each epoch to `on_event` and in the returned reports.
    fn train(
        &self,
        net: &mut Network,
        test_images: &[f32],
        test_labels: &[u8],
        on_event: &mut dyn FnMut(&RetrainEvent),
    ) -> Vec<EpochReport> {
        let (train_images, train_labels) = self.training_set();
        let assignment = self.assignment(net);
        let corruptor = self.corruptor();

        // The shuffle stream lives at the site's reserved top index so it
        // can never collide with an epoch die (epochs are capped at 32).
        let mut rng = StdRng::seed_from_u64(derive_seed(self.seed, site::RETRAIN_EPOCH, u64::MAX));
        let config = SgdConfig {
            learning_rate: RETRAIN_LR,
            momentum: RETRAIN_MOMENTUM,
            batch_size: RETRAIN_BATCH,
            epochs: self.epochs,
            lr_decay: RETRAIN_LR_DECAY,
        };

        let mut reports: Vec<EpochReport> = Vec::with_capacity(self.epochs);
        // The one corrupted copy every mini-batch trains through, rewritten
        // in place from the current weights under the epoch's die.
        let mut forward = net.clone();
        let mut die = HeldDie::default();
        train_fault_injected(
            net,
            &train_images,
            &train_labels,
            &config,
            &mut rng,
            Some(&mut forward),
            |epoch, clean, forward| {
                die.refresh(
                    &corruptor,
                    &assignment,
                    self.die_seed(epoch),
                    clean,
                    forward,
                );
            },
            |phase| match phase {
                TrainPhase::EpochStart { epoch } => {
                    on_event(&RetrainEvent::EpochStart { epoch });
                }
                TrainPhase::EpochDone { epoch, loss, net } => {
                    let clean_accuracy = net.accuracy(test_images, test_labels);
                    let faulty = corruptor.corrupt_network(net, &assignment, self.die_seed(epoch));
                    let faulty_accuracy = faulty.accuracy(test_images, test_labels);
                    let event = RetrainEvent::EpochDone {
                        epoch,
                        loss,
                        clean_accuracy,
                        faulty_accuracy,
                    };
                    on_event(&event);
                    reports.push(EpochReport {
                        epoch,
                        loss,
                        clean_accuracy,
                        faulty_accuracy,
                    });
                }
            },
        );
        reports
    }

    /// The corruption engine of the training loop: trial count 1, since
    /// it only corrupts; the comparison solves build their own evaluators.
    fn corruptor(&self) -> AccuracyEvaluator {
        AccuracyEvaluator::new(1)
            .with_ecc(self.ecc)
            .with_fault_spec(self.fault_model)
    }

    /// Every weight layer of `net` (and the inputs) at the target voltage.
    fn assignment(&self, net: &Network) -> VoltageAssignment {
        VoltageAssignment::uniform(
            Volt::from_millivolts(f64::from(self.target_mv)),
            net.weight_layer_indices().len(),
        )
    }

    /// The seed of epoch `epoch`'s corruption die under the spec's
    /// [`ResamplePolicy`].
    fn die_seed(&self, epoch: usize) -> u64 {
        let index = match self.resample {
            ResamplePolicy::EveryEpoch => epoch as u64,
            ResamplePolicy::Hold => 0,
        };
        derive_seed(self.seed, site::RETRAIN_EPOCH, index)
    }

    /// The training buffers: `(images, labels)`.
    fn training_set(&self) -> (Vec<f32>, Vec<u8>) {
        let train = match self.network {
            NetworkSpec::Toy => {
                // The toy set doubles as train and test, like the toy sweeps.
                let (_, images, labels) = crate::sweep::toy_net_and_data();
                return (images.clone(), labels.clone());
            }
            NetworkSpec::MnistFc { train_n, .. } => dante_nn::data::generate_mnist_like(train_n, 1),
            NetworkSpec::AlexNetConv { train_n, .. } => {
                dante_nn::data::generate_cifar_like(train_n, 3)
            }
        };
        (train.images().to_vec(), train.labels().to_vec())
    }
}

/// Joins a scoped thread, resuming its panic with the original payload.
fn joined<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
    handle
        .join()
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

/// The die a retraining run's held corrupted copy is refreshed under,
/// sampled once per die seed: once per epoch under
/// [`ResamplePolicy::EveryEpoch`], once per run under [`ResamplePolicy::Hold`].
/// It also keeps the code buffer every refresh re-packs flipped words from.
#[derive(Debug, Default)]
struct HeldDie {
    die: Option<(u64, WeightDie)>,
    codes: Vec<u16>,
}

impl HeldDie {
    /// Rewrites `forward` into what `corruptor.corrupt_network(clean,
    /// assignment, seed)` returns, sampling the die only when `seed`
    /// changes: its flipped words never depend on the weights.
    fn refresh(
        &mut self,
        corruptor: &AccuracyEvaluator,
        assignment: &VoltageAssignment,
        seed: u64,
        clean: &Network,
        forward: &mut Network,
    ) {
        if self.die.as_ref().map(|(s, _)| *s) != Some(seed) {
            self.die = Some((seed, corruptor.weight_die(clean, assignment, seed)));
        }
        let (_, die) = self.die.as_ref().expect("sampled above");
        die.corrupt_into(clean, forward, &mut self.codes);
    }
}

/// A per-epoch telemetry event emitted while a retraining run executes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetrainEvent {
    /// Epoch `epoch` (zero-based) is starting.
    EpochStart {
        /// Zero-based epoch index.
        epoch: usize,
    },
    /// Epoch `epoch` finished.
    EpochDone {
        /// Zero-based epoch index.
        epoch: usize,
        /// Mean mini-batch loss at the corrupted forward weights.
        loss: f32,
        /// Fault-free test accuracy of the network after the epoch.
        clean_accuracy: f64,
        /// Test accuracy under the epoch's own corruption die.
        faulty_accuracy: f64,
    },
}

/// One epoch's telemetry, retained in the artifact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochReport {
    /// Zero-based epoch index.
    pub epoch: usize,
    /// Mean mini-batch loss at the corrupted forward weights.
    pub loss: f32,
    /// Fault-free test accuracy after the epoch.
    pub clean_accuracy: f64,
    /// Test accuracy under the epoch's corruption die.
    pub faulty_accuracy: f64,
}

/// The artifact a retraining run emits: the hardened weights plus the
/// baseline/hardened iso-accuracy comparison that scores them.
#[derive(Debug, Clone, PartialEq)]
pub struct HardenedNetwork {
    /// The spec that produced this artifact.
    pub spec: RetrainSpec,
    /// The hardened network (clean float weights after fine-tuning).
    pub network: Network,
    /// Per-epoch telemetry.
    pub epochs: Vec<EpochReport>,
    /// Iso-accuracy solve of the *base* network under the spec's fault
    /// model.
    pub baseline: IsoAccuracyResult,
    /// The same solve on the hardened network — same seeds, same dies.
    pub hardened: IsoAccuracyResult,
    /// [`Self::weight_digest`], computed once when the run produced
    /// `network`.
    digest: u64,
}

fn vmin_mv(point: &Option<IsoConfigPoint>) -> Option<f64> {
    point.as_ref().map(|p| p.v_logic.millivolts())
}

fn gap_mv(baseline: &Option<IsoConfigPoint>, hardened: &Option<IsoConfigPoint>) -> Option<f64> {
    match (baseline, hardened) {
        (Some(b), Some(h)) => Some(b.v_logic.millivolts() - h.v_logic.millivolts()),
        _ => None,
    }
}

fn energy_ratio(
    baseline: &Option<IsoConfigPoint>,
    hardened: &Option<IsoConfigPoint>,
) -> Option<f64> {
    match (baseline, hardened) {
        (Some(b), Some(h)) => {
            Some(h.energy.dynamic.total().joules() / b.energy.dynamic.total().joules())
        }
        _ => None,
    }
}

impl HardenedNetwork {
    /// Baseline single-supply `V_min` in millivolts, if the floor was met.
    #[must_use]
    pub fn baseline_single_vmin_mv(&self) -> Option<f64> {
        vmin_mv(&self.baseline.single)
    }

    /// Hardened single-supply `V_min` in millivolts, if the floor was met.
    #[must_use]
    pub fn hardened_single_vmin_mv(&self) -> Option<f64> {
        vmin_mv(&self.hardened.single)
    }

    /// `baseline − hardened` single-supply `V_min` in millivolts: positive
    /// means retraining bought voltage margin.
    #[must_use]
    pub fn single_vmin_gap_mv(&self) -> Option<f64> {
        gap_mv(&self.baseline.single, &self.hardened.single)
    }

    /// `baseline − hardened` boosted `V_min` in millivolts.
    #[must_use]
    pub fn boosted_vmin_gap_mv(&self) -> Option<f64> {
        gap_mv(&self.baseline.boosted, &self.hardened.boosted)
    }

    /// Hardened-over-baseline dynamic energy at each configuration's own
    /// single-supply operating point (< 1 means retraining saves energy).
    #[must_use]
    pub fn single_energy_ratio(&self) -> Option<f64> {
        energy_ratio(&self.baseline.single, &self.hardened.single)
    }

    /// Hardened-over-baseline dynamic energy at the boosted points.
    #[must_use]
    pub fn boosted_energy_ratio(&self) -> Option<f64> {
        energy_ratio(&self.baseline.boosted, &self.hardened.boosted)
    }

    /// Hardened-over-baseline dynamic energy at the dual-supply baselines.
    #[must_use]
    pub fn dual_energy_ratio(&self) -> Option<f64> {
        energy_ratio(&self.baseline.dual, &self.hardened.dual)
    }

    /// FNV-1a digest of the hardened weights' serialized bytes — the cheap
    /// byte-identity witness the service response and the determinism
    /// tests compare. Computed once by the run that produced `network`.
    #[must_use]
    pub fn weight_digest(&self) -> u64 {
        self.digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dante_nn::train::SgdConfig;

    #[test]
    fn canonical_string_prefix_and_fields() {
        let spec = RetrainSpec::toy_default();
        let s = spec.canonical_string();
        assert!(s.starts_with("dante.retrain.v1;"), "{s}");
        assert!(s.contains("target_mv=380;"), "{s}");
        assert!(s.contains("resample=every_epoch;"), "{s}");
        assert!(
            s.ends_with(
                ";base=dante.sweep.v5;seed=5142689;trials=4;ecc=none;geom=calibrated;\
                 fault=gaussian(mu=352,sigma=40,flip=500000);supply=single;net=toy;\
                 mv=340,360,380,400,420,440,460,480,500,520,540,560,580,600"
            ),
            "{s}"
        );

        // Each retrain-specific field changes the encoding.
        let mut b = spec.clone();
        b.target_mv = 400;
        assert_ne!(spec.canonical_string(), b.canonical_string());
        let mut b = spec.clone();
        b.resample = ResamplePolicy::Hold;
        assert_ne!(spec.canonical_string(), b.canonical_string());
        let mut b = spec.clone();
        b.epochs = 3;
        assert_ne!(spec.canonical_string(), b.canonical_string());
        let mut b = spec.clone();
        b.floor = 0.97 + 1e-12;
        assert_ne!(spec.canonical_string(), b.canonical_string());
    }

    #[test]
    fn validation_rejects_bad_bounds() {
        let mut bad = RetrainSpec::toy_default();
        bad.target_mv = 200;
        assert!(bad.validate().unwrap_err().contains("target_mv"));
        let mut bad = RetrainSpec::toy_default();
        bad.epochs = 0;
        assert!(bad.validate().unwrap_err().contains("epochs"));
        let mut bad = RetrainSpec::toy_default();
        bad.epochs = 33;
        assert!(bad.validate().is_err());
        let mut bad = RetrainSpec::toy_default();
        bad.floor = 0.0;
        assert!(bad.validate().is_err());
        let mut bad = RetrainSpec::toy_default();
        bad.voltages_mv = vec![440, 440];
        assert!(bad.validate().is_err());
    }

    #[test]
    fn toy_run_is_deterministic_and_events_are_ordered() {
        let spec = RetrainSpec {
            trials: 2,
            voltages_mv: vec![360, 420, 480, 540],
            ..RetrainSpec::toy_default()
        };
        let mut events = Vec::new();
        let a = spec.run_observed(&mut |e| events.push(*e));
        let b = spec.run();
        assert_eq!(a.network.to_bytes(), b.network.to_bytes());
        assert_eq!(a.weight_digest(), b.weight_digest());
        assert_eq!(
            a.weight_digest(),
            crate::artifacts::fnv1a(&a.network.to_bytes()),
            "the stored digest hashes the returned weights"
        );
        assert_eq!(a.epochs, b.epochs);
        assert_eq!(a.baseline, b.baseline);
        assert_eq!(a.hardened, b.hardened);

        // epoch_start/epoch_done alternate in order.
        assert_eq!(events.len(), 2 * spec.epochs);
        for (i, pair) in events.chunks(2).enumerate() {
            assert!(matches!(pair[0], RetrainEvent::EpochStart { epoch } if epoch == i));
            assert!(matches!(pair[1], RetrainEvent::EpochDone { epoch, .. } if epoch == i));
        }

        // A different seed must produce different hardened weights.
        let other = RetrainSpec {
            seed: spec.seed ^ 1,
            ..spec.clone()
        };
        let c = other.run();
        assert_ne!(a.network.to_bytes(), c.network.to_bytes());
    }

    /// The held copy every mini-batch trains through equals a fresh
    /// `corrupt_network` of the current clean weights under the epoch's
    /// die, byte for byte, after every SGD step: for both ECC modes, three
    /// fault models, a dense and a conv network, and both resample
    /// policies.
    #[test]
    fn held_copy_matches_corrupt_network_after_every_step() {
        use dante_nn::layers::{Conv2d, Dense, Layer, MaxPool2d, Relu, Shape3};
        let (dense, dense_images, dense_labels) = crate::sweep::toy_net_and_data().clone();
        let mut rng = StdRng::seed_from_u64(23);
        let conv = Network::new(vec![
            Layer::Conv2d(Conv2d::new(Shape3::new(2, 6, 6), 3, 3, 1, &mut rng)),
            Layer::Relu(Relu::new(3 * 6 * 6)),
            Layer::MaxPool2d(MaxPool2d::new(Shape3::new(3, 6, 6))),
            Layer::Dense(Dense::new(3 * 3 * 3, 2, &mut rng)),
        ])
        .unwrap();
        let conv_labels: Vec<u8> = (0..40).map(|i| (i % 2) as u8).collect();
        let conv_images: Vec<f32> = (0..40 * 72)
            .map(|i| ((i * 31) % 97) as f32 / 97.0 + if (i / 72) % 2 == 0 { 0.3 } else { 0.0 })
            .collect();

        for (base, images, labels) in [
            (dense, dense_images, dense_labels),
            (conv, conv_images, conv_labels),
        ] {
            for ecc in [EccMode::None, EccMode::SecDed] {
                for fault_model in [
                    FaultModel::gaussian_default(),
                    FaultModel::chip_variation_default(),
                    FaultModel::burst_default(),
                ] {
                    for resample in [ResamplePolicy::EveryEpoch, ResamplePolicy::Hold] {
                        let spec = RetrainSpec {
                            ecc,
                            fault_model,
                            resample,
                            epochs: 3,
                            ..RetrainSpec::toy_default()
                        };
                        let corruptor = spec.corruptor();
                        let assignment = spec.assignment(&base);
                        let mut net = base.clone();
                        let mut forward = net.clone();
                        let mut die = HeldDie::default();
                        let mut steps = 0usize;
                        let config = SgdConfig {
                            epochs: spec.epochs,
                            batch_size: 16,
                            ..SgdConfig::default()
                        };
                        train_fault_injected(
                            &mut net,
                            &images,
                            &labels,
                            &config,
                            &mut StdRng::seed_from_u64(1),
                            Some(&mut forward),
                            |epoch, clean, forward| {
                                let seed = spec.die_seed(epoch);
                                die.refresh(&corruptor, &assignment, seed, clean, forward);
                                assert_eq!(
                                    forward.to_bytes(),
                                    corruptor
                                        .corrupt_network(clean, &assignment, seed)
                                        .to_bytes(),
                                    "{ecc:?} {fault_model:?} {resample:?} step {steps}"
                                );
                                steps += 1;
                            },
                            |_| (),
                        );
                        assert_eq!(
                            steps,
                            spec.epochs * labels.len().div_ceil(16),
                            "one refresh per mini-batch"
                        );
                        assert_ne!(net, base, "the weights moved between refreshes");
                    }
                }
            }
        }
    }

    #[test]
    fn a_scoped_panic_resurfaces_with_its_own_payload() {
        let caught = std::panic::catch_unwind(|| {
            std::thread::scope(|scope| {
                let side = scope.spawn(|| -> u64 { panic!("baseline solve failed") });
                joined(side)
            })
        })
        .expect_err("the side thread panicked");
        assert_eq!(
            caught.downcast_ref::<&str>(),
            Some(&"baseline solve failed")
        );
    }

    /// Every number of the comparison solves, folded into one FNV-1a
    /// digest of their bits: the toy retrain under three fault models,
    /// both resample policies and both ECC modes (both iso results, every
    /// epoch report and the weight digest), plus the toy iso solve under
    /// both ECC modes. The `retrain` and `iso_accuracy` goldens cover only
    /// the default Gaussian model; this covers how a non-default model
    /// reaches the solves.
    #[test]
    fn comparison_solves_are_pinned() {
        fn fold(bytes: &mut Vec<u8>, value: f64) {
            bytes.extend_from_slice(&value.to_bits().to_le_bytes());
        }
        fn fold_option(bytes: &mut Vec<u8>, value: Option<f64>) {
            fold(bytes, f64::from(u8::from(value.is_some())));
            fold(bytes, value.unwrap_or(0.0));
        }
        fn fold_iso(bytes: &mut Vec<u8>, r: &IsoAccuracyResult) {
            fold(bytes, r.clean_accuracy);
            fold(bytes, r.target_accuracy);
            for point in [&r.single, &r.boosted, &r.dual] {
                fold(bytes, f64::from(u8::from(point.is_some())));
                if let Some(p) = point {
                    let e = &p.energy;
                    for value in [
                        p.v_logic.volts(),
                        p.v_sram.volts(),
                        p.accuracy_mean,
                        e.dynamic.sram.joules(),
                        e.dynamic.logic.joules(),
                        e.dynamic.booster.joules(),
                        e.leakage_per_cycle.joules(),
                        e.reference_0v5.joules(),
                    ] {
                        fold(bytes, value);
                    }
                }
            }
            fold_option(bytes, r.boosted_over_single);
            fold_option(bytes, r.boosted_over_dual);
        }

        let mut bytes = Vec::new();
        let mut runs = 0usize;
        for fault_model in [
            FaultModel::gaussian_default(),
            FaultModel::burst_default(),
            FaultModel::chip_variation_default(),
        ] {
            for resample in [ResamplePolicy::EveryEpoch, ResamplePolicy::Hold] {
                for ecc in [EccMode::None, EccMode::SecDed] {
                    let h = RetrainSpec {
                        fault_model,
                        resample,
                        ecc,
                        ..RetrainSpec::toy_default()
                    }
                    .run();
                    fold_iso(&mut bytes, &h.baseline);
                    fold_iso(&mut bytes, &h.hardened);
                    for e in &h.epochs {
                        fold(&mut bytes, e.epoch as f64);
                        fold(&mut bytes, f64::from(e.loss));
                        fold(&mut bytes, e.clean_accuracy);
                        fold(&mut bytes, e.faulty_accuracy);
                    }
                    bytes.extend_from_slice(&h.weight_digest().to_le_bytes());
                    runs += 1;
                }
            }
        }
        for ecc in [EccMode::None, EccMode::SecDed] {
            let iso = IsoAccuracySpec {
                ecc,
                ..IsoAccuracySpec::toy_default()
            };
            fold_iso(&mut bytes, &iso.solve());
        }
        assert_eq!(runs, 12);
        assert_eq!(crate::artifacts::fnv1a(&bytes), 0xD81D_CE92_6F70_5B2F);
    }

    #[test]
    fn hardening_does_not_regress_the_toy_vmin() {
        let spec = RetrainSpec {
            trials: 2,
            voltages_mv: vec![360, 400, 440, 480, 520, 560],
            epochs: 3,
            ..RetrainSpec::toy_default()
        };
        let h = spec.run();
        let (Some(base), Some(hard)) = (h.baseline_single_vmin_mv(), h.hardened_single_vmin_mv())
        else {
            panic!("both configurations must meet the floor somewhere on the toy grid");
        };
        assert!(
            hard <= base,
            "hardened V_min {hard} mV must not exceed baseline {base} mV"
        );
        assert_eq!(h.epochs.len(), 3);
        assert!(h.epochs.iter().all(|e| e.loss.is_finite()));
    }
}
