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
//!    forward/backward pass runs through a quantize→pack→corrupt→unpack
//!    copy of the current weights (the exact overlay machinery the
//!    Monte-Carlo evaluator uses, at the spec's target voltage and fault
//!    model), while the momentum update lands on the clean float weights;
//! 3. re-run the iso-accuracy solve ([`IsoAccuracySpec::solve_with`]) on
//!    both the baseline and the hardened network — same seeds, same dies,
//!    same test set — and report the `V_min` gap and energy ratios under
//!    single/boosted/dual supplies.
//!
//! Determinism: the corruption die of epoch `e` is drawn from
//! `derive_seed(spec.seed, site::RETRAIN_EPOCH, e)` (or index 0 under
//! [`ResamplePolicy::Hold`]), the mini-batch shuffle stream from the
//! reserved top index of the same site, and the loop is single-threaded —
//! so identical specs reproduce bit-identical hardened weights on any
//! machine and under any `DANTE_THREADS` setting.

use crate::accuracy::{AccuracyEvaluator, EccMode, VoltageAssignment};
use crate::iso::{IsoAccuracyResult, IsoAccuracySpec, IsoConfigPoint};
use crate::sweep::NetworkSpec;
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

    /// The iso-accuracy spec both comparison solves run under (with this
    /// spec's fault model substituted via [`IsoAccuracySpec::solve_with`]).
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
        if !(310..=700).contains(&self.target_mv) {
            return Err(format!(
                "target_mv = {} outside the modeled 310..=700 mV range",
                self.target_mv
            ));
        }
        if !(1..=32).contains(&self.epochs) {
            return Err(format!("epochs = {} outside 1..=32", self.epochs));
        }
        self.fault_model.validate()?;
        self.iso_spec().validate()
    }

    /// The canonical flat encoding of the spec — the `dante.retrain.v1`
    /// content-address family. All retrain-specific fields are encoded
    /// directly; everything shared with a sweep (seed, trials, ECC, fault
    /// model, network, grid) rides in the trailing `base=` single-supply
    /// sweep encoding, which is itself injective. The floor is encoded by
    /// its exact bit pattern.
    #[must_use]
    pub fn canonical_string(&self) -> String {
        let base = crate::sweep::SweepSpec {
            seed: self.seed,
            voltages_mv: self.voltages_mv.clone(),
            trials: self.trials,
            ecc: self.ecc,
            network: self.network.clone(),
            supply: crate::sweep::SupplySpec::Single,
            fault_model: self.fault_model,
            geometry: crate::sweep::GeometrySpec::Calibrated,
        };
        let mut out = String::new();
        let _ = write!(
            out,
            "dante.retrain.v1;target_mv={};epochs={};resample={};floor_bits={:016x};level={};base={}",
            self.target_mv,
            self.epochs,
            self.resample.canonical_token(),
            self.floor.to_bits(),
            self.level,
            base.canonical_string(),
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
    /// NDJSON stream behind `POST /v1/retrain`).
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`Self::validate`].
    #[must_use]
    pub fn run_observed(&self, on_event: &mut dyn FnMut(&RetrainEvent)) -> HardenedNetwork {
        if let Err(why) = self.validate() {
            panic!("invalid retrain spec: {why}");
        }
        let (mut net, train_images, train_labels, test_images, test_labels) = self.base_and_data();
        let baseline_net = net.clone();

        let weight_layers = net.weight_layer_indices().len();
        let assignment = VoltageAssignment::uniform(
            Volt::from_millivolts(f64::from(self.target_mv)),
            weight_layers,
        );
        // Trial count 1: the evaluator is only used as the corruption
        // engine here; the comparison solves build their own.
        let corruptor = AccuracyEvaluator::new(1)
            .with_ecc(self.ecc)
            .with_fault_spec(self.fault_model);
        let die_seed = |epoch: usize| {
            let index = match self.resample {
                ResamplePolicy::EveryEpoch => epoch as u64,
                ResamplePolicy::Hold => 0,
            };
            derive_seed(self.seed, site::RETRAIN_EPOCH, index)
        };

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
        train_fault_injected(
            &mut net,
            &train_images,
            &train_labels,
            &config,
            &mut rng,
            |epoch, clean| Some(corruptor.corrupt_network(clean, &assignment, die_seed(epoch))),
            |phase| match phase {
                TrainPhase::EpochStart { epoch } => {
                    on_event(&RetrainEvent::EpochStart { epoch });
                }
                TrainPhase::EpochDone { epoch, loss, net } => {
                    let clean_accuracy = net.accuracy(&test_images, &test_labels);
                    let faulty = corruptor.corrupt_network(net, &assignment, die_seed(epoch));
                    let faulty_accuracy = faulty.accuracy(&test_images, &test_labels);
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

        // Both configurations must clear the SAME absolute accuracy bar —
        // the baseline's floor * clean_accuracy. Without the override a
        // hardened network whose clean accuracy slipped would get a lower
        // bar of its own, and the "gap" would reward degradation.
        let iso = self.iso_spec();
        let baseline = iso.solve_with(self.fault_model, Some(&baseline_net), None);
        let hardened = iso.solve_with(self.fault_model, Some(&net), Some(baseline.target_accuracy));

        HardenedNetwork {
            spec: self.clone(),
            network: net,
            epochs: reports,
            baseline,
            hardened,
        }
    }

    /// The base network plus its training and test buffers:
    /// `(net, train_images, train_labels, test_images, test_labels)`.
    fn base_and_data(&self) -> (Network, Vec<f32>, Vec<u8>, Vec<f32>, Vec<u8>) {
        match self.network {
            NetworkSpec::Toy => {
                let (net, images, labels) = crate::sweep::toy_net_and_data();
                // The toy set doubles as train and test, like the toy sweeps.
                (
                    net.clone(),
                    images.clone(),
                    labels.clone(),
                    images.clone(),
                    labels.clone(),
                )
            }
            NetworkSpec::MnistFc {
                train_n,
                test_n,
                epochs,
            } => {
                let (net, test) = crate::artifacts::trained_mnist_fc(train_n, test_n, epochs);
                let train = dante_nn::data::generate_mnist_like(train_n, 1);
                (
                    net,
                    train.images().to_vec(),
                    train.labels().to_vec(),
                    test.images().to_vec(),
                    test.labels().to_vec(),
                )
            }
            NetworkSpec::AlexNetConv {
                train_n,
                test_n,
                epochs,
                ..
            } => {
                let (net, test) = crate::artifacts::trained_cifar_cnn(train_n, test_n, epochs);
                let train = dante_nn::data::generate_cifar_like(train_n, 3);
                (
                    net,
                    train.images().to_vec(),
                    train.labels().to_vec(),
                    test.images().to_vec(),
                    test.labels().to_vec(),
                )
            }
        }
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
    /// tests compare.
    #[must_use]
    pub fn weight_digest(&self) -> u64 {
        crate::artifacts::fnv1a(&self.network.to_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
